//! Lower-bounding distances (MINDIST) between queries and summarizations.
//!
//! During search, an index never computes true distances to summarized
//! candidates directly; it computes a *lower bound* of the true Euclidean
//! distance from the query to any series whose summarization matches the
//! candidate.  If the lower bound already exceeds the best answer found so
//! far, the candidate (or the whole subtree / key range) is pruned.
//!
//! The bounds implemented here are the standard `MINDIST_PAA_iSAX` family:
//! for each segment, the distance from the query's PAA coefficient to the
//! breakpoint region of the candidate's symbol, scaled by
//! `series_len / segments`.

use crate::breakpoints::{BreakpointTable, Breakpoints};
use crate::invsax::deinterleave;
use crate::isax::IsaxWord;
use crate::sax::SaxWord;
use crate::{SaxConfig, MAX_SEGMENTS};
use coconut_series::kernels::{active_backend, KernelBackend};

/// Squared lower bound between a query PAA vector and a full-resolution SAX
/// word.
pub fn mindist_paa_sax_sq(
    query_paa: &[f64],
    word: &SaxWord,
    config: &SaxConfig,
    breakpoints: &Breakpoints,
) -> f64 {
    assert_eq!(query_paa.len(), config.segments);
    assert_eq!(word.segments(), config.segments);
    assert_eq!(breakpoints.bits(), word.bits());
    let scale = config.series_len as f64 / config.segments as f64;
    let mut acc = 0.0;
    for (seg, &q) in query_paa.iter().enumerate() {
        acc += breakpoints.region_distance_sq(q, word.symbols()[seg] as u32);
    }
    scale * acc
}

/// Squared lower bound between a query PAA vector and a variable-cardinality
/// iSAX word (used by the ADS+ baseline's internal nodes).
///
/// Segments with zero cardinality (unconstrained) contribute nothing.
pub fn mindist_paa_isax_sq(
    query_paa: &[f64],
    word: &IsaxWord,
    config: &SaxConfig,
    table: &BreakpointTable,
) -> f64 {
    assert_eq!(query_paa.len(), config.segments);
    assert_eq!(word.segments(), config.segments);
    let scale = config.series_len as f64 / config.segments as f64;
    let mut acc = 0.0;
    for (seg, &q) in query_paa.iter().enumerate() {
        let sym = word.symbols()[seg];
        if sym.bits == 0 {
            continue;
        }
        let bp = table.for_bits(sym.bits);
        acc += bp.region_distance_sq(q, sym.symbol as u32);
    }
    scale * acc
}

/// Squared lower bound between a query PAA vector and *every* key that
/// shares its first `shared_bits` interleaved bits with `key` (the bound of
/// a sorted block, from the common prefix of its fence keys).
///
/// A shared prefix of `p` bits fixes the first `p / segments` bit levels of
/// every segment plus one more bit of the first `p % segments` segments.
/// The value is [`mindist_paa_isax_sq`] against that partially refined word
/// ([`crate::InvSaxKey::to_isax_prefix`] generalized to a ragged prefix), computed
/// on the stack with the same additions in the same order.
pub fn mindist_paa_key_prefix_sq(
    query_paa: &[f64],
    key: u128,
    shared_bits: u32,
    config: &SaxConfig,
) -> f64 {
    assert_eq!(query_paa.len(), config.segments);
    let full_bits = config.bits_per_segment;
    let segments = config.segments as u32;
    let base_levels = (shared_bits / segments).min(full_bits as u32) as u8;
    let extra_segments = if base_levels >= full_bits {
        0
    } else {
        (shared_bits % segments) as usize
    };
    let mut symbols = [0u8; MAX_SEGMENTS];
    deinterleave(key, config, &mut symbols);
    let table = BreakpointTable::global();
    let scale = config.series_len as f64 / config.segments as f64;
    let mut acc = 0.0;
    for (seg, &q) in query_paa.iter().enumerate() {
        let bits = base_levels + u8::from(seg < extra_segments);
        if bits == 0 {
            continue;
        }
        let symbol = symbols[seg] >> (full_bits - bits);
        acc += table.for_bits(bits).region_distance_sq(q, symbol as u32);
    }
    scale * acc
}

/// The per-query side of the entry bound: the squared distance from every
/// segment of the query PAA to every symbol region, evaluated once, so the
/// bound of an entry is one lookup and one addition per segment.
///
/// `table[seg][symbol] = region_distance_sq(paa[seg], symbol)`, a row of 256
/// per segment whatever the cardinality (a `u8` symbol indexes it without a
/// bounds check; rows past the cardinality stay zero and are never read).
/// For 16 segments of 8 bits that is 32 KiB.
///
/// [`QueryBounds::key_bound_sq`] returns the very `f64` that
/// [`mindist_paa_sax_sq`] returns for the decoded word: the table holds the
/// same per-segment terms, and they are added in the same segment order
/// `0..n` into the same `0.0` before the same multiplication by the scale.
///
/// A scan bounds a whole block with [`QueryBounds::block_bounds_sq`]: on
/// the AVX2 backend it un-interleaves the keys in registers and sums the
/// same cells in the same order, so every bound is
/// [`QueryBounds::key_bound_sq`]'s, bit for bit.
#[derive(Debug, Clone)]
pub struct QueryBounds {
    config: SaxConfig,
    scale: f64,
    table: Vec<[f64; 256]>,
}

impl QueryBounds {
    /// Builds the table for one query from its PAA representation.
    ///
    /// Each row is filled straight from the cut points, split at the
    /// coefficient's own symbol `s`: a symbol below it has its region
    /// wholly under `q`, so its cell is `(q - upper cut)²`; symbol `s`
    /// contains `q` (zero); a symbol above lies wholly over it,
    /// `(lower cut - q)²`.  That is the subtraction and product
    /// `region_distance_sq` picks for the same cell, so for every non-NaN
    /// coefficient the table is bit-identical to filling it through
    /// `region_distance_sq`, without its per-cell region lookup and
    /// branches.
    pub fn new(query_paa: &[f64], config: &SaxConfig) -> Self {
        assert_eq!(query_paa.len(), config.segments);
        let cuts = BreakpointTable::global()
            .for_bits(config.bits_per_segment)
            .cuts();
        let mut table = vec![[0.0; 256]; query_paa.len()];
        for (row, &q) in table.iter_mut().zip(query_paa) {
            let own = cuts.partition_point(|&cut| cut <= q);
            for (cell, &cut) in row[..own].iter_mut().zip(&cuts[..own]) {
                let d = q - cut;
                *cell = d * d;
            }
            for (cell, &cut) in row[own + 1..=cuts.len()].iter_mut().zip(&cuts[own..]) {
                let d = cut - q;
                *cell = d * d;
            }
        }
        QueryBounds {
            config: *config,
            scale: config.series_len as f64 / config.segments as f64,
            table,
        }
    }

    /// Squared lower bound between the query and the entry whose raw
    /// interleaved key is `key`; allocation-free.
    pub fn key_bound_sq(&self, key: u128) -> f64 {
        let mut symbols = [0u8; MAX_SEGMENTS];
        deinterleave(key, &self.config, &mut symbols);
        let mut acc = 0.0;
        for (row, &symbol) in self.table.iter().zip(&symbols) {
            acc += row[symbol as usize];
        }
        self.scale * acc
    }

    /// [`QueryBounds::key_bound_sq`] of every key of a block, in order,
    /// into `out` (cleared first), on the process-wide kernel backend.
    ///
    /// The block is `heads`: one record per `stride` bytes, each starting
    /// with its raw key as 16 big-endian bytes (an index entry's head).
    ///
    /// # Panics
    /// Panics if `stride < 16` or `heads` is not a whole number of records.
    pub fn block_bounds_sq(&self, heads: &[u8], stride: usize, out: &mut Vec<f64>) {
        self.block_bounds_sq_with(active_backend(), heads, stride, out)
    }

    /// [`QueryBounds::block_bounds_sq`] on an explicit backend.  Every
    /// backend returns [`QueryBounds::key_bound_sq`]'s bits; only AVX2 on
    /// whole-byte bit levels (`segments % 8 == 0`) runs a kernel of its
    /// own, every other case loops over [`QueryBounds::key_bound_sq`].
    ///
    /// # Panics
    /// As [`QueryBounds::block_bounds_sq`], and if the backend is not
    /// available on this CPU.
    pub fn block_bounds_sq_with(
        &self,
        backend: KernelBackend,
        heads: &[u8],
        stride: usize,
        out: &mut Vec<f64>,
    ) {
        assert!(
            stride >= KEY_BYTES && heads.len().is_multiple_of(stride),
            "{} bytes of heads at stride {stride}",
            heads.len()
        );
        assert!(
            backend.available(),
            "kernel backend {backend} not available on this CPU"
        );
        #[cfg(target_arch = "x86_64")]
        if backend == KernelBackend::Avx2 && self.config.segments.is_multiple_of(8) {
            // Every slot is overwritten: only slots past the old length
            // are filled first.
            out.resize(heads.len() / stride, 0.0);
            // SAFETY: AVX2 availability, `stride >= 16` and whole records
            // are asserted above, `out` holds one slot per record, and the
            // branch is taken only for `segments % 8 == 0`.
            unsafe { x86::avx2_block_bounds(self, heads, stride, out) };
            return;
        }
        out.clear();
        let keys = heads
            .chunks_exact(stride)
            .map(|head| u128::from_be_bytes(head[..KEY_BYTES].try_into().expect("16-byte key")));
        out.extend(keys.map(|key| self.key_bound_sq(key)));
    }
}

/// Bytes of a raw key at the head of a record.
const KEY_BYTES: usize = 16;

/// The `x86_64` block kernel.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{QueryBounds, KEY_BYTES};
    use core::arch::x86_64::*;

    /// [`QueryBounds::block_bounds_sq`] for `segments % 8 == 0`, two keys
    /// per 256-bit register (one per 128-bit lane).
    ///
    /// With `G = segments / 8` and `L` bit levels, the key is its last
    /// `G·L` big-endian bytes, level by level, and byte `g` of a level
    /// holds that level's bit of segments `8g..8g+8`, segment `8g` in the
    /// top bit.  One `pshufb` per two groups sets group `2r+h`'s `L` level
    /// bytes side by side at bytes `8h..8h+L` of the lane, level 0 (the
    /// most significant) last: level `L-1-i` lands at byte `8h+i`, and the
    /// other bytes are zero.  `movemask` then collects the top bit of every
    /// byte, so mask byte `2·lane+h` is segment `8(2r+h)`'s symbol, least
    /// significant bit lowest.  Doubling every byte (`v += v`) moves the
    /// next segment's bit to the top: round `j` of eight gives segment
    /// `8g+j`'s symbol for every group of both keys, each in a byte of its
    /// own.
    ///
    /// The symbols are exact integers, the same `u8`s the scalar
    /// deinterleave returns; each key's cells are then added in segment
    /// order `0..n` into `0.0` and multiplied by the scale, as
    /// [`QueryBounds::key_bound_sq`] does, so each bound has its bits.
    ///
    /// # Safety
    /// The CPU must support AVX2.  `stride >= 16`, `heads` holds
    /// `out.len()` records of `stride` bytes and `segments % 8 == 0`, as
    /// [`QueryBounds::block_bounds_sq_with`] checks.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_block_bounds(
        bounds: &QueryBounds,
        heads: &[u8],
        stride: usize,
        out: &mut [f64],
    ) {
        let groups = bounds.config.segments / 8;
        let levels = bounds.config.bits_per_segment as usize;
        let key_start = KEY_BYTES - groups * levels;
        let registers = groups.div_ceil(2);
        let mut controls = [_mm256_setzero_si256(); MAX_REGISTERS];
        for (r, control) in controls[..registers].iter_mut().enumerate() {
            let mut bytes = [0x80u8; KEY_BYTES];
            for g in (2 * r..groups).take(2) {
                for i in 0..levels {
                    bytes[8 * (g % 2) + i] = (key_start + (levels - 1 - i) * groups + g) as u8;
                }
            }
            *control = _mm256_broadcastsi128_si256(_mm_loadu_si128(bytes.as_ptr().cast()));
        }
        let rows = &bounds.table[..bounds.config.segments];
        let scale = bounds.scale;
        // SAFETY: the unaligned load reads exactly the 16 bytes of the
        // bounds-checked slice it is given.
        let key =
            |slot: usize| _mm_loadu_si128(heads[slot * stride..][..KEY_BYTES].as_ptr().cast());
        let mut masks: [PairMasks; CHUNK / 2] = [[[0; 4]; 8 * MAX_REGISTERS]; CHUNK / 2];
        for (c, outs) in out.chunks_mut(CHUNK).enumerate() {
            let (first, last) = (c * CHUNK, outs.len() - 1);
            let pairs = &mut masks[..outs.len().div_ceil(2)];
            for (p, pair) in pairs.iter_mut().enumerate() {
                let second = (2 * p + 1).min(last);
                let keys = _mm256_set_m128i(key(first + second), key(first + 2 * p));
                for (control, rounds) in controls[..registers].iter().zip(pair.chunks_exact_mut(8))
                {
                    let mut v = _mm256_shuffle_epi8(keys, *control);
                    for mask in rounds {
                        *mask = (_mm256_movemask_epi8(v) as u32).to_le_bytes();
                        v = _mm256_add_epi8(v, v);
                    }
                }
            }
            // A segment count the compiler knows puts every row at a fixed
            // offset from one base: the sum of the paper's 16 segments runs
            // ~25% faster than the general loop.
            if rows.len() == 16 {
                add_cells(&rows[..16], pairs, scale, outs);
            } else {
                add_cells(rows, pairs, scale, outs);
            }
        }
    }

    /// Keys un-interleaved in one pass before a second sums their cells.
    const CHUNK: usize = 16;

    /// Registers a pair of keys takes: two groups of eight segments each,
    /// so `MAX_SEGMENTS / 16`.
    const MAX_REGISTERS: usize = crate::MAX_SEGMENTS / 16;

    /// `masks[8r + j][2·lane + h]`: segment `8(2r+h)+j` of the key in
    /// `lane` of a pair.
    type PairMasks = [[u8; 4]; 8 * MAX_REGISTERS];

    /// The bounds of the keys of `pairs` into `outs`, four keys (two pairs)
    /// at a time so that four chains of additions overlap; a lone last
    /// pair is summed twice and its copy dropped.  Each key's cells are
    /// added in segment order `0..n` into `0.0` and scaled last.
    #[inline(always)]
    fn add_cells(rows: &[[f64; 256]], pairs: &[PairMasks], scale: f64, outs: &mut [f64]) {
        for (q, outs) in outs.chunks_mut(4).enumerate() {
            let p0 = &pairs[2 * q];
            let p1 = &pairs[(2 * q + 1).min(pairs.len() - 1)];
            let mut sums = [0.0; 4];
            for (g, group) in rows.chunks_exact(8).enumerate() {
                let (round, h) = (8 * (g / 2), g % 2);
                let rounds = p0[round..round + 8].iter().zip(&p1[round..round + 8]);
                for (row, (m0, m1)) in group.iter().zip(rounds) {
                    sums[0] += row[m0[h] as usize];
                    sums[1] += row[m0[2 + h] as usize];
                    sums[2] += row[m1[h] as usize];
                    sums[3] += row[m1[2 + h] as usize];
                }
            }
            for (out, sum) in outs.iter_mut().zip(sums) {
                *out = scale * sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invsax::SortableSummarizer;
    use coconut_series::distance::squared_euclidean;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_series::paa::paa;

    fn cfg() -> SaxConfig {
        SaxConfig::new(128, 16, 8)
    }

    #[test]
    fn mindist_sax_lower_bounds_true_distance() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 71);
        let series: Vec<_> = gen.generate(100);
        for i in 0..50 {
            let q = &series[i];
            let c = &series[i + 50];
            let q_paa = paa(&q.values, config.segments);
            let word = summarizer.sax(&c.values);
            let lb = mindist_paa_sax_sq(&q_paa, &word, &config, summarizer.breakpoints());
            let true_d = squared_euclidean(&q.values, &c.values);
            assert!(
                lb <= true_d + 1e-6,
                "lower bound {lb} exceeds true distance {true_d}"
            );
        }
    }

    #[test]
    fn mindist_isax_lower_bounds_and_weakens_with_fewer_bits() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let table = BreakpointTable::new();
        let mut gen = RandomWalkGenerator::new(config.series_len, 73);
        let series: Vec<_> = gen.generate(40);
        for i in 0..20 {
            let q = &series[i];
            let c = &series[i + 20];
            let q_paa = paa(&q.values, config.segments);
            let key = summarizer.key(&c.values);
            let true_d = squared_euclidean(&q.values, &c.values);
            let mut prev = f64::INFINITY;
            for levels in (0..=8u8).rev() {
                let word = key.to_isax_prefix(&config, levels);
                let lb = mindist_paa_isax_sq(&q_paa, &word, &config, &table);
                assert!(
                    lb <= true_d + 1e-6,
                    "lb {lb} > true {true_d} at {levels} levels"
                );
                // Coarser words must give looser (not larger) bounds.
                assert!(lb <= prev + 1e-9);
                prev = lb;
            }
        }
    }

    #[test]
    fn mindist_of_matching_word_is_zero() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 79);
        let s = gen.next_series();
        let q_paa = paa(&s.values, config.segments);
        let word = summarizer.sax(&s.values);
        let lb = mindist_paa_sax_sq(&q_paa, &word, &config, summarizer.breakpoints());
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn root_isax_word_gives_zero_bound() {
        let config = cfg();
        let table = BreakpointTable::new();
        let q_paa = vec![1.0; config.segments];
        let root = IsaxWord::root(config.segments);
        assert_eq!(mindist_paa_isax_sq(&q_paa, &root, &config, &table), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::invsax::{InvSaxKey, SortableSummarizer};
    use crate::test_grid;
    use coconut_series::distance::squared_euclidean;
    use coconut_series::paa::paa;
    use coconut_series::znorm::znormalize;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn lower_bound_property_random_series(
            a in proptest::collection::vec(-5.0f32..5.0, 64),
            b in proptest::collection::vec(-5.0f32..5.0, 64),
        ) {
            let a = znormalize(&a);
            let b = znormalize(&b);
            let config = SaxConfig::new(64, 8, 8);
            let summarizer = SortableSummarizer::new(config);
            let q_paa = paa(&a, config.segments);
            let word = summarizer.sax(&b);
            let lb = mindist_paa_sax_sq(&q_paa, &word, &config, summarizer.breakpoints());
            let d = squared_euclidean(&a, &b);
            prop_assert!(lb <= d + 1e-3, "lb {} > d {}", lb, d);
        }
    }

    /// The table bound against the bound of the decoded word, by bits, and
    /// the block call on every backend against the table bound.
    fn assert_table_bound_matches(query_paa: &[f64], key: InvSaxKey, config: &SaxConfig) {
        let breakpoints = Breakpoints::new(config.bits_per_segment);
        let expected = mindist_paa_sax_sq(query_paa, &key.to_sax(config), config, &breakpoints);
        let bounds = QueryBounds::new(query_paa, config);
        let got = bounds.key_bound_sq(key.raw());
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{config:?} key {:#x}",
            key.raw()
        );
        assert_block_bounds_match(&bounds, &[key.raw(); 3], &[0xA5; 16], 32);
    }

    /// `keys` as a block of heads `stride` bytes apart, each key (16
    /// big-endian bytes) followed by `filler` bytes where an entry keeps
    /// its id and timestamp.
    fn heads_of(keys: &[u128], filler: &[u8], stride: usize) -> Vec<u8> {
        let mut heads = Vec::with_capacity(keys.len() * stride);
        for (i, key) in keys.iter().enumerate() {
            heads.extend_from_slice(&key.to_be_bytes());
            let at = (i * stride) % filler.len().max(1);
            let fill = filler.iter().cycle().skip(at).take(stride - KEY_BYTES);
            heads.extend(fill.chain(std::iter::repeat(&0)).take(stride - KEY_BYTES));
        }
        heads
    }

    /// The block call over every prefix of `keys` (lengths `0..=keys.len()`)
    /// on every available backend against `key_bound_sq` of each key, by
    /// bits.
    fn assert_block_bounds_match(
        bounds: &QueryBounds,
        keys: &[u128],
        filler: &[u8],
        stride: usize,
    ) {
        let heads = heads_of(keys, filler, stride);
        let expected: Vec<u64> = keys
            .iter()
            .map(|&k| bounds.key_bound_sq(k).to_bits())
            .collect();
        for backend in KernelBackend::available_backends() {
            for len in 0..=keys.len() {
                // Stale slots past and within the block's length: each must go.
                let mut out = vec![f64::NAN; len + 3];
                bounds.block_bounds_sq_with(backend, &heads[..len * stride], stride, &mut out);
                let got: Vec<u64> = out.iter().map(|lb| lb.to_bits()).collect();
                assert_eq!(
                    got,
                    expected[..len],
                    "{backend} {:?} stride {stride}",
                    bounds.config
                );
            }
        }
    }

    /// The allocating prefix bound `block_mindist_sq` used to compute: the
    /// iSAX word of the ragged prefix, through `mindist_paa_isax_sq`.
    fn prefix_bound_reference(
        query_paa: &[f64],
        key: InvSaxKey,
        shared_bits: u32,
        config: &SaxConfig,
    ) -> f64 {
        let segments = config.segments as u32;
        let base_levels = (shared_bits / segments).min(config.bits_per_segment as u32) as u8;
        let extra_segments = if base_levels >= config.bits_per_segment {
            0
        } else {
            (shared_bits % segments) as usize
        };
        let word = key.to_sax(config);
        let symbols = (0..config.segments)
            .map(|seg| match base_levels + u8::from(seg < extra_segments) {
                0 => crate::IsaxSymbol::ANY,
                bits => crate::IsaxSymbol::new(word.symbol_at_bits(seg, bits), bits),
            })
            .collect();
        mindist_paa_isax_sq(
            query_paa,
            &IsaxWord::new(symbols),
            config,
            &BreakpointTable::new(),
        )
    }

    /// Every cell of the table against `region_distance_sq`, by bits.
    fn assert_table_cells_match(query_paa: &[f64], config: &SaxConfig) {
        let breakpoints = Breakpoints::new(config.bits_per_segment);
        let bounds = QueryBounds::new(query_paa, config);
        for (row, &q) in bounds.table.iter().zip(query_paa) {
            for symbol in 0..breakpoints.cardinality() {
                let expected = breakpoints.region_distance_sq(q, symbol);
                assert_eq!(
                    row[symbol as usize].to_bits(),
                    expected.to_bits(),
                    "q {q} symbol {symbol} bits {}",
                    config.bits_per_segment
                );
            }
        }
    }

    #[test]
    fn table_cells_match_on_cut_points_and_infinities() {
        // A coefficient exactly on a cut sits at the split between the two
        // fills; ±inf and far-out values exercise the unbounded end regions.
        for bits in 1..=8u8 {
            let config = SaxConfig::new(8, 1, bits);
            let cuts = Breakpoints::new(bits).cuts().to_vec();
            let extremes = [f64::NEG_INFINITY, -1e9, -0.0, 0.0, 1e9, f64::INFINITY];
            for q in cuts.iter().copied().chain(extremes) {
                assert_table_cells_match(&[q], &config);
            }
        }
    }

    #[test]
    fn table_bound_matches_on_extreme_keys_and_queries() {
        // All-zero / all-one keys put every segment in the region that is
        // unbounded below / above; queries far outside and exactly on a
        // breakpoint exercise both sides of those regions.
        for segments in test_grid::SEGMENTS {
            for bits in 1..=8u8 {
                let config = test_grid::config(segments, bits);
                for (hi, lo) in [
                    (0, 0),
                    (u64::MAX, u64::MAX),
                    (0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555),
                ] {
                    let key = test_grid::key(hi, lo, &config);
                    for q in [-1e9, -0.5, 0.0, 0.5, 1e9] {
                        assert_table_bound_matches(&vec![q; segments], key, &config);
                    }
                }
            }
        }
    }

    /// The deinterleave's shapes plus the kernel's own: an odd group count
    /// (24 segments leaves a register half empty) and the most registers a
    /// pair takes (64 × 2 and 128 × 1 bits).
    const BLOCK_SHAPES: [usize; 9] = [1, 4, 8, 12, 16, 24, 32, 64, 128];

    proptest! {
        // Each case sweeps 72 configurations and every block length up to
        // 67 keys (odd counts leave the AVX2 kernel a lone key after its
        // pairs, and 67 crosses four of its 16-key chunks).
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn block_bounds_equal_key_bounds(
            words in proptest::collection::vec(0u64..=u64::MAX, 134),
            filler in proptest::collection::vec(0u8..=u8::MAX, 64),
            stride in 16usize..49,
            query_paa in proptest::collection::vec(-4.0f64..4.0, 128),
        ) {
            for segments in BLOCK_SHAPES {
                for bits in 1..=8u8 {
                    let config = test_grid::config(segments, bits);
                    let keys: Vec<u128> = words
                        .chunks_exact(2)
                        .map(|w| test_grid::key(w[0], w[1], &config).raw())
                        .collect();
                    let bounds = QueryBounds::new(&query_paa[..segments], &config);
                    assert_block_bounds_match(&bounds, &keys, &filler, stride);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn table_bound_equals_decoded_word_bound(
            hi in 0u64..=u64::MAX,
            lo in 0u64..=u64::MAX,
            shape in 0usize..6,
            bits in 1u8..=8,
            query_paa in proptest::collection::vec(-4.0f64..4.0, 32),
        ) {
            let config = test_grid::config(test_grid::SEGMENTS[shape], bits);
            let key = test_grid::key(hi, lo, &config);
            assert_table_bound_matches(&query_paa[..config.segments], key, &config);
        }

        #[test]
        fn table_cells_equal_region_distance(
            shape in 0usize..6,
            bits in 1u8..=8,
            query_paa in proptest::collection::vec(-4.0f64..4.0, 32),
        ) {
            let config = test_grid::config(test_grid::SEGMENTS[shape], bits);
            assert_table_cells_match(&query_paa[..config.segments], &config);
        }

        #[test]
        fn key_prefix_bound_equals_isax_word_bound(
            hi in 0u64..=u64::MAX,
            lo in 0u64..=u64::MAX,
            shape in 0usize..6,
            bits in 1u8..=8,
            shared in 0u32..=128,
            query_paa in proptest::collection::vec(-4.0f64..4.0, 32),
        ) {
            let config = test_grid::config(test_grid::SEGMENTS[shape], bits);
            let key = test_grid::key(hi, lo, &config);
            let shared = shared.min(config.key_bits());
            let query_paa = &query_paa[..config.segments];
            let expected = prefix_bound_reference(query_paa, key, shared, &config);
            let got = mindist_paa_key_prefix_sq(query_paa, key.raw(), shared, &config);
            prop_assert_eq!(got.to_bits(), expected.to_bits());
        }
    }
}
