//! Sortable (interleaved) SAX keys — the paper's core contribution.
//!
//! A SAX word cannot be sorted meaningfully segment-by-segment: sorting by
//! the concatenation of the segment symbols orders series by their *first*
//! segment and only uses the remaining segments as tie-breakers, so two
//! series that are similar overall but differ slightly in the first segment
//! end up arbitrarily far apart.
//!
//! The sortable summarization interleaves the **bits** of all segments,
//! most-significant bits first: the key starts with the most significant bit
//! of segment 0, then of segment 1, ... segment `w-1`, then the second bit of
//! every segment, and so on.  Sorting by this key therefore clusters series
//! that agree on the high-order bits of *all* segments — i.e. series that are
//! coarsely similar in every part of their shape — which is exactly what
//! allows Coconut to bulk-load compact, contiguous indexes with external
//! sorting and to maintain them with log-structured merges.
//!
//! The transform is invertible ([`InvSaxKey::to_sax`]) and prefix-compatible
//! with iSAX: the first `k * segments` bits of the key determine the iSAX
//! word in which every segment has cardinality `2^k`.

use crate::breakpoints::Breakpoints;
use crate::isax::{IsaxSymbol, IsaxWord};
use crate::sax::SaxWord;
use crate::SaxConfig;
use coconut_series::paa::{paa, paa_into};
use coconut_series::Series;

/// A sortable interleaved SAX key.
///
/// The key occupies the low [`SaxConfig::key_bits`] bits of a `u128`,
/// left-aligned within that width so that ordinary integer comparison orders
/// keys exactly as the bit-interleaved summarization prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvSaxKey {
    bits: u128,
    /// Total number of significant bits (segments * bits_per_segment).
    width: u32,
}

impl InvSaxKey {
    /// Builds a key by interleaving the bits of a full-resolution SAX word.
    pub fn from_sax(word: &SaxWord) -> Self {
        let segments = word.segments();
        let bits_per_segment = word.bits();
        let width = segments as u32 * bits_per_segment as u32;
        assert!(width <= crate::MAX_KEY_BITS);
        let mut key: u128 = 0;
        // Bit level 0 is the most significant bit of each segment symbol.
        for level in 0..bits_per_segment {
            for seg in 0..segments {
                let symbol = word.symbols()[seg];
                let bit = (symbol >> (bits_per_segment - 1 - level)) & 1;
                key = (key << 1) | bit as u128;
            }
        }
        InvSaxKey { bits: key, width }
    }

    /// Reconstructs a key from its raw integer value and width (used when
    /// reading keys back from storage).
    pub fn from_raw(bits: u128, width: u32) -> Self {
        assert!(width <= crate::MAX_KEY_BITS);
        if width < 128 {
            assert!(bits < (1u128 << width), "raw key does not fit in width");
        }
        InvSaxKey { bits, width }
    }

    /// The raw integer value (low `width` bits are significant).
    pub fn raw(&self) -> u128 {
        self.bits
    }

    /// Number of significant bits in the key.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Big-endian byte representation of the key, `ceil(width/8)` bytes,
    /// left-padded with the key's own high bits so that lexicographic byte
    /// comparison matches integer comparison.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let nbytes = self.width.div_ceil(8) as usize;
        let full = self.bits.to_be_bytes();
        full[16 - nbytes..].to_vec()
    }

    /// Parses a key from its big-endian byte representation.
    pub fn from_be_bytes(bytes: &[u8], width: u32) -> Self {
        assert_eq!(bytes.len(), width.div_ceil(8) as usize);
        let mut full = [0u8; 16];
        full[16 - bytes.len()..].copy_from_slice(bytes);
        InvSaxKey::from_raw(u128::from_be_bytes(full), width)
    }

    /// Inverts the interleaving, recovering the original SAX word.
    pub fn to_sax(&self, config: &SaxConfig) -> SaxWord {
        assert_eq!(self.width, config.key_bits());
        let mut symbols = vec![0u8; config.segments];
        deinterleave(self.bits, config, &mut symbols);
        SaxWord::from_symbols(symbols, config.bits_per_segment)
    }

    /// Truncates the key to the iSAX word obtained by keeping only the first
    /// `levels` interleaved bit levels (every segment at cardinality
    /// `2^levels`).  `levels == 0` yields the unconstrained root word.
    pub fn to_isax_prefix(&self, config: &SaxConfig, levels: u8) -> IsaxWord {
        assert!(levels <= config.bits_per_segment);
        if levels == 0 {
            return IsaxWord::root(config.segments);
        }
        let sax = self.to_sax(config);
        let symbols = (0..config.segments)
            .map(|seg| IsaxSymbol::new(sax.symbol_at_bits(seg, levels), levels))
            .collect();
        IsaxWord::new(symbols)
    }

    /// Number of leading bits shared between two keys of equal width.
    pub fn common_prefix_bits(&self, other: &InvSaxKey) -> u32 {
        assert_eq!(self.width, other.width);
        let diff = self.bits ^ other.bits;
        if diff == 0 {
            return self.width;
        }
        let leading = diff.leading_zeros(); // out of 128
        let skipped = 128 - self.width;
        leading - skipped
    }
}

/// `SPREAD[b]` holds the eight bits of `b` one per byte lane, the most
/// significant bit in lane 0 (the least significant byte of the `u64`).
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut lane = 0;
        while lane < 8 {
            table[byte] |= ((byte as u64 >> (7 - lane)) & 1) << (8 * lane);
            lane += 1;
        }
        byte += 1;
    }
    table
};

/// Inverts the interleaving of the raw key value `raw` into
/// `symbols[..config.segments]`, one symbol per segment, without allocating.
/// The scalar deinterleave of the crate: [`InvSaxKey::to_sax`], the block
/// prefix bound and [`crate::mindist::QueryBounds::key_bound_sq`] run it.
/// A scan bounds its entries with
/// [`crate::mindist::QueryBounds::block_bounds_sq`], whose AVX2 kernel
/// un-interleaves a block's keys in registers to the same symbols.
///
/// Bit level `l` of the key is a group of `segments` bits, segment 0 first.
/// When the groups are whole bytes (`segments % 8 == 0`) a key byte carries
/// one bit of eight neighbouring segments: the `SPREAD` table moves those bits into
/// eight byte lanes of a `u64`, so a level costs one shift-or per eight
/// segments.  Other segment counts take the bit-at-a-time loop.
///
/// # Panics
/// Panics if `symbols` is shorter than `config.segments`.
pub fn deinterleave(raw: u128, config: &SaxConfig, symbols: &mut [u8]) {
    let segments = config.segments;
    let levels = config.bits_per_segment as usize;
    let symbols = &mut symbols[..segments];
    if segments.is_multiple_of(8) {
        let group_bytes = segments / 8;
        let be = raw.to_be_bytes();
        let key = &be[16 - group_bytes * levels..];
        for (chunk, lanes) in symbols.chunks_exact_mut(8).enumerate() {
            let mut acc = 0u64;
            for level in 0..levels {
                acc = (acc << 1) | SPREAD[key[level * group_bytes + chunk] as usize];
            }
            lanes.copy_from_slice(&acc.to_le_bytes());
        }
    } else {
        let width = segments * levels;
        for (seg, symbol) in symbols.iter_mut().enumerate() {
            let mut acc = 0u8;
            for level in 0..levels {
                // Position of this bit counted from the most significant end
                // of the key.
                let shift = width - 1 - (level * segments + seg);
                acc = (acc << 1) | ((raw >> shift) & 1) as u8;
            }
            *symbol = acc;
        }
    }
}

/// Cells of a [`SymbolGrid`] over `[-GRID_HALF_SPAN, GRID_HALF_SPAN)`.
const GRID_CELLS: usize = 1024;
/// Half the span a [`SymbolGrid`] divides evenly; every breakpoint at every
/// cardinality lies inside (the outermost at 8 bits is about ±2.66).
const GRID_HALF_SPAN: f64 = 3.0;

/// [`Breakpoints::symbol`] in constant time: an even grid over the
/// breakpoints gives each PAA mean a first guess, which at most
/// [`SymbolGrid::STEPS`] branch-free comparisons against the breakpoints
/// correct.
///
/// The guess is exact by construction, whatever the rounding: `cell` is
/// monotone in its argument, so every breakpoint in a cell before `v`'s is
/// below `v` (the guess never overshoots), and only the breakpoints in
/// `v`'s own cell — at most `STEPS` of them — can be missing from it.
#[derive(Debug, Clone)]
struct SymbolGrid {
    /// The symbol of the lowest mean each cell can hold: the number of
    /// breakpoints in the cells before it.
    guess: [u8; GRID_CELLS],
    /// The breakpoints, padded with NaN, which no comparison passes.
    cuts: [f64; 256],
}

impl SymbolGrid {
    /// The most breakpoints one cell holds, at any cardinality.
    const STEPS: usize = 2;

    fn new(breakpoints: &Breakpoints) -> Self {
        let mut cuts = [f64::NAN; 256];
        cuts[..breakpoints.cuts().len()].copy_from_slice(breakpoints.cuts());
        let mut per_cell = [0usize; GRID_CELLS];
        for &cut in breakpoints.cuts() {
            per_cell[Self::cell(cut)] += 1;
        }
        let mut guess = [0u8; GRID_CELLS];
        let mut below = 0;
        for (g, &n) in guess.iter_mut().zip(&per_cell) {
            assert!(n <= Self::STEPS, "a grid cell holds {n} breakpoints");
            *g = below as u8;
            below += n;
        }
        SymbolGrid { guess, cuts }
    }

    /// The cell of `v`; NaN and everything below the grid fall in cell 0,
    /// everything above it in the last.
    fn cell(v: f64) -> usize {
        let scale = GRID_CELLS as f64 / (2.0 * GRID_HALF_SPAN);
        // `as` saturates: negative and NaN give 0, +inf gives usize::MAX.
        (((v + GRID_HALF_SPAN) * scale) as usize).min(GRID_CELLS - 1)
    }

    /// The number of breakpoints `<= v`, as [`Breakpoints::symbol`].
    fn symbol(&self, v: f64) -> u8 {
        let mut symbol = self.guess[Self::cell(v)];
        for _ in 0..Self::STEPS {
            symbol += (self.cuts[symbol as usize] <= v) as u8;
        }
        symbol
    }
}

/// The `bits` low bits of `symbol`, bit `j` moved to bit `j * stride`: where
/// the interleaved key keeps level `bits - 1 - j` of the last segment.
fn spread(symbol: u8, bits: u8, stride: usize) -> u128 {
    (0..bits as usize).fold(0, |acc, j| {
        acc | (((symbol >> j) & 1) as u128) << (j * stride)
    })
}

/// Convenience wrapper bundling a [`SaxConfig`] and its breakpoint table to
/// summarize raw series into sortable keys.
#[derive(Debug, Clone)]
pub struct SortableSummarizer {
    config: SaxConfig,
    breakpoints: Breakpoints,
    grid: SymbolGrid,
    /// Every symbol's bits spread `segments` apart, so a key is the OR of
    /// its segments' entries, each shifted by its place in a level.
    spread: [u128; 256],
}

impl SortableSummarizer {
    /// Creates a summarizer for the given configuration.
    pub fn new(config: SaxConfig) -> Self {
        let breakpoints = Breakpoints::new(config.bits_per_segment);
        let mut spread_table = [0u128; 256];
        for (symbol, entry) in spread_table.iter_mut().enumerate() {
            *entry = spread(symbol as u8, config.bits_per_segment, config.segments);
        }
        SortableSummarizer {
            grid: SymbolGrid::new(&breakpoints),
            breakpoints,
            spread: spread_table,
            config,
        }
    }

    /// The configuration this summarizer was built with.
    pub fn config(&self) -> &SaxConfig {
        &self.config
    }

    /// The breakpoint table at the configured cardinality.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Computes the PAA representation of a raw series.
    pub fn paa(&self, values: &[f32]) -> Vec<f64> {
        paa(values, self.config.segments)
    }

    /// Summarizes a raw series into its SAX word.
    pub fn sax(&self, values: &[f32]) -> SaxWord {
        SaxWord::from_series(values, &self.config, &self.breakpoints)
    }

    /// Summarizes a raw series into its sortable interleaved key, without
    /// allocating: the PAA lands in a stack array (the same kernel sums in
    /// the same order as [`SortableSummarizer::paa`]), each mean finds its
    /// symbol through the `SymbolGrid`, and the spread table interleaves
    /// it.  Bit for bit `InvSaxKey::from_sax(&self.sax(values))`, the
    /// reference it is tested against.
    ///
    /// # Panics
    /// Panics if the series length does not match the configuration.
    pub fn key(&self, values: &[f32]) -> InvSaxKey {
        assert_eq!(
            values.len(),
            self.config.series_len,
            "series length does not match SaxConfig"
        );
        let segments = self.config.segments;
        let mut means = [0.0f64; crate::MAX_SEGMENTS];
        paa_into(values, &mut means[..segments]);
        let mut bits = 0u128;
        for (seg, &mean) in means[..segments].iter().enumerate() {
            bits |= self.spread[self.grid.symbol(mean) as usize] << (segments - 1 - seg);
        }
        InvSaxKey {
            bits,
            width: self.config.key_bits(),
        }
    }

    /// Decodes a sortable key back into its SAX word.
    pub fn decode(&self, key: InvSaxKey) -> SaxWord {
        key.to_sax(&self.config)
    }

    /// Summarizes many series into their sortable keys, index-aligned with
    /// `series` and identical to mapping [`SortableSummarizer::key`].
    ///
    /// The second argument is ignored: kept only because palmbench names it;
    /// see ROADMAP 14(b).
    pub fn keys_batch(&self, series: &[Series], _workers: usize) -> Vec<InvSaxKey> {
        series.iter().map(|s| self.key(&s.values)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::squared_euclidean;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

    fn cfg() -> SaxConfig {
        SaxConfig::new(128, 16, 8)
    }

    #[test]
    fn interleave_roundtrip() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 17);
        for _ in 0..50 {
            let s = gen.next_series();
            let sax = summarizer.sax(&s.values);
            let key = InvSaxKey::from_sax(&sax);
            assert_eq!(key.width(), 128);
            let back = key.to_sax(&config);
            assert_eq!(back, sax);
        }
    }

    #[test]
    fn manual_interleave_small_example() {
        // 2 segments, 2 bits each. Symbols: seg0 = 0b10, seg1 = 0b01.
        // Interleaved MSB-first: level0 -> [1, 0], level1 -> [0, 1]
        // => key bits = 1001 = 9.
        let w = SaxWord::from_symbols(vec![0b10, 0b01], 2);
        let key = InvSaxKey::from_sax(&w);
        assert_eq!(key.width(), 4);
        assert_eq!(key.raw(), 0b1001);
        let config = SaxConfig::new(4, 2, 2);
        assert_eq!(key.to_sax(&config), w);
    }

    #[test]
    fn byte_roundtrip_preserves_order() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 23);
        let mut keys: Vec<InvSaxKey> = (0..100)
            .map(|_| summarizer.key(&gen.next_series().values))
            .collect();
        keys.sort();
        let bytes: Vec<Vec<u8>> = keys.iter().map(|k| k.to_be_bytes()).collect();
        let mut sorted_bytes = bytes.clone();
        sorted_bytes.sort();
        assert_eq!(bytes, sorted_bytes, "byte order must match integer order");
        for (k, b) in keys.iter().zip(bytes.iter()) {
            assert_eq!(InvSaxKey::from_be_bytes(b, k.width()), *k);
        }
    }

    #[test]
    fn isax_prefix_covers_the_word() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 29);
        for _ in 0..20 {
            let s = gen.next_series();
            let sax = summarizer.sax(&s.values);
            let key = InvSaxKey::from_sax(&sax);
            for levels in 0..=8u8 {
                let prefix = key.to_isax_prefix(&config, levels);
                assert!(prefix.covers(&sax), "prefix at {levels} levels must cover");
            }
        }
    }

    #[test]
    fn shared_prefix_increases_with_similarity() {
        // Sorting property sanity check: a series and a mildly perturbed copy
        // share (on average) a much longer key prefix than two independent
        // random walks.  This is the heart of "sortable summarizations keep
        // similar series close in the sorted order".
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 31);
        let mut similar_prefix_sum = 0u64;
        let mut random_prefix_sum = 0u64;
        let n = 200;
        let series: Vec<_> = gen.generate(n + 1);
        for i in 0..n {
            let a = &series[i];
            // Perturbed copy of a.
            let perturbed: Vec<f32> = a.values.iter().map(|&v| v + 0.02).collect();
            let other = &series[i + 1];
            let ka = summarizer.key(&a.values);
            let kp = summarizer.key(&perturbed);
            let ko = summarizer.key(&other.values);
            similar_prefix_sum += ka.common_prefix_bits(&kp) as u64;
            random_prefix_sum += ka.common_prefix_bits(&ko) as u64;
        }
        assert!(
            similar_prefix_sum > random_prefix_sum * 2,
            "similar pairs ({similar_prefix_sum}) should share much longer prefixes than random pairs ({random_prefix_sum})"
        );
    }

    #[test]
    fn key_order_correlates_with_distance() {
        // Neighbouring keys in the sorted order should on average be closer
        // in Euclidean distance than random pairs.
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 41);
        let series: Vec<_> = gen.generate(400);
        let mut keyed: Vec<(InvSaxKey, usize)> = series
            .iter()
            .enumerate()
            .map(|(i, s)| (summarizer.key(&s.values), i))
            .collect();
        keyed.sort();
        let mut adjacent = 0.0;
        let mut random = 0.0;
        let n = keyed.len();
        for i in 0..n - 1 {
            let a = &series[keyed[i].1];
            let b = &series[keyed[i + 1].1];
            adjacent += squared_euclidean(&a.values, &b.values);
            let c = &series[keyed[(i * 997 + 501) % n].1];
            random += squared_euclidean(&a.values, &c.values);
        }
        assert!(
            adjacent < random,
            "adjacent-in-sort pairs ({adjacent}) must be closer than random pairs ({random})"
        );
    }

    #[test]
    fn common_prefix_of_identical_keys_is_width() {
        let w = SaxWord::from_symbols(vec![3, 1, 2, 0], 2);
        let k = InvSaxKey::from_sax(&w);
        assert_eq!(k.common_prefix_bits(&k), 8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_raw_validates_width() {
        InvSaxKey::from_raw(16, 4);
    }

    /// The worker count palmbench passes is ignored: every value keys the
    /// batch exactly as [`SortableSummarizer::key`] does, series by series.
    #[test]
    fn batched_keys_match_per_series_keys_at_any_parallelism() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 61);
        let series = gen.generate(1500);
        let expected: Vec<InvSaxKey> = series.iter().map(|s| summarizer.key(&s.values)).collect();
        for workers in [0usize, 1, 8] {
            assert_eq!(
                summarizer.keys_batch(&series, workers),
                expected,
                "{workers}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::test_grid;
    use coconut_series::generator::SeriesGenerator;
    use proptest::prelude::*;

    /// The inversion written out one bit at a time, kept as the oracle for
    /// [`deinterleave`].
    fn to_sax_reference(key: &InvSaxKey, config: &SaxConfig) -> SaxWord {
        let segments = config.segments;
        let mut symbols = vec![0u8; segments];
        for level in 0..config.bits_per_segment {
            for (seg, symbol) in symbols.iter_mut().enumerate() {
                let pos_from_msb = level as u32 * segments as u32 + seg as u32;
                let bit = ((key.raw() >> (key.width() - 1 - pos_from_msb)) & 1) as u8;
                *symbol = (*symbol << 1) | bit;
            }
        }
        SaxWord::from_symbols(symbols, config.bits_per_segment)
    }

    #[test]
    fn to_sax_of_all_zero_and_all_one_keys() {
        for segments in test_grid::SEGMENTS {
            for bits in 1..=8u8 {
                let config = test_grid::config(segments, bits);
                for fill in [0, u64::MAX] {
                    let key = test_grid::key(fill, fill, &config);
                    let word = key.to_sax(&config);
                    assert_eq!(word, to_sax_reference(&key, &config));
                    let expected = if fill == 0 {
                        0
                    } else {
                        (config.cardinality() - 1) as u8
                    };
                    assert!(word.symbols().iter().all(|&s| s == expected), "{config:?}");
                    assert_eq!(InvSaxKey::from_sax(&word), key);
                }
            }
        }
    }

    /// Shapes for the key kernel: the paper default, whole and partial
    /// cardinalities, full-width keys, and series lengths the segment count
    /// does not divide (the general PAA path).
    const KEY_CONFIGS: [(usize, usize, u8); 7] = [
        (256, 16, 8),
        (128, 16, 8),
        (100, 16, 8),
        (64, 8, 4),
        (96, 6, 3),
        (256, 32, 4),
        (200, 128, 1),
    ];

    /// Asserts [`SortableSummarizer::key`] equals the SAX-word reference on
    /// every kernel backend this CPU has.
    fn assert_key_matches_reference(summarizer: &SortableSummarizer, values: &[f32]) {
        use coconut_series::kernels::{force_backend, KernelBackend};
        let reference = InvSaxKey::from_sax(&summarizer.sax(values));
        let initial = force_backend(KernelBackend::Scalar);
        for backend in KernelBackend::available_backends() {
            force_backend(backend);
            assert_eq!(
                summarizer.key(values),
                reference,
                "{:?} on {backend}, values {:?}..",
                summarizer.config(),
                &values[..values.len().min(4)]
            );
        }
        force_backend(initial);
    }

    /// Constant series at every breakpoint (as `f32`) and at its `f32`
    /// neighbours, and at values past the grid or outside the reals.
    #[test]
    fn key_kernel_matches_reference_on_constants() {
        for (len, segments, bits) in KEY_CONFIGS {
            let summarizer = SortableSummarizer::new(SaxConfig::new(len, segments, bits));
            let mut constants = vec![
                0.0f32,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1e30,
                -1e30,
                f32::MAX,
                f32::MIN,
                3.0,
                -3.0,
            ];
            for &cut in summarizer.breakpoints().cuts() {
                let c = cut as f32;
                constants.extend([c, c.next_down(), c.next_up()]);
            }
            for c in constants {
                assert_key_matches_reference(&summarizer, &vec![c; len]);
            }
            // One non-finite value among finite ones.
            let mut mixed = vec![0.5f32; len];
            mixed[len / 2] = f32::NAN;
            assert_key_matches_reference(&summarizer, &mixed);
        }
    }

    /// The grid's symbol at each breakpoint and its `f64` neighbours, and at
    /// the grid's own cell edges, against the breakpoint search.
    #[test]
    fn symbol_grid_matches_breakpoint_search() {
        for bits in 1..=crate::MAX_BITS_PER_SEGMENT {
            let breakpoints = Breakpoints::new(bits);
            let grid = SymbolGrid::new(&breakpoints);
            let edges = (0..=GRID_CELLS)
                .map(|c| c as f64 * 2.0 * GRID_HALF_SPAN / GRID_CELLS as f64 - GRID_HALF_SPAN);
            let cuts = breakpoints.cuts().iter().copied();
            for v in cuts.chain(edges) {
                for probe in [v.next_down(), v, v.next_up()] {
                    assert_eq!(
                        grid.symbol(probe) as u32,
                        breakpoints.symbol(probe),
                        "bits {bits}, value {probe:e}"
                    );
                }
            }
            for probe in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
                assert_eq!(grid.symbol(probe) as u32, breakpoints.symbol(probe));
            }
        }
    }

    proptest! {
        /// The key kernel against the SAX-word reference on random walks,
        /// scaled so their means land anywhere from inside one grid cell to
        /// far past the outermost breakpoint.
        #[test]
        fn key_kernel_matches_reference_on_walks(
            seed in 0u64..=u64::MAX,
            shape in 0usize..KEY_CONFIGS.len(),
            scale_exp in -4i32..=4,
        ) {
            let (len, segments, bits) = KEY_CONFIGS[shape];
            let summarizer = SortableSummarizer::new(SaxConfig::new(len, segments, bits));
            let mut gen = coconut_series::generator::RandomWalkGenerator::new(len, seed);
            let walk = gen.next_series().values;
            let scale = 10f32.powi(scale_exp);
            let scaled: Vec<f32> = walk.iter().map(|v| v * scale).collect();
            assert_key_matches_reference(&summarizer, &walk);
            assert_key_matches_reference(&summarizer, &scaled);
        }

        #[test]
        fn roundtrip_any_symbols(
            symbols in proptest::collection::vec(0u8..=255, 1..16),
        ) {
            let word = SaxWord::from_symbols(symbols.clone(), 8);
            let key = InvSaxKey::from_sax(&word);
            let config = SaxConfig::new(symbols.len().max(1), symbols.len(), 8);
            prop_assert_eq!(key.to_sax(&config), word);
        }

        /// `to_sax` against the bit-at-a-time inversion it replaced, over
        /// the whole-byte shapes (8, 16, 32 segments) and the fallback ones.
        #[test]
        fn to_sax_equals_bit_by_bit_reference(
            hi in 0u64..=u64::MAX,
            lo in 0u64..=u64::MAX,
            shape in 0usize..6,
            bits in 1u8..=8,
        ) {
            let config = test_grid::config(test_grid::SEGMENTS[shape], bits);
            let key = test_grid::key(hi, lo, &config);
            prop_assert_eq!(key.to_sax(&config), to_sax_reference(&key, &config));
        }

        #[test]
        fn byte_encoding_roundtrip(
            symbols in proptest::collection::vec(0u8..=15, 1..8),
        ) {
            let word = SaxWord::from_symbols(symbols, 4);
            let key = InvSaxKey::from_sax(&word);
            let bytes = key.to_be_bytes();
            prop_assert_eq!(InvSaxKey::from_be_bytes(&bytes, key.width()), key);
        }

        /// The defining property of the sortable summarization: integer key
        /// order equals lexicographic order of the interleaved bit strings
        /// (most significant bit of every segment first, level by level).
        /// The batched API must satisfy it identically, since it must return
        /// the same keys as the per-series path.
        #[test]
        fn key_order_equals_interleaved_bit_order(
            a in proptest::collection::vec(0u8..=255, 4),
            b in proptest::collection::vec(0u8..=255, 4),
        ) {
            fn interleaved_bits(symbols: &[u8], bits: u8) -> Vec<u8> {
                let mut out = Vec::with_capacity(symbols.len() * bits as usize);
                for level in 0..bits {
                    for &symbol in symbols {
                        out.push((symbol >> (bits - 1 - level)) & 1);
                    }
                }
                out
            }
            let ka = InvSaxKey::from_sax(&SaxWord::from_symbols(a.clone(), 8));
            let kb = InvSaxKey::from_sax(&SaxWord::from_symbols(b.clone(), 8));
            let bits_a = interleaved_bits(&a, 8);
            let bits_b = interleaved_bits(&b, 8);
            prop_assert_eq!(ka.cmp(&kb), bits_a.cmp(&bits_b));
            // Batched keying of raw series must agree with per-series keying,
            // so it inherits the ordering property verbatim.
            let summarizer = SortableSummarizer::new(SaxConfig::new(32, 8, 4));
            let mut gen = coconut_series::generator::RandomWalkGenerator::new(32, a[0] as u64);
            let series = gen.generate(16);
            let batched = summarizer.keys_batch(&series, 1);
            for (s, key) in series.iter().zip(&batched) {
                prop_assert_eq!(summarizer.key(&s.values), *key);
            }
            let mut sorted_by_key = batched.clone();
            sorted_by_key.sort();
            let mut sorted_by_bytes = batched;
            sorted_by_bytes.sort_by_key(|x| x.to_be_bytes());
            prop_assert_eq!(sorted_by_key, sorted_by_bytes);
        }

        #[test]
        fn prefix_bits_symmetric(
            a in proptest::collection::vec(0u8..=255, 4),
            b in proptest::collection::vec(0u8..=255, 4),
        ) {
            let ka = InvSaxKey::from_sax(&SaxWord::from_symbols(a, 8));
            let kb = InvSaxKey::from_sax(&SaxWord::from_symbols(b, 8));
            prop_assert_eq!(ka.common_prefix_bits(&kb), kb.common_prefix_bits(&ka));
        }
    }
}
