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
use coconut_parallel::{effective_parallelism, parallel_map_slice};
use coconut_series::paa::paa;
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
/// The one deinterleave of the crate: [`InvSaxKey::to_sax`] and the per-entry
/// bound of [`crate::mindist::QueryBounds`] both run it.
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

/// Convenience wrapper bundling a [`SaxConfig`] and its breakpoint table to
/// summarize raw series into sortable keys.
#[derive(Debug, Clone)]
pub struct SortableSummarizer {
    config: SaxConfig,
    breakpoints: Breakpoints,
}

impl SortableSummarizer {
    /// Creates a summarizer for the given configuration.
    pub fn new(config: SaxConfig) -> Self {
        SortableSummarizer {
            breakpoints: Breakpoints::new(config.bits_per_segment),
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

    /// Summarizes a raw series into its sortable interleaved key.
    pub fn key(&self, values: &[f32]) -> InvSaxKey {
        InvSaxKey::from_sax(&self.sax(values))
    }

    /// Decodes a sortable key back into its SAX word.
    pub fn decode(&self, key: InvSaxKey) -> SaxWord {
        key.to_sax(&self.config)
    }

    /// Summarizes many series into their sortable keys in one call, using up
    /// to `parallelism` worker threads (`1` = sequential, `0` = one per
    /// available core).
    ///
    /// The whole per-series pipeline — PAA, symbol quantization and bit
    /// interleaving — runs inside the workers, so the bulk-load loops of
    /// CTree / CLSM / the streaming partitions pay one fork/join per batch
    /// instead of one virtual call per series.  The output is index-aligned
    /// with `series` and identical to mapping [`SortableSummarizer::key`]
    /// sequentially, regardless of the worker count.
    pub fn keys_batch(&self, series: &[Series], parallelism: usize) -> Vec<InvSaxKey> {
        let workers = effective_parallelism(parallelism);
        parallel_map_slice(series, workers, |s| self.key(&s.values))
    }

    /// Like [`SortableSummarizer::keys_batch`] but over raw value slices.
    pub fn keys_batch_values(&self, values: &[&[f32]], parallelism: usize) -> Vec<InvSaxKey> {
        let workers = effective_parallelism(parallelism);
        parallel_map_slice(values, workers, |v| self.key(v))
    }
}

/// Batched summarization entry point named by the bulk-load pipeline: maps
/// every series to its sortable interleaved key with up to `parallelism`
/// workers.  See [`SortableSummarizer::keys_batch`].
pub fn invsax_keys_batch(
    summarizer: &SortableSummarizer,
    series: &[Series],
    parallelism: usize,
) -> Vec<InvSaxKey> {
    summarizer.keys_batch(series, parallelism)
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

    #[test]
    fn batched_keys_match_per_series_keys_at_any_parallelism() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 61);
        // Large enough to clear the fork/join gate so worker threads really
        // run at parallelism > 1.
        let series = gen.generate(1500);
        let expected: Vec<InvSaxKey> = series.iter().map(|s| summarizer.key(&s.values)).collect();
        for parallelism in [1usize, 2, 8] {
            assert_eq!(
                summarizer.keys_batch(&series, parallelism),
                expected,
                "parallelism={parallelism}"
            );
            assert_eq!(
                invsax_keys_batch(&summarizer, &series, parallelism),
                expected
            );
        }
        let values: Vec<&[f32]> = series.iter().map(|s| s.values.as_slice()).collect();
        assert_eq!(summarizer.keys_batch_values(&values, 8), expected);
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

    proptest! {
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
            let batched = summarizer.keys_batch(&series, 4);
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
