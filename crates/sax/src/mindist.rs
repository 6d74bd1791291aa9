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
/// For 16 segments of 8 bits that is 32 KiB and 4096 evaluations.
///
/// [`QueryBounds::key_bound_sq`] returns the very `f64` that
/// [`mindist_paa_sax_sq`] returns for the decoded word: the table holds the
/// same per-segment terms, and they are added in the same segment order
/// `0..n` into the same `0.0` before the same multiplication by the scale.
#[derive(Debug, Clone)]
pub struct QueryBounds {
    config: SaxConfig,
    scale: f64,
    table: Vec<[f64; 256]>,
}

impl QueryBounds {
    /// Builds the table for one query from its PAA representation.
    pub fn new(query_paa: &[f64], config: &SaxConfig) -> Self {
        assert_eq!(query_paa.len(), config.segments);
        let breakpoints = BreakpointTable::global().for_bits(config.bits_per_segment);
        let table = query_paa
            .iter()
            .map(|&q| {
                let mut row = [0.0; 256];
                for (symbol, cell) in (0..breakpoints.cardinality()).zip(row.iter_mut()) {
                    *cell = breakpoints.region_distance_sq(q, symbol);
                }
                row
            })
            .collect();
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
}

/// Squared lower bound between two full-resolution SAX words (used when the
/// query itself is only available in summarized form, e.g. for bulk
/// index-to-index comparisons).
pub fn mindist_sax_sax_sq(
    a: &SaxWord,
    b: &SaxWord,
    config: &SaxConfig,
    breakpoints: &Breakpoints,
) -> f64 {
    assert_eq!(a.segments(), config.segments);
    assert_eq!(b.segments(), config.segments);
    let scale = config.series_len as f64 / config.segments as f64;
    let mut acc = 0.0;
    for seg in 0..config.segments {
        acc += breakpoints.symbol_distance_sq(a.symbols()[seg] as u32, b.symbols()[seg] as u32);
    }
    scale * acc
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
    fn mindist_sax_sax_lower_bounds_true_distance() {
        let config = cfg();
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(config.series_len, 83);
        let series: Vec<_> = gen.generate(60);
        for i in 0..30 {
            let a = &series[i];
            let b = &series[i + 30];
            let wa = summarizer.sax(&a.values);
            let wb = summarizer.sax(&b.values);
            let lb = mindist_sax_sax_sq(&wa, &wb, &config, summarizer.breakpoints());
            let true_d = squared_euclidean(&a.values, &b.values);
            assert!(lb <= true_d + 1e-6);
        }
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

    /// The table bound against the bound of the decoded word, by bits.
    fn assert_table_bound_matches(query_paa: &[f64], key: InvSaxKey, config: &SaxConfig) {
        let breakpoints = Breakpoints::new(config.bits_per_segment);
        let expected = mindist_paa_sax_sq(query_paa, &key.to_sax(config), config, &breakpoints);
        let got = QueryBounds::new(query_paa, config).key_bound_sq(key.raw());
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{config:?} key {:#x}",
            key.raw()
        );
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
