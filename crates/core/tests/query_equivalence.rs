//! Parallel/sequential equivalence of the concurrent query engine.
//!
//! The tentpole guarantee of the query fan-out is that `query_parallelism`
//! is a *pure* performance knob: exact and approximate kNN answers
//! (neighbours, distances, tie-breaking order), `QueryCost` counters and
//! `ClsmStats` are bit-identical at every worker count, on sharded and
//! unsharded CLSM trees and on the partitioned streaming schemes —
//! including windowed queries.  These tests compare `query_parallelism = 1`
//! against 8 workers ([`WORKERS`]).

use coconut_core::{
    streaming_index, IndexConfig, IoStats, ScratchDir, StaticIndex, StreamingConfig, VariantKind,
    WindowScheme,
};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::{Dataset, Series};
use proptest::prelude::*;

/// Worker count for the "parallel" side, as in the knob grid (legal
/// above any machine's core count).
const WORKERS: usize = 8;

fn build_clsm(
    dir: &ScratchDir,
    dataset: &Dataset,
    shards: usize,
    query_parallelism: usize,
) -> StaticIndex {
    let config = IndexConfig::new(VariantKind::Clsm, 64)
        .materialized(true)
        .with_memory_budget(1 << 19)
        .with_shard_count(shards)
        .with_query_parallelism(query_parallelism);
    let subdir = dir.file(&format!("clsm-s{shards}-q{query_parallelism}"));
    let (index, _) =
        StaticIndex::build(dataset, config, &subdir, IoStats::shared()).expect("build");
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Exact and approximate answers *and costs* are identical at
    /// `query_parallelism` 1 vs N, on unsharded and sharded CLSM trees.
    #[test]
    fn clsm_queries_identical_at_any_query_parallelism(
        n in 400usize..700,
        seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let dir = ScratchDir::new("qeq-clsm").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        for shards in [1usize, 4] {
            let seq = build_clsm(&dir, &dataset, shards, 1);
            let par = build_clsm(&dir, &dataset, shards, WORKERS);
            let mut qgen = RandomWalkGenerator::new(64, seed ^ 0xabcd);
            for _ in 0..6 {
                let q = qgen.next_series();
                for exact in [true, false] {
                    let (nn_s, cost_s) = seq.knn(&q.values, k, exact).unwrap();
                    let (nn_p, cost_p) = par.knn(&q.values, k, exact).unwrap();
                    prop_assert_eq!(&nn_s, &nn_p,
                        "answers differ (shards={}, exact={})", shards, exact);
                    prop_assert_eq!(cost_s, cost_p,
                        "costs differ (shards={}, exact={})", shards, exact);
                }
            }
        }
    }

    /// `ClsmStats` (flushes, merges, write amplification) do not depend on
    /// either parallelism knob, sharded or not.
    #[test]
    fn clsm_stats_identical_at_any_parallelism(
        n in 400usize..700,
        seed in 0u64..1000,
    ) {
        let dir = ScratchDir::new("qeq-stats").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        for shards in [1usize, 3] {
            let mut stats = Vec::new();
            for (build_par, query_par) in [(1, 1), (WORKERS, WORKERS)] {
                let config = IndexConfig::new(VariantKind::Clsm, 64)
                    .materialized(true)
                    .with_memory_budget(1 << 19)
                    .with_shard_count(shards)
                    .with_parallelism(build_par)
                    .with_query_parallelism(query_par);
                let subdir = dir.file(&format!("s{shards}-p{build_par}"));
                let (index, _) =
                    StaticIndex::build(&dataset, config, &subdir, IoStats::shared()).unwrap();
                let StaticIndex::Clsm(tree) = index else { panic!("expected CLSM") };
                stats.push((
                    tree.stats(),
                    tree.num_runs(),
                    tree.num_shards(),
                    tree.footprint_bytes(),
                ));
            }
            prop_assert_eq!(stats[0], stats[1], "shards={}", shards);
        }
    }

    /// Windowed streaming queries (TP and BTP) are identical at
    /// `query_parallelism` 1 vs N.
    #[test]
    fn windowed_stream_queries_identical_at_any_query_parallelism(
        seed in 0u64..1000,
        k in 1usize..5,
    ) {
        let dir = ScratchDir::new("qeq-stream").unwrap();
        let mut gen = SeismicStreamGenerator::new(64, seed, 0.1);
        let batches: Vec<_> = (0..10).map(|_| gen.next_batch(60)).collect();
        let query = gen.quake_template();
        for scheme in [
            WindowScheme::TemporalPartitioning,
            WindowScheme::BoundedTemporalPartitioning,
        ] {
            let mut indexes = Vec::new();
            for query_par in [1, WORKERS] {
                let mut config = StreamingConfig::new(VariantKind::Clsm, scheme, 64);
                config.buffer_capacity = 60;
                config.knobs.query_parallelism = query_par;
                let mut index = streaming_index(
                    config,
                    &dir.file(&format!("{}-q{query_par}", scheme.short_name())),
                    IoStats::shared(),
                )
                .unwrap();
                for batch in &batches {
                    index.ingest_batch(batch).unwrap();
                }
                indexes.push(index);
            }
            for window in [None, Some((150u64, 450u64)), Some((0u64, 40u64))] {
                for exact in [true, false] {
                    let a = indexes[0].query_window(&query, k, window, exact).unwrap();
                    let b = indexes[1].query_window(&query, k, window, exact).unwrap();
                    prop_assert_eq!(&a.neighbors, &b.neighbors,
                        "{} window {:?} exact {}", scheme.short_name(), window, exact);
                    prop_assert_eq!(a.cost, b.cost,
                        "{} window {:?} exact {}", scheme.short_name(), window, exact);
                    prop_assert_eq!(a.partitions_accessed, b.partitions_accessed);
                }
            }
        }
    }
}

/// Regression test for deterministic tie-breaking: on a dataset where every
/// series is identical, all distances tie, so every backend must order the
/// k results by `(distance, id, timestamp)` — i.e. ascending id — and agree
/// with brute force byte-for-byte at every worker count.
#[test]
fn all_duplicates_dataset_orders_ties_by_id_everywhere() {
    let dir = ScratchDir::new("qeq-dups").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 7);
    let template = gen.next_series();
    let series: Vec<Series> = (0..300u64)
        .map(|id| Series::new(id, template.values.clone()))
        .collect();
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let query: Vec<f32> = template.values.iter().map(|v| v + 0.25).collect();
    let k = 9;

    let expected = coconut_series::distance::brute_force_knn(
        &query,
        series.iter().map(|s| (s.id, s.values.as_slice())),
        k,
    );
    let expected_ids: Vec<u64> = (0..k as u64).collect();
    assert_eq!(
        expected.iter().map(|n| n.id).collect::<Vec<_>>(),
        expected_ids,
        "brute force must order equal distances by ascending id"
    );

    for variant in VariantKind::all() {
        for query_par in [1, WORKERS] {
            let config = IndexConfig::new(variant, 64)
                .materialized(true)
                .with_memory_budget(1 << 19)
                .with_query_parallelism(query_par);
            let subdir = dir.file(&format!("{}-q{query_par}", variant.name()));
            let (index, _) =
                StaticIndex::build(&dataset, config, &subdir, IoStats::shared()).unwrap();
            let (nn, _) = index.knn(&query, k, true).unwrap();
            assert_eq!(nn, expected, "{} q{query_par}", variant.name());
        }
    }

    // Streaming: identical values arriving at increasing timestamps with
    // repeating ids tie on (distance, id) and fall through to the timestamp.
    let mut config = StreamingConfig::new(
        VariantKind::Clsm,
        WindowScheme::BoundedTemporalPartitioning,
        64,
    );
    config.buffer_capacity = 50;
    for query_par in [1, WORKERS] {
        config.knobs.query_parallelism = query_par;
        let mut index = streaming_index(
            config,
            &dir.file(&format!("stream-q{query_par}")),
            IoStats::shared(),
        )
        .unwrap();
        for ts in 0..4u64 {
            let batch: Vec<coconut_series::TimestampedSeries> = (0..50u64)
                .map(|id| coconut_series::TimestampedSeries {
                    series: Series::new(id, template.values.clone()),
                    timestamp: ts,
                })
                .collect();
            index.ingest_batch(&batch).unwrap();
        }
        let result = index.query_window(&query, 6, None, true).unwrap();
        let keys: Vec<(u64, u64)> = result
            .neighbors
            .iter()
            .map(|n| (n.id, n.timestamp))
            .collect();
        assert_eq!(
            keys,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)],
            "equal-distance streaming ties must order by (id, timestamp), q{query_par}"
        );
    }
}

/// The satellite guarantee in isolation: the *parallel* cost equals the
/// *sequential* cost on the same index — per-worker counters are summed
/// exactly, nothing is lost or double-counted across threads.
#[test]
fn parallel_query_cost_equals_sequential_cost() {
    let dir = ScratchDir::new("qeq-cost").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 99);
    let series = gen.generate(800);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let seq = build_clsm(&dir, &dataset, 4, 1);
    let par = build_clsm(&dir, &dataset, 4, WORKERS);
    let mut qgen = RandomWalkGenerator::new(64, 123);
    let mut nonzero = false;
    for _ in 0..10 {
        let q = qgen.next_series();
        let (_, cost_s) = seq.knn(&q.values, 5, true).unwrap();
        let (_, cost_p) = par.knn(&q.values, 5, true).unwrap();
        assert_eq!(cost_s, cost_p);
        nonzero |= cost_s.entries_examined > 0 && cost_s.blocks_read > 0;
    }
    assert!(nonzero, "costs must actually be exercised");
}
