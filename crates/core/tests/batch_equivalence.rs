//! Batched/sequential equivalence of the query engine and the palm service.
//!
//! The tentpole guarantee of this round: a **batch of N kNN queries**
//! returns, per query, bit-identical answers, `QueryCost` counters *and*
//! `IoStats` accounting (every touched page, same sequential/random
//! classification) to issuing the N queries one at a time — at every
//! `query_parallelism`, sharded or unsharded, static or streaming.  On top
//! of that, the palm service layer (`PalmServer::handle(&self)`) serves
//! concurrent readers during streaming appends, every query observing a
//! valid snapshot.

use std::sync::Arc;

use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{
    streaming_index, IndexConfig, IoStats, IoStatsSnapshot, Neighbor, QueryCost, ScratchDir,
    StaticIndex, StreamingConfig, VariantKind, WindowScheme,
};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;
use proptest::prelude::*;

/// Worker count for the "parallel" side, as in the knob grid (legal
/// above any machine's core count).
const WORKERS: usize = 8;

struct Built {
    index: StaticIndex,
    stats: coconut_core::SharedIoStats,
    after_build: IoStatsSnapshot,
}

fn build(
    dir: &ScratchDir,
    dataset: &Dataset,
    label: &str,
    variant: VariantKind,
    materialized: bool,
    shards: usize,
    query_parallelism: usize,
) -> Built {
    let config = IndexConfig::new(variant, 64)
        .materialized(materialized)
        .with_memory_budget(1 << 19)
        .with_shard_count(shards)
        .with_query_parallelism(query_parallelism);
    let stats = IoStats::shared();
    let (index, _) =
        StaticIndex::build(dataset, config, &dir.file(label), Arc::clone(&stats)).expect("build");
    let after_build = stats.snapshot();
    Built {
        index,
        stats,
        after_build,
    }
}

fn queries(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut gen = RandomWalkGenerator::new(64, seed);
    (0..n).map(|_| gen.next_series().values).collect()
}

/// Runs `queries` one at a time against `built`, returning per-query
/// results plus the I/O the pass performed.
fn run_sequential(
    built: &Built,
    queries: &[Vec<f32>],
    k: usize,
    exact: bool,
) -> (Vec<(Vec<Neighbor>, QueryCost)>, IoStatsSnapshot) {
    let results = queries
        .iter()
        .map(|q| {
            if exact {
                built.index.exact_knn(q, k).expect("query")
            } else {
                built.index.approximate_knn(q, k).expect("query")
            }
        })
        .collect();
    (results, built.stats.snapshot().since(&built.after_build))
}

/// Runs `queries` as one batch against `built`, returning per-query
/// results plus the I/O the pass performed.
fn run_batch(
    built: &Built,
    queries: &[Vec<f32>],
    k: usize,
    exact: bool,
) -> (Vec<(Vec<Neighbor>, QueryCost)>, IoStatsSnapshot) {
    let results = built.index.batch_knn(queries, k, exact).expect("batch");
    (results, built.stats.snapshot().since(&built.after_build))
}

/// Tentpole: batch-of-N vs N sequential queries — answers, `QueryCost` and
/// `IoStats` identical, across variants × materialization × sharding ×
/// `query_parallelism` {1, N} × exact/approximate.
#[test]
fn batch_matches_sequential_on_static_indexes() {
    let dir = ScratchDir::new("beq-static").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 31);
    let series = gen.generate(700);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let qs = queries(9, 0xbeef);
    let cases = [
        (VariantKind::CTree, true, 1usize),
        (VariantKind::CTree, false, 1),
        (VariantKind::Clsm, true, 1),
        (VariantKind::Clsm, true, 4),
        (VariantKind::Clsm, false, 4),
    ];
    for (variant, materialized, shards) in cases {
        for qp in [1, WORKERS] {
            // Separate index instances (identical by construction) so the
            // two passes start from the same per-file access-cursor state.
            let seq = build(
                &dir,
                &dataset,
                &format!("{}-m{materialized}-s{shards}-q{qp}-seq", variant.name()),
                variant,
                materialized,
                shards,
                qp,
            );
            let bat = build(
                &dir,
                &dataset,
                &format!("{}-m{materialized}-s{shards}-q{qp}-bat", variant.name()),
                variant,
                materialized,
                shards,
                qp,
            );
            assert_eq!(
                seq.after_build, bat.after_build,
                "builds must be identical before comparing query I/O"
            );
            for exact in [true, false] {
                let (r_seq, io_seq) = run_sequential(&seq, &qs, 4, exact);
                let (r_bat, io_bat) = run_batch(&bat, &qs, 4, exact);
                let label = format!(
                    "{} materialized={materialized} shards={shards} qp={qp} exact={exact}",
                    variant.name()
                );
                assert_eq!(r_seq, r_bat, "answers/costs differ ({label})");
                assert_eq!(io_seq, io_bat, "IoStats differ ({label})");
            }
            // Interleaving exact and approximate passes above means the
            // cumulative per-file cursors must still agree afterwards.
            assert_eq!(
                seq.stats.snapshot(),
                bat.stats.snapshot(),
                "cumulative IoStats diverged"
            );
        }
    }
}

/// Streaming side of the tentpole: `query_window_batch` vs the
/// one-at-a-time loop on TP and BTP, windowed and unwindowed.
#[test]
fn batch_matches_sequential_on_streams() {
    let dir = ScratchDir::new("beq-stream").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 17, 0.1);
    let batches: Vec<_> = (0..10).map(|_| gen.next_batch(60)).collect();
    let qs = queries(6, 0xfeed);
    for scheme in [
        WindowScheme::TemporalPartitioning,
        WindowScheme::BoundedTemporalPartitioning,
    ] {
        for qp in [1, WORKERS] {
            let mut indexes = Vec::new();
            let mut stats_handles = Vec::new();
            for side in ["seq", "bat"] {
                let mut config = StreamingConfig::new(VariantKind::Clsm, scheme, 64);
                config.buffer_capacity = 60;
                config.knobs.query_parallelism = qp;
                let stats = IoStats::shared();
                let mut index = streaming_index(
                    config,
                    &dir.file(&format!("{}-q{qp}-{side}", scheme.short_name())),
                    Arc::clone(&stats),
                )
                .unwrap();
                for batch in &batches {
                    index.ingest_batch(batch).unwrap();
                }
                stats_handles.push(stats);
                indexes.push(index);
            }
            for window in [None, Some((150u64, 450u64)), Some((0u64, 40u64))] {
                for exact in [true, false] {
                    let singles: Vec<_> = qs
                        .iter()
                        .map(|q| indexes[0].query_window(q, 3, window, exact).unwrap())
                        .collect();
                    let batched = indexes[1]
                        .query_window_batch(&qs, 3, window, exact)
                        .unwrap();
                    assert_eq!(batched.len(), singles.len());
                    for (s, b) in singles.iter().zip(batched.iter()) {
                        let label = format!(
                            "{} qp={qp} window={window:?} exact={exact}",
                            scheme.short_name()
                        );
                        assert_eq!(s.neighbors, b.neighbors, "answers differ ({label})");
                        assert_eq!(s.cost, b.cost, "costs differ ({label})");
                        assert_eq!(s.partitions_accessed, b.partitions_accessed, "{label}");
                        assert_eq!(s.partitions_total, b.partitions_total, "{label}");
                    }
                }
            }
            assert_eq!(
                stats_handles[0].snapshot(),
                stats_handles[1].snapshot(),
                "{} qp={qp}: cumulative IoStats diverged",
                scheme.short_name()
            );
        }
    }
}

/// Service-layer stress test: spawned readers issue single and batched
/// queries against one index while one writer streams appends through the
/// shared `&self` server.  Every response must be a valid snapshot — never
/// an error, and a query matching a build-time series always finds it.
#[test]
fn concurrent_reads_during_append_observe_valid_snapshots() {
    let dir = ScratchDir::new("beq-stress").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 3);
    let series = gen.generate(300);
    let dataset_path = dir.file("raw.bin");
    Dataset::create_from_series(&dataset_path, &series).unwrap();
    let server = PalmServer::new(dir.file("work"));
    let built = server.handle(PalmRequest::BuildIndex {
        name: "stress".into(),
        dataset_path: dataset_path.to_string_lossy().into_owned(),
        variant: VariantKind::Clsm,
        materialized: true,
        memory_budget_bytes: 1 << 20,
        parallelism: 1,
        query_parallelism: 2,
        shard_count: 2,
        range: None,
        io_overlap: true,
        io_backend: coconut_core::IoBackend::Pread,
        planner: coconut_core::PlannerMode::Fixed,
        compression: coconut_core::Compression::Off,
    });
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");

    let anchors: Vec<(u64, Vec<f32>)> = [7u64, 120, 288]
        .into_iter()
        .map(|id| {
            let q: Vec<f32> = series[id as usize]
                .values
                .iter()
                .map(|v| v + 0.0005)
                .collect();
            (id, q)
        })
        .collect();

    std::thread::scope(|scope| {
        let server = &server;
        let anchors = &anchors;
        let writer = scope.spawn(move || {
            let mut gen = RandomWalkGenerator::new(64, 999);
            for round in 0..15u64 {
                let batch: Vec<Vec<f32>> = (0..40).map(|_| gen.next_series().values).collect();
                match server.handle(PalmRequest::Insert {
                    name: "stress".into(),
                    series: batch,
                    timestamp: round,
                    base_id: None,
                }) {
                    PalmResponse::Inserted { inserted, .. } => assert_eq!(inserted, 40),
                    other => panic!("insert failed: {other:?}"),
                }
            }
        });
        for reader in 0..4usize {
            scope.spawn(move || {
                for i in 0..12 {
                    let (id, q) = &anchors[(reader + i) % anchors.len()];
                    if i % 3 == 0 {
                        // Batched reads share the same snapshot guarantee.
                        let requests: Vec<PalmRequest> = anchors
                            .iter()
                            .map(|(_, q)| PalmRequest::Query {
                                name: "stress".into(),
                                query: q.clone(),
                                k: 1,
                                exact: true,
                            })
                            .collect();
                        match server.handle(PalmRequest::Batch { requests }) {
                            PalmResponse::Batch { responses } => {
                                for (response, (id, _)) in responses.iter().zip(anchors.iter()) {
                                    match response {
                                        PalmResponse::QueryResult { ids, .. } => {
                                            assert_eq!(ids, &vec![*id])
                                        }
                                        other => panic!("batched query failed: {other:?}"),
                                    }
                                }
                            }
                            other => panic!("batch failed: {other:?}"),
                        }
                    } else {
                        match server.handle(PalmRequest::Query {
                            name: "stress".into(),
                            query: q.clone(),
                            k: 1,
                            exact: true,
                        }) {
                            PalmResponse::QueryResult { ids, .. } => assert_eq!(&ids, &vec![*id]),
                            other => panic!("query failed: {other:?}"),
                        }
                    }
                }
            });
        }
        writer.join().unwrap();
    });

    // After the writer joined, the index holds every append.
    match server.handle(PalmRequest::Metrics {
        name: "stress".into(),
    }) {
        PalmResponse::Metrics { report, .. } => assert_eq!(report.entries, 300),
        other => panic!("metrics failed: {other:?}"),
    }
    match server.handle(PalmRequest::Query {
        name: "stress".into(),
        query: series[7].values.clone(),
        k: 1,
        exact: true,
    }) {
        PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![7]),
        other => panic!("final query failed: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random batch sizes and configurations: batch answers and costs are
    /// identical to one-at-a-time execution on CLSM (the variant with the
    /// most units), sharded and unsharded, at `query_parallelism` 1 and N.
    #[test]
    fn random_batches_match_sequential(
        n in 300usize..600,
        batch in 1usize..12,
        seed in 0u64..1000,
        k in 1usize..7,
        exact_bit in 0u8..2,
    ) {
        let dir = ScratchDir::new("beq-prop").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let exact = exact_bit == 1;
        let qs = queries(batch, seed ^ 0x5a5a);
        for shards in [1usize, 3] {
            for qp in [1, WORKERS] {
                let built = build(
                    &dir,
                    &dataset,
                    &format!("clsm-s{shards}-q{qp}"),
                    VariantKind::Clsm,
                    true,
                    shards,
                    qp,
                );
                let (r_seq, _) = run_sequential(&built, &qs, k, exact);
                let (r_bat, _) = run_batch(&built, &qs, k, exact);
                prop_assert_eq!(
                    &r_seq, &r_bat,
                    "batch differs (shards={}, qp={}, exact={})", shards, qp, exact
                );
            }
        }
    }

    /// The all-duplicates edge case: a batch of *identical* queries must
    /// return identical per-query results, equal to the single-query path.
    #[test]
    fn duplicate_queries_in_a_batch_agree(
        seed in 0u64..1000,
        dup in 2usize..6,
    ) {
        let dir = ScratchDir::new("beq-dup").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(300);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let built = build(&dir, &dataset, "ctree", VariantKind::CTree, true, 1, 2);
        let q = queries(1, seed ^ 0x77)[0].clone();
        let qs: Vec<Vec<f32>> = std::iter::repeat_with(|| q.clone()).take(dup).collect();
        let (single, _) = run_sequential(&built, &qs[..1], 3, true);
        let (batched, _) = run_batch(&built, &qs, 3, true);
        for (i, result) in batched.iter().enumerate() {
            prop_assert_eq!(result, &single[0], "duplicate {} diverged", i);
        }
    }
}
