//! Planner equivalence: the adaptive per-query planner is answer-invisible.
//!
//! The tentpole guarantee of adaptive execution is that the planner only
//! ever assigns knobs that are already proven pure performance knobs, so a
//! planner-routed query is bit-identical — neighbours, distances,
//! tie-breaking, `QueryCost` counters and `IoStats` classification — to
//! *every* fixed-knob configuration, on CTree and CLSM, exact and
//! approximate; a stream's planner only picks its
//! merge read-ahead gate, so its partitions are byte-identical.  And the
//! plan itself is deterministic: identical [`PlannerInputs`] always yield
//! identical [`PlanReport`]s, so every recorded report replays.

use coconut_core::{
    planner, streaming_index, IndexConfig, IoStats, PlannerInputs, PlannerMode, ScratchDir,
    StaticIndex, StreamingConfig, VariantKind, WindowScheme,
};
use coconut_parallel::CancelToken;
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;
use proptest::prelude::*;

/// Worker count for the "parallel" side, as in the knob grid (legal
/// above any machine's core count).
const WORKERS: usize = 8;

fn build_static(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    tag: &str,
    planner_mode: PlannerMode,
    query_parallelism: usize,
) -> (StaticIndex, coconut_core::SharedIoStats) {
    let config = IndexConfig::new(variant, 64)
        .materialized(true)
        .with_memory_budget(1 << 19)
        .with_shard_count(if variant == VariantKind::Clsm { 3 } else { 1 })
        .with_query_parallelism(query_parallelism)
        .with_planner(planner_mode);
    let stats = IoStats::shared();
    let subdir = dir.file(&format!("{}-{tag}", variant.name()));
    let (index, _) =
        StaticIndex::build(dataset, config, &subdir, std::sync::Arc::clone(&stats)).expect("build");
    (index, stats)
}

/// The planner-routed single-query path is bit-identical — answers,
/// `QueryCost` *and* `IoStats` classification — to every fixed
/// `query_parallelism`, on CTree and CLSM, exact and approximate; adaptive
/// queries return a replayable report, fixed queries return none.
#[test]
fn planned_static_queries_match_every_fixed_knob() {
    let dir = ScratchDir::new("peq-static").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 41);
    let series = gen.generate(600);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let never = CancelToken::never();

    for variant in [VariantKind::CTree, VariantKind::Clsm] {
        let (adaptive, adaptive_io) = build_static(
            &dir,
            &dataset,
            variant,
            "adaptive",
            PlannerMode::Adaptive,
            1,
        );
        let fixed: Vec<_> = [1, WORKERS]
            .into_iter()
            .map(|qp| {
                build_static(
                    &dir,
                    &dataset,
                    variant,
                    &format!("fixed-q{qp}"),
                    PlannerMode::Fixed,
                    qp,
                )
            })
            .collect();
        // Index construction itself is knob-invariant.
        for (_, io) in &fixed {
            assert_eq!(
                adaptive_io.snapshot(),
                io.snapshot(),
                "{}: build I/O must not depend on the planner",
                variant.name()
            );
        }

        let mut qgen = RandomWalkGenerator::new(64, 41 ^ 0xbeef);
        for round in 0..6 {
            let q = qgen.next_series();
            let k = 1 + round % 7;
            for exact in [true, false] {
                let ((nn_a, cost_a), report) =
                    adaptive.knn_planned(&q.values, k, exact, &never).unwrap();
                let report = report.expect("adaptive queries must carry a plan report");
                assert_eq!(
                    report.decision,
                    planner::plan(&report.inputs),
                    "every recorded report must replay from its own inputs"
                );
                assert_eq!(report.inputs.k, k);
                assert_eq!(report.inputs.exact, exact);
                for (index, _) in &fixed {
                    let ((nn_f, cost_f), no_report) =
                        index.knn_planned(&q.values, k, exact, &never).unwrap();
                    assert!(no_report.is_none(), "fixed queries must not plan");
                    assert_eq!(
                        nn_a,
                        nn_f,
                        "{} k={k} exact={exact}: answers differ",
                        variant.name()
                    );
                    assert_eq!(cost_a, cost_f, "{} k={k} exact={exact}", variant.name());
                }
            }
        }
        // The queries above exercised both trees identically at the I/O
        // layer too (reads *and* their sequential/random classification).
        assert_eq!(
            adaptive_io.snapshot(),
            fixed[0].1.snapshot(),
            "{}: query I/O must not depend on the planner",
            variant.name()
        );
    }
}

/// Recursively collects `(relative name, bytes)` of all files under `dir`.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    // Merged-away runs are unlinked off-thread: list what is left after.
    coconut_storage::durability::drain().expect("durability barrier");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    out.sort();
    out
}

/// The `streaming_index` factory threads the planner mode through.  A
/// stream's planner drives only the BTP merge read-ahead gate, so an
/// adaptive stream writes byte-identical partitions and answers
/// identically to a fixed one.
#[test]
fn streaming_factory_threads_planner_mode() {
    let dir = ScratchDir::new("peq-factory").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 5, 0.1);
    let batches: Vec<_> = (0..6).map(|_| gen.next_batch(50)).collect();
    let query = gen.quake_template();
    let mut results = Vec::new();
    for mode in [PlannerMode::Fixed, PlannerMode::Adaptive] {
        let mut config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        // One partition per batch, so the stream flushes and merges.
        config.buffer_capacity = 50;
        config.knobs.planner = mode;
        let subdir = dir.file(&format!("factory-{}", mode.name()));
        let mut index = streaming_index(config, &subdir, IoStats::shared()).unwrap();
        for batch in &batches {
            index.ingest_batch(batch).unwrap();
        }
        let r = index
            .query_window(&query, 4, Some((20, 200)), true)
            .unwrap();
        results.push((dir_contents(&subdir), r.neighbors, r.cost));
    }
    assert!(!results[0].0.is_empty(), "the stream must have partitions");
    assert_eq!(results[0], results[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Determinism pin: `plan` is a pure function of the captured inputs —
    /// identical [`PlannerInputs`] always produce identical decisions, and
    /// a [`PlanReport`] always replays (`decision == plan(&inputs)`), so
    /// recorded explains are trustworthy on any host.
    #[test]
    fn identical_inputs_yield_identical_plans(
        footprint_bytes in 0u64..=u64::MAX,
        cache_budget_bytes in 0u64..=u64::MAX,
        unit_count in 0usize..10_000,
        run_count in 0usize..1_000,
        cores in 0usize..256,
        k in 0usize..1_000,
        exact_bit in 0u8..2,
        random_read_permille in 0u32..=1_000,
    ) {
        let inputs = PlannerInputs {
            footprint_bytes,
            cache_budget_bytes,
            unit_count,
            run_count,
            cores,
            k,
            exact: exact_bit == 1,
            random_read_permille,
        };
        let first = planner::plan(&inputs);
        let second = planner::plan(&inputs);
        prop_assert_eq!(first, second);
        let report = planner::plan_report(inputs);
        prop_assert_eq!(report.inputs, inputs);
        prop_assert_eq!(report.decision, planner::plan(&inputs));
        // Structural sanity that holds for *every* input: the engine knobs
        // stay in their legal ranges.
        prop_assert!(report.decision.query_parallelism >= 1);
        prop_assert!(report.decision.prefetch_min_bytes > 0);
    }
}
