//! The one identity grid over the build and read knobs, shared by
//! `knob_equivalence.rs` (every grid point) and the per-knob files
//! `parallel_equivalence.rs`, `io_overlap_equivalence.rs` and
//! `io_backend_equivalence.rs` (the points where their knob is flipped).
//!
//! `parallelism`, `io_overlap`, `io_backend` and `query_parallelism` change
//! how an index is built and read, never what it holds.  Every case builds
//! its index at [`PerfKnobs::default`] and at each given point of
//! `{parallelism 1, 8} × {io_overlap off, on} × {pread, mmap}`, plus one
//! point with an 8-way query fan-out (8 workers is legal above any
//! machine's core count).  Each point must match the default on the index
//! files byte for byte, the build and query-phase `IoStats`, and every
//! exact and approximate answer with its `QueryCost`.

// Each test file uses its own subset of the cases.
#![allow(dead_code)]

use std::sync::Arc;

use coconut_core::{
    streaming_index, IndexConfig, IoBackend, IoStats, IoStatsSnapshot, Neighbor, PerfKnobs,
    QueryCost, ScratchDir, StaticIndex, StreamingConfig, TimestampedSeries, VariantKind,
    WindowScheme,
};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;

/// What every knob point must reproduce exactly.
pub struct Outcome {
    files: Vec<(String, Vec<u8>)>,
    build_io: IoStatsSnapshot,
    query_io: IoStatsSnapshot,
    answers: Vec<(Vec<Neighbor>, QueryCost)>,
}

/// Every grid point except the default itself.
pub fn points() -> Vec<PerfKnobs> {
    let mut points = Vec::new();
    for parallelism in [1usize, 8] {
        for io_overlap in [false, true] {
            for io_backend in [IoBackend::Pread, IoBackend::Mmap] {
                points.push(PerfKnobs {
                    parallelism,
                    io_overlap,
                    io_backend,
                    ..PerfKnobs::default()
                });
            }
        }
    }
    points.retain(|knobs| *knobs != PerfKnobs::default());
    points.push(PerfKnobs {
        query_parallelism: 8,
        ..PerfKnobs::default()
    });
    points
}

/// The grid points that `flipped` selects.
pub fn points_where(flipped: impl Fn(&PerfKnobs) -> bool) -> Vec<PerfKnobs> {
    points()
        .into_iter()
        .filter(|knobs| flipped(knobs))
        .collect()
}

/// A directory name unique to a knob point.
fn tag(knobs: &PerfKnobs) -> String {
    format!(
        "p{}-q{}-ov{}-{}",
        knobs.parallelism, knobs.query_parallelism, knobs.io_overlap, knobs.io_backend
    )
}

fn assert_same(expected: &Outcome, got: &Outcome, at: &str) {
    let names = |o: &Outcome| o.files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(expected), names(got), "file set differs ({at})");
    for ((name, a), (_, b)) in expected.files.iter().zip(&got.files) {
        assert!(a == b, "file {name} differs ({at})");
    }
    assert_eq!(
        expected.build_io, got.build_io,
        "build IoStats differ ({at})"
    );
    assert_eq!(
        expected.query_io, got.query_io,
        "query IoStats differ ({at})"
    );
    assert_eq!(
        expected.answers, got.answers,
        "answers or QueryCost differ ({at})"
    );
}

/// Runs `case` at the default knobs and at each of `points`.
fn check_points(label: &str, points: &[PerfKnobs], case: impl Fn(PerfKnobs) -> Outcome) {
    let default = case(PerfKnobs::default());
    for knobs in points {
        assert_same(&default, &case(*knobs), &format!("{label} at {knobs:?}"));
    }
}

/// `io` with its random reads counted as sequential ones.
fn read_total(mut io: IoStatsSnapshot) -> IoStatsSnapshot {
    io.sequential_reads += std::mem::take(&mut io.random_reads);
    io
}

/// Recursively collects `(relative name, bytes)` of all files under `dir`.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    // Merged-away runs are unlinked off-thread: list what is left after.
    coconut_storage::durability::drain().expect("durability barrier");
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("prefix")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn walks(dir: &ScratchDir, n: usize, seed: u64) -> Dataset {
    let series = RandomWalkGenerator::new(64, seed).generate(n);
    Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap()
}

fn static_outcome(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    budget: usize,
    shard_count: usize,
    knobs: PerfKnobs,
) -> (StaticIndex, Outcome) {
    let config = IndexConfig {
        knobs,
        ..IndexConfig::new(variant, 64)
            .materialized(true)
            .with_memory_budget(budget)
            .with_shard_count(shard_count)
    };
    let subdir = dir.file(&format!(
        "{}-s{shard_count}-{}",
        variant.name(),
        tag(&knobs)
    ));
    let stats = IoStats::shared();
    let (index, _) =
        StaticIndex::build(dataset, config, &subdir, Arc::clone(&stats)).expect("build");
    let files = dir_contents(&subdir);
    let build_io = stats.snapshot();
    let mut qgen = RandomWalkGenerator::new(64, 4242);
    let mut answers = Vec::new();
    for _ in 0..6 {
        let q = qgen.next_series();
        answers.push(index.knn(&q.values, 5, true).unwrap());
        answers.push(index.knn(&q.values, 5, false).unwrap());
    }
    let outcome = Outcome {
        files,
        query_io: stats.snapshot().since(&build_io),
        build_io,
        answers,
    };
    (index, outcome)
}

/// 3000 materialized series under a 256 KiB budget: the external sort
/// spills runs, so every knob reaches the sorter and the leaf scans.
pub fn ctree_spilling(points: &[PerfKnobs]) {
    let dir = ScratchDir::new("knob-eq-ctree").unwrap();
    let dataset = walks(&dir, 3000, 808);
    check_points("ctree spilling", points, |knobs| {
        let (index, outcome) =
            static_outcome(&dir, &dataset, VariantKind::CTree, 256 << 10, 1, knobs);
        let StaticIndex::CTree(tree) = &index else {
            unreachable!("built a CTree")
        };
        assert!(tree.build_stats().sort_runs > 0, "the sort must spill");
        outcome
    });
}

/// The budget swallows the whole input: the sort degenerates to a plain
/// in-memory sort.
pub fn ctree_in_memory(points: &[PerfKnobs]) {
    let dir = ScratchDir::new("knob-eq-ctree-mem").unwrap();
    let dataset = walks(&dir, 800, 809);
    check_points("ctree in memory", points, |knobs| {
        static_outcome(&dir, &dataset, VariantKind::CTree, 64 << 20, 1, knobs).1
    });
}

/// CLSM flushes and compactions (prefetching shard merges through either
/// backend), unsharded and with 4 key-range shards.
///
/// Known gap: parallel shard merges read each input run from several
/// workers, and the run's one access cursor classifies those reads in
/// arrival order, so with 4 shards at `parallelism` > 1 the build's
/// sequential/random read split depends on thread timing.  Those points
/// compare the build's read total instead of the split; every other point,
/// and everything else at those points, stays exact.
pub fn clsm_sharded_and_unsharded(points: &[PerfKnobs]) {
    let dir = ScratchDir::new("knob-eq-clsm").unwrap();
    let dataset = walks(&dir, 2000, 810);
    for shard_count in [1usize, 4] {
        let case = |knobs| {
            let (index, outcome) = static_outcome(
                &dir,
                &dataset,
                VariantKind::Clsm,
                64 << 10,
                shard_count,
                knobs,
            );
            let StaticIndex::Clsm(tree) = &index else {
                unreachable!("built a CLSM")
            };
            assert!(
                tree.num_shards() > 1,
                "clsm s{shard_count} must fan out over several units"
            );
            outcome
        };
        let default = case(PerfKnobs::default());
        for knobs in points {
            let at = format!("clsm s{shard_count} at {knobs:?}");
            let mut got = case(*knobs);
            if shard_count > 1 && knobs.parallelism > 1 {
                assert_eq!(
                    read_total(default.build_io),
                    read_total(got.build_io),
                    "build read total differs ({at})"
                );
                got.build_io = default.build_io;
            }
            assert_same(&default, &got, &at);
        }
    }
}

/// A BTP stream: partition flushes and size-tiered merges, then windowed
/// exact and approximate queries.
pub fn btp(points: &[PerfKnobs]) {
    let dir = ScratchDir::new("knob-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 77, 0.1);
    let batches: Vec<Vec<TimestampedSeries>> = (0..12).map(|_| gen.next_batch(100)).collect();
    let query = gen.quake_template();
    check_points("btp", points, |knobs| {
        let mut config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        config.buffer_capacity = 100;
        config.knobs = knobs;
        let subdir = dir.file(&format!("btp-{}", tag(&knobs)));
        let stats = IoStats::shared();
        let mut index = streaming_index(config, &subdir, Arc::clone(&stats)).unwrap();
        for batch in &batches {
            index.ingest_batch(batch).unwrap();
        }
        let files = dir_contents(&subdir);
        let build_io = stats.snapshot();
        let mut answers = Vec::new();
        for window in [None, Some((200u64, 700u64))] {
            for exact in [true, false] {
                let r = index.query_window(&query, 3, window, exact).unwrap();
                answers.push((r.neighbors, r.cost));
            }
        }
        Outcome {
            files,
            query_io: stats.snapshot().since(&build_io),
            build_io,
            answers,
        }
    });
}

/// A CTree over `n` random walks under a `budget_kib` budget: the build at
/// `knobs` matches the build at `base`.
pub fn ctree_random(n: usize, budget_kib: usize, seed: u64, base: PerfKnobs, knobs: PerfKnobs) {
    let dir = ScratchDir::new("knob-eq-prop").unwrap();
    let dataset = walks(&dir, n, seed);
    let case = |knobs| {
        static_outcome(
            &dir,
            &dataset,
            VariantKind::CTree,
            budget_kib << 10,
            1,
            knobs,
        )
        .1
    };
    assert_same(
        &case(base),
        &case(knobs),
        &format!("n={n} budget={budget_kib}KiB seed={seed} at {base:?} vs {knobs:?}"),
    );
}
