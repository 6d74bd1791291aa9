//! Overlapped/sequential I/O equivalence of the whole build pipeline.
//!
//! The tentpole guarantee of the overlapped-I/O pipeline is that
//! `io_overlap` is a *pure* performance knob: double-buffered run
//! generation and prefetching merge readers change *when* each I/O happens,
//! never which I/Os happen, so for every variant the on-disk index is
//! byte-identical, every kNN answer is identical, and the `IoStats` totals
//! (reads/writes, sequential/random counts) are identical at either
//! setting — on spilling and in-memory workloads, sharded and unsharded,
//! at build `parallelism` 1 and 8 (the acceptance matrix of this PR).

use coconut_core::{
    streaming_index, IndexConfig, IoStats, IoStatsSnapshot, ScratchDir, StaticIndex,
    StreamingConfig, VariantKind, WindowScheme,
};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;
use proptest::prelude::*;

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

#[allow(clippy::type_complexity)]
fn build_variant(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    budget: usize,
    parallelism: usize,
    shard_count: usize,
    io_overlap: bool,
) -> (StaticIndex, Vec<(String, Vec<u8>)>, IoStatsSnapshot) {
    let config = IndexConfig::new(variant, 64)
        .materialized(true)
        .with_memory_budget(budget)
        .with_parallelism(parallelism)
        .with_shard_count(shard_count)
        .with_io_overlap(io_overlap);
    let subdir = dir.file(&format!(
        "{}-p{parallelism}-s{shard_count}-ov{io_overlap}",
        variant.name()
    ));
    let stats = IoStats::shared();
    let (index, _report) =
        StaticIndex::build(dataset, config, &subdir, std::sync::Arc::clone(&stats)).expect("build");
    let files = dir_contents(&subdir);
    (index, files, stats.snapshot())
}

fn assert_equivalent(
    dataset: &Dataset,
    dir: &ScratchDir,
    variant: VariantKind,
    budget: usize,
    parallelism: usize,
    shard_count: usize,
) {
    let (seq, seq_files, seq_io) = build_variant(
        dir,
        dataset,
        variant,
        budget,
        parallelism,
        shard_count,
        false,
    );
    let (ovl, ovl_files, ovl_io) = build_variant(
        dir,
        dataset,
        variant,
        budget,
        parallelism,
        shard_count,
        true,
    );
    assert_eq!(
        seq_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        ovl_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same file set ({variant:?}, p{parallelism}, s{shard_count})"
    );
    for ((name, a), (_, b)) in seq_files.iter().zip(ovl_files.iter()) {
        assert_eq!(
            a, b,
            "file {name} differs between io_overlap off and on \
             ({variant:?}, p{parallelism}, s{shard_count})"
        );
    }
    assert_eq!(
        seq_io, ovl_io,
        "IoStats totals differ ({variant:?}, p{parallelism}, s{shard_count})"
    );
    let mut qgen = RandomWalkGenerator::new(64, 4242);
    for _ in 0..6 {
        let q = qgen.next_series();
        let (nn_seq, cost_seq) = seq.exact_knn(&q.values, 5).unwrap();
        let (nn_ovl, cost_ovl) = ovl.exact_knn(&q.values, 5).unwrap();
        assert_eq!(nn_seq, nn_ovl, "exact kNN answers must be identical");
        assert_eq!(cost_seq, cost_ovl, "query costs must be identical");
        let (ap_seq, _) = seq.approximate_knn(&q.values, 5).unwrap();
        let (ap_ovl, _) = ovl.approximate_knn(&q.values, 5).unwrap();
        assert_eq!(ap_seq, ap_ovl, "approximate answers must be identical");
    }
}

/// Acceptance matrix: CTree (spilling external sort) at parallelism 1 and 8.
#[test]
fn ctree_overlap_equivalent_spilling() {
    let dir = ScratchDir::new("ovl-eq-ctree").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 808);
    let series = gen.generate(3000);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    for parallelism in [1usize, 8] {
        // 256 KiB budget forces spill runs for 3000 materialized entries.
        assert_equivalent(
            &dataset,
            &dir,
            VariantKind::CTree,
            256 << 10,
            parallelism,
            1,
        );
    }
}

/// In-memory workload: the budget swallows the whole input, so run
/// generation degenerates to a plain in-memory sort in both modes.
#[test]
fn ctree_overlap_equivalent_in_memory() {
    let dir = ScratchDir::new("ovl-eq-ctree-mem").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 809);
    let series = gen.generate(800);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    assert_equivalent(&dataset, &dir, VariantKind::CTree, 64 << 20, 8, 1);
}

/// CLSM compactions (prefetching shard merges), unsharded and sharded.
#[test]
fn clsm_overlap_equivalent_sharded_and_unsharded() {
    let dir = ScratchDir::new("ovl-eq-clsm").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 810);
    let series = gen.generate(2000);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    for shard_count in [1usize, 4] {
        for parallelism in [1usize, 8] {
            assert_equivalent(
                &dataset,
                &dir,
                VariantKind::Clsm,
                1 << 20,
                parallelism,
                shard_count,
            );
        }
    }
}

/// Streaming BTP: prefetching partition merges must not change partitions,
/// answers or I/O totals.
#[test]
fn btp_overlap_equivalent() {
    let dir = ScratchDir::new("ovl-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 77, 0.1);
    let batches: Vec<_> = (0..12).map(|_| gen.next_batch(100)).collect();
    let query = gen.quake_template();

    let mut outcomes = Vec::new();
    for io_overlap in [false, true] {
        let mut config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        config.buffer_capacity = 100;
        config.io_overlap = io_overlap;
        let stats = IoStats::shared();
        let subdir = dir.file(&format!("btp-ov{io_overlap}"));
        let mut index = streaming_index(config, &subdir, std::sync::Arc::clone(&stats)).unwrap();
        for batch in &batches {
            index.ingest_batch(batch).unwrap();
        }
        let mut answers = Vec::new();
        for window in [None, Some((200u64, 700u64))] {
            answers.push(
                index
                    .query_window(&query, 3, window, true)
                    .unwrap()
                    .neighbors,
            );
        }
        outcomes.push((dir_contents(&subdir), stats.snapshot(), answers));
    }
    let (seq_files, seq_io, seq_answers) = &outcomes[0];
    let (ovl_files, ovl_io, ovl_answers) = &outcomes[1];
    assert_eq!(seq_files.len(), ovl_files.len(), "same partition file set");
    for ((name, a), (_, b)) in seq_files.iter().zip(ovl_files.iter()) {
        assert_eq!(a, b, "partition file {name} differs");
    }
    assert_eq!(seq_io, ovl_io, "IoStats totals differ");
    assert_eq!(seq_answers, ovl_answers, "windowed answers differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the acceptance matrix: for random dataset sizes,
    /// budgets and worker counts, overlapped and sequential CTree builds
    /// are file-identical with identical I/O totals and identical answers.
    #[test]
    fn ctree_overlap_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        parallelism in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dir = ScratchDir::new("ovl-eq-prop").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let mut outcomes = Vec::new();
        for io_overlap in [false, true] {
            let (_, files, io) = build_variant(
                &dir,
                &dataset,
                VariantKind::CTree,
                budget_kib << 10,
                parallelism,
                1,
                io_overlap,
            );
            outcomes.push((files, io));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0);
        prop_assert_eq!(outcomes[0].1, outcomes[1].1);
    }
}
