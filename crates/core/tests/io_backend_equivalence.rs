//! Backend equivalence of the whole read path.
//!
//! The tentpole guarantee of the mmap read backend is that `io_backend` is a
//! *pure* performance knob: serving `read_range`, leaf/delta scans, sharded
//! compaction range readers and partition merges from a read-only file
//! mapping instead of positioned reads changes how bytes travel, never which
//! bytes — so for every variant the on-disk index is byte-identical, every
//! kNN answer and `QueryCost` is identical, and the `IoStats` totals
//! (reads/writes, sequential/random counts) are identical at either backend
//! — across the `io_backend × io_overlap × parallelism` grid, sharded and
//! unsharded (the acceptance matrix of this PR).

use coconut_core::{
    streaming_index, IndexConfig, IoBackend, IoStats, IoStatsSnapshot, ScratchDir, StaticIndex,
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

#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn build_variant(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    budget: usize,
    parallelism: usize,
    shard_count: usize,
    io_overlap: bool,
    io_backend: IoBackend,
) -> (StaticIndex, Vec<(String, Vec<u8>)>, IoStatsSnapshot) {
    let config = IndexConfig::new(variant, 64)
        .materialized(true)
        .with_memory_budget(budget)
        .with_parallelism(parallelism)
        .with_shard_count(shard_count)
        .with_io_overlap(io_overlap)
        .with_io_backend(io_backend);
    let subdir = dir.file(&format!(
        "{}-p{parallelism}-s{shard_count}-ov{io_overlap}-be{io_backend}",
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
    io_overlap: bool,
) {
    let (pread, pread_files, pread_io) = build_variant(
        dir,
        dataset,
        variant,
        budget,
        parallelism,
        shard_count,
        io_overlap,
        IoBackend::Pread,
    );
    let (mmap, mmap_files, mmap_io) = build_variant(
        dir,
        dataset,
        variant,
        budget,
        parallelism,
        shard_count,
        io_overlap,
        IoBackend::Mmap,
    );
    assert_eq!(
        pread_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        mmap_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same file set ({variant:?}, p{parallelism}, s{shard_count}, ov{io_overlap})"
    );
    for ((name, a), (_, b)) in pread_files.iter().zip(mmap_files.iter()) {
        assert_eq!(
            a, b,
            "file {name} differs between pread and mmap \
             ({variant:?}, p{parallelism}, s{shard_count}, ov{io_overlap})"
        );
    }
    assert_eq!(
        pread_io, mmap_io,
        "build IoStats totals differ ({variant:?}, p{parallelism}, s{shard_count}, ov{io_overlap})"
    );
    let mut qgen = RandomWalkGenerator::new(64, 24242);
    for _ in 0..6 {
        let q = qgen.next_series();
        let (nn_pread, cost_pread) = pread.exact_knn(&q.values, 5).unwrap();
        let (nn_mmap, cost_mmap) = mmap.exact_knn(&q.values, 5).unwrap();
        assert_eq!(nn_pread, nn_mmap, "exact kNN answers must be identical");
        assert_eq!(cost_pread, cost_mmap, "query costs must be identical");
        let (ap_pread, ap_cost_pread) = pread.approximate_knn(&q.values, 5).unwrap();
        let (ap_mmap, ap_cost_mmap) = mmap.approximate_knn(&q.values, 5).unwrap();
        assert_eq!(ap_pread, ap_mmap, "approximate answers must be identical");
        assert_eq!(ap_cost_pread, ap_cost_mmap, "approximate costs too");
    }
}

/// Acceptance matrix, CTree arm: spilling external sort (the sort's spill
/// runs and the leaf scans both flow through the backend) at parallelism 1
/// and 8, overlapped and alternating pipeline.
#[test]
fn ctree_backend_equivalent_spilling() {
    let dir = ScratchDir::new("be-eq-ctree").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 1808);
    let series = gen.generate(3000);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    for io_overlap in [false, true] {
        for parallelism in [1usize, 8] {
            // 256 KiB budget forces spill runs for 3000 materialized entries.
            assert_equivalent(
                &dataset,
                &dir,
                VariantKind::CTree,
                256 << 10,
                parallelism,
                1,
                io_overlap,
            );
        }
    }
}

/// Acceptance matrix, CLSM arm: compactions (range readers + k-way merges
/// through the backend), sharded and unsharded, at parallelism 1 and 8.
#[test]
fn clsm_backend_equivalent_sharded_and_unsharded() {
    let dir = ScratchDir::new("be-eq-clsm").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 1810);
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
                true,
            );
        }
    }
}

/// Streaming BTP: partition merges served from mappings must not change
/// partitions, windowed answers or I/O totals.
#[test]
fn btp_backend_equivalent() {
    let dir = ScratchDir::new("be-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 177, 0.1);
    let batches: Vec<_> = (0..12).map(|_| gen.next_batch(100)).collect();
    let query = gen.quake_template();

    let mut outcomes = Vec::new();
    for io_backend in [IoBackend::Pread, IoBackend::Mmap] {
        let mut config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        config.buffer_capacity = 100;
        config.io_backend = io_backend;
        let stats = IoStats::shared();
        let subdir = dir.file(&format!("btp-be{io_backend}"));
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
    let (pread_files, pread_io, pread_answers) = &outcomes[0];
    let (mmap_files, mmap_io, mmap_answers) = &outcomes[1];
    assert_eq!(pread_files.len(), mmap_files.len(), "same partition files");
    for ((name, a), (_, b)) in pread_files.iter().zip(mmap_files.iter()) {
        assert_eq!(a, b, "partition file {name} differs");
    }
    assert_eq!(pread_io, mmap_io, "IoStats totals differ");
    assert_eq!(pread_answers, mmap_answers, "windowed answers differ");
}

/// Regression: a CLSM built with the mmap backend runs compactions that
/// delete their input runs.  The delete path must drop each run's mapping
/// *before* the unlink (no reads through mappings of deleted files), and the
/// run files left on disk afterwards must be exactly the live shards the
/// tree still queries — so answers keep matching the pread build even after
/// many compaction-delete cycles.
#[test]
fn compaction_deleted_runs_are_unmapped_before_unlink() {
    use coconut_ctree::sorted_file::SortedSeriesFile;
    use coconut_sax::{SaxConfig, SortableSummarizer};

    // Storage-level ordering check on a real SortedSeriesFile: the mapping
    // created by a block scan is dropped by `delete` even while another
    // handle (here: a clone of the underlying run, as a compaction merge
    // reader would hold) is still alive, and only then is the file removed.
    let dir = ScratchDir::new("be-unmap").unwrap();
    let sax = SaxConfig::new(32, 4, 4);
    let summarizer = SortableSummarizer::new(sax);
    let mut gen = RandomWalkGenerator::new(32, 7);
    let entries: Vec<_> = gen
        .generate(64)
        .iter()
        .map(|s| coconut_ctree::entry::SeriesEntry::from_series(s, s.id, &summarizer, true))
        .collect();
    let file = SortedSeriesFile::build_from_entries_with(
        dir.file("part.run"),
        coconut_ctree::entry::EntryLayout::materialized(sax.key_bits(), sax.series_len),
        sax,
        entries,
        16,
        IoStats::shared(),
        1024,
        1,
        IoBackend::Mmap,
    )
    .unwrap();
    let reader_handle = file.run().clone();
    // A block read through the mmap backend creates the mapping.
    let _ = reader_handle.read_range(0, 16).unwrap();
    assert!(file.is_mapped(), "a mapped read must create the mapping");
    let path = file.run().path().to_path_buf();
    file.delete().unwrap();
    assert!(
        !reader_handle.is_mapped(),
        "delete must drop the mapping before the unlink"
    );
    assert!(!path.exists(), "the partition file must be gone");

    // End-to-end: a compacting CLSM on the mmap backend — inputs of every
    // compaction are deleted while queries keep mapping the survivors — must
    // agree with the pread build query for query.
    let mut gen = RandomWalkGenerator::new(64, 4711);
    let series = gen.generate(1500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let mut trees = Vec::new();
    for io_backend in [IoBackend::Pread, IoBackend::Mmap] {
        // A small budget gives a ~113-entry buffer: 1500 series force many
        // flushes and several compaction-delete cycles.
        let config = IndexConfig::new(VariantKind::Clsm, 64)
            .materialized(true)
            .with_memory_budget(32 << 10)
            .with_shard_count(2)
            .with_io_backend(io_backend);
        let subdir = dir.file(&format!("clsm-unmap-{io_backend}"));
        let (index, _) = StaticIndex::build(&dataset, config, &subdir, IoStats::shared()).unwrap();
        if let StaticIndex::Clsm(tree) = &index {
            assert!(tree.stats().merges > 0, "compactions must have happened");
        }
        trees.push(index);
    }
    let mut qgen = RandomWalkGenerator::new(64, 99);
    for _ in 0..8 {
        let q = qgen.next_series();
        let (a, ca) = trees[0].exact_knn(&q.values, 4).unwrap();
        let (b, cb) = trees[1].exact_knn(&q.values, 4).unwrap();
        assert_eq!(a, b, "post-compaction answers must match");
        assert_eq!(ca, cb, "post-compaction costs must match");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the acceptance grid: for random dataset sizes,
    /// budgets, worker counts and overlap settings, pread and mmap CTree
    /// builds are file-identical with identical I/O totals.
    #[test]
    fn ctree_backend_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        parallelism in 1usize..9,
        overlap_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        let io_overlap = overlap_bit == 1;
        let dir = ScratchDir::new("be-eq-prop").unwrap();
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let mut outcomes = Vec::new();
        for io_backend in [IoBackend::Pread, IoBackend::Mmap] {
            let (_, files, io) = build_variant(
                &dir,
                &dataset,
                VariantKind::CTree,
                budget_kib << 10,
                parallelism,
                1,
                io_overlap,
                io_backend,
            );
            outcomes.push((files, io));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0);
        prop_assert_eq!(outcomes[0].1, outcomes[1].1);
    }
}
