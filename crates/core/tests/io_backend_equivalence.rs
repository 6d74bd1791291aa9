//! Backend equivalence of the whole read path.
//!
//! `io_backend` is a *pure* performance knob: serving reads from a
//! read-only file mapping instead of positioned reads changes how bytes
//! travel, never which bytes.  Each case builds on mmap at every
//! `parallelism × io_overlap` point of the `knob_grid` and compares files,
//! build `IoStats`, answers and `QueryCost` against the default (pread)
//! build.  A run served from a mapping must also drop that mapping before
//! its file is unlinked, so no read ever goes through a mapping of a
//! deleted file.

mod knob_grid;

use coconut_core::{
    IndexConfig, IoBackend, IoStats, PerfKnobs, ScratchDir, StaticIndex, VariantKind,
};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::Dataset;
use proptest::prelude::*;

fn mmap_points() -> Vec<PerfKnobs> {
    knob_grid::points_where(|knobs| knobs.io_backend == IoBackend::Mmap)
}

#[test]
fn ctree_backend_equivalent_spilling() {
    knob_grid::ctree_spilling(&mmap_points());
}

#[test]
fn clsm_backend_equivalent_sharded_and_unsharded() {
    knob_grid::clsm_sharded_and_unsharded(&mmap_points());
}

#[test]
fn btp_backend_equivalent() {
    knob_grid::btp(&mmap_points());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random dataset sizes, budgets, worker counts and overlap
    /// settings, pread and mmap CTree builds match.
    #[test]
    fn ctree_backend_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        parallelism in 1usize..9,
        overlap_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        let io_overlap = overlap_bit == 1;
        let pread = PerfKnobs { parallelism, io_overlap, ..PerfKnobs::default() };
        let mmap = PerfKnobs { io_backend: IoBackend::Mmap, ..pread };
        knob_grid::ctree_random(n, budget_kib, seed, pread, mmap);
    }
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
    let file = SortedSeriesFile::build_unsorted(
        dir.file("part.run"),
        coconut_ctree::entry::EntryLayout::materialized(sax.key_bits(), sax.series_len),
        sax,
        entries,
        16,
        IoStats::shared(),
        1024,
        1,
        IoBackend::Mmap,
        coconut_storage::Compression::Off,
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
        let (a, ca) = trees[0].knn(&q.values, 4, true).unwrap();
        let (b, cb) = trees[1].knn(&q.values, 4, true).unwrap();
        assert_eq!(a, b, "post-compaction answers must match");
        assert_eq!(ca, cb, "post-compaction costs must match");
    }
}
