//! The brute-force differential suite: the cells of the harness's crosses
//! that belong to no single knob (see `harness.rs`), and the checks that
//! sit beside them.  Knob points × every structure on the duplicates
//! here; on the walks, one cell per knob family in the `*_equivalence.rs`
//! files; data × structure in `integration.rs`.

mod harness;

use coconut_core::{
    CancelToken, Dataset, IndexConfig, IoBackend, IoStats, PerfKnobs, ScratchDir, StaticIndex,
    VariantKind,
};
use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::kernels::{active_backend, force_backend, KernelBackend};
use coconut_ctree::sorted_file::SortedSeriesFile;
use coconut_sax::{SaxConfig, SortableSummarizer};
use coconut_series::distance::brute_force_knn;
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use harness::*;

/// The adversarial shapes are what they claim: from the first query, the
/// 5th distance ties the 6th exactly, or (near-ties) the 1st exactly and
/// the 6th within a few ulps.
#[test]
fn adversarial_data_ties_at_the_kth_distance() {
    let distances = |data: &Data| -> Vec<f64> {
        let nearest = data.series.iter().map(|s| (s.id, s.values.as_slice()));
        let nearest = brute_force_knn(&data.queries[0], nearest, 6);
        nearest.iter().map(|n| n.squared_distance).collect()
    };
    for data in [duplicates(300), constant(300)] {
        let d = distances(&data);
        assert_eq!(d[4], d[5], "{}", data.name);
    }
    let d = distances(&near_ties(300));
    assert_eq!(d[0], d[4]);
    assert!(d[4] < d[5] && d[5] - d[4] < 1e-4, "{d:?}");
}

/// The knob families split the knob points without overlap, so each cell
/// of the walks cross runs once: one point per knob moved alone, one that
/// moves both, and never the default.
#[test]
fn knob_families_partition_the_knob_points() {
    let all = knob_points();
    assert_eq!(all.len(), 3);
    assert!(!all.contains(&PerfKnobs::default()));
    for (i, knobs) in all.iter().enumerate() {
        assert!(!all[..i].contains(knobs), "{knobs:?} is in two families");
    }
    for knob in KNOBS {
        assert_eq!(points(knob).len(), 1, "{knob:?}");
    }
}

/// Every knob point over every structure the knobs reach, on the
/// duplicates: every exact answer ties with copies of itself.
#[test]
fn every_knob_point_matches_the_default_on_duplicates() {
    let data = Data {
        ks: &[1, 10],
        ..duplicates(300)
    };
    check_knob_points(data, every, &knob_points());
}

/// Every available SIMD kernel backend builds and answers exactly as the
/// scalar reference, on every structure.  One sequential test, because
/// `force_backend` pins a process-wide atomic.
#[test]
fn every_kernel_backend_matches_scalar() {
    let initial = active_backend();
    let dir = ScratchDir::new("diff-kernels").unwrap();
    let data = knob_walks();
    let simd: Vec<_> = KernelBackend::available_backends()
        .into_iter()
        .filter(|&backend| backend != KernelBackend::Scalar)
        .map(|backend| {
            (
                backend,
                ScratchDir::new(&format!("diff-{backend}")).unwrap(),
            )
        })
        .collect();
    for structure in STRUCTURES {
        force_backend(KernelBackend::Scalar);
        let reference = run(&dir, &data, structure, PerfKnobs::default());
        for (backend, sub) in &simd {
            force_backend(*backend);
            let got = run(sub, &data, structure, PerfKnobs::default());
            let at = format!("{} under {backend}", structure.label());
            assert_same(&reference, &got, &at);
        }
    }
    force_backend(initial);
}

/// Regression: a CLSM built with the mmap backend runs compactions that
/// delete their input runs.  The delete path must drop each run's mapping
/// *before* the unlink (no reads through mappings of deleted files), and the
/// run files left on disk afterwards must be exactly the live shards the
/// tree still queries — so answers keep matching the pread build even after
/// many compaction-delete cycles.
#[test]
fn compaction_deleted_runs_are_unmapped_before_unlink() {
    // Storage-level ordering check on a real SortedSeriesFile: the mapping
    // created by a block scan is dropped by `delete` even while another
    // handle (here: a clone of the underlying run, as a compaction merge
    // reader would hold) is still alive, and only then is the file removed.
    let dir = ScratchDir::new("be-unmap").unwrap();
    let sax = SaxConfig::new(32, 4, 4);
    let summarizer = SortableSummarizer::new(sax);
    let entries: Vec<_> = walks(32, 64, 7)
        .iter()
        .map(|s| SeriesEntry::from_series(s, s.id, &summarizer, true))
        .collect();
    let file = SortedSeriesFile::build_unsorted(
        dir.file("part.run"),
        EntryLayout::materialized(sax.key_bits(), sax.series_len),
        sax,
        entries,
        16,
        IoStats::shared(),
        1024,
        IoBackend::Mmap,
    )
    .unwrap();
    let reader_handle = file.run().clone();
    // A materialized partition keeps its values in a `.tail` file with a
    // mapping of its own: a read of the values alone maps that file ...
    let _ = reader_handle.read_tails_raw(0, 16).unwrap();
    assert!(
        file.is_mapped(),
        "a mapped tail read must map the tail file"
    );
    // ... and a block read through the mmap backend maps the heads too.
    let _ = reader_handle.read_range(0, 16).unwrap();
    assert!(file.is_mapped(), "a mapped read must create the mapping");
    let paths: Vec<_> = file.run().paths().map(|p| p.to_path_buf()).collect();
    assert_eq!(paths.len(), 2, "heads file and tail file");
    file.delete().unwrap();
    assert!(
        !reader_handle.is_mapped(),
        "delete must drop both mappings before the unlink"
    );
    assert!(
        paths.iter().all(|p| !p.exists()),
        "the partition's files must be gone"
    );

    // End-to-end: a compacting CLSM on the mmap backend — inputs of every
    // compaction are deleted while queries keep mapping the survivors — must
    // agree with the pread build query for query.
    let series = walks(64, 1500, 4711);
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
        let (a, ca) = trees[0]
            .knn(&q.values, 4, true, &CancelToken::never())
            .unwrap();
        let (b, cb) = trees[1]
            .knn(&q.values, 4, true, &CancelToken::never())
            .unwrap();
        assert_eq!(a, b, "post-compaction answers must match");
        assert_eq!(ca, cb, "post-compaction costs must match");
    }
}
