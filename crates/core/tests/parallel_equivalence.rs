//! Parallel/sequential equivalence of the whole build pipeline.
//!
//! The tentpole guarantee of the multi-core pipeline is that `parallelism`
//! is a *pure* performance knob: for every variant the on-disk index is
//! byte-identical and every query answer is identical at any worker count.
//! These tests build each index at `parallelism = 1` and `parallelism = 8`
//! (well above this machine's core count, which is legal) and compare both.

use coconut_core::{
    streaming_index, IndexConfig, IoStats, ScratchDir, StaticIndex, StreamingConfig, VariantKind,
    WindowScheme,
};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;

fn build_at(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    parallelism: usize,
) -> (StaticIndex, std::path::PathBuf) {
    let config = IndexConfig::new(variant, 64)
        .materialized(true)
        .with_memory_budget(1 << 20)
        .with_parallelism(parallelism);
    let subdir = dir.file(&format!("{}-p{parallelism}", variant.name()));
    let (index, _report) =
        StaticIndex::build(dataset, config, &subdir, IoStats::shared()).expect("build");
    (index, subdir)
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

#[test]
fn ctree_parallel_build_is_byte_identical_and_answers_match() {
    let dir = ScratchDir::new("par-eq-ctree").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 321);
    let series = gen.generate(3000);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();

    let (seq, seq_dir) = build_at(&dir, &dataset, VariantKind::CTree, 1);
    let (par, par_dir) = build_at(&dir, &dataset, VariantKind::CTree, 8);

    // Every file of the index directory must match byte-for-byte (the
    // external-sort scratch runs are deleted; what remains is the index).
    let seq_files = dir_contents(&seq_dir);
    let par_files = dir_contents(&par_dir);
    assert_eq!(
        seq_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        par_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same file set"
    );
    for ((name, a), (_, b)) in seq_files.iter().zip(par_files.iter()) {
        assert_eq!(a, b, "file {name} differs between parallelism 1 and 8");
    }

    let mut qgen = RandomWalkGenerator::new(64, 99);
    for _ in 0..10 {
        let q = qgen.next_series();
        let (nn_seq, _) = seq.exact_knn(&q.values, 5).unwrap();
        let (nn_par, _) = par.exact_knn(&q.values, 5).unwrap();
        assert_eq!(nn_seq, nn_par, "exact kNN answers must be identical");
        let (ap_seq, _) = seq.approximate_knn(&q.values, 5).unwrap();
        let (ap_par, _) = par.approximate_knn(&q.values, 5).unwrap();
        assert_eq!(ap_seq, ap_par, "approximate answers must be identical");
    }
}

#[test]
fn clsm_parallel_build_answers_match() {
    let dir = ScratchDir::new("par-eq-clsm").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 654);
    let series = gen.generate(2500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();

    let (seq, seq_dir) = build_at(&dir, &dataset, VariantKind::Clsm, 1);
    let (par, par_dir) = build_at(&dir, &dataset, VariantKind::Clsm, 8);

    // CLSM run files are byte-identical too: flush batches and sort order do
    // not depend on the worker count.
    let seq_files = dir_contents(&seq_dir);
    let par_files = dir_contents(&par_dir);
    assert_eq!(seq_files.len(), par_files.len());
    for ((name, a), (_, b)) in seq_files.iter().zip(par_files.iter()) {
        assert_eq!(a, b, "file {name} differs between parallelism 1 and 8");
    }

    let mut qgen = RandomWalkGenerator::new(64, 7);
    for _ in 0..10 {
        let q = qgen.next_series();
        let (nn_seq, _) = seq.exact_knn(&q.values, 3).unwrap();
        let (nn_par, _) = par.exact_knn(&q.values, 3).unwrap();
        assert_eq!(nn_seq, nn_par);
    }
}

#[test]
fn streaming_btp_parallel_ingest_answers_match() {
    let dir = ScratchDir::new("par-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 31, 0.1);
    let batches: Vec<_> = (0..12).map(|_| gen.next_batch(100)).collect();
    let query = gen.quake_template();

    let mut indexes = Vec::new();
    for parallelism in [1usize, 8] {
        let config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        let mut config = config;
        config.buffer_capacity = 100;
        config.parallelism = parallelism;
        let mut index = streaming_index(
            config,
            &dir.file(&format!("btp-p{parallelism}")),
            IoStats::shared(),
        )
        .unwrap();
        for batch in &batches {
            index.ingest_batch(batch).unwrap();
        }
        indexes.push(index);
    }
    for window in [None, Some((200u64, 700u64))] {
        let a = indexes[0].query_window(&query, 3, window, true).unwrap();
        let b = indexes[1].query_window(&query, 3, window, true).unwrap();
        assert_eq!(a.neighbors, b.neighbors, "window {window:?}");
    }
}
