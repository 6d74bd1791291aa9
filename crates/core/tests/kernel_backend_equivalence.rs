//! Kernel-backend equivalence of the whole engine, end to end.
//!
//! `crates/series/tests/kernel_equivalence.rs` proves the raw kernels are
//! bit-identical across backends; this test re-proves it where it matters:
//! a full index build + query run per backend must produce byte-identical
//! index files, identical kNN answers (exact and approximate), identical
//! `QueryCost`s and identical `IoStats` totals — the same discipline the
//! `parallelism` / `io_overlap` / `io_backend` knobs are held to.
//!
//! `force_backend` pins a process-wide atomic, so everything runs inside
//! one sequential `#[test]` (Rust runs tests in one process on many
//! threads; two tests pinning different backends would race).

use coconut_core::{IndexConfig, IoStats, IoStatsSnapshot, ScratchDir, StaticIndex, VariantKind};
use coconut_ctree::kernels::{active_backend, force_backend, KernelBackend};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::Dataset;

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

/// Everything a build + query run observably produces under one backend.
struct Outcome {
    files: Vec<(String, Vec<u8>)>,
    build_io: IoStatsSnapshot,
    answers: Vec<String>,
}

fn run_variant(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    backend: KernelBackend,
) -> Outcome {
    force_backend(backend);
    let config = IndexConfig::new(variant, 64)
        .materialized(true)
        .with_memory_budget(128 << 10)
        .with_shard_count(if variant == VariantKind::Clsm { 2 } else { 1 });
    let subdir = dir.file(&format!("{}-{}", variant.name(), backend));
    let stats = IoStats::shared();
    let (index, _report) =
        StaticIndex::build(dataset, config, &subdir, std::sync::Arc::clone(&stats)).expect("build");
    let files = dir_contents(&subdir);
    let build_io = stats.snapshot();

    let mut answers = Vec::new();
    let mut qgen = RandomWalkGenerator::new(64, 20626);
    for _ in 0..8 {
        let q = qgen.next_series();
        let (nn, cost) = index.knn(&q.values, 5, true).expect("exact");
        answers.push(format!("exact {nn:?} {cost:?}"));
        let (ap, ap_cost) = index.knn(&q.values, 5, false).expect("approx");
        answers.push(format!("approx {ap:?} {ap_cost:?}"));
    }
    Outcome {
        files,
        build_io,
        answers,
    }
}

/// One sequential test over the whole grid: every available SIMD backend
/// must match the scalar reference on files, I/O totals, answers and costs
/// for both static variants.
#[test]
fn all_backends_build_and_query_identically() {
    let initial = active_backend();
    let dir = ScratchDir::new("kernel-be-eq").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 2024);
    let series = gen.generate(1500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();

    for variant in [VariantKind::CTree, VariantKind::Clsm] {
        let reference = run_variant(&dir, &dataset, variant, KernelBackend::Scalar);
        for backend in KernelBackend::available_backends() {
            if backend == KernelBackend::Scalar {
                continue;
            }
            let got = run_variant(&dir, &dataset, variant, backend);
            assert_eq!(
                reference.files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                got.files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                "{variant:?}: same file set under {backend}"
            );
            for ((name, a), (_, b)) in reference.files.iter().zip(got.files.iter()) {
                assert_eq!(
                    a, b,
                    "{variant:?}: index file {name} differs between scalar and {backend}"
                );
            }
            assert_eq!(
                reference.build_io, got.build_io,
                "{variant:?}: build IoStats totals differ under {backend}"
            );
            assert_eq!(
                reference.answers, got.answers,
                "{variant:?}: answers / QueryCosts differ under {backend}"
            );
        }
    }
    force_backend(initial);
}
