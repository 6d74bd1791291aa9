//! E17 — scale tier: kernel backends at real dataset sizes.
//!
//! The kernel-dispatch PR claims two things: the explicit SIMD backends are
//! **faster**, and they are **bit-identical** to scalar all the way through
//! the engine.  This bench measures the first claim and re-verifies the
//! second at the largest sizes the suite runs, per backend:
//!
//! * **kernel microbench** — raw distance / z-norm-sum throughput (GiB/s)
//!   per backend on resident buffers, plus the speedup over scalar;
//! * **build-throughput curve** — CoconutTree bulk-load series/s over
//!   geometric dataset-size steps, asserting the leaf files are
//!   byte-identical across backends at every step;
//! * **query latencies** — per backend, a **cold** pass (page cache dropped
//!   via `posix_fadvise(DONTNEED)` where the platform permits — the report
//!   records whether the hint was delivered) and **warm** passes, reporting
//!   p50 / p95 / p99 per-query latency, with answers, `QueryCost`s and
//!   query-phase `IoStats` cross-checked against the scalar reference.
//!
//! Sizes: the default is a CI-friendly smoke tier (20 000 series x 256).
//! `PALM_SCALE_FULL=1` selects the full tier (1 000 000 series x 256,
//! multi-GiB on disk), and `PALM_SCALE_SERIES` overrides the series count
//! directly (tested up to 10 000 000).  `COCONUT_SCALE` multiplies the
//! count; `COCONUT_IO_BACKEND` sets the builds' `io_backend`.
//!
//! Writes `BENCH_scale.json`.  Speed numbers are reported, never asserted;
//! any **identity** mismatch makes the binary exit non-zero.  The same
//! identities are pinned at test size by `kernel_equivalence.rs` and the
//! differential suite's `every_kernel_backend_matches_scalar`.

use std::sync::Arc;
use std::time::Instant;

use coconut_bench::{f2, print_table, scale, Workbench};
use coconut_core::{
    CancelToken, Dataset, IndexConfig, IoStatsSnapshot, QueryCost, SharedIoStats, StaticIndex,
    VariantKind,
};
use coconut_ctree::kernels::{self, KernelBackend};
use coconut_json::{Json, ToJson};
use coconut_storage::drop_page_cache;

/// Series count: smoke tier by default, `PALM_SCALE_FULL=1` for the full
/// million-series tier, `PALM_SCALE_SERIES` for an explicit count.
fn series_count() -> (usize, bool) {
    let full = std::env::var("PALM_SCALE_FULL").is_ok_and(|v| v.trim() == "1");
    let n = std::env::var("PALM_SCALE_SERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full { 1_000_000 } else { 20_000 });
    (n.max(1000) * scale(), full)
}

/// Read backend from `COCONUT_IO_BACKEND` (`pread`, the default, or
/// `mmap`).
fn io_backend() -> coconut_core::IoBackend {
    std::env::var("COCONUT_IO_BACKEND")
        .ok()
        .map(|v| {
            v.parse()
                .expect("COCONUT_IO_BACKEND must be 'pread' or 'mmap'")
        })
        .unwrap_or_default()
}

/// p-th percentile (nearest-rank on the sorted copy) of per-query millis.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Raw kernel throughput of one backend: GiB/s over the distance and
/// z-norm-sum kernels on resident buffers, plus the bit-pattern of the
/// accumulated results (the identity check rides along with the timing).
fn microbench(backend: KernelBackend, pool: &[Vec<f32>], reps: usize) -> (f64, f64, u64) {
    let len = pool[0].len();
    let mut acc = 0.0f64;
    let start = Instant::now();
    for _ in 0..reps {
        for pair in pool.chunks_exact(2) {
            acc += kernels::squared_euclidean_with(backend, &pair[0], &pair[1]);
        }
    }
    let dist_s = start.elapsed().as_secs_f64();
    let dist_bytes = (reps * (pool.len() / 2) * 2 * len * 4) as f64;

    let start = Instant::now();
    for _ in 0..reps {
        for series in pool {
            acc += kernels::sum_with(backend, series);
        }
    }
    let sum_s = start.elapsed().as_secs_f64();
    let sum_bytes = (reps * pool.len() * len * 4) as f64;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    (
        dist_bytes / dist_s / GIB,
        sum_bytes / sum_s / GIB,
        acc.to_bits(),
    )
}

struct QueryOutcome {
    cold_hint_delivered: bool,
    cold: Vec<f64>,
    warm: Vec<f64>,
    answers: Vec<Vec<(u64, f64)>>,
    costs: Vec<QueryCost>,
    query_io: IoStatsSnapshot,
}

/// Drops the page cache under `dir` (best effort) and runs the workload
/// cold then warm, recording per-query latencies and identity material.
fn query_phase(
    index: &StaticIndex,
    stats: &SharedIoStats,
    dir: &std::path::Path,
    wb: &Workbench,
    k: usize,
) -> QueryOutcome {
    let mut delivered = true;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                delivered &= drop_page_cache(&path);
            }
        }
    }

    let per_query = |_: usize| {
        let mut lat = Vec::with_capacity(wb.queries.len());
        for q in &wb.queries.queries {
            let start = Instant::now();
            let _ = index
                .knn(&q.values, k, true, &CancelToken::never())
                .expect("query");
            lat.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        lat
    };
    let cold = per_query(0);
    // Warm: everything resident after the cold pass; best of three passes
    // per query position.
    let mut warm = per_query(1);
    for rep in 2..4 {
        for (slot, ms) in warm.iter_mut().zip(per_query(rep)) {
            *slot = slot.min(ms);
        }
    }

    let io_before = stats.snapshot();
    let mut answers = Vec::new();
    let mut costs = Vec::new();
    for q in &wb.queries.queries {
        let (nn, cost) = index
            .knn(&q.values, k, true, &CancelToken::never())
            .expect("query");
        answers.push(
            nn.iter()
                .map(|n| (n.id, n.squared_distance))
                .collect::<Vec<_>>(),
        );
        costs.push(cost);
    }
    let query_io = stats.snapshot().since(&io_before);
    QueryOutcome {
        cold_hint_delivered: delivered,
        cold,
        warm,
        answers,
        costs,
        query_io,
    }
}

fn main() {
    let (n, full) = series_count();
    let len = 256;
    let q = 100;
    let k = 10;
    let configured_io = io_backend();
    let backends = KernelBackend::available_backends();
    let initial = kernels::active_backend();

    println!(
        "E17 scale tier: {n} series x {len} ({}), backends: {}",
        if full { "full" } else { "smoke" },
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(" ")
    );

    let wb = Workbench::random_walk("e17", n, len, q, 17);

    // ---- kernel microbench ---------------------------------------------
    let pool: Vec<Vec<f32>> = wb
        .series
        .iter()
        .take(512)
        .map(|s| s.values.clone())
        .collect();
    let reps = if full { 200 } else { 50 };
    let micro: Vec<(KernelBackend, f64, f64, u64)> = backends
        .iter()
        .map(|&b| {
            let (dist, sums, bits) = microbench(b, &pool, reps);
            (b, dist, sums, bits)
        })
        .collect();
    let identical_micro_bits = micro.iter().all(|(_, _, _, bits)| *bits == micro[0].3);
    let scalar_dist = micro[0].1;
    print_table(
        "E17: kernel throughput (resident buffers)",
        &["backend", "dist_GiB/s", "sum_GiB/s", "speedup_vs_scalar"],
        &micro
            .iter()
            .map(|(b, dist, sums, _)| {
                vec![
                    b.name().to_string(),
                    f2(*dist),
                    f2(*sums),
                    format!("x{}", f2(dist / scalar_dist)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ---- build-throughput curve ----------------------------------------
    // Geometric size steps ending at the full dataset; every step builds
    // once per backend and the leaf files must agree byte for byte.
    let steps: Vec<usize> = [n / 4, n / 2, n]
        .into_iter()
        .filter(|s| *s >= 1000)
        .collect();
    let mut curve_rows = Vec::new();
    let mut curve_json = Vec::new();
    let mut identical_files = true;
    let mut largest: Vec<(
        KernelBackend,
        StaticIndex,
        SharedIoStats,
        std::path::PathBuf,
    )> = Vec::new();
    for &step in &steps {
        // An id-window view of the one raw file: no duplicated raw bytes.
        let dataset = Dataset::open_range(wb.dataset.path(), 0, step as u64).expect("dataset");
        let mut reference_leaves: Option<Vec<u8>> = None;
        for &backend in &backends {
            kernels::force_backend(backend);
            let config = IndexConfig::new(VariantKind::CTree, len)
                .materialized(true)
                .with_memory_budget(64 << 20)
                .with_io_backend(configured_io);
            let dir = wb.dir.file(&format!("ctree-{step}-{backend}"));
            let stats = wb.stats();
            let start = Instant::now();
            let (index, _report) =
                StaticIndex::build(&dataset, config, &dir, Arc::clone(&stats)).expect("build");
            let build_s = start.elapsed().as_secs_f64();
            let leaves = std::fs::read(dir.join("ctree-leaves.run")).expect("leaf file");
            match &reference_leaves {
                None => reference_leaves = Some(leaves),
                Some(reference) => identical_files &= *reference == leaves,
            }
            let throughput = step as f64 / build_s;
            curve_rows.push(vec![
                step.to_string(),
                backend.name().to_string(),
                f2(build_s * 1000.0),
                f2(throughput),
            ]);
            curve_json.push(Json::obj(vec![
                ("series", step.to_json()),
                ("kernel_backend", backend.name().to_json()),
                ("build_ms", (build_s * 1000.0).to_json()),
                ("series_per_sec", throughput.to_json()),
            ]));
            if step == *steps.last().unwrap() {
                largest.push((backend, index, stats, dir));
            }
        }
    }
    print_table(
        "E17: build throughput curve",
        &["series", "backend", "build_ms", "series/s"],
        &curve_rows,
    );

    // ---- query latencies: cold (fadvise-dropped) and warm --------------
    let mut latency_rows = Vec::new();
    let mut query_json = Vec::new();
    let mut outcomes = Vec::new();
    for (backend, index, stats, dir) in &largest {
        kernels::force_backend(*backend);
        let outcome = query_phase(index, stats, dir, &wb, k);
        let mut cold = outcome.cold.clone();
        let mut warm = outcome.warm.clone();
        cold.sort_by(f64::total_cmp);
        warm.sort_by(f64::total_cmp);
        latency_rows.push(vec![
            backend.name().to_string(),
            if outcome.cold_hint_delivered {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            f2(percentile(&cold, 50.0)),
            f2(percentile(&cold, 95.0)),
            f2(percentile(&cold, 99.0)),
            f2(percentile(&warm, 50.0)),
            f2(percentile(&warm, 95.0)),
            f2(percentile(&warm, 99.0)),
        ]);
        query_json.push(Json::obj(vec![
            ("kernel_backend", backend.name().to_json()),
            ("cold_hint_delivered", outcome.cold_hint_delivered.to_json()),
            ("cold_p50_ms", percentile(&cold, 50.0).to_json()),
            ("cold_p95_ms", percentile(&cold, 95.0).to_json()),
            ("cold_p99_ms", percentile(&cold, 99.0).to_json()),
            ("warm_p50_ms", percentile(&warm, 50.0).to_json()),
            ("warm_p95_ms", percentile(&warm, 95.0).to_json()),
            ("warm_p99_ms", percentile(&warm, 99.0).to_json()),
            ("query_io", outcome.query_io.to_json()),
        ]));
        outcomes.push((*backend, outcome));
    }
    kernels::force_backend(initial);
    print_table(
        &format!(
            "E17: exact 10-NN latency per kernel backend, {} series",
            steps.last().unwrap()
        ),
        &[
            "backend",
            "cold_drop",
            "c_p50",
            "c_p95",
            "c_p99",
            "w_p50",
            "w_p95",
            "w_p99",
        ],
        &latency_rows,
    );

    let reference = &outcomes[0].1;
    let identical_answers = outcomes.iter().all(|(_, o)| o.answers == reference.answers);
    let identical_costs = outcomes.iter().all(|(_, o)| o.costs == reference.costs);
    let identical_query_io = outcomes
        .iter()
        .all(|(_, o)| o.query_io == reference.query_io);

    println!(
        "\nkernel results bit-identical across backends: {identical_micro_bits}\n\
         leaf files byte-identical across backends:    {identical_files}\n\
         exact kNN answers identical:                  {identical_answers}\n\
         QueryCost counters identical:                 {identical_costs}\n\
         query IoStats identical:                      {identical_query_io}"
    );

    let report = Json::obj(vec![
        ("experiment", "e17_scale".to_json()),
        ("full_tier", full.to_json()),
        ("series", n.to_json()),
        ("series_len", len.to_json()),
        ("queries", q.to_json()),
        ("k", k.to_json()),
        ("configured_io_backend", configured_io.to_json()),
        (
            "kernel_backends",
            Json::Arr(
                micro
                    .iter()
                    .map(|(b, dist, sums, _)| {
                        Json::obj(vec![
                            ("kernel_backend", b.name().to_json()),
                            ("distance_gib_per_sec", dist.to_json()),
                            ("sum_gib_per_sec", sums.to_json()),
                            ("speedup_vs_scalar", (dist / scalar_dist).to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("build_curve", Json::Arr(curve_json)),
        ("query_latency", Json::Arr(query_json)),
        ("identical_kernel_bits", identical_micro_bits.to_json()),
        ("identical_index_files", identical_files.to_json()),
        ("identical_query_answers", identical_answers.to_json()),
        ("identical_query_costs", identical_costs.to_json()),
        ("identical_query_iostats", identical_query_io.to_json()),
    ]);
    std::fs::write("BENCH_scale.json", report.to_string_pretty()).expect("write report");
    println!("\nwrote BENCH_scale.json");

    assert!(
        identical_micro_bits,
        "kernel backends must produce bit-identical sums"
    );
    assert!(identical_files, "builds must be byte-identical per backend");
    assert!(identical_answers, "answers must not depend on the backend");
    assert!(identical_costs, "QueryCosts must not depend on the backend");
    assert!(identical_query_io, "IoStats must not depend on the backend");
}
