//! E10 — Concurrent query engine scaling.
//!
//! Builds one CLSM index (unsharded and sharded-compaction variants) and
//! runs the same exact-kNN workload at `query_parallelism = 1` and
//! `query_parallelism = N` (`N` from `COCONUT_THREADS`, default: all
//! cores), then:
//!
//! * verifies every answer (ids, distances, tie order) **and every
//!   `QueryCost`** is identical between the two settings — the fan-out must
//!   be a pure speedup, never a different query;
//! * verifies the sequential and parallel trees are built byte-identically
//!   (the knob must not leak into the build);
//! * reports mean exact/approximate query latency and the effective
//!   speedup;
//! * writes the machine-readable report to `BENCH_query_parallel.json`.
//!
//! On a single-core machine both configurations degenerate to the same
//! sequential code path, so the speedup column reads ~1.0 by construction.

use std::sync::Arc;
use std::time::Instant;

use coconut_bench::{f2, print_table, scale, threads, Workbench};
use coconut_core::{IndexConfig, StaticIndex, VariantKind};
use coconut_json::{Json, ToJson};

struct QueryOutcome {
    query_parallelism: usize,
    exact_ms: f64,
    approx_ms: f64,
    answers: Vec<Vec<(u64, f64)>>,
    costs: Vec<Vec<u64>>,
}

fn run_queries(
    index: &StaticIndex,
    wb: &Workbench,
    k: usize,
    query_parallelism: usize,
) -> QueryOutcome {
    let mut answers = Vec::new();
    let mut costs = Vec::new();
    let exact_start = Instant::now();
    for q in &wb.queries.queries {
        let (nn, cost) = index.exact_knn(&q.values, k).expect("exact query");
        answers.push(nn.iter().map(|n| (n.id, n.squared_distance)).collect());
        costs.push(vec![
            cost.entries_examined,
            cost.entries_refined,
            cost.raw_fetches,
            cost.blocks_read,
            cost.blocks_skipped,
        ]);
    }
    let exact_ms = exact_start.elapsed().as_secs_f64() * 1000.0 / wb.queries.queries.len() as f64;
    let approx_start = Instant::now();
    for q in &wb.queries.queries {
        index.approximate_knn(&q.values, k).expect("approx query");
    }
    let approx_ms = approx_start.elapsed().as_secs_f64() * 1000.0 / wb.queries.queries.len() as f64;
    QueryOutcome {
        query_parallelism,
        exact_ms,
        approx_ms,
        answers,
        costs,
    }
}

fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    // Merged-away runs are unlinked off-thread: list what is left after.
    coconut_storage::durability::drain().expect("durability barrier");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.is_file().then(|| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).expect("read file"),
                )
            })
        })
        .collect();
    out.sort();
    out
}

fn main() {
    let n = 20_000 * scale();
    let len = 128;
    let q = 20;
    let k = 5;
    let n_threads = threads();
    let wb = Workbench::random_walk("e10", n, len, q, 10);

    let mut rows = Vec::new();
    let mut report_runs = Vec::new();
    let mut identical_answers = true;
    let mut identical_costs = true;
    let mut identical_files = true;
    let mut speedups = Vec::new();

    // Small buffers force a deep run/shard structure (>= 4 units to fan
    // out over); the sharded variant splits big compacted runs further.
    for (label, shards) in [("CLSM", 1usize), ("CLSM/sharded", 4)] {
        let mut outcomes = Vec::new();
        let mut dirs = Vec::new();
        for query_parallelism in [1usize, n_threads] {
            let mut config = IndexConfig::new(VariantKind::Clsm, len)
                .materialized(true)
                .with_memory_budget(1 << 19)
                .with_shard_count(shards)
                .with_parallelism(n_threads)
                .with_query_parallelism(query_parallelism)
                .with_io_backend(coconut_bench::io_backend());
            // A lazy growth factor keeps >= 4 runs alive at this scale, so
            // the query fan-out has real breadth to exploit.
            config.growth_factor = 8;
            let dir = wb.dir.file(&format!("{label}-q{query_parallelism}"));
            let (index, _) = StaticIndex::build(&wb.dataset, config, &dir, Arc::clone(&wb.stats()))
                .expect("build");
            if let StaticIndex::Clsm(tree) = &index {
                assert!(
                    tree.num_shards() >= 4,
                    "workload must produce >= 4 fan-out units, got {}",
                    tree.num_shards()
                );
            }
            outcomes.push(run_queries(&index, &wb, k, query_parallelism));
            dirs.push(dir);
        }
        identical_answers &= outcomes[0].answers == outcomes[1].answers;
        identical_costs &= outcomes[0].costs == outcomes[1].costs;
        identical_files &= dir_bytes(&dirs[0]) == dir_bytes(&dirs[1]);
        let speedup = outcomes[0].exact_ms / outcomes[1].exact_ms;
        speedups.push(speedup);

        for outcome in &outcomes {
            rows.push(vec![
                label.to_string(),
                outcome.query_parallelism.to_string(),
                f2(outcome.exact_ms),
                f2(outcome.approx_ms),
            ]);
            report_runs.push(Json::obj(vec![
                ("variant", label.to_json()),
                ("query_parallelism", outcome.query_parallelism.to_json()),
                ("mean_exact_query_ms", outcome.exact_ms.to_json()),
                ("mean_approx_query_ms", outcome.approx_ms.to_json()),
            ]));
        }
        rows.push(vec![
            label.to_string(),
            format!("x{}", f2(speedup)),
            String::new(),
            String::new(),
        ]);
    }

    print_table(
        &format!("E10: exact-kNN query scaling, {n} series x {len}, 1 vs {n_threads} workers"),
        &["variant", "workers", "exact_ms", "approx_ms"],
        &rows,
    );
    println!(
        "\nanswers identical across worker counts: {identical_answers}\n\
         costs identical across worker counts:   {identical_costs}\n\
         index files identical across configs:   {identical_files}"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if n_threads == 1 {
        println!("note: single worker requested; both configurations ran the sequential path.");
    } else if cores == 1 {
        println!(
            "note: only one core available; {n_threads} workers time-slice it, \
             so the speedup column measures pure threading overhead."
        );
    }

    let report = Json::obj(vec![
        ("experiment", "e10_query_scaling".to_json()),
        ("series", n.to_json()),
        ("series_len", len.to_json()),
        ("queries", q.to_json()),
        ("k", k.to_json()),
        ("threads", n_threads.to_json()),
        ("runs", Json::Arr(report_runs)),
        (
            "clsm_exact_speedup",
            speedups.first().copied().unwrap_or(1.0).to_json(),
        ),
        (
            "clsm_sharded_exact_speedup",
            speedups.get(1).copied().unwrap_or(1.0).to_json(),
        ),
        ("identical_query_answers", identical_answers.to_json()),
        ("identical_query_costs", identical_costs.to_json()),
        ("identical_index_files", identical_files.to_json()),
    ]);
    std::fs::write("BENCH_query_parallel.json", report.to_string_pretty()).expect("write report");
    println!("\nwrote BENCH_query_parallel.json");

    assert!(
        identical_answers,
        "parallel queries must answer identically"
    );
    assert!(identical_costs, "parallel queries must cost identically");
    assert!(
        identical_files,
        "query_parallelism must not change the build"
    );
    // The speedup expectation only makes sense when the hardware can
    // actually run workers side by side; on a single core extra workers
    // time-slice it and measure nothing but threading overhead.
    if n_threads >= 2 && cores >= 2 {
        let best = speedups.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            best > 1.0,
            "multi-core exact kNN should show an effective speedup, best x{best:.2}"
        );
    }
}
