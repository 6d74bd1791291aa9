//! E18 — prefix-compressed sorted runs and leaf blocks.
//!
//! Builds the same indexes with `compression = off` (the seed's raw record
//! format) and `compression = prefix` (front-coded invSAX keys,
//! delta-varint id/timestamp columns, raw f32 value tails), then:
//!
//! * verifies every exact kNN answer, every `QueryCost` and the *logical*
//!   `IoStats` view are **bit-identical** across the
//!   `{off, prefix} x {CTree, CLSM} x {materialized, non}` grid — the knob
//!   changes how many bytes reach the disk, never what the index computes;
//! * measures the compression ratio on sorted non-materialized invSAX runs
//!   (the paper's summarization keys) and requires **>= 1.5x**;
//! * measures a **cold key-only scan** over a materialized leaf file via
//!   `SortedSeriesFile::scan_keys` and requires the compressed variant to
//!   move **strictly fewer physical bytes** than `off` (the value tail
//!   never leaves the disk);
//! * times the build and a cold query pass (p50/p95/p99 per-query latency)
//!   at either setting and writes the report to `BENCH_compression.json`.
//!
//! Any identity or ratio failure makes the binary exit non-zero — this is
//! the CI smoke check for the compression-equivalence invariant.
//! `COCONUT_SCALE` scales the dataset, `COCONUT_THREADS` the build workers,
//! `COCONUT_IO_BACKEND` the read backend, and `COCONUT_COMPRESSION` selects
//! which setting the report features as the configured default (both are
//! always measured and cross-checked).

use std::sync::Arc;
use std::time::Instant;

use coconut_bench::{compression, f2, io_backend, mib, print_table, scale, threads, Workbench};
use coconut_core::{Compression, IndexConfig, IoStats, IoStatsSnapshot, StaticIndex, VariantKind};
use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::sorted_file::SortedSeriesFile;
use coconut_json::{Json, ToJson};
use coconut_sax::{SaxConfig, SortableSummarizer};

struct VariantOutcome {
    label: String,
    compression: Compression,
    build_ms: f64,
    entries: u64,
    footprint: u64,
    cold_p50: f64,
    cold_p95: f64,
    cold_p99: f64,
    build_io: IoStatsSnapshot,
    query_io: IoStatsSnapshot,
    answers: Vec<Vec<(u64, f64)>>,
    costs: Vec<coconut_core::QueryCost>,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn run_variant(
    wb: &Workbench,
    variant: VariantKind,
    materialized: bool,
    compression: Compression,
    parallelism: usize,
    budget: usize,
    k: usize,
) -> VariantOutcome {
    let label = format!(
        "{}{}",
        variant.name(),
        if materialized { "Full" } else { "" }
    );
    let config = IndexConfig::new(variant, wb.series[0].values.len())
        .materialized(materialized)
        .with_memory_budget(budget)
        .with_parallelism(parallelism)
        .with_io_backend(io_backend())
        .with_compression(compression);
    let stats = wb.stats();
    let dir = wb.dir.file(&format!("{label}-{compression}"));
    let start = Instant::now();
    let (index, report) =
        StaticIndex::build(&wb.dataset, config, &dir, Arc::clone(&stats)).expect("build");
    let build_ms = start.elapsed().as_secs_f64() * 1000.0;
    let build_io = stats.snapshot();

    // Cold pass: first queries against the fresh index, timed per query for
    // the latency percentiles; simultaneously the identity material.
    let io_before = stats.snapshot();
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut costs = Vec::new();
    for q in &wb.queries.queries {
        let qs = Instant::now();
        let (nn, cost) = index.exact_knn(&q.values, k).expect("query");
        latencies.push(qs.elapsed().as_secs_f64() * 1000.0);
        answers.push(
            nn.iter()
                .map(|n| (n.id, n.squared_distance))
                .collect::<Vec<_>>(),
        );
        costs.push(cost);
    }
    let query_io = stats.snapshot().since(&io_before);
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());

    VariantOutcome {
        label,
        compression,
        build_ms,
        entries: report.entries,
        footprint: index.footprint_bytes(),
        cold_p50: percentile(&latencies, 0.50),
        cold_p95: percentile(&latencies, 0.95),
        cold_p99: percentile(&latencies, 0.99),
        build_io,
        query_io,
        answers,
        costs,
    }
}

/// Builds the same materialized sorted leaf file at either setting and runs
/// a chunked cold key-only scan over it; returns
/// `(off_physical, prefix_physical, identical_keys)`.
fn key_scan_check(wb: &Workbench, parallelism: usize) -> (u64, u64, bool) {
    let series_len = wb.series[0].values.len();
    let sax = SaxConfig::paper_default(series_len);
    let summarizer = SortableSummarizer::new(sax);
    let entries: Vec<SeriesEntry> = wb
        .series
        .iter()
        .map(|s| SeriesEntry::from_series(s, 0, &summarizer, true))
        .collect();
    let layout = EntryLayout::materialized(sax.key_bits(), series_len);
    let mut physical = Vec::new();
    let mut keys = Vec::new();
    for compression in [Compression::Off, Compression::Prefix] {
        let stats = IoStats::shared();
        let file = SortedSeriesFile::build_unsorted(
            wb.dir.file(&format!("keyscan-{compression}.run")),
            layout,
            sax,
            entries.clone(),
            64,
            Arc::clone(&stats),
            coconut_storage::DEFAULT_PAGE_SIZE,
            parallelism,
            io_backend(),
            compression,
        )
        .expect("leaf build");
        let before = stats.snapshot();
        let mut scanned = Vec::with_capacity(entries.len());
        let mut at = 0u64;
        while at < file.len() {
            let chunk = file.scan_keys(at, 2048).expect("key scan");
            at += chunk.len() as u64;
            scanned.extend(chunk);
        }
        physical.push(stats.snapshot().since(&before).physical_bytes_read);
        keys.push(scanned);
    }
    (physical[0], physical[1], keys[0] == keys[1])
}

fn main() {
    let n = 8_000 * scale();
    let len = 64;
    let q = 25;
    let k = 5;
    // Small enough that the CTree external sort spills and the CLSM runs
    // several compactions: every compressed code path is exercised.
    let budget = 1 << 20;
    let n_threads = threads();
    let configured = compression();
    let wb = Workbench::random_walk("e18", n, len, q, 18);

    let grid = [
        (VariantKind::CTree, false),
        (VariantKind::CTree, true),
        (VariantKind::Clsm, false),
        (VariantKind::Clsm, true),
    ];
    let mut rows = Vec::new();
    let mut report_runs = Vec::new();
    let mut identical_answers = true;
    let mut identical_costs = true;
    let mut identical_logical_io = true;
    let mut smaller_footprints = true;
    let mut key_ratio = 0.0f64;
    for (variant, materialized) in grid {
        let off = run_variant(
            &wb,
            variant,
            materialized,
            Compression::Off,
            n_threads,
            budget,
            k,
        );
        let prefix = run_variant(
            &wb,
            variant,
            materialized,
            Compression::Prefix,
            n_threads,
            budget,
            k,
        );
        identical_answers &= off.answers == prefix.answers;
        identical_costs &= off.costs == prefix.costs;
        identical_logical_io &= off.build_io.logical() == prefix.build_io.logical()
            && off.query_io.logical() == prefix.query_io.logical();
        smaller_footprints &= prefix.footprint < off.footprint;
        let ratio = off.footprint as f64 / prefix.footprint as f64;
        if variant == VariantKind::CTree && !materialized {
            // The paper's summarization keys: sorted non-materialized
            // invSAX runs are where front-coding earns its keep.
            key_ratio = ratio;
        }
        for o in [&off, &prefix] {
            rows.push(vec![
                o.label.clone(),
                o.compression.to_string(),
                f2(o.build_ms),
                mib(o.footprint),
                f2(ratio),
                f2(o.cold_p50),
                f2(o.cold_p95),
                f2(o.cold_p99),
            ]);
            report_runs.push(Json::obj(vec![
                ("variant", o.label.to_json()),
                ("compression", o.compression.to_json()),
                ("build_ms", o.build_ms.to_json()),
                (
                    "build_entries_per_sec",
                    (o.entries as f64 / (o.build_ms / 1000.0)).to_json(),
                ),
                ("footprint_bytes", o.footprint.to_json()),
                ("cold_p50_ms", o.cold_p50.to_json()),
                ("cold_p95_ms", o.cold_p95.to_json()),
                ("cold_p99_ms", o.cold_p99.to_json()),
                ("build_io", o.build_io.to_json()),
                ("query_io", o.query_io.to_json()),
            ]));
        }
    }

    let (scan_off_physical, scan_prefix_physical, scan_keys_identical) =
        key_scan_check(&wb, n_threads);

    print_table(
        &format!("E18: prefix compression, {n} series x {len}, {n_threads} threads"),
        &[
            "variant", "comp", "build_ms", "MiB", "ratio", "p50", "p95", "p99",
        ],
        &rows,
    );
    println!(
        "\nconfigured compression (COCONUT_COMPRESSION): {configured}\n\
         invSAX key-run compression ratio:             x{}\n\
         exact kNN answers identical off vs prefix:    {identical_answers}\n\
         QueryCost counters identical:                 {identical_costs}\n\
         logical IoStats identical:                    {identical_logical_io}\n\
         compressed footprints strictly smaller:       {smaller_footprints}\n\
         cold key-only scan physical bytes off/prefix: {scan_off_physical}/{scan_prefix_physical}\n\
         key-only scan keys identical:                 {scan_keys_identical}",
        f2(key_ratio)
    );

    let report = Json::obj(vec![
        ("experiment", "e18_compression".to_json()),
        ("series", n.to_json()),
        ("series_len", len.to_json()),
        ("budget_bytes", budget.to_json()),
        ("queries", q.to_json()),
        ("k", k.to_json()),
        ("threads", n_threads.to_json()),
        ("configured_compression", configured.to_json()),
        ("runs", Json::Arr(report_runs)),
        ("invsax_key_run_ratio", key_ratio.to_json()),
        ("key_scan_physical_bytes_off", scan_off_physical.to_json()),
        (
            "key_scan_physical_bytes_prefix",
            scan_prefix_physical.to_json(),
        ),
        ("identical_query_answers", identical_answers.to_json()),
        ("identical_query_costs", identical_costs.to_json()),
        ("identical_logical_iostats", identical_logical_io.to_json()),
        ("smaller_footprints", smaller_footprints.to_json()),
    ]);
    std::fs::write("BENCH_compression.json", report.to_string_pretty()).expect("write report");
    println!("\nwrote BENCH_compression.json");

    assert!(identical_answers, "answers must be knob-invariant");
    assert!(identical_costs, "QueryCost must be knob-invariant");
    assert!(
        identical_logical_io,
        "the logical IoStats view must be knob-invariant"
    );
    assert!(
        smaller_footprints,
        "compressed indexes must occupy fewer bytes on disk"
    );
    assert!(
        key_ratio >= 1.5,
        "sorted invSAX key runs must compress by at least 1.5x (got x{key_ratio:.2})"
    );
    assert!(scan_keys_identical, "key-only scans must agree");
    assert!(
        scan_prefix_physical < scan_off_physical,
        "a cold key-only scan over a compressed leaf file must read strictly \
         fewer physical bytes ({scan_prefix_physical} vs {scan_off_physical})"
    );
}
