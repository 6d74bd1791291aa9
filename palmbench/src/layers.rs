//! Per-layer numbers that do not depend on the workload: fixed-count loops
//! over each crate's public functions, on inputs from a fixed seed.  Every
//! loop is run five times and the fastest kept, like every other timing.

use std::path::Path;
use std::time::Instant;

use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{recommend, IoStats, SaxConfig, Scenario, Series};
use coconut_ctree::{EntryLayout, SeriesEntry};
use coconut_json::{FromJson, Json, ToJson};
use coconut_sax::{mindist_paa_sax_sq, SortableSummarizer};
use coconut_storage::DynExternalSorter;

use crate::gen::{self, Rng};
use crate::spec::{K, LEN};
use crate::wire;

/// Series in the micro loops' pool: 1 MiB, resident in L2.
const POOL: usize = 1024;
const ROUNDS: usize = 5;

/// Seconds of the fastest of [`ROUNDS`] runs of `f`.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn pool() -> Vec<Series> {
    let flat = gen::random_walks(0x5EED, POOL, LEN);
    flat.chunks(LEN)
        .enumerate()
        .map(|(i, v)| Series::new(i as u64, v.to_vec()))
        .collect()
}

/// `series.*` and `sax.*`: the kernels on the active backend.
fn kernels(out: &mut Vec<(&'static str, f64)>) {
    let pool = pool();
    let query = &pool[0].values;
    let calls = 200 * POOL;
    let secs = fastest(|| {
        let mut acc = 0.0;
        for _ in 0..200 {
            for s in &pool {
                acc += coconut_series::squared_euclidean(query, &s.values);
            }
        }
        std::hint::black_box(acc);
    });
    out.push(("series.dist256_ns", secs * 1e9 / calls as f64));

    let mut scratch: Vec<Vec<f32>> = pool.iter().map(|s| s.values.clone()).collect();
    let secs = fastest(|| {
        for _ in 0..20 {
            for v in scratch.iter_mut() {
                coconut_series::znormalize_in_place(v);
            }
        }
        std::hint::black_box(&scratch);
    });
    out.push(("series.znorm256_ns", secs * 1e9 / (20 * POOL) as f64));

    let sax = SaxConfig::paper_default(LEN);
    let summarizer = SortableSummarizer::new(sax);
    let secs = fastest(|| {
        for _ in 0..10 {
            std::hint::black_box(summarizer.keys_batch(&pool, 1));
        }
    });
    out.push(("sax.key256_ns", secs * 1e9 / (10 * POOL) as f64));

    let words: Vec<_> = pool.iter().map(|s| summarizer.sax(&s.values)).collect();
    let paa = summarizer.paa(query);
    let secs = fastest(|| {
        let mut acc = 0.0;
        for _ in 0..100 {
            for word in &words {
                acc += mindist_paa_sax_sq(&paa, word, &sax, summarizer.breakpoints());
            }
        }
        std::hint::black_box(acc);
    });
    out.push(("sax.mindist_ns", secs * 1e9 / (100 * POOL) as f64));
}

/// `storage.sort_mib_per_s`: the dynamic external sorter on a fixed set of
/// key-only entries at `budget` — the sort a build of that budget runs.
fn sort(dir: &Path, budget: usize, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    const ENTRIES: u64 = 100_000;
    let layout = EntryLayout::non_materialized(SaxConfig::paper_default(LEN).key_bits());
    let mut rng = Rng::new(0x50_47);
    let entries: Vec<SeriesEntry> = (0..ENTRIES)
        .map(|id| SeriesEntry {
            key: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            id,
            timestamp: 0,
            values: Vec::new(),
        })
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let input = entries.clone();
        let mut sorter = DynExternalSorter::new(layout, budget, dir, IoStats::shared());
        let start = Instant::now();
        let sorted = sorter.sort(input).map_err(|e| e.to_string())?;
        let mut count = 0;
        for record in sorted {
            record.map_err(|e| e.to_string())?;
            count += 1;
        }
        best = best.min(start.elapsed().as_secs_f64());
        if count != ENTRIES {
            return Err(format!("the sorter returned {count} of {ENTRIES} records"));
        }
    }
    let mib = (ENTRIES * 32) as f64 / (1 << 20) as f64;
    out.push(("storage.sort_mib_per_s", mib / best));
    Ok(())
}

/// `json.*`, `recommender.*`, `core.cache_hit_us`: the protocol codec on one
/// 256-float query, one reply and one 128-series insert frame, and the
/// service on a small cached index.
fn protocol(dir: &Path, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let data = gen::rounded(gen::random_walks(0x4A_50, 2048, LEN));
    let dataset = dir.join("micro.bin");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    gen::write_dataset(&dataset, &data, LEN).map_err(|e| e.to_string())?;
    let palm = PalmServer::new(dir.join("palm")).with_result_cache(64);
    let built =
        palm.handle_json(wire::build_request("m", &dataset, "Clsm", true, 32 << 20).trim_end());
    if !built.contains("\"type\":\"built\"") {
        return Err(format!("micro build failed: {built}"));
    }

    let query_line = wire::query_request("m", &data[..LEN], K, false);
    let query_line = query_line.trim_end();
    let parse = |line: &str| {
        let json = Json::parse(line).expect("a request line is JSON");
        PalmRequest::from_json(&json).expect("a request line is a request")
    };
    let secs = fastest(|| {
        for _ in 0..2000 {
            std::hint::black_box(parse(query_line));
        }
    });
    out.push(("json.parse_query_us", secs * 1e6 / 2000.0));

    let reply: PalmResponse = palm.handle(parse(query_line));
    let secs = fastest(|| {
        for _ in 0..2000 {
            std::hint::black_box(reply.to_json().to_string());
        }
    });
    out.push(("json.encode_reply_us", secs * 1e6 / 2000.0));

    let insert_line = wire::insert_request("m", &data[..128 * LEN], LEN, 1);
    let insert_line = insert_line.trim_end();
    let secs = fastest(|| {
        for _ in 0..4 {
            std::hint::black_box(parse(insert_line));
        }
    });
    let mib = (4 * insert_line.len()) as f64 / (1 << 20) as f64;
    out.push(("json.parse_insert_mib_per_s", mib / secs));

    // The first `handle` above filled the cache; these are all hits.
    let request = parse(query_line);
    let secs = fastest(|| {
        for _ in 0..2000 {
            std::hint::black_box(palm.handle(request.clone()));
        }
    });
    out.push(("core.cache_hit_us", secs * 1e6 / 2000.0));

    let scenario = Scenario::static_archive(100_000, LEN);
    let secs = fastest(|| {
        for _ in 0..2000 {
            std::hint::black_box(recommend(&scenario));
        }
    });
    out.push(("recommender.recommend_us", secs * 1e6 / 2000.0));
    Ok(())
}

/// `storage.build_write_amp` and `storage.build_random_frac` from the `report`
/// of a `built` reply.
pub fn build_io(built: &Json) -> Result<[(&'static str, f64); 2], String> {
    let report = built.get("report").ok_or("the build reply has no report")?;
    let io = report.get("io").ok_or("the build report has no io")?;
    let count = |key| wire::number(io, key).unwrap_or(0.0);
    let random = count("random_reads") + count("random_writes");
    let accesses = random + count("sequential_reads") + count("sequential_writes");
    Ok([
        (
            "storage.build_write_amp",
            count("physical_bytes_written") / wire::number(report, "footprint_bytes")?,
        ),
        ("storage.build_random_frac", random / accesses.max(1.0)),
    ])
}

/// `ctree.*_per_exact`: the mean of every `QueryCost` counter over the exact
/// replies' costs (in [`wire::cost`] order).
pub fn exact_costs(costs: &[[f64; 5]]) -> [(&'static str, f64); 5] {
    let mean =
        |field: usize| costs.iter().map(|c| c[field]).sum::<f64>() / costs.len().max(1) as f64;
    [
        ("ctree.entries_examined_per_exact", mean(0)),
        ("ctree.entries_refined_per_exact", mean(1)),
        ("ctree.raw_fetches_per_exact", mean(2)),
        ("ctree.blocks_read_per_exact", mean(3)),
        ("ctree.blocks_skipped_per_exact", mean(4)),
    ]
}

/// Every workload-independent per-layer metric.  `sort_budget` is the build
/// budget of the workload being traced.
pub fn micro(dir: &Path, sort_budget: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    kernels(&mut out);
    sort(&dir.join("sort"), sort_budget, &mut out)?;
    protocol(&dir.join("protocol"), &mut out)?;
    Ok(out)
}

/// `core.batch16_speedup`: 16 single requests against one `batch` of the
/// same 16, through `handle_json` on `palm`.
pub fn batch16_speedup(palm: &PalmServer, name: &str, queries: &[&[f32]]) -> f64 {
    assert_eq!(queries.len(), 16);
    let singles: Vec<String> = queries
        .iter()
        .map(|q| wire::query_object(name, q, K, false))
        .collect();
    let batch = wire::batch_request(&singles.iter().map(String::as_str).collect::<Vec<_>>());
    let one_by_one = fastest(|| {
        for line in &singles {
            std::hint::black_box(palm.handle_json(line));
        }
    });
    let together = fastest(|| {
        std::hint::black_box(palm.handle_json(batch.trim_end()));
    });
    one_by_one / together
}
