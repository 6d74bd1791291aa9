//! E2 — Section 2 "Better Read vs. Write Trade-Offs".
//!
//! Sweeps the CTree fill factor and the CLSM growth factor under a mixed
//! insert + query workload and reports the resulting ingest/query balance.

use coconut_bench::{f2, print_table, scale, Workbench};
use coconut_core::{CTree, CTreeConfig, ClsmConfig, ClsmTree, IoStats, SaxConfig};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

fn main() {
    let n = 3000 * scale();
    let len = 64;
    let wb = Workbench::random_walk("e2", n, len, 10, 2);
    let sax = SaxConfig::paper_default(len);
    let mut gen = RandomWalkGenerator::new(len, 77);
    let mut updates = gen.generate(n / 2);
    for (i, s) in updates.iter_mut().enumerate() {
        s.id = (n + i) as u64;
    }

    let mut rows = Vec::new();
    for fill in [0.5, 0.7, 0.9, 1.0] {
        let stats = IoStats::shared();
        let config = CTreeConfig::new(sax)
            .materialized(true)
            .with_fill_factor(fill);
        let dir = wb.dir.file(&format!("ctree-{fill}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tree = CTree::build(&wb.dataset, config, &dir, stats.clone()).unwrap();
        stats.reset();
        let t = std::time::Instant::now();
        for chunk in updates.chunks(200) {
            tree.insert_batch(chunk, 1).unwrap();
        }
        tree.merge_delta().unwrap();
        let ingest_ms = t.elapsed().as_secs_f64() * 1000.0;
        let ingest_io = stats.snapshot();
        stats.reset();
        let t = std::time::Instant::now();
        for q in &wb.queries.queries {
            tree.knn(&q.values, 1, true).unwrap();
        }
        let query_ms = t.elapsed().as_secs_f64() * 1000.0 / wb.queries.len() as f64;
        rows.push(vec![
            format!("CTree ff={fill}"),
            f2(ingest_ms),
            ingest_io.total_accesses().to_string(),
            f2(query_ms),
            stats.snapshot().total_reads().to_string(),
        ]);
    }
    for growth in [2usize, 4, 8] {
        let stats = IoStats::shared();
        let config = ClsmConfig::new(sax)
            .materialized(true)
            .with_buffer_capacity(500)
            .with_growth_factor(growth);
        let dir = wb.dir.file(&format!("clsm-{growth}"));
        let mut tree = ClsmTree::build(&wb.dataset, config, &dir, stats.clone()).unwrap();
        stats.reset();
        let t = std::time::Instant::now();
        for chunk in updates.chunks(200) {
            tree.insert_batch(chunk, 1).unwrap();
        }
        tree.flush().unwrap();
        let ingest_ms = t.elapsed().as_secs_f64() * 1000.0;
        let ingest_io = stats.snapshot();
        stats.reset();
        let t = std::time::Instant::now();
        for q in &wb.queries.queries {
            tree.knn(&q.values, 1, true, None).unwrap();
        }
        let query_ms = t.elapsed().as_secs_f64() * 1000.0 / wb.queries.len() as f64;
        rows.push(vec![
            format!("CLSM T={growth} (runs={})", tree.num_runs()),
            f2(ingest_ms),
            ingest_io.total_accesses().to_string(),
            f2(query_ms),
            stats.snapshot().total_reads().to_string(),
        ]);
    }
    print_table(
        &format!(
            "E2: read/write trade-off, {n} base series + {} updates",
            updates.len()
        ),
        &[
            "config",
            "ingest_ms",
            "ingest_ios",
            "exact_q_ms",
            "q_page_reads",
        ],
        &rows,
    );
    println!("\nExpected shape: higher fill factor / smaller growth factor -> costlier ingestion,");
    println!("cheaper queries; lower fill factor / larger growth factor -> the reverse.");
}
