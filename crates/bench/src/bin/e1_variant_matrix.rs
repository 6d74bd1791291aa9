//! E1 — Figure 1 / Section 2: the index variant matrix.
//!
//! Builds every static variant (ADS+, CTree, CLSM, each materialized and
//! non-materialized) over the same random-walk dataset and reports build
//! time, I/O pattern, footprint and average exact-query cost.

use coconut_bench::{f2, mib, print_table, scale, Workbench};
use coconut_core::{IndexConfig, StaticIndex, VariantKind};

fn main() {
    let n = 4000 * scale();
    let len = 128;
    let wb = Workbench::random_walk("e1", n, len, 10, 1);
    let mut rows = Vec::new();
    for variant in VariantKind::all() {
        for materialized in [false, true] {
            let config = IndexConfig::new(variant, len).materialized(materialized);
            let stats = wb.stats();
            let dir = wb
                .dir
                .file(&format!("{}-{materialized}", config.display_name()));
            let (index, report) =
                StaticIndex::build(&wb.dataset, config, &dir, stats.clone()).expect("build");
            stats.reset();
            let mut q_ms = Vec::new();
            for q in &wb.queries.queries {
                let t = std::time::Instant::now();
                index.knn(&q.values, 1, true).expect("query");
                q_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            }
            let q_io = stats.snapshot();
            rows.push(vec![
                config.display_name(),
                f2(report.elapsed_ms),
                report.io.total_accesses().to_string(),
                f2(report.io.random_fraction()),
                mib(report.footprint_bytes),
                f2(coconut_bench::mean(&q_ms)),
                (q_io.total_reads() / wb.queries.len() as u64).to_string(),
            ]);
        }
    }
    print_table(
        &format!("E1: variant matrix, {n} series x {len} points"),
        &[
            "variant",
            "build_ms",
            "build_ios",
            "build_rand_frac",
            "size_MiB",
            "exact_q_ms",
            "q_page_reads",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: Coconut variants (CTree/CLSM) build with a low random fraction and"
    );
    println!("smaller footprints than ADS+; 'Full' variants are larger/slower to build but answer");
    println!("queries without touching the raw file.");
}
