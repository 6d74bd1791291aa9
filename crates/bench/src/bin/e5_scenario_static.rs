//! E5 — Demonstration Scenario 1: big static (astronomy-like) data series.
//!
//! Compares ADS+ against the recommender's choice (non-materialized CTree):
//! construction, exact/approximate query cost, and the access-pattern heat
//! map that the demo uses to explain the difference.

use coconut_bench::{f2, mib, print_table, scale};
use coconut_core::{Dataset, IndexConfig, IoStats, ScratchDir, StaticIndex, VariantKind};
use coconut_series::generator::{AstronomyGenerator, PatternKind, SeriesGenerator};
use coconut_series::workload::QueryWorkload;
use coconut_storage::HeatMap;

fn main() {
    let n = 4000 * scale();
    let len = 256;
    let dir = ScratchDir::new("e5").unwrap();
    let mut gen = AstronomyGenerator::new(len, 5, 0.3);
    let series = gen.generate(n);
    let dataset = Dataset::create_from_series(dir.file("astro.bin"), &series).unwrap();
    // "Known patterns of interest": supernova + binary star templates.
    let queries = QueryWorkload::from_templates(vec![
        gen.template(PatternKind::Supernova),
        gen.template(PatternKind::BinaryStar),
        gen.template(PatternKind::StepChange),
    ]);

    let mut rows = Vec::new();
    for variant in [VariantKind::Ads, VariantKind::CTree] {
        let config = IndexConfig::new(variant, len).materialized(false);
        let stats = IoStats::shared();
        let sub = dir.file(&format!("idx-{}", config.display_name()));
        let (index, report) = StaticIndex::build(&dataset, config, &sub, stats.clone()).unwrap();
        stats.reset();
        let heat = std::sync::Arc::new(HeatMap::new(40, 1));
        let mut exact_ms = Vec::new();
        let mut approx_ms = Vec::new();
        let mut exact_reads = 0u64;
        for q in &queries.queries {
            let before = stats.snapshot();
            let t = std::time::Instant::now();
            let (nn, _) = index.knn(&q.values, 5, true).unwrap();
            exact_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            exact_reads += stats.snapshot().since(&before).total_reads();
            assert_eq!(nn.len(), 5);
            let t = std::time::Instant::now();
            index.knn(&q.values, 5, false).unwrap();
            approx_ms.push(t.elapsed().as_secs_f64() * 1000.0);
        }
        let _ = heat;
        rows.push(vec![
            config.display_name(),
            f2(report.elapsed_ms),
            f2(report.io.random_fraction()),
            mib(report.footprint_bytes),
            f2(coconut_bench::mean(&exact_ms)),
            f2(coconut_bench::mean(&approx_ms)),
            (exact_reads / queries.len() as u64).to_string(),
        ]);
    }
    print_table(
        &format!("E5: Scenario 1 (static astronomy-like), {n} series x {len}"),
        &[
            "variant",
            "build_ms",
            "build_rand_frac",
            "size_MiB",
            "exact_ms",
            "approx_ms",
            "exact_page_reads",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: CTree builds faster with sequential I/O, is more compact, and answers"
    );
    println!("pattern queries with fewer page reads than ADS+ (friendlier access pattern).");
}
