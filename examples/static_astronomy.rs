//! Demonstration Scenario 1: exploring a big static astronomy-like archive.
//!
//! Follows the paper's script: start with the state of the art (ADS+), note
//! its construction/query lag, consult the recommender, and repeat the
//! workflow with its choice (a non-materialized CTree).
//!
//! ```bash
//! cargo run --release -p coconut-core --example static_astronomy
//! ```

use std::sync::Arc;

use coconut_core::{
    recommend, CancelToken, Dataset, IndexConfig, IoStats, Scenario, ScratchDir, StaticIndex,
    VariantKind,
};
use coconut_series::generator::{AstronomyGenerator, PatternKind, SeriesGenerator};

fn main() {
    let dir = ScratchDir::new("scenario1").expect("scratch dir");
    let series_len = 256;
    let mut gen = AstronomyGenerator::new(series_len, 7, 0.25);
    let series = gen.generate(8_000);
    let dataset = Dataset::create_from_series(dir.file("astronomy.bin"), &series).expect("dataset");
    println!(
        "astronomy-like archive: {} series x {} points",
        dataset.len(),
        series_len
    );

    // Known patterns of interest (supernova, binary star).
    let patterns = [
        ("supernova", gen.template(PatternKind::Supernova)),
        ("binary star", gen.template(PatternKind::BinaryStar)),
    ];

    // --- State of the art: ADS+ ---
    let stats = IoStats::shared();
    let (ads, ads_report) = StaticIndex::build(
        &dataset,
        IndexConfig::new(VariantKind::Ads, series_len),
        &dir.file("ads"),
        Arc::clone(&stats),
    )
    .expect("ads build");
    println!(
        "\nADS+      build: {:8.1} ms, {:6} I/Os ({:.0}% random)",
        ads_report.elapsed_ms,
        ads_report.io.total_accesses(),
        ads_report.io.random_fraction() * 100.0
    );

    // --- Consult the recommender ---
    let scenario = Scenario {
        expected_queries: 50,
        ..Scenario::static_archive(dataset.len(), series_len)
    };
    let rec = recommend(&scenario);
    println!("\nrecommender says:");
    for line in &rec.rationale {
        println!("  - {line}");
    }
    let rec_config = IndexConfig::from_recommendation(&rec, series_len);

    // --- The recommender's choice ---
    let stats = IoStats::shared();
    let (ctree, ctree_report) =
        StaticIndex::build(&dataset, rec_config, &dir.file("rec"), Arc::clone(&stats))
            .expect("ctree build");
    println!(
        "{:9} build: {:8.1} ms, {:6} I/Os ({:.0}% random)",
        rec_config.display_name(),
        ctree_report.elapsed_ms,
        ctree_report.io.total_accesses(),
        ctree_report.io.random_fraction() * 100.0
    );

    // --- Pattern search on both ---
    for (name, template) in &patterns {
        let (ads_hits, ads_cost) = ads
            .knn(template, 5, true, &CancelToken::never())
            .expect("ads query");
        let (ctree_hits, ctree_cost) = ctree
            .knn(template, 5, true, &CancelToken::never())
            .expect("ctree query");
        assert!((ads_hits[0].squared_distance - ctree_hits[0].squared_distance).abs() < 1e-6);
        let label = gen.label(ctree_hits[0].id);
        println!(
            "\n'{name}' query: best match id {} (planted pattern: {:?})",
            ctree_hits[0].id, label
        );
        println!(
            "  ADS+  refined {:5} series, read {:4} leaves",
            ads_cost.entries_refined, ads_cost.blocks_read
        );
        println!(
            "  CTree refined {:5} series, read {:4} blocks (skipped {})",
            ctree_cost.entries_refined, ctree_cost.blocks_read, ctree_cost.blocks_skipped
        );
    }
}
