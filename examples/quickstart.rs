//! Quickstart: build a CoconutTree over synthetic data and run a query.
//!
//! ```bash
//! cargo run --release -p coconut-core --example quickstart
//! ```

use std::sync::Arc;

use coconut_core::{
    CancelToken, Dataset, IndexConfig, IoStats, ScratchDir, StaticIndex, VariantKind,
};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

fn main() {
    // 1. Generate a synthetic collection of 10,000 z-normalized random walks
    //    and write it to a raw dataset file (the file a real deployment would
    //    already have).
    let dir = ScratchDir::new("quickstart").expect("scratch dir");
    let mut gen = RandomWalkGenerator::new(256, 42);
    let series = gen.generate(10_000);
    let dataset = Dataset::create_from_series(dir.file("data.bin"), &series).expect("dataset");
    println!(
        "dataset: {} series x {} points",
        dataset.len(),
        dataset.series_len()
    );

    // 2. Build a non-materialized CoconutTree: summarize -> external sort ->
    //    pack contiguous leaves.  All I/O is charged to `stats`.
    let stats = IoStats::shared();
    let config = IndexConfig::new(VariantKind::CTree, 256);
    let (index, report) =
        StaticIndex::build(&dataset, config, &dir.file("index"), Arc::clone(&stats))
            .expect("build");
    println!(
        "built {} in {:.1} ms: {} page I/Os ({:.0}% random), {:.2} MiB on disk",
        config.display_name(),
        report.elapsed_ms,
        report.io.total_accesses(),
        report.io.random_fraction() * 100.0,
        report.footprint_bytes as f64 / (1024.0 * 1024.0),
    );

    // 3. Query: a noisy copy of series #1234 must come back as its own
    //    nearest neighbour.
    let query: Vec<f32> = series[1234].values.iter().map(|v| v + 0.01).collect();
    let (approx, _) = index
        .knn(&query, 5, false, &CancelToken::never())
        .expect("approximate query");
    let (exact, cost) = index
        .knn(&query, 5, true, &CancelToken::never())
        .expect("exact query");
    println!(
        "approximate top hit: id {} (distance {:.4})",
        approx[0].id,
        approx[0].distance()
    );
    println!(
        "exact       top hit: id {} (distance {:.4})",
        exact[0].id,
        exact[0].distance()
    );
    println!(
        "exact query examined {} summaries, refined {} series, skipped {} blocks",
        cost.entries_examined, cost.entries_refined, cost.blocks_skipped
    );
    assert_eq!(exact[0].id, 1234);
}
