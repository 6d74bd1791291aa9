//! E4 — Section 2 "Better Space vs. Time Trade-Offs" and the Scenario 1
//! recommender flip: materialized vs non-materialized CTree as the expected
//! number of queries grows.

use coconut_bench::{f2, mib, print_table, scale, Workbench};
use coconut_core::{recommend, IndexConfig, Scenario, StaticIndex, VariantKind};

fn main() {
    let n = 4000 * scale();
    let len = 128;
    let wb = Workbench::random_walk("e4", n, len, 20, 4);
    let mut per_variant = Vec::new();
    for materialized in [false, true] {
        let config = IndexConfig::new(VariantKind::CTree, len).materialized(materialized);
        let stats = wb.stats();
        let dir = wb.dir.file(&format!("mat-{materialized}"));
        let (index, report) = StaticIndex::build(&wb.dataset, config, &dir, stats).expect("build");
        let t = std::time::Instant::now();
        for q in &wb.queries.queries {
            index.knn(&q.values, 1, true).unwrap();
        }
        let per_query_ms = t.elapsed().as_secs_f64() * 1000.0 / wb.queries.len() as f64;
        per_variant.push((config.display_name(), report, per_query_ms));
    }
    let rows: Vec<Vec<String>> = per_variant
        .iter()
        .map(|(name, report, q_ms)| {
            vec![
                name.clone(),
                f2(report.elapsed_ms),
                mib(report.footprint_bytes),
                f2(*q_ms),
            ]
        })
        .collect();
    print_table(
        &format!("E4a: materialization trade-off, {n} series x {len}"),
        &["variant", "build_ms", "size_MiB", "exact_q_ms"],
        &rows,
    );

    // Total-cost crossover and the recommender's flip.
    let (non, mat) = (&per_variant[0], &per_variant[1]);
    let mut rows = Vec::new();
    for queries in [1u64, 10, 100, 1_000, 10_000] {
        let non_total = non.1.elapsed_ms + non.2 * queries as f64;
        let mat_total = mat.1.elapsed_ms + mat.2 * queries as f64;
        let rec = recommend(&Scenario {
            expected_queries: queries,
            ..Scenario::static_archive(n as u64, len)
        });
        rows.push(vec![
            queries.to_string(),
            f2(non_total),
            f2(mat_total),
            if mat_total < non_total {
                "materialized"
            } else {
                "non-materialized"
            }
            .into(),
            if rec.materialized {
                "materialized"
            } else {
                "non-materialized"
            }
            .into(),
        ]);
    }
    print_table(
        "E4b: total cost (build + queries) and recommender choice vs query count",
        &[
            "queries",
            "nonmat_total_ms",
            "mat_total_ms",
            "cheaper",
            "recommender",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: non-materialized wins for few queries; materialized wins once enough"
    );
    println!("queries amortize its extra build cost — and the recommender flips accordingly.");
}
