//! E8 — Section 2/4: recommender quality.
//!
//! Sweeps a grid of scenarios, builds every candidate static variant, and
//! measures the regret of following the recommender versus the best variant
//! found by exhaustive search (total cost = build + expected queries).

use coconut_bench::{f2, print_table, scale, Workbench};
use coconut_core::{recommend, IndexConfig, Scenario, StaticIndex, VariantKind};

fn main() {
    let n = 2000 * scale();
    let len = 64;
    let wb = Workbench::random_walk("e8", n, len, 10, 8);

    // Measure per-variant build cost and per-query cost once.
    let mut measured = Vec::new();
    for variant in VariantKind::all() {
        for materialized in [false, true] {
            let config = IndexConfig::new(variant, len).materialized(materialized);
            let stats = wb.stats();
            let dir = wb
                .dir
                .file(&format!("e8-{}-{materialized}", config.display_name()));
            let (index, report) = StaticIndex::build(&wb.dataset, config, &dir, stats).unwrap();
            let t = std::time::Instant::now();
            for q in &wb.queries.queries {
                index.knn(&q.values, 1, true).unwrap();
            }
            let per_query_ms = t.elapsed().as_secs_f64() * 1000.0 / wb.queries.len() as f64;
            measured.push((variant, materialized, report.elapsed_ms, per_query_ms));
        }
    }

    let mut rows = Vec::new();
    for expected_queries in [10u64, 100, 1_000, 10_000] {
        let scenario = Scenario {
            expected_queries,
            ..Scenario::static_archive(n as u64, len)
        };
        let rec = recommend(&scenario);
        let rec_config = IndexConfig::from_recommendation(&rec, len);
        let total = |build: f64, per_q: f64| build + per_q * expected_queries as f64;
        let best = measured
            .iter()
            .map(|(v, m, b, q)| (total(*b, *q), *v, *m))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .unwrap();
        let rec_cost = measured
            .iter()
            .find(|(v, m, _, _)| *v == rec_config.variant && *m == rec_config.materialized)
            .map(|(_, _, b, q)| total(*b, *q))
            .unwrap();
        rows.push(vec![
            expected_queries.to_string(),
            rec_config.display_name(),
            format!("{}{}", best.1.name(), if best.2 { "Full" } else { "" }),
            f2(rec_cost),
            f2(best.0),
            f2((rec_cost - best.0) / best.0 * 100.0),
        ]);
    }
    print_table(
        &format!("E8: recommender regret, {n} series x {len}"),
        &[
            "exp_queries",
            "recommended",
            "best_measured",
            "rec_cost_ms",
            "best_cost_ms",
            "regret_%",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: the recommended variant tracks the measured-best variant (low regret),"
    );
    println!("flipping from non-materialized to materialized as the expected query count grows.");
}
