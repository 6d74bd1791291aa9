//! Cross-crate integration tests: every variant of the Figure-1 matrix must
//! agree with brute force on exact answers, and the streaming schemes must
//! agree with each other under windowed queries.

use std::sync::Arc;

use coconut_core::{
    streaming_index, Dataset, IndexConfig, IoStats, ScratchDir, StaticIndex, StreamingConfig,
    VariantKind, WindowScheme,
};
use coconut_series::distance::brute_force_knn;
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};

#[test]
fn all_static_variants_match_brute_force_on_many_queries() {
    let dir = ScratchDir::new("integration-static").unwrap();
    let len = 96;
    let mut gen = RandomWalkGenerator::new(len, 11);
    let series = gen.generate(500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let queries = gen.generate(10);

    for variant in VariantKind::all() {
        for materialized in [false, true] {
            let config = IndexConfig::new(variant, len)
                .materialized(materialized)
                .with_memory_budget(1 << 20);
            let stats = IoStats::shared();
            let sub = dir.file(&format!("{}-{materialized}", config.display_name()));
            let (index, _) =
                StaticIndex::build(&dataset, config, &sub, Arc::clone(&stats)).unwrap();
            for q in &queries {
                let expected = brute_force_knn(
                    &q.values,
                    series.iter().map(|s| (s.id, s.values.as_slice())),
                    3,
                );
                let (got, _) = index.knn(&q.values, 3, true).unwrap();
                assert_eq!(got.len(), 3, "{}", config.display_name());
                for (g, e) in got.iter().zip(expected.iter()) {
                    assert!(
                        (g.squared_distance - e.squared_distance).abs() < 1e-6,
                        "{} disagrees with brute force",
                        config.display_name()
                    );
                }
            }
        }
    }
}

#[test]
fn approximate_answers_are_reasonable_across_variants() {
    // Approximate queries carry no guarantee, but for a perturbed member the
    // answer must be very close to the true nearest neighbour.
    let dir = ScratchDir::new("integration-approx").unwrap();
    let len = 64;
    let mut gen = RandomWalkGenerator::new(len, 13);
    let series = gen.generate(800);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    for variant in VariantKind::all() {
        let config = IndexConfig::new(variant, len).materialized(true);
        let stats = IoStats::shared();
        let sub = dir.file(&format!("approx-{}", config.display_name()));
        let (index, _) = StaticIndex::build(&dataset, config, &sub, stats).unwrap();
        let mut ok = 0;
        for target in series.iter().step_by(100) {
            let query: Vec<f32> = target.values.iter().map(|v| v + 0.002).collect();
            let (got, _) = index.knn(&query, 1, false).unwrap();
            if !got.is_empty() && got[0].id == target.id {
                ok += 1;
            }
        }
        assert!(
            ok >= 6,
            "{}: only {ok}/8 approximate probes found the target",
            config.display_name()
        );
    }
}

#[test]
fn streaming_schemes_agree_on_windowed_exact_queries() {
    let dir = ScratchDir::new("integration-stream").unwrap();
    let len = 64;
    let mut gen = SeismicStreamGenerator::new(len, 17, 0.1);
    let batches: Vec<_> = (0..10).map(|_| gen.next_batch(50)).collect();
    let all: Vec<_> = batches.iter().flatten().cloned().collect();
    let query = gen.quake_template();

    let configs = [
        StreamingConfig::new(VariantKind::Clsm, WindowScheme::PostProcessing, len),
        StreamingConfig::new(VariantKind::Ads, WindowScheme::PostProcessing, len),
        StreamingConfig::new(VariantKind::CTree, WindowScheme::TemporalPartitioning, len),
        StreamingConfig::new(VariantKind::Ads, WindowScheme::TemporalPartitioning, len),
        StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            len,
        ),
    ];
    for window in [None, Some((120u64, 380u64)), Some((480u64, 499u64))] {
        let expected = brute_force_knn(
            &query,
            all.iter()
                .filter(|a| {
                    window
                        .map(|(s, e)| a.timestamp >= s && a.timestamp <= e)
                        .unwrap_or(true)
                })
                .map(|a| (a.series.id, a.series.values.as_slice())),
            2,
        );
        for (i, cfg) in configs.iter().enumerate() {
            let mut cfg = *cfg;
            cfg.buffer_capacity = 50;
            let stats = IoStats::shared();
            let mut index =
                streaming_index(cfg, &dir.file(&format!("s{i}-{window:?}")), stats).unwrap();
            for b in &batches {
                index.ingest_batch(b).unwrap();
            }
            let r = index.query_window(&query, 2, window, true).unwrap();
            for (g, e) in r.neighbors.iter().zip(expected.iter()) {
                assert!(
                    (g.squared_distance - e.squared_distance).abs() < 1e-6,
                    "scheme {} window {:?} disagrees with brute force",
                    cfg.display_name(),
                    window
                );
            }
        }
    }
}
