//! Cross-crate integration tests: every structure of the Figure-1 matrix
//! answers exactly as brute force on every data shape, at the default
//! point (data × structure, the differential harness's first cross, see
//! `differential/harness.rs`), and finds a perturbed member approximately.

#[path = "differential/harness.rs"]
mod harness;

use coconut_core::{
    CancelToken, Dataset, IndexConfig, IoStats, ScratchDir, StaticIndex, VariantKind,
};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use harness::*;

/// CTree, CLSM and ADS+, materialized or not, on every data shape: every
/// exact answer `==` `brute_force_knn`, no tolerance.
#[test]
fn all_static_variants_match_brute_force_on_many_queries() {
    for data in DATA {
        check_every_structure(data(300), static_index);
    }
}

/// PP, TP and BTP streams on every data shape, every series arriving
/// twice: every exact answer through every window `==` a sorted scan of
/// the window, ties falling to the timestamp.
#[test]
fn streaming_schemes_agree_on_windowed_exact_queries() {
    for data in DATA {
        check_every_structure(data(300), stream);
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
            let (got, _) = index.knn(&query, 1, false, &CancelToken::never()).unwrap();
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
