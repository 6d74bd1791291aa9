//! Knob points × structure on the walks, at the point that moves only
//! `query_parallelism` (8 workers): cells of the differential harness
//! (`differential/harness.rs`).  Answers, tie order, `QueryCost`,
//! partitions accessed and the query phase's `IoStats` equal the
//! sequential engine's.

#[path = "differential/harness.rs"]
mod harness;

use coconut_core::PerfKnobs;
use harness::*;
use proptest::prelude::*;

/// CLSM with 1 shard, materialized or not.
#[test]
fn clsm_queries_identical_at_any_query_parallelism() {
    let unsharded = |s| matches!(s, Static(Clsm, _, _, 1));
    check_knob_points(knob_walks(), unsharded, &points(Knob::QueryParallelism));
}

/// PP, TP and BTP streams, through windows.
#[test]
fn windowed_stream_queries_identical_at_any_query_parallelism() {
    check_knob_points(knob_walks(), stream, &points(Knob::QueryParallelism));
}

/// CLSM with 4 shards, whose units the 8 workers split, and CTree:
/// per-worker costs sum to the sequential one.
#[test]
fn parallel_query_cost_equals_sequential_cost() {
    let fanned_out = |s| ctree(s) || matches!(s, Static(Clsm, _, _, 2..));
    check_knob_points(knob_walks(), fanned_out, &points(Knob::QueryParallelism));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// `ClsmStats`, runs, units and footprint — and answers and costs — do
    /// not depend on either parallelism knob, sharded or not.
    #[test]
    fn clsm_stats_identical_at_any_parallelism(
        n in 400usize..700,
        seed in 0u64..1000,
        sharded_bit in 0u8..2,
    ) {
        let shards = if sharded_bit == 1 { 4 } else { 1 };
        let parallel = PerfKnobs {
            parallelism: 8,
            query_parallelism: 8,
            ..PerfKnobs::default()
        };
        let structure = Static(Clsm, true, SPILL, shards);
        check_random(n, seed, structure, PerfKnobs::default(), parallel);
    }
}
