//! Knob equivalence: one identity grid over the build and read knobs.
//!
//! Every case of `knob_grid` builds its index at [`PerfKnobs::default`] and
//! at every other point of
//! `{parallelism 1, 8} × {io_overlap off, on} × {pread, mmap}` plus an 8-way
//! query fan-out, and each point must match the default on files, build and
//! query `IoStats`, answers and `QueryCost`.  The cases: a spilling CTree,
//! an in-memory CTree, CLSM with 1 and 4 shards, and a BTP stream.
//! `query_equivalence.rs` crosses `query_parallelism` further (random
//! sizes, ties, `ClsmStats`); `planner` and `compression` have their own
//! grids (`planner_equivalence.rs`, `compression_equivalence.rs`).

mod knob_grid;

use coconut_core::PerfKnobs;
use knob_grid::points;
use proptest::prelude::*;

#[test]
fn ctree_spilling_build_matches_default_at_every_knob_point() {
    knob_grid::ctree_spilling(&points());
}

#[test]
fn ctree_in_memory_build_matches_default_at_every_knob_point() {
    knob_grid::ctree_in_memory(&points());
}

#[test]
fn clsm_builds_match_default_at_every_knob_point() {
    knob_grid::clsm_sharded_and_unsharded(&points());
}

#[test]
fn btp_ingest_matches_default_at_every_knob_point() {
    knob_grid::btp(&points());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random dataset sizes, budgets and grid points: a CTree built at the
    /// point matches the default build.
    #[test]
    fn ctree_random_builds_match_default_at_a_random_knob_point(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        point in 0usize..8,
        seed in 0u64..1000,
    ) {
        knob_grid::ctree_random(n, budget_kib, seed, PerfKnobs::default(), points()[point]);
    }
}
