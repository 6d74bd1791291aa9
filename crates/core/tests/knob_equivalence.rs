//! Knob points × structure on the walks, at the grid point that moves both
//! `io_overlap` and `io_backend` at once: cells
//! of the differential harness (`differential/harness.rs`).  The points
//! that move one knob are in that knob's file.

#[path = "differential/harness.rs"]
mod harness;

use coconut_core::{IoBackend, PerfKnobs};
use harness::*;
use proptest::prelude::*;

#[test]
fn ctree_spilling_build_matches_default_at_every_knob_point() {
    check_knob_points(knob_walks(), ctree_spilling, &points(Knob::Combined));
}

#[test]
fn ctree_in_memory_build_matches_default_at_every_knob_point() {
    check_knob_points(knob_walks(), ctree_in_memory, &points(Knob::Combined));
}

/// CLSM with 1 and 4 shards.
#[test]
fn clsm_builds_match_default_at_every_knob_point() {
    check_knob_points(knob_walks(), clsm, &points(Knob::Combined));
}

/// Every stream the knobs reach: PP, TP and BTP.
#[test]
fn btp_ingest_matches_default_at_every_knob_point() {
    check_knob_points(knob_walks(), stream, &points(Knob::Combined));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random dataset sizes, budgets and grid points: a CTree built at the
    /// point reproduces the default build, which is brute force.
    #[test]
    fn ctree_random_builds_match_default_at_a_random_knob_point(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        overlap_bit in 0u8..2,
        mmap_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        let io_backend = if mmap_bit == 1 { IoBackend::Mmap } else { IoBackend::Pread };
        let knobs = PerfKnobs {
            io_overlap: overlap_bit == 1,
            io_backend,
        };
        let structure = Static(CTree, true, budget_kib << 10, 1);
        check_random(n, seed, structure, PerfKnobs::default(), knobs);
    }
}
