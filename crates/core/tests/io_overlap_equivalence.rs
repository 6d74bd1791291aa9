//! Knob points × structure on the walks, at the point that moves only
//! `io_overlap` (off): cells of the differential harness
//! (`differential/harness.rs`).  The overlapped pipeline writes the files
//! the alternating one does, and reads them alike.

#[path = "differential/harness.rs"]
mod harness;

use coconut_core::PerfKnobs;
use harness::*;
use proptest::prelude::*;

#[test]
fn ctree_overlap_equivalent_spilling() {
    check_knob_points(knob_walks(), ctree_spilling, &points(Knob::IoOverlap));
}

#[test]
fn ctree_overlap_equivalent_in_memory() {
    check_knob_points(knob_walks(), ctree_in_memory, &points(Knob::IoOverlap));
}

#[test]
fn clsm_overlap_equivalent_sharded_and_unsharded() {
    check_knob_points(knob_walks(), clsm, &points(Knob::IoOverlap));
}

/// Every stream the knobs reach: PP, TP and BTP.
#[test]
fn btp_overlap_equivalent() {
    check_knob_points(knob_walks(), stream, &points(Knob::IoOverlap));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random dataset sizes and budgets, overlapped and sequential CTree
    /// builds match, and are brute force.
    #[test]
    fn ctree_overlap_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        seed in 0u64..1000,
    ) {
        let overlapped = PerfKnobs::default();
        let sequential = PerfKnobs { io_overlap: false, ..overlapped };
        let structure = Static(CTree, true, budget_kib << 10, 1);
        check_random(n, seed, structure, overlapped, sequential);
    }
}
