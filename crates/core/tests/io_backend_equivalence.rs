//! Knob points × structure on the walks, at the point that moves only
//! `io_backend` (mmap): cells of the differential harness
//! (`differential/harness.rs`).  Page-touch accounting makes the mapped
//! reads' `IoStats` equal the pread ones', query phase included.

#[path = "differential/harness.rs"]
mod harness;

use coconut_core::{IoBackend, PerfKnobs};
use harness::*;
use proptest::prelude::*;

/// CTree materialized or not, spilling or in memory.
#[test]
fn ctree_backend_equivalent_spilling() {
    check_knob_points(knob_walks(), ctree, &points(Knob::IoBackend));
}

#[test]
fn clsm_backend_equivalent_sharded_and_unsharded() {
    check_knob_points(knob_walks(), clsm, &points(Knob::IoBackend));
}

/// Every stream the knobs reach: PP, TP and BTP.
#[test]
fn btp_backend_equivalent() {
    check_knob_points(knob_walks(), stream, &points(Knob::IoBackend));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random dataset sizes, budgets and overlap settings, pread and
    /// mmap CTree builds match, and are brute force.
    #[test]
    fn ctree_backend_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        overlap_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        let io_overlap = overlap_bit == 1;
        let pread = PerfKnobs { io_overlap, ..PerfKnobs::default() };
        let mmap = PerfKnobs { io_backend: IoBackend::Mmap, ..pread };
        let structure = Static(CTree, true, budget_kib << 10, 1);
        check_random(n, seed, structure, pread, mmap);
    }
}
