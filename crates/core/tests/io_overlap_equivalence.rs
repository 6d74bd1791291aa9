//! Overlapped/sequential I/O equivalence of the whole build pipeline.
//!
//! `io_overlap` is a *pure* performance knob: double-buffered run
//! generation and prefetching merge readers change *when* each I/O happens,
//! never which I/Os happen.  Each case builds with `io_overlap` off at every
//! `parallelism × io_backend` point of the `knob_grid` and compares files,
//! build `IoStats`, answers and `QueryCost` against the default (overlapped)
//! build.

mod knob_grid;

use coconut_core::PerfKnobs;
use proptest::prelude::*;

fn sequential_points() -> Vec<PerfKnobs> {
    knob_grid::points_where(|knobs| !knobs.io_overlap)
}

#[test]
fn ctree_overlap_equivalent_spilling() {
    knob_grid::ctree_spilling(&sequential_points());
}

#[test]
fn ctree_overlap_equivalent_in_memory() {
    knob_grid::ctree_in_memory(&sequential_points());
}

#[test]
fn clsm_overlap_equivalent_sharded_and_unsharded() {
    knob_grid::clsm_sharded_and_unsharded(&sequential_points());
}

#[test]
fn btp_overlap_equivalent() {
    knob_grid::btp(&sequential_points());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random dataset sizes, budgets and worker counts, overlapped and
    /// sequential CTree builds match.
    #[test]
    fn ctree_overlap_equivalence_holds_for_random_configs(
        n in 300usize..1200,
        budget_kib in 64usize..512,
        parallelism in 1usize..9,
        seed in 0u64..1000,
    ) {
        let overlapped = PerfKnobs { parallelism, ..PerfKnobs::default() };
        let sequential = PerfKnobs { io_overlap: false, ..overlapped };
        knob_grid::ctree_random(n, budget_kib, seed, overlapped, sequential);
    }
}
