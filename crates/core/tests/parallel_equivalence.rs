//! Parallel/sequential equivalence of the whole build pipeline.
//!
//! `parallelism` is a *pure* performance knob: for every variant the
//! on-disk index is byte-identical and every answer and `QueryCost` is
//! identical at any worker count.  Each case builds at `parallelism = 8` at
//! every `io_overlap × io_backend` point of the `knob_grid` and compares
//! against the default (`parallelism = 1`) build.

mod knob_grid;

use coconut_core::PerfKnobs;

fn parallel_points() -> Vec<PerfKnobs> {
    knob_grid::points_where(|knobs| knobs.parallelism == 8)
}

#[test]
fn ctree_parallel_build_is_byte_identical_and_answers_match() {
    knob_grid::ctree_spilling(&parallel_points());
}

#[test]
fn clsm_parallel_build_answers_match() {
    knob_grid::clsm_sharded_and_unsharded(&parallel_points());
}

#[test]
fn streaming_btp_parallel_ingest_answers_match() {
    knob_grid::btp(&parallel_points());
}
