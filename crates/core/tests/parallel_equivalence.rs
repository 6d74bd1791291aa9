//! Knob points × structure on the walks, at the point that moves only
//! `parallelism` (8 workers): cells of the differential harness
//! (`differential/harness.rs`).  Files are byte-identical and answers,
//! costs and `IoStats` equal the sequential build's.

#[path = "differential/harness.rs"]
mod harness;

use harness::*;

/// CTree materialized or not, spilling or in memory.
#[test]
fn ctree_parallel_build_is_byte_identical_and_answers_match() {
    check_knob_points(knob_walks(), ctree, &points(Knob::Parallelism));
}

/// CLSM with 1 and 4 shards, the read-split fold included.
#[test]
fn clsm_parallel_build_answers_match() {
    check_knob_points(knob_walks(), clsm, &points(Knob::Parallelism));
}

/// Every stream the knobs reach: PP, TP and BTP.
#[test]
fn streaming_btp_parallel_ingest_answers_match() {
    check_knob_points(knob_walks(), stream, &points(Knob::Parallelism));
}
