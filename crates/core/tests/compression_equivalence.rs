//! Knob points × structure on the walks, at the `compression=prefix`
//! point: cells of the differential harness (`differential/harness.rs`).
//! Answers, costs and the logical `IoStats` view equal the uncompressed
//! build's, while physical bytes written and the footprint shrink (a
//! non-materialized CTree leaf ≥ 1.5×, and its queries read fewer
//! physical bytes).

#[path = "differential/harness.rs"]
mod harness;

use harness::*;

/// CTree and CLSM, materialized or not.
#[test]
fn static_variants_are_equivalent_at_either_compression() {
    check_knob_points(knob_walks(), static_index, &points(Knob::Compression));
}

/// PP, TP and BTP streams.
#[test]
fn streaming_btp_is_equivalent_at_either_compression() {
    check_knob_points(knob_walks(), stream, &points(Knob::Compression));
}
