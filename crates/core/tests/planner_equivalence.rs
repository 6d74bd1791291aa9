//! Knob points × structure on the walks, at the `planner=adaptive` point:
//! cells of the differential harness (`differential/harness.rs`).  Every
//! planned query answers and costs as the fixed default, its report
//! replays (`report.decision == planner::plan(&report.inputs)`), and a
//! fixed query carries no report.

#[path = "differential/harness.rs"]
mod harness;

use harness::*;

/// CTree and CLSM, through the served `knn_planned`.
#[test]
fn planned_static_queries_match_every_fixed_knob() {
    check_knob_points(knob_walks(), static_index, &points(Knob::Planner));
}

/// PP, TP and BTP streams, each built through `streaming_index`.
#[test]
fn streaming_factory_threads_planner_mode() {
    check_knob_points(knob_walks(), stream, &points(Knob::Planner));
}
