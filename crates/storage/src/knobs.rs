//! The pure-performance knobs, in one value.
//!
//! Every knob here is a *pure* performance knob: index files, answers,
//! `QueryCost` and `IoStats` are identical at every setting.  Each index
//! config embeds one [`PerfKnobs`] by value and hands it down whole, so a
//! knob is declared, documented and defaulted once.

use crate::mmap::IoBackend;

/// The pure-performance knobs of an index, carried by value through every
/// config layer.  [`PerfKnobs::default`] is the engine default: overlapped
/// I/O, `pread`, the `Fixed` planner.  Builds and queries run on the
/// caller's thread; no knob adds workers to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfKnobs {
    /// Overlap computation with I/O: run generation double-buffers through a
    /// writer worker and merge readers prefetch (see
    /// [`crate::DynExternalSorter`]).  Changes *when* each I/O happens,
    /// never which I/Os happen or their per-file order.
    pub io_overlap: bool,
    /// Read backend for runs, leaves and partitions (see [`IoBackend`]).
    pub io_backend: IoBackend,
    /// How the execution knobs are chosen per query and per merge (see
    /// [`PlannerMode`] and `coconut_ctree::planner::decide`).
    pub planner: PlannerMode,
}

impl Default for PerfKnobs {
    fn default() -> Self {
        PerfKnobs {
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Fixed,
        }
    }
}

coconut_json::wire! {
    /// How an index chooses its execution knobs.  Wire names `"fixed"` /
    /// `"adaptive"` ([`PlannerMode::name`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum PlannerMode names "the planner mode" {
        /// Use the statically configured knobs exactly as the caller set
        /// them.  Byte-identical to the pre-planner behaviour.
        #[default]
        Fixed = "fixed",
        /// Capture a `PlannerInputs` snapshot per query and let the planner
        /// choose the knobs.  Answers and cost counters are identical to
        /// every fixed configuration; only latency changes.
        Adaptive = "adaptive",
    }
    fn name;
    unknown: |name| Err(format!(
        "unknown planner mode '{name}' (expected \"fixed\" or \"adaptive\")"
    ));
}
