//! The pure-performance knobs, in one value.
//!
//! Every knob here is a *pure* performance knob: index files, answers,
//! `QueryCost` and `IoStats` are identical at every setting.  Each index
//! config embeds one [`PerfKnobs`] by value and hands it down whole, so a
//! knob is declared, documented and defaulted once.

use crate::mmap::IoBackend;

/// The pure-performance knobs of an index, carried by value through every
/// config layer.  [`PerfKnobs::default`] is the engine default and the
/// default of every entry point: overlapped I/O and `pread`.  Builds and
/// queries run on the caller's thread; no knob adds workers to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfKnobs {
    /// Overlap computation with I/O in the external sorter: run generation
    /// double-buffers through a writer worker and the sorter's merge
    /// readers read ahead (see [`crate::DynExternalSorter`]).  Changes
    /// *when* each I/O happens, never which I/Os happen or their per-file
    /// order.  No index merge reads ahead, whatever its value.
    pub io_overlap: bool,
    /// Read backend for runs, leaves and partitions (see [`IoBackend`]).
    pub io_backend: IoBackend,
}

impl Default for PerfKnobs {
    fn default() -> Self {
        PerfKnobs {
            io_overlap: true,
            io_backend: IoBackend::Pread,
        }
    }
}
