//! # coconut-ctree
//!
//! CoconutTree (CTree): the read-optimized, compact and contiguous data
//! series index of the Coconut infrastructure.
//!
//! A CTree is bulk-loaded bottom-up: every series in the dataset is
//! summarized into its sortable interleaved SAX key, the `(key, id[, series])`
//! entries are sorted with a bounded-memory external merge sort, and the
//! sorted stream is packed into contiguous leaf blocks (to a configurable
//! fill factor).  Construction therefore performs only sequential I/O, and
//! the resulting index is fully dense and contiguous — the properties the
//! paper contrasts with the sparse, random-I/O-built ADS+ baseline.
//!
//! This crate also provides the building blocks shared with CoconutLSM and
//! the streaming partitions:
//!
//! * [`entry`] — the on-disk index entry and its
//!   [`coconut_storage::RecordLayout`].
//! * [`sorted_file`] — a sorted, block-indexed partition with approximate and
//!   exact kNN search (skip-sequential scan with MINDIST pruning).
//! * [`query`] — query-side helpers: the kNN result heap (with the frozen
//!   pruning ceiling) and the raw-dataset refinement context used by
//!   non-materialized indexes.
//! * [`engine`] — the query engine: a deterministic walk over search units
//!   (runs, shards, partitions) with per-unit heaps under one bound frozen
//!   from the merged seeds ([`parallel_knn_with`]; a batch is that many
//!   calls).
//! * [`kernels`] — the dispatch surface for the explicit SIMD
//!   distance/znorm/PAA backends (scalar / AVX2, runtime-detected) used by
//!   every scan in this crate and the index crates built on it;
//!   bit-identical across backends by construction.
//! * [`raw`] — backend-aware raw-series fetching for non-materialized
//!   refinement ([`RawSeriesSource`]: positioned reads or an
//!   `MADV_RANDOM`-advised mapping of the dataset file, same accounting).
//! * [`tree`] — the [`CTree`] itself: bulk build, optional delta inserts with
//!   fill-factor-driven merge, and query entry points.

pub mod engine;
pub mod entry;
pub mod kernels;
pub mod query;
pub mod raw;
pub mod sorted_file;
pub mod tree;

pub use engine::{parallel_knn, parallel_knn_with, SearchUnit};
pub use entry::{EntryLayout, SeriesEntry};
pub use kernels::KernelBackend;
pub use query::{KnnHeap, QueryContext, QueryCost};
pub use raw::RawSeriesSource;
pub use sorted_file::{BlockMeta, SortedSeriesFile};
pub use tree::{BuildStats, CTree, CTreeConfig};

use coconut_series::SeriesError;
use coconut_storage::StorageError;

/// Errors produced by the CTree crate (and reused by the LSM / streaming
/// layers built on top of it).
#[derive(Debug)]
pub enum IndexError {
    /// Error from the storage substrate.
    Storage(StorageError),
    /// Error from the series substrate (raw data file access).
    Series(SeriesError),
    /// The index was asked to do something inconsistent with its config.
    Config(String),
    /// The operation was cancelled cooperatively (deadline exceeded or an
    /// explicit cancel, observed at a `SearchUnit` phase boundary).  Carries
    /// the cost of the work performed before the abort so callers can
    /// surface partial accounting instead of losing it.
    Cancelled {
        /// Cost accumulated before the cancellation was observed.
        partial_cost: query::QueryCost,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::Series(e) => write!(f, "series error: {e}"),
            IndexError::Config(msg) => write!(f, "configuration error: {msg}"),
            IndexError::Cancelled { .. } => write!(f, "operation cancelled (deadline exceeded)"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            IndexError::Series(e) => Some(e),
            IndexError::Config(_) => None,
            IndexError::Cancelled { .. } => None,
        }
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

impl From<SeriesError> for IndexError {
    fn from(e: SeriesError) -> Self {
        IndexError::Series(e)
    }
}

/// Convenience alias used throughout the index crates.
pub type Result<T> = std::result::Result<T, IndexError>;

/// The admission rule for a series handed to an index of `series_len`-long
/// series — an inserted row or a query (`what` names it in the error): the
/// right length, and every value finite.  A non-finite value has no SAX
/// symbol and no distance; it would be stored as a poisoned key or answer
/// `null` distances, so it is refused as a [`IndexError::Config`].
pub fn check_series(what: &str, values: &[f32], series_len: usize) -> Result<()> {
    if values.len() != series_len {
        return Err(IndexError::Config(format!(
            "{what} length {} does not match index ({series_len})",
            values.len()
        )));
    }
    check_finite(what, values)
}

/// The finiteness half of [`check_series`], for a front end that does not
/// know the index's series length.
pub fn check_finite(what: &str, values: &[f32]) -> Result<()> {
    // One branch-free pass over every row an ingest applies (it
    // vectorizes); the offending position is looked up only on failure.
    if values.iter().fold(true, |finite, v| finite & v.is_finite()) {
        return Ok(());
    }
    let i = values
        .iter()
        .position(|v| !v.is_finite())
        .expect("the fold above found a non-finite value");
    Err(IndexError::Config(format!(
        "{what} value {i} is not finite ({})",
        values[i]
    )))
}
