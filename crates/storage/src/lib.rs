//! # coconut-storage
//!
//! Storage substrate for the Coconut Palm reproduction.
//!
//! The paper's central performance argument is about *I/O patterns*: existing
//! data series indexes (ADS+-style top-down trees) issue many random I/Os to
//! build and to query, whereas Coconut's sortable summarizations allow
//! everything to be done with large sequential reads and writes (external
//! sorting, log-structured merging, contiguous leaf scans).  To reproduce
//! that argument without depending on the physical characteristics of the
//! host machine's disk, every index in this workspace performs its I/O
//! through this crate, which:
//!
//! * performs real file I/O at page granularity ([`PagedFile`]),
//! * classifies each page access as *sequential* or *random* based on the
//!   previously accessed page ([`IoStats`]),
//! * exposes a configurable [`CostModel`] that converts access counts into a
//!   device-independent cost figure (the benchmarks report both raw counts
//!   and modeled cost),
//! * records per-region access counts for the paper's heat-map visualization
//!   ([`HeatMap`]),
//! * provides the bounded-memory two-pass **external merge sort**
//!   ([`ExternalSorter`]) that CoconutTree bulk-loading and CoconutLSM / BTP
//!   merging are built on,
//! * and takes the device out of the writer's way: a finished run's
//!   `fdatasync`, and the unlink of the runs it replaces, happen on the
//!   FIFO [`durability`] worker; [`durability::drain`] is the barrier.

pub mod block;
pub mod cost;
pub mod durability;
pub mod dynsort;
pub mod extsort;
pub mod fadvise;
pub mod file;
pub mod heatmap;
pub mod iostats;
pub mod mmap;
pub mod page;
pub mod record;
pub mod tempdir;

pub use block::{ColumnSpec, Compression, LogicalAccountant};
pub use cost::CostModel;
pub use dynsort::{
    DynExternalSorter, DynIterMerge, DynKWayMerge, DynRunFile, DynRunReader, DynRunWriter,
    RecordLayout,
};
pub use extsort::{ExternalSortConfig, ExternalSorter};
pub use fadvise::drop_page_cache;
pub use file::{read_ahead, read_ahead_with, PagedFile, ReadAheadBuffers, PREFETCH_MIN_BYTES};
pub use heatmap::HeatMap;
pub use iostats::{AccessKind, IoStats, IoStatsSnapshot, SharedIoStats};
pub use mmap::{AccessPattern, IoBackend, Mapping};
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use record::{FixedRecord, KeyedRecord};
pub use tempdir::ScratchDir;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record could not be decoded from its on-disk representation.
    Corrupt(String),
    /// The requested page does not exist in the file.
    PageOutOfBounds { page: u64, pages: u64 },
    /// A byte range whose arithmetic (`offset + len`, `size * count`)
    /// overflows `u64`/`usize` — necessarily out of bounds for any real
    /// file, reported without panicking.
    InvalidRange { offset: u64, len: u64 },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::PageOutOfBounds { page, pages } => {
                write!(f, "page {page} out of bounds (file has {pages} pages)")
            }
            StorageError::InvalidRange { offset, len } => {
                write!(f, "byte range {len}@{offset} overflows the address space")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Byte offset of record `index` in a file of `size`-byte records, checked
/// against `u64` overflow (adversarial indexes must surface as errors, not
/// wrap or panic).
pub(crate) fn record_offset(index: u64, size: usize) -> Result<u64> {
    index
        .checked_mul(size as u64)
        .ok_or(StorageError::InvalidRange {
            // Saturated byte figures: the exact product does not fit, which
            // is the point — the diagnostics stay in byte units.
            offset: index.saturating_mul(size as u64),
            len: size as u64,
        })
}

/// `(byte offset, byte length)` of `count` records starting at `index`,
/// with both multiplications overflow-checked.
pub(crate) fn record_range(index: u64, count: usize, size: usize) -> Result<(u64, usize)> {
    let offset = record_offset(index, size)?;
    let bytes = size.checked_mul(count).ok_or(StorageError::InvalidRange {
        offset,
        len: count as u64,
    })?;
    Ok((offset, bytes))
}
