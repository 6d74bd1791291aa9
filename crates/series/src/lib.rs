//! # coconut-series
//!
//! Data series substrate for the Coconut Palm reproduction.
//!
//! A *data series* (also called a time series when the ordering dimension is
//! time) is a fixed-length ordered sequence of real values.  Every index in
//! the Coconut infrastructure operates on collections of such series, so this
//! crate provides the shared building blocks:
//!
//! * [`Series`] — the owned series record (id + values), plus
//!   [`TimestampedSeries`] for streaming scenarios.
//! * [`znorm`] — z-normalization, the standard preprocessing step before
//!   similarity search.
//! * [`distance`] — Euclidean distance, squared distance and the
//!   early-abandoning variant used by exact search.
//! * [`kernels`] — the explicit SIMD backends (scalar / AVX2 with
//!   runtime detection) behind the distance, z-normalization and PAA hot
//!   loops, bit-identical to each other by construction.
//! * [`mod@paa`] — Piecewise Aggregate Approximation, the dimensionality
//!   reduction on top of which SAX/iSAX summarizations are defined.
//! * [`generator`] — synthetic dataset generators: pure random walks, an
//!   "astronomy-like" generator with planted patterns (Scenario 1 of the
//!   paper) and a "seismic-like" batch stream generator (Scenario 2).
//! * [`dataset`] — a simple binary on-disk dataset format (the "raw data
//!   file" that non-materialized indexes point into) with streaming readers
//!   and writers.
//! * [`workload`] — query workload construction (noisy copies of dataset
//!   members, planted patterns, pure noise).
//!
//! The crate is deliberately free of any indexing logic; it only knows about
//! series, their distances and how to produce them.

pub mod dataset;
pub mod distance;
pub mod generator;
pub mod kernels;
pub mod paa;
pub mod series;
pub mod stats;
pub mod workload;
pub mod znorm;

pub use dataset::{Dataset, DatasetReader, DatasetWriter};
pub use distance::{euclidean, euclidean_early_abandon, squared_euclidean};
pub use generator::{
    AstronomyGenerator, PatternKind, RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator,
};
pub use kernels::KernelBackend;
pub use paa::paa;
pub use series::{Series, SeriesId, SeriesMeta, Timestamp, TimestampedSeries};
pub use workload::{QueryWorkload, WorkloadKind};
pub use znorm::{znormalize, znormalize_in_place};

/// Errors produced by the series substrate.
#[derive(Debug)]
pub enum SeriesError {
    /// An I/O error occurred while reading or writing a dataset file.
    Io(std::io::Error),
    /// The dataset file header is malformed or does not match expectations.
    BadHeader(String),
    /// A series had a different length than the dataset declares.
    LengthMismatch { expected: usize, actual: usize },
    /// The requested series id does not exist in the dataset.
    UnknownSeries(u64),
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::Io(e) => write!(f, "i/o error: {e}"),
            SeriesError::BadHeader(msg) => write!(f, "bad dataset header: {msg}"),
            SeriesError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "series length mismatch: expected {expected}, got {actual}"
                )
            }
            SeriesError::UnknownSeries(id) => write!(f, "unknown series id {id}"),
        }
    }
}

impl std::error::Error for SeriesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeriesError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SeriesError {
    fn from(e: std::io::Error) -> Self {
        SeriesError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SeriesError>;
