//! Raw-series fetching for non-materialized refinement.
//!
//! A non-materialized index stores only `(key, id)` entries and fetches the
//! raw series values from the original [`Dataset`] file when a candidate
//! must be refined with a true distance computation.  [`RawSeriesSource`]
//! is that fetch path, threaded through the same `io_backend` knob as the
//! index's own run files: with [`IoBackend::Pread`] every fetch is a
//! positioned read through the dataset's descriptor, with
//! [`IoBackend::Mmap`] fetches are copied out of a read-only `MAP_SHARED`
//! mapping of the dataset file (advised `MADV_RANDOM` — refinement fetches
//! are point reads in id order of the candidates, not file order).
//!
//! The accounting contract is unchanged by the backend: the caller
//! ([`crate::query::QueryContext::fetch`]) charges one random read of the
//! series' byte volume per fetch, exactly as the pread path always did, so
//! `QueryCost` and `IoStats` are identical at either setting by
//! construction.

use std::fs::File;

use parking_lot::Mutex;

use coconut_series::dataset::{decode_f32_le, HEADER_LEN};
use coconut_series::{Dataset, SeriesError};
use coconut_storage::{AccessPattern, IoBackend, Mapping};

use crate::Result;

/// Backend-aware reader of raw series values from a [`Dataset`] file.
pub struct RawSeriesSource {
    dataset: Dataset,
    backend: IoBackend,
    /// Descriptor the mapping is created from (kept separate from the
    /// dataset's own descriptor so mapping never interferes with its reads).
    file: File,
    /// Lazily created read-only mapping of the whole (immutable) dataset
    /// file; `None` until the first mapped fetch, or forever on platforms
    /// without `mmap` (fetches fall back to positioned reads).
    mapping: Mutex<Option<Mapping>>,
}

impl std::fmt::Debug for RawSeriesSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawSeriesSource")
            .field("path", &self.dataset.path())
            .field("backend", &self.backend)
            .finish()
    }
}

impl RawSeriesSource {
    /// Wraps `dataset` with the given read backend.
    pub fn new(dataset: Dataset, backend: IoBackend) -> Result<Self> {
        let file = File::open(dataset.path()).map_err(SeriesError::Io)?;
        Ok(RawSeriesSource {
            dataset,
            backend,
            file,
            mapping: Mutex::new(None),
        })
    }

    /// The wrapped dataset handle.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The read backend fetches are served with.
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// Returns `true` while a read mapping of the dataset file is alive.
    pub fn is_mapped(&self) -> bool {
        self.mapping.lock().is_some()
    }

    /// Reads the values of series `id` into `values`, replacing its
    /// contents; `bytes` stages the positioned read (the mapped path decodes
    /// straight out of the mapping and leaves it alone).  A caller that keeps
    /// both buffers across fetches pays no allocation per fetch.
    ///
    /// Both backends produce the same values; neither records any I/O here —
    /// the caller accounts the fetch (one random read of the series' byte
    /// volume), keeping `IoStats` backend-independent by construction.
    pub fn read_values_into(
        &self,
        id: u64,
        bytes: &mut Vec<u8>,
        values: &mut Vec<f32>,
    ) -> Result<()> {
        if self.backend == IoBackend::Mmap && self.read_mapped(id, values)? {
            return Ok(());
        }
        Ok(self.dataset.read_values_into(id, bytes, values)?)
    }

    /// Serves the fetch from the mapping; `Ok(false)` means "fall back to a
    /// positioned read" (platform without mmap, or the kernel refused).
    fn read_mapped(&self, id: u64, values: &mut Vec<f32>) -> Result<bool> {
        // Ids are global file positions: a dataset handle windowed to an id
        // range (service-level sharding) still serves point fetches of any
        // series in the file, so validate against the file count, exactly
        // as the pread path's `read_values_into` does.
        if id >= self.dataset.meta().count {
            return Err(SeriesError::UnknownSeries(id).into());
        }
        let mut mapping = self.mapping.lock();
        if mapping.is_none() {
            // Datasets are immutable once finished, so one mapping of the
            // full file length serves every future fetch.
            match Mapping::map(&self.file, self.dataset.file_size()) {
                Ok(m) => {
                    m.advise(AccessPattern::Random);
                    *mapping = Some(m);
                }
                Err(_) => return Ok(false),
            }
        }
        let m = mapping.as_ref().expect("mapping was just ensured");
        let series_bytes = self.dataset.series_len() * 4;
        let start = HEADER_LEN as usize + id as usize * series_bytes;
        decode_f32_le(&m.as_slice()[start..start + series_bytes], values);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::ScratchDir;

    fn read_values(src: &RawSeriesSource, id: u64) -> Result<Vec<f32>> {
        let mut values = Vec::new();
        src.read_values_into(id, &mut Vec::new(), &mut values)?;
        Ok(values)
    }

    fn dataset(dir: &ScratchDir, n: usize) -> (Vec<coconut_series::Series>, Dataset) {
        let mut gen = RandomWalkGenerator::new(32, 11);
        let series = gen.generate(n);
        let ds = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        (series, ds)
    }

    #[test]
    fn both_backends_return_identical_values() {
        let dir = ScratchDir::new("raw-src").unwrap();
        let (series, ds) = dataset(&dir, 20);
        let pread = RawSeriesSource::new(ds.reopen().unwrap(), IoBackend::Pread).unwrap();
        let mmap = RawSeriesSource::new(ds, IoBackend::Mmap).unwrap();
        for id in [0u64, 7, 19, 3] {
            let a = read_values(&pread, id).unwrap();
            let b = read_values(&mmap, id).unwrap();
            assert_eq!(a, b, "id {id}");
            assert_eq!(a, series[id as usize].values);
        }
        assert!(!pread.is_mapped(), "pread source must never map");
        // Mapping is only guaranteed on 64-bit unix; elsewhere the mmap
        // source silently serves through the positioned-read fallback.
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(mmap.is_mapped(), "mmap source must map on first fetch");
        }
    }

    #[test]
    fn unknown_id_is_an_error_on_both_backends() {
        let dir = ScratchDir::new("raw-src-err").unwrap();
        let (_series, ds) = dataset(&dir, 5);
        for backend in [IoBackend::Pread, IoBackend::Mmap] {
            let src = RawSeriesSource::new(ds.reopen().unwrap(), backend).unwrap();
            assert!(read_values(&src, 5).is_err(), "{backend}");
        }
    }
}
