//! On-disk raw dataset files.
//!
//! Coconut distinguishes *materialized* indexes (which embed the full series
//! next to each summarization) from *non-materialized* indexes (which store
//! only summarization + series id and fetch the raw series from the original
//! data file when needed).  This module implements that raw data file: a
//! simple binary format holding fixed-length `f32` series, supporting
//! sequential streaming reads (for index construction) and random point reads
//! by series id (for non-materialized query refinement).
//!
//! ## File format
//!
//! ```text
//! [ magic: 8 bytes "COCOSER1" ]
//! [ series_len: u32 LE ] [ count: u64 LE ]
//! [ series 0: series_len * f32 LE ]
//! [ series 1: ... ]
//! ```
//!
//! The series id is implicit: series `i` starts at byte
//! `HEADER_LEN + i * series_len * 4`.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::kernels::f32_bytes_mut;
use crate::series::{Series, SeriesId, SeriesMeta};
use crate::{Result, SeriesError};

const MAGIC: &[u8; 8] = b"COCOSER1";
/// Size in bytes of the dataset file header.
pub const HEADER_LEN: u64 = 8 + 4 + 8;

/// Writer that appends series to a new dataset file.
pub struct DatasetWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    series_len: usize,
    count: u64,
}

impl DatasetWriter {
    /// Creates a new dataset file at `path`, truncating any existing file.
    pub fn create<P: AsRef<Path>>(path: P, series_len: usize) -> Result<Self> {
        assert!(series_len > 0, "series length must be positive");
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path.as_ref())?;
        let mut writer = BufWriter::new(file);
        writer.write_all(MAGIC)?;
        writer.write_all(&(series_len as u32).to_le_bytes())?;
        writer.write_all(&0u64.to_le_bytes())?;
        Ok(DatasetWriter {
            path: path.as_ref().to_path_buf(),
            writer,
            series_len,
            count: 0,
        })
    }

    /// Appends a series, returning the id it was assigned.
    pub fn append(&mut self, values: &[f32]) -> Result<SeriesId> {
        if values.len() != self.series_len {
            return Err(SeriesError::LengthMismatch {
                expected: self.series_len,
                actual: values.len(),
            });
        }
        for v in values {
            self.writer.write_all(&v.to_le_bytes())?;
        }
        let id = self.count;
        self.count += 1;
        Ok(id)
    }

    /// Appends every series in the iterator, in order.
    pub fn append_all<'a, I: IntoIterator<Item = &'a Series>>(&mut self, series: I) -> Result<()> {
        for s in series {
            self.append(&s.values)?;
        }
        Ok(())
    }

    /// Number of series written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finalizes the file (rewrites the header with the final count) and
    /// returns a [`Dataset`] handle for reading it back.
    pub fn finish(mut self) -> Result<Dataset> {
        self.writer.flush()?;
        let mut file = self
            .writer
            .into_inner()
            .map_err(|e| SeriesError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(8 + 4))?;
        file.write_all(&self.count.to_le_bytes())?;
        file.sync_all()?;
        Dataset::open(&self.path)
    }
}

/// Read-only handle to a dataset file, optionally restricted to a
/// contiguous id window.
///
/// Cloning the handle is cheap (it re-opens the file), and reads are
/// positioned, so a `Dataset` can be shared across index variants.
///
/// A *windowed* handle (see [`Dataset::open_range`]) exposes only the
/// series in `[lo, hi)` — [`Dataset::len`] and [`Dataset::iter`] cover the
/// window — but ids stay **global** (a series' id is its position in the
/// file), so an index built over a window reports the same ids as an index
/// built over the whole file, and point reads by global id keep working.
/// This is the primitive behind service-level sharding: each worker builds
/// over its own key range of the shared dataset file and the coordinator's
/// merged answers carry globally unique ids with no translation.
pub struct Dataset {
    path: PathBuf,
    file: File,
    meta: SeriesMeta,
    /// The visible id window `[view_lo, view_hi)`; the full file when
    /// opened through [`Dataset::open`].
    view_lo: u64,
    view_hi: u64,
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("path", &self.path)
            .field("meta", &self.meta)
            .finish()
    }
}

impl Dataset {
    /// Opens an existing dataset file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SeriesError::BadHeader(format!(
                "bad magic {:?} in {}",
                magic,
                path.as_ref().display()
            )));
        }
        let mut len_buf = [0u8; 4];
        file.read_exact(&mut len_buf)?;
        let series_len = u32::from_le_bytes(len_buf) as usize;
        if series_len == 0 {
            return Err(SeriesError::BadHeader("series length is zero".into()));
        }
        let mut count_buf = [0u8; 8];
        file.read_exact(&mut count_buf)?;
        let count = u64::from_le_bytes(count_buf);
        Ok(Dataset {
            path: path.as_ref().to_path_buf(),
            file,
            meta: SeriesMeta { series_len, count },
            view_lo: 0,
            view_hi: count,
        })
    }

    /// Opens an existing dataset file restricted to the id window
    /// `[lo, hi)`.  Ids remain global (see the type docs); only
    /// [`Dataset::len`], [`Dataset::iter`] and [`Dataset::contains`] are
    /// narrowed.
    pub fn open_range<P: AsRef<Path>>(path: P, lo: u64, hi: u64) -> Result<Self> {
        let mut ds = Dataset::open(path)?;
        if lo > hi || hi > ds.meta.count {
            return Err(SeriesError::BadHeader(format!(
                "invalid dataset range [{lo}, {hi}) over {} series",
                ds.meta.count
            )));
        }
        ds.view_lo = lo;
        ds.view_hi = hi;
        Ok(ds)
    }

    /// Builds a dataset file at `path` from in-memory series and opens it.
    pub fn create_from_series<P: AsRef<Path>>(path: P, series: &[Series]) -> Result<Self> {
        assert!(!series.is_empty(), "cannot create an empty dataset");
        let mut w = DatasetWriter::create(path, series[0].len())?;
        w.append_all(series.iter())?;
        w.finish()
    }

    /// Dataset metadata (series length and count).
    pub fn meta(&self) -> SeriesMeta {
        self.meta
    }

    /// Number of series visible through this handle (the window size for a
    /// handle from [`Dataset::open_range`], the file count otherwise).
    pub fn len(&self) -> u64 {
        self.view_hi - self.view_lo
    }

    /// Returns `true` when the handle exposes no series.
    pub fn is_empty(&self) -> bool {
        self.view_hi == self.view_lo
    }

    /// The visible id window `[lo, hi)`.
    pub fn id_range(&self) -> (u64, u64) {
        (self.view_lo, self.view_hi)
    }

    /// Whether `id` falls inside the visible window.
    pub fn contains(&self, id: SeriesId) -> bool {
        id >= self.view_lo && id < self.view_hi
    }

    /// Length of each series in the dataset.
    pub fn series_len(&self) -> usize {
        self.meta.series_len
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Size of the dataset file in bytes.
    pub fn file_size(&self) -> u64 {
        HEADER_LEN + self.meta.count * (self.meta.series_len as u64) * 4
    }

    /// Reads the series with the given id (a random positioned read).
    pub fn read_series(&self, id: SeriesId) -> Result<Series> {
        let mut values = Vec::new();
        self.read_values_into(id, &mut Vec::new(), &mut values)?;
        Ok(Series::new(id, values))
    }

    /// Reads the values of series `id` into `values` (one random positioned
    /// read), staging the file bytes in `bytes`.  Both buffers are
    /// overwritten, so a caller that keeps them across reads pays no
    /// allocation per series.
    pub fn read_values_into(
        &self,
        id: SeriesId,
        bytes: &mut Vec<u8>,
        values: &mut Vec<f32>,
    ) -> Result<()> {
        if id >= self.meta.count {
            return Err(SeriesError::UnknownSeries(id));
        }
        let offset = HEADER_LEN + id * (self.meta.series_len as u64) * 4;
        bytes.resize(self.meta.series_len * 4, 0);
        read_exact_at(&self.file, bytes, offset)?;
        decode_f32_le(bytes, values);
        Ok(())
    }

    /// Returns a sequential iterator over the visible series, yielding
    /// their global ids.
    pub fn iter(&self) -> Result<DatasetReader> {
        DatasetReader::new(&self.path, self.view_lo, self.view_hi)
    }

    /// Re-opens the dataset, preserving the id window (useful to hand
    /// independent handles to threads).
    pub fn reopen(&self) -> Result<Dataset> {
        Dataset::open_range(&self.path, self.view_lo, self.view_hi)
    }
}

/// Decodes little-endian `f32`s (the on-disk form of series values, in the
/// dataset file and in materialized index entries alike) into `values`,
/// replacing its contents.
pub fn decode_f32_le(bytes: &[u8], values: &mut Vec<f32>) {
    values.clear();
    values.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Series per block of a [`DatasetReader`] scan: 1 MiB of 256-point series.
pub const BLOCK_ROWS: usize = 1024;

/// Streaming sequential reader over a dataset file (or an id window of
/// one); yields global ids.
///
/// A scan reads whole blocks of rows ([`DatasetReader::next_block`]) with
/// one positioned read each, straight into a single reused value buffer
/// that is then decoded in place.  The per-series [`Iterator`] is a
/// one-row read through the same loop.
pub struct DatasetReader {
    file: File,
    meta: SeriesMeta,
    next_id: SeriesId,
    end_id: SeriesId,
    /// The rows of the last read, one after another.
    block: Vec<f32>,
}

impl DatasetReader {
    fn new(path: &Path, lo: SeriesId, hi: SeriesId) -> Result<Self> {
        let ds = Dataset::open(path)?;
        Ok(DatasetReader {
            file: ds.file,
            meta: ds.meta,
            next_id: lo,
            end_id: hi.min(ds.meta.count),
            block: Vec::new(),
        })
    }

    /// Reads the next [`BLOCK_ROWS`] series (fewer at the end of the
    /// window).  Returns the id of the first and the values of all of them,
    /// row after row; the values are empty once the scan is done.  The
    /// slice borrows the reader's buffer, which the next read overwrites.
    pub fn next_block(&mut self) -> Result<(SeriesId, &[f32])> {
        self.read_rows(BLOCK_ROWS)
    }

    /// The values the last read returned.
    pub fn block(&self) -> &[f32] {
        &self.block
    }

    fn read_rows(&mut self, rows: usize) -> Result<(SeriesId, &[f32])> {
        let first = self.next_id;
        let rows = (self.end_id - first).min(rows as u64) as usize;
        let series_len = self.meta.series_len;
        self.block.resize(rows * series_len, 0.0);
        let offset = HEADER_LEN + first * (series_len as u64) * 4;
        read_exact_at(&self.file, f32_bytes_mut(&mut self.block), offset)?;
        // The file holds little-endian words: a no-op on little-endian hosts.
        for v in &mut self.block {
            *v = f32::from_bits(u32::from_le(v.to_bits()));
        }
        self.next_id += rows as u64;
        Ok((first, &self.block))
    }
}

impl Iterator for DatasetReader {
    type Item = Result<Series>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.read_rows(1) {
            Ok((_, [])) => None,
            Ok((id, values)) => Some(Ok(Series::new(id, values.to_vec()))),
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{RandomWalkGenerator, SeriesGenerator};

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "coconut-series-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn roundtrip_write_read() {
        let path = temp_path("roundtrip.bin");
        let mut gen = RandomWalkGenerator::new(64, 99);
        let series = gen.generate(50);
        let ds = Dataset::create_from_series(&path, &series).unwrap();
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.series_len(), 64);
        for s in &series {
            let back = ds.read_series(s.id).unwrap();
            assert_eq!(back.values, s.values);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequential_iteration_matches_point_reads() {
        let path = temp_path("seq.bin");
        let mut gen = RandomWalkGenerator::new(32, 5);
        let series = gen.generate(20);
        let ds = Dataset::create_from_series(&path, &series).unwrap();
        let scanned: Vec<Series> = ds.iter().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), 20);
        for (i, s) in scanned.iter().enumerate() {
            assert_eq!(s.id, i as u64);
            assert_eq!(s.values, series[i].values);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A block scan of a window covers it in whole blocks and a short last
    /// one, with the ids and values of the point reads, and then stops; it
    /// agrees with the per-series iterator.
    #[test]
    fn block_scan_covers_the_window() {
        let path = temp_path("blocks.bin");
        let mut gen = RandomWalkGenerator::new(8, 4);
        let series = gen.generate(2 * BLOCK_ROWS + 100);
        Dataset::create_from_series(&path, &series).unwrap();
        let (lo, hi) = (3u64, 2 * BLOCK_ROWS as u64 + 60);
        let ds = Dataset::open_range(&path, lo, hi).unwrap();
        let mut reader = ds.iter().unwrap();
        let mut next = lo;
        let mut sizes = Vec::new();
        loop {
            let (first, values) = reader.next_block().unwrap();
            if values.is_empty() {
                break;
            }
            assert_eq!(first, next);
            for (i, row) in values.chunks_exact(8).enumerate() {
                assert_eq!(row, series[first as usize + i].values.as_slice());
            }
            sizes.push(values.len() / 8);
            next += (values.len() / 8) as u64;
        }
        assert_eq!(next, hi);
        assert_eq!(sizes, [BLOCK_ROWS, BLOCK_ROWS, 57]);
        let scanned: Vec<Series> = ds.iter().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len() as u64, hi - lo);
        assert!(scanned
            .iter()
            .all(|s| s.values == series[s.id as usize].values));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let path = temp_path("truncated.bin");
        let mut gen = RandomWalkGenerator::new(16, 6);
        let ds = Dataset::create_from_series(&path, &gen.generate(10)).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(ds.file_size() - 4).unwrap();
        assert!(matches!(
            ds.iter().unwrap().next_block(),
            Err(SeriesError::Io(_))
        ));
        let rows: Vec<_> = ds.iter().unwrap().take(10).collect();
        assert!(rows[..9].iter().all(|r| r.is_ok()));
        assert!(matches!(rows[9], Err(SeriesError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_series_id_is_an_error() {
        let path = temp_path("unknown.bin");
        let mut gen = RandomWalkGenerator::new(16, 1);
        let ds = Dataset::create_from_series(&path, &gen.generate(3)).unwrap();
        assert!(matches!(
            ds.read_series(3),
            Err(SeriesError::UnknownSeries(3))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn length_mismatch_rejected() {
        let path = temp_path("mismatch.bin");
        let mut w = DatasetWriter::create(&path, 8).unwrap();
        assert!(w.append(&[0.0; 8]).is_ok());
        assert!(matches!(
            w.append(&[0.0; 9]),
            Err(SeriesError::LengthMismatch {
                expected: 8,
                actual: 9
            })
        ));
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("badmagic.bin");
        std::fs::write(&path, b"NOTRIGHTxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            Dataset::open(&path),
            Err(SeriesError::BadHeader(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_size_accounts_header_and_payload() {
        let path = temp_path("size.bin");
        let mut gen = RandomWalkGenerator::new(16, 2);
        let ds = Dataset::create_from_series(&path, &gen.generate(10)).unwrap();
        assert_eq!(ds.file_size(), HEADER_LEN + 10 * 16 * 4);
        let actual = std::fs::metadata(&path).unwrap().len();
        assert_eq!(actual, ds.file_size());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_view_keeps_global_ids() {
        let path = temp_path("window.bin");
        let mut gen = RandomWalkGenerator::new(16, 7);
        let series = gen.generate(10);
        Dataset::create_from_series(&path, &series).unwrap();
        let ds = Dataset::open_range(&path, 3, 7).unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.id_range(), (3, 7));
        assert!(ds.contains(3) && ds.contains(6));
        assert!(!ds.contains(2) && !ds.contains(7));
        let scanned: Vec<Series> = ds.iter().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), 4);
        for (offset, s) in scanned.iter().enumerate() {
            assert_eq!(s.id, 3 + offset as u64);
            assert_eq!(s.values, series[3 + offset].values);
        }
        // Point reads by global id stay file-wide: refinement fetches may
        // target any series of the shared file.
        assert_eq!(ds.read_series(0).unwrap().values, series[0].values);
        assert_eq!(ds.read_series(9).unwrap().values, series[9].values);
        // The window is preserved across reopen.
        let ds2 = ds.reopen().unwrap();
        assert_eq!(ds2.len(), 4);
        assert_eq!(ds2.id_range(), (3, 7));
        // Invalid windows are rejected.
        assert!(Dataset::open_range(&path, 5, 4).is_err());
        assert!(Dataset::open_range(&path, 0, 11).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_gives_independent_handle() {
        let path = temp_path("reopen.bin");
        let mut gen = RandomWalkGenerator::new(16, 3);
        let ds = Dataset::create_from_series(&path, &gen.generate(4)).unwrap();
        let ds2 = ds.reopen().unwrap();
        assert_eq!(ds2.len(), ds.len());
        assert_eq!(
            ds.read_series(2).unwrap().values,
            ds2.read_series(2).unwrap().values
        );
        std::fs::remove_file(&path).unwrap();
    }
}
