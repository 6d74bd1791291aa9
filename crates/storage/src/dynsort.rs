//! Bounded-memory two-pass external merge sort and sorted run files.
//!
//! Coconut's central mechanism is that sortable summarizations let index
//! construction and maintenance be expressed as *sorting*, which can be done
//! with sequential I/O only and with an arbitrarily small memory budget:
//!
//! 1. **Run generation** — the input is consumed in memory-budget-sized
//!    chunks; each chunk is sorted in memory and written out sequentially as
//!    a *run* file.
//! 2. **Merge** — all runs are merged with a k-way merge, reading each run
//!    sequentially through a small per-run buffer.
//!
//! When the whole input fits in the memory budget the sorter degenerates to
//! a plain in-memory sort and performs no I/O.
//!
//! Records are described by a runtime [`RecordLayout`], because index
//! entries have a size that depends on the configuration (a *materialized*
//! entry embeds the full series, whose length is chosen per dataset).
//! CoconutTree bulk loading, CoconutLSM flushing/merging and the BTP
//! streaming partitions are all built on these runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::durability::{self, Job};
use crate::file::{read_ahead_with, PagedFile, ReadAheadBuffers};
use crate::iostats::{LogicalAccountant, SharedIoStats};
use crate::knobs::PerfKnobs;
use crate::mmap::IoBackend;
use crate::page::DEFAULT_PAGE_SIZE;
use crate::{record_offset, record_range, Result, StorageError};

/// Describes how to encode, decode and order records of a runtime-known
/// fixed size.
///
/// Layouts and records must be shareable with / movable to worker threads
/// (`Sync` / `Send`): the run writer and the merge read-ahead run beside the
/// sorting thread.
pub trait RecordLayout: Clone + Send + Sync {
    /// The in-memory record type.
    type Record: Clone + Send;
    /// The sort key type.
    type Key: Ord + Clone;

    /// Encoded size of every record under this layout, in bytes.
    fn record_size(&self) -> usize;

    /// Encodes `record` into `buf` (exactly `record_size()` bytes).
    fn encode(&self, record: &Self::Record, buf: &mut [u8]);

    /// Decodes a record from `buf` (exactly `record_size()` bytes).
    fn decode(&self, buf: &[u8]) -> Self::Record;

    /// Returns the record's sort key.
    fn key(&self, record: &Self::Record) -> Self::Key;

    /// Length of the value tail that ends every encoded record (materialized
    /// series values, which key-only scans never read); the rest of the
    /// record is its head.  A run of a layout with a tail keeps heads and
    /// tails in two files (see [`DynRunWriter::create`]).  The default is
    /// no tail: the whole record is its head.
    fn tail_len(&self) -> usize {
        0
    }

    /// Decodes a record from its head (`record_size() - tail_len()` bytes)
    /// and its value tail (`tail_len()` bytes), the two halves runs hand
    /// records out as.  The default joins them for [`RecordLayout::decode`];
    /// a layout with a tail overrides it to read each half in place.
    fn decode_parts(&self, head: &[u8], tail: &[u8]) -> Self::Record {
        if tail.is_empty() {
            return self.decode(head);
        }
        let mut record = Vec::with_capacity(head.len() + tail.len());
        record.extend_from_slice(head);
        record.extend_from_slice(tail);
        self.decode(&record)
    }
}

/// The non-generic storage engine under a [`DynRunFile`]: the run's file(s)
/// in one of two [`RunFormat`]s.  All record framing and accounting lives
/// here so readers, clones and prefetch workers share one state without
/// dragging the layout type parameter into `'static` closure bounds.
///
/// Reads hand records out *column-wise*: the heads of the records read
/// (`head_size()` bytes each), then their value tails.  A layout without a
/// tail has head == record: there the bytes are plain records.
pub(crate) struct RunBody {
    /// The rows, or the heads of a split run.
    file: PagedFile,
    record_size: usize,
    tail_len: usize,
    count: u64,
    format: RunFormat,
}

/// How a run lays its records out on disk.
enum RunFormat {
    /// A layout without a value tail: whole records back to back, the file
    /// charging both `IoStats` views itself.
    Rows,
    /// A layout with a value tail: record `i`'s head at `i × head_size` in
    /// the run's file, its tail at `i × tail_len` in the [`tail_path`] file;
    /// no header or footer, so the two lengths add up to the row file's.
    /// Both files charge physical bytes only; `logical` replays the row
    /// file's page walk, its cursor carried from the writer into the
    /// finished run as `PagedFile`'s own cursor is.
    Split {
        tails: PagedFile,
        logical: LogicalAccountant,
    },
}

/// Path of the file holding the value tails of the split run at `path`.
fn tail_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tail");
    PathBuf::from(name)
}

impl RunBody {
    /// Bytes of a record's head: the record less its value tail.
    fn head_size(&self) -> usize {
        self.record_size - self.tail_len
    }

    /// The tail file of a split run.
    fn tail_file(&self) -> Option<&PagedFile> {
        match &self.format {
            RunFormat::Split { tails, .. } => Some(tails),
            RunFormat::Rows => None,
        }
    }

    /// The run's files: its own, then the tail file of a split run.
    fn files(&self) -> impl Iterator<Item = &PagedFile> {
        std::iter::once(&self.file).chain(self.tail_file())
    }

    /// `count` clamped to the records left from `index`.
    fn clamp(&self, index: u64, count: usize) -> usize {
        count.min(self.count.saturating_sub(index) as usize)
    }

    /// Reads `count` records starting at `index` (clamped to the run
    /// length), column-wise (see [`RunBody`]): their heads, then their
    /// tails.  Both formats charge the logical view exactly one positioned
    /// read of the requested record range of the row file.
    fn read(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        let count = self.clamp(index, count);
        if count == 0 {
            return Ok(Vec::new());
        }
        let (offset, bytes) = record_range(index, count, self.record_size)?;
        let RunFormat::Split {
            tails: tail_file,
            logical,
        } = &self.format
        else {
            return self.file.read_at(offset, bytes);
        };
        // One buffer filled in place: merges read through here, and a second
        // buffer for the tails, appended, cost `stream-window` a third of its
        // ingest rate.
        let (head, tail) = (self.head_size(), self.tail_len);
        let mut records = vec![0u8; bytes];
        let (heads, tails) = records.split_at_mut(count * head);
        self.file.read_into(record_offset(index, head)?, heads)?;
        tail_file.read_into(record_offset(index, tail)?, tails)?;
        logical.account(offset, bytes, true);
        Ok(records)
    }

    /// Reads only the heads (key and pointer fields) of `count` records
    /// starting at `index`: a split run's heads file.  The logical view is
    /// charged the full records, as the row format reads them.
    fn read_heads(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        let mut heads = Vec::new();
        self.read_heads_into(index, count, &mut heads)?;
        Ok(heads)
    }

    /// [`RunBody::read_heads`] into `heads`, whose length becomes the bytes
    /// read (a scan reuses one buffer from block to block).
    fn read_heads_into(&self, index: u64, count: usize, heads: &mut Vec<u8>) -> Result<()> {
        let count = self.clamp(index, count);
        if count == 0 {
            heads.clear();
            return Ok(());
        }
        let (offset, bytes) = record_range(index, count, self.record_size)?;
        match &self.format {
            RunFormat::Rows => {
                heads.resize(bytes, 0);
                self.file.read_into(offset, heads)
            }
            RunFormat::Split { logical, .. } => {
                let head = self.head_size();
                heads.resize(count * head, 0);
                self.file.read_into(record_offset(index, head)?, heads)?;
                logical.account(offset, bytes, true);
                Ok(())
            }
        }
    }

    /// Reads only the value tails of `count` records starting at `index`
    /// (clamped to the run length); see [`RunBody::read_tails_into`].
    fn read_tails(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        let mut tails = vec![0u8; self.clamp(index, count) * self.tail_len];
        self.read_tails_into(index, &mut tails)?;
        Ok(tails)
    }

    /// Fills `tails` with the value tails of the records from `index` on,
    /// as many as it holds: one read of a split run's tail file.  Physical
    /// bytes only: the heads were charged the records.
    fn read_tails_into(&self, index: u64, tails: &mut [u8]) -> Result<()> {
        let tail = self.tail_len;
        let count = tails.len().checked_div(tail).unwrap_or(0);
        if count == 0 {
            return Ok(());
        }
        if count * tail != tails.len() || self.clamp(index, count) != count {
            return Err(StorageError::Corrupt(
                "value tail read off a record boundary or past the run".into(),
            ));
        }
        match self.tail_file() {
            Some(file) => file.read_into(record_offset(index, tail)?, tails),
            // A row layout has no tail.
            None => Ok(()),
        }
    }

    /// The durability job that fdatasyncs every file of the run.
    fn sync_job(body: &Arc<RunBody>) -> Job {
        let run = Arc::clone(body);
        let sync = move || {
            for file in run.files() {
                file.sync().map_err(|e| {
                    std::io::Error::other(format!("fdatasync of {}: {e}", file.path().display()))
                })?;
            }
            Ok(())
        };
        Job::new(sync, Vec::new())
    }
}

/// A file of records with a shared [`RecordLayout`].
pub struct DynRunFile<L: RecordLayout> {
    layout: L,
    body: Arc<RunBody>,
}

impl<L: RecordLayout> Clone for DynRunFile<L> {
    fn clone(&self) -> Self {
        DynRunFile {
            layout: self.layout.clone(),
            body: Arc::clone(&self.body),
        }
    }
}

impl<L: RecordLayout> std::fmt::Debug for DynRunFile<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynRunFile")
            .field("path", &self.body.file.path())
            .field("count", &self.body.count)
            .finish()
    }
}

impl<L: RecordLayout> DynRunFile<L> {
    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.body.count
    }

    /// Returns `true` when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.body.count == 0
    }

    /// Size in bytes: `records × record_size`, what the run's files occupy
    /// on disk (summed over both files of a split run).
    pub fn byte_size(&self) -> u64 {
        self.body.count * self.layout.record_size() as u64
    }

    /// Path of the run's file (the heads file of a split run).
    pub fn path(&self) -> &Path {
        self.body.file.path()
    }

    /// Paths of the run's files: [`DynRunFile::path`], then `<path>.tail`
    /// for a run of a layout with a value tail.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        self.body.files().map(PagedFile::path)
    }

    /// The layout records are encoded with.
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Reads the record at `index` (positioned read).
    pub fn read_record(&self, index: u64) -> Result<L::Record> {
        if index >= self.body.count {
            return Err(StorageError::Corrupt(format!(
                "record {index} out of bounds in a run of {}",
                self.body.count
            )));
        }
        let buf = self.body.read(index, 1)?;
        let record = self.decode_raw(&buf).next();
        record.ok_or_else(|| StorageError::Corrupt(format!("record {index} read short")))
    }

    /// Reads up to `count` records starting at `index`.
    pub fn read_range(&self, index: u64, count: usize) -> Result<Vec<L::Record>> {
        let buf = self.body.read(index, count)?;
        Ok(self.decode_raw(&buf).collect())
    }

    /// Reads up to `count` records starting at `index` as raw bytes, their
    /// heads then their tails (plain records for a layout without a tail),
    /// for callers that decode lazily with [`DynRunFile::decode_raw`].
    pub fn read_raw(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        self.body.read(index, count)
    }

    /// The records of bytes returned by [`DynRunFile::read_raw`], each
    /// decoded from its head and its tail in place.
    pub fn decode_raw<'a>(&'a self, bytes: &'a [u8]) -> impl Iterator<Item = L::Record> + 'a {
        let (head, tail) = (self.head_size(), self.body.tail_len);
        let count = bytes.len() / self.layout.record_size().max(1);
        let (heads, tails) = bytes.split_at(count * head);
        (0..count).map(move |i| {
            self.layout.decode_parts(
                &heads[i * head..(i + 1) * head],
                &tails[i * tail..(i + 1) * tail],
            )
        })
    }

    /// Reads the per-record head bytes (`head_size()` each — the record
    /// less its value tail) of up to `count` records starting at `index`.
    /// Whenever the layout has a value tail, this reads strictly fewer
    /// physical bytes than [`DynRunFile::read_raw`]; logical accounting is
    /// identical to a full-record read on every path.
    pub fn read_heads_raw(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        self.body.read_heads(index, count)
    }

    /// [`DynRunFile::read_heads_raw`] into `heads`, whose length becomes
    /// the bytes read: a scan reuses one buffer from block to block.
    pub fn read_heads_into(&self, index: u64, count: usize, heads: &mut Vec<u8>) -> Result<()> {
        self.body.read_heads_into(index, count, heads)
    }

    /// Reads the value tails of up to `count` records starting at `index`.
    /// Physical bytes only: it completes a [`DynRunFile::read_heads_raw`]
    /// of the same records, which charged their logical view.
    pub fn read_tails_raw(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        self.body.read_tails(index, count)
    }

    /// Fills `tails` with the value tails of the records from `index` on,
    /// as many as it holds (a whole number of tails, all inside the run):
    /// one positioned read of the run's `.tail` file.  Physical bytes only,
    /// as [`DynRunFile::read_tails_raw`]; a scan reads several ranges of one
    /// block this way into one buffer.
    pub fn read_tails_into(&self, index: u64, tails: &mut [u8]) -> Result<()> {
        self.body.read_tails_into(index, tails)
    }

    /// Bytes per record returned by [`DynRunFile::read_heads_raw`].
    pub fn head_size(&self) -> usize {
        self.body.head_size()
    }

    /// Sequential reader with a buffer of `buffer_records` records.
    pub fn reader(&self, buffer_records: usize) -> DynRunReader<L> {
        self.reader_from(buffer_records, None)
    }

    /// Like [`DynRunFile::reader`], reading each next buffer ahead on a
    /// background thread while the caller consumes the current one, once at
    /// least `min_bytes` of the run are left to read (the sorter's merge
    /// passes [`crate::PREFETCH_MIN_BYTES`]).  Read-ahead issues exactly the
    /// same reads in the same order, so the I/O accounting is unchanged;
    /// `min_bytes` only decides whether a thread is spawned.
    pub fn read_ahead_reader(&self, buffer_records: usize, min_bytes: usize) -> DynRunReader<L> {
        self.reader_from(buffer_records, Some(min_bytes))
    }

    fn reader_from(
        &self,
        buffer_records: usize,
        read_ahead_from: Option<usize>,
    ) -> DynRunReader<L> {
        DynRunReader {
            run: self.clone(),
            buffer: VecDeque::new(),
            next_index: 0,
            buffer_records: buffer_records.max(1),
            read_ahead_from,
            prefetcher: None,
        }
    }

    /// Advises the kernel how the run's mapped pages are about to be
    /// accessed (mmap backend only; see
    /// [`PagedFile::advise_read_pattern`]).  Merge/scan range readers pass
    /// `Sequential`, query-time block probes `Random`; accounting is
    /// unaffected either way.
    pub fn advise_read_pattern(&self, pattern: crate::mmap::AccessPattern) {
        for file in self.body.files() {
            file.advise_read_pattern(pattern);
        }
    }

    /// Returns `true` while any file of the run holds a live read mapping.
    pub fn is_mapped(&self) -> bool {
        self.body.files().any(PagedFile::is_mapped)
    }

    /// Number of fdatasync rounds that covered every file of the run
    /// (durable finishes sync exactly once; volatile finishes never do).
    pub fn sync_count(&self) -> u64 {
        let counts = self.body.files().map(PagedFile::sync_count);
        counts.min().unwrap_or_default()
    }

    /// Number of appends (write syscalls) the run was written with, over
    /// all its files.
    pub fn write_count(&self) -> u64 {
        self.body.files().map(PagedFile::write_count).sum()
    }

    /// Deletes the run's files.  Their read mappings are dropped *before*
    /// the unlink, so no clone of this run — a compaction reader, a query
    /// unit — can keep serving reads through a mapping of a deleted file.
    pub fn delete(self) -> Result<()> {
        for path in Self::retire(self.body) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Retires `inputs`, whose records the durably finished `outputs` now
    /// hold.  The inputs stop serving mapped reads at once; their files are
    /// unlinked by the durability worker, in a job queued behind the
    /// outputs' syncs, and only if every one of those syncs succeeded, for
    /// every file of every output — an input never leaves the disk before
    /// the run replacing it is durable.
    pub fn replace(outputs: &[&DynRunFile<L>], inputs: Vec<DynRunFile<L>>) -> Result<()> {
        durability::submit(Self::replace_job(outputs, inputs))
    }

    fn replace_job(outputs: &[&DynRunFile<L>], inputs: Vec<DynRunFile<L>>) -> Job {
        let outputs: Vec<Arc<RunBody>> = outputs.iter().map(|o| Arc::clone(&o.body)).collect();
        let unlink: Vec<PathBuf> = inputs
            .into_iter()
            .flat_map(|input| Self::retire(input.body))
            .collect();
        let kept = unlink.len();
        let outputs_durable = move || {
            let mut files = outputs.iter().flat_map(|o| o.files());
            match files.find(|f| f.sync_count() == 0) {
                None => Ok(()),
                // Its sync failed (and was reported); a retry would not bring
                // back pages the kernel already dropped.
                Some(file) => Err(std::io::Error::other(format!(
                    "{} was never synced, so the {kept} run file(s) it replaces stay on disk",
                    file.path().display()
                ))),
            }
        };
        Job::new(outputs_durable, unlink)
    }

    /// Drops a departing run's read mappings; returns its files' paths.
    fn retire(body: Arc<RunBody>) -> Vec<PathBuf> {
        body.files()
            .map(|file| {
                file.unmap();
                file.path().to_path_buf()
            })
            .collect()
    }
}

/// Bytes a run writer gathers before it appends them to its file.
const APPEND_BYTES: usize = 64 * 1024;

/// The non-generic write engine under a [`DynRunWriter`]; see [`RunBody`].
///
/// Records accumulate in a buffer appended to the file whenever it reaches
/// [`APPEND_BYTES`] (or one page / one record, if larger), one `pwrite` per
/// file each; the bytes are identical whatever the cadence.  A split run
/// appends its heads and tails buffers together, and charges the logical
/// view with the row writer's appends ([`LogicalWrites`]).
struct RunBodyWriter {
    file: PagedFile,
    record_size: usize,
    tail_len: usize,
    /// Records not yet appended — their heads alone for a split run.
    buffer: Vec<u8>,
    count: u64,
    flush_bytes: usize,
    format: WriterFormat,
}

/// The writer's side of a [`RunFormat`].
enum WriterFormat {
    Rows,
    Split {
        tails: PagedFile,
        /// Value tails of the records in `buffer`.
        tail_buffer: Vec<u8>,
        logical: LogicalWrites,
    },
}

/// The row writer's appends, replayed on a virtual row file for the logical
/// view of a split run: the same threshold, checked after each record.
struct LogicalWrites {
    accountant: LogicalAccountant,
    /// Bytes of the virtual row file not yet charged.
    pending: usize,
    /// Offset of the next charge in the virtual row file.
    offset: u64,
}

impl LogicalWrites {
    /// Counts a record; `true` (the append charged) when the row writer
    /// would append now.
    fn push(&mut self, record_size: usize, flush_bytes: usize) -> bool {
        self.pending += record_size;
        if self.pending < flush_bytes {
            return false;
        }
        self.flush();
        true
    }

    /// Charges the row writer's append of what is pending.
    fn flush(&mut self) {
        if self.pending > 0 {
            self.accountant.account(self.offset, self.pending, false);
            self.offset += self.pending as u64;
            self.pending = 0;
        }
    }
}

impl RunBodyWriter {
    fn create(
        path: &Path,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
        record_size: usize,
        tail_len: usize,
    ) -> Result<Self> {
        let flush_bytes = page_size.max(record_size).max(APPEND_BYTES);
        // The threshold is checked after a push, so a buffer overshoots it by
        // up to one record.
        let capacity = flush_bytes + record_size;
        let create = |path: &Path| -> Result<PagedFile> {
            let file = PagedFile::create_with_page_size(path, Arc::clone(&stats), page_size)?;
            Ok(file.with_backend(backend))
        };
        let file = create(path)?;
        let (file, format) = if tail_len == 0 {
            (file, WriterFormat::Rows)
        } else {
            // A split run charges its logical view through `LogicalWrites`;
            // its files must then only report physical traffic or every
            // access would be double-counted.
            let format = WriterFormat::Split {
                tails: create(&tail_path(path))?.with_physical_only_accounting(),
                tail_buffer: Vec::with_capacity(capacity),
                logical: LogicalWrites {
                    accountant: LogicalAccountant::new(Arc::clone(&stats), page_size),
                    pending: 0,
                    offset: 0,
                },
            };
            (file.with_physical_only_accounting(), format)
        };
        Ok(RunBodyWriter {
            file,
            record_size,
            tail_len,
            buffer: Vec::with_capacity(capacity),
            count: 0,
            flush_bytes,
            format,
        })
    }

    /// Appends one record; `encode` fills the freshly reserved
    /// `record_size` bytes in place.
    fn push_record(&mut self, encode: impl FnOnce(&mut [u8])) -> Result<()> {
        let start = self.buffer.len();
        self.buffer.resize(start + self.record_size, 0);
        encode(&mut self.buffer[start..]);
        self.count += 1;
        match &mut self.format {
            WriterFormat::Rows => {
                if self.buffer.len() >= self.flush_bytes {
                    self.file.append(&self.buffer)?;
                    self.buffer.clear();
                }
            }
            WriterFormat::Split {
                tails,
                tail_buffer,
                logical,
            } => {
                let head_end = start + self.record_size - self.tail_len;
                tail_buffer.extend_from_slice(&self.buffer[head_end..]);
                self.buffer.truncate(head_end);
                if logical.push(self.record_size, self.flush_bytes) {
                    self.file.append(&self.buffer)?;
                    tails.append(tail_buffer)?;
                    self.buffer.clear();
                    tail_buffer.clear();
                }
            }
        }
        Ok(())
    }

    /// Appends what is buffered and returns the readable run.  A `durable`
    /// finish also queues the `fdatasync` of the run's files on the
    /// durability worker, as one job.
    fn finish(self, durable: bool) -> Result<Arc<RunBody>> {
        let format = match self.format {
            WriterFormat::Rows => {
                if !self.buffer.is_empty() {
                    self.file.append(&self.buffer)?;
                }
                RunFormat::Rows
            }
            WriterFormat::Split {
                tails,
                tail_buffer,
                mut logical,
            } => {
                if !self.buffer.is_empty() {
                    self.file.append(&self.buffer)?;
                    tails.append(&tail_buffer)?;
                }
                logical.flush();
                RunFormat::Split {
                    tails,
                    logical: logical.accountant,
                }
            }
        };
        let body = Arc::new(RunBody {
            file: self.file,
            record_size: self.record_size,
            tail_len: self.tail_len,
            count: self.count,
            format,
        });
        if durable {
            durability::submit(RunBody::sync_job(&body))?;
        }
        Ok(body)
    }
}

/// Appends records to a new dynamic run file.
pub struct DynRunWriter<L: RecordLayout> {
    layout: L,
    body: RunBodyWriter,
}

impl<L: RecordLayout> DynRunWriter<L> {
    /// Creates a new run at `path`, whose finished file serves its reads
    /// with `backend`.  A layout without a value tail is written as the
    /// rows of one file; a layout with a tail (a materialized index entry)
    /// keeps the heads at `path` and the tails in `<path>.tail`.
    pub fn create<P: AsRef<Path>>(
        layout: L,
        path: P,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
    ) -> Result<Self> {
        let (record_size, tail_len) = (layout.record_size(), layout.tail_len());
        debug_assert!(tail_len < record_size, "a record's head is never empty");
        let body = RunBodyWriter::create(
            path.as_ref(),
            stats,
            page_size,
            backend,
            record_size,
            tail_len,
        )?;
        Ok(DynRunWriter { layout, body })
    }

    /// Appends one record.
    pub fn push(&mut self, record: &L::Record) -> Result<()> {
        let layout = &self.layout;
        self.body.push_record(|buf| layout.encode(record, buf))
    }

    /// Number of records written so far.
    pub fn len(&self) -> u64 {
        self.body.count
    }

    /// Returns `true` if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.body.count == 0
    }

    /// Finishes a run that is to survive a crash and returns its read
    /// handle.  The run is readable at once; its `fdatasync` is queued on
    /// the durability worker ([`crate::durability`]), so it *is* durable
    /// once a later [`durability::drain`] has returned without error.  An
    /// earlier run's failed sync is reported here, once, in place of
    /// finishing this one.
    pub fn finish(self) -> Result<DynRunFile<L>> {
        Ok(DynRunFile {
            layout: self.layout,
            body: self.body.finish(true)?,
        })
    }

    /// Finishes a *volatile* scratch run: appended to the OS but **not**
    /// fdatasynced.  Only for sorter-internal spill runs, which are merged
    /// and discarded within the same build: durability buys nothing there —
    /// a crash loses the whole build either way — while the skipped sync is
    /// a device round-trip per run.  Persistent outputs use
    /// [`DynRunWriter::finish`].
    pub fn finish_volatile(self) -> Result<DynRunFile<L>> {
        Ok(DynRunFile {
            layout: self.layout,
            body: self.body.finish(false)?,
        })
    }
}

/// Buffered sequential reader over a [`DynRunFile`], optionally reading
/// ahead on a background thread (see [`DynRunFile::read_ahead_reader`]).
pub struct DynRunReader<L: RecordLayout> {
    run: DynRunFile<L>,
    buffer: VecDeque<L::Record>,
    next_index: u64,
    buffer_records: usize,
    /// The bytes that must be left to read for the read-ahead worker to
    /// start; `None` never starts it.
    read_ahead_from: Option<usize>,
    prefetcher: Option<ReadAheadBuffers>,
}

impl<L: RecordLayout> DynRunReader<L> {
    fn refill(&mut self) -> Result<()> {
        if !self.buffer.is_empty() || self.next_index >= self.run.len() {
            return Ok(());
        }
        // Spawn the read-ahead worker lazily, and only when enough data is
        // left that reads may actually block (see
        // [`crate::PREFETCH_MIN_BYTES`]).
        let remaining = self.run.len() - self.next_index;
        if self.read_ahead_from.is_some_and(|min_bytes| {
            self.prefetcher.is_none()
                && remaining > self.buffer_records as u64
                && remaining.saturating_mul(self.run.layout.record_size() as u64)
                    >= min_bytes as u64
        }) {
            let total = self.run.len();
            let batch = self.buffer_records;
            let mut index = self.next_index;
            // A lazy range stream (not a materialized Vec): huge runs with
            // tiny merge buffers would otherwise allocate O(records) range
            // descriptors up front.
            let ranges = std::iter::from_fn(move || {
                if index >= total {
                    return None;
                }
                let count = batch.min((total - index) as usize);
                let range = (index, count);
                index += count as u64;
                Some(range)
            });
            let body = Arc::clone(&self.run.body);
            self.prefetcher = Some(read_ahead_with(ranges, move |start, count| {
                body.read(start, count)
            }));
        }
        let batch: Vec<L::Record> = match &mut self.prefetcher {
            Some(p) => {
                let bytes = p.next_buffer().ok_or_else(|| {
                    crate::StorageError::Corrupt(
                        "read-ahead worker ended before its run was drained".into(),
                    )
                })??;
                self.run.decode_raw(&bytes).collect()
            }
            None => self.run.read_range(self.next_index, self.buffer_records)?,
        };
        self.next_index += batch.len() as u64;
        self.buffer.extend(batch);
        Ok(())
    }
}

impl<L: RecordLayout> Iterator for DynRunReader<L> {
    type Item = Result<L::Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Err(e) = self.refill() {
            return Some(Err(e));
        }
        self.buffer.pop_front().map(Ok)
    }
}

/// K-way merge over sorted record iterators sharing a layout: the one merge
/// of this workspace.
///
/// Records are ordered by their layout key, ties broken toward the lower
/// input index.  The inputs are plain iterators, so callers merge whole
/// runs ([`DynRunReader`]s, as the sorter and the BTP partition merges do)
/// or *slices* of runs (one key shard of every input run during a sharded
/// compaction) alike.  Construction pulls each input's head in input order,
/// and each record handed out pulls the next one from the input it came
/// from, so the reads a run reader issues depend only on the data.  The
/// error type is generic so higher layers can merge iterators yielding
/// their own error enums.
pub struct DynIterMerge<L, I, E>
where
    L: RecordLayout,
    I: Iterator<Item = std::result::Result<L::Record, E>>,
{
    layout: L,
    inputs: Vec<I>,
    heads: Vec<Option<L::Record>>,
    /// `(key of the head, input index)` of every input that has a head:
    /// the tuple order is the merge order, ties going to the lower input.
    heap: BinaryHeap<Reverse<(L::Key, usize)>>,
}

impl<L, I, E> DynIterMerge<L, I, E>
where
    L: RecordLayout,
    I: Iterator<Item = std::result::Result<L::Record, E>>,
{
    /// Builds a merge over already-sorted record iterators.
    pub fn new(layout: L, mut inputs: Vec<I>) -> std::result::Result<Self, E> {
        let mut heads: Vec<Option<L::Record>> = Vec::with_capacity(inputs.len());
        let mut heap = BinaryHeap::new();
        for (i, input) in inputs.iter_mut().enumerate() {
            let head = input.next().transpose()?;
            if let Some(record) = &head {
                heap.push(Reverse((layout.key(record), i)));
            }
            heads.push(head);
        }
        Ok(DynIterMerge {
            layout,
            inputs,
            heads,
            heap,
        })
    }
}

impl<L, I, E> Iterator for DynIterMerge<L, I, E>
where
    L: RecordLayout,
    I: Iterator<Item = std::result::Result<L::Record, E>>,
{
    type Item = std::result::Result<L::Record, E>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, input)) = self.heap.pop()?;
        let record = self.heads[input].take().expect("a queued input has a head");
        match self.inputs[input].next().transpose() {
            Ok(Some(next)) => {
                self.heap.push(Reverse((self.layout.key(&next), input)));
                self.heads[input] = Some(next);
            }
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok(record))
    }
}

/// Outcome of a dynamic external sort.
pub struct DynSortOutput<L: RecordLayout> {
    in_memory: Option<std::vec::IntoIter<L::Record>>,
    merge: Option<DynIterMerge<L, DynRunReader<L>, StorageError>>,
    /// The spill runs the merge reads; see [`DynSortOutput::delete_runs`].
    runs: Vec<DynRunFile<L>>,
    /// Number of spill runs generated (zero when fully in memory).
    pub runs_generated: usize,
    /// Total records sorted.
    pub record_count: u64,
}

impl<L: RecordLayout> DynSortOutput<L> {
    /// Returns `true` if the sort spilled to disk.
    pub fn spilled(&self) -> bool {
        self.runs_generated > 0
    }

    /// Deletes the spill runs, for a caller done with the sorted sequence:
    /// the merge and its readers go first, then each run is unmapped and
    /// unlinked ([`DynRunFile::delete`]).  Records not yet read are lost.
    /// The runs stay on disk until this is called.
    pub fn delete_runs(mut self) -> Result<()> {
        self.merge = None;
        for run in self.runs.drain(..) {
            run.delete()?;
        }
        Ok(())
    }
}

impl<L: RecordLayout> Iterator for DynSortOutput<L> {
    type Item = Result<L::Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(iter) = &mut self.in_memory {
            return iter.next().map(Ok);
        }
        if let Some(merge) = &mut self.merge {
            return merge.next();
        }
        None
    }
}

/// Two-pass bounded-memory external sorter for dynamic records.
///
/// `memory_budget_bytes` caps the record data buffered in memory at once,
/// split between the phases so it is never exceeded: run generation buffers
/// at most half of it per chunk, and the merge read buffers share a quarter
/// of it.  Each merge reader always gets at least one record, so
/// pathological run counts can push the merge slightly past its quarter.
///
/// Each chunk is stably sorted on the calling thread.  The sorter reads two
/// of the [`PerfKnobs`] (set through [`DynExternalSorter::with_knobs`]; the
/// defaults are [`PerfKnobs::default`]), and both are pure performance
/// knobs: spill runs, the sorted sequence and the `IoStats` totals are
/// identical at every value.
///
/// * `io_overlap` — off is the strictly alternating sort-then-write
///   pipeline.  On, run generation double-buffers: sorted chunks go to a
///   dedicated writer worker through a two-slot channel, so sorting chunk
///   `i + 1` overlaps writing run `i` (at the cost of up to two extra
///   in-flight chunks of memory), and every merge reader prefetches its
///   next buffer while the heap drains the current one.  Overlap changes
///   *when* each I/O happens, never which I/Os happen or their per-file
///   order.  A prefetching merge reader spawns its read-ahead worker only
///   while at least [`crate::PREFETCH_MIN_BYTES`] of its run are left.
/// * `io_backend` — with [`IoBackend::Mmap`] every spill-run read is served
///   from a read-only file mapping, which accounts every page it copies
///   with the same sequential/random classification as `pread`.
pub struct DynExternalSorter<L: RecordLayout> {
    layout: L,
    memory_budget_bytes: usize,
    page_size: usize,
    knobs: PerfKnobs,
    scratch_dir: PathBuf,
    stats: SharedIoStats,
    next_run_id: u64,
}

impl<L: RecordLayout> DynExternalSorter<L> {
    /// Creates a sorter spilling into `scratch_dir` under `memory_budget_bytes`.
    pub fn new<P: AsRef<Path>>(
        layout: L,
        memory_budget_bytes: usize,
        scratch_dir: P,
        stats: SharedIoStats,
    ) -> Self {
        DynExternalSorter {
            layout,
            memory_budget_bytes,
            page_size: DEFAULT_PAGE_SIZE,
            knobs: PerfKnobs::default(),
            scratch_dir: scratch_dir.as_ref().to_path_buf(),
            stats,
            next_run_id: 0,
        }
    }

    /// Overrides the page size used for spill runs.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size > 0);
        self.page_size = page_size;
        self
    }

    /// Sets the performance knobs; see the type docs for the two the sorter
    /// reads.
    pub fn with_knobs(mut self, knobs: PerfKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    fn records_per_chunk(&self) -> usize {
        // Half of the budget per chunk; see the type docs for the split
        // between run generation and merge read buffers.
        (self.memory_budget_bytes / 2 / self.layout.record_size()).max(2)
    }

    /// Sorts `input`, spilling when the memory budget is exceeded.
    ///
    /// With `io_overlap` on (the default; see the type docs) run
    /// generation double-buffers through a dedicated writer worker and the
    /// merge readers prefetch; the runs and `IoStats` totals are identical
    /// in either mode.
    pub fn sort<I>(&mut self, input: I) -> Result<DynSortOutput<L>>
    where
        I: IntoIterator<Item = L::Record>,
    {
        let (runs, mut chunk, total) = if self.knobs.io_overlap {
            self.generate_runs_overlapped(input)?
        } else {
            self.generate_runs_sequential(input)?
        };
        if runs.is_empty() {
            let layout = &self.layout;
            chunk.sort_by_key(|r| layout.key(r));
            return Ok(DynSortOutput {
                in_memory: Some(chunk.into_iter()),
                merge: None,
                runs,
                runs_generated: 0,
                record_count: total,
            });
        }
        // Release the chunk's capacity before the merge readers allocate
        // their buffers; the readers share a quarter of the budget.
        drop(chunk);
        let per_run_records =
            (self.memory_budget_bytes / 4 / self.layout.record_size() / runs.len().max(1)).max(1);
        let readers = runs
            .iter()
            .map(|run| {
                if self.knobs.io_overlap {
                    run.read_ahead_reader(per_run_records, crate::PREFETCH_MIN_BYTES)
                } else {
                    run.reader(per_run_records)
                }
            })
            .collect();
        let merge = DynIterMerge::new(self.layout.clone(), readers)?;
        Ok(DynSortOutput {
            in_memory: None,
            merge: Some(merge),
            runs_generated: runs.len(),
            runs,
            record_count: total,
        })
    }

    /// Historical strictly alternating pipeline: sort a chunk, write it,
    /// sort the next.  Returns `(spill runs, final unsorted chunk, total)`;
    /// the final chunk is non-empty only when nothing spilled.
    #[allow(clippy::type_complexity)]
    fn generate_runs_sequential<I>(
        &mut self,
        input: I,
    ) -> Result<(Vec<DynRunFile<L>>, Vec<L::Record>, u64)>
    where
        I: IntoIterator<Item = L::Record>,
    {
        let chunk_capacity = self.records_per_chunk();
        let mut runs: Vec<DynRunFile<L>> = Vec::new();
        let mut chunk: Vec<L::Record> = Vec::new();
        let mut total = 0u64;
        for record in input {
            total += 1;
            chunk.push(record);
            if chunk.len() >= chunk_capacity {
                runs.push(self.write_run(&mut chunk)?);
            }
        }
        if !runs.is_empty() && !chunk.is_empty() {
            runs.push(self.write_run(&mut chunk)?);
        }
        Ok((runs, chunk, total))
    }

    /// Double-buffered pipeline: sorted chunks flow through a two-slot
    /// channel to a writer worker, so sorting chunk `i + 1` overlaps
    /// writing run `i`.  Chunk boundaries, sort order, run numbering and
    /// each file's write sequence match the sequential pipeline exactly.
    #[allow(clippy::type_complexity)]
    fn generate_runs_overlapped<I>(
        &mut self,
        input: I,
    ) -> Result<(Vec<DynRunFile<L>>, Vec<L::Record>, u64)>
    where
        I: IntoIterator<Item = L::Record>,
    {
        let chunk_capacity = self.records_per_chunk();
        let layout = self.layout.clone();
        let writer_layout = self.layout.clone();
        let scratch_dir = self.scratch_dir.clone();
        let stats = Arc::clone(&self.stats);
        let page_size = self.page_size;
        let io_backend = self.knobs.io_backend;
        let first_run_id = self.next_run_id;

        let (runs, chunk, total) = std::thread::scope(
            |scope| -> Result<(Vec<DynRunFile<L>>, Vec<L::Record>, u64)> {
                let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<L::Record>>(2);
                let writer = scope.spawn(move || -> Result<Vec<DynRunFile<L>>> {
                    let mut runs: Vec<DynRunFile<L>> = Vec::new();
                    while let Ok(sorted_chunk) = rx.recv() {
                        let path = scratch_dir.join(format!(
                            "dynsort-run-{:06}.run",
                            first_run_id + runs.len() as u64
                        ));
                        let mut writer = DynRunWriter::create(
                            writer_layout.clone(),
                            path,
                            Arc::clone(&stats),
                            page_size,
                            io_backend,
                        )?;
                        for record in &sorted_chunk {
                            writer.push(record)?;
                        }
                        // Spill runs are merged and discarded within this
                        // build: finish without the fdatasync.
                        runs.push(writer.finish_volatile()?);
                    }
                    Ok(runs)
                });

                let mut chunk: Vec<L::Record> = Vec::new();
                let mut total = 0u64;
                let mut spilled = false;
                for record in input {
                    total += 1;
                    chunk.push(record);
                    if chunk.len() >= chunk_capacity {
                        chunk.sort_by_key(|r| layout.key(r));
                        let full = std::mem::take(&mut chunk);
                        spilled = true;
                        if tx.send(full).is_err() {
                            // Writer exited early on an error; surfaced at
                            // the join below.
                            break;
                        }
                    }
                }
                if spilled && !chunk.is_empty() {
                    chunk.sort_by_key(|r| layout.key(r));
                    let _ = tx.send(std::mem::take(&mut chunk));
                }
                drop(tx);
                let runs = writer.join().expect("run writer worker panicked")?;
                Ok((runs, chunk, total))
            },
        )?;
        self.next_run_id += runs.len() as u64;
        Ok((runs, chunk, total))
    }

    fn write_run(&mut self, chunk: &mut Vec<L::Record>) -> Result<DynRunFile<L>> {
        let layout = &self.layout;
        chunk.sort_by_key(|r| layout.key(r));
        let path = self
            .scratch_dir
            .join(format!("dynsort-run-{:06}.run", self.next_run_id));
        self.next_run_id += 1;
        let mut writer = DynRunWriter::create(
            self.layout.clone(),
            path,
            Arc::clone(&self.stats),
            self.page_size,
            self.knobs.io_backend,
        )?;
        for record in chunk.iter() {
            writer.push(record)?;
        }
        chunk.clear();
        // Sorter-internal spill run: merged and discarded within this build,
        // so skip the fdatasync.
        writer.finish_volatile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoStats;
    use crate::tempdir::ScratchDir;

    /// Layout for (u64 key, variable-length payload of fixed runtime size).
    #[derive(Clone)]
    struct PairLayout {
        payload_len: usize,
    }

    impl RecordLayout for PairLayout {
        type Record = (u64, Vec<u8>);
        type Key = u64;

        fn record_size(&self) -> usize {
            8 + self.payload_len
        }

        fn encode(&self, record: &Self::Record, buf: &mut [u8]) {
            buf[..8].copy_from_slice(&record.0.to_be_bytes());
            buf[8..].copy_from_slice(&record.1);
        }

        fn decode(&self, buf: &[u8]) -> Self::Record {
            let mut k = [0u8; 8];
            k.copy_from_slice(&buf[..8]);
            (u64::from_be_bytes(k), buf[8..].to_vec())
        }

        fn key(&self, record: &Self::Record) -> Self::Key {
            record.0
        }
    }

    /// A `pread`-served writer with 512-byte pages.
    fn pread_writer(
        layout: PairLayout,
        path: PathBuf,
        stats: SharedIoStats,
    ) -> DynRunWriter<PairLayout> {
        DynRunWriter::create(layout, path, stats, 512, IoBackend::Pread).unwrap()
    }

    fn make_records(n: usize, payload_len: usize) -> Vec<(u64, Vec<u8>)> {
        (0..n as u64)
            .map(|i| {
                let key = (i * 2654435761) % 100_000;
                (key, vec![(i % 251) as u8; payload_len])
            })
            .collect()
    }

    /// Round trip through every read path, plus out-of-range and
    /// overflowing record indexes: typed errors or empty reads, never a
    /// panic.
    #[test]
    fn dyn_run_roundtrip() {
        let dir = ScratchDir::new("dynrun").unwrap();
        let layout = PairLayout { payload_len: 13 };
        let records = make_records(500, 13);
        let mut w = pread_writer(layout, dir.file("a.run"), IoStats::shared());
        for r in &records {
            w.push(r).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.len(), 500);
        assert_eq!(run.byte_size(), 500 * 21);
        let back: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
        assert_eq!(run.read_record(123).unwrap(), records[123]);
        assert!(matches!(
            run.read_record(run.len()),
            Err(StorageError::Corrupt(_))
        ));
        assert!(run.read_record(u64::MAX / 2).is_err());
        assert!(run.read_range(u64::MAX / 2, 8).unwrap().is_empty());
    }

    #[test]
    fn dyn_sort_matches_std_sort_with_spill() {
        let dir = ScratchDir::new("dynsort").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 32 };
        let records = make_records(3000, 32);
        let mut sorter = DynExternalSorter::new(
            layout.clone(),
            40 * 200, // ~200 records per run
            dir.path(),
            Arc::clone(&stats),
        )
        .with_page_size(1024);
        let out = sorter.sort(records.clone()).unwrap();
        assert!(out.spilled());
        let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
        let mut expected = records;
        expected.sort_by_key(|r| r.0);
        let got_keys: Vec<u64> = sorted.iter().map(|r| r.0).collect();
        let expected_keys: Vec<u64> = expected.iter().map(|r| r.0).collect();
        assert_eq!(got_keys, expected_keys);
        assert!(stats.snapshot().random_fraction() < 0.25);
    }

    /// The spill runs stay on disk while the output is read, and are gone,
    /// every one, once it deletes them.
    #[test]
    fn delete_runs_leaves_no_spill_file() {
        let dir = ScratchDir::new("dynsort-delete").unwrap();
        let layout = PairLayout { payload_len: 32 };
        let records = make_records(3000, 32);
        for io_backend in [IoBackend::Pread, IoBackend::Mmap] {
            let mut sorter =
                DynExternalSorter::new(layout.clone(), 40 * 200, dir.path(), IoStats::shared())
                    .with_knobs(PerfKnobs {
                        io_backend,
                        ..PerfKnobs::default()
                    });
            let mut out = sorter.sort(records.clone()).unwrap();
            assert!(out.runs_generated > 1);
            let spill_files = || std::fs::read_dir(dir.path()).unwrap().count();
            assert_eq!(spill_files(), out.runs_generated);
            assert_eq!(out.by_ref().count(), records.len());
            assert_eq!(spill_files(), out.runs_generated, "{io_backend}");
            out.delete_runs().unwrap();
            assert_eq!(spill_files(), 0, "{io_backend}");
        }
    }

    #[test]
    fn dyn_sort_in_memory_when_budget_suffices() {
        let dir = ScratchDir::new("dynsort-mem").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 4 };
        for n in [100, 0] {
            let records = make_records(n, 4);
            let mut sorter =
                DynExternalSorter::new(layout.clone(), 1 << 20, dir.path(), Arc::clone(&stats));
            let out = sorter.sort(records).unwrap();
            assert!(!out.spilled());
            assert_eq!(out.record_count, n as u64);
            let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
            assert_eq!(sorted.len(), n);
            assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        assert_eq!(stats.snapshot().total_accesses(), 0);
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "no run file"
        );
    }

    /// Overlap is a pure performance knob: spill runs, sorted output and
    /// `IoStats` are identical with it off and on, on a duplicate-heavy key
    /// domain where the chunk sort's stability is observable.
    #[test]
    fn overlapped_dyn_sort_is_identical_to_sequential() {
        let layout = PairLayout { payload_len: 24 };
        let mut records = make_records(10_000, 24);
        records.iter_mut().for_each(|r| r.0 %= 97);
        for budget in [32 * 300, 32 * 4096] {
            let mut outcomes = Vec::new();
            for io_overlap in [false, true] {
                let dir = ScratchDir::new(&format!("dynsort-ovl-{budget}-{io_overlap}")).unwrap();
                let stats = IoStats::shared();
                let mut sorter =
                    DynExternalSorter::new(layout.clone(), budget, dir.path(), Arc::clone(&stats))
                        .with_page_size(1024)
                        .with_knobs(PerfKnobs {
                            io_overlap,
                            ..PerfKnobs::default()
                        });
                let out = sorter.sort(records.clone()).unwrap();
                assert!(out.spilled());
                let runs_generated = out.runs_generated;
                let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
                let mut run_bytes = Vec::new();
                for id in 0..runs_generated {
                    let path = dir.path().join(format!("dynsort-run-{id:06}.run"));
                    run_bytes.push(std::fs::read(path).unwrap());
                }
                outcomes.push((sorted, run_bytes, stats.snapshot()));
            }
            let mut expected = records.clone();
            expected.sort_by_key(|r| r.0);
            assert_eq!(outcomes[0].0, expected, "stable sorted output");
            assert_eq!(
                outcomes[0].0, outcomes[1].0,
                "sorted output (budget {budget})"
            );
            assert_eq!(
                outcomes[0].1, outcomes[1].1,
                "spill run bytes (budget {budget})"
            );
            assert_eq!(
                outcomes[0].2, outcomes[1].2,
                "IoStats totals (budget {budget})"
            );
        }
    }

    #[test]
    fn prefetching_dyn_reader_matches_direct_reader() {
        let dir = ScratchDir::new("dynrun-prefetch").unwrap();
        let stats = IoStats::shared();
        // 10k records x 248 bytes = 2.4 MiB, past the PREFETCH_MIN_BYTES
        // gate so the read-ahead worker actually engages.
        let layout = PairLayout { payload_len: 240 };
        let mut w = pread_writer(layout.clone(), dir.file("a.run"), Arc::clone(&stats));
        let records = make_records(10_000, 240);
        for r in &records {
            w.push(r).unwrap();
        }
        let run = w.finish().unwrap();
        stats.reset();
        let direct: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
        let direct_stats = stats.snapshot();
        stats.reset();
        let mut prefetching_reader = run.read_ahead_reader(64, crate::PREFETCH_MIN_BYTES);
        let prefetched: Vec<_> = (&mut prefetching_reader).map(|r| r.unwrap()).collect();
        assert!(
            prefetching_reader.prefetcher.is_some(),
            "the read-ahead worker must have engaged for a 2.4 MiB run"
        );
        assert_eq!(prefetched, direct);
        assert_eq!(stats.snapshot(), direct_stats);
    }

    /// The mmap backend serves the dynamic sort/merge read path with
    /// byte-identical spill runs, identical sorted output and identical
    /// `IoStats` to positioned reads.
    #[test]
    fn mmap_backend_dyn_sort_matches_pread() {
        let layout = PairLayout { payload_len: 24 };
        let records = make_records(4000, 24);
        let mut outcomes = Vec::new();
        for backend in [IoBackend::Pread, IoBackend::Mmap] {
            let dir = ScratchDir::new(&format!("dynsort-be-{backend}")).unwrap();
            let stats = IoStats::shared();
            let mut sorter = DynExternalSorter::new(
                layout.clone(),
                32 * 300, // forces spilling
                dir.path(),
                Arc::clone(&stats),
            )
            .with_page_size(1024)
            .with_knobs(PerfKnobs {
                io_backend: backend,
                ..PerfKnobs::default()
            });
            let out = sorter.sort(records.clone()).unwrap();
            assert!(out.spilled());
            let runs_generated = out.runs_generated;
            let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
            let mut run_bytes = Vec::new();
            for id in 0..runs_generated {
                let path = dir.path().join(format!("dynsort-run-{id:06}.run"));
                run_bytes.push(std::fs::read(path).unwrap());
            }
            outcomes.push((sorted, run_bytes, stats.snapshot()));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "sorted output");
        assert_eq!(outcomes[0].1, outcomes[1].1, "spill run bytes");
        assert_eq!(outcomes[0].2, outcomes[1].2, "IoStats totals");
    }

    /// Dyn spill runs are volatile, explicit `finish` remains durable.
    #[test]
    fn dyn_finish_volatile_skips_the_sync() {
        let dir = ScratchDir::new("dynrun-volatile").unwrap();
        let layout = PairLayout { payload_len: 8 };
        let records = make_records(50, 8);
        let mut durable = pread_writer(layout.clone(), dir.file("d.run"), IoStats::shared());
        let mut volatile = pread_writer(layout.clone(), dir.file("v.run"), IoStats::shared());
        for r in &records {
            durable.push(r).unwrap();
            volatile.push(r).unwrap();
        }
        let durable = durable.finish().unwrap();
        let volatile = volatile.finish_volatile().unwrap();
        // Readable before the sync has run ...
        let back: Vec<_> = durable.reader(64).map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
        // ... and synced exactly once by the time the barrier returns.
        durability::drain().unwrap();
        assert_eq!(durable.sync_count(), 1);
        assert_eq!(volatile.sync_count(), 0);
        let back: Vec<_> = volatile.reader(64).map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
    }

    fn write_run(path: PathBuf, durable: bool) -> DynRunFile<PairLayout> {
        let layout = PairLayout { payload_len: 8 };
        let mut w = pread_writer(layout, path, IoStats::shared());
        for r in &make_records(20, 8) {
            w.push(r).unwrap();
        }
        if durable {
            w.finish().unwrap()
        } else {
            w.finish_volatile().unwrap()
        }
    }

    /// A replace unlinks its inputs behind the output's sync, never before.
    #[test]
    fn replace_unlinks_inputs_once_the_output_is_durable() {
        let dir = ScratchDir::new("dynrun-replace").unwrap();
        let inputs = vec![
            write_run(dir.file("a.run"), true),
            write_run(dir.file("b.run"), true),
        ];
        let paths: Vec<PathBuf> = inputs.iter().map(|r| r.path().to_path_buf()).collect();
        let output = write_run(dir.file("out.run"), true);
        DynRunFile::replace(&[&output], inputs).unwrap();
        durability::drain().unwrap();
        assert_eq!(output.sync_count(), 1);
        assert!(paths.iter().all(|p| !p.exists()));
        assert!(output.path().exists());
    }

    /// An output whose sync never succeeded keeps its inputs on disk, and
    /// the job says so.  (Run on a worker of its own: the process's worker
    /// would hand the error to whichever test finishes a run next.)
    #[test]
    fn replace_keeps_inputs_of_an_output_that_was_never_synced() {
        let dir = ScratchDir::new("dynrun-replace-fail").unwrap();
        let input = write_run(dir.file("in.run"), false);
        let input_path = input.path().to_path_buf();
        let output = write_run(dir.file("out.run"), false);
        let worker = durability::Worker::spawn(2);
        worker
            .submit(DynRunFile::replace_job(&[&output], vec![input]))
            .unwrap();
        let err = worker.drain().unwrap_err().to_string();
        assert!(
            err.contains("out.run") && err.contains("stay on disk"),
            "{err}"
        );
        assert!(input_path.exists());
    }

    /// A durable-less split run: `ColumnarLayout` records keep their heads
    /// at `path` and their tails in `<path>.tail`.
    fn write_split_run(path: PathBuf) -> DynRunFile<ColumnarLayout> {
        let layout = ColumnarLayout { tail_len: 40 };
        let mut w =
            DynRunWriter::create(layout, path, IoStats::shared(), 512, IoBackend::Pread).unwrap();
        for i in 0..30u64 {
            w.push(&(i, i * 7, vec![i as u8; 40])).unwrap();
        }
        w.finish_volatile().unwrap()
    }

    /// A replace of split runs unlinks both files of every input, and only
    /// behind the syncs of both files of every output: while the worker
    /// holds the syncs back, all four input files stay on disk.
    #[test]
    fn replace_unlinks_split_inputs_only_after_both_output_files_synced() {
        let dir = ScratchDir::new("dynrun-replace-split").unwrap();
        let inputs = vec![
            write_split_run(dir.file("a.run")),
            write_split_run(dir.file("b.run")),
        ];
        let input_paths: Vec<PathBuf> = inputs
            .iter()
            .flat_map(|r| r.paths().map(Path::to_path_buf))
            .collect();
        assert_eq!(input_paths.len(), 4, "heads and tails of each input");
        assert!(input_paths[1].ends_with("a.run.tail"));
        let outputs = [
            write_split_run(dir.file("x.run")),
            write_split_run(dir.file("y.run")),
        ];
        let worker = durability::Worker::spawn(8);
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let gate = move || {
            let _ = parked_tx.send(());
            let _ = release_rx.recv();
            Ok(())
        };
        worker.submit(Job::new(gate, Vec::new())).unwrap();
        parked_rx.recv().unwrap();
        for output in &outputs {
            worker.submit(RunBody::sync_job(&output.body)).unwrap();
        }
        let replaced = DynRunFile::replace_job(&[&outputs[0], &outputs[1]], inputs);
        worker.submit(replaced).unwrap();
        assert!(input_paths.iter().all(|p| p.exists()), "unlinked early");
        assert!(outputs.iter().all(|o| o.sync_count() == 0));
        drop(release_tx);
        worker.drain().unwrap();
        for output in &outputs {
            assert_eq!(output.sync_count(), 1);
            assert!(output.body.files().all(|f| f.sync_count() == 1));
            assert!(output.paths().all(Path::exists));
        }
        assert!(
            input_paths.iter().all(|p| !p.exists()),
            "inputs left behind"
        );
    }

    /// An output whose heads file synced but whose tail file did not — its
    /// sync failed — is not durable: the inputs stay on disk, both files of
    /// each, and the job names the tail file.
    #[test]
    fn replace_keeps_inputs_when_an_output_tail_sync_failed() {
        let dir = ScratchDir::new("dynrun-replace-tail").unwrap();
        let input = write_split_run(dir.file("in.run"));
        let input_paths: Vec<PathBuf> = input.paths().map(Path::to_path_buf).collect();
        let output = write_split_run(dir.file("out.run"));
        output.body.file.sync().unwrap();
        assert_eq!(
            output.sync_count(),
            0,
            "a run is synced once all its files are"
        );
        let worker = durability::Worker::spawn(2);
        worker
            .submit(DynRunFile::replace_job(&[&output], vec![input]))
            .unwrap();
        let err = worker.drain().unwrap_err().to_string();
        assert!(
            err.contains("out.run.tail") && err.contains("stay on disk"),
            "{err}"
        );
        assert_eq!(input_paths.len(), 2);
        assert!(input_paths.iter().all(|p| p.exists()));
    }

    /// Writes each record list as a pread run file in `dir`.
    fn write_runs(
        dir: &ScratchDir,
        layout: &PairLayout,
        inputs: &[Vec<(u64, Vec<u8>)>],
    ) -> Vec<DynRunFile<PairLayout>> {
        let stats = IoStats::shared();
        inputs
            .iter()
            .enumerate()
            .map(|(i, recs)| {
                let mut w = pread_writer(
                    layout.clone(),
                    dir.file(&format!("{i}.run")),
                    Arc::clone(&stats),
                );
                for r in recs {
                    w.push(r).unwrap();
                }
                w.finish().unwrap()
            })
            .collect()
    }

    /// The merge's specification: the inputs concatenated in input order,
    /// then stably sorted by key, so equal keys keep the lower input first.
    fn stable_sort_oracle(inputs: &[Vec<(u64, Vec<u8>)>]) -> Vec<(u64, Vec<u8>)> {
        let mut all = inputs.concat();
        all.sort_by_key(|r| r.0);
        all
    }

    #[test]
    fn iter_merge_matches_run_merge() {
        let dir = ScratchDir::new("dyniter").unwrap();
        let layout = PairLayout { payload_len: 6 };
        // Keys drawn from 40 values, so every key repeats across inputs;
        // the payload names the input, which makes tie order observable.
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = (0..4u64)
            .map(|i| {
                let mut recs: Vec<_> = make_records(150, 6)
                    .into_iter()
                    .map(|r| (r.0.wrapping_mul(i + 1) % 40, vec![i as u8; 6]))
                    .collect();
                recs.sort_by_key(|r| r.0);
                recs
            })
            .collect();
        let runs = write_runs(&dir, &layout, &inputs);
        let iters: Vec<_> = runs.iter().map(|r| r.reader(32)).collect();
        let got: Vec<_> = DynIterMerge::new(layout, iters)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, stable_sort_oracle(&inputs));
    }

    /// Layout with a big-endian key, one integer field and a raw value tail,
    /// exercising the [`RecordLayout::tail_len`] override the way index-entry
    /// layouts do.
    #[derive(Clone)]
    struct ColumnarLayout {
        tail_len: usize,
    }

    impl RecordLayout for ColumnarLayout {
        type Record = (u64, u64, Vec<u8>);
        type Key = u64;

        fn record_size(&self) -> usize {
            16 + self.tail_len
        }

        fn encode(&self, record: &Self::Record, buf: &mut [u8]) {
            buf[..8].copy_from_slice(&record.0.to_be_bytes());
            buf[8..16].copy_from_slice(&record.1.to_be_bytes());
            buf[16..].copy_from_slice(&record.2);
        }

        fn decode(&self, buf: &[u8]) -> Self::Record {
            let mut k = [0u8; 8];
            k.copy_from_slice(&buf[..8]);
            let mut p = [0u8; 8];
            p.copy_from_slice(&buf[8..16]);
            (
                u64::from_be_bytes(k),
                u64::from_be_bytes(p),
                buf[16..].to_vec(),
            )
        }

        fn key(&self, record: &Self::Record) -> Self::Key {
            record.0
        }

        fn tail_len(&self) -> usize {
            self.tail_len
        }
    }

    /// `ColumnarLayout` without its value tail: the same records, written
    /// as rows.
    #[derive(Clone)]
    struct RowsOf(ColumnarLayout);

    impl RecordLayout for RowsOf {
        type Record = (u64, u64, Vec<u8>);
        type Key = u64;

        fn record_size(&self) -> usize {
            self.0.record_size()
        }

        fn encode(&self, record: &Self::Record, buf: &mut [u8]) {
            self.0.encode(record, buf)
        }

        fn decode(&self, buf: &[u8]) -> Self::Record {
            self.0.decode(buf)
        }

        fn key(&self, record: &Self::Record) -> Self::Key {
            record.0
        }
    }

    /// A run of a layout with a value tail is two files as
    /// long, together, as the row file of the same records: every head at
    /// `path`, every tail at `<path>.tail`.  It returns the same records
    /// through every read path and charges the same logical `IoStats` as
    /// the row run, reads heads and tails apart in fewer physical bytes
    /// than whole rows, and one sync covers both files.
    #[test]
    fn split_run_holds_the_row_run_in_a_heads_file_and_a_tail_file() {
        let dir = ScratchDir::new("dynrun-split").unwrap();
        let layout = ColumnarLayout { tail_len: 40 };
        let records: Vec<(u64, u64, Vec<u8>)> = (0..3000u64)
            .map(|i| (i / 3, i * 7, vec![(i % 251) as u8; 40]))
            .collect();
        let (split_stats, row_stats) = (IoStats::shared(), IoStats::shared());
        let create = |name: &str, stats: &SharedIoStats| {
            let (path, stats) = (dir.file(name), Arc::clone(stats));
            (path, stats, 512, IoBackend::Pread)
        };
        let (p, st, ps, be) = create("split.run", &split_stats);
        let mut split = DynRunWriter::create(layout.clone(), p, st, ps, be).unwrap();
        let (p, st, ps, be) = create("rows.run", &row_stats);
        let mut rows = DynRunWriter::create(RowsOf(layout), p, st, ps, be).unwrap();
        for r in &records {
            split.push(r).unwrap();
            rows.push(r).unwrap();
        }
        let (split, rows) = (split.finish().unwrap(), rows.finish().unwrap());
        durability::drain().unwrap();
        assert_eq!(split.sync_count(), 1);
        let paths: Vec<&Path> = split.paths().collect();
        assert_eq!(paths.len(), 2);
        assert!(paths[1].ends_with("split.run.tail"));
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 3);
        let (heads, tails) = (
            std::fs::read(paths[0]).unwrap(),
            std::fs::read(paths[1]).unwrap(),
        );
        let row_bytes = std::fs::read(rows.path()).unwrap();
        assert_eq!(heads.len() + tails.len(), row_bytes.len());
        for (i, row) in row_bytes.chunks_exact(56).enumerate() {
            assert_eq!(&heads[i * 16..(i + 1) * 16], &row[..16], "head {i}");
            assert_eq!(&tails[i * 40..(i + 1) * 40], &row[16..], "tail {i}");
        }
        split_stats.reset();
        row_stats.reset();
        let reads = |run: &dyn Fn(u64, usize) -> Vec<(u64, u64, Vec<u8>)>| {
            [run(0, 3000), run(1234, 700), run(2999, 1), run(2990, 64)]
        };
        let split_reads = reads(&|i, n| split.read_range(i, n).unwrap());
        assert_eq!(split_reads[0], records);
        assert_eq!(split_reads, reads(&|i, n| rows.read_range(i, n).unwrap()));
        let sequential: Vec<_> = split.reader(64).map(|r| r.unwrap()).collect();
        let row_sequential: Vec<_> = rows.reader(64).map(|r| r.unwrap()).collect();
        assert_eq!(sequential, row_sequential);
        assert_eq!(
            split_stats.snapshot().logical(),
            row_stats.snapshot().logical()
        );
        split_stats.reset();
        assert_eq!(split.read_heads_raw(100, 64).unwrap().len(), 64 * 16);
        assert_eq!(
            split.read_tails_raw(110, 8).unwrap()[..40],
            records[110].2[..]
        );
        assert_eq!(split_stats.snapshot().physical_bytes_read, 64 * 16 + 8 * 40);
    }

    #[test]
    fn dyn_merge_of_sorted_runs() {
        let dir = ScratchDir::new("dynmerge").unwrap();
        let layout = PairLayout { payload_len: 8 };
        let inputs: Vec<Vec<(u64, Vec<u8>)>> = (0..3u64)
            .map(|i| {
                let mut recs = make_records(200, 8);
                recs.iter_mut().for_each(|r| r.0 = r.0.wrapping_add(i * 7));
                recs.sort_by_key(|r| r.0);
                recs
            })
            .collect();
        let runs = write_runs(&dir, &layout, &inputs);
        // Prefetching readers behind a zero gate: the read-ahead workers
        // run, and the merge must not notice.
        let readers: Vec<_> = runs.iter().map(|r| r.read_ahead_reader(32, 0)).collect();
        let merged: Vec<_> = DynIterMerge::new(layout, readers)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged, stable_sort_oracle(&inputs));
    }
}
