//! Runtime-sized record runs and external sorting.
//!
//! [`crate::extsort`] handles records whose encoded size is known at compile
//! time.  Index entries, however, have a size that depends on the runtime
//! configuration (a *materialized* entry embeds the full series, whose length
//! is chosen per dataset).  This module provides the same run-file /
//! k-way-merge / two-pass-sort machinery for records described by a runtime
//! [`RecordLayout`].
//!
//! CoconutTree bulk loading, CoconutLSM flushing/merging and the BTP
//! streaming partitions are all built on these dynamic runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use coconut_parallel::{effective_parallelism, parallel_sort_by_key};

use crate::block::{
    block_records_for, decode_block, decode_block_heads, encode_block, BlockExtent, ColumnSpec,
    Compression, LogicalAccountant, FOOTER_MAGIC,
};
use crate::durability::{self, Job};
use crate::file::{read_ahead_with, PagedFile, ReadAheadBuffers};
use crate::iostats::SharedIoStats;
use crate::mmap::IoBackend;
use crate::page::DEFAULT_PAGE_SIZE;
use crate::{record_range, Result, StorageError};

/// Describes how to encode, decode and order records of a runtime-known
/// fixed size.
///
/// Layouts and records must be shareable with / movable to worker threads
/// (`Sync` / `Send`) so run-generation chunks can be sorted in parallel.
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

    /// How encoded records split into the block codec's column regions (see
    /// [`ColumnSpec`]).  The default treats the whole record as one
    /// front-coded column, which is correct for arbitrary byte layouts;
    /// layouts with a big-endian key prefix, integer fields and a raw value
    /// tail override this so `compression = prefix` can delta-code the
    /// integers and keep the tail out of key-only scans.
    fn columns(&self) -> ColumnSpec {
        ColumnSpec::opaque(self.record_size())
    }
}

/// The non-generic storage engine under a [`DynRunFile`]: the paged file
/// plus — for `compression = prefix` runs — the block directory, column
/// spec and the [`LogicalAccountant`] that keeps the *logical* `IoStats`
/// view identical to an uncompressed run.  All record framing and
/// accounting lives here so readers, clones and prefetch workers share one
/// state without dragging the layout type parameter into `'static` closure
/// bounds.
pub(crate) struct RunBody {
    file: PagedFile,
    record_size: usize,
    spec: ColumnSpec,
    count: u64,
    codec: Option<RunCodec>,
}

/// Per-run state of a `compression = prefix` file.
struct RunCodec {
    /// Records per block (fixed; the last block may be short).
    block_records: usize,
    /// Physical extent of every block, in order.
    blocks: Vec<BlockExtent>,
    /// Charges the logical view of every read/write; the classification
    /// cursor moves from the writer into the finished run so the
    /// sequential/random split carries across phases exactly like
    /// `PagedFile`'s own cursor does for uncompressed runs.
    logical: LogicalAccountant,
}

impl RunBody {
    /// The compression this run was written with.
    pub(crate) fn compression(&self) -> Compression {
        if self.codec.is_some() {
            Compression::Prefix
        } else {
            Compression::Off
        }
    }

    /// Reads `count` records starting at `index` (clamped to the run
    /// length) as raw record bytes.  Compressed runs decode whole blocks
    /// but charge the logical view exactly one positioned read of the
    /// requested record range, matching the uncompressed path byte for
    /// byte.
    fn read(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        let count = count.min(self.count.saturating_sub(index) as usize);
        if count == 0 {
            return Ok(Vec::new());
        }
        let (offset, bytes) = record_range(index, count, self.record_size)?;
        let codec = match &self.codec {
            None => return self.file.read_at(offset, bytes),
            Some(codec) => codec,
        };
        let first = (index / codec.block_records as u64) as usize;
        let last = ((index + count as u64 - 1) / codec.block_records as u64) as usize;
        let mut decoded = Vec::with_capacity((last - first + 1) * bytes.max(1));
        for extent in codec.blocks.get(first..=last).ok_or_else(|| {
            StorageError::Corrupt("record range past the compressed block directory".into())
        })? {
            let frame = self.file.read_at(extent.offset, extent.len as usize)?;
            decoded.extend_from_slice(&decode_block(&self.spec, &frame, extent.head_len as usize)?);
        }
        codec.logical.account(offset, bytes, true);
        let skip =
            (index - (first as u64 * codec.block_records as u64)) as usize * self.record_size;
        if decoded.len() < skip + bytes {
            return Err(StorageError::Corrupt(
                "compressed blocks decoded short of the requested range".into(),
            ));
        }
        decoded.drain(..skip);
        decoded.truncate(bytes);
        Ok(decoded)
    }

    /// Reads only the per-record *head* region (key prefix + integer
    /// fields, `spec.head_size()` bytes per record) of `count` records
    /// starting at `index`.  On compressed runs this touches just the
    /// blocks' head bytes — the raw value tail never leaves the disk —
    /// while the logical view is charged as if the full records were read,
    /// keeping it identical to the uncompressed path (which has no choice
    /// but to read full records and strip the tails in memory).
    fn read_heads(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        let count = count.min(self.count.saturating_sub(index) as usize);
        if count == 0 {
            return Ok(Vec::new());
        }
        let head = self.spec.head_size();
        let codec = match &self.codec {
            None => {
                let full = self.read(index, count)?;
                let mut out = Vec::with_capacity(count * head);
                for rec in full.chunks_exact(self.record_size) {
                    out.extend_from_slice(&rec[..head]);
                }
                return Ok(out);
            }
            Some(codec) => codec,
        };
        let (offset, bytes) = record_range(index, count, self.record_size)?;
        let first = (index / codec.block_records as u64) as usize;
        let last = ((index + count as u64 - 1) / codec.block_records as u64) as usize;
        let mut heads = Vec::with_capacity((count + codec.block_records) * head);
        for extent in codec.blocks.get(first..=last).ok_or_else(|| {
            StorageError::Corrupt("record range past the compressed block directory".into())
        })? {
            let frame = self.file.read_at(extent.offset, extent.head_len as usize)?;
            heads.extend_from_slice(&decode_block_heads(&self.spec, &frame)?);
        }
        codec.logical.account(offset, bytes, true);
        let skip = (index - (first as u64 * codec.block_records as u64)) as usize * head;
        if heads.len() < skip + count * head {
            return Err(StorageError::Corrupt(
                "compressed block heads decoded short of the requested range".into(),
            ));
        }
        heads.drain(..skip);
        heads.truncate(count * head);
        Ok(heads)
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
            .field("compression", &self.body.compression().name())
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

    /// Logical size in bytes: `records × record_size`, regardless of
    /// compression.  Byte-budget arithmetic (merge buffer sizing, cost
    /// models) stays on this view so decisions are identical at
    /// compression off/prefix; the real disk footprint is
    /// [`DynRunFile::physical_byte_size`].
    pub fn byte_size(&self) -> u64 {
        self.body.count * self.layout.record_size() as u64
    }

    /// Bytes the backing file actually occupies on disk (compressed blocks
    /// plus the block-directory footer; equals [`DynRunFile::byte_size`]
    /// when compression is off).
    pub fn physical_byte_size(&self) -> u64 {
        self.body.file.len()
    }

    /// The compression this run was written with.
    pub fn compression(&self) -> Compression {
        self.body.compression()
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        self.body.file.path()
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
        Ok(self.layout.decode(&buf))
    }

    /// Reads up to `count` records starting at `index`.
    pub fn read_range(&self, index: u64, count: usize) -> Result<Vec<L::Record>> {
        let size = self.layout.record_size();
        let buf = self.body.read(index, count)?;
        Ok(buf
            .chunks_exact(size)
            .map(|c| self.layout.decode(c))
            .collect())
    }

    /// Reads up to `count` records starting at `index` as raw encoded bytes
    /// in one positioned read, for callers that decode lazily (e.g. after a
    /// prefetched read of the same range).
    pub fn read_raw(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        self.body.read(index, count)
    }

    /// Reads the per-record head bytes (`head_size()` each — key prefix
    /// plus integer fields, no value tail) of up to `count` records
    /// starting at `index`.  On compressed runs this reads strictly fewer
    /// physical bytes than [`DynRunFile::read_raw`] whenever the layout has
    /// a value tail; logical accounting is identical to a full-record read
    /// on every path.
    pub fn read_heads_raw(&self, index: u64, count: usize) -> Result<Vec<u8>> {
        self.body.read_heads(index, count)
    }

    /// Bytes per record returned by [`DynRunFile::read_heads_raw`].
    pub fn head_size(&self) -> usize {
        self.body.spec.head_size()
    }

    /// Sequential reader with a buffer of `buffer_records` records.
    pub fn reader(&self, buffer_records: usize) -> DynRunReader<L> {
        self.reader_with_prefetch(buffer_records, false)
    }

    /// Like [`DynRunFile::reader`], optionally reading each next buffer
    /// ahead on a background thread while the caller consumes the current
    /// one.  Prefetching issues exactly the same reads in the same order, so
    /// the I/O accounting is unchanged.
    pub fn reader_with_prefetch(&self, buffer_records: usize, prefetch: bool) -> DynRunReader<L> {
        self.reader_with_prefetch_gate(buffer_records, prefetch, crate::PREFETCH_MIN_BYTES)
    }

    /// Like [`DynRunFile::reader_with_prefetch`] with an explicit read-ahead
    /// engage gate in bytes (`usize::MAX` never spawns the worker); see
    /// `crate::extsort::ExternalSortConfig::prefetch_min_bytes`.
    pub fn reader_with_prefetch_gate(
        &self,
        buffer_records: usize,
        prefetch: bool,
        prefetch_min_bytes: usize,
    ) -> DynRunReader<L> {
        DynRunReader {
            run: self.clone(),
            buffer: VecDeque::new(),
            next_index: 0,
            buffer_records: buffer_records.max(1),
            prefetch,
            prefetch_min_bytes,
            prefetcher: None,
        }
    }

    /// Spawns a background reader over the record ranges given as
    /// `(start_record, record_count)` pairs, delivering each range's raw
    /// bytes in order while staying at most two buffers ahead.  Callers
    /// decode with [`DynRunFile::layout`]; higher layers (e.g. the sharded
    /// CLSM compaction) use this to prefetch block reads whose boundaries
    /// they derive from their own index structures.
    pub fn range_prefetcher(&self, ranges: Vec<(u64, u32)>) -> ReadAheadBuffers {
        let body = Arc::clone(&self.body);
        let ranges = ranges
            .into_iter()
            .filter_map(|(start, count)| (count > 0).then_some((start, count as usize)));
        read_ahead_with(ranges, move |start, count| body.read(start, count))
    }

    /// Advises the kernel how the run's mapped pages are about to be
    /// accessed (mmap backend only; see
    /// [`PagedFile::advise_read_pattern`]).  Merge/scan range readers pass
    /// `Sequential`, query-time block probes `Random`; accounting is
    /// unaffected either way.
    pub fn advise_read_pattern(&self, pattern: crate::mmap::AccessPattern) {
        self.body.file.advise_read_pattern(pattern);
    }

    /// Returns `true` while the backing file holds a live read mapping.
    pub fn is_mapped(&self) -> bool {
        self.body.file.is_mapped()
    }

    /// Number of fdatasync calls issued on the backing file (durable
    /// finishes sync exactly once; volatile finishes never do).
    pub fn sync_count(&self) -> u64 {
        self.body.file.sync_count()
    }

    /// Number of appends (write syscalls) the run was written with.
    pub fn write_count(&self) -> u64 {
        self.body.file.write_count()
    }

    /// Deletes the backing file.  The read mapping is dropped *before* the
    /// unlink, so no clone of this run — a compaction reader, a query unit —
    /// can keep serving reads through a mapping of a deleted file.
    pub fn delete(self) -> Result<()> {
        self.body.file.unmap();
        let path = self.body.file.path().to_path_buf();
        drop(self.body);
        std::fs::remove_file(path)?;
        Ok(())
    }

    /// Retires `inputs`, whose records the durably finished `outputs` now
    /// hold.  The inputs stop serving mapped reads at once; their files are
    /// unlinked by the durability worker, in a job queued behind the
    /// outputs' syncs, and only if every one of those syncs succeeded — an
    /// input never leaves the disk before the run replacing it is durable.
    pub fn replace(outputs: &[&DynRunFile<L>], inputs: Vec<DynRunFile<L>>) -> Result<()> {
        durability::submit(Self::replace_job(outputs, inputs))
    }

    fn replace_job(outputs: &[&DynRunFile<L>], inputs: Vec<DynRunFile<L>>) -> Job {
        let outputs: Vec<Arc<RunBody>> = outputs.iter().map(|o| Arc::clone(&o.body)).collect();
        let unlink: Vec<PathBuf> = inputs
            .into_iter()
            .map(|input| {
                input.body.file.unmap();
                input.body.file.path().to_path_buf()
            })
            .collect();
        let kept = unlink.len();
        let outputs_durable = move || match outputs.iter().find(|o| o.file.sync_count() == 0) {
            None => Ok(()),
            // Its sync failed (and was reported); a retry would not bring
            // back pages the kernel already dropped.
            Some(o) => Err(std::io::Error::other(format!(
                "{} was never synced, so the {kept} run(s) it replaces stay on disk",
                o.file.path().display()
            ))),
        };
        Job::new(outputs_durable, unlink)
    }
}

/// Bytes a run writer gathers before it appends them to its file.
const APPEND_BYTES: usize = 64 * 1024;

/// The non-generic write engine under a [`DynRunWriter`]; see [`RunBody`].
///
/// With `compression = off` records accumulate in a buffer appended to the
/// file whenever it reaches [`APPEND_BYTES`] (or one page / one record, if
/// larger): a run is written in large sequential appends, one `pwrite`
/// each, and its bytes are identical whatever the cadence.  With
/// `compression = prefix` the same buffer instead fills one block's worth
/// of records, each full block is front-/delta-coded and appended, and the
/// *logical* `IoStats` view is charged on a virtual uncompressed file with
/// exactly the off path's flush cadence — so the logical counters are
/// identical at off/prefix by construction while the physical counters
/// report the real (smaller) writes.
struct RunBodyWriter {
    file: PagedFile,
    record_size: usize,
    spec: ColumnSpec,
    buffer: Vec<u8>,
    count: u64,
    flush_bytes: usize,
    codec: Option<WriterCodec>,
}

struct WriterCodec {
    block_records: usize,
    blocks: Vec<BlockExtent>,
    logical: LogicalAccountant,
    /// Scratch frame the current block is encoded into.
    frame: Vec<u8>,
    /// Bytes of the virtual uncompressed file not yet charged to the
    /// logical view; flushed at `flush_bytes`, mirroring the off path's
    /// buffer flushes one for one.
    logical_pending: usize,
    /// Offset of the next logical flush in the virtual uncompressed file.
    logical_offset: u64,
}

impl RunBodyWriter {
    fn create<P: AsRef<Path>>(
        path: P,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
        compression: Compression,
        spec: ColumnSpec,
    ) -> Result<Self> {
        let record_size = spec.record_size();
        let codec = match compression {
            Compression::Off => None,
            Compression::Prefix => Some(WriterCodec {
                block_records: block_records_for(record_size),
                blocks: Vec::new(),
                logical: LogicalAccountant::new(Arc::clone(&stats), page_size),
                frame: Vec::new(),
                logical_pending: 0,
                logical_offset: 0,
            }),
        };
        let file = PagedFile::create_with_page_size(path, stats, page_size)?.with_backend(backend);
        // Compressed appends/reads go through the codec, which owns the
        // logical view; the file itself must then only report physical
        // traffic or every access would be double-counted.
        let file = if codec.is_some() {
            file.with_physical_only_accounting()
        } else {
            file
        };
        let flush_bytes = page_size.max(record_size).max(APPEND_BYTES);
        let buffer_capacity = match &codec {
            Some(c) => c.block_records * record_size,
            // The threshold is checked after a push, so the buffer overshoots
            // it by up to one record.
            None => flush_bytes + record_size,
        };
        Ok(RunBodyWriter {
            file,
            record_size,
            spec,
            buffer: Vec::with_capacity(buffer_capacity),
            count: 0,
            flush_bytes,
            codec,
        })
    }

    /// Appends one record; `encode` fills the freshly reserved
    /// `record_size` bytes in place.
    fn push_record(&mut self, encode: impl FnOnce(&mut [u8])) -> Result<()> {
        let start = self.buffer.len();
        self.buffer.resize(start + self.record_size, 0);
        encode(&mut self.buffer[start..]);
        self.count += 1;
        match &mut self.codec {
            None => {
                if self.buffer.len() >= self.flush_bytes {
                    self.file.append(&self.buffer)?;
                    self.buffer.clear();
                }
            }
            Some(codec) => {
                // Mirror the off path's flush cadence on the virtual
                // uncompressed file (same threshold, same post-push check).
                codec.logical_pending += self.record_size;
                if codec.logical_pending >= self.flush_bytes {
                    codec
                        .logical
                        .account(codec.logical_offset, codec.logical_pending, false);
                    codec.logical_offset += codec.logical_pending as u64;
                    codec.logical_pending = 0;
                }
                if self.buffer.len() >= codec.block_records * self.record_size {
                    Self::flush_block(&self.file, &self.spec, codec, &mut self.buffer)?;
                }
            }
        }
        Ok(())
    }

    fn flush_block(
        file: &PagedFile,
        spec: &ColumnSpec,
        codec: &mut WriterCodec,
        buffer: &mut Vec<u8>,
    ) -> Result<()> {
        if buffer.is_empty() {
            return Ok(());
        }
        codec.frame.clear();
        let head_len = encode_block(spec, buffer, &mut codec.frame);
        let offset = file.append(&codec.frame)?;
        codec.blocks.push(BlockExtent {
            offset,
            len: codec.frame.len() as u32,
            head_len: head_len as u32,
        });
        buffer.clear();
        Ok(())
    }

    /// Appends the tail and returns the readable run.  A `durable` finish
    /// also queues the run's `fdatasync` on the durability worker.
    fn finish(mut self, durable: bool) -> Result<Arc<RunBody>> {
        match &mut self.codec {
            None => {
                if !self.buffer.is_empty() {
                    self.file.append(&self.buffer)?;
                    self.buffer.clear();
                }
            }
            Some(codec) => {
                Self::flush_block(&self.file, &self.spec, codec, &mut self.buffer)?;
                if codec.logical_pending > 0 {
                    codec
                        .logical
                        .account(codec.logical_offset, codec.logical_pending, false);
                    codec.logical_offset += codec.logical_pending as u64;
                    codec.logical_pending = 0;
                }
                Self::append_footer(&self.file, codec, self.count)?;
            }
        }
        let codec = self.codec.map(|c| RunCodec {
            block_records: c.block_records,
            blocks: c.blocks,
            logical: c.logical,
        });
        let body = Arc::new(RunBody {
            file: self.file,
            record_size: self.record_size,
            spec: self.spec,
            count: self.count,
            codec,
        });
        if durable {
            let run = Arc::clone(&body);
            let sync = move || {
                run.file.sync().map_err(|e| {
                    std::io::Error::other(format!(
                        "fdatasync of {}: {e}",
                        run.file.path().display()
                    ))
                })
            };
            durability::submit(Job::new(sync, Vec::new()))?;
        }
        Ok(body)
    }

    /// Appends the self-describing block directory: one
    /// `(offset u64, len u32, head_len u32)` big-endian triple per block,
    /// then `block_count u64`, `record_count u64`, `block_records u32`,
    /// `version u32` and [`FOOTER_MAGIC`].  Readers within a process reuse
    /// the in-memory directory; the footer makes the file format
    /// self-contained for offline tooling and crash-restart reopens.
    fn append_footer(file: &PagedFile, codec: &WriterCodec, count: u64) -> Result<()> {
        let mut footer = Vec::with_capacity(codec.blocks.len() * 16 + 28);
        for b in &codec.blocks {
            footer.extend_from_slice(&b.offset.to_be_bytes());
            footer.extend_from_slice(&b.len.to_be_bytes());
            footer.extend_from_slice(&b.head_len.to_be_bytes());
        }
        footer.extend_from_slice(&(codec.blocks.len() as u64).to_be_bytes());
        footer.extend_from_slice(&count.to_be_bytes());
        footer.extend_from_slice(&(codec.block_records as u32).to_be_bytes());
        footer.extend_from_slice(&1u32.to_be_bytes());
        footer.extend_from_slice(&FOOTER_MAGIC);
        file.append(&footer)?;
        Ok(())
    }
}

/// Appends records to a new dynamic run file.
pub struct DynRunWriter<L: RecordLayout> {
    layout: L,
    body: RunBodyWriter,
}

impl<L: RecordLayout> DynRunWriter<L> {
    /// Creates a new run at `path` (read back with the `pread` backend).
    pub fn create<P: AsRef<Path>>(
        layout: L,
        path: P,
        stats: SharedIoStats,
        page_size: usize,
    ) -> Result<Self> {
        Self::create_with(layout, path, stats, page_size, IoBackend::Pread)
    }

    /// Like [`DynRunWriter::create`], choosing the backend the finished run
    /// serves its reads with.
    pub fn create_with<P: AsRef<Path>>(
        layout: L,
        path: P,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
    ) -> Result<Self> {
        Self::create_compressed(layout, path, stats, page_size, backend, Compression::Off)
    }

    /// Like [`DynRunWriter::create_with`], choosing the on-disk compression
    /// (see [`Compression`]).  `off` produces byte-identical files to every
    /// release before the knob existed.
    pub fn create_compressed<P: AsRef<Path>>(
        layout: L,
        path: P,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
        compression: Compression,
    ) -> Result<Self> {
        let spec = layout.columns();
        debug_assert_eq!(
            spec.record_size(),
            layout.record_size(),
            "a layout's ColumnSpec must cover exactly its record"
        );
        let body = RunBodyWriter::create(path, stats, page_size, backend, compression, spec)?;
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

    /// Finishes a *volatile* scratch run without the fdatasync; see
    /// `RunWriter::finish_volatile` — only for sorter-internal spill runs
    /// that are merged and discarded within the same build.
    pub fn finish_volatile(self) -> Result<DynRunFile<L>> {
        Ok(DynRunFile {
            layout: self.layout,
            body: self.body.finish(false)?,
        })
    }
}

/// Buffered sequential reader over a [`DynRunFile`], optionally reading
/// ahead on a background thread (see [`DynRunFile::reader_with_prefetch`]).
pub struct DynRunReader<L: RecordLayout> {
    run: DynRunFile<L>,
    buffer: VecDeque<L::Record>,
    next_index: u64,
    buffer_records: usize,
    prefetch: bool,
    prefetch_min_bytes: usize,
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
        if self.prefetch
            && self.prefetcher.is_none()
            && remaining > self.buffer_records as u64
            && remaining.saturating_mul(self.run.layout.record_size() as u64)
                >= self.prefetch_min_bytes as u64
        {
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
                let size = self.run.layout.record_size();
                bytes
                    .chunks_exact(size)
                    .map(|c| self.run.layout.decode(c))
                    .collect()
            }
            None => self.run.read_range(self.next_index, self.buffer_records)?,
        };
        self.next_index += batch.len() as u64;
        self.buffer.extend(batch);
        Ok(())
    }

    /// Returns the next record without consuming it.
    pub fn peek(&mut self) -> Result<Option<L::Record>> {
        self.refill()?;
        Ok(self.buffer.front().cloned())
    }

    /// Returns and consumes the next record.
    pub fn next_record(&mut self) -> Result<Option<L::Record>> {
        self.refill()?;
        Ok(self.buffer.pop_front())
    }
}

impl<L: RecordLayout> Iterator for DynRunReader<L> {
    type Item = Result<L::Record>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

struct HeapEntry<K: Ord> {
    key: K,
    run: usize,
}

impl<K: Ord> PartialEq for HeapEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.run == other.run
    }
}
impl<K: Ord> Eq for HeapEntry<K> {}
impl<K: Ord> PartialOrd for HeapEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for HeapEntry<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.run.cmp(&other.run))
    }
}

/// K-way merge over sorted dynamic runs.
pub struct DynKWayMerge<L: RecordLayout> {
    layout: L,
    readers: Vec<DynRunReader<L>>,
    heap: BinaryHeap<Reverse<HeapEntry<L::Key>>>,
}

impl<L: RecordLayout> DynKWayMerge<L> {
    /// Builds a merge over sorted runs with a per-run read buffer of
    /// `buffer_records` records.
    pub fn new(layout: L, runs: &[DynRunFile<L>], buffer_records: usize) -> Result<Self> {
        Self::new_with_prefetch(layout, runs, buffer_records, false)
    }

    /// Like [`DynKWayMerge::new`], optionally prefetching each run's next
    /// buffer on a background thread while the heap drains the current one.
    pub fn new_with_prefetch(
        layout: L,
        runs: &[DynRunFile<L>],
        buffer_records: usize,
        prefetch: bool,
    ) -> Result<Self> {
        Self::new_with_prefetch_gate(
            layout,
            runs,
            buffer_records,
            prefetch,
            crate::PREFETCH_MIN_BYTES,
        )
    }

    /// Like [`DynKWayMerge::new_with_prefetch`] with an explicit read-ahead
    /// engage gate; see
    /// `crate::extsort::ExternalSortConfig::prefetch_min_bytes`.
    pub fn new_with_prefetch_gate(
        layout: L,
        runs: &[DynRunFile<L>],
        buffer_records: usize,
        prefetch: bool,
        prefetch_min_bytes: usize,
    ) -> Result<Self> {
        let mut readers: Vec<DynRunReader<L>> = runs
            .iter()
            .map(|r| r.reader_with_prefetch_gate(buffer_records, prefetch, prefetch_min_bytes))
            .collect();
        let mut heap = BinaryHeap::new();
        for (i, reader) in readers.iter_mut().enumerate() {
            if let Some(rec) = reader.peek()? {
                heap.push(Reverse(HeapEntry {
                    key: layout.key(&rec),
                    run: i,
                }));
            }
        }
        Ok(DynKWayMerge {
            layout,
            readers,
            heap,
        })
    }
}

impl<L: RecordLayout> Iterator for DynKWayMerge<L> {
    type Item = Result<L::Record>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse(entry) = self.heap.pop()?;
        let reader = &mut self.readers[entry.run];
        let record = match reader.next_record() {
            Ok(Some(r)) => r,
            Ok(None) => {
                return Some(Err(crate::StorageError::Corrupt(
                    "run reader exhausted while its key was still queued".into(),
                )))
            }
            Err(e) => return Some(Err(e)),
        };
        match reader.peek() {
            Ok(Some(next)) => self.heap.push(Reverse(HeapEntry {
                key: self.layout.key(&next),
                run: entry.run,
            })),
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok(record))
    }
}

/// K-way merge over arbitrary sorted record iterators sharing a layout.
///
/// The comparison semantics match [`DynKWayMerge`] exactly — records are
/// ordered by their layout key, ties broken toward the lower input index —
/// but the inputs are plain iterators instead of whole run files, so callers
/// can merge *slices* of runs (e.g. one key shard of every input run during
/// a sharded compaction).  The error type is generic so higher layers can
/// merge iterators yielding their own error enums, as long as storage
/// corruption is convertible into them.
pub struct DynIterMerge<L, I, E>
where
    L: RecordLayout,
    I: Iterator<Item = std::result::Result<L::Record, E>>,
    E: From<crate::StorageError>,
{
    layout: L,
    inputs: Vec<I>,
    heads: Vec<Option<L::Record>>,
    heap: BinaryHeap<Reverse<HeapEntry<L::Key>>>,
}

impl<L, I, E> DynIterMerge<L, I, E>
where
    L: RecordLayout,
    I: Iterator<Item = std::result::Result<L::Record, E>>,
    E: From<crate::StorageError>,
{
    /// Builds a merge over already-sorted record iterators.
    pub fn new(layout: L, mut inputs: Vec<I>) -> std::result::Result<Self, E> {
        let mut heads: Vec<Option<L::Record>> = Vec::with_capacity(inputs.len());
        let mut heap = BinaryHeap::new();
        for (i, input) in inputs.iter_mut().enumerate() {
            let head = input.next().transpose()?;
            if let Some(record) = &head {
                heap.push(Reverse(HeapEntry {
                    key: layout.key(record),
                    run: i,
                }));
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
    E: From<crate::StorageError>,
{
    type Item = std::result::Result<L::Record, E>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse(entry) = self.heap.pop()?;
        let record = match self.heads[entry.run].take() {
            Some(r) => r,
            None => {
                return Some(Err(E::from(crate::StorageError::Corrupt(
                    "merge input exhausted while its key was still queued".into(),
                ))))
            }
        };
        match self.inputs[entry.run].next().transpose() {
            Ok(Some(next)) => {
                self.heap.push(Reverse(HeapEntry {
                    key: self.layout.key(&next),
                    run: entry.run,
                }));
                self.heads[entry.run] = Some(next);
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
    merge: Option<DynKWayMerge<L>>,
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
pub struct DynExternalSorter<L: RecordLayout> {
    layout: L,
    memory_budget_bytes: usize,
    page_size: usize,
    parallelism: usize,
    io_overlap: bool,
    io_backend: IoBackend,
    compression: Compression,
    prefetch_min_bytes: usize,
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
            parallelism: 1,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            compression: Compression::Off,
            prefetch_min_bytes: crate::PREFETCH_MIN_BYTES,
            scratch_dir: scratch_dir.as_ref().to_path_buf(),
            stats,
            next_run_id: 0,
        }
    }

    /// Sets the read-ahead engage gate for the merge readers in bytes
    /// (default [`crate::PREFETCH_MIN_BYTES`]; `usize::MAX` disables
    /// read-ahead).  A pure performance knob; see
    /// [`crate::extsort::ExternalSortConfig::prefetch_min_bytes`].
    pub fn with_prefetch_min_bytes(mut self, bytes: usize) -> Self {
        self.prefetch_min_bytes = bytes;
        self
    }

    /// Overrides the page size used for spill runs.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size > 0);
        self.page_size = page_size;
        self
    }

    /// Sets the chunk-sort parallelism (`1` = sequential, `0` = all cores).
    /// Every setting produces byte-identical runs; see
    /// [`crate::extsort::ExternalSortConfig::parallelism`].
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Enables or disables overlapped I/O — double-buffered run generation
    /// plus prefetching merge readers; default on.  A pure performance knob:
    /// runs are byte-identical and `IoStats` totals identical either way;
    /// see [`crate::extsort::ExternalSortConfig::io_overlap`].
    pub fn with_io_overlap(mut self, overlap: bool) -> Self {
        self.io_overlap = overlap;
        self
    }

    /// Selects the read backend for spill runs (default `pread`).  A pure
    /// performance knob: runs and `IoStats` totals are identical either
    /// way; see `crate::extsort::ExternalSortConfig::io_backend`.
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Selects the on-disk compression for spill runs (default `off`).
    /// The sorted record sequence and the *logical* `IoStats` view are
    /// identical either way; `prefix` shrinks the physical spill bytes.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    fn records_per_chunk(&self) -> usize {
        // Half of the budget per chunk; see
        // [`crate::extsort::ExternalSortConfig::memory_budget_bytes`] for the
        // split between run generation and merge read buffers.
        (self.memory_budget_bytes / 2 / self.layout.record_size()).max(2)
    }

    /// Sorts `input`, spilling when the memory budget is exceeded.
    ///
    /// With overlapped I/O enabled (the default, see
    /// [`DynExternalSorter::with_io_overlap`]) run generation double-buffers
    /// through a dedicated writer worker and the merge readers prefetch;
    /// the runs and `IoStats` totals are identical in either mode.
    pub fn sort<I>(&mut self, input: I) -> Result<DynSortOutput<L>>
    where
        I: IntoIterator<Item = L::Record>,
    {
        let (runs, mut chunk, total) = if self.io_overlap {
            self.generate_runs_overlapped(input)?
        } else {
            self.generate_runs_sequential(input)?
        };
        if runs.is_empty() {
            let layout = self.layout.clone();
            let workers = effective_parallelism(self.parallelism);
            parallel_sort_by_key(&mut chunk, workers, |r| layout.key(r));
            return Ok(DynSortOutput {
                in_memory: Some(chunk.into_iter()),
                merge: None,
                runs_generated: 0,
                record_count: total,
            });
        }
        // Release the chunk's capacity before the merge readers allocate
        // their buffers; the readers share a quarter of the budget.
        drop(chunk);
        let per_run_records =
            (self.memory_budget_bytes / 4 / self.layout.record_size() / runs.len().max(1)).max(1);
        let merge = DynKWayMerge::new_with_prefetch_gate(
            self.layout.clone(),
            &runs,
            per_run_records,
            self.io_overlap,
            self.prefetch_min_bytes,
        )?;
        Ok(DynSortOutput {
            in_memory: None,
            merge: Some(merge),
            runs_generated: runs.len(),
            record_count: total,
        })
    }

    /// Historical strictly alternating pipeline; see
    /// [`crate::extsort::ExternalSorter`] for the shape of the contract.
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
        let workers = effective_parallelism(self.parallelism);
        let layout = self.layout.clone();
        let writer_layout = self.layout.clone();
        let scratch_dir = self.scratch_dir.clone();
        let stats = Arc::clone(&self.stats);
        let page_size = self.page_size;
        let io_backend = self.io_backend;
        let compression = self.compression;
        let first_run_id = self.next_run_id;

        let (runs, chunk, total) = std::thread::scope(
            |scope| -> Result<(Vec<DynRunFile<L>>, Vec<L::Record>, u64)> {
                let (tx, rx) = coconut_parallel::bounded::<Vec<L::Record>>(2);
                let writer = scope.spawn(move || -> Result<Vec<DynRunFile<L>>> {
                    let mut runs: Vec<DynRunFile<L>> = Vec::new();
                    while let Some(sorted_chunk) = rx.recv() {
                        let path = scratch_dir.join(format!(
                            "dynsort-run-{:06}.run",
                            first_run_id + runs.len() as u64
                        ));
                        let mut writer = DynRunWriter::create_compressed(
                            writer_layout.clone(),
                            path,
                            Arc::clone(&stats),
                            page_size,
                            io_backend,
                            compression,
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
                        parallel_sort_by_key(&mut chunk, workers, |r| layout.key(r));
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
                    parallel_sort_by_key(&mut chunk, workers, |r| layout.key(r));
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
        let layout = self.layout.clone();
        let workers = effective_parallelism(self.parallelism);
        parallel_sort_by_key(chunk, workers, |r| layout.key(r));
        let path = self
            .scratch_dir
            .join(format!("dynsort-run-{:06}.run", self.next_run_id));
        self.next_run_id += 1;
        let mut writer = DynRunWriter::create_compressed(
            self.layout.clone(),
            path,
            Arc::clone(&self.stats),
            self.page_size,
            self.io_backend,
            self.compression,
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

    fn make_records(n: usize, payload_len: usize) -> Vec<(u64, Vec<u8>)> {
        (0..n as u64)
            .map(|i| {
                let key = (i * 2654435761) % 100_000;
                (key, vec![(i % 251) as u8; payload_len])
            })
            .collect()
    }

    #[test]
    fn dyn_run_roundtrip() {
        let dir = ScratchDir::new("dynrun").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 13 };
        let mut w = DynRunWriter::create(layout.clone(), dir.file("a.run"), stats, 512).unwrap();
        let records = make_records(500, 13);
        for r in &records {
            w.push(r).unwrap();
        }
        let run = w.finish().unwrap();
        assert_eq!(run.len(), 500);
        assert_eq!(run.byte_size(), 500 * 21);
        let back: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
        assert_eq!(run.read_record(123).unwrap(), records[123]);
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

    #[test]
    fn dyn_sort_in_memory_when_budget_suffices() {
        let dir = ScratchDir::new("dynsort-mem").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 4 };
        let records = make_records(100, 4);
        let mut sorter = DynExternalSorter::new(layout, 1 << 20, dir.path(), Arc::clone(&stats));
        let out = sorter.sort(records).unwrap();
        assert!(!out.spilled());
        let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
        assert_eq!(sorted.len(), 100);
        assert_eq!(stats.snapshot().total_accesses(), 0);
    }

    #[test]
    fn overlapped_dyn_sort_is_identical_to_sequential() {
        let layout = PairLayout { payload_len: 24 };
        let records = make_records(4000, 24);
        for parallelism in [1usize, 8] {
            let mut outcomes = Vec::new();
            for io_overlap in [false, true] {
                let dir =
                    ScratchDir::new(&format!("dynsort-ovl-{parallelism}-{io_overlap}")).unwrap();
                let stats = IoStats::shared();
                let mut sorter = DynExternalSorter::new(
                    layout.clone(),
                    32 * 300, // forces spilling
                    dir.path(),
                    Arc::clone(&stats),
                )
                .with_page_size(1024)
                .with_parallelism(parallelism)
                .with_io_overlap(io_overlap);
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
    }

    #[test]
    fn prefetching_dyn_reader_matches_direct_reader() {
        let dir = ScratchDir::new("dynrun-prefetch").unwrap();
        let stats = IoStats::shared();
        // 10k records x 248 bytes = 2.4 MiB, past the PREFETCH_MIN_BYTES
        // gate so the read-ahead worker actually engages.
        let layout = PairLayout { payload_len: 240 };
        let mut w =
            DynRunWriter::create(layout.clone(), dir.file("a.run"), Arc::clone(&stats), 512)
                .unwrap();
        let records = make_records(10_000, 240);
        for r in &records {
            w.push(r).unwrap();
        }
        let run = w.finish().unwrap();
        stats.reset();
        let direct: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
        let direct_stats = stats.snapshot();
        stats.reset();
        let mut prefetching_reader = run.reader_with_prefetch(64, true);
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
            .with_io_backend(backend);
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
        let mut durable =
            DynRunWriter::create(layout.clone(), dir.file("d.run"), IoStats::shared(), 512)
                .unwrap();
        let mut volatile =
            DynRunWriter::create(layout.clone(), dir.file("v.run"), IoStats::shared(), 512)
                .unwrap();
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
        let mut w = DynRunWriter::create(layout, path, IoStats::shared(), 512).unwrap();
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

    #[test]
    fn iter_merge_matches_run_merge() {
        let dir = ScratchDir::new("dyniter").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 6 };
        let mut runs = Vec::new();
        for i in 0..4u64 {
            let mut recs = make_records(150, 6);
            recs.iter_mut().for_each(|r| r.0 = r.0.wrapping_mul(i + 1));
            recs.sort_by_key(|r| r.0);
            let mut w = DynRunWriter::create(
                layout.clone(),
                dir.file(&format!("{i}.run")),
                Arc::clone(&stats),
                512,
            )
            .unwrap();
            for r in &recs {
                w.push(r).unwrap();
            }
            runs.push(w.finish().unwrap());
        }
        let expected: Vec<_> = DynKWayMerge::new(layout.clone(), &runs, 32)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let iters: Vec<_> = runs.iter().map(|r| r.reader(32)).collect();
        let got: Vec<_> = DynIterMerge::new(layout, iters)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, expected, "iterator merge must match the run merge");
    }

    /// Layout with a big-endian key prefix, one integer field and a raw
    /// value tail, exercising the columnar [`ColumnSpec`] override the way
    /// index-entry layouts do.
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

        fn columns(&self) -> ColumnSpec {
            ColumnSpec {
                prefix_len: 8,
                int_fields: 1,
                tail_len: self.tail_len,
            }
        }
    }

    /// The tentpole contract at the run level: a `prefix` run returns the
    /// same records through every read path as an `off` run, charges the
    /// identical *logical* `IoStats`, and occupies (and writes) strictly
    /// fewer physical bytes on sorted keys.
    #[test]
    fn compressed_run_matches_off_run_with_identical_logical_iostats() {
        let dir = ScratchDir::new("dynrun-prefix").unwrap();
        let layout = PairLayout { payload_len: 13 };
        // Sorted keys with duplicates: the front-coder's best case, and the
        // order real runs always have.
        let mut records = make_records(2000, 13);
        records.sort_by_key(|r| r.0);
        let mut outcomes = Vec::new();
        for compression in [Compression::Off, Compression::Prefix] {
            let stats = IoStats::shared();
            let mut w = DynRunWriter::create_compressed(
                layout.clone(),
                dir.file(&format!("{compression}.run")),
                Arc::clone(&stats),
                512,
                IoBackend::Pread,
                compression,
            )
            .unwrap();
            for r in &records {
                w.push(r).unwrap();
            }
            let run = w.finish().unwrap();
            assert_eq!(run.compression(), compression);
            assert_eq!(run.len(), 2000);
            assert_eq!(run.byte_size(), 2000 * 21, "logical size is unchanged");
            let sequential: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
            let mut prefetched_reader = run.reader_with_prefetch_gate(64, true, 0);
            let prefetched: Vec<_> = (&mut prefetched_reader).map(|r| r.unwrap()).collect();
            assert!(prefetched_reader.prefetcher.is_some());
            // Probes across block boundaries (block_records_for(21) = 195).
            let mut probes = Vec::new();
            for (index, count) in [(0, 1), (194, 3), (195, 1), (100, 400), (1995, 50)] {
                probes.push(run.read_range(index, count).unwrap());
            }
            probes.push(vec![run.read_record(1234).unwrap()]);
            outcomes.push((
                sequential,
                prefetched,
                probes,
                run.physical_byte_size(),
                stats.snapshot(),
            ));
        }
        assert_eq!(outcomes[0].0, records, "off run returns the input");
        assert_eq!(outcomes[0].0, outcomes[1].0, "sequential reads");
        assert_eq!(outcomes[0].1, outcomes[1].1, "prefetched reads");
        assert_eq!(outcomes[0].2, outcomes[1].2, "range/record probes");
        assert!(
            outcomes[1].3 < outcomes[0].3,
            "even high-entropy payloads must compress: {} vs {}",
            outcomes[1].3,
            outcomes[0].3
        );
        assert_eq!(
            outcomes[0].4.logical(),
            outcomes[1].4.logical(),
            "logical IoStats are identical by construction"
        );
        assert!(
            outcomes[1].4.physical_bytes_written < outcomes[0].4.physical_bytes_written,
            "compressed writes move fewer physical bytes"
        );
        assert_eq!(
            outcomes[0].4.physical_bytes_read, outcomes[0].4.bytes_read,
            "off runs: physical == logical"
        );
    }

    /// On the workload the paper argues about — sorted runs whose
    /// neighboring keys share long prefixes (dense, duplicate-heavy invSAX
    /// words) — front-coding must clear the headline 1.5x ratio easily.
    #[test]
    fn sorted_duplicate_keys_compress_well() {
        let dir = ScratchDir::new("dynrun-ratio").unwrap();
        let layout = PairLayout { payload_len: 13 };
        let records: Vec<(u64, Vec<u8>)> = (0..2000u64)
            .map(|i| (i / 4, vec![((i / 4) % 251) as u8; 13]))
            .collect();
        let mut sizes = Vec::new();
        for compression in [Compression::Off, Compression::Prefix] {
            let mut w = DynRunWriter::create_compressed(
                layout.clone(),
                dir.file(&format!("r-{compression}.run")),
                IoStats::shared(),
                512,
                IoBackend::Pread,
                compression,
            )
            .unwrap();
            for r in &records {
                w.push(r).unwrap();
            }
            let run = w.finish().unwrap();
            let back: Vec<_> = run.reader(64).map(|r| r.unwrap()).collect();
            assert_eq!(back, records);
            sizes.push(run.physical_byte_size());
        }
        assert!(
            sizes[1] * 3 < sizes[0] * 2,
            "sorted duplicate-heavy keys must compress at least 1.5x: {} vs {}",
            sizes[1],
            sizes[0]
        );
    }

    /// Key-only scans over a columnar layout read strictly fewer physical
    /// bytes from a compressed run (the raw value tail stays on disk),
    /// while returning identical head bytes and logical accounting.
    #[test]
    fn compressed_head_scans_skip_the_value_tail() {
        let dir = ScratchDir::new("dynrun-heads").unwrap();
        let layout = ColumnarLayout { tail_len: 112 };
        let records: Vec<(u64, u64, Vec<u8>)> = (0..1500u64)
            .map(|i| (i / 3, i, vec![(i % 251) as u8; 112]))
            .collect();
        let mut outcomes = Vec::new();
        for compression in [Compression::Off, Compression::Prefix] {
            let stats = IoStats::shared();
            let mut w = DynRunWriter::create_compressed(
                layout.clone(),
                dir.file(&format!("h-{compression}.run")),
                Arc::clone(&stats),
                512,
                IoBackend::Pread,
                compression,
            )
            .unwrap();
            for r in &records {
                w.push(r).unwrap();
            }
            let run = w.finish().unwrap();
            stats.reset();
            let heads = run.read_heads_raw(0, records.len()).unwrap();
            assert_eq!(heads.len(), records.len() * run.head_size());
            let head_snap = stats.snapshot();
            stats.reset();
            let full = run.read_raw(0, records.len()).unwrap();
            let full_snap = stats.snapshot();
            outcomes.push((heads, full, head_snap, full_snap));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "head bytes");
        assert_eq!(outcomes[0].1, outcomes[1].1, "full records");
        assert_eq!(
            outcomes[0].2.logical(),
            outcomes[1].2.logical(),
            "head scans charge full-record logical reads on every path"
        );
        let (off_heads, prefix_heads) = (&outcomes[0].2, &outcomes[1].2);
        let prefix_full = &outcomes[1].3;
        assert!(
            prefix_heads.physical_bytes_read < prefix_full.physical_bytes_read,
            "head scan must touch fewer physical bytes than the full scan"
        );
        assert!(
            prefix_heads.physical_bytes_read < off_heads.physical_bytes_read,
            "compressed head scan must beat the uncompressed scan"
        );
    }

    /// The external sorter spills compressed runs when asked, with
    /// identical sorted output and logical `IoStats` to `off`.
    #[test]
    fn compressed_dyn_sort_is_identical_to_off() {
        let layout = PairLayout { payload_len: 24 };
        let records = make_records(4000, 24);
        let mut outcomes = Vec::new();
        for compression in [Compression::Off, Compression::Prefix] {
            let dir = ScratchDir::new(&format!("dynsort-c-{compression}")).unwrap();
            let stats = IoStats::shared();
            let mut sorter = DynExternalSorter::new(
                layout.clone(),
                32 * 300, // forces spilling
                dir.path(),
                Arc::clone(&stats),
            )
            .with_page_size(1024)
            .with_compression(compression);
            let out = sorter.sort(records.clone()).unwrap();
            assert!(out.spilled());
            let sorted: Vec<_> = out.map(|r| r.unwrap()).collect();
            outcomes.push((sorted, stats.snapshot()));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "sorted output");
        assert_eq!(
            outcomes[0].1.logical(),
            outcomes[1].1.logical(),
            "logical IoStats totals"
        );
    }

    #[test]
    fn dyn_merge_of_sorted_runs() {
        let dir = ScratchDir::new("dynmerge").unwrap();
        let stats = IoStats::shared();
        let layout = PairLayout { payload_len: 8 };
        let mut runs = Vec::new();
        let mut all = Vec::new();
        for i in 0..3 {
            let mut recs = make_records(200, 8);
            recs.iter_mut().for_each(|r| r.0 = r.0.wrapping_add(i * 7));
            recs.sort_by_key(|r| r.0);
            let mut w = DynRunWriter::create(
                layout.clone(),
                dir.file(&format!("{i}.run")),
                Arc::clone(&stats),
                512,
            )
            .unwrap();
            for r in &recs {
                w.push(r).unwrap();
            }
            runs.push(w.finish().unwrap());
            all.extend(recs);
        }
        let merged: Vec<_> = DynKWayMerge::new(layout, &runs, 32)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged.len(), all.len());
        for w in merged.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Block-straddle property: any `(start, count)` range read from
            /// a compressed run — including ranges crossing one or many
            /// block boundaries and ranges clamped at the end — returns the
            /// same records as the uncompressed run, for random record
            /// sizes (which move the block boundaries around).
            #[test]
            fn compressed_ranges_match_off_across_block_straddles(
                n in 50usize..800,
                payload_len in 1usize..40,
                starts in proptest::collection::vec(0u64..1000, 12),
                counts in proptest::collection::vec(0usize..500, 12),
            ) {
                let dir = ScratchDir::new("dyn-prop-straddle").unwrap();
                let layout = PairLayout { payload_len };
                let mut records = make_records(n, payload_len);
                records.sort_by_key(|r| r.0);
                let mut runs = Vec::new();
                for compression in [Compression::Off, Compression::Prefix] {
                    let mut w = DynRunWriter::create_compressed(
                        layout.clone(),
                        dir.file(&format!("{compression}.run")),
                        IoStats::shared(),
                        512,
                        IoBackend::Pread,
                        compression,
                    )
                    .unwrap();
                    for r in &records {
                        w.push(r).unwrap();
                    }
                    runs.push(w.finish().unwrap());
                }
                for (&start, &count) in starts.iter().zip(&counts) {
                    let start = start % n as u64;
                    let off = runs[0].read_range(start, count).unwrap();
                    let prefix = runs[1].read_range(start, count).unwrap();
                    prop_assert_eq!(&off, &prefix);
                    let expect_len = count.min(n - start as usize);
                    prop_assert_eq!(off.len(), expect_len);
                }
            }
        }
    }
}
