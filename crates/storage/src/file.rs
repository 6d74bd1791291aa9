//! Paged files with access accounting.
//!
//! [`PagedFile`] is the only way indexes in this workspace touch disk.  It
//! offers positioned byte-level reads and writes, but accounts every
//! operation at page granularity and classifies each touched page as a
//! sequential or random access relative to the previously touched page of
//! the same file.  Appends are always sequential; a read that continues
//! where the previous one left off is sequential; everything else is random.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::heatmap::HeatMap;
use crate::iostats::{AccessKind, SharedIoStats};
use crate::mmap::{AccessPattern, IoBackend, Mapping};
use crate::page::{page_of_offset, pages_for_bytes, PageId, DEFAULT_PAGE_SIZE};
use crate::{Result, StorageError};

/// A file accessed at page granularity with I/O accounting.
pub struct PagedFile {
    path: PathBuf,
    /// Accessed with positional I/O only (`pread`/`pwrite`): no shared
    /// cursor, so reads need no lock and concurrent queries on one run do
    /// not serialize.
    file: File,
    page_size: usize,
    len: AtomicU64,
    /// Serializes `append`/`write_at`: offset assignment, the write and its
    /// accounting are one critical section.
    write_lock: Mutex<()>,
    last_page: Mutex<Option<(PageId, bool)>>, // (page, was_read)
    stats: SharedIoStats,
    heatmap: Option<Arc<HeatMap>>,
    backend: IoBackend,
    /// Lazily created read-only mapping serving reads when `backend` is
    /// [`IoBackend::Mmap`]; re-created when a read extends past its length,
    /// dropped explicitly by [`PagedFile::unmap`] before the file is deleted.
    mapping: Mutex<Option<Mapping>>,
    /// Advisory access-pattern hint applied to the read mapping (mmap
    /// backend only): merge/scan range readers advise `Sequential`,
    /// query-time block probes advise `Random`.  Never affects accounting.
    read_pattern: Mutex<AccessPattern>,
    /// Number of `sync` (fdatasync) calls issued on this file — lets tests
    /// assert that durable finish paths sync and volatile ones do not.
    sync_calls: AtomicU64,
    /// Number of `append` / `write_at` calls, i.e. write syscalls issued —
    /// the cadence a writer's buffering is judged by.
    write_calls: AtomicU64,
    /// When set, accesses charge only the *physical* byte counters of
    /// `IoStats` (no sequential/random classification).  Compressed run
    /// files set this: their logical view is charged from record arithmetic
    /// by a [`crate::block::LogicalAccountant`], while the block frames
    /// going through this file are pure physical traffic.
    physical_only: bool,
}

impl std::fmt::Debug for PagedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedFile")
            .field("path", &self.path)
            .field("page_size", &self.page_size)
            .field("len", &self.len())
            .finish()
    }
}

impl PagedFile {
    /// Creates (truncating) a new paged file.
    pub fn create<P: AsRef<Path>>(path: P, stats: SharedIoStats) -> Result<Self> {
        Self::create_with_page_size(path, stats, DEFAULT_PAGE_SIZE)
    }

    /// Creates a new paged file with an explicit page size.
    pub fn create_with_page_size<P: AsRef<Path>>(
        path: P,
        stats: SharedIoStats,
        page_size: usize,
    ) -> Result<Self> {
        assert!(page_size > 0);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(PagedFile {
            path: path.as_ref().to_path_buf(),
            file,
            page_size,
            len: AtomicU64::new(0),
            write_lock: Mutex::new(()),
            last_page: Mutex::new(None),
            stats,
            heatmap: None,
            backend: IoBackend::Pread,
            mapping: Mutex::new(None),
            read_pattern: Mutex::new(AccessPattern::Normal),
            sync_calls: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            physical_only: false,
        })
    }

    /// Opens an existing paged file for reading and writing.
    pub fn open<P: AsRef<Path>>(path: P, stats: SharedIoStats) -> Result<Self> {
        Self::open_with_page_size(path, stats, DEFAULT_PAGE_SIZE)
    }

    /// Opens an existing paged file with an explicit page size.
    pub fn open_with_page_size<P: AsRef<Path>>(
        path: P,
        stats: SharedIoStats,
        page_size: usize,
    ) -> Result<Self> {
        assert!(page_size > 0);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(PagedFile {
            path: path.as_ref().to_path_buf(),
            file,
            page_size,
            len: AtomicU64::new(len),
            write_lock: Mutex::new(()),
            last_page: Mutex::new(None),
            stats,
            heatmap: None,
            backend: IoBackend::Pread,
            mapping: Mutex::new(None),
            read_pattern: Mutex::new(AccessPattern::Normal),
            sync_calls: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            physical_only: false,
        })
    }

    /// Attaches a heat-map recorder; every subsequent access is recorded.
    pub fn with_heatmap(mut self, heatmap: Arc<HeatMap>) -> Self {
        self.heatmap = Some(heatmap);
        self
    }

    /// Selects the read backend (default [`IoBackend::Pread`]).  A pure
    /// performance knob: mapped reads return the same bytes and account the
    /// same page touches as positioned reads.
    pub fn with_backend(mut self, backend: IoBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The read backend this file serves reads with.
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// Switches the file to *physical-only* accounting: every access charges
    /// `IoStats::record_physical` (bytes that actually crossed the file API)
    /// and skips the sequential/random page classification entirely.
    ///
    /// Compressed run files use this — their logical view is charged from
    /// record arithmetic by a [`crate::block::LogicalAccountant`] so it
    /// stays identical to an uncompressed run, while the compressed block
    /// frames flowing through this file are counted as the physical traffic
    /// they are.
    pub fn with_physical_only_accounting(mut self) -> Self {
        self.physical_only = true;
        self
    }

    /// Returns `true` while a read mapping of the file is alive.
    pub fn is_mapped(&self) -> bool {
        self.mapping.lock().is_some()
    }

    /// Drops the read mapping (if any).  Must be called before the backing
    /// file is unlinked so no reads can be served through a mapping of a
    /// deleted file; a later read simply re-maps (or falls back to `pread`).
    pub fn unmap(&self) {
        *self.mapping.lock() = None;
    }

    /// Advises the kernel how the file's mapped pages are about to be
    /// accessed: merge/scan range readers pass
    /// [`AccessPattern::Sequential`], query-time block probes
    /// [`AccessPattern::Random`].
    ///
    /// Purely advisory and mmap-only — the `pread` backend ignores it, a
    /// repeated hint is skipped, and `IoStats` page-touch accounting is
    /// identical whatever was (or was not) advised.
    pub fn advise_read_pattern(&self, pattern: AccessPattern) {
        if self.backend != IoBackend::Mmap {
            return;
        }
        {
            // Update the stored hint first and bail when unchanged, so hot
            // paths issue at most one madvise per pattern switch.
            let mut current = self.read_pattern.lock();
            if *current == pattern {
                return;
            }
            *current = pattern;
        }
        // Lock order: `read_pattern` was released above; `read_mapped` also
        // never holds both locks at once.
        if let Some(mapping) = self.mapping.lock().as_ref() {
            mapping.advise(pattern);
        }
    }

    /// The currently advised read access pattern.
    pub fn read_pattern(&self) -> AccessPattern {
        *self.read_pattern.lock()
    }

    /// Number of [`PagedFile::sync`] calls issued so far.
    pub fn sync_count(&self) -> u64 {
        self.sync_calls.load(Ordering::Relaxed)
    }

    /// Number of [`PagedFile::append`] / [`PagedFile::write_at`] calls so
    /// far (one write syscall each).
    pub fn write_count(&self) -> u64 {
        self.write_calls.load(Ordering::Relaxed)
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Page size used for accounting.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        // Pairs with the `Release` store of `append`/`write_at`: a reader
        // that sees the new length also sees the bytes below it.
        self.len.load(Ordering::Acquire)
    }

    /// Returns `true` if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages (rounded up) the file currently occupies.
    pub fn num_pages(&self) -> u64 {
        pages_for_bytes(self.len(), self.page_size)
    }

    /// The shared I/O statistics handle this file reports into.
    pub fn stats(&self) -> &SharedIoStats {
        &self.stats
    }

    fn account(&self, offset: u64, bytes: usize, is_read: bool) {
        if bytes == 0 {
            return;
        }
        let first = page_of_offset(offset, self.page_size);
        let last = page_of_offset(offset + bytes as u64 - 1, self.page_size);
        if self.physical_only {
            // Physical traffic of a compressed run: charge exactly the bytes
            // that crossed the file API, no classification (the logical
            // accountant owns the sequential/random story).  Page-rounding
            // would double-charge pages shared by consecutive sub-page
            // block-frame appends.
            self.stats.record_physical(is_read, bytes as u64);
            return;
        }
        let mut last_page = self.last_page.lock();
        for page in first..=last {
            let sequential = match *last_page {
                // The very first touched page after opening counts as random.
                None => false,
                Some((prev, _)) => page == prev || page == prev + 1,
            };
            let kind = match (is_read, sequential) {
                (true, true) => AccessKind::SequentialRead,
                (true, false) => AccessKind::RandomRead,
                (false, true) => AccessKind::SequentialWrite,
                (false, false) => AccessKind::RandomWrite,
            };
            // The byte volume is attributed page by page (full pages except
            // possibly the edges; we simply charge the page size, which is
            // what a real device transfers anyway).
            self.stats.record(kind, self.page_size as u64);
            if let Some(hm) = &self.heatmap {
                hm.record(page, is_read);
            }
            *last_page = Some((page, is_read));
        }
    }

    /// Appends `data` to the end of the file, returning the offset it was
    /// written at.  Appends are accounted as sequential writes (after the
    /// first page).
    pub fn append(&self, data: &[u8]) -> Result<u64> {
        let guard = self.write_lock.lock();
        let offset = self.len.load(Ordering::Relaxed);
        write_all_at(&self.file, data, offset)?;
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.len
            .store(offset + data.len() as u64, Ordering::Release);
        // Account while still holding the write lock: releasing it first
        // would let a concurrent append slip its accounting in between,
        // making the sequential/random classification depend on thread
        // timing even though the file bytes themselves are identical.
        self.account(offset, data.len(), false);
        drop(guard);
        Ok(offset)
    }

    /// Writes `data` at `offset` (which may extend the file).
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let guard = self.write_lock.lock();
        write_all_at(&self.file, data, offset)?;
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::Release);
        // Account inside the critical section, like `append`, so concurrent
        // writers cannot interleave write order and accounting order.
        self.account(offset, data.len(), false);
        drop(guard);
        Ok(())
    }

    /// Reads `len` bytes starting at `offset`.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let file_len = self.len();
        let end = offset
            .checked_add(len as u64)
            .ok_or(StorageError::InvalidRange {
                offset,
                len: len as u64,
            })?;
        if end > file_len {
            return Err(StorageError::PageOutOfBounds {
                page: page_of_offset(end, self.page_size),
                pages: pages_for_bytes(file_len, self.page_size),
            });
        }
        let mut buf = vec![0u8; len];
        if !self.read_mapped(offset, &mut buf, file_len) {
            read_exact_at(&self.file, &mut buf, offset)?;
        }
        self.account(offset, len, true);
        Ok(buf)
    }

    /// Serves a bounds-checked read from the file mapping when the backend
    /// is [`IoBackend::Mmap`]; returns `false` (fall back to a positioned
    /// read) for the `pread` backend, empty reads, or when mapping fails.
    ///
    /// The mapping is created lazily at the file's current length and
    /// re-created whenever a read extends past it (the file grew since).
    /// `MAP_SHARED` keeps in-bounds bytes coherent with descriptor writes,
    /// so a live mapping never serves stale data.  Accounting happens in the
    /// caller, identically to the positioned path: the copy touches exactly
    /// the pages `account` charges, so `IoStats` totals are backend-
    /// independent by construction.
    fn read_mapped(&self, offset: u64, buf: &mut [u8], file_len: u64) -> bool {
        if self.backend != IoBackend::Mmap || buf.is_empty() {
            return false;
        }
        let end = offset + buf.len() as u64; // caller checked end <= file_len
        let mut mapping = self.mapping.lock();
        if mapping.as_ref().is_none_or(|m| (m.len() as u64) < end) {
            // Drop the outgrown mapping before building its replacement.
            *mapping = None;
            match Mapping::map(&self.file, file_len) {
                Ok(m) => {
                    // Re-apply the stored hint while still holding the
                    // `mapping` lock: a concurrent `advise_read_pattern`
                    // either stored its pattern before this read (picked up
                    // here) or blocks on `mapping` until the new mapping is
                    // visible (advised there) — the hint is never lost
                    // across a remap.  `advise_read_pattern` never holds
                    // `read_pattern` while taking `mapping`, so this
                    // nesting cannot deadlock.
                    let pattern = *self.read_pattern.lock();
                    if pattern != AccessPattern::Normal {
                        m.advise(pattern);
                    }
                    *mapping = Some(m);
                }
                Err(_) => return false,
            }
        }
        let m = mapping.as_ref().expect("mapping was just ensured");
        buf.copy_from_slice(&m.as_slice()[offset as usize..end as usize]);
        true
    }

    /// Reads one whole page (the last page may be short).
    pub fn read_page(&self, page: PageId) -> Result<Vec<u8>> {
        let file_len = self.len();
        let start = page * self.page_size as u64;
        if start >= file_len {
            return Err(StorageError::PageOutOfBounds {
                page,
                pages: self.num_pages(),
            });
        }
        let len = ((file_len - start) as usize).min(self.page_size);
        self.read_at(start, len)
    }

    /// Forces written data down to the storage device.
    ///
    /// `File::flush()` is a no-op for an unbuffered `std::fs::File` — the
    /// data already sits in the OS page cache and a crash would lose it —
    /// so durability requires `sync_data()` (fdatasync), which blocks until
    /// the device acknowledges the bytes.  Metadata-only updates (mtime)
    /// are not awaited; the file length is carried by the data itself.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        self.sync_calls.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Resets the sequential/random classification state (e.g. between the
    /// build phase and the query phase of an experiment).
    pub fn reset_access_cursor(&self) {
        *self.last_page.lock() = None;
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_all_at(file: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(data, offset)
}

/// Serializes the cursor-based fallbacks below: handles cloned from one
/// `File` share its cursor, so seek + transfer must not interleave.
#[cfg(not(unix))]
static CURSOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let _cursor = CURSOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let _cursor = CURSOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(data)
}

/// Smallest byte volume for which spawning a read-ahead worker pays off.
///
/// Below this, the whole range is likely resident in the page cache (the
/// merges of this workspace mostly read runs they just wrote), every read is
/// a short memcpy, and a background thread adds only spawn and hand-off
/// cost.  Above it, reads have a realistic chance of blocking on the device,
/// which is exactly what read-ahead hides.  The gate is a pure function of
/// the range size, so whether a reader prefetches never depends on timing.
///
/// This constant is only the *default*: every prefetching reader accepts an
/// explicit gate (`reader_with_prefetch_gate`, the sorters'
/// `prefetch_min_bytes` knobs), which the adaptive planner raises for
/// random-dominated workloads or sets to `usize::MAX` to disable read-ahead
/// on cache-resident indexes.  A pure performance knob either way: the gate
/// decides whether a worker thread is spawned, never which reads happen.
pub const PREFETCH_MIN_BYTES: usize = 2 * 1024 * 1024;

/// Target byte volume of one producer→consumer hand-off of a read-ahead
/// worker.  Small reads (a 35 KiB compaction block, a few-KiB merge batch)
/// are grouped up to this size before crossing the channel, so the context
/// switch per hand-off is amortized over a meaningful amount of data.
const PREFETCH_GROUP_BYTES: usize = 256 * 1024;

/// Buffers read ahead of the consumer by a background worker; created with
/// [`read_ahead`].
///
/// The worker issues the caller's byte ranges in order, groups the resulting
/// buffers into hand-offs of roughly 256 KiB, and stays at
/// most two hand-offs ahead (back-pressure bounds memory).  The reads are
/// exactly the reads the caller would have issued inline, in the same order,
/// so the per-file sequential/random accounting is unchanged — read-ahead
/// moves I/O in time, it never changes which I/Os happen.  After the first
/// failed read the worker stops (the error is delivered in place of that
/// buffer and nothing further is read, matching the inline path, which also
/// stops at its first error).
pub struct ReadAheadBuffers {
    inner: coconut_parallel::Prefetcher<Vec<Result<Vec<u8>>>>,
    pending: std::collections::VecDeque<Result<Vec<u8>>>,
}

impl ReadAheadBuffers {
    /// The bytes of the next range, in submission order; `None` once every
    /// range was delivered.
    pub fn next_buffer(&mut self) -> Option<Result<Vec<u8>>> {
        loop {
            if let Some(buffer) = self.pending.pop_front() {
                return Some(buffer);
            }
            self.pending.extend(self.inner.recv()?);
        }
    }
}

/// Spawns a background worker reading the `(offset, len)` byte ranges
/// produced by `ranges` from `file`, ahead of consumption; see
/// [`ReadAheadBuffers`].
pub fn read_ahead<I>(file: Arc<PagedFile>, ranges: I) -> ReadAheadBuffers
where
    I: Iterator<Item = (u64, usize)> + Send + 'static,
{
    read_ahead_with(ranges, move |offset, len| file.read_at(offset, len))
}

/// The generalization behind [`read_ahead`]: the worker resolves each
/// `(start, count)` range through an arbitrary `read` closure instead of a
/// raw `PagedFile` read.  Compressed runs pass *record* ranges and a
/// closure that reads + decodes their blocks, so the prefetched buffers
/// hold the same decoded record bytes the inline path produces — same
/// reads, same order, same accounting, whatever the on-disk format.
pub fn read_ahead_with<I, F>(mut ranges: I, mut read: F) -> ReadAheadBuffers
where
    I: Iterator<Item = (u64, usize)> + Send + 'static,
    F: FnMut(u64, usize) -> Result<Vec<u8>> + Send + 'static,
{
    let mut failed = false;
    let inner = coconut_parallel::Prefetcher::spawn(2, move || {
        if failed {
            return None;
        }
        let mut group: Vec<Result<Vec<u8>>> = Vec::new();
        let mut group_bytes = 0usize;
        while group_bytes < PREFETCH_GROUP_BYTES {
            let Some((start, count)) = ranges.next() else {
                break;
            };
            let result = read(start, count);
            failed = result.is_err();
            group_bytes += result.as_ref().map(|b| b.len()).unwrap_or(0);
            group.push(result);
            if failed {
                break;
            }
        }
        if group.is_empty() {
            None
        } else {
            Some(group)
        }
    });
    ReadAheadBuffers {
        inner,
        pending: std::collections::VecDeque::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoStats;
    use crate::tempdir::ScratchDir;

    fn setup(name: &str) -> (ScratchDir, SharedIoStats) {
        (ScratchDir::new(name).unwrap(), IoStats::shared())
    }

    #[test]
    fn append_then_read_roundtrip() {
        let (dir, stats) = setup("pf-roundtrip");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        let off1 = f.append(b"hello").unwrap();
        let off2 = f.append(b"world").unwrap();
        assert_eq!(off1, 0);
        assert_eq!(off2, 5);
        assert_eq!(f.read_at(0, 5).unwrap(), b"hello");
        assert_eq!(f.read_at(5, 5).unwrap(), b"world");
        assert_eq!(f.len(), 10);
        assert_eq!(f.num_pages(), 1);
    }

    #[test]
    fn sequential_appends_are_sequential_after_first_page() {
        let (dir, stats) = setup("pf-seq");
        let f =
            PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64).unwrap();
        let chunk = vec![0u8; 64];
        for _ in 0..10 {
            f.append(&chunk).unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.total_writes(), 10);
        assert_eq!(snap.random_writes, 1, "only the first page is random");
        assert_eq!(snap.sequential_writes, 9);
    }

    #[test]
    fn scattered_reads_are_random() {
        let (dir, stats) = setup("pf-rand");
        let f =
            PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64).unwrap();
        f.append(&vec![7u8; 64 * 20]).unwrap();
        stats.reset();
        // Read pages far apart: all should classify as random.
        for page in [0u64, 10, 3, 17, 8] {
            f.read_at(page * 64, 64).unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.total_reads(), 5);
        assert_eq!(snap.random_reads, 5);
    }

    #[test]
    fn sequential_scan_is_sequential() {
        let (dir, stats) = setup("pf-scan");
        let f =
            PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64).unwrap();
        f.append(&vec![1u8; 64 * 16]).unwrap();
        stats.reset();
        f.reset_access_cursor();
        for page in 0..16u64 {
            f.read_at(page * 64, 64).unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.total_reads(), 16);
        assert_eq!(snap.random_reads, 1);
        assert_eq!(snap.sequential_reads, 15);
    }

    #[test]
    fn rereading_same_page_counts_sequential() {
        let (dir, stats) = setup("pf-same");
        let f =
            PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64).unwrap();
        f.append(&[1u8; 64]).unwrap();
        stats.reset();
        f.read_at(0, 16).unwrap();
        f.read_at(16, 16).unwrap();
        let snap = stats.snapshot();
        // The append left the access cursor on page 0 (stats.reset() clears
        // counters, not the cursor), and re-touching the previous page counts
        // as sequential — so both reads of page 0 classify as sequential.
        assert_eq!(snap.sequential_reads, 2);
    }

    #[test]
    fn out_of_bounds_read_is_error() {
        let (dir, stats) = setup("pf-oob");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        f.append(b"abc").unwrap();
        assert!(matches!(
            f.read_at(0, 10),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(f.read_page(1).is_err());
    }

    #[test]
    fn heatmap_records_page_accesses() {
        let (dir, stats) = setup("pf-heat");
        let hm = Arc::new(HeatMap::new(8, 16));
        let f = PagedFile::create_with_page_size(dir.file("a.bin"), stats, 64)
            .unwrap()
            .with_heatmap(Arc::clone(&hm));
        f.append(&vec![0u8; 64 * 16]).unwrap();
        f.read_at(0, 64).unwrap();
        assert!(hm.total_accesses() >= 17);
        assert!(hm.touched_buckets() > 0);
    }

    #[test]
    fn reopen_preserves_length_and_content() {
        let (dir, stats) = setup("pf-reopen");
        let path = dir.file("a.bin");
        {
            let f = PagedFile::create(&path, Arc::clone(&stats)).unwrap();
            f.append(b"0123456789").unwrap();
            f.sync().unwrap();
        }
        let f = PagedFile::open(&path, stats).unwrap();
        assert_eq!(f.len(), 10);
        assert_eq!(f.read_at(3, 4).unwrap(), b"3456");
    }

    #[test]
    fn overflowing_read_range_is_an_error_not_a_panic() {
        let (dir, stats) = setup("pf-overflow");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        f.append(b"abcdef").unwrap();
        // offset + len would wrap around u64::MAX; must come back as a
        // typed error even with overflow checks disabled.
        assert!(matches!(
            f.read_at(u64::MAX - 2, 100),
            Err(StorageError::InvalidRange { .. })
        ));
        assert!(matches!(
            f.read_at(u64::MAX, usize::MAX),
            Err(StorageError::InvalidRange { .. })
        ));
    }

    #[test]
    fn synced_data_is_visible_through_a_fresh_descriptor() {
        // `sync` must push the bytes to the OS (sync_data), not just run the
        // no-op `flush`: after it returns, an entirely separate descriptor —
        // opened by path, sharing nothing with the writer — sees the data.
        let (dir, stats) = setup("pf-sync");
        let path = dir.file("a.bin");
        let f = PagedFile::create(&path, Arc::clone(&stats)).unwrap();
        f.append(b"durable-bytes").unwrap();
        f.sync().unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw, b"durable-bytes");
        let reopened = PagedFile::open(&path, stats).unwrap();
        assert_eq!(reopened.len(), 13);
        assert_eq!(reopened.read_at(0, 7).unwrap(), b"durable");
    }

    #[test]
    fn concurrent_appends_account_deterministically() {
        // Each append must write *and* account atomically with respect to
        // other appends: every append continues where the previous one left
        // off, so with page-sized appends only the very first page can be
        // random no matter how the threads interleave.
        for round in 0..8 {
            let (dir, stats) = setup(&format!("pf-append-mt-{round}"));
            let f = Arc::new(
                PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64)
                    .unwrap(),
            );
            let threads = 4;
            let per_thread = 32;
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let f = Arc::clone(&f);
                    scope.spawn(move || {
                        let chunk = [7u8; 64];
                        for _ in 0..per_thread {
                            f.append(&chunk).unwrap();
                        }
                    });
                }
            });
            assert_eq!(f.len(), (threads * per_thread * 64) as u64);
            let snap = stats.snapshot();
            assert_eq!(snap.total_writes(), (threads * per_thread) as u64);
            assert_eq!(
                snap.random_writes, 1,
                "interleaved appends must classify deterministically (round {round})"
            );
            assert_eq!(snap.sequential_writes, (threads * per_thread - 1) as u64);
        }
    }

    #[test]
    fn read_prefetcher_delivers_ranges_in_order_with_same_accounting() {
        let (dir, stats) = setup("pf-prefetch");
        let f = Arc::new(
            PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64).unwrap(),
        );
        let data: Vec<u8> = (0..64u16 * 4).map(|i| i as u8).collect();
        f.append(&data).unwrap();
        stats.reset();
        f.reset_access_cursor();
        let ranges: Vec<(u64, usize)> = (0..4).map(|i| (i * 64, 64)).collect();
        let mut p = read_ahead(Arc::clone(&f), ranges.into_iter());
        let mut got = Vec::new();
        while let Some(batch) = p.next_buffer() {
            got.extend(batch.unwrap());
        }
        drop(p);
        assert_eq!(got, data);
        let snap = stats.snapshot();
        assert_eq!(snap.total_reads(), 4);
        assert_eq!(snap.random_reads, 1, "first page only");
        assert_eq!(snap.sequential_reads, 3);
    }

    #[test]
    fn read_prefetcher_stops_after_first_error() {
        let (dir, stats) = setup("pf-prefetch-err");
        let f = Arc::new(PagedFile::create(dir.file("a.bin"), Arc::clone(&stats)).unwrap());
        f.append(&[1u8; 32]).unwrap();
        stats.reset();
        // Second range is out of bounds; the third must never be read.
        let ranges = vec![(0u64, 16usize), (1000, 16), (16, 16)];
        let mut p = read_ahead(Arc::clone(&f), ranges.into_iter());
        assert!(p.next_buffer().unwrap().is_ok());
        assert!(p.next_buffer().unwrap().is_err());
        assert!(p.next_buffer().is_none(), "worker stops after the error");
        drop(p);
        assert_eq!(stats.snapshot().total_reads(), 1);
    }

    #[test]
    fn write_at_extends_file() {
        let (dir, stats) = setup("pf-writeat");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        f.write_at(100, b"xy").unwrap();
        assert_eq!(f.len(), 102);
        assert_eq!(f.read_at(100, 2).unwrap(), b"xy");
    }

    /// Tentpole invariant at the lowest level: the mmap backend returns the
    /// same bytes as positioned reads and charges the identical `IoStats`
    /// (every touched page, same sequential/random classification).
    #[test]
    fn mmap_backend_reads_identical_bytes_with_identical_accounting() {
        let data: Vec<u8> = (0..64u32 * 20).map(|i| (i % 251) as u8).collect();
        let mut outcomes = Vec::new();
        for backend in [IoBackend::Pread, IoBackend::Mmap] {
            let (dir, stats) = setup(&format!("pf-backend-{backend}"));
            let f = PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64)
                .unwrap()
                .with_backend(backend);
            f.append(&data).unwrap();
            stats.reset();
            f.reset_access_cursor();
            let mut bytes = Vec::new();
            // A sequential scan, a re-read, and scattered random reads.
            for page in (0..20u64).chain([0, 13, 4, 17]) {
                bytes.extend(f.read_at(page * 64, 64).unwrap());
            }
            bytes.extend(f.read_at(3, 100).unwrap()); // page-straddling read
            outcomes.push((bytes, stats.snapshot()));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0, "bytes must match");
        assert_eq!(outcomes[0].1, outcomes[1].1, "IoStats must match");
    }

    #[test]
    fn mmap_backend_remaps_after_growth_and_unmap() {
        let (dir, stats) = setup("pf-mmap-grow");
        let f = PagedFile::create_with_page_size(dir.file("a.bin"), stats, 64)
            .unwrap()
            .with_backend(IoBackend::Mmap);
        f.append(&[1u8; 64]).unwrap();
        assert_eq!(f.read_at(0, 64).unwrap(), vec![1u8; 64]);
        assert!(f.is_mapped(), "first mapped read must create the mapping");
        // Growth past the mapped length forces a remap covering the tail.
        f.append(&[2u8; 64]).unwrap();
        assert_eq!(f.read_at(64, 64).unwrap(), vec![2u8; 64]);
        // In-bounds overwrite stays visible through the shared mapping.
        f.write_at(0, &[9u8; 8]).unwrap();
        assert_eq!(f.read_at(0, 8).unwrap(), vec![9u8; 8]);
        // An explicit unmap drops the mapping; the next read re-creates it.
        f.unmap();
        assert!(!f.is_mapped());
        assert_eq!(f.read_at(64, 64).unwrap(), vec![2u8; 64]);
        assert!(f.is_mapped());
    }

    /// Satellite invariant: madvise access-pattern tuning is advisory only —
    /// bytes and `IoStats` (every touched page, same sequential/random
    /// classification) are identical whether and whatever was advised.
    #[test]
    fn advised_access_patterns_never_change_bytes_or_accounting() {
        let data: Vec<u8> = (0..64u32 * 16).map(|i| (i % 199) as u8).collect();
        let mut outcomes = Vec::new();
        let schedules: [&[AccessPattern]; 3] = [
            &[],
            &[AccessPattern::Sequential],
            &[AccessPattern::Random, AccessPattern::Sequential],
        ];
        for (i, schedule) in schedules.iter().enumerate() {
            let (dir, stats) = setup(&format!("pf-advise-{i}"));
            let f = PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&stats), 64)
                .unwrap()
                .with_backend(IoBackend::Mmap);
            f.append(&data).unwrap();
            stats.reset();
            f.reset_access_cursor();
            let mut bytes = Vec::new();
            for (r, page) in (0..16u64).chain([2, 9, 5]).enumerate() {
                if let Some(&p) = schedule.get(r % schedule.len().max(1)) {
                    f.advise_read_pattern(p);
                }
                bytes.extend(f.read_at(page * 64, 64).unwrap());
            }
            outcomes.push((bytes, stats.snapshot()));
        }
        assert_eq!(outcomes[0].0, outcomes[1].0);
        assert_eq!(outcomes[0].0, outcomes[2].0);
        assert_eq!(outcomes[0].1, outcomes[1].1, "IoStats must ignore advice");
        assert_eq!(outcomes[0].1, outcomes[2].1, "IoStats must ignore advice");
    }

    #[test]
    fn advise_is_a_noop_on_the_pread_backend() {
        let (dir, stats) = setup("pf-advise-pread");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        f.append(b"abc").unwrap();
        f.advise_read_pattern(AccessPattern::Sequential);
        // The pread backend never stores the hint (nothing to advise).
        assert_eq!(f.read_pattern(), AccessPattern::Normal);
        assert_eq!(f.read_at(0, 3).unwrap(), b"abc");
    }

    #[test]
    fn sync_count_tracks_fdatasync_calls() {
        let (dir, stats) = setup("pf-sync-count");
        let f = PagedFile::create(dir.file("a.bin"), stats).unwrap();
        assert_eq!(f.sync_count(), 0);
        f.append(b"x").unwrap();
        f.sync().unwrap();
        f.sync().unwrap();
        assert_eq!(f.sync_count(), 2);
    }
}
