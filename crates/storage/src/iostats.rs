//! I/O access accounting.
//!
//! Every page access performed through a [`crate::PagedFile`] is classified
//! as **sequential** (it touches the page immediately following the
//! previously accessed page of the same file) or **random** (anything else,
//! including the first access after opening).  The distinction is the basis
//! of the paper's performance argument: Coconut's value is that it converts
//! the random-I/O-heavy workflows of prior data series indexes into mostly
//! sequential ones.
//!
//! # Logical vs physical bytes
//!
//! The counters carry two views of the same traffic:
//!
//! * the **logical** view — the six classic counters
//!   (`sequential_reads` … `bytes_written`) describe the *record* stream
//!   the caller addressed, page-accounted as the run's whole rows would
//!   have been.  They are the identity surface the equivalence grids pin.
//! * the **physical** view — `physical_bytes_read` / `physical_bytes_written`
//!   count the bytes that actually crossed the file API.  A file of whole
//!   rows charges both views identically ([`IoStats::record`]); a split run
//!   (heads and value tails in two files, see `crate::dynsort`) charges the
//!   logical view from its record arithmetic ([`IoStats::record_logical`]
//!   via [`LogicalAccountant`]) and the physical view from the bytes it
//!   really reads ([`IoStats::record_physical`]), so a key-only scan that
//!   leaves the tails on disk shows it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::page::{page_of_offset, PageId};

/// Classification of a single page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read of the page immediately following the last accessed page.
    SequentialRead,
    /// Read of any other page.
    RandomRead,
    /// Write of the page immediately following the last accessed page
    /// (including appends).
    SequentialWrite,
    /// Write of any other page.
    RandomWrite,
}

impl AccessKind {
    /// Returns `true` for the two read kinds.
    pub fn is_read(&self) -> bool {
        matches!(self, AccessKind::SequentialRead | AccessKind::RandomRead)
    }

    /// Returns `true` for the two sequential kinds.
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            AccessKind::SequentialRead | AccessKind::SequentialWrite
        )
    }
}

/// Mutable I/O counters (lock-free, shareable between files and threads).
#[derive(Debug, Default)]
pub struct IoStats {
    sequential_reads: AtomicU64,
    random_reads: AtomicU64,
    sequential_writes: AtomicU64,
    random_writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    physical_bytes_read: AtomicU64,
    physical_bytes_written: AtomicU64,
}

/// A cheaply cloneable handle to shared [`IoStats`].
pub type SharedIoStats = Arc<IoStats>;

impl IoStats {
    /// Creates a fresh set of counters wrapped for sharing.
    pub fn shared() -> SharedIoStats {
        Arc::new(IoStats::default())
    }

    /// Records one page access of the given kind and byte volume, charging
    /// both the logical and the physical view (a page access of a row file
    /// moves exactly the bytes it addresses).
    pub fn record(&self, kind: AccessKind, bytes: u64) {
        self.record_logical(kind, bytes);
        self.record_physical(kind.is_read(), bytes);
    }

    /// Records one *logical* page access: the classification counters and
    /// logical byte totals only.  Split runs charge these from their record
    /// arithmetic (see [`LogicalAccountant`]), so the logical view is
    /// identical to a row file's by construction.
    pub fn record_logical(&self, kind: AccessKind, bytes: u64) {
        match kind {
            AccessKind::SequentialRead => {
                self.sequential_reads.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
            }
            AccessKind::RandomRead => {
                self.random_reads.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
            }
            AccessKind::SequentialWrite => {
                self.sequential_writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
            AccessKind::RandomWrite => {
                self.random_writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Records *physical* bytes only — the traffic that actually crossed the
    /// file API.  Split runs charge the head and tail bytes they touch here,
    /// without disturbing the logical classification counters.
    pub fn record_physical(&self, is_read: bool, bytes: u64) {
        if is_read {
            self.physical_bytes_read.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.physical_bytes_written
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Takes an immutable snapshot of the counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            sequential_reads: self.sequential_reads.load(Ordering::Relaxed),
            random_reads: self.random_reads.load(Ordering::Relaxed),
            sequential_writes: self.sequential_writes.load(Ordering::Relaxed),
            random_writes: self.random_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            physical_bytes_read: self.physical_bytes_read.load(Ordering::Relaxed),
            physical_bytes_written: self.physical_bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.sequential_reads.store(0, Ordering::Relaxed);
        self.random_reads.store(0, Ordering::Relaxed);
        self.sequential_writes.store(0, Ordering::Relaxed);
        self.random_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.physical_bytes_read.store(0, Ordering::Relaxed);
        self.physical_bytes_written.store(0, Ordering::Relaxed);
    }
}

/// Marks a [`PageCursor`] that has touched no page yet.
const NO_PAGE: PageId = PageId::MAX;

/// The sequential/random classification state of one file: the one page
/// walk `PagedFile` and [`LogicalAccountant`] charge through.
///
/// A touched page is sequential when it is the page touched before it or
/// the next one, random otherwise (the first touch included).  Inside one
/// access every page follows its predecessor, so only the first can be
/// random, and an access of any length is charged in O(1).
#[derive(Debug)]
pub(crate) struct PageCursor {
    last: AtomicU64,
}

impl PageCursor {
    pub(crate) fn new() -> PageCursor {
        PageCursor {
            last: AtomicU64::new(NO_PAGE),
        }
    }

    /// Forgets the last touched page: the next access starts random.
    pub(crate) fn reset(&self) {
        self.last.store(NO_PAGE, Ordering::Relaxed);
    }

    /// Charges an access of `bytes` bytes at `offset` to `stats`, one
    /// `fetch_add` per counter, in `page_size` pages (to the physical view
    /// too when `physical`); returns the first and last page it touched.
    pub(crate) fn charge(
        &self,
        stats: &IoStats,
        page_size: usize,
        offset: u64,
        bytes: usize,
        is_read: bool,
        physical: bool,
    ) -> Option<(PageId, PageId)> {
        if bytes == 0 {
            return None;
        }
        let first = page_of_offset(offset, page_size);
        let last = page_of_offset(offset + bytes as u64 - 1, page_size);
        // One swap classifies the access against the one before it and
        // leaves the cursor where this one ends, as a locked walk would.
        let prev = self.last.swap(last, Ordering::Relaxed);
        let random = u64::from(prev == NO_PAGE || (first != prev && first != prev + 1));
        let (seq, rnd, total) = match is_read {
            true => (
                &stats.sequential_reads,
                &stats.random_reads,
                &stats.bytes_read,
            ),
            false => (
                &stats.sequential_writes,
                &stats.random_writes,
                &stats.bytes_written,
            ),
        };
        let pages = last - first + 1;
        seq.fetch_add(pages - random, Ordering::Relaxed);
        rnd.fetch_add(random, Ordering::Relaxed);
        total.fetch_add(pages * page_size as u64, Ordering::Relaxed);
        if physical {
            stats.record_physical(is_read, pages * page_size as u64);
        }
        Some((first, last))
    }
}

/// Replays, over *logical* record offsets, the exact page walk
/// [`crate::PagedFile`] performs over physical offsets: every touched
/// logical page is classified sequential or random against the previously
/// touched logical page of the same run, and charged to the **logical**
/// counters of the shared [`IoStats`].
///
/// A split run owns one accountant for its whole life (writer state carries
/// into the reader, exactly like `PagedFile`'s cursor), so its logical view
/// is identical, access for access, to the `IoStats` the row file of the
/// same records would have produced.
#[derive(Debug)]
pub struct LogicalAccountant {
    page_size: usize,
    stats: SharedIoStats,
    cursor: PageCursor,
}

impl LogicalAccountant {
    /// Creates an accountant charging into `stats` at `page_size`
    /// granularity (the same page size the run's `PagedFile` uses).
    pub fn new(stats: SharedIoStats, page_size: usize) -> LogicalAccountant {
        assert!(page_size > 0);
        LogicalAccountant {
            page_size,
            stats,
            cursor: PageCursor::new(),
        }
    }

    /// Charges one logical access of `bytes` bytes at logical `offset`:
    /// the page walk of `PagedFile`, through the same page cursor.
    pub fn account(&self, offset: u64, bytes: usize, is_read: bool) {
        self.cursor
            .charge(&self.stats, self.page_size, offset, bytes, is_read, false);
    }
}

coconut_json::wire! {
    /// Immutable snapshot of I/O counters; the `io` object of the palm
    /// protocol and the bench reports.  The physical byte members default
    /// to the logical figures, so snapshots serialized before the
    /// logical/physical split still parse.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IoStatsSnapshot {
        /// Number of sequential page reads.
        pub sequential_reads: u64,
        /// Number of random page reads.
        pub random_reads: u64,
        /// Number of sequential page writes.
        pub sequential_writes: u64,
        /// Number of random page writes.
        pub random_writes: u64,
        /// Total logical bytes read (the record stream the caller addressed).
        pub bytes_read: u64,
        /// Total logical bytes written.
        pub bytes_written: u64,
        /// Bytes that actually crossed the file API on reads (equals
        /// `bytes_read` for row files; smaller for a key-only scan of a
        /// split run).
        pub physical_bytes_read: u64 = bytes_read,
        /// Bytes that actually crossed the file API on writes.
        pub physical_bytes_written: u64 = bytes_written,
    }
}

impl IoStatsSnapshot {
    /// Total page reads of either kind.
    pub fn total_reads(&self) -> u64 {
        self.sequential_reads + self.random_reads
    }

    /// Total page writes of either kind.
    pub fn total_writes(&self) -> u64 {
        self.sequential_writes + self.random_writes
    }

    /// Total page accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Total random accesses (reads + writes).
    pub fn random_accesses(&self) -> u64 {
        self.random_reads + self.random_writes
    }

    /// Fraction of accesses that were random (0.0 when there were none).
    pub fn random_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.random_accesses() as f64 / total as f64
        }
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            sequential_reads: self
                .sequential_reads
                .saturating_sub(earlier.sequential_reads),
            random_reads: self.random_reads.saturating_sub(earlier.random_reads),
            sequential_writes: self
                .sequential_writes
                .saturating_sub(earlier.sequential_writes),
            random_writes: self.random_writes.saturating_sub(earlier.random_writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            physical_bytes_read: self
                .physical_bytes_read
                .saturating_sub(earlier.physical_bytes_read),
            physical_bytes_written: self
                .physical_bytes_written
                .saturating_sub(earlier.physical_bytes_written),
        }
    }

    /// The logical view alone: this snapshot with the physical byte counters
    /// zeroed.  The same records read as whole rows and as the heads of a
    /// split run have equal `logical()` projections (the identity surface);
    /// their physical counters legitimately differ.
    pub fn logical(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            physical_bytes_read: 0,
            physical_bytes_written: 0,
            ..*self
        }
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            sequential_reads: self.sequential_reads + other.sequential_reads,
            random_reads: self.random_reads + other.random_reads,
            sequential_writes: self.sequential_writes + other.sequential_writes,
            random_writes: self.random_writes + other.random_writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            physical_bytes_read: self.physical_bytes_read + other.physical_bytes_read,
            physical_bytes_written: self.physical_bytes_written + other.physical_bytes_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_json::{FromJson, ToJson};

    #[test]
    fn record_and_snapshot() {
        let stats = IoStats::default();
        stats.record(AccessKind::SequentialRead, 4096);
        stats.record(AccessKind::RandomRead, 4096);
        stats.record(AccessKind::RandomRead, 4096);
        stats.record(AccessKind::SequentialWrite, 4096);
        let snap = stats.snapshot();
        assert_eq!(snap.sequential_reads, 1);
        assert_eq!(snap.random_reads, 2);
        assert_eq!(snap.sequential_writes, 1);
        assert_eq!(snap.random_writes, 0);
        assert_eq!(snap.bytes_read, 3 * 4096);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.total_accesses(), 4);
        assert!((snap.random_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_counters() {
        let stats = IoStats::default();
        stats.record(AccessKind::RandomWrite, 100);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStatsSnapshot::default());
        assert_eq!(stats.snapshot().random_fraction(), 0.0);
    }

    #[test]
    fn since_and_plus_compose() {
        let stats = IoStats::default();
        stats.record(AccessKind::SequentialRead, 10);
        let a = stats.snapshot();
        stats.record(AccessKind::RandomRead, 20);
        stats.record(AccessKind::RandomWrite, 30);
        let b = stats.snapshot();
        let delta = b.since(&a);
        assert_eq!(delta.sequential_reads, 0);
        assert_eq!(delta.random_reads, 1);
        assert_eq!(delta.random_writes, 1);
        assert_eq!(a.plus(&delta), b);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::SequentialRead.is_read());
        assert!(AccessKind::SequentialRead.is_sequential());
        assert!(!AccessKind::RandomWrite.is_read());
        assert!(!AccessKind::RandomWrite.is_sequential());
    }

    #[test]
    fn logical_and_physical_views_split() {
        let stats = IoStats::default();
        // A row file's access charges both views.
        stats.record(AccessKind::SequentialRead, 4096);
        // A split run charges the views separately: the logical record
        // range, and the smaller physical bytes actually read.
        stats.record_logical(AccessKind::SequentialRead, 4096);
        stats.record_physical(true, 1000);
        stats.record_logical(AccessKind::RandomWrite, 4096);
        stats.record_physical(false, 700);
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_read, 2 * 4096);
        assert_eq!(snap.physical_bytes_read, 4096 + 1000);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.physical_bytes_written, 700);
        assert_eq!(snap.sequential_reads, 2);
        assert_eq!(snap.random_writes, 1);
        // The logical projection zeroes only the physical counters.
        let logical = snap.logical();
        assert_eq!(logical.physical_bytes_read, 0);
        assert_eq!(logical.physical_bytes_written, 0);
        assert_eq!(logical.bytes_read, snap.bytes_read);
        // JSON round-trip carries the physical members.
        let back = IoStatsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // A pre-split snapshot (no physical members) parses with
        // physical == logical.
        let legacy_json = coconut_json::Json::obj(vec![
            ("sequential_reads", coconut_json::ToJson::to_json(&2u64)),
            ("random_reads", coconut_json::ToJson::to_json(&0u64)),
            ("sequential_writes", coconut_json::ToJson::to_json(&0u64)),
            ("random_writes", coconut_json::ToJson::to_json(&1u64)),
            ("bytes_read", coconut_json::ToJson::to_json(&8192u64)),
            ("bytes_written", coconut_json::ToJson::to_json(&4096u64)),
        ]);
        let legacy = IoStatsSnapshot::from_json(&legacy_json).unwrap();
        assert_eq!(legacy.physical_bytes_read, 8192);
        assert_eq!(legacy.physical_bytes_written, 4096);
    }

    /// The page walk `PagedFile` and the logical accountant charged with
    /// before [`PageCursor`]: one classification per touched page.
    fn reference_walk(
        stats: &IoStats,
        last_page: &mut Option<PageId>,
        page_size: usize,
        offset: u64,
        bytes: usize,
        is_read: bool,
        physical: bool,
    ) {
        if bytes == 0 {
            return;
        }
        let first = page_of_offset(offset, page_size);
        let last = page_of_offset(offset + bytes as u64 - 1, page_size);
        for page in first..=last {
            let sequential = last_page.is_some_and(|prev| page == prev || page == prev + 1);
            let kind = match (is_read, sequential) {
                (true, true) => AccessKind::SequentialRead,
                (true, false) => AccessKind::RandomRead,
                (false, true) => AccessKind::SequentialWrite,
                (false, false) => AccessKind::RandomWrite,
            };
            if physical {
                stats.record(kind, page_size as u64);
            } else {
                stats.record_logical(kind, page_size as u64);
            }
            *last_page = Some(page);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Charging a whole range at once equals the page-by-page walk,
            /// counter for counter, over any access sequence: forward and
            /// backward jumps, re-reads of the last page, empty and
            /// multi-page accesses, reads and writes, a reset midway.
            #[test]
            fn range_charge_equals_the_page_walk(
                page_size in 1usize..300,
                physical in 0u8..2,
                offsets in proptest::collection::vec(0u64..4_000, 40),
                lens in proptest::collection::vec(0usize..2_000, 40),
                reads in proptest::collection::vec(0u8..2, 40),
                reset_at in 0usize..40,
            ) {
                let (fast, slow) = (IoStats::default(), IoStats::default());
                let cursor = PageCursor::new();
                let mut last_page = None;
                let physical = physical == 1;
                for i in 0..offsets.len() {
                    if i == reset_at {
                        cursor.reset();
                        last_page = None;
                    }
                    let (offset, bytes, is_read) = (offsets[i], lens[i], reads[i] == 1);
                    cursor.charge(&fast, page_size, offset, bytes, is_read, physical);
                    reference_walk(
                        &slow, &mut last_page, page_size, offset, bytes, is_read, physical,
                    );
                    prop_assert_eq!(fast.snapshot(), slow.snapshot());
                }
            }
        }
    }

    #[test]
    fn logical_accountant_mirrors_paged_file_walk() {
        // The same access sequence against a LogicalAccountant and a real
        // PagedFile must produce identical logical counters.
        let dir = crate::tempdir::ScratchDir::new("iostats-logical").unwrap();
        let file_stats = IoStats::shared();
        let file =
            crate::PagedFile::create_with_page_size(dir.file("a.bin"), Arc::clone(&file_stats), 64)
                .unwrap();
        let logical_stats = IoStats::shared();
        let acct = LogicalAccountant::new(Arc::clone(&logical_stats), 64);

        file.append(&vec![0u8; 300]).unwrap();
        acct.account(0, 300, false);
        file.append(&[0u8; 20]).unwrap();
        acct.account(300, 20, false);
        for (offset, len) in [(0u64, 64usize), (64, 64), (256, 64), (10, 100)] {
            file.read_at(offset, len).unwrap();
            acct.account(offset, len, true);
        }
        assert_eq!(
            file_stats.snapshot().logical(),
            logical_stats.snapshot().logical()
        );
    }

    #[test]
    fn shared_stats_are_shared() {
        let shared = IoStats::shared();
        let clone = Arc::clone(&shared);
        clone.record(AccessKind::SequentialWrite, 1);
        assert_eq!(shared.snapshot().sequential_writes, 1);
    }
}
