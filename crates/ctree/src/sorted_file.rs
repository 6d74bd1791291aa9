//! Sorted, block-indexed partitions of index entries.
//!
//! A [`SortedSeriesFile`] is the fundamental on-disk unit of every Coconut
//! structure: the (single) leaf level of a CoconutTree, each run of a
//! CoconutLSM level, and each temporal partition of the TP / BTP streaming
//! schemes.  It stores entries sorted by their interleaved SAX key, packed
//! into fixed-size blocks, and keeps a small in-memory block index (fence
//! keys, entry ranges, timestamp ranges) that plays the role of the B+-tree's
//! internal levels.
//!
//! Queries use the block index for **skip-sequential** search: blocks are
//! visited in order of their lower-bound distance to the query and skipped
//! entirely once the bound exceeds the best-so-far answer, so an exact query
//! reads only a contiguous subset of the blocks with sequential I/O.

use std::path::Path;
use std::sync::Arc;

use crate::kernels::euclidean_early_abandon;
use coconut_sax::breakpoints::BreakpointTable;
use coconut_sax::{mindist_paa_key_prefix_sq, InvSaxKey, QueryBounds, SaxConfig, SaxWord};
use coconut_series::paa::paa;
use coconut_series::Timestamp;
use coconut_storage::dynsort::DynRunWriter;
use coconut_storage::{AccessPattern, Compression, IoBackend, SharedIoStats};

use crate::entry::{EntryLayout, SeriesEntry};
use crate::query::{KnnHeap, QueryContext};
use crate::{IndexError, Result};

/// Metadata of one block of a [`SortedSeriesFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Smallest key in the block.
    pub min_key: u128,
    /// Largest key in the block.
    pub max_key: u128,
    /// Index of the first entry of the block within the file.
    pub start: u64,
    /// Number of entries in the block.
    pub count: u32,
    /// Smallest timestamp in the block.
    pub min_ts: Timestamp,
    /// Largest timestamp in the block.
    pub max_ts: Timestamp,
}

impl BlockMeta {
    /// Returns `true` when the block's timestamp range intersects `window`.
    pub fn intersects_window(&self, window: Option<(Timestamp, Timestamp)>) -> bool {
        match window {
            None => true,
            Some((start, end)) => self.min_ts <= end && self.max_ts >= start,
        }
    }
}

/// A sorted partition of entries with an in-memory block index.
#[derive(Debug)]
pub struct SortedSeriesFile {
    run: coconut_storage::DynRunFile<EntryLayout>,
    blocks: Vec<BlockMeta>,
    sax: SaxConfig,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl SortedSeriesFile {
    /// Builds a partition at `path` by streaming already-sorted entries into
    /// blocks of `entries_per_block` entries (reads served by `pread`).
    pub fn build_from_sorted<P, I>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        sorted: I,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
    ) -> Result<Self>
    where
        P: AsRef<Path>,
        I: IntoIterator<Item = Result<SeriesEntry>>,
    {
        Self::build_from_sorted_with(
            path,
            layout,
            sax,
            sorted,
            entries_per_block,
            stats,
            page_size,
            IoBackend::Pread,
        )
    }

    /// Like [`SortedSeriesFile::build_from_sorted`], choosing the read
    /// backend the finished partition serves its block scans with.  A pure
    /// performance knob: the partition file, query answers, costs and
    /// `IoStats` are identical at either setting.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_sorted_with<P, I>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        sorted: I,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
    ) -> Result<Self>
    where
        P: AsRef<Path>,
        I: IntoIterator<Item = Result<SeriesEntry>>,
    {
        Self::build_from_sorted_compressed(
            path,
            layout,
            sax,
            sorted,
            entries_per_block,
            stats,
            page_size,
            backend,
            Compression::Off,
        )
    }

    /// Like [`SortedSeriesFile::build_from_sorted_with`], additionally
    /// choosing the on-disk [`Compression`] of the partition.  `off`
    /// produces byte-identical files to every release before the knob
    /// existed; `prefix` front-codes the sorted invSAX keys and
    /// delta-codes ids/timestamps into ~4 KiB blocks.  Answers, costs and
    /// the logical `IoStats` view are identical either way.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_sorted_compressed<P, I>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        sorted: I,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
        compression: Compression,
    ) -> Result<Self>
    where
        P: AsRef<Path>,
        I: IntoIterator<Item = Result<SeriesEntry>>,
    {
        assert!(entries_per_block > 0);
        let mut writer = DynRunWriter::create_compressed(
            layout,
            path,
            Arc::clone(&stats),
            page_size,
            backend,
            compression,
        )?;
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut current: Option<BlockMeta> = None;
        let mut index: u64 = 0;
        let mut last_key: Option<(u128, u64)> = None;
        let mut min_ts = Timestamp::MAX;
        let mut max_ts = Timestamp::MIN;

        for entry in sorted {
            let entry = entry?;
            if let Some(prev) = last_key {
                if (entry.key, entry.id) < prev {
                    return Err(IndexError::Config(
                        "build_from_sorted requires key-ordered input".into(),
                    ));
                }
            }
            last_key = Some((entry.key, entry.id));
            min_ts = min_ts.min(entry.timestamp);
            max_ts = max_ts.max(entry.timestamp);
            let block = current.get_or_insert(BlockMeta {
                min_key: entry.key,
                max_key: entry.key,
                start: index,
                count: 0,
                min_ts: entry.timestamp,
                max_ts: entry.timestamp,
            });
            block.max_key = entry.key;
            block.count += 1;
            block.min_ts = block.min_ts.min(entry.timestamp);
            block.max_ts = block.max_ts.max(entry.timestamp);
            writer.push(&entry)?;
            index += 1;
            if block.count as usize >= entries_per_block {
                blocks.push(current.take().unwrap());
            }
        }
        if let Some(block) = current.take() {
            blocks.push(block);
        }
        if index == 0 {
            min_ts = 0;
            max_ts = 0;
        }
        let run = writer.finish()?;
        Ok(SortedSeriesFile {
            run,
            blocks,
            sax,
            min_ts,
            max_ts,
        })
    }

    /// Builds a partition from unsorted in-memory entries (sorts them first).
    /// Used for buffer flushes in CoconutLSM and the streaming schemes.
    pub fn build_from_entries<P: AsRef<Path>>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        entries: Vec<SeriesEntry>,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
    ) -> Result<Self> {
        Self::build_from_entries_parallel(
            path,
            layout,
            sax,
            entries,
            entries_per_block,
            stats,
            page_size,
            1,
        )
    }

    /// Like [`SortedSeriesFile::build_from_entries`], sorting the buffer with
    /// up to `parallelism` worker threads (`1` = sequential, `0` = one per
    /// available core).  The partition is byte-identical at every setting.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_entries_parallel<P: AsRef<Path>>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        entries: Vec<SeriesEntry>,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        parallelism: usize,
    ) -> Result<Self> {
        Self::build_from_entries_with(
            path,
            layout,
            sax,
            entries,
            entries_per_block,
            stats,
            page_size,
            parallelism,
            IoBackend::Pread,
        )
    }

    /// Like [`SortedSeriesFile::build_from_entries_parallel`], additionally
    /// choosing the read backend of the finished partition.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_entries_with<P: AsRef<Path>>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        entries: Vec<SeriesEntry>,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        parallelism: usize,
        backend: IoBackend,
    ) -> Result<Self> {
        Self::build_from_entries_compressed(
            path,
            layout,
            sax,
            entries,
            entries_per_block,
            stats,
            page_size,
            parallelism,
            backend,
            Compression::Off,
        )
    }

    /// Like [`SortedSeriesFile::build_from_entries_with`], additionally
    /// choosing the on-disk [`Compression`]; see
    /// [`SortedSeriesFile::build_from_sorted_compressed`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_entries_compressed<P: AsRef<Path>>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        mut entries: Vec<SeriesEntry>,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        parallelism: usize,
        backend: IoBackend,
        compression: Compression,
    ) -> Result<Self> {
        let workers = coconut_parallel::effective_parallelism(parallelism);
        coconut_parallel::parallel_sort_by_key(&mut entries, workers, |e| (e.key, e.id));
        Self::build_from_sorted_compressed(
            path,
            layout,
            sax,
            entries.into_iter().map(Ok),
            entries_per_block,
            stats,
            page_size,
            backend,
            compression,
        )
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.run.len()
    }

    /// Returns `true` when the partition has no entries.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Logical size in bytes (`entries × record_size`, compression-blind);
    /// cost and buffer arithmetic stays on this view so decisions are
    /// identical at compression off/prefix.
    pub fn byte_size(&self) -> u64 {
        self.run.byte_size()
    }

    /// Bytes the partition actually occupies on disk (smaller than
    /// [`SortedSeriesFile::byte_size`] when compressed).
    pub fn physical_byte_size(&self) -> u64 {
        self.run.physical_byte_size()
    }

    /// The on-disk compression the partition was built with.
    pub fn compression(&self) -> Compression {
        self.run.compression()
    }

    /// Reads only the invSAX keys of `count` entries starting at `index`,
    /// in key order.  On compressed materialized partitions this touches
    /// just the blocks' head regions — the raw f32 values never leave the
    /// disk — so a cold key-only scan moves strictly fewer physical bytes
    /// than an entry scan; the logical `IoStats` view is charged like a
    /// full-record read on every path, keeping it knob-invariant.
    pub fn scan_keys(&self, index: u64, count: usize) -> Result<Vec<u128>> {
        let heads = self.run.read_heads_raw(index, count)?;
        let head = self.run.head_size();
        Ok(heads.chunks_exact(head).map(EntryLayout::key_of).collect())
    }

    /// The block index.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Entry layout of the partition.
    pub fn layout(&self) -> &EntryLayout {
        self.run.layout()
    }

    /// Timestamp range covered by the partition.
    pub fn time_range(&self) -> (Timestamp, Timestamp) {
        (self.min_ts, self.max_ts)
    }

    /// Returns a sequential reader over all entries (for merging).
    pub fn reader(&self, buffer_records: usize) -> coconut_storage::DynRunReader<EntryLayout> {
        self.run.reader(buffer_records)
    }

    /// Like [`SortedSeriesFile::reader`], optionally prefetching each next
    /// buffer on a background thread (same reads, same order, same
    /// accounting; see `coconut_storage::DynRunFile::reader_with_prefetch`).
    pub fn reader_with_prefetch(
        &self,
        buffer_records: usize,
        prefetch: bool,
    ) -> coconut_storage::DynRunReader<EntryLayout> {
        self.reader_with_prefetch_gate(
            buffer_records,
            prefetch,
            coconut_storage::PREFETCH_MIN_BYTES,
        )
    }

    /// Like [`SortedSeriesFile::reader_with_prefetch`] with an explicit
    /// read-ahead engage gate in bytes (`usize::MAX` never spawns the
    /// worker) — the knob the adaptive planner sets; a pure performance
    /// knob either way.
    pub fn reader_with_prefetch_gate(
        &self,
        buffer_records: usize,
        prefetch: bool,
        prefetch_min_bytes: usize,
    ) -> coconut_storage::DynRunReader<EntryLayout> {
        // A full scan walks the mapped pages front to back: let the kernel
        // read ahead aggressively (advisory; accounting unaffected).
        self.run.advise_read_pattern(AccessPattern::Sequential);
        self.run
            .reader_with_prefetch_gate(buffer_records, prefetch, prefetch_min_bytes)
    }

    /// Returns a sequential reader over the entries whose key lies in
    /// `[lo, hi)` (`hi = None` means unbounded above).  The block index is
    /// used to seek straight to the first candidate block; only the two
    /// boundary blocks are filtered entry-by-entry, everything in between
    /// streams through untouched.  Used by sharded compactions to feed one
    /// key shard of a level merge.
    pub fn range_reader(&self, lo: u128, hi: Option<u128>) -> RangeReader<'_> {
        self.range_reader_with_prefetch(lo, hi, false)
    }

    /// Like [`SortedSeriesFile::range_reader`], optionally reading the
    /// range's blocks ahead on a background thread while the consumer (a
    /// compaction merge) drains the current one.
    ///
    /// The set of blocks a range touches is a pure function of the block
    /// fences — blocks from the first with `max_key >= lo` up to (not
    /// including) the first with `min_key >= hi` — so the prefetcher issues
    /// exactly the reads the inline path would, in the same order, and the
    /// I/O accounting is identical.
    pub fn range_reader_with_prefetch(
        &self,
        lo: u128,
        hi: Option<u128>,
        prefetch: bool,
    ) -> RangeReader<'_> {
        self.range_reader_with_prefetch_gate(lo, hi, prefetch, coconut_storage::PREFETCH_MIN_BYTES)
    }

    /// Like [`SortedSeriesFile::range_reader_with_prefetch`] with an
    /// explicit read-ahead engage gate in bytes (`usize::MAX` never spawns
    /// the worker) — the knob the adaptive planner sets; a pure performance
    /// knob either way.
    pub fn range_reader_with_prefetch_gate(
        &self,
        lo: u128,
        hi: Option<u128>,
        prefetch: bool,
        prefetch_min_bytes: usize,
    ) -> RangeReader<'_> {
        // A range feeds a merge: its blocks stream in ascending order, so
        // kernel read-ahead on the mapped pages pays off (advisory;
        // accounting unaffected).
        self.run.advise_read_pattern(AccessPattern::Sequential);
        // First block that can contain a key >= lo.
        let first = self.blocks.partition_point(|b| b.max_key < lo);
        // First block past the range (entirely >= hi); clamped so an
        // inverted range (lo > hi) degenerates to an empty reader instead
        // of an inverted slice.
        let last = match hi {
            Some(hi) => self.blocks.partition_point(|b| b.min_key < hi),
            None => self.blocks.len(),
        }
        .max(first);
        // A background thread only pays off when the range is big enough
        // that its reads may block (see
        // `coconut_storage::PREFETCH_MIN_BYTES`); small ranges — including
        // every merge of freshly written, page-cache-hot runs — stay inline.
        let range_bytes: u64 = self.blocks[first..last]
            .iter()
            .map(|b| b.count as u64)
            .sum::<u64>()
            * coconut_storage::RecordLayout::record_size(self.run.layout()) as u64;
        let engage =
            prefetch && last.saturating_sub(first) > 1 && range_bytes >= prefetch_min_bytes as u64;
        let prefetcher = engage.then(|| {
            self.run.range_prefetcher(
                self.blocks[first..last]
                    .iter()
                    .map(|b| (b.start, b.count))
                    .collect(),
            )
        });
        RangeReader {
            file: self,
            next_block: first,
            end_block: last,
            pending: std::collections::VecDeque::new(),
            lo,
            hi,
            done: false,
            prefetcher,
        }
    }

    /// The underlying run file (for merge plumbing).
    pub fn run(&self) -> &coconut_storage::DynRunFile<EntryLayout> {
        &self.run
    }

    /// Returns `true` while the backing file holds a live read mapping
    /// (mmap backend only; used by the unmap-before-unlink tests).
    pub fn is_mapped(&self) -> bool {
        self.run.is_mapped()
    }

    /// Deletes the backing file.
    pub fn delete(self) -> Result<()> {
        self.run.delete()?;
        Ok(())
    }

    /// Retires `inputs`, which a merge has rewritten into `outputs`: their
    /// files are unlinked off-thread, and only once every output is durable
    /// (see [`coconut_storage::DynRunFile::replace`]).
    pub fn replace(outputs: &[&SortedSeriesFile], inputs: Vec<SortedSeriesFile>) -> Result<()> {
        let outputs: Vec<_> = outputs.iter().map(|f| &f.run).collect();
        let inputs = inputs.into_iter().map(|f| f.run).collect();
        coconut_storage::DynRunFile::replace(&outputs, inputs)?;
        Ok(())
    }

    /// Index of the block whose key range should contain `key` (the last
    /// block whose `min_key <= key`, clamped to the first block).
    pub fn locate_block(&self, key: u128) -> Option<usize> {
        if self.blocks.is_empty() {
            return None;
        }
        let idx = self.blocks.partition_point(|b| b.min_key <= key);
        Some(idx.saturating_sub(1))
    }

    /// Lower bound (squared) on the distance between the query and *any*
    /// entry in the block, derived from the interleaved-key prefix shared by
    /// the block's minimum and maximum keys.
    ///
    /// Because the key interleaves bits level by level across segments, a
    /// shared prefix of `p` bits constrains the first `p / segments` bit
    /// levels of *every* segment plus one extra bit for the first
    /// `p % segments` segments.  The bound is the iSAX MINDIST against that
    /// partially refined word, which is valid for every key in
    /// `[min_key, max_key]`.
    pub fn block_mindist_sq(&self, block: &BlockMeta, query_paa: &[f64]) -> f64 {
        let width = self.sax.key_bits();
        let min = InvSaxKey::from_raw(block.min_key, width);
        let max = InvSaxKey::from_raw(block.max_key, width);
        let shared_bits = min.common_prefix_bits(&max);
        mindist_paa_key_prefix_sq(query_paa, block.min_key, shared_bits, &self.sax)
    }

    /// Scans one block in file order.  Every record has its timestamp read
    /// for the window test and — when `bounds` is given (exact search) — its
    /// key for the lower bound; id and values are decoded only for the
    /// entries that survive both and go on to a true distance.
    fn scan_block(
        &self,
        block: &BlockMeta,
        query: &[f32],
        bounds: Option<&QueryBounds>,
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        ctx.cost.blocks_read += 1;
        let bytes = self.run.read_raw(block.start, block.count as usize)?;
        let layout = self.run.layout();
        let record_size = coconut_storage::RecordLayout::record_size(layout);
        for record in bytes.chunks_exact(record_size) {
            let timestamp = EntryLayout::timestamp_of(record);
            if let Some((start, end)) = window {
                if timestamp < start || timestamp > end {
                    continue;
                }
            }
            ctx.cost.entries_examined += 1;
            if let Some(bounds) = bounds {
                if bounds.key_bound_sq(EntryLayout::key_of(record)) > heap.bound() {
                    continue;
                }
            }
            ctx.cost.entries_refined += 1;
            let id = EntryLayout::id_of(record);
            let bound = heap.bound();
            let values = if layout.is_materialized() {
                ctx.decode_values(EntryLayout::values_of(record))
            } else {
                ctx.fetch(id)?
            };
            if let Some(d) = euclidean_early_abandon(query, values, bound) {
                heap.offer_at(id, timestamp, d);
            }
        }
        Ok(())
    }

    /// Approximate kNN: reads only the block(s) around the query's key
    /// position and refines their entries.  This is the "approximate query"
    /// of the iSAX family: fast, no guarantee of exactness.
    pub fn search_approximate(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        assert_eq!(query.len(), self.sax.series_len);
        if self.blocks.is_empty() {
            return Ok(());
        }
        // Query-time probes jump between blocks in bound order: disable
        // kernel read-ahead on the mapped pages (advisory; accounting
        // unaffected).
        self.run.advise_read_pattern(AccessPattern::Random);
        let breakpoints = BreakpointTable::global().for_bits(self.sax.bits_per_segment);
        let key = InvSaxKey::from_sax(&SaxWord::from_series(query, &self.sax, breakpoints)).raw();
        let target = self.locate_block(key).unwrap();
        // Visit the target block plus its neighbours until the heap is full
        // (or the partition is exhausted).
        let mut offsets: Vec<usize> = vec![target];
        let mut radius = 1usize;
        while offsets.len() < self.blocks.len() {
            let mut extended = false;
            if target + radius < self.blocks.len() {
                offsets.push(target + radius);
                extended = true;
            }
            if let Some(lo) = target.checked_sub(radius) {
                offsets.push(lo);
                extended = true;
            }
            if heap.bound() < f64::INFINITY || !extended {
                break;
            }
            radius += 1;
        }
        for idx in offsets {
            let block = self.blocks[idx];
            if !block.intersects_window(window) {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            self.scan_block(&block, query, None, heap, ctx, window)?;
            if heap.bound() < f64::INFINITY {
                break;
            }
        }
        Ok(())
    }

    /// Exact kNN contribution of this partition: visits blocks in ascending
    /// order of their lower bound, skipping blocks (and entries) whose bound
    /// exceeds the current best-so-far answer in `heap`.
    pub fn search_exact(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        assert_eq!(query.len(), self.sax.series_len);
        if self.blocks.is_empty() {
            return Ok(());
        }
        // See `search_approximate`: probes are random-access by design.
        self.run.advise_read_pattern(AccessPattern::Random);
        let query_paa = paa(query, self.sax.segments);
        // Order blocks by lower bound so the tightest candidates are refined
        // first and the rest can be skipped.
        let mut ordered: Vec<(f64, usize)> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects_window(window))
            .map(|(i, b)| (self.block_mindist_sq(b, &query_paa), i))
            .collect();
        ctx.cost.blocks_skipped += (self.blocks.len() - ordered.len()) as u64;
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        // The per-entry bound's table is per query; a partition whose every
        // block the frozen bound already excludes never builds it.
        let mut bounds = None;
        for (lb, idx) in ordered {
            if lb > heap.bound() {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            let bounds = bounds.get_or_insert_with(|| QueryBounds::new(&query_paa, &self.sax));
            let block = self.blocks[idx];
            self.scan_block(&block, query, Some(bounds), heap, ctx, window)?;
        }
        Ok(())
    }
}

/// Buffered iterator over the entries of one key range of a
/// [`SortedSeriesFile`]; see [`SortedSeriesFile::range_reader`].
pub struct RangeReader<'a> {
    file: &'a SortedSeriesFile,
    next_block: usize,
    end_block: usize,
    pending: std::collections::VecDeque<SeriesEntry>,
    lo: u128,
    hi: Option<u128>,
    done: bool,
    prefetcher: Option<coconut_storage::ReadAheadBuffers>,
}

impl RangeReader<'_> {
    /// Raw bytes of the next block of the range, from the read-ahead worker
    /// when one is attached, inline otherwise; `None` once the range's
    /// blocks are exhausted.
    fn next_block_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        if self.next_block >= self.end_block {
            return Ok(None);
        }
        self.next_block += 1;
        match &mut self.prefetcher {
            Some(p) => match p.next_buffer() {
                Some(bytes) => Ok(Some(bytes.map_err(IndexError::from)?)),
                None => Err(IndexError::from(coconut_storage::StorageError::Corrupt(
                    "read-ahead worker ended before its range was drained".into(),
                ))),
            },
            None => {
                let block = self.file.blocks[self.next_block - 1];
                Ok(Some(
                    self.file.run.read_raw(block.start, block.count as usize)?,
                ))
            }
        }
    }

    fn refill(&mut self) -> Result<()> {
        while self.pending.is_empty() && !self.done {
            let Some(bytes) = self.next_block_bytes()? else {
                self.done = true;
                return Ok(());
            };
            let layout = self.file.run.layout();
            let size = coconut_storage::RecordLayout::record_size(layout);
            for chunk in bytes.chunks_exact(size) {
                let entry = coconut_storage::RecordLayout::decode(layout, chunk);
                if entry.key < self.lo {
                    continue;
                }
                if self.hi.is_some_and(|hi| entry.key >= hi) {
                    self.done = true;
                    break;
                }
                self.pending.push_back(entry);
            }
        }
        Ok(())
    }
}

impl Iterator for RangeReader<'_> {
    type Item = Result<SeriesEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Err(e) = self.refill() {
            self.done = true;
            return Some(Err(e));
        }
        self.pending.pop_front().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_sax::SortableSummarizer;
    use coconut_series::distance::brute_force_knn;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_series::Dataset;
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    fn make_entries(
        n: usize,
        sax: SaxConfig,
        materialized: bool,
        seed: u64,
    ) -> (Vec<coconut_series::Series>, Vec<SeriesEntry>) {
        let summarizer = SortableSummarizer::new(sax);
        let mut gen = RandomWalkGenerator::new(sax.series_len, seed);
        let series = gen.generate(n);
        let entries = series
            .iter()
            .map(|s| SeriesEntry::from_series(s, s.id, &summarizer, materialized))
            .collect();
        (series, entries)
    }

    fn build(
        dir: &ScratchDir,
        sax: SaxConfig,
        entries: Vec<SeriesEntry>,
        materialized: bool,
        entries_per_block: usize,
    ) -> SortedSeriesFile {
        let layout = if materialized {
            EntryLayout::materialized(sax.key_bits(), sax.series_len)
        } else {
            EntryLayout::non_materialized(sax.key_bits())
        };
        SortedSeriesFile::build_from_entries(
            dir.file("part.run"),
            layout,
            sax,
            entries,
            entries_per_block,
            IoStats::shared(),
            4096,
        )
        .unwrap()
    }

    #[test]
    fn build_creates_sorted_blocks() {
        let dir = ScratchDir::new("ssf-build").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let (_, entries) = make_entries(500, sax, true, 1);
        let file = build(&dir, sax, entries, true, 64);
        assert_eq!(file.len(), 500);
        assert_eq!(file.blocks().len(), 500_usize.div_ceil(64));
        let mut prev_max = 0u128;
        for (i, b) in file.blocks().iter().enumerate() {
            assert!(b.min_key <= b.max_key);
            if i > 0 {
                assert!(b.min_key >= prev_max);
            }
            prev_max = b.max_key;
        }
    }

    #[test]
    fn unsorted_input_to_build_from_sorted_is_rejected() {
        let dir = ScratchDir::new("ssf-unsorted").unwrap();
        let sax = SaxConfig::new(32, 4, 4);
        let (_, mut entries) = make_entries(10, sax, false, 2);
        entries.sort_by_key(|e| std::cmp::Reverse(e.key));
        let layout = EntryLayout::non_materialized(sax.key_bits());
        let result = SortedSeriesFile::build_from_sorted(
            dir.file("bad.run"),
            layout,
            sax,
            entries.into_iter().map(Ok),
            8,
            IoStats::shared(),
            1024,
        );
        assert!(matches!(result, Err(IndexError::Config(_))));
    }

    #[test]
    fn exact_search_matches_brute_force_materialized() {
        let dir = ScratchDir::new("ssf-exact-mat").unwrap();
        let sax = SaxConfig::new(96, 8, 8);
        let (series, entries) = make_entries(400, sax, true, 3);
        let file = build(&dir, sax, entries, true, 32);
        let mut gen = RandomWalkGenerator::new(96, 77);
        for _ in 0..10 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                5,
            );
            let mut heap = KnnHeap::new(5);
            let mut ctx = QueryContext::materialized();
            file.search_exact(&q.values, &mut heap, &mut ctx, None)
                .unwrap();
            let got = heap.into_sorted();
            assert_eq!(got.len(), 5);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn exact_search_matches_brute_force_non_materialized() {
        let dir = ScratchDir::new("ssf-exact-non").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let (series, entries) = make_entries(300, sax, false, 4);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let raw =
            crate::raw::RawSeriesSource::new(dataset, coconut_storage::IoBackend::Pread).unwrap();
        let file = build(&dir, sax, entries, false, 32);
        let stats = IoStats::shared();
        let mut gen = RandomWalkGenerator::new(64, 101);
        for _ in 0..5 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                3,
            );
            let mut heap = KnnHeap::new(3);
            let mut ctx = QueryContext::non_materialized(&raw, std::sync::Arc::clone(&stats));
            file.search_exact(&q.values, &mut heap, &mut ctx, None)
                .unwrap();
            let got = heap.into_sorted();
            assert_eq!(got[0].id, expected[0].id);
            assert!((got[0].squared_distance - expected[0].squared_distance).abs() < 1e-6);
            // Pruning must have avoided fetching every raw series.
            assert!(ctx.cost.raw_fetches < 300);
        }
    }

    #[test]
    fn approximate_search_finds_close_answer() {
        let dir = ScratchDir::new("ssf-approx").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let (series, entries) = make_entries(500, sax, true, 5);
        let file = build(&dir, sax, entries, true, 32);
        // Query = slightly perturbed member: the approximate answer must be
        // very close (usually the member itself).
        let target = &series[123];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.001).collect();
        let mut heap = KnnHeap::new(1);
        let mut ctx = QueryContext::materialized();
        file.search_approximate(&query, &mut heap, &mut ctx, None)
            .unwrap();
        let got = heap.into_sorted();
        assert_eq!(got.len(), 1);
        assert!(got[0].squared_distance < 1.0);
        // Approximate search must touch far fewer blocks than there are.
        assert!(ctx.cost.blocks_read <= 3);
    }

    #[test]
    fn window_filter_restricts_results() {
        let dir = ScratchDir::new("ssf-window").unwrap();
        let sax = SaxConfig::new(32, 4, 8);
        let summarizer = SortableSummarizer::new(sax);
        let mut gen = RandomWalkGenerator::new(32, 6);
        let series = gen.generate(100);
        let entries: Vec<SeriesEntry> = series
            .iter()
            .map(|s| SeriesEntry::from_series(s, s.id * 10, &summarizer, true))
            .collect();
        let file = build(&dir, sax, entries, true, 16);
        let q = gen.next_series();
        let mut heap = KnnHeap::new(100);
        let mut ctx = QueryContext::materialized();
        file.search_exact(&q.values, &mut heap, &mut ctx, Some((200, 400)))
            .unwrap();
        let got = heap.into_sorted();
        assert!(!got.is_empty());
        for n in &got {
            assert!(n.id * 10 >= 200 && n.id * 10 <= 400);
        }
    }

    #[test]
    fn exact_search_skips_blocks_via_pruning() {
        let dir = ScratchDir::new("ssf-prune").unwrap();
        let sax = SaxConfig::new(128, 16, 8);
        let (series, entries) = make_entries(2000, sax, true, 7);
        let file = build(&dir, sax, entries, true, 64);
        let target = &series[42];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.01).collect();
        let mut heap = KnnHeap::new(1);
        let mut ctx = QueryContext::materialized();
        file.search_exact(&query, &mut heap, &mut ctx, None)
            .unwrap();
        assert!(
            ctx.cost.blocks_skipped > 0,
            "a near-duplicate query must allow block pruning (read {} skipped {})",
            ctx.cost.blocks_read,
            ctx.cost.blocks_skipped
        );
    }

    #[test]
    fn range_reader_covers_partition_without_overlap() {
        let dir = ScratchDir::new("ssf-range").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let (_, entries) = make_entries(700, sax, false, 8);
        let file = build(&dir, sax, entries, false, 32);
        let all: Vec<SeriesEntry> = file.reader(64).map(|r| r.unwrap()).collect();

        // Split the key domain at arbitrary block fences; concatenating the
        // range readers must reproduce the full sorted sequence exactly.
        let b1 = file.blocks()[5].min_key;
        let b2 = file.blocks()[13].min_key;
        let mut glued: Vec<SeriesEntry> = Vec::new();
        for (lo, hi) in [(0u128, Some(b1)), (b1, Some(b2)), (b2, None)] {
            let part: Vec<SeriesEntry> = file.range_reader(lo, hi).map(|r| r.unwrap()).collect();
            for e in &part {
                assert!(e.key >= lo);
                if let Some(hi) = hi {
                    assert!(e.key < hi);
                }
            }
            glued.extend(part);
        }
        assert_eq!(glued, all);

        // Empty and inverted ranges yield nothing (and must not panic).
        assert_eq!(file.range_reader(b1, Some(b1)).count(), 0);
        assert_eq!(file.range_reader(b2, Some(b1)).count(), 0);
        assert_eq!(file.range_reader(u128::MAX, Some(0)).count(), 0);
        assert_eq!(
            file.range_reader_with_prefetch(u128::MAX, Some(0), true)
                .count(),
            0
        );
    }

    #[test]
    fn prefetching_range_reader_matches_inline_reader() {
        let dir = ScratchDir::new("ssf-range-prefetch").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        // 8000 materialized entries x ~290 B ≈ 2.3 MiB: past the
        // PREFETCH_MIN_BYTES gate, so the full-range reader engages its
        // read-ahead worker (sub-ranges below the gate stay inline but must
        // agree as well).
        let (_, entries) = make_entries(8000, sax, true, 77);
        let file = build(&dir, sax, entries, true, 64);
        assert!(file.byte_size() >= coconut_storage::PREFETCH_MIN_BYTES as u64);
        let b1 = file.blocks()[30].min_key;
        for (lo, hi) in [(0u128, None), (0, Some(b1)), (b1, None)] {
            let inline: Vec<SeriesEntry> = file.range_reader(lo, hi).map(|r| r.unwrap()).collect();
            let prefetched: Vec<SeriesEntry> = file
                .range_reader_with_prefetch(lo, hi, true)
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(prefetched, inline, "range [{lo}, {hi:?})");
        }
    }

    #[test]
    fn empty_partition_is_searchable() {
        let dir = ScratchDir::new("ssf-empty").unwrap();
        let sax = SaxConfig::new(32, 4, 4);
        let file = build(&dir, sax, Vec::new(), true, 16);
        assert!(file.is_empty());
        let mut heap = KnnHeap::new(3);
        let mut ctx = QueryContext::materialized();
        let q = vec![0.5f32; 32];
        file.search_exact(&q, &mut heap, &mut ctx, None).unwrap();
        file.search_approximate(&q, &mut heap, &mut ctx, None)
            .unwrap();
        assert!(heap.is_empty());
    }
}
