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

use coconut_sax::breakpoints::BreakpointTable;
use coconut_sax::{mindist_paa_key_prefix_sq, InvSaxKey, QueryBounds, SaxConfig, SaxWord};
use coconut_series::paa::paa;
use coconut_series::Timestamp;
use coconut_storage::dynsort::DynRunWriter;
use coconut_storage::{AccessPattern, IoBackend, RecordLayout, SharedIoStats};

use crate::entry::{EntryLayout, SeriesEntry};
use crate::query::{EncodedBlock, KnnHeap, QueryContext};
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
    /// blocks of `entries_per_block` entries.  `backend` is the read backend
    /// the finished partition serves its block scans with, a pure
    /// performance knob: answers, costs and `IoStats` are identical at
    /// either setting.  Entries without values are written whole; a
    /// materialized partition keeps its values in a sibling `<path>.tail`
    /// file.
    #[allow(clippy::too_many_arguments)]
    pub fn build<P, I>(
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
        assert!(entries_per_block > 0);
        let mut writer =
            DynRunWriter::create(layout, path, Arc::clone(&stats), page_size, backend)?;
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
                        "a partition build requires key-ordered input".into(),
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

    /// Builds a partition from unsorted in-memory entries: sorts them by
    /// `(key, id)`, then [`SortedSeriesFile::build`]s.  Used for buffer
    /// flushes in CoconutLSM and the streaming schemes.
    #[allow(clippy::too_many_arguments)]
    pub fn build_unsorted<P: AsRef<Path>>(
        path: P,
        layout: EntryLayout,
        sax: SaxConfig,
        mut entries: Vec<SeriesEntry>,
        entries_per_block: usize,
        stats: SharedIoStats,
        page_size: usize,
        backend: IoBackend,
    ) -> Result<Self> {
        entries.sort_by_key(|e| (e.key, e.id));
        Self::build(
            path,
            layout,
            sax,
            entries.into_iter().map(Ok),
            entries_per_block,
            stats,
            page_size,
            backend,
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

    /// Size in bytes (`entries × record_size`): what the partition
    /// occupies on disk, over both files of a materialized one.
    pub fn byte_size(&self) -> u64 {
        self.run.byte_size()
    }

    /// Reads only the invSAX keys of `count` entries starting at `index`,
    /// in key order.  On a materialized partition this touches just the
    /// heads file — the raw f32 values never leave the disk — so a key-only
    /// scan moves strictly fewer physical bytes than an entry scan; the
    /// logical `IoStats` view is charged like a full-record read.
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
        // A full scan walks the mapped pages front to back: let the kernel
        // read ahead aggressively (advisory; accounting unaffected).
        self.run.advise_read_pattern(AccessPattern::Sequential);
        self.run.reader(buffer_records)
    }

    /// Returns a sequential reader over the entries whose key lies in
    /// `[lo, hi)` (`hi = None` means unbounded above).  The block index is
    /// used to seek straight to the first candidate block; only the two
    /// boundary blocks are filtered entry-by-entry, everything in between
    /// streams through untouched.  Used by sharded compactions to feed one
    /// key shard of a level merge.
    pub fn range_reader(&self, lo: u128, hi: Option<u128>) -> RangeReader<'_> {
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
        RangeReader {
            file: self,
            next_block: first,
            end_block: last,
            pending: std::collections::VecDeque::new(),
            lo,
            hi,
            done: false,
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

    /// Deletes the partition's files.
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

    /// Reads one block's heads and refines it: every entry has its
    /// timestamp read for the window test and — with `bounds` — its key for
    /// the lower bound.  A materialized block then reads the values of the
    /// entries that can still win against the heap's bound at block start,
    /// in the ranges of [`read_plan`] (none if none can).  Both buffers are
    /// the context's, reused from block to block.
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
        let mut heads = std::mem::take(&mut ctx.heads);
        self.run
            .read_heads_into(block.start, block.count as usize, &mut heads)?;
        let records = EncodedBlock::heads(&heads, self.run.layout());
        let scanned = if !self.layout().is_materialized() {
            ctx.refine(&records, query, bounds, heap, window)
        } else if let Some((first, last)) = ctx.select(&records, bounds, heap.bound(), window) {
            let mut tails = std::mem::take(&mut ctx.tails);
            let read = self.read_values(block.start, ctx.kept_slots(), first, last, &mut tails);
            let refined = read.and_then(|values| {
                ctx.refine_selected(&records.with_values(values, first), query, heap)
            });
            ctx.tails = tails;
            refined
        } else {
            Ok(())
        };
        ctx.heads = heads;
        scanned
    }

    /// Reads the value tails of the `kept` slots (ascending, `first` to
    /// `last`) of the block starting at entry `start` into `tails`, laid
    /// out from slot `first` on, one read per range of [`read_plan`].  Of
    /// the slots between two ranges nothing is read; their bytes are
    /// whatever the buffer held.  Returns the bytes laid out.
    fn read_values<'t>(
        &self,
        start: u64,
        kept: impl IntoIterator<Item = usize>,
        first: usize,
        last: usize,
        tails: &'t mut Vec<u8>,
    ) -> Result<&'t [u8]> {
        let tail = self.layout().record_size() - self.run.head_size();
        let span = (last - first + 1) * tail;
        if tails.len() < span {
            tails.resize(span, 0);
        }
        for (lo, hi) in read_plan(kept, tail) {
            let range = &mut tails[(lo - first) * tail..(hi - first + 1) * tail];
            self.run.read_tails_into(start + lo as u64, range)?;
        }
        Ok(&tails[..span])
    }

    /// Approximate kNN: reads only the block(s) around the query's key
    /// position and refines their entries.  This is the "approximate query"
    /// of the iSAX family: fast, no guarantee of exactness.
    ///
    /// Its answer is each probed block's top-k.  On a raw-fetch
    /// (non-materialized) file the probe bounds its entries with the
    /// query's [`QueryBounds`] and refines them best-first, reaching that
    /// same top-k after a fraction of the fetches; a materialized file's
    /// refinement is a decode, cheaper than building the table, so it
    /// refines every entry in file order.
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
        let query_paa = paa(query, self.sax.segments);
        let breakpoints = BreakpointTable::global().for_bits(self.sax.bits_per_segment);
        let key = InvSaxKey::from_sax(&SaxWord::from_paa(&query_paa, &self.sax, breakpoints)).raw();
        let bounds =
            (!self.layout().is_materialized()).then(|| QueryBounds::new(&query_paa, &self.sax));
        let target = self.locate_block(key).unwrap();
        // Visit the target block, then its neighbours outward (the one after
        // before the one before) until a scanned block leaves the heap's
        // bound finite.  A heap that arrives with a finite bound looks no
        // further than radius 1.
        let n = self.blocks.len();
        let reach = if heap.bound() < f64::INFINITY {
            1
        } else {
            target.max(n - 1 - target)
        };
        let outward = (1..=reach)
            .flat_map(|r| [Some(target + r).filter(|&i| i < n), target.checked_sub(r)])
            .flatten();
        for idx in std::iter::once(target).chain(outward) {
            let block = self.blocks[idx];
            if !block.intersects_window(window) {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            self.scan_block(&block, query, bounds.as_ref(), heap, ctx, window)?;
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

/// Unkept value tails, in bytes, that one read may carry between two kept
/// slots of a block: [`read_plan`] merges two ranges when their gap is at
/// most one page.  At 256-float series that is 4 entries.  Measured on
/// palmbench `stream-window` (64-entry blocks; 2-core VM; physical bytes per
/// exact query from a traced run of seed 1, `exact_p50_ms` the median of
/// untraced seeds 1–3) against the gap, in entries of 1 KiB:
///
/// | gap | bytes/query | `exact_p50_ms` |
/// |---|---:|---:|
/// | 0 (kept runs only) | 5.42 MB | 2.06 |
/// | 2 | 6.03 MB | 2.16 |
/// | 3 | 6.25 MB | 1.70 |
/// | **4** | 6.53 MB | 1.68 |
/// | 8 | 7.10 MB | 1.93 |
/// | whole span | 8.86 MB | 2.07 |
///
/// Short gaps read fewer bytes in more `pread`s (about 0.5 µs each); long
/// ones copy bytes no entry uses.
const READ_GAP_BYTES: usize = 4096;

/// The reads that cover the kept slots `kept` (ascending) of one block whose
/// value tails are `tail_len` bytes each: `(first, last)` slot ranges, in
/// order.  Two consecutive kept slots share a read when the unkept tails
/// between them total at most [`READ_GAP_BYTES`].  Every range lies inside
/// the span from the first to the last kept slot and starts and ends on a
/// kept slot.
fn read_plan(
    kept: impl IntoIterator<Item = usize>,
    tail_len: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let mut kept = kept.into_iter().peekable();
    std::iter::from_fn(move || {
        let first = kept.next()?;
        let mut last = first;
        while let Some(next) = kept.next_if(|&next| (next - last - 1) * tail_len <= READ_GAP_BYTES)
        {
            last = next;
        }
        Some((first, last))
    })
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
}

impl RangeReader<'_> {
    /// Raw bytes of the next block of the range; `None` once the range's
    /// blocks are exhausted.
    fn next_block_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        if self.next_block >= self.end_block {
            return Ok(None);
        }
        let block = self.file.blocks[self.next_block];
        self.next_block += 1;
        Ok(Some(
            self.file.run.read_raw(block.start, block.count as usize)?,
        ))
    }

    fn refill(&mut self) -> Result<()> {
        while self.pending.is_empty() && !self.done {
            let Some(bytes) = self.next_block_bytes()? else {
                self.done = true;
                return Ok(());
            };
            let file = self.file;
            for entry in file.run.decode_raw(&bytes) {
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
        SortedSeriesFile::build_unsorted(
            dir.file("part.run"),
            layout,
            sax,
            entries,
            entries_per_block,
            IoStats::shared(),
            4096,
            IoBackend::Pread,
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
    fn unsorted_input_to_build_is_rejected() {
        let dir = ScratchDir::new("ssf-unsorted").unwrap();
        let sax = SaxConfig::new(32, 4, 4);
        let (_, mut entries) = make_entries(10, sax, false, 2);
        entries.sort_by_key(|e| std::cmp::Reverse(e.key));
        let layout = EntryLayout::non_materialized(sax.key_bits());
        let result = SortedSeriesFile::build(
            dir.file("bad.run"),
            layout,
            sax,
            entries.into_iter().map(Ok),
            8,
            IoStats::shared(),
            1024,
            IoBackend::Pread,
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
    }

    /// Tail bytes of a 256-float series: a gap of 4 entries is one page.
    const TAIL_256: usize = 1024;

    fn plan(kept: &[usize], tail_len: usize) -> Vec<(usize, usize)> {
        read_plan(kept.iter().copied(), tail_len).collect()
    }

    #[test]
    fn read_plan_of_no_slot_reads_nothing() {
        assert_eq!(plan(&[], TAIL_256), []);
    }

    #[test]
    fn read_plan_of_one_slot_reads_it() {
        assert_eq!(plan(&[17], TAIL_256), [(17, 17)]);
    }

    #[test]
    fn read_plan_of_every_slot_is_one_read() {
        let every: Vec<usize> = (0..64).collect();
        assert_eq!(plan(&every, TAIL_256), [(0, 63)]);
    }

    #[test]
    fn read_plan_merges_short_gaps_only() {
        // Gaps of 2, 36, 0 and 21 unkept entries.
        assert_eq!(
            plan(&[0, 3, 40, 41, 63], TAIL_256),
            [(0, 3), (40, 41), (63, 63)]
        );
    }

    #[test]
    fn read_plan_gap_of_one_page_shares_a_read() {
        assert_eq!(READ_GAP_BYTES / TAIL_256, 4);
        // 4 unkept tails between the two: exactly one page.
        assert_eq!(plan(&[10, 15], TAIL_256), [(10, 15)]);
        // 5: one entry over it.
        assert_eq!(plan(&[10, 16], TAIL_256), [(10, 10), (16, 16)]);
        // Smaller tails carry more entries per page.
        assert_eq!(plan(&[0, 17], 256), [(0, 17)]);
        assert_eq!(plan(&[0, 18], 256), [(0, 0), (18, 18)]);
    }

    /// The plan's ranges are read into their places in one buffer: the kept
    /// slots' values are the block's, and the physical bytes are exactly the
    /// ranges' tails.
    #[test]
    fn planned_value_reads_fill_the_kept_slots() {
        let dir = ScratchDir::new("ssf-plan").unwrap();
        let sax = SaxConfig::new(256, 8, 8);
        let (_, entries) = make_entries(256, sax, true, 9);
        let kept = [0usize, 3, 40, 41, 63];
        let stats = IoStats::shared();
        let file = SortedSeriesFile::build_unsorted(
            dir.file("plan.run"),
            EntryLayout::materialized(sax.key_bits(), sax.series_len),
            sax,
            entries,
            64,
            Arc::clone(&stats),
            4096,
            IoBackend::Pread,
        )
        .unwrap();
        let block = file.blocks()[1];
        let whole = file.run().read_tails_raw(block.start, 64).unwrap();
        let mut tails = vec![0xAA; 7];
        let before = stats.snapshot();
        let values = file
            .read_values(block.start, kept, 0, 63, &mut tails)
            .unwrap();
        let physical = stats.snapshot().since(&before).physical_bytes_read;
        assert_eq!(values.len(), 64 * TAIL_256);
        for slot in kept {
            let at = slot * TAIL_256..(slot + 1) * TAIL_256;
            assert_eq!(values[at.clone()], whole[at], "slot {slot}");
        }
        assert_eq!(physical, (4 + 2 + 1) * TAIL_256 as u64);
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
