//! Query-side helpers shared by every index variant.

use std::collections::BinaryHeap;

use coconut_sax::QueryBounds;
use coconut_series::dataset::decode_f32_le;
use coconut_series::distance::Neighbor;
use coconut_series::Timestamp;
use coconut_storage::iostats::AccessKind;
use coconut_storage::{RecordLayout, SharedIoStats};

use crate::entry::{EntryLayout, SeriesEntry};
use crate::kernels::euclidean_early_abandon;
use crate::raw::RawSeriesSource;
use crate::Result;

/// The largest `k` a [`KnnHeap`] sizes its allocation by up front.
const MAX_PREALLOCATED_K: usize = 1024;

/// A bounded max-heap holding the `k` best (smallest-distance) neighbours
/// seen so far; its current worst distance is the pruning bound.
///
/// A heap may carry a *ceiling*: a pruning bound frozen at the phase
/// boundary of the query engine (the k-th best seed).  The effective bound
/// is then the minimum of the ceiling and the heap's own k-th-best
/// distance, which injects cross-run pruning into per-run searches while
/// each run's pruning stays independent of the others.
#[derive(Debug)]
pub struct KnnHeap {
    k: usize,
    heap: BinaryHeap<Neighbor>,
    ceiling: f64,
}

impl KnnHeap {
    /// Creates a heap that retains the best `k` neighbours.
    pub fn new(k: usize) -> Self {
        Self::with_ceiling(k, f64::INFINITY)
    }

    /// Creates a heap whose pruning bound never exceeds `ceiling`.
    ///
    /// `k` comes from the wire, so the preallocation is capped: a `k` past
    /// the entry count just keeps every entry offered.
    pub fn with_ceiling(k: usize, ceiling: f64) -> Self {
        assert!(k > 0, "k must be positive");
        KnnHeap {
            k,
            heap: BinaryHeap::with_capacity(k.min(MAX_PREALLOCATED_K) + 1),
            ceiling,
        }
    }

    /// Offers a candidate with timestamp zero (static data); keeps it only
    /// if it is among the best `k`.
    pub fn offer(&mut self, id: u64, squared_distance: f64) {
        self.offer_at(id, 0, squared_distance);
    }

    /// Offers a candidate carrying its entry's arrival timestamp.  Ties are
    /// resolved by the total `(distance, id, timestamp)` order of
    /// [`Neighbor`].
    pub fn offer_at(&mut self, id: u64, timestamp: u64, squared_distance: f64) {
        let n = Neighbor::new_at(id, timestamp, squared_distance);
        if self.heap.len() < self.k {
            self.heap.push(n);
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.pop();
                self.heap.push(n);
            }
        }
    }

    /// Current pruning bound: the squared distance of the k-th best
    /// neighbour (or `+inf` while fewer than `k` have been seen), capped by
    /// the ceiling.
    pub fn bound(&self) -> f64 {
        let own = if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap
                .peek()
                .map(|n| n.squared_distance)
                .unwrap_or(f64::INFINITY)
        };
        own.min(self.ceiling)
    }

    /// Number of neighbours currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no neighbour has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the heap, returning neighbours sorted by ascending distance.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort();
        v
    }
}

coconut_json::wire! {
    /// Per-query cost counters.
    ///
    /// A query keeps one `QueryCost` per search unit (inside that unit's
    /// [`QueryContext`]) and sums them into the returned cost with
    /// [`QueryCost::plus`] — because each per-unit search is deterministic,
    /// the summed cost is a pure function of the index and the query.  The
    /// `cost` object of the palm protocol's `query_result`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct QueryCost {
        /// Entries whose summarization was examined (lower bound computed).
        pub entries_examined: u64,
        /// Entries refined with a true distance computation.
        pub entries_refined: u64,
        /// Raw series fetched from the original data file (non-materialized).
        pub raw_fetches: u64,
        /// Partitions / blocks actually read.
        pub blocks_read: u64,
        /// Partitions / blocks skipped thanks to summarization pruning.
        pub blocks_skipped: u64,
    }
}

impl QueryCost {
    /// Element-wise sum.
    pub fn plus(&self, other: &QueryCost) -> QueryCost {
        QueryCost {
            entries_examined: self.entries_examined + other.entries_examined,
            entries_refined: self.entries_refined + other.entries_refined,
            raw_fetches: self.raw_fetches + other.raw_fetches,
            blocks_skipped: self.blocks_skipped + other.blocks_skipped,
            blocks_read: self.blocks_read + other.blocks_read,
        }
    }
}

/// One entry of a block as [`QueryContext::refine`] reads it.
pub trait Entry {
    /// Arrival timestamp.
    fn timestamp(&self) -> Timestamp;
    /// Series id.
    fn id(&self) -> u64;
    /// Stored values (materialized layouts only), decoded into `buf` when
    /// they are not already `f32`s.
    fn values<'v>(&'v self, buf: &'v mut Vec<f32>) -> &'v [f32];
}

/// The entries of one block (or leaf), all of one layout.
pub trait Records {
    /// How one entry is read.
    type Entry<'r>: Entry
    where
        Self: 'r;
    /// `true` when every entry carries its values (a materialized layout);
    /// `false` when refining an entry is a raw fetch.
    fn materialized(&self) -> bool;
    /// The entries in file order.
    fn entries(&self) -> impl Iterator<Item = Self::Entry<'_>>;
    /// The number of entries.
    fn entry_count(&self) -> usize;
    /// The entry in `slot` (its position in [`Records::entries`]).
    fn entry(&self, slot: usize) -> Self::Entry<'_>;
    /// The lower bound of every entry against `bounds`, in file order,
    /// into `out` (cleared first).
    fn key_bounds(&self, bounds: &QueryBounds, out: &mut Vec<f64>);
}

/// Context passed through a query: access to the raw data file (for
/// non-materialized refinement), shared I/O statistics, cost counters and
/// the buffers a candidate's values are decoded into, reused from one
/// candidate to the next.
pub struct QueryContext<'a> {
    raw: Option<&'a RawSeriesSource>,
    stats: Option<SharedIoStats>,
    /// Cost counters accumulated during the query.
    pub cost: QueryCost,
    /// Staging bytes of a positioned raw read.
    bytes: Vec<u8>,
    /// Values of the candidate being refined.
    values: Vec<f32>,
    /// `(lower bound, slot)` of a block's raw-fetch candidates, reused from
    /// one block to the next.
    order: Vec<(f64, u32)>,
    /// The lower bound of every entry of the block being scanned.
    lbs: Vec<f64>,
    /// The heads of the block being scanned, and the value tails it read.
    pub(crate) heads: Vec<u8>,
    pub(crate) tails: Vec<u8>,
}

impl<'a> QueryContext<'a> {
    /// Context for a materialized index (no raw data file needed).
    pub fn materialized() -> Self {
        QueryContext {
            raw: None,
            stats: None,
            cost: QueryCost::default(),
            bytes: Vec::new(),
            values: Vec::new(),
            order: Vec::new(),
            lbs: Vec::new(),
            heads: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Context for a non-materialized index backed by `raw` (a
    /// backend-aware reader over the original dataset file).  Raw series
    /// fetches are charged to `stats` as random page reads — identically at
    /// either read backend.
    pub fn non_materialized(raw: &'a RawSeriesSource, stats: SharedIoStats) -> Self {
        QueryContext {
            raw: Some(raw),
            stats: Some(stats),
            ..QueryContext::materialized()
        }
    }

    /// Returns `true` when raw series can be fetched.
    pub fn can_fetch(&self) -> bool {
        self.raw.is_some()
    }

    /// Fetches the raw values of series `id` from the data file into the
    /// context's buffer, charging the access as a random read.  The slice is
    /// valid until the next `fetch`.
    pub fn fetch(&mut self, id: u64) -> Result<&[f32]> {
        let raw = self.raw.ok_or_else(|| {
            crate::IndexError::Config(
                "non-materialized refinement requires a raw dataset handle".into(),
            )
        })?;
        raw.read_values_into(id, &mut self.bytes, &mut self.values)?;
        self.cost.raw_fetches += 1;
        if let Some(stats) = &self.stats {
            stats.record(AccessKind::RandomRead, (self.values.len() * 4) as u64);
        }
        Ok(&self.values)
    }

    /// Refines one block's entries against `heap` — the one refine routine
    /// of every scan (CTree leaves, CLSM runs, TP/BTP partitions, ADS+
    /// leaves).  Entries outside `window` are not examined; with `bounds`,
    /// an entry whose lower bound exceeds `heap.bound()` is not refined
    /// (strictly `>`, so ties survive).
    ///
    /// With `bounds`, one [`Records::key_bounds`] call bounds every entry
    /// of the block before the entries are examined.
    ///
    /// Where a refinement is a raw fetch (a non-materialized layout, with
    /// `bounds`), the block is refined **best-first**: one pass over the
    /// examined entries keeps `(bound, slot)` for those the heap does not
    /// already beat, they are sorted by `(bound, slot)`, and the block ends
    /// at the first bound above the heap's current bound.  The heap then
    /// holds what the file-order loop would leave — the top-k of what it
    /// held plus the block's entries — after fewer fetches: an entry this
    /// skips has a bound, hence a distance, above the final k-th best.
    /// Materialized entries are refined inline in file order: decoding one
    /// costs less than the sort would save.
    pub fn refine<R: Records + ?Sized>(
        &mut self,
        records: &R,
        query: &[f32],
        bounds: Option<&QueryBounds>,
        heap: &mut KnnHeap,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        match bounds {
            Some(bounds) if !records.materialized() => {
                self.refine_best_first(records, query, bounds, heap, window)
            }
            _ => {
                self.select(records, bounds, heap.bound(), window);
                self.refine_selected(records, query, heap)
            }
        }
    }

    /// The first pass of a file-order refine: counts the entries in
    /// `window` as examined and keeps `(lower bound, slot)`, in file order,
    /// of those whose bound does not exceed `ceiling` (all, at `-inf`,
    /// without `bounds`).  Returns the first and the last slot kept.  With
    /// the heap's bound at block start as `ceiling`, every entry the second
    /// pass can refine is kept — the bound only tightens inside a block.
    /// With neither `bounds` nor `window` every entry is examined and kept,
    /// and no head is read to say so.
    pub(crate) fn select<R: Records + ?Sized>(
        &mut self,
        records: &R,
        bounds: Option<&QueryBounds>,
        ceiling: f64,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Option<(usize, usize)> {
        self.order.clear();
        if bounds.is_none() && window.is_none() {
            let count = records.entry_count();
            self.cost.entries_examined += count as u64;
            let slots = (0..count as u32).map(|slot| (f64::NEG_INFINITY, slot));
            self.order.extend(slots);
            return count.checked_sub(1).map(|last| (0, last));
        }
        if let Some(bounds) = bounds {
            records.key_bounds(bounds, &mut self.lbs);
        }
        for (slot, entry) in records.entries().enumerate() {
            if !in_window(entry.timestamp(), window) {
                continue;
            }
            self.cost.entries_examined += 1;
            let lb = if bounds.is_some() {
                self.lbs[slot]
            } else {
                f64::NEG_INFINITY
            };
            if lb > ceiling {
                continue;
            }
            self.order.push((lb, slot as u32));
        }
        Some((
            self.order.first()?.1 as usize,
            self.order.last()?.1 as usize,
        ))
    }

    /// The slots [`QueryContext::select`] kept, in file order.
    pub(crate) fn kept_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|&(_, slot)| slot as usize)
    }

    /// The second pass: refines the entries [`QueryContext::select`] kept,
    /// in file order, each only if its bound does not exceed the heap's
    /// bound when its turn comes.
    pub(crate) fn refine_selected<R: Records + ?Sized>(
        &mut self,
        records: &R,
        query: &[f32],
        heap: &mut KnnHeap,
    ) -> Result<()> {
        for i in 0..self.order.len() {
            let (lb, slot) = self.order[i];
            let bound = heap.bound();
            if lb > bound {
                continue;
            }
            self.cost.entries_refined += 1;
            let entry = records.entry(slot as usize);
            let id = entry.id();
            let values = if records.materialized() {
                entry.values(&mut self.values)
            } else {
                self.fetch(id)?
            };
            if let Some(d) = euclidean_early_abandon(query, values, bound) {
                heap.offer_at(id, entry.timestamp(), d);
            }
        }
        Ok(())
    }

    fn refine_best_first<R: Records + ?Sized>(
        &mut self,
        records: &R,
        query: &[f32],
        bounds: &QueryBounds,
        heap: &mut KnnHeap,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        let ceiling = heap.bound();
        self.order.clear();
        records.key_bounds(bounds, &mut self.lbs);
        for (slot, entry) in records.entries().enumerate() {
            if !in_window(entry.timestamp(), window) {
                continue;
            }
            self.cost.entries_examined += 1;
            let lb = self.lbs[slot];
            if lb <= ceiling {
                self.order.push((lb, slot as u32));
            }
        }
        self.order
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for i in 0..self.order.len() {
            let (lb, slot) = self.order[i];
            let bound = heap.bound();
            if lb > bound {
                break;
            }
            self.cost.entries_refined += 1;
            let entry = records.entry(slot as usize);
            let values = self.fetch(entry.id())?;
            if let Some(d) = euclidean_early_abandon(query, values, bound) {
                heap.offer_at(entry.id(), entry.timestamp(), d);
            }
        }
        Ok(())
    }
}

fn in_window(timestamp: Timestamp, window: Option<(Timestamp, Timestamp)>) -> bool {
    window.is_none_or(|(start, end)| start <= timestamp && timestamp <= end)
}

/// One block of a [`crate::SortedSeriesFile`] as a scan reads it: the heads
/// of its entries (key, id, timestamp), read in place, and — on a
/// materialized layout — the values of the span of slots the scan went on
/// to read, decoded only for an entry that is refined.
pub(crate) struct EncodedBlock<'a> {
    heads: &'a [u8],
    materialized: bool,
    /// Values of the slots `first_value..`, `value_len` bytes each.
    values: &'a [u8],
    value_len: usize,
    first_value: usize,
}

impl<'a> EncodedBlock<'a> {
    /// The entries whose heads are `heads`, in `layout`, with no values.
    pub(crate) fn heads(heads: &'a [u8], layout: &EntryLayout) -> Self {
        let value_len = layout.record_size() - ENTRY_HEAD;
        EncodedBlock {
            heads,
            materialized: layout.is_materialized(),
            values: &[],
            value_len,
            first_value: 0,
        }
    }

    /// The same entries, with `values` holding those of the slots from
    /// `first` on.
    pub(crate) fn with_values(self, values: &'a [u8], first: usize) -> Self {
        EncodedBlock {
            values,
            first_value: first,
            ..self
        }
    }
}

/// Bytes of an entry's head: key, id, timestamp.
const ENTRY_HEAD: usize = 32;

/// One encoded entry, read in place.
#[derive(Clone, Copy)]
pub(crate) struct EncodedEntry<'a> {
    head: &'a [u8],
    block: &'a EncodedBlock<'a>,
    slot: usize,
}

impl Entry for EncodedEntry<'_> {
    fn timestamp(&self) -> Timestamp {
        EntryLayout::timestamp_of(self.head)
    }

    fn id(&self) -> u64 {
        EntryLayout::id_of(self.head)
    }

    /// Only for a slot whose values the scan read.
    fn values<'v>(&'v self, buf: &'v mut Vec<f32>) -> &'v [f32] {
        let block = self.block;
        let at = (self.slot - block.first_value) * block.value_len;
        decode_f32_le(&block.values[at..at + block.value_len], buf);
        buf
    }
}

impl Records for EncodedBlock<'_> {
    type Entry<'r>
        = EncodedEntry<'r>
    where
        Self: 'r;

    fn materialized(&self) -> bool {
        self.materialized
    }

    fn entries(&self) -> impl Iterator<Item = EncodedEntry<'_>> {
        self.heads
            .chunks_exact(ENTRY_HEAD)
            .enumerate()
            .map(|(slot, head)| EncodedEntry {
                head,
                block: self,
                slot,
            })
    }

    fn entry_count(&self) -> usize {
        self.heads.len() / ENTRY_HEAD
    }

    fn entry(&self, slot: usize) -> EncodedEntry<'_> {
        EncodedEntry {
            head: &self.heads[slot * ENTRY_HEAD..(slot + 1) * ENTRY_HEAD],
            block: self,
            slot,
        }
    }

    /// One kernel call over the heads: each starts with its big-endian key.
    fn key_bounds(&self, bounds: &QueryBounds, out: &mut Vec<f64>) {
        bounds.block_bounds_sq(self.heads, ENTRY_HEAD, out);
    }
}

impl Entry for &SeriesEntry {
    fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    fn id(&self) -> u64 {
        self.id
    }

    fn values<'v>(&'v self, _buf: &'v mut Vec<f32>) -> &'v [f32] {
        &self.values
    }
}

/// Decoded entries (an ADS+ leaf).
impl Records for [SeriesEntry] {
    type Entry<'r> = &'r SeriesEntry;

    fn materialized(&self) -> bool {
        self.first().is_some_and(SeriesEntry::is_materialized)
    }

    fn entries(&self) -> impl Iterator<Item = &SeriesEntry> {
        self.iter()
    }

    fn entry_count(&self) -> usize {
        self.len()
    }

    fn entry(&self, slot: usize) -> &SeriesEntry {
        &self[slot]
    }

    fn key_bounds(&self, bounds: &QueryBounds, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.iter().map(|entry| bounds.key_bound_sq(entry.key)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    #[test]
    fn knn_heap_keeps_best_k() {
        let mut heap = KnnHeap::new(3);
        assert_eq!(heap.bound(), f64::INFINITY);
        for (id, d) in [(1, 9.0), (2, 1.0), (3, 4.0), (4, 16.0), (5, 0.5)] {
            heap.offer(id, d);
        }
        assert_eq!(heap.len(), 3);
        let sorted = heap.into_sorted();
        let ids: Vec<u64> = sorted.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![5, 2, 3]);
    }

    #[test]
    fn knn_heap_bound_tracks_worst_of_k() {
        let mut heap = KnnHeap::new(2);
        heap.offer(1, 10.0);
        assert_eq!(heap.bound(), f64::INFINITY);
        heap.offer(2, 5.0);
        assert_eq!(heap.bound(), 10.0);
        heap.offer(3, 1.0);
        assert_eq!(heap.bound(), 5.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        KnnHeap::new(0);
    }

    #[test]
    fn ceiling_caps_the_bound_without_blocking_offers() {
        let mut heap = KnnHeap::with_ceiling(2, 4.0);
        assert_eq!(heap.bound(), 4.0, "empty heap is bounded by the ceiling");
        heap.offer(1, 100.0);
        heap.offer(2, 50.0);
        // The heap's own k-th best (100.0) is looser than the ceiling.
        assert_eq!(heap.bound(), 4.0);
        heap.offer(3, 1.0);
        heap.offer(4, 2.0);
        // Now the heap's k-th best (2.0) undercuts the ceiling.
        assert_eq!(heap.bound(), 2.0);
        let ids: Vec<u64> = heap.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn equal_distance_offers_keep_smallest_id_then_timestamp() {
        let mut heap = KnnHeap::new(2);
        heap.offer_at(9, 5, 1.0);
        heap.offer_at(9, 3, 1.0);
        heap.offer_at(2, 7, 1.0);
        let sorted = heap.into_sorted();
        let keys: Vec<(u64, u64)> = sorted.iter().map(|n| (n.id, n.timestamp)).collect();
        assert_eq!(keys, vec![(2, 7), (9, 3)]);
    }

    #[test]
    fn materialized_context_cannot_fetch() {
        let mut ctx = QueryContext::materialized();
        assert!(!ctx.can_fetch());
        assert!(ctx.fetch(0).is_err());
    }

    #[test]
    fn non_materialized_context_fetches_and_counts() {
        let dir = ScratchDir::new("qctx").unwrap();
        let mut gen = RandomWalkGenerator::new(32, 9);
        let series = gen.generate(5);
        let ds = coconut_series::Dataset::create_from_series(dir.file("d.bin"), &series).unwrap();
        // The accounting contract is backend-independent: one random read of
        // the series' byte volume per fetch, whether the values came from a
        // positioned read or a mapping.
        for backend in [
            coconut_storage::IoBackend::Pread,
            coconut_storage::IoBackend::Mmap,
        ] {
            let raw = RawSeriesSource::new(ds.reopen().unwrap(), backend).unwrap();
            let stats = IoStats::shared();
            let mut ctx = QueryContext::non_materialized(&raw, std::sync::Arc::clone(&stats));
            let v = ctx.fetch(3).unwrap();
            assert_eq!(v, series[3].values);
            assert_eq!(ctx.cost.raw_fetches, 1);
            assert_eq!(stats.snapshot().random_reads, 1, "{backend}");
            assert_eq!(stats.snapshot().bytes_read, 32 * 4, "{backend}");
        }
    }

    #[test]
    fn query_cost_plus_adds_fields() {
        let a = QueryCost {
            entries_examined: 1,
            entries_refined: 2,
            raw_fetches: 3,
            blocks_skipped: 4,
            blocks_read: 5,
        };
        let b = a.plus(&a);
        assert_eq!(b.entries_examined, 2);
        assert_eq!(b.blocks_read, 10);
    }
}
