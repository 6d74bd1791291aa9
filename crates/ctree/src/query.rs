//! Query-side helpers shared by every index variant.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use coconut_series::dataset::decode_f32_le;
use coconut_series::distance::Neighbor;
use coconut_storage::iostats::AccessKind;
use coconut_storage::SharedIoStats;

use crate::raw::RawSeriesSource;
use crate::Result;

/// Maps an `f64` to a `u64` whose unsigned order matches the float order
/// (IEEE-754 total-order trick: flip the sign bit of non-negatives, flip all
/// bits of negatives).  Distances are non-negative, but the mapping is
/// implemented for the full domain so [`SharedBound`] is safe regardless.
fn f64_to_ordered_bits(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 0 {
        bits | (1u64 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`f64_to_ordered_bits`].
fn f64_from_ordered_bits(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits & !(1u64 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

/// A best-so-far pruning bound shared across concurrent query workers.
///
/// The bound is the squared distance of the k-th best neighbour discovered
/// so far, stored as *ordered bits* (the IEEE-754 total-order mapping
/// above) in one
/// `AtomicU64` and **monotonically tightened** via a CAS loop: a worker that
/// finishes probing a run publishes its local k-th-best distance, and the
/// stored value only ever decreases.  The structure is lock-free: readers
/// load one word, writers retry the CAS only while they still improve the
/// bound.
///
/// The concurrent query engine (see `crate::engine`) reads the bound at
/// deterministic phase boundaries rather than mid-scan, which is what keeps
/// query answers *and* cost counters bit-identical at every worker count.
#[derive(Debug)]
pub struct SharedBound {
    bits: AtomicU64,
}

impl Default for SharedBound {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedBound {
    /// Creates an untightened bound (`+inf`).
    pub fn new() -> Self {
        SharedBound {
            bits: AtomicU64::new(f64_to_ordered_bits(f64::INFINITY)),
        }
    }

    /// Current bound value.
    pub fn get(&self) -> f64 {
        f64_from_ordered_bits(self.bits.load(Ordering::Acquire))
    }

    /// Tightens the bound to `candidate` if it improves on the stored value.
    /// Returns `true` when this call lowered the bound.
    pub fn tighten(&self, candidate: f64) -> bool {
        let new = f64_to_ordered_bits(candidate);
        let mut current = self.bits.load(Ordering::Acquire);
        while new < current {
            match self
                .bits
                .compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
        false
    }
}

/// A bounded max-heap holding the `k` best (smallest-distance) neighbours
/// seen so far; its current worst distance is the pruning bound.
///
/// A heap may carry a *ceiling*: a pruning bound frozen from a
/// [`SharedBound`] at a phase boundary of the concurrent query engine.  The
/// effective bound is then the minimum of the ceiling and the heap's own
/// k-th-best distance, which injects cross-run pruning into per-run worker
/// searches without any mid-scan synchronization.
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
    pub fn with_ceiling(k: usize, ceiling: f64) -> Self {
        assert!(k > 0, "k must be positive");
        KnnHeap {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
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

/// Per-query cost counters.
///
/// Concurrent queries keep one `QueryCost` per worker (inside that worker's
/// [`QueryContext`]) and sum them into the returned cost with
/// [`QueryCost::plus`] once every worker has joined — counters are never
/// shared mutably across threads, so the aggregate is exact, and because
/// each per-unit search is deterministic the summed cost is identical at
/// every `query_parallelism` setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Entries whose summarization was examined (lower bound computed).
    pub entries_examined: u64,
    /// Entries refined with a true distance computation.
    pub entries_refined: u64,
    /// Raw series fetched from the original data file (non-materialized).
    pub raw_fetches: u64,
    /// Partitions / blocks skipped thanks to summarization pruning.
    pub blocks_skipped: u64,
    /// Partitions / blocks actually read.
    pub blocks_read: u64,
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
    /// valid until the next `fetch` or `decode_values`.
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

    /// Decodes the little-endian values of a materialized entry into the
    /// context's buffer.  The slice is valid until the next `fetch` or
    /// `decode_values`.
    pub fn decode_values(&mut self, le_bytes: &[u8]) -> &[f32] {
        decode_f32_le(le_bytes, &mut self.values);
        &self.values
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
    fn shared_bound_tightens_monotonically() {
        let bound = SharedBound::new();
        assert_eq!(bound.get(), f64::INFINITY);
        assert!(bound.tighten(10.0));
        assert!(!bound.tighten(11.0), "looser values must be rejected");
        assert_eq!(bound.get(), 10.0);
        assert!(bound.tighten(0.5));
        assert!(!bound.tighten(0.5), "equal values do not tighten");
        assert_eq!(bound.get(), 0.5);
        assert!(bound.tighten(0.0));
        assert_eq!(bound.get(), 0.0);
    }

    #[test]
    fn shared_bound_is_consistent_under_concurrent_tightening() {
        let bound = SharedBound::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let bound = &bound;
                scope.spawn(move || {
                    for i in (1..500u64).rev() {
                        bound.tighten((t * 1000 + i) as f64);
                    }
                });
            }
        });
        // The global minimum of every published candidate must have won.
        assert_eq!(bound.get(), 1.0);
    }

    #[test]
    fn ordered_bits_roundtrip_and_order() {
        for v in [0.0f64, 1.5, 1e300, f64::INFINITY, -1.0, -0.0] {
            assert_eq!(f64_from_ordered_bits(f64_to_ordered_bits(v)), v);
        }
        assert!(f64_to_ordered_bits(-1.0) < f64_to_ordered_bits(0.0));
        assert!(f64_to_ordered_bits(0.0) < f64_to_ordered_bits(2.0));
        assert!(f64_to_ordered_bits(2.0) < f64_to_ordered_bits(f64::INFINITY));
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
