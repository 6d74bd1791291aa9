//! # coconut-parallel
//!
//! Fork/join helpers for the multi-core build and query pipeline.
//!
//! Coconut's bulk-load path is dominated by three embarrassingly parallel
//! stages — summarizing series into sortable keys, sorting run-generation
//! chunks, and refining candidates with distance computations.  This crate
//! provides the small, dependency-free primitives those stages share:
//!
//! * [`effective_parallelism`] — resolves a user-facing `parallelism` knob
//!   (`0` = use every available core) into a concrete worker count;
//! * [`parallel_map_slice`] — order-preserving map over a slice, processed in
//!   contiguous chunks by scoped threads;
//! * [`parallel_process_chunks`] — in-place processing of disjoint contiguous
//!   sub-slices (used to sort sub-chunks concurrently);
//! * [`parallel_map_tasks`] — order-preserving map over coarse tasks with
//!   dynamic claiming (index runs, compaction shards, the sub-requests of a
//!   palm `batch`);
//! * [`CancelToken`] — cooperative cancellation for deadline-carrying
//!   queries.
//!
//! Everything is built on [`std::thread::scope`], so borrowed inputs work
//! without `'static` bounds and there is no pool to manage or shut down.
//! The overlapped-I/O pipelines of `coconut-storage` (the sorter's run
//! writer, merge read-ahead, the durability worker) need no helper here:
//! they hand work over through [`std::sync::mpsc::sync_channel`].
//! Threads are only spawned when `workers > 1` **and** the input is large
//! enough to amortize spawn cost; otherwise the closure runs inline, which
//! keeps the `parallelism = 1` path byte-for-byte identical to a build
//! without this crate.

pub mod cancel;

pub use cancel::CancelToken;

/// Smallest number of items per worker below which spawning threads is not
/// worth the overhead; inputs smaller than this are processed inline.
pub const MIN_ITEMS_PER_WORKER: usize = 256;

/// Resolves a `parallelism` knob into a concrete worker count.
///
/// `0` means "use all available cores" (as reported by
/// [`std::thread::available_parallelism`]); any other value is used as-is.
/// The result is always at least 1.
pub fn effective_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `len` items into at most `workers` contiguous ranges of
/// near-equal size.  Returns the `(start, end)` bounds, in order.
pub fn chunk_bounds(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Maps `f` over `items`, preserving order, using up to `workers` scoped
/// threads over contiguous chunks.
///
/// The result is identical to `items.iter().map(f).collect()` regardless of
/// the worker count: chunking is contiguous and results are concatenated in
/// chunk order, so callers can rely on determinism.
pub fn parallel_map_slice<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1);
    if workers == 1 || items.len() < MIN_ITEMS_PER_WORKER * 2 {
        return items.iter().map(f).collect();
    }
    let bounds = chunk_bounds(items.len(), workers);
    let mut partials: Vec<Vec<R>> = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(bounds.len());
        for &(start, end) in &bounds {
            let slice = &items[start..end];
            let f = &f;
            handles.push(scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()));
        }
        for handle in handles {
            // A panic in a worker propagates to the caller.
            partials.push(handle.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for partial in partials {
        out.extend(partial);
    }
    out
}

/// Splits `items` into at most `workers` contiguous mutable sub-slices and
/// runs `f` on each concurrently.
///
/// `f` receives `(chunk_index, sub_slice)`.  The sub-slices are disjoint and
/// ordered, so in-place transformations (e.g. sorting each sub-slice) are
/// deterministic with respect to the original layout.
pub fn parallel_process_chunks<T, F>(items: &mut [T], workers: usize, f: F) -> usize
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 || items.len() < 2 {
        f(0, items);
        return 1;
    }
    let bounds = chunk_bounds(items.len(), workers);
    let chunks = bounds.len();
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(chunks);
        for (i, &(start, end)) in bounds.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(end - start);
            rest = tail;
            let f = &f;
            handles.push(scope.spawn(move || f(i, chunk)));
        }
        for handle in handles {
            handle.join().expect("parallel worker panicked");
        }
    });
    chunks
}

/// Order-preserving map over *coarse* tasks, one claim at a time.
///
/// Unlike [`parallel_map_slice`], which chunks fine-grained items and only
/// fans out above a size threshold, this helper treats every item as a
/// substantial unit of work (an index run to probe, a shard to merge) and
/// schedules them dynamically: up to `workers` scoped threads repeatedly
/// claim the next unclaimed index from a shared atomic counter.  Dynamic
/// claiming balances skewed task sizes (one large run next to many small
/// ones) without any static partitioning.
///
/// `f` receives `(item_index, &item)`.  The output vector is in item order
/// regardless of which worker ran which task, so callers observe a
/// deterministic result shape; `f` itself must be deterministic per item for
/// the *values* to be scheduling-independent.
pub fn parallel_map_tasks<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    done.push((i, f(i, &items[i])));
                }
                done
            }));
        }
        for handle in handles {
            for (i, r) in handle.join().expect("parallel worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index was claimed exactly once"))
        .collect()
}

/// Stable sort of `items` by `key`, using up to `workers` threads.
///
/// The result is **identical** to `items.sort_by(|a, b| key(a).cmp(&key(b)))`
/// (a stable sort) at every worker count: the slice is split into contiguous
/// sub-chunks, each sub-chunk is stably sorted concurrently, and the sorted
/// sub-chunks are merged with ties resolved in favour of the earlier chunk —
/// which is exactly the order a stable whole-slice sort would produce.
///
/// The merge moves records (no payload clones); the transient cost is one
/// extra `Vec` of element-sized slots, so callers budgeting memory should
/// account for `2 × items` of *headers* during the call when `workers > 1`
/// (payload heap allocations are reused, not duplicated).
pub fn parallel_sort_by_key<T, K, F>(items: &mut Vec<T>, workers: usize, key: F)
where
    T: Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let workers = workers
        .max(1)
        .min(items.len() / MIN_ITEMS_PER_WORKER.max(1))
        .max(1);
    if workers == 1 {
        items.sort_by_key(|a| key(a));
        return;
    }
    let bounds = chunk_bounds(items.len(), workers);
    parallel_process_chunks(items, workers, |_, chunk| {
        chunk.sort_by_key(|a| key(a));
    });
    // Merge the sorted sub-chunks; on equal keys the earliest chunk wins,
    // matching the stability of a whole-slice sort.  Elements are *moved*
    // out of their slots (`Option::take`), so payloads are never cloned.
    let len = items.len();
    let mut slots: Vec<Option<T>> = items.drain(..).map(Some).collect();
    let mut cursors: Vec<usize> = bounds.iter().map(|&(start, _)| start).collect();
    let mut heads: Vec<Option<K>> = bounds
        .iter()
        .map(|&(start, end)| {
            (start < end).then(|| key(slots[start].as_ref().expect("slot filled")))
        })
        .collect();
    for _ in 0..len {
        let mut best: Option<usize> = None;
        for (ci, head) in heads.iter().enumerate() {
            let Some(head_key) = head else { continue };
            match best {
                None => best = Some(ci),
                Some(bi) => {
                    // Strict '<' keeps the earlier chunk on ties.
                    if *head_key < *heads[bi].as_ref().expect("best head present") {
                        best = Some(ci);
                    }
                }
            }
        }
        let ci = best.expect("merge ran out of heads early");
        items.push(slots[cursors[ci]].take().expect("slot already drained"));
        cursors[ci] += 1;
        heads[ci] = (cursors[ci] < bounds[ci].1)
            .then(|| key(slots[cursors[ci]].as_ref().expect("slot filled")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_parallelism_resolves_zero() {
        assert!(effective_parallelism(0) >= 1);
        assert_eq!(effective_parallelism(3), 3);
        assert_eq!(effective_parallelism(1), 1);
    }

    #[test]
    fn chunk_bounds_cover_everything_in_order() {
        for len in [0usize, 1, 7, 100, 1023] {
            for workers in [1usize, 2, 3, 8, 200] {
                let bounds = chunk_bounds(len, workers);
                assert!(!bounds.is_empty());
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[bounds.len() - 1].1, len);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                }
                // Near-equal sizes: max - min <= 1.
                let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn parallel_map_matches_sequential_map() {
        let items: Vec<u64> = (0..5000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 4, 7] {
            let got = parallel_map_slice(&items, workers, |x| x * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_small_input_runs_inline() {
        let items = vec![1u32, 2, 3];
        assert_eq!(parallel_map_slice(&items, 8, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn process_chunks_partitions_disjointly() {
        let mut items: Vec<u64> = (0..4096).rev().collect();
        let chunks = parallel_process_chunks(&mut items, 4, |_, chunk| chunk.sort_unstable());
        assert_eq!(chunks, 4);
        // Each chunk is sorted internally.
        for (start, end) in chunk_bounds(items.len(), 4) {
            for w in items[start..end].windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn parallel_sort_matches_stable_sort_with_duplicates() {
        // Payload-carrying records with many duplicate keys: stability is
        // observable through the payload order.
        let mut items: Vec<(u32, usize)> = (0..10_000)
            .map(|i| ((i * 2654435761u64 % 50) as u32, i as usize))
            .collect();
        let mut expected = items.clone();
        expected.sort_by_key(|a| a.0);
        for workers in [1, 2, 3, 8] {
            let mut got = items.clone();
            parallel_sort_by_key(&mut got, workers, |t| t.0);
            assert_eq!(got, expected, "workers={workers}");
        }
        items.clear();
        parallel_sort_by_key(&mut items, 4, |t: &(u32, usize)| t.0);
        assert!(items.is_empty());
    }

    #[test]
    fn map_tasks_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 16, 64] {
            let got = parallel_map_tasks(&items, workers, |i, x| {
                assert_eq!(items[i], *x);
                x * x
            });
            assert_eq!(got, expected, "workers={workers}");
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_tasks(&empty, 4, |_, x| *x).is_empty());
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..10_000).collect();
        let _ = parallel_map_slice(&items, 2, |x| {
            if *x == 9_999 {
                panic!("boom");
            }
            *x
        });
    }
}
