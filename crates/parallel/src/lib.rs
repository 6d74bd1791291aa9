//! # coconut-parallel
//!
//! The few threading helpers left once every build and every query runs on
//! its caller's thread:
//!
//! * [`parallel_map_tasks`] — order-preserving map over coarse tasks with
//!   dynamic claiming: the palm service's pool for the sub-requests of a
//!   `batch`;
//! * [`chunk_bounds`] — near-equal contiguous split of a range: the
//!   coordinator's per-shard slices of a fleet-wide build;
//! * [`CancelToken`] — cooperative cancellation for deadline-carrying
//!   queries.
//!
//! [`parallel_map_tasks`] is built on [`std::thread::scope`], so borrowed
//! inputs work without `'static` bounds and there is no pool to manage or
//! shut down.  The overlapped-I/O pipelines of `coconut-storage` (the
//! sorter's run writer, merge read-ahead, the durability worker) need no
//! helper here: they hand work over through
//! [`std::sync::mpsc::sync_channel`].

pub mod cancel;

pub use cancel::CancelToken;

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

/// Order-preserving map over *coarse* tasks, one claim at a time.
///
/// Every item is a substantial unit of work (one request of a batch), and
/// the items are scheduled dynamically: up to `workers` scoped threads
/// repeatedly claim the next unclaimed index from a shared atomic counter.  Dynamic
/// claiming balances skewed task sizes (one exact query next to many
/// approximate ones) without any static partitioning.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let items: Vec<u64> = (0..16).collect();
        let _ = parallel_map_tasks(&items, 2, |_, x| {
            if *x == 15 {
                panic!("boom");
            }
            *x
        });
    }
}
