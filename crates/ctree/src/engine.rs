//! The query engine: one query over search units, around a best-so-far
//! bound frozen between two phases.
//!
//! Every Coconut index is queried as a collection of **search units** — the
//! in-memory buffer, each sorted run (or shard) of a CLSM level, each
//! temporal partition of a stream.  The engine probes the units in order on
//! the caller's thread, each with its own local heap, and merges the results
//! deterministically, so neighbours, distances, tie-breaking order *and*
//! cost counters are a pure function of the units and the query.
//!
//! # Protocol
//!
//! [`parallel_knn_with`] is the one search function.  An exact query over
//! more than one unit runs two phases:
//!
//! 1. **Seed** — every unit is probed *approximately* (its target block
//!    only) with an independent local heap.  The seed candidates are then
//!    merged and the bound `b0` is frozen at the k-th best of the union
//!    (`+inf` while it holds fewer than `k`), which is at least as tight as
//!    any per-unit k-th best.
//! 2. **Refine** — every unit runs its exact search with a local heap whose
//!    pruning bound is `min(b0, local k-th best)`.  **A unit's decisions
//!    never read another unit's heap**: its pruning, and so its cost, depends
//!    only on `b0` and its own candidates, never on the order the units are
//!    searched in.  `b0` already carries the cross-unit pruning power the
//!    Coconut line derives from one bound shared across all sorted runs.
//!
//! Approximate queries, and exact queries over a single unit, are one phase
//! of independent unit probes under an unbounded ceiling.  A batch of
//! queries is that many calls; the palm service runs them concurrently on
//! its worker pool.
//!
//! # Why the merged result is exact
//!
//! The frozen bound `b0` is the k-th best distance of *actual* candidates,
//! so `b0 >= d_k`, the true k-th best.  Pruning and early abandoning are
//! strict (`> bound`), so every neighbour of the true top-k (ordered by
//! `(distance, id, timestamp)`) survives its unit's search and lands in that
//! unit's local top-k; the deterministic merge (concatenate in unit order,
//! stable sort, truncate to `k`) therefore returns exactly the global top-k.

use coconut_parallel::CancelToken;
use coconut_series::distance::Neighbor;

use crate::query::{KnnHeap, QueryContext, QueryCost};
use crate::{IndexError, Result};

/// One independently searchable piece of an index.
///
/// Each unit is searched with its own heap and cost context; both search
/// methods must be deterministic functions of the unit, the query and the
/// heap's starting ceiling.  The query is a parameter (rather than baked
/// into the unit) so one unit list serves both phases of a query.
pub trait SearchUnit {
    /// Fresh cost/fetch context for one phase over this unit.
    fn context(&self) -> QueryContext<'_>;

    /// Approximate probe: refine only the most promising region of the
    /// unit.  Used both as the seed phase of exact queries and as the whole
    /// of approximate queries.
    fn search_approximate(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()>;

    /// Exact contribution: refine every candidate of the unit that the
    /// heap's pruning bound cannot exclude.
    fn search_exact(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()>;
}

/// Deterministically merges per-part top-`k` candidate lists into the
/// global top-`k`: concatenate in part order, stable sort by the total
/// `(distance, id, timestamp)` neighbour order, truncate to `k`; costs are
/// summed in part order.
///
/// This is **the** merge of the engine — both phases of
/// [`parallel_knn_with`] fold their per-unit results through it — exposed so
/// that higher layers composing partial answers (the service-level
/// scatter-gather coordinator merging per-shard top-k) provably apply the
/// identical rule: as long as each part is itself a true top-`k` of a
/// disjoint slice of the candidate space, the merged list is the true
/// global top-`k` in the engine's order (see the module docs, "Why the
/// merged result is exact").
pub fn merge_topk(parts: Vec<(Vec<Neighbor>, QueryCost)>, k: usize) -> (Vec<Neighbor>, QueryCost) {
    let mut neighbors = Vec::new();
    let mut cost = QueryCost::default();
    for (part_neighbors, part_cost) in parts {
        neighbors.extend(part_neighbors);
        cost = cost.plus(&part_cost);
    }
    neighbors.sort();
    neighbors.truncate(k);
    (neighbors, cost)
}

/// Runs a kNN query over `units` and returns the merged top-`k` plus the
/// exact summed cost; see the module docs for the protocol.
pub fn parallel_knn<U: SearchUnit>(
    units: &[U],
    query: &[f32],
    k: usize,
    exact: bool,
) -> Result<(Vec<Neighbor>, QueryCost)> {
    parallel_knn_with(units, query, k, exact, &CancelToken::never())
}

/// [`parallel_knn`] with cooperative cancellation.
///
/// The token is polled before each phase — never mid-scan — so a query that
/// runs to completion is bit-identical to [`parallel_knn`] (the checks are
/// pure reads).  On cancellation the query unwinds with
/// [`IndexError::Cancelled`] carrying the cost of the phase that completed
/// (the seed, or nothing), making the aborted work observable.  The first
/// unit error aborts the query.
pub fn parallel_knn_with<U: SearchUnit>(
    units: &[U],
    query: &[f32],
    k: usize,
    exact: bool,
    cancel: &CancelToken,
) -> Result<(Vec<Neighbor>, QueryCost)> {
    if units.is_empty() {
        return Ok((Vec::new(), QueryCost::default()));
    }
    let check = |partial_cost: QueryCost| {
        if cancel.is_cancelled() {
            Err(IndexError::Cancelled { partial_cost })
        } else {
            Ok(())
        }
    };
    // One phase: every unit searched under `ceiling`, results in unit order.
    let phase = |ceiling: f64, exact: bool| -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        units
            .iter()
            .map(|unit| {
                let mut heap = KnnHeap::with_ceiling(k, ceiling);
                let mut ctx = unit.context();
                if exact {
                    unit.search_exact(query, &mut heap, &mut ctx)?;
                } else {
                    unit.search_approximate(query, &mut heap, &mut ctx)?;
                }
                Ok((heap.into_sorted(), ctx.cost))
            })
            .collect()
    };
    // Exact queries over a single unit need no seed phase: there is no
    // cross-unit bound to share.
    let (ceiling, seed_cost) = if exact && units.len() > 1 {
        check(QueryCost::default())?;
        let (seeds, seed_cost) = merge_topk(phase(f64::INFINITY, false)?, k);
        let ceiling = seeds
            .get(k - 1)
            .map_or(f64::INFINITY, |kth| kth.squared_distance);
        (ceiling, seed_cost)
    } else {
        (f64::INFINITY, QueryCost::default())
    };
    check(seed_cost)?;
    // Deterministic merge: unit order, seeded with the seed phase's cost.
    let mut parts = vec![(Vec::new(), seed_cost)];
    parts.extend(phase(ceiling, exact)?);
    Ok(merge_topk(parts, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryContext;
    use coconut_parallel::parallel_map_tasks;

    /// A purely in-memory unit over `(id, timestamp, distance)` candidates.
    /// The "distance" of a candidate is its stored value plus the sum of the
    /// query slice (so different queries rank candidates differently).
    struct VecUnit {
        candidates: Vec<(u64, u64, f64)>,
    }

    impl VecUnit {
        fn distance(query: &[f32], d: f64) -> f64 {
            d + query.iter().map(|v| *v as f64).sum::<f64>()
        }
    }

    impl SearchUnit for VecUnit {
        fn context(&self) -> QueryContext<'_> {
            QueryContext::materialized()
        }

        fn search_approximate(
            &self,
            query: &[f32],
            heap: &mut KnnHeap,
            ctx: &mut QueryContext<'_>,
        ) -> Result<()> {
            // Probe only the first candidate (the unit's "target block").
            if let Some(&(id, ts, d)) = self.candidates.first() {
                ctx.cost.entries_examined += 1;
                heap.offer_at(id, ts, Self::distance(query, d));
            }
            Ok(())
        }

        fn search_exact(
            &self,
            query: &[f32],
            heap: &mut KnnHeap,
            ctx: &mut QueryContext<'_>,
        ) -> Result<()> {
            for &(id, ts, d) in &self.candidates {
                ctx.cost.entries_examined += 1;
                let d = Self::distance(query, d);
                if d > heap.bound() {
                    continue;
                }
                ctx.cost.entries_refined += 1;
                heap.offer_at(id, ts, d);
            }
            Ok(())
        }
    }

    fn units(seed: u64) -> Vec<VecUnit> {
        // Deterministic pseudo-random candidates spread over 5 units.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..5)
            .map(|u| VecUnit {
                candidates: (0..40)
                    .map(|i| {
                        let id = u * 1000 + i;
                        let ts = next() % 7;
                        let d = (next() % 10_000) as f64 / 10.0;
                        (id, ts, d)
                    })
                    .collect(),
            })
            .collect()
    }

    /// A unit's refine reads only the frozen seed bound and its own heap, so
    /// searching the units in another order changes neither the answers nor
    /// the summed cost.
    #[test]
    fn unit_order_changes_neither_answers_nor_cost() {
        let mut units = units(42);
        for exact in [true, false] {
            let forward = parallel_knn(&units, &[], 7, exact).unwrap();
            units.reverse();
            let backward = parallel_knn(&units, &[], 7, exact).unwrap();
            assert_eq!(forward, backward, "exact={exact}");
            for w in forward.0.windows(2) {
                assert!(w[0] <= w[1], "results must be sorted");
            }
        }
    }

    #[test]
    fn approximate_mode_merges_unit_probes() {
        let units = units(7);
        let (nn, cost) = parallel_knn(&units, &[], 3, false).unwrap();
        // Approximate mode probes one candidate per unit: 5 candidates total.
        assert_eq!(nn.len(), 3);
        assert_eq!(cost.entries_examined, units.len() as u64);
    }

    #[test]
    fn exact_answer_is_the_true_top_k() {
        let units = units(99);
        let mut all: Vec<Neighbor> = units
            .iter()
            .flat_map(|u| u.candidates.iter())
            .map(|&(id, ts, d)| Neighbor::new_at(id, ts, d))
            .collect();
        all.sort();
        all.truncate(9);
        let (got, _) = parallel_knn(&units, &[], 9, true).unwrap();
        assert_eq!(got, all);
    }

    #[test]
    fn empty_unit_list_is_empty_answer() {
        let none: Vec<VecUnit> = Vec::new();
        let (nn, cost) = parallel_knn(&none, &[], 3, true).unwrap();
        assert!(nn.is_empty());
        assert_eq!(cost, QueryCost::default());
    }

    /// A batch is N single queries: run concurrently, as the palm service
    /// runs a batch's sub-queries on its pool, every query returns
    /// bit-identical answers and costs to the same query run alone, in exact
    /// and approximate mode.
    #[test]
    fn batch_matches_one_at_a_time_exactly() {
        let units = units(1234);
        let queries: Vec<Vec<f32>> = (0..7)
            .map(|q| vec![q as f32 * 0.5, -(q as f32), 1.0])
            .collect();
        for exact in [true, false] {
            for k in [1usize, 4, 9] {
                let singles: Vec<_> = queries
                    .iter()
                    .map(|q| parallel_knn(&units, q, k, exact).unwrap())
                    .collect();
                let batch = parallel_map_tasks(&queries, 4, |_, q| {
                    parallel_knn(&units, q, k, exact).unwrap()
                });
                assert_eq!(
                    batch, singles,
                    "batch must match singles (exact={exact}, k={k})"
                );
            }
        }
    }

    #[test]
    fn batch_over_single_unit_skips_the_seed_phase_like_singles() {
        // One unit: an exact query is one exact search, with no approximate
        // probe in front of it.
        let single_unit = vec![units(5).into_iter().next().unwrap()];
        let queries: Vec<Vec<f32>> = vec![vec![0.0], vec![2.0], vec![-1.5]];
        let singles: Vec<_> = queries
            .iter()
            .map(|q| parallel_knn(&single_unit, q, 3, true).unwrap())
            .collect();
        for (_, cost) in &singles {
            assert_eq!(cost.entries_examined, 40, "one pass over the 40 candidates");
        }
        let batch = parallel_map_tasks(&queries, 4, |_, q| {
            parallel_knn(&single_unit, q, 3, true).unwrap()
        });
        assert_eq!(batch, singles);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_any_work() {
        let units = units(21);
        let token = CancelToken::new();
        token.cancel();
        for exact in [true, false] {
            match parallel_knn_with(&units, &[0.0], 3, exact, &token) {
                Err(IndexError::Cancelled { partial_cost }) => {
                    assert_eq!(partial_cost, QueryCost::default(), "no phase ran");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
            // A live token is invisible: same answers and costs as no token.
            let live = CancelToken::new();
            let with = parallel_knn_with(&units, &[1.0], 3, exact, &live).unwrap();
            let without = parallel_knn(&units, &[1.0], 3, exact).unwrap();
            assert_eq!(with, without);
        }
    }

    /// A unit that trips the shared token from inside its approximate
    /// probe (the seed phase of an exact query), so the boundary before the
    /// refine phase observes the cancellation deterministically.
    struct TrippingUnit {
        inner: VecUnit,
        token: CancelToken,
    }

    impl SearchUnit for TrippingUnit {
        fn context(&self) -> QueryContext<'_> {
            self.inner.context()
        }

        fn search_approximate(
            &self,
            query: &[f32],
            heap: &mut KnnHeap,
            ctx: &mut QueryContext<'_>,
        ) -> Result<()> {
            self.token.cancel();
            self.inner.search_approximate(query, heap, ctx)
        }

        fn search_exact(
            &self,
            query: &[f32],
            heap: &mut KnnHeap,
            ctx: &mut QueryContext<'_>,
        ) -> Result<()> {
            self.inner.search_exact(query, heap, ctx)
        }
    }

    /// A batch of singles sharing one token: the query whose seed trips it
    /// stops at the boundary before its refine phase with exactly the seed's
    /// cost (one examined entry per unit, nothing refined), and every later
    /// query of the batch stops before any work.
    #[test]
    fn mid_batch_cancellation_stops_at_the_round_boundary_with_partial_cost() {
        let token = CancelToken::new();
        let plain = units(31);
        let units: Vec<TrippingUnit> = units(31)
            .into_iter()
            .map(|inner| TrippingUnit {
                inner,
                token: token.clone(),
            })
            .collect();
        // The seed phase is every unit's approximate probe, which is all an
        // approximate query over the same candidates does.
        let (_, seed_cost) = parallel_knn(&plain, &[0.0], 3, false).unwrap();
        let outcomes: Vec<_> = [vec![0.0f32], vec![1.0], vec![2.0]]
            .iter()
            .map(|q| parallel_knn_with(&units, q, 3, true, &token))
            .collect();
        match &outcomes[0] {
            Err(IndexError::Cancelled { partial_cost }) => {
                assert_eq!(*partial_cost, seed_cost);
                assert_eq!(partial_cost.entries_examined, units.len() as u64);
                assert_eq!(partial_cost.entries_refined, 0, "refine never ran");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        for outcome in &outcomes[1..] {
            match outcome {
                Err(IndexError::Cancelled { partial_cost }) => {
                    assert_eq!(*partial_cost, QueryCost::default(), "no phase ran");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }
}
