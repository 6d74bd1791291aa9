//! Distance functions over data series.
//!
//! Exact nearest-neighbour search in the Coconut infrastructure is defined
//! under the Euclidean distance over z-normalized series.  All distances are
//! accumulated in `f64` even though the raw values are `f32`, to keep the
//! pruning bounds (computed in `f64` by the summarization layer) comparable
//! without precision surprises.

use crate::kernels;

/// Squared Euclidean distance between two equal-length slices.
///
/// Accumulates in eight independent `f64` lanes over 8-wide chunks and
/// reduces the lanes pairwise at the end; the scalar remainder is added
/// last.  Dispatches to the process-wide [`kernels`] backend (explicit
/// AVX2 where available); every backend is bit-identical to the scalar
/// reference.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
    kernels::squared_euclidean_with(kernels::active_backend(), a, b)
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Early-abandoning squared Euclidean distance.
///
/// Accumulates the squared distance and returns `None` as soon as the partial
/// sum exceeds `threshold` (a squared distance).  This is the standard
/// optimization used when scanning candidates during exact search: the
/// threshold is the squared distance of the best-so-far answer, and most
/// candidates are abandoned after a few terms.
/// The abandon check runs **per 8-wide chunk** rather than per element: the
/// partial sum is monotone, so checking it at chunk boundaries abandons at
/// most seven elements later than a per-element check would, while keeping
/// the chunk body vectorizable.  The returned distance (when the candidate
/// survives) is bit-identical to [`squared_euclidean`], and the abandon
/// decision itself is bit-identical across every [`kernels`] backend (all
/// backends check the identical partial sum at the identical chunk
/// boundaries).
pub fn euclidean_early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
    kernels::euclidean_early_abandon_with(kernels::active_backend(), a, b, threshold)
}

/// Result of a nearest-neighbour computation: the series id, the arrival
/// timestamp of the matched entry (zero for static data) and its distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the neighbouring series.
    pub id: u64,
    /// Arrival timestamp of the matched index entry (zero for static data
    /// and for brute-force candidates without temporal information).
    pub timestamp: u64,
    /// Squared Euclidean distance from the query to this neighbour.
    pub squared_distance: f64,
}

impl Neighbor {
    /// Creates a new neighbour record with timestamp zero (static data).
    pub fn new(id: u64, squared_distance: f64) -> Self {
        Neighbor {
            id,
            timestamp: 0,
            squared_distance,
        }
    }

    /// Creates a new neighbour record carrying an arrival timestamp.
    pub fn new_at(id: u64, timestamp: u64, squared_distance: f64) -> Self {
        Neighbor {
            id,
            timestamp,
            squared_distance,
        }
    }

    /// Euclidean (non-squared) distance.
    pub fn distance(&self) -> f64 {
        self.squared_distance.sqrt()
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by (distance, id, timestamp): the ordering is total and
        // deterministic, so every index variant — brute force, CTree, CLSM,
        // the streaming schemes — resolves equal-distance ties identically,
        // and parallel and sequential query results are comparable
        // byte-for-byte.
        self.squared_distance
            .partial_cmp(&other.squared_distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.timestamp.cmp(&other.timestamp))
    }
}

/// Brute-force exact k-nearest-neighbour search over an in-memory collection.
///
/// Used by tests and benchmarks as the ground truth against which every index
/// variant is validated.
pub fn brute_force_knn<'a, I>(query: &[f32], candidates: I, k: usize) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (u64, &'a [f32])>,
{
    if k == 0 {
        return Vec::new();
    }
    let mut heap: std::collections::BinaryHeap<Neighbor> = std::collections::BinaryHeap::new();
    for (id, values) in candidates {
        if heap.len() < k {
            let d = squared_euclidean(query, values);
            heap.push(Neighbor::new(id, d));
            continue;
        }
        // Once the heap is full, the current worst distance bounds every
        // remaining candidate: abandon scans chunk-wise past it.  Candidates
        // tying the worst distance are kept only for a smaller id, matching
        // the pre-abandon behaviour exactly (the abandon threshold is
        // strict, so equal distances still reach the tie-break below).
        let worst = *heap.peek().expect("heap is non-empty");
        if let Some(d) = euclidean_early_abandon(query, values, worst.squared_distance) {
            let n = Neighbor::new(id, d);
            if n < worst {
                heap.pop();
                heap.push(n);
            }
        }
    }
    let mut out: Vec<Neighbor> = heap.into_vec();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_simple() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = vec![1.5f32, -2.25, 0.0, 7.0];
        assert_eq!(squared_euclidean(&v, &v), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        squared_euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn early_abandon_abandons() {
        let a = vec![0.0f32; 10];
        let b = vec![10.0f32; 10];
        assert_eq!(euclidean_early_abandon(&a, &b, 50.0), None);
        assert_eq!(euclidean_early_abandon(&a, &a, 50.0), Some(0.0));
    }

    #[test]
    fn early_abandon_matches_full_distance_when_under_threshold() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![2.0f32, 2.0, 1.0];
        let full = squared_euclidean(&a, &b);
        assert_eq!(euclidean_early_abandon(&a, &b, full + 1.0), Some(full));
    }

    #[test]
    fn brute_force_knn_finds_closest() {
        let data: Vec<(u64, Vec<f32>)> =
            (0..100u64).map(|i| (i, vec![i as f32, i as f32])).collect();
        let query = vec![40.2f32, 40.2];
        let nn = brute_force_knn(&query, data.iter().map(|(i, v)| (*i, v.as_slice())), 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].id, 40);
        assert_eq!(nn[1].id, 41);
        assert_eq!(nn[2].id, 39);
        assert!(nn[0].squared_distance <= nn[1].squared_distance);
    }

    #[test]
    fn brute_force_knn_with_k_larger_than_data() {
        let data = [(0u64, vec![0.0f32]), (1u64, vec![1.0f32])];
        let nn = brute_force_knn(&[0.4], data.iter().map(|(i, v)| (*i, v.as_slice())), 10);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].id, 0);
    }

    #[test]
    fn neighbor_ordering_is_total() {
        let a = Neighbor::new(1, 2.0);
        let b = Neighbor::new(2, 2.0);
        let c = Neighbor::new(3, 1.0);
        let mut v = [a, b, c];
        v.sort();
        assert_eq!(v[0].id, 3);
        assert_eq!(v[1].id, 1);
        assert_eq!(v[2].id, 2);
    }

    #[test]
    fn neighbor_ties_resolve_by_id_then_timestamp() {
        let mut v = [
            Neighbor::new_at(5, 9, 1.0),
            Neighbor::new_at(5, 2, 1.0),
            Neighbor::new_at(4, 100, 1.0),
            Neighbor::new_at(4, 100, 0.5),
        ];
        v.sort();
        let order: Vec<(u64, u64)> = v.iter().map(|n| (n.id, n.timestamp)).collect();
        assert_eq!(order, vec![(4, 100), (4, 100), (5, 2), (5, 9)]);
        assert_eq!(v[0].squared_distance, 0.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn triangle_inequality(
            a in proptest::collection::vec(-100.0f32..100.0, 16),
            b in proptest::collection::vec(-100.0f32..100.0, 16),
            c in proptest::collection::vec(-100.0f32..100.0, 16),
        ) {
            let ab = euclidean(&a, &b);
            let bc = euclidean(&b, &c);
            let ac = euclidean(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-6);
        }

        #[test]
        fn symmetry(
            a in proptest::collection::vec(-100.0f32..100.0, 32),
            b in proptest::collection::vec(-100.0f32..100.0, 32),
        ) {
            prop_assert!((squared_euclidean(&a, &b) - squared_euclidean(&b, &a)).abs() < 1e-9);
        }

        #[test]
        fn early_abandon_never_overestimates(
            a in proptest::collection::vec(-10.0f32..10.0, 24),
            b in proptest::collection::vec(-10.0f32..10.0, 24),
        ) {
            let full = squared_euclidean(&a, &b);
            match euclidean_early_abandon(&a, &b, full) {
                Some(d) => prop_assert!((d - full).abs() < 1e-9),
                None => prop_assert!(full > 0.0),
            }
        }
    }
}
