//! The reference the engine's answers are checked against.
//!
//! A bench-owned scalar brute force — deliberately *not*
//! `coconut_series::distance`, so a kernel PR cannot move the reference it
//! is judged by.  Distances accumulate in `f64` in four running sums; the
//! engine sums the same products in 8 lanes, so the two agree to rounding
//! (`TOLERANCE`), never bit for bit.

/// One neighbour under the engine's total order `(distance, id, timestamp)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub d2: f64,
    pub id: u64,
    pub ts: u64,
}

impl Hit {
    fn key(&self) -> (f64, u64, u64) {
        (self.d2, self.id, self.ts)
    }

    fn before(&self, other: &Hit) -> bool {
        let (a, b) = (self.key(), other.key());
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .is_lt()
    }
}

/// Relative rounding slack between the oracle's and the engine's sums of
/// 256 non-negative `f64` products.
pub const TOLERANCE: f64 = 1e-9;

/// Points compared between two abandon checks.
const CHUNK: usize = 32;

/// Squared Euclidean distance, abandoned (returning `None`) once the partial
/// sum exceeds `bound`: partial sums only grow, so no candidate that could
/// enter the top k is ever dropped.  Four running sums, so that an addition
/// need not wait for the one before it; the oracle checks thousands of
/// queries inside every run's wall.
fn distance_within(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a.chunks(CHUNK).zip(b.chunks(CHUNK)) {
        let mut quads = ca.chunks_exact(4).zip(cb.chunks_exact(4));
        for (qa, qb) in &mut quads {
            for lane in 0..4 {
                let d = qa[lane] as f64 - qb[lane] as f64;
                acc[lane] += d * d;
            }
        }
        let tail = ca.len() - ca.len() % 4;
        for (&x, &y) in ca[tail..].iter().zip(&cb[tail..]) {
            let d = x as f64 - y as f64;
            acc[0] += d * d;
        }
        if (acc[0] + acc[1]) + (acc[2] + acc[3]) > bound {
            return None;
        }
    }
    Some((acc[0] + acc[1]) + (acc[2] + acc[3]))
}

pub fn distance(a: &[f32], b: &[f32]) -> f64 {
    distance_within(a, b, f64::INFINITY).expect("an infinite bound never abandons")
}

/// The k best hits so far for one query, ascending.
pub struct TopK {
    k: usize,
    hits: Vec<Hit>,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            hits: Vec::with_capacity(k + 1),
        }
    }

    /// A top k that already holds `hits` (the answer over one part of a
    /// collection, to be extended over the rest).
    pub fn seeded(k: usize, hits: &[Hit]) -> TopK {
        let mut top = TopK::new(k);
        for &hit in hits {
            top.offer(hit);
        }
        top
    }

    fn bound(&self) -> f64 {
        if self.hits.len() < self.k {
            f64::INFINITY
        } else {
            self.hits[self.k - 1].d2
        }
    }

    fn offer(&mut self, hit: Hit) {
        if self.hits.len() == self.k && !hit.before(&self.hits[self.k - 1]) {
            return;
        }
        let at = self.hits.partition_point(|h| h.before(&hit));
        self.hits.insert(at, hit);
        self.hits.truncate(self.k);
    }

    /// Measures `series` against `query` and keeps it if it is among the k
    /// best.  Ties at the bound may still win on id, so the distance is
    /// abandoned only strictly above it.
    pub fn consider(&mut self, query: &[f32], series: &[f32], id: u64, ts: u64) {
        if let Some(d2) = distance_within(query, series, self.bound()) {
            self.offer(Hit { d2, id, ts });
        }
    }

    pub fn into_hits(self) -> Vec<Hit> {
        self.hits
    }
}

/// Exact k-NN of every query over the series at positions `range`, in one
/// pass over the data for all queries (the data streams through the cache
/// once; the queries stay resident).  `series(i)` gives the values at
/// position `i`, `label(i)` their `(id, timestamp)`.
pub fn knn_many<'a>(
    range: std::ops::Range<usize>,
    series: impl Fn(usize) -> &'a [f32],
    label: impl Fn(usize) -> (u64, u64),
    queries: &[&[f32]],
    k: usize,
) -> Vec<Vec<Hit>> {
    let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
    for i in range {
        let (values, (id, ts)) = (series(i), label(i));
        for (query, top) in queries.iter().zip(tops.iter_mut()) {
            top.consider(query, values, id, ts);
        }
    }
    tops.into_iter().map(TopK::into_hits).collect()
}

/// Checks an exact reply `(id, squared distance, timestamp)*` against the
/// oracle's `truth`.  `true_d2(id)` recomputes a replied id's distance with
/// the oracle's arithmetic (`None` = no such series).
///
/// The reply must have the truth's length, be in non-descending
/// `(distance, id, timestamp)` order, pair every id with its real distance,
/// and match the truth's distance at every rank.  Ids may differ from the
/// truth's only where the distances tie within rounding.
pub fn check_exact(
    reply: &[Hit],
    truth: &[Hit],
    true_d2: impl Fn(u64) -> Option<f64>,
) -> Result<(), String> {
    if reply.len() != truth.len() {
        return Err(format!(
            "{} neighbours, oracle has {}",
            reply.len(),
            truth.len()
        ));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0);
    for (rank, (got, want)) in reply.iter().zip(truth).enumerate() {
        let real = true_d2(got.id).ok_or_else(|| format!("rank {rank}: unknown id {}", got.id))?;
        if !close(got.d2, real) {
            return Err(format!(
                "rank {rank}: id {} reported at {} but lies at {real}",
                got.id, got.d2
            ));
        }
        if !close(got.d2, want.d2) {
            return Err(format!(
                "rank {rank}: distance {} (id {}), oracle has {} (id {})",
                got.d2, got.id, want.d2, want.id
            ));
        }
        if rank > 0 && got.before(&reply[rank - 1]) {
            return Err(format!(
                "rank {rank}: out of (distance, id, timestamp) order"
            ));
        }
    }
    let mut ids: Vec<u64> = reply.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != reply.len() {
        return Err("an id is reported twice".to_string());
    }
    Ok(())
}

/// Recall over a set of approximate replies: ids shared with the oracle's
/// exact answers over ids the oracle has.  Kept as two whole numbers, so the
/// value does not depend on the order the replies were checked in.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Recall {
    found: u64,
    wanted: u64,
    pub queries: u64,
}

impl Recall {
    pub fn add(&mut self, reply_ids: &[u64], truth: &[Hit]) {
        self.found += truth.iter().filter(|h| reply_ids.contains(&h.id)).count() as u64;
        self.wanted += truth.len() as u64;
        self.queries += 1;
    }

    pub fn value(&self) -> f64 {
        self.found as f64 / self.wanted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position `i` of a flat array of 2-point series.
    fn pairs<'a>(data: &'a [f32]) -> impl Fn(usize) -> &'a [f32] {
        move |i| &data[2 * i..2 * i + 2]
    }

    #[test]
    fn finds_the_nearest_in_order() {
        let data = [0.0, 0.0, 3.0, 4.0, 1.0, 0.0, 0.0, 2.0];
        let q: &[f32] = &[0.0, 0.0];
        let hits = &knn_many(0..4, pairs(&data), |i| (i as u64, 0), &[q], 3)[0];
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(
            hits.iter().map(|h| h.d2).collect::<Vec<_>>(),
            vec![0.0, 1.0, 4.0]
        );
    }

    #[test]
    fn ties_break_by_id_then_timestamp() {
        // Four copies of one point: ids 9, 3, 3, 5; the two 3s differ in time.
        let data = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let labels = [(9, 0), (3, 7), (3, 2), (5, 0)];
        let q: &[f32] = &[0.0, 0.0];
        let hits = &knn_many(0..4, pairs(&data), |i| labels[i], &[q], 3)[0];
        let order: Vec<(u64, u64)> = hits.iter().map(|h| (h.id, h.ts)).collect();
        assert_eq!(order, vec![(3, 2), (3, 7), (5, 0)]);
        // Arrival order must not matter: a late low id displaces a high one.
        let hits = &knn_many(0..4, pairs(&data), |i| labels[3 - i], &[q], 1)[0];
        assert_eq!((hits[0].id, hits[0].ts), (3, 2));
    }

    #[test]
    fn early_abandon_never_changes_the_answer() {
        let data = crate::gen::random_walks(11, 300, 64);
        let series = |i: usize| &data[64 * i..64 * (i + 1)];
        let query = crate::gen::random_walks(12, 1, 64);
        let fast = &knn_many(0..300, series, |i| (i as u64, 0), &[&query], 10)[0];
        let mut all: Vec<Hit> = (0..300)
            .map(|i| Hit {
                d2: distance(&query, series(i)),
                id: i as u64,
                ts: 0,
            })
            .collect();
        all.sort_by(|a, b| a.d2.total_cmp(&b.d2).then(a.id.cmp(&b.id)));
        assert_eq!(fast[..], all[..10]);
    }

    #[test]
    fn check_exact_accepts_the_truth_and_rejects_lies() {
        let truth = [
            Hit {
                d2: 1.0,
                id: 4,
                ts: 0,
            },
            Hit {
                d2: 2.0,
                id: 2,
                ts: 0,
            },
            Hit {
                d2: 2.0,
                id: 6,
                ts: 0,
            },
        ];
        let d2 = |id: u64| {
            truth
                .iter()
                .find(|h| h.id == id)
                .map(|h| h.d2)
                .or(Some(9.0))
        };
        assert!(check_exact(&truth, &truth, d2).is_ok());
        // Rounding-level disagreement is not a failure.
        let mut rounded = truth;
        rounded[0].d2 = 1.0 + 1e-13;
        assert!(check_exact(&rounded, &truth, d2).is_ok());
        // Equal distances in the wrong id order are.
        let swapped = [truth[0], truth[2], truth[1]];
        assert!(check_exact(&swapped, &truth, d2).is_err());
        // A farther series passed off at a near distance.
        let lie = [
            truth[0],
            truth[1],
            Hit {
                d2: 2.0,
                id: 77,
                ts: 0,
            },
        ];
        assert!(check_exact(&lie, &truth, d2).is_err());
        // A missing neighbour, a duplicate, a wrong distance.
        assert!(check_exact(&truth[..2], &truth, d2).is_err());
        assert!(check_exact(&[truth[0], truth[1], truth[1]], &truth, d2).is_err());
        let far = [
            truth[0],
            truth[1],
            Hit {
                d2: 9.0,
                id: 77,
                ts: 0,
            },
        ];
        assert!(check_exact(&far, &truth, d2).is_err());
    }

    #[test]
    fn recall_counts_shared_ids_in_any_order() {
        let hit = |id: u64| Hit {
            d2: id as f64,
            id,
            ts: 0,
        };
        let truth = [hit(1), hit(2), hit(3), hit(4)];
        let (mut a, mut b) = (Recall::default(), Recall::default());
        a.add(&[4, 9, 1, 8], &truth);
        a.add(&[], &truth);
        assert_eq!(a.value(), 0.25);
        b.add(&[], &truth);
        b.add(&[1, 4, 8, 9], &truth);
        assert_eq!(a, b);
    }
}
