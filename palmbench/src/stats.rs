//! The estimators (README.md, "Estimators").
//!
//! An op's time is its minimum over the passes — host noise only ever
//! adds time, and the work of one op is identical in every pass — and the
//! reported percentiles are taken *across ops* of those minima, so a tail
//! is the data's hard queries, not the scheduler's.

/// Folds one more pass into the per-op minima.
pub fn fold_min(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return;
    }
    assert_eq!(best.len(), pass.len(), "every pass runs the same op list");
    for (b, &p) in best.iter_mut().zip(pass) {
        if p < *b {
            *b = p;
        }
    }
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method) gives
/// them: the spread the acceptance check computes must be the one reported.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert!((percentile(&s, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[7.5], 95.0), 7.5);
    }

    #[test]
    fn best_of_r_keeps_each_ops_fastest_pass() {
        let mut best = Vec::new();
        fold_min(&mut best, &[3.0, 9.0, 5.0]);
        fold_min(&mut best, &[4.0, 2.0, 5.5]);
        fold_min(&mut best, &[3.5, 2.5, 1.0]);
        assert_eq!(best, vec![3.0, 2.0, 1.0]);
        // One slow pass (a descheduled process) leaves no trace.
        fold_min(&mut best, &[300.0, 200.0, 100.0]);
        assert_eq!(best, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 12], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 12.0]), (4.0, 9.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&s) - 1.0).abs() < 1e-12);
    }
}
