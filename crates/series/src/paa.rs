//! Piecewise Aggregate Approximation (PAA).
//!
//! PAA splits a series of length `n` into `w` equal-width segments and
//! represents each segment by its mean value.  It is the dimensionality
//! reduction underlying SAX / iSAX: the per-segment means are subsequently
//! quantized into symbols by the summarization layer (`coconut-sax`).
//!
//! The implementation supports lengths that are not a multiple of the number
//! of segments by letting a boundary point contribute fractionally to the two
//! segments it straddles, which is the standard generalized-PAA definition.

/// Computes the PAA representation of `values` with `segments` segments.
///
/// Returns a vector of length `segments` holding the mean of each segment.
///
/// # Panics
/// Panics if `segments` is zero or larger than `values.len()`.
pub fn paa(values: &[f32], segments: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; segments];
    paa_into(values, &mut out);
    out
}

/// [`paa`] into a caller's buffer: one mean per element of `out`, so
/// `out.len()` is the segment count.  Every element is overwritten.
///
/// # Panics
/// Panics if `out` is empty or longer than `values`.
pub fn paa_into(values: &[f32], out: &mut [f64]) {
    let segments = out.len();
    assert!(segments > 0, "PAA requires at least one segment");
    assert!(
        segments <= values.len(),
        "PAA requires segments ({segments}) <= series length ({})",
        values.len()
    );
    let n = values.len();
    if n.is_multiple_of(segments) {
        // Fast path: equal-width integer segments.  Each segment sum
        // accumulates in the shared 8-lane kernel shape (sub-8 segments are
        // pure sequential tail, exactly the historical order) and dispatches
        // to the process-wide SIMD backend; results are bit-identical at
        // every backend.
        let backend = crate::kernels::active_backend();
        let width = n / segments;
        for (o, chunk) in out.iter_mut().zip(values.chunks_exact(width)) {
            *o = crate::kernels::sum_with(backend, chunk) / width as f64;
        }
        return;
    }
    // General path: fractional segment boundaries.  Each point i covers the
    // interval [i, i+1) on a length-n axis that is rescaled to `segments`
    // equal intervals of width n/segments.
    out.fill(0.0);
    let seg_width = n as f64 / segments as f64;
    for (i, &v) in values.iter().enumerate() {
        let start = i as f64;
        let end = (i + 1) as f64;
        let first_seg = (start / seg_width).floor() as usize;
        let last_seg = (((end) / seg_width).ceil() as usize).min(segments);
        #[allow(clippy::needless_range_loop)] // index math beats iterator gymnastics here
        for seg in first_seg..last_seg {
            let seg_start = seg as f64 * seg_width;
            let seg_end = seg_start + seg_width;
            let overlap = (end.min(seg_end) - start.max(seg_start)).max(0.0);
            out[seg] += v as f64 * overlap;
        }
    }
    for o in out.iter_mut() {
        *o /= seg_width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paa_of_exact_multiple() {
        let vals = vec![1.0f32, 1.0, 3.0, 3.0, 5.0, 5.0, 7.0, 7.0];
        let p = paa(&vals, 4);
        assert_eq!(p, vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn paa_single_segment_is_mean() {
        let vals = vec![2.0f32, 4.0, 6.0, 8.0];
        let p = paa(&vals, 1);
        assert!((p[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn paa_full_resolution_is_identity() {
        let vals = vec![1.0f32, -2.0, 3.5, 0.25];
        let p = paa(&vals, 4);
        for (a, b) in vals.iter().zip(p.iter()) {
            assert!((*a as f64 - b).abs() < 1e-9);
        }
    }

    #[test]
    fn paa_fractional_segments_preserves_mean() {
        // 10 points into 3 segments: total weighted mass must be preserved.
        let vals: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let p = paa(&vals, 3);
        let series_mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / 10.0;
        let paa_mean: f64 = p.iter().sum::<f64>() / 3.0;
        assert!((series_mean - paa_mean).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        paa(&[1.0, 2.0], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn paa_output_length(
            vals in proptest::collection::vec(-10.0f32..10.0, 8..200),
            segs in 1usize..8,
        ) {
            prop_assert_eq!(paa(&vals, segs).len(), segs);
        }

        #[test]
        fn paa_values_within_range(
            vals in proptest::collection::vec(-10.0f32..10.0, 16..64),
        ) {
            let p = paa(&vals, 4);
            let min = vals.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
            let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            for v in p {
                prop_assert!(v >= min - 1e-6 && v <= max + 1e-6);
            }
        }
    }
}
