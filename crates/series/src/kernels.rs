//! Explicit SIMD kernel backends for the distance / z-normalization / PAA
//! hot loops.
//!
//! PR 1 shaped these kernels as eight independent `f64` accumulator lanes
//! over 8-wide chunks and *hoped* the compiler would auto-vectorize them.
//! This module removes the hope: the same loops are written twice — once in
//! plain scalar Rust (the reference, and the fallback on every
//! architecture), once with AVX2 intrinsics (runtime-detected, four `f64`
//! lanes per register) — and a process-wide dispatch picks the best
//! available backend once.
//!
//! # The bit-identity argument
//!
//! Every backend performs **exactly the same IEEE-754 operations in exactly
//! the same association order**, so results are bit-identical, not just
//! close:
//!
//! * The scalar kernels accumulate into `acc[0..8]` with
//!   `acc[lane] += d * d` where `d = a[lane] as f64 - b[lane] as f64`.
//!   `f32 → f64` conversion is exact, and `sub`/`mul`/`add` are individual
//!   correctly-rounded IEEE operations (Rust never contracts them into a
//!   fused multiply-add; the SIMD bodies use explicit `mul` + `add`
//!   intrinsics, never FMA).
//! * A vector register *is* a group of those lanes: AVX2 holds the quads
//!   `[0..4] [4..8]`.  Each vector `sub`/`mul`/`add` performs the identical
//!   lane-wise operation the scalar loop performs, so after any number of
//!   chunks every lane holds the identical bits on every backend.
//! * The horizontal reduction follows the scalar `lane_sum` tree —
//!   `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` — by construction:
//!   adding the register holding lanes `[0..4]` to the one holding `[4..8]`
//!   computes `l0+l4` .. `l3+l7` in one instruction, and the remaining adds
//!   follow the same parenthesisation.
//!   The reduction order is also independent of how many chunks were
//!   processed, which is what lets partial (early-abandon) and full
//!   evaluations of the same prefix agree bit-for-bit.
//! * Early abandon checks `lane_sum(acc) > threshold` once per 8-wide chunk
//!   on every backend, so the *decision points* — not just the surviving
//!   distances — are identical: a candidate abandoned after chunk `c` by the
//!   scalar kernel is abandoned after chunk `c` by every SIMD kernel.
//! * The sub-8 tail is accumulated by the same sequential scalar loop on
//!   every backend, and `f64 → f32` stores (the z-normalization scale step)
//!   round to nearest-even both in scalar Rust (`as f32`) and in
//!   `cvtpd_ps` under the default MXCSR rounding mode.
//!
//! Because the backends are interchangeable bit-for-bit, the backend choice
//! is a pure performance knob in the same sense as `io_overlap` or
//! `io_backend`: index files, answers, `QueryCost` and `IoStats` cannot
//! depend on it.  `crates/series/tests/kernel_equivalence.rs` proptests the
//! kernels across lengths 1..1024 and `every_kernel_backend_matches_scalar`
//! in `crates/core/tests/differential/main.rs` re-proves it end-to-end
//! through index build + query on every structure; the `e17_scale` bench
//! re-checks it at scale when run.
//!
//! # Dispatch
//!
//! [`active_backend`] resolves once per process to
//! [`KernelBackend::detect`]: AVX2 if `is_x86_feature_detected!("avx2")`,
//! else scalar (DESIGN.md "Kernel dispatch" says why there is no SSE2
//! backend).
//! The public kernel entry points in [`crate::distance`],
//! [`crate::znorm`] and [`crate::paa`](mod@crate::paa) dispatch through it, so every caller
//! — summarization, index build, query refinement — uses the same backend.
//! Benches and equivalence tests address a specific backend through the
//! `*_with` functions or pin the process with [`force_backend`].
//! `coconut_ctree::kernels` re-exports this module as the engine-facing
//! dispatch surface.

use std::sync::atomic::{AtomicU8, Ordering};

/// Width of the accumulator kernels: 8 independent `f64` lanes.  Shared by
/// every backend; the chunk size of the early-abandon check.
pub const LANES: usize = 8;

/// A kernel implementation the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Plain scalar Rust: the reference implementation and the fallback on
    /// every architecture.
    Scalar,
    /// AVX2 intrinsics (runtime-detected): two 4-lane `f64` registers.
    Avx2,
}

impl KernelBackend {
    /// Every backend, in increasing preference order.
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

    /// Whether this backend can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    /// The backends available on the current CPU, scalar first.
    pub fn available_backends() -> Vec<KernelBackend> {
        Self::ALL.into_iter().filter(|b| b.available()).collect()
    }

    /// The best backend the current CPU supports: AVX2 if available, else
    /// scalar.
    pub fn detect() -> KernelBackend {
        if KernelBackend::Avx2.available() {
            KernelBackend::Avx2
        } else {
            KernelBackend::Scalar
        }
    }

    /// Short lowercase name ("scalar" / "avx2") used by reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Avx2 => 2,
        }
    }

    fn from_code(code: u8) -> Option<KernelBackend> {
        match code {
            1 => Some(KernelBackend::Scalar),
            2 => Some(KernelBackend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide backend choice: 0 = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatched kernel call uses.
///
/// Resolved once per process by CPU detection (see the module docs) and
/// cached; [`force_backend`] overrides it.
pub fn active_backend() -> KernelBackend {
    match KernelBackend::from_code(ACTIVE.load(Ordering::Relaxed)) {
        Some(backend) => backend,
        None => {
            let backend = KernelBackend::detect();
            ACTIVE.store(backend.code(), Ordering::Relaxed);
            backend
        }
    }
}

/// Pins the process-wide backend (benches and equivalence tests).  Returns
/// the backend that was active before.
///
/// # Panics
/// Panics if `backend` is not available on this CPU.
pub fn force_backend(backend: KernelBackend) -> KernelBackend {
    assert!(
        backend.available(),
        "kernel backend {backend} not available on this CPU"
    );
    let previous = active_backend();
    ACTIVE.store(backend.code(), Ordering::Relaxed);
    previous
}

#[cfg(target_arch = "x86_64")]
macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr) => {
        match $backend {
            KernelBackend::Scalar => $scalar,
            KernelBackend::Avx2 => {
                assert!(
                    KernelBackend::Avx2.available(),
                    "avx2 kernels selected on a CPU without AVX2"
                );
                // Safety: availability checked on the line above (the
                // detection result is cached, so this is one relaxed load).
                unsafe { $avx2 }
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr) => {
        match $backend {
            KernelBackend::Scalar => $scalar,
            other => panic!("kernel backend {other} not available on this architecture"),
        }
    };
}

/// Squared Euclidean distance on an explicit backend.
///
/// Bit-identical across backends; see the module docs.
///
/// # Panics
/// Panics if the slices have different lengths or the backend is
/// unavailable.
pub fn squared_euclidean_with(backend: KernelBackend, a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "squared_euclidean requires equal-length series"
    );
    dispatch!(
        backend,
        scalar::squared_euclidean(a, b),
        x86::avx2_squared_euclidean(a, b)
    )
}

/// Early-abandoning squared Euclidean distance on an explicit backend.
///
/// Returns `None` as soon as the partial sum exceeds `threshold`, checked
/// once per 8-wide chunk; the abandon decision and any returned distance
/// are bit-identical across backends.
///
/// # Panics
/// Panics if the slices have different lengths or the backend is
/// unavailable.
pub fn euclidean_early_abandon_with(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    threshold: f64,
) -> Option<f64> {
    assert_eq!(
        a.len(),
        b.len(),
        "euclidean_early_abandon requires equal-length series"
    );
    dispatch!(
        backend,
        scalar::early_abandon(a, b, threshold),
        x86::avx2_early_abandon(a, b, threshold)
    )
}

/// Sum of `values` (as `f64`) on an explicit backend: the z-normalization
/// mean pass and the PAA segment accumulator.
///
/// # Panics
/// Panics if the backend is unavailable.
pub fn sum_with(backend: KernelBackend, values: &[f32]) -> f64 {
    dispatch!(backend, scalar::sum(values), x86::avx2_sum(values))
}

/// Sum of squared deviations from `mean` on an explicit backend: the
/// z-normalization variance pass.
///
/// # Panics
/// Panics if the backend is unavailable.
pub fn sum_sq_dev_with(backend: KernelBackend, values: &[f32], mean: f64) -> f64 {
    dispatch!(
        backend,
        scalar::sum_sq_dev(values, mean),
        x86::avx2_sum_sq_dev(values, mean)
    )
}

/// Elementwise `v = ((v as f64 - mean) * inv) as f32` on an explicit
/// backend: the z-normalization scale pass.  Purely elementwise, so
/// bit-identity needs no ordering argument — only that every backend
/// performs the identical `sub`, `mul` and round-to-nearest `f64 → f32`
/// conversion per element.
///
/// # Panics
/// Panics if the backend is unavailable.
pub fn scale_with(backend: KernelBackend, values: &mut [f32], mean: f64, inv: f64) {
    dispatch!(
        backend,
        scalar::scale(values, mean, inv),
        x86::avx2_scale(values, mean, inv)
    )
}

/// The bytes of `values`, so a file read can land straight in a value
/// buffer (the dataset scan's blocks); the caller then decodes the
/// little-endian words in place.
pub(crate) fn f32_bytes_mut(values: &mut [f32]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: the pointer and length cover exactly the memory of `values`,
    // which the returned slice borrows mutably for its whole lifetime; `u8`
    // has alignment 1, and every bit pattern written through it is a valid
    // `f32`.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), len) }
}

/// The scalar reference kernels (PR 1's auto-vectorizable loops, verbatim).
pub(crate) mod scalar {
    use super::LANES;

    /// Pairwise lane reduction: fixed association order, independent of how
    /// many chunks were processed, so partial (early-abandon) and full
    /// evaluations of the same prefix agree bit-for-bit.  Every SIMD
    /// backend reproduces exactly this tree.
    #[inline]
    pub(crate) fn lane_sum(acc: [f64; LANES]) -> f64 {
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
    }

    /// Sequential squared-difference accumulation over the sub-8 tail.
    #[inline]
    pub(crate) fn squared_tail(a: &[f32], b: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let d = x as f64 - y as f64;
            acc += d * d;
        }
        acc
    }

    pub(crate) fn squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        let chunks = a.len() / LANES;
        for (ca, cb) in a
            .chunks_exact(LANES)
            .zip(b.chunks_exact(LANES))
            .take(chunks)
        {
            for lane in 0..LANES {
                let d = ca[lane] as f64 - cb[lane] as f64;
                acc[lane] += d * d;
            }
        }
        lane_sum(acc) + squared_tail(&a[chunks * LANES..], &b[chunks * LANES..])
    }

    pub(crate) fn early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
        let mut acc = [0.0f64; LANES];
        let chunks = a.len() / LANES;
        for (ca, cb) in a
            .chunks_exact(LANES)
            .zip(b.chunks_exact(LANES))
            .take(chunks)
        {
            for lane in 0..LANES {
                let d = ca[lane] as f64 - cb[lane] as f64;
                acc[lane] += d * d;
            }
            if lane_sum(acc) > threshold {
                return None;
            }
        }
        let total = lane_sum(acc) + squared_tail(&a[chunks * LANES..], &b[chunks * LANES..]);
        if total > threshold {
            None
        } else {
            Some(total)
        }
    }

    pub(crate) fn sum(values: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        let chunks = values.len() / LANES;
        for chunk in values.chunks_exact(LANES).take(chunks) {
            for lane in 0..LANES {
                acc[lane] += chunk[lane] as f64;
            }
        }
        let mut tail = 0.0f64;
        for &v in &values[chunks * LANES..] {
            tail += v as f64;
        }
        lane_sum(acc) + tail
    }

    pub(crate) fn sum_sq_dev(values: &[f32], mean: f64) -> f64 {
        let mut acc = [0.0f64; LANES];
        let chunks = values.len() / LANES;
        for chunk in values.chunks_exact(LANES).take(chunks) {
            for lane in 0..LANES {
                let d = chunk[lane] as f64 - mean;
                acc[lane] += d * d;
            }
        }
        let mut tail = 0.0f64;
        for &v in &values[chunks * LANES..] {
            let d = v as f64 - mean;
            tail += d * d;
        }
        lane_sum(acc) + tail
    }

    pub(crate) fn scale(values: &mut [f32], mean: f64, inv: f64) {
        for v in values.iter_mut() {
            *v = ((*v as f64 - mean) * inv) as f32;
        }
    }
}

/// The `x86_64` SIMD kernels.  Lane layout: AVX2 registers hold the quads
/// `[0..4]` and `[4..8]` of the scalar accumulator array.  See the module
/// docs for why this makes every result bit-identical to the scalar
/// reference.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scalar, LANES};
    use core::arch::x86_64::*;

    /// Converts 8 consecutive `f32`s at `p` into two 4-lane `f64` vectors
    /// `([0..4], [4..8])`.
    ///
    /// Safety: `p` must be valid for reading 8 `f32`s (unaligned ok);
    /// requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_load(p: *const f32) -> (__m256d, __m256d) {
        let v = _mm256_loadu_ps(p);
        (
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)),
        )
    }

    /// The scalar `lane_sum` tree on AVX2 lanes: `lo + hi` computes
    /// `[0+4, 1+5, 2+6, 3+7]` in one instruction; adding its 128-bit
    /// halves yields `[(0+4)+(2+6), (1+5)+(3+7)]`, and low + high
    /// completes the identical association order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_lane_sum(lo: __m256d, hi: __m256d) -> f64 {
        let tree = _mm256_add_pd(lo, hi);
        let halves = _mm_add_pd(_mm256_castpd256_pd128(tree), _mm256_extractf128_pd(tree, 1));
        _mm_cvtsd_f64(halves) + _mm_cvtsd_f64(_mm_unpackhi_pd(halves, halves))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_squared_euclidean(a: &[f32], b: &[f32]) -> f64 {
        let chunks = a.len() / LANES;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for i in 0..chunks {
            let (a_lo, a_hi) = avx2_load(a.as_ptr().add(i * LANES));
            let (b_lo, b_hi) = avx2_load(b.as_ptr().add(i * LANES));
            let d_lo = _mm256_sub_pd(a_lo, b_lo);
            let d_hi = _mm256_sub_pd(a_hi, b_hi);
            // Explicit mul + add (never FMA): matches the scalar rounding.
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
        }
        avx2_lane_sum(acc_lo, acc_hi)
            + scalar::squared_tail(&a[chunks * LANES..], &b[chunks * LANES..])
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_early_abandon(a: &[f32], b: &[f32], threshold: f64) -> Option<f64> {
        let chunks = a.len() / LANES;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for i in 0..chunks {
            let (a_lo, a_hi) = avx2_load(a.as_ptr().add(i * LANES));
            let (b_lo, b_hi) = avx2_load(b.as_ptr().add(i * LANES));
            let d_lo = _mm256_sub_pd(a_lo, b_lo);
            let d_hi = _mm256_sub_pd(a_hi, b_hi);
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
            if avx2_lane_sum(acc_lo, acc_hi) > threshold {
                return None;
            }
        }
        let total = avx2_lane_sum(acc_lo, acc_hi)
            + scalar::squared_tail(&a[chunks * LANES..], &b[chunks * LANES..]);
        if total > threshold {
            None
        } else {
            Some(total)
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_sum(values: &[f32]) -> f64 {
        let chunks = values.len() / LANES;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for i in 0..chunks {
            let (v_lo, v_hi) = avx2_load(values.as_ptr().add(i * LANES));
            acc_lo = _mm256_add_pd(acc_lo, v_lo);
            acc_hi = _mm256_add_pd(acc_hi, v_hi);
        }
        let mut tail = 0.0f64;
        for &v in &values[chunks * LANES..] {
            tail += v as f64;
        }
        avx2_lane_sum(acc_lo, acc_hi) + tail
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_sum_sq_dev(values: &[f32], mean: f64) -> f64 {
        let chunks = values.len() / LANES;
        let m = _mm256_set1_pd(mean);
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for i in 0..chunks {
            let (v_lo, v_hi) = avx2_load(values.as_ptr().add(i * LANES));
            let d_lo = _mm256_sub_pd(v_lo, m);
            let d_hi = _mm256_sub_pd(v_hi, m);
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
        }
        let mut tail = 0.0f64;
        for &v in &values[chunks * LANES..] {
            let d = v as f64 - mean;
            tail += d * d;
        }
        avx2_lane_sum(acc_lo, acc_hi) + tail
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_scale(values: &mut [f32], mean: f64, inv: f64) {
        let m = _mm256_set1_pd(mean);
        let s = _mm256_set1_pd(inv);
        let quads = values.len() / 4;
        let p = values.as_mut_ptr();
        for i in 0..quads {
            let v = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i * 4)));
            let scaled = _mm256_mul_pd(_mm256_sub_pd(v, m), s);
            _mm_storeu_ps(p.add(i * 4), _mm256_cvtpd_ps(scaled));
        }
        scalar::scale(&mut values[quads * 4..], mean, inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggly(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) as f64 / (1u64 << 31) as f64 - 0.5) as f32 * 100.0
            })
            .collect()
    }

    #[test]
    fn scalar_backend_is_always_available() {
        assert!(KernelBackend::Scalar.available());
        assert!(KernelBackend::available_backends().contains(&KernelBackend::Scalar));
        assert!(KernelBackend::detect().available());
    }

    #[test]
    fn auto_detection_picks_avx2_else_scalar() {
        let expected = if KernelBackend::Avx2.available() {
            KernelBackend::Avx2
        } else {
            KernelBackend::Scalar
        };
        assert_eq!(KernelBackend::detect(), expected);
    }

    #[test]
    fn backend_names_round_trip() {
        let names: Vec<&str> = KernelBackend::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["scalar", "avx2"]);
        for b in KernelBackend::ALL {
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn active_backend_is_available_and_forceable() {
        let initial = active_backend();
        assert!(initial.available());
        let previous = force_backend(KernelBackend::Scalar);
        assert_eq!(previous, initial);
        assert_eq!(active_backend(), KernelBackend::Scalar);
        force_backend(initial);
    }

    #[test]
    fn all_available_backends_match_scalar_bits() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 100, 256] {
            let a = wiggly(len, 1);
            let b = wiggly(len, 2);
            let reference = squared_euclidean_with(KernelBackend::Scalar, &a, &b);
            let ref_sum = sum_with(KernelBackend::Scalar, &a);
            let ref_dev = sum_sq_dev_with(KernelBackend::Scalar, &a, 0.25);
            let mut ref_scaled = a.clone();
            scale_with(KernelBackend::Scalar, &mut ref_scaled, 0.25, 1.75);
            for backend in KernelBackend::available_backends() {
                assert_eq!(
                    squared_euclidean_with(backend, &a, &b).to_bits(),
                    reference.to_bits(),
                    "squared_euclidean len {len} backend {backend}"
                );
                assert_eq!(
                    sum_with(backend, &a).to_bits(),
                    ref_sum.to_bits(),
                    "sum len {len} backend {backend}"
                );
                assert_eq!(
                    sum_sq_dev_with(backend, &a, 0.25).to_bits(),
                    ref_dev.to_bits(),
                    "sum_sq_dev len {len} backend {backend}"
                );
                let mut scaled = a.clone();
                scale_with(backend, &mut scaled, 0.25, 1.75);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&scaled),
                    bits(&ref_scaled),
                    "scale len {len} backend {backend}"
                );
            }
        }
    }

    #[test]
    fn early_abandon_decisions_match_scalar_at_partial_thresholds() {
        let a = wiggly(41, 3);
        let b = wiggly(41, 4);
        let full = squared_euclidean_with(KernelBackend::Scalar, &a, &b);
        // Thresholds straddling every chunk boundary's partial sum.
        for factor in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0, 1.5] {
            let threshold = full * factor;
            let reference = euclidean_early_abandon_with(KernelBackend::Scalar, &a, &b, threshold);
            for backend in KernelBackend::available_backends() {
                let got = euclidean_early_abandon_with(backend, &a, &b, threshold);
                assert_eq!(
                    got.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "threshold {threshold} backend {backend}"
                );
            }
        }
    }
}
