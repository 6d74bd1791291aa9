//! Kernel-backend equivalence: every SIMD backend is **bit-identical** to
//! the scalar reference on the distance / z-normalization / PAA kernels.
//!
//! This is the kernel-level half of the equivalence discipline (the
//! index-level half is `every_kernel_backend_matches_scalar` in
//! `crates/core/tests/differential/main.rs`): proptests drive the `*_with` entry points across lengths 1..1024 —
//! non-multiple-of-8 tails included — value ranges from tiny to extreme
//! (NaN-free), and early-abandon thresholds straddling every chunk
//! boundary, asserting `f64::to_bits` equality, never approximate
//! closeness.  A deterministic grid additionally pins the full
//! `znormalize` / `paa` pipelines per backend via `force_backend`.

use coconut_series::kernels::{self, active_backend, force_backend, KernelBackend};
use coconut_series::paa::paa;
use coconut_series::znorm::znormalize;
use proptest::prelude::*;

/// Splits one generated vector into two equal-length halves, so `a` and `b`
/// share a length in 1..1024 without needing a dependent strategy.
fn halves(vals: &[f32]) -> (&[f32], &[f32]) {
    let half = vals.len() / 2;
    (&vals[..half], &vals[half..2 * half])
}

fn simd_backends() -> Vec<KernelBackend> {
    KernelBackend::available_backends()
        .into_iter()
        .filter(|b| *b != KernelBackend::Scalar)
        .collect()
}

proptest! {
    #[test]
    fn squared_euclidean_bits_identical(
        vals in proptest::collection::vec(-1e4f32..1e4, 2..2048),
    ) {
        let (a, b) = halves(&vals);
        let reference = kernels::squared_euclidean_with(KernelBackend::Scalar, a, b);
        for backend in simd_backends() {
            let got = kernels::squared_euclidean_with(backend, a, b);
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "backend {}", backend);
        }
    }

    #[test]
    fn squared_euclidean_bits_identical_at_extremes(
        vals in proptest::collection::vec(-1e30f32..1e30, 2..256),
    ) {
        let (a, b) = halves(&vals);
        let reference = kernels::squared_euclidean_with(KernelBackend::Scalar, a, b);
        for backend in simd_backends() {
            let got = kernels::squared_euclidean_with(backend, a, b);
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "backend {}", backend);
        }
    }

    #[test]
    fn early_abandon_decision_and_value_identical(
        vals in proptest::collection::vec(-100.0f32..100.0, 2..2048),
        factor in 0.0f64..1.5,
    ) {
        let (a, b) = halves(&vals);
        // Thresholds spanning abandon-at-early-chunk through never-abandon,
        // including factor values that land exactly on partial sums.
        let threshold = kernels::squared_euclidean_with(KernelBackend::Scalar, a, b) * factor;
        let reference =
            kernels::euclidean_early_abandon_with(KernelBackend::Scalar, a, b, threshold);
        for backend in simd_backends() {
            let got = kernels::euclidean_early_abandon_with(backend, a, b, threshold);
            prop_assert_eq!(
                got.map(f64::to_bits),
                reference.map(f64::to_bits),
                "backend {} threshold {}",
                backend,
                threshold
            );
        }
    }

    #[test]
    fn znorm_sums_bits_identical(
        vals in proptest::collection::vec(-1e4f32..1e4, 1..1024),
        mean in -100.0f64..100.0,
    ) {
        let ref_sum = kernels::sum_with(KernelBackend::Scalar, &vals);
        let ref_dev = kernels::sum_sq_dev_with(KernelBackend::Scalar, &vals, mean);
        for backend in simd_backends() {
            prop_assert_eq!(
                kernels::sum_with(backend, &vals).to_bits(),
                ref_sum.to_bits(),
                "sum backend {}",
                backend
            );
            prop_assert_eq!(
                kernels::sum_sq_dev_with(backend, &vals, mean).to_bits(),
                ref_dev.to_bits(),
                "sum_sq_dev backend {}",
                backend
            );
        }
    }

    #[test]
    fn scale_bits_identical(
        vals in proptest::collection::vec(-1e4f32..1e4, 1..1024),
        mean in -100.0f64..100.0,
        inv in 0.01f64..100.0,
    ) {
        let mut reference = vals.clone();
        kernels::scale_with(KernelBackend::Scalar, &mut reference, mean, inv);
        for backend in simd_backends() {
            let mut got = vals.clone();
            kernels::scale_with(backend, &mut got, mean, inv);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&got), bits(&reference), "backend {}", backend);
        }
    }
}

/// Deterministic pseudo-random values (no dependence on the rand stand-in's
/// distribution) covering sign changes and magnitude spread.
fn wiggly(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed.wrapping_mul(1442695040888963407));
            ((x >> 33) as f64 / (1u64 << 31) as f64 - 0.5) as f32 * 200.0
        })
        .collect()
}

/// Every length in 1..=80 (all tail shapes around the 8-lane chunking, three
/// times over) plus larger sizes: the raw kernels agree bit-for-bit.
#[test]
fn kernel_grid_every_tail_shape() {
    for len in (1usize..=80).chain([100, 128, 255, 256, 257, 500, 1000, 1023, 1024]) {
        let a = wiggly(len, 7);
        let b = wiggly(len, 11);
        let reference = kernels::squared_euclidean_with(KernelBackend::Scalar, &a, &b);
        for backend in simd_backends() {
            assert_eq!(
                kernels::squared_euclidean_with(backend, &a, &b).to_bits(),
                reference.to_bits(),
                "len {len} backend {backend}"
            );
            // Threshold at ~half the distance: abandons mid-scan for most
            // lengths, exercising the per-chunk decision points.
            let half = reference * 0.5;
            assert_eq!(
                kernels::euclidean_early_abandon_with(backend, &a, &b, half).map(f64::to_bits),
                kernels::euclidean_early_abandon_with(KernelBackend::Scalar, &a, &b, half)
                    .map(f64::to_bits),
                "abandon len {len} backend {backend}"
            );
        }
    }
}

/// The *dispatched* pipelines (`znormalize`, `paa`) produce bit-identical
/// output whichever backend is pinned process-wide.
#[test]
fn dispatched_pipelines_identical_per_backend() {
    let initial = active_backend();
    for len in [1usize, 5, 8, 13, 16, 40, 96, 256, 1000, 1024] {
        let vals = wiggly(len, 3);

        force_backend(KernelBackend::Scalar);
        let ref_znorm = znormalize(&vals);
        let ref_paa: Vec<u64> = divisors(len)
            .flat_map(|segs| paa(&vals, segs))
            .map(f64::to_bits)
            .collect();
        let ref_paa_frac: Vec<u64> = fractional_segments(len)
            .flat_map(|segs| paa(&vals, segs))
            .map(f64::to_bits)
            .collect();

        for backend in simd_backends() {
            force_backend(backend);
            let got_znorm = znormalize(&vals);
            assert_eq!(
                got_znorm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_znorm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "znormalize len {len} backend {backend}"
            );
            let got_paa: Vec<u64> = divisors(len)
                .flat_map(|segs| paa(&vals, segs))
                .map(f64::to_bits)
                .collect();
            assert_eq!(got_paa, ref_paa, "paa len {len} backend {backend}");
            let got_frac: Vec<u64> = fractional_segments(len)
                .flat_map(|segs| paa(&vals, segs))
                .map(f64::to_bits)
                .collect();
            assert_eq!(
                got_frac, ref_paa_frac,
                "paa frac len {len} backend {backend}"
            );
        }
    }
    force_backend(initial);
}

/// All segment counts that divide `len` (the PAA fast path).
fn divisors(len: usize) -> impl Iterator<Item = usize> {
    (1..=len).filter(move |s| len.is_multiple_of(*s))
}

/// A few segment counts that do NOT divide `len` (the general fractional
/// path — scalar on every backend, so trivially identical, but pinned here
/// so a future vectorization of it keeps the contract).
fn fractional_segments(len: usize) -> impl Iterator<Item = usize> {
    (2..=len.min(7)).filter(move |s| !len.is_multiple_of(*s))
}
