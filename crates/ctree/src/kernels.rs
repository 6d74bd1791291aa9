//! Kernel dispatch: the engine-facing surface of the explicit SIMD
//! distance / z-normalization / PAA backends.
//!
//! The implementations live one layer down, in [`coconut_series::kernels`]
//! — they must sit below this crate because the summarization path
//! (z-normalization during dataset generation, PAA inside the SAX layer)
//! runs before any index exists — but the *engine* is where backend choice
//! matters operationally, so this module is the surface the index crates
//! (CTree, CLSM, ADS+, the streaming schemes) and the benches import:
//!
//! * [`active_backend`] / [`force_backend`] / [`KernelBackend`] — the
//!   process-wide backend selection (runtime `is_x86_feature_detected!`
//!   dispatch; tests and benches pin a backend with `force_backend`).
//! * [`euclidean_early_abandon`] / [`squared_euclidean`] — the refinement
//!   kernels every skip-sequential scan calls per candidate.
//! * The `*_with` entry points — address a specific backend explicitly
//!   (equivalence tests, per-backend benches) without touching the
//!   process-wide choice.
//!
//! **The backend is a pure performance knob**, exactly like `io_backend`:
//! every backend performs the same IEEE-754 operations in the same 8-lane
//! association order (see the [`coconut_series::kernels`] module docs for
//! the full argument), so index files, answers,
//! `QueryCost` and `IoStats` are bit-identical whichever backend served
//! them — including the early-abandon *decision points*, which fire at the
//! same chunk boundary on every backend.  Enforced by
//! `crates/series/tests/kernel_equivalence.rs` (kernel level) and
//! `every_kernel_backend_matches_scalar` in
//! `crates/core/tests/differential/main.rs` (index level); the
//! `e17_scale` bench re-checks it at scale when run.

pub use coconut_series::distance::{euclidean_early_abandon, squared_euclidean};
pub use coconut_series::kernels::{
    active_backend, euclidean_early_abandon_with, force_backend, scale_with,
    squared_euclidean_with, sum_sq_dev_with, sum_with, KernelBackend, LANES,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_layer_matches_series_kernels() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let b = [9.0f32, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let active = active_backend();
        assert!(active.available());
        assert_eq!(
            squared_euclidean(&a, &b).to_bits(),
            squared_euclidean_with(active, &a, &b).to_bits()
        );
        assert_eq!(
            euclidean_early_abandon(&a, &b, 1e9).map(f64::to_bits),
            euclidean_early_abandon_with(active, &a, &b, 1e9).map(f64::to_bits)
        );
    }
}
