//! # coconut-palm
//!
//! Workspace facade crate: re-exports the [`coconut_core`] API so the
//! runnable examples under `examples/` (and downstream users) can depend on a
//! single crate.  See `ROADMAP.md` for the project's north star and
//! `DESIGN.md` for the architecture, including the few threads it runs.

pub use coconut_core::*;

/// The palm (algorithms-server) request/response layer.
pub mod palm {
    pub use coconut_core::palm::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_core_types() {
        let config = crate::IndexConfig::new(crate::VariantKind::CTree, 64);
        assert_eq!(config.display_name(), "CTree");
    }
}
