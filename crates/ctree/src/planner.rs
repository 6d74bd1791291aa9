//! The per-query cost-model planner: pick the performance knobs from
//! observed state instead of from the caller.
//!
//! The knob it plans, merge read-ahead engagement, is **bit-identical** in
//! answers, `QueryCost` and `IoStats`.  That identity discipline is what
//! makes a planner safe: whatever it chooses, the caller observes the same
//! results — only the wall-clock changes.  This module is the decision layer
//! the Coconut Palm paper applies offline (its recommender inspects the
//! workload and picks an indexing method) transplanted to query time, where
//! the bench trajectory shows a static knob misfire (read-ahead loses on
//! small page-cache-resident workloads and wins at scale).
//!
//! # Determinism and replayability
//!
//! A plan is computed in two strictly separated steps:
//!
//! 1. **Capture** — the index snapshots everything the decision may depend
//!    on into a [`PlannerInputs`] value ([`PlannerInputs::capture`]): index
//!    footprint vs an estimated page-cache budget, and the rolling
//!    `IoStats` sequential/random read mix.  Capture reads live state
//!    (atomics, `/proc/meminfo`), so two captures at different times may
//!    differ — but a captured snapshot is plain data.
//! 2. **Decide** — [`plan`] maps the snapshot to a [`PlanDecision`].  It is
//!    a *pure function*: no wall clock, no randomness, no global state.
//!    Replaying a recorded snapshot therefore reproduces the decision
//!    bit-for-bit, which is what the identity tests pin.
//!
//! Every adaptive execution records both halves in a [`PlanReport`]
//! (surfaced by the palm service as the `explain` member of query responses
//! and aggregated under the `stats` verb), so "what did the planner do, and
//! why" is always answerable from the wire.
//!
//! Indexes never branch on [`PlannerMode`] themselves: every planned query
//! and merge asks [`decide`], where `Fixed` is one more decision.

use std::sync::OnceLock;

use coconut_storage::iostats::IoStatsSnapshot;
pub use coconut_storage::{PerfKnobs, PlannerMode};

/// A planned single-query result: the `(answer, cost)` pair plus the
/// [`PlanReport`] captured for it (`None` under [`PlannerMode::Fixed`]).
pub type PlannedAnswer = (
    (
        Vec<coconut_series::distance::Neighbor>,
        crate::query::QueryCost,
    ),
    Option<PlanReport>,
);

coconut_json::wire! {
    /// Everything a planning decision is allowed to depend on, captured as plain
    /// integers at a single point in time.  See the module docs for the
    /// capture/decide split.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PlannerInputs {
        /// On-disk footprint of the index in bytes.
        pub footprint_bytes: u64,
        /// Estimated page-cache budget of the host in bytes at capture time
        /// (see [`cache_budget_bytes`]).  An index whose footprint fits this
        /// budget with headroom is treated as cache-resident.
        pub cache_budget_bytes: u64,
        /// Random share of the index's reads so far, in permille (`0` = all
        /// sequential, `1000` = all random), from the rolling `IoStats`
        /// history.
        pub random_read_permille: u32,
    }
}

coconut_json::wire! {
    /// The knobs a plan assigns.  Both are pure performance knobs, so any
    /// assignment yields bit-identical answers and costs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PlanDecision {
        /// Whether background read-ahead should engage at all for large
        /// sequential range reads (merges, compactions).
        pub read_ahead: bool,
        /// Minimum contiguous range, in bytes, below which read-ahead stays
        /// disengaged even when [`PlanDecision::read_ahead`] is `true`.
        pub prefetch_min_bytes: u64,
    }
}

impl PlannerInputs {
    /// Captures the snapshot for an index of `footprint_bytes` whose reads
    /// so far are `history`, against the process-wide page-cache estimate.
    pub fn capture(footprint_bytes: u64, history: &IoStatsSnapshot) -> Self {
        static CACHE_BUDGET: OnceLock<u64> = OnceLock::new();
        PlannerInputs {
            footprint_bytes,
            // Probed once per process: a file read per query for a value
            // that moves slowly does not belong on the hot path.
            cache_budget_bytes: *CACHE_BUDGET.get_or_init(cache_budget_bytes),
            random_read_permille: read_permille(history),
        }
    }
}

impl PlanDecision {
    /// The read-ahead engage gate as the storage layer consumes it:
    /// `usize::MAX` (never engage) when read-ahead is off.
    pub fn effective_prefetch_gate(&self) -> usize {
        if self.read_ahead {
            usize::try_from(self.prefetch_min_bytes).unwrap_or(usize::MAX)
        } else {
            usize::MAX
        }
    }
}

coconut_json::wire! {
    /// One recorded planning decision: the captured inputs and the knobs
    /// chosen from them.  `decision == plan(&inputs)` always holds — the
    /// report is replayable by construction.  The `explain` object of the
    /// palm protocol, `{"inputs":{…},"decision":{…}}`; a member that does not
    /// decode is reported bare, without the `field '…': ` prefix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PlanReport {
        /// The captured snapshot the decision was computed from.
        pub inputs: PlannerInputs [bare],
        /// The knobs chosen.
        pub decision: PlanDecision [bare],
    }
}

/// Residency headroom: an index is treated as page-cache-resident when
/// twice its footprint fits the estimated cache budget.
pub const RESIDENT_HEADROOM: u64 = 2;
/// Random-read share (permille) above which the rolling I/O history is
/// considered random-dominated and the read-ahead gate is raised (a
/// background sequential prefetch helps little when the workload's reads
/// are mostly random).
pub const RANDOM_HEAVY_PERMILLE: u32 = 750;
/// Default read-ahead engage gate, re-exported from the storage layer.
pub const DEFAULT_PREFETCH_MIN_BYTES: u64 = coconut_storage::PREFETCH_MIN_BYTES as u64;

/// Maps a captured snapshot to a knob assignment.  **Pure**: the same
/// inputs always produce the same decision (pinned by a proptest), which is
/// what makes recorded [`PlanReport`]s replayable.
///
/// The policy, from the bench trajectory (see DESIGN.md "Adaptive
/// planning"):
///
/// **Read-ahead** is disabled outright for cache-resident indexes (the
/// pages are already hot; a prefetch thread is pure overhead), engages at
/// the default gate for spilling indexes, and at a raised gate when the
/// rolling read mix is random-dominated.
pub fn plan(inputs: &PlannerInputs) -> PlanDecision {
    let resident =
        inputs.footprint_bytes.saturating_mul(RESIDENT_HEADROOM) <= inputs.cache_budget_bytes;
    let read_ahead = !resident;
    let prefetch_min_bytes = if inputs.random_read_permille >= RANDOM_HEAVY_PERMILLE {
        DEFAULT_PREFETCH_MIN_BYTES.saturating_mul(4)
    } else {
        DEFAULT_PREFETCH_MIN_BYTES
    };
    PlanDecision {
        read_ahead,
        prefetch_min_bytes,
    }
}

/// Captures the snapshot for one query and immediately decides, returning
/// the full report.
pub fn plan_report(inputs: PlannerInputs) -> PlanReport {
    PlanReport {
        decision: plan(&inputs),
        inputs,
    }
}

/// The knobs one query or merge runs with — the only place the planner
/// mode is branched on.
///
/// * [`PlannerMode::Fixed`] returns read-ahead at the default gate, with no
///   report.  It never calls `inputs`.
/// * [`PlannerMode::Adaptive`] captures `inputs()` and returns
///   [`plan_report`] of it.
pub fn decide(
    knobs: &PerfKnobs,
    inputs: impl FnOnce() -> PlannerInputs,
) -> (PlanDecision, Option<PlanReport>) {
    match knobs.planner {
        PlannerMode::Fixed => (
            PlanDecision {
                read_ahead: true,
                prefetch_min_bytes: DEFAULT_PREFETCH_MIN_BYTES,
            },
            None,
        ),
        PlannerMode::Adaptive => {
            let report = plan_report(inputs());
            (report.decision, Some(report))
        }
    }
}

/// Integer random-read share of an `IoStats` snapshot in permille, the form
/// [`PlannerInputs::random_read_permille`] captures (integer math keeps the
/// snapshot — and thus the decision — trivially replayable).
fn read_permille(snap: &IoStatsSnapshot) -> u32 {
    match snap
        .random_reads
        .saturating_mul(1000)
        .checked_div(snap.total_reads())
    {
        Some(permille) => permille as u32,
        None => 0,
    }
}

/// Estimates the page-cache budget available to this process in bytes.
///
/// On Linux this reads `MemAvailable` from `/proc/meminfo` — the kernel's
/// own estimate of memory usable without swapping, which includes
/// reclaimable page cache.  Elsewhere (or if the probe fails) a fixed
/// 1 GiB fallback keeps the planner functional without claiming precision.
pub fn cache_budget_bytes() -> u64 {
    const FALLBACK: u64 = 1 << 30;
    match std::fs::read_to_string("/proc/meminfo") {
        Ok(text) => parse_meminfo_available(&text).unwrap_or(FALLBACK),
        Err(_) => FALLBACK,
    }
}

/// Parses the `MemAvailable:` line of `/proc/meminfo` (value is in KiB).
fn parse_meminfo_available(text: &str) -> Option<u64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib.saturating_mul(1024));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn base_inputs() -> PlannerInputs {
        PlannerInputs {
            footprint_bytes: 64 << 20,
            cache_budget_bytes: 1 << 30,
            random_read_permille: 100,
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_the_snapshot() {
        let inputs = base_inputs();
        let first = plan(&inputs);
        for _ in 0..100 {
            assert_eq!(plan(&inputs), first);
        }
    }

    #[test]
    fn tiny_resident_index_stays_sequential_with_no_read_ahead() {
        let inputs = PlannerInputs {
            footprint_bytes: 1 << 20,
            ..base_inputs()
        };
        let decision = plan(&inputs);
        assert!(!decision.read_ahead);
        assert_eq!(decision.effective_prefetch_gate(), usize::MAX);
    }

    #[test]
    fn spilling_index_prefetches() {
        let inputs = PlannerInputs {
            footprint_bytes: 4 << 30,
            ..base_inputs()
        };
        let decision = plan(&inputs);
        assert!(decision.read_ahead);
        assert_eq!(
            decision.effective_prefetch_gate(),
            DEFAULT_PREFETCH_MIN_BYTES as usize
        );
    }

    #[test]
    fn random_heavy_history_raises_the_prefetch_gate() {
        let inputs = PlannerInputs {
            footprint_bytes: 4 << 30,
            random_read_permille: 900,
            ..base_inputs()
        };
        let decision = plan(&inputs);
        assert_eq!(decision.prefetch_min_bytes, DEFAULT_PREFETCH_MIN_BYTES * 4);
    }

    #[test]
    fn report_embeds_the_replayable_decision() {
        let report = plan_report(base_inputs());
        assert_eq!(report.decision, plan(&report.inputs));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Determinism pin: `plan` is a pure function of the captured
        /// inputs — identical [`PlannerInputs`] always produce identical
        /// decisions, and a [`PlanReport`] always replays (`decision ==
        /// plan(&inputs)`), so recorded explains are trustworthy on any host.
        #[test]
        fn identical_inputs_yield_identical_plans(
            footprint_bytes in 0u64..=u64::MAX,
            cache_budget_bytes in 0u64..=u64::MAX,
            random_read_permille in 0u32..=1_000,
        ) {
            let inputs = PlannerInputs {
                footprint_bytes,
                cache_budget_bytes,
                random_read_permille,
            };
            let first = plan(&inputs);
            let second = plan(&inputs);
            prop_assert_eq!(first, second);
            let report = plan_report(inputs);
            prop_assert_eq!(report.inputs, inputs);
            prop_assert_eq!(report.decision, plan(&inputs));
            // Structural sanity that holds for *every* input: the gate
            // stays in its legal range.
            prop_assert!(report.decision.prefetch_min_bytes > 0);
        }
    }

    #[test]
    fn meminfo_parsing() {
        let text = "MemTotal:       16000000 kB\nMemFree:         1000000 kB\nMemAvailable:    8000000 kB\n";
        assert_eq!(parse_meminfo_available(text), Some(8_000_000 * 1024));
        assert_eq!(parse_meminfo_available("MemTotal: 1 kB\n"), None);
        let captured = PlannerInputs::capture(0, &IoStatsSnapshot::default());
        assert!(captured.cache_budget_bytes > 0);
        assert_eq!(captured.random_read_permille, 0, "no reads yet");
    }

    #[test]
    fn mode_names_round_trip() {
        use coconut_json::{FromJson, Json, ToJson};
        for mode in [PlannerMode::Fixed, PlannerMode::Adaptive] {
            assert_eq!(mode.to_json(), Json::Str(mode.name().to_string()));
            assert_eq!(PlannerMode::from_json(&mode.to_json()), Ok(mode));
        }
        assert!(PlannerMode::from_json(&Json::Str("greedy".to_string())).is_err());
        assert_eq!(PlannerMode::default(), PlannerMode::Fixed);
    }
}
