//! The per-query cost-model planner: pick the performance knobs from
//! observed state instead of from the caller.
//!
//! PRs 1–6 proved every execution knob (`query_parallelism`, shard fan-out,
//! read-ahead engagement) **bit-identical** in answers,
//! `QueryCost` and `IoStats`.  That identity discipline is what makes a
//! planner safe: whatever it chooses, the caller observes the same results —
//! only the wall-clock changes.  This module is the decision layer the
//! Coconut Palm paper applies offline (its recommender inspects the workload
//! and picks an indexing method) transplanted to query time, where the bench
//! trajectory shows static knobs misfire (fan-out and read-ahead lose on
//! small page-cache-resident workloads and win at scale).
//!
//! # Determinism and replayability
//!
//! A plan is computed in two strictly separated steps:
//!
//! 1. **Capture** — the index snapshots everything the decision may depend
//!    on into a [`PlannerInputs`] value: index footprint vs an estimated
//!    page-cache budget, search-unit and run counts, the rolling `IoStats`
//!    sequential/random read mix, `k`, exactness, and the host core count.  Capture reads live state (atomics, `/proc/meminfo`),
//!    so two captures at different times may differ — but a captured
//!    snapshot is plain data.
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
        /// Search units the query fans out over (runs × shards + buffer for
        /// CLSM, leaves + delta for CTree, partitions for streams).
        pub unit_count: usize,
        /// Sorted runs (levels) backing the index; `1` for single-file indexes.
        pub run_count: usize,
        /// Available cores at capture time.
        pub cores: usize,
        /// Neighbours requested.
        pub k: usize,
        /// Exact (two-phase) or approximate (probe-only) search.
        pub exact: bool,
        /// Random share of the index's reads so far, in permille (`0` = all
        /// sequential, `1000` = all random), from the rolling `IoStats`
        /// history.
        pub random_read_permille: u32,
    }
}

coconut_json::wire! {
    /// The knobs a plan assigns.  All of them are proven pure performance
    /// knobs, so any assignment yields bit-identical answers and costs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PlanDecision {
        /// Worker threads for the engine fan-out over search units (the shard
        /// fan-out; the engine additionally caps at the unit count).
        pub query_parallelism: usize,
        /// Whether background read-ahead should engage at all for large
        /// sequential range reads (merges, compactions).
        pub read_ahead: bool,
        /// Minimum contiguous range, in bytes, below which read-ahead stays
        /// disengaged even when [`PlanDecision::read_ahead`] is `true`.
        pub prefetch_min_bytes: u64,
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
/// Per-unit footprint below which fanning out is not worth the per-round
/// thread spawns (scoped workers are spawned per query round).
pub const PARALLEL_MIN_UNIT_BYTES: u64 = 1 << 20;
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
/// * **Fan-out** engages only when there is more than one core *and* more
///   than one unit *and* the refinement work amortizes the per-round thread
///   spawns: the index spills past the cache budget, or each unit carries
///   at least [`PARALLEL_MIN_UNIT_BYTES`].  Approximate queries are
///   probe-only and never worth spawning for.
/// * **Read-ahead** is disabled outright for cache-resident indexes (the
///   pages are already hot; a prefetch thread is pure overhead), engages at
///   the default gate for spilling indexes, and at a raised gate when the
///   rolling read mix is random-dominated.
pub fn plan(inputs: &PlannerInputs) -> PlanDecision {
    let resident =
        inputs.footprint_bytes.saturating_mul(RESIDENT_HEADROOM) <= inputs.cache_budget_bytes;
    let per_unit_bytes = inputs.footprint_bytes / inputs.unit_count.max(1) as u64;
    let heavy = inputs.exact && (!resident || per_unit_bytes >= PARALLEL_MIN_UNIT_BYTES);
    let query_parallelism = if inputs.cores > 1 && inputs.unit_count > 1 && heavy {
        inputs.cores.min(inputs.unit_count)
    } else {
        1
    };
    let read_ahead = !resident;
    let prefetch_min_bytes = if inputs.random_read_permille >= RANDOM_HEAVY_PERMILLE {
        DEFAULT_PREFETCH_MIN_BYTES.saturating_mul(4)
    } else {
        DEFAULT_PREFETCH_MIN_BYTES
    };
    PlanDecision {
        query_parallelism,
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
/// * [`PlannerMode::Fixed`] returns the configured `query_parallelism` and
///   read-ahead at the default gate, with no report.  It never calls
///   `inputs`.
/// * [`PlannerMode::Adaptive`] captures `inputs()` and returns
///   [`plan_report`] of it.
pub fn decide(
    knobs: &PerfKnobs,
    inputs: impl FnOnce() -> PlannerInputs,
) -> (PlanDecision, Option<PlanReport>) {
    match knobs.planner {
        PlannerMode::Fixed => (
            PlanDecision {
                query_parallelism: knobs.query_parallelism,
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

/// Host facts the capture step reads once per process: the estimated
/// page-cache budget and the core count.  Probing sits on the capture side
/// of the capture/decide split — the values land in [`PlannerInputs`], so a
/// recorded snapshot replays identically on any host.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Estimated bytes of page cache available to this process.
    pub cache_budget_bytes: u64,
    /// Available cores.
    pub cores: usize,
}

static HOST_PROBE: OnceLock<HostProbe> = OnceLock::new();

/// The process-wide host probe, captured on first use (probing per query
/// would put a file read on the hot path for a value that moves slowly).
pub fn host_probe() -> HostProbe {
    *HOST_PROBE.get_or_init(|| HostProbe {
        cache_budget_bytes: cache_budget_bytes(),
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// Integer random-read share of an `IoStats` snapshot in permille, the form
/// [`PlannerInputs::random_read_permille`] captures (integer math keeps the
/// snapshot — and thus the decision — trivially replayable).
pub fn read_permille(snap: &coconut_storage::iostats::IoStatsSnapshot) -> u32 {
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

    /// Regression test: the probe must report the host's real core count.
    /// An earlier revision collapsed `cores` to a constant, silently
    /// pinning every adaptive fan-out decision to single-core behavior on
    /// multi-core hosts.
    #[test]
    fn host_probe_reports_real_core_count() {
        let probe = host_probe();
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(probe.cores, expected);
        assert!(probe.cores >= 1);
        assert!(probe.cache_budget_bytes > 0);
        // The probe is process-wide and stable across calls.
        assert_eq!(host_probe().cores, probe.cores);
    }

    fn base_inputs() -> PlannerInputs {
        PlannerInputs {
            footprint_bytes: 64 << 20,
            cache_budget_bytes: 1 << 30,
            unit_count: 8,
            run_count: 3,
            cores: 4,
            k: 10,
            exact: true,
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
        assert_eq!(decision.query_parallelism, 1);
        assert!(!decision.read_ahead);
        assert_eq!(decision.effective_prefetch_gate(), usize::MAX);
    }

    #[test]
    fn spilling_index_fans_out_and_prefetches() {
        let inputs = PlannerInputs {
            footprint_bytes: 4 << 30,
            ..base_inputs()
        };
        let decision = plan(&inputs);
        assert_eq!(decision.query_parallelism, 4, "cores cap the fan-out");
        assert!(decision.read_ahead);
        assert_eq!(
            decision.effective_prefetch_gate(),
            DEFAULT_PREFETCH_MIN_BYTES as usize
        );
    }

    #[test]
    fn resident_but_chunky_units_still_fan_out() {
        // 64 MiB over 8 units = 8 MiB/unit: enough refinement work per
        // spawned worker even though the index is cache-resident.
        let decision = plan(&base_inputs());
        assert_eq!(decision.query_parallelism, 4);
    }

    #[test]
    fn approximate_probes_never_spawn() {
        let inputs = PlannerInputs {
            exact: false,
            footprint_bytes: 4 << 30,
            ..base_inputs()
        };
        assert_eq!(plan(&inputs).query_parallelism, 1);
    }

    #[test]
    fn single_core_hosts_always_run_sequentially() {
        let inputs = PlannerInputs {
            cores: 1,
            footprint_bytes: 4 << 30,
            ..base_inputs()
        };
        assert_eq!(plan(&inputs).query_parallelism, 1);
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
            unit_count in 0usize..10_000,
            run_count in 0usize..1_000,
            cores in 0usize..256,
            k in 0usize..1_000,
            exact_bit in 0u8..2,
            random_read_permille in 0u32..=1_000,
        ) {
            let inputs = PlannerInputs {
                footprint_bytes,
                cache_budget_bytes,
                unit_count,
                run_count,
                cores,
                k,
                exact: exact_bit == 1,
                random_read_permille,
            };
            let first = plan(&inputs);
            let second = plan(&inputs);
            prop_assert_eq!(first, second);
            let report = plan_report(inputs);
            prop_assert_eq!(report.inputs, inputs);
            prop_assert_eq!(report.decision, plan(&inputs));
            // Structural sanity that holds for *every* input: the engine
            // knobs stay in their legal ranges.
            prop_assert!(report.decision.query_parallelism >= 1);
            prop_assert!(report.decision.prefetch_min_bytes > 0);
        }
    }

    #[test]
    fn meminfo_parsing() {
        let text = "MemTotal:       16000000 kB\nMemFree:         1000000 kB\nMemAvailable:    8000000 kB\n";
        assert_eq!(parse_meminfo_available(text), Some(8_000_000 * 1024));
        assert_eq!(parse_meminfo_available("MemTotal: 1 kB\n"), None);
        assert!(host_probe().cores >= 1);
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
