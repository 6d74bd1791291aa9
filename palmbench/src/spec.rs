//! The benchmark's contract and every size.
//!
//! `BENCHMARK.json` at the repository root is the only copy of the contract:
//! it is compiled in and parsed here, so the names a run emits, their units
//! and the bounds `--spread` checks cannot drift from the file.

use std::sync::OnceLock;

use coconut_json::Json;

/// Series length and neighbour count of every workload.
pub const LEN: usize = 256;
pub const K: usize = 10;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

pub struct Spec {
    /// Wall of one run on the box the baseline was taken on; the sizes below
    /// are chosen for it, and `--seconds` must name it.
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn parse(text: &str) -> Result<Spec, String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no '{key}' list"))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry has no '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher: match text_of(m, "better")?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("BENCHMARK.json: better is '{other}'")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no 'run_seconds'")? as u64,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The contract, as `BENCHMARK.json` states it.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("the compiled-in BENCHMARK.json")
    })
}

/// Every size of every workload.  Constants, never derived from a duration
/// flag or from timing: two runs do identical work.  That includes the pass
/// counts.  Passes are short and many rather than long and few: what the host
/// adds to an op changes from second to second, and an op keeps the fastest
/// of its passes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// static-explore: archive size, build budget, queries, passes.
    pub static_series: usize,
    pub static_budget: usize,
    pub static_exact: usize,
    pub static_approx_per_exact: usize,
    pub static_passes: usize,
    /// Approximate queries whose recall is checked against the oracle
    /// (static-explore and sharded-mixed; the other two check every one).
    pub recall_sample: usize,
    /// repeat-explore: archive, templates, ops per pass, passes.
    pub repeat_series: usize,
    pub repeat_budget: usize,
    pub repeat_templates: usize,
    pub repeat_ops: usize,
    pub repeat_passes: usize,
    /// stream-window: batches per pass, arrivals per batch, passes.
    pub stream_batches: usize,
    pub stream_batch: usize,
    pub stream_passes: usize,
    /// sharded-mixed: seed archive, rounds per pass, series per insert, passes.
    pub sharded_series: usize,
    pub sharded_budget: usize,
    pub sharded_rounds: usize,
    pub sharded_insert: usize,
    pub sharded_passes: usize,
    /// Requests replayed at every depth in a traced run, and how many of
    /// them are exact ones (each costs a hundred approximate ones).
    pub traced_requests: usize,
    pub traced_exact: usize,
}

pub const FULL: Sizes = Sizes {
    static_series: 50_000,
    static_budget: 1 << 20,
    static_exact: 200,
    static_approx_per_exact: 3,
    static_passes: 8,
    recall_sample: 300,
    repeat_series: 20_000,
    repeat_budget: 32 << 20,
    repeat_templates: 256,
    repeat_ops: 40_000,
    repeat_passes: 8,
    stream_batches: 100,
    stream_batch: 600,
    stream_passes: 7,
    sharded_series: 24_000,
    sharded_budget: 4 << 20,
    sharded_rounds: 100,
    sharded_insert: 128,
    sharded_passes: 6,
    traced_requests: 240,
    traced_exact: 30,
};

// A twentieth of a class's ops lies beyond its p95: at least ten must, and a
// traced run replays at least 200 requests.
const _: () = assert!(
    FULL.static_exact / 20 >= 10
        && FULL.stream_batches * 2 / 20 >= 10
        && FULL.sharded_rounds * 2 / 20 >= 10
        && FULL.traced_requests >= 200
        && FULL.traced_exact < FULL.traced_requests
);

/// `--check` and the smoke tests: every code path, a few seconds in all.
pub const SMOKE: Sizes = Sizes {
    static_series: 4_000,
    static_budget: 1 << 20,
    static_exact: 24,
    static_approx_per_exact: 3,
    static_passes: 3,
    recall_sample: 24,
    repeat_series: 2_000,
    repeat_budget: 32 << 20,
    repeat_templates: 32,
    repeat_ops: 2_000,
    repeat_passes: 3,
    stream_batches: 20,
    stream_batch: 200,
    stream_passes: 3,
    sharded_series: 4_000,
    sharded_budget: 4 << 20,
    sharded_rounds: 10,
    sharded_insert: 16,
    sharded_passes: 3,
    traced_requests: 24,
    traced_exact: 4,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn fits(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(legal)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_fits_the_contract() {
        let spec = spec();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(names.into_iter().all(fits));
        for (_, why) in &spec.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = &spec.end_to_end[0];
        assert!(setup.name == "setup_s" && setup.unit == "s" && !setup.higher);
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }
}
