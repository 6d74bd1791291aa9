//! palmbench: the repository's benchmark.  See README.md beside this crate
//! for why each workload exists, what every metric means and how to read a
//! result.
//!
//! ```text
//! palmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! palmbench --spread <N> [--baseline <dir>]
//! palmbench --check
//! ```

mod explore;
mod gen;
mod host;
mod layers;
mod oracle;
mod session;
mod sharded;
mod spec;
mod spread;
mod stats;
mod stream;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use session::{Ctx, Outcome, RunDir};
use spec::{spec, Metric, Sizes};

/// One `--workload` run, as asked for on the command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// `--cores one|all`: overrides the workload's placement, for the
    /// comparison `--spread --baseline` records.
    pub one_core: Option<bool>,
}

fn value_of(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// The palmbench directory: where `cargo run` says the manifest is, else
/// where it was when the bench was compiled.
pub fn bench_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Engine and server knobs must be the defaults of the entry point used, so
/// nothing of the caller's environment may reach the engine — in this
/// process (the in-process index and replicas) or in the children.
fn scrub_environment() {
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if name.starts_with("COCONUT_") || name.starts_with("PALM_") {
            std::env::remove_var(&key);
        }
    }
}

type Workload = fn(&Ctx) -> Result<Outcome, String>;

/// A workload's entry point, and whether the bench confines itself and the
/// server child to one core (README.md, "Placement"): only the session of
/// cached round trips, which a wake-up across cores would otherwise dominate.
fn workload(name: &str) -> Result<(Workload, bool), String> {
    match name {
        "static-explore" => Ok((explore::static_explore, false)),
        "repeat-explore" => Ok((explore::repeat_explore, true)),
        "stream-window" => Ok((stream::stream_window, false)),
        "sharded-mixed" => Ok((sharded::sharded_mixed, false)),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Host counters read before and after a run.
struct HostSample {
    calib_ms: f64,
    stat: host::ProcStat,
}

impl HostSample {
    fn take() -> HostSample {
        HostSample {
            calib_ms: host::calib_ms(),
            stat: host::proc_stat(),
        }
    }
}

/// The `metrics` object: every metric of `specs`, in spec order.  `absent`
/// is what an unmeasured metric reads (`None`: every one must be measured).
fn metrics_json(
    specs: &[Metric],
    values: &[(&'static str, f64)],
    absent: Option<f64>,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for spec in specs {
        let found: Vec<f64> = values
            .iter()
            .filter(|(n, _)| *n == spec.name)
            .map(|(_, v)| *v)
            .collect();
        let value = match (&found[..], absent) {
            ([v], _) => *v,
            ([], Some(v)) => v,
            _ => {
                return Err(format!(
                    "metric '{}' was measured {} times",
                    spec.name,
                    found.len()
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("metric '{}' is {value}", spec.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| specs.iter().all(|s| s.name != *n))
    {
        return Err(format!("metric '{stray}' is not in the spec"));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Runs one workload and prints the result.  The last line of standard
/// output is the result object; everything before it is evidence.
fn run(args: &RunArgs) -> Result<bool, String> {
    scrub_environment();
    let (workload, one_core) = workload(&args.workload)?;
    let one_core = args.one_core.unwrap_or(one_core);
    // The sizes are constants chosen for `run_seconds`; a run of another
    // length does not exist.
    if !args.smoke && args.seconds != spec().run_seconds {
        return Err(format!(
            "a run is sized for --seconds {} (BENCHMARK.json run_seconds), not {}",
            spec().run_seconds,
            args.seconds
        ));
    }
    let root = bench_root();
    let sizes: Sizes = if args.smoke { spec::SMOKE } else { spec::FULL };
    // Compiling is never inside a clock: the real server binaries are built
    // (or found fresh) before anything is timed.
    let bin_dir = wire::build_servers(&root)?;
    let run_dir = RunDir::create(&root, &format!("{}-seed{}", args.workload, args.seed))?;
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        sizes,
        bin_dir,
        run_dir: run_dir.0.clone(),
    };
    // The engine's scratch files default to the system temp dir; keep them
    // inside the checkout.
    std::env::set_var("TMPDIR", &ctx.run_dir);

    let nproc = host::nproc();
    let pinned = one_core.then(host::pin_to_one_core).flatten();
    let before = HostSample::take();
    let wall = Instant::now();
    let outcome = workload(&ctx);
    let wall_s = wall.elapsed().as_secs_f64();
    let after = HostSample::take();
    drop(run_dir);
    let outcome = outcome?;

    let jiffies = after.stat.total.saturating_sub(before.stat.total).max(1);
    println!(
        "palmbench workload={} seed={} seconds={} trace={} sizes={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { "smoke" } else { "full" }
    );
    println!(
        "host nproc={nproc} placement={} mem_available_mib={} kernels={} git={}",
        pinned.map_or("all-cores".to_string(), |cpu| format!("one-core(cpu{cpu})")),
        host::mem_available_mib(),
        coconut_series::kernels::active_backend(),
        host::git_rev(&root)
    );
    println!(
        "host calib_ms before={:.3} after={:.3} steal_share={:.5} ctxt_per_s={:.0} wall_s={wall_s:.3}",
        before.calib_ms,
        after.calib_ms,
        after.stat.steal.saturating_sub(before.stat.steal) as f64 / jiffies as f64,
        after.stat.ctxt.saturating_sub(before.stat.ctxt) as f64 / wall_s,
    );
    for (key, value) in &outcome.info {
        println!("{key}: {value}");
    }
    for note in &outcome.tally.notes {
        println!("FAILED: {note}");
    }

    let out_dir = root.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let e2e = metrics_json(&spec().end_to_end, &outcome.e2e, None)?;
    let untraced = out_dir.join(format!("e2e-{}-seed{}.json", args.workload, args.seed));
    let metrics = if args.trace {
        let spans = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_spans(&spans, &outcome.spans).map_err(|e| e.to_string())?;
        println!("spans: {} in {}", outcome.spans.len(), spans.display());
        // End-to-end numbers come from untraced runs only; the traced run
        // shows its own, and against the last untraced run of this seed the
        // difference is the tracing overhead.
        println!("traced end_to_end: {e2e}");
        let untraced = std::fs::read_to_string(&untraced).ok();
        match untraced.and_then(|text| coconut_json::Json::parse(text.trim()).ok()) {
            None => println!("tracing overhead: no untraced run of this seed on record"),
            Some(json) => {
                let value = |name: &str| json.get(name)?.get("value")?.as_f64();
                let parts: Vec<String> = outcome
                    .e2e
                    .iter()
                    .filter_map(|(name, traced)| {
                        let plain = value(name)?;
                        let change = (traced / plain - 1.0) * 100.0;
                        Some(format!("{name} {plain:.5} -> {traced:.5} ({change:+.1}%)"))
                    })
                    .collect();
                println!(
                    "tracing overhead (untraced -> traced): {}",
                    parts.join("; ")
                );
            }
        }
        // A per-layer metric this workload does not exercise reads 0.
        metrics_json(&spec().per_layer, &outcome.layers, Some(0.0))?
    } else {
        std::fs::write(&untraced, format!("{e2e}\n")).map_err(|e| e.to_string())?;
        e2e
    };
    let tally = &outcome.tally;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    Ok(tally.failed == 0)
}

/// `--check`: every workload of `BENCHMARK.json`, traced and not, at smoke
/// size, must emit exactly the names the file lists.
fn check() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = spec().run_seconds.to_string();
    for (name, _) in &spec().workloads {
        workload(name)?;
        for (trace, specs) in [("0", &spec().end_to_end), ("1", &spec().per_layer)] {
            let args = [
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                &seconds,
                "--trace",
                trace,
                "--smoke",
            ];
            let result = spread::run_once(&exe, &args)?;
            let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
            if emitted != expected {
                return Err(format!(
                    "{name} trace={trace} emitted {emitted:?}, expected {expected:?}"
                ));
            }
            if result.failed != 0 || !result.correct {
                return Err(format!(
                    "{name} trace={trace}: {} of {} failed",
                    result.failed, result.attempted
                ));
            }
            println!(
                "ok {name} trace={trace}: {} metrics, {} attempted",
                emitted.len(),
                result.attempted
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--check") {
        check().map(|()| true)
    } else if let Some(n) = value_of(&args, "--spread") {
        n.parse()
            .map_err(|_| format!("--spread takes a count, not '{n}'"))
            .and_then(|n| {
                spread::spread(
                    &bench_root(),
                    n,
                    value_of(&args, "--baseline").map(PathBuf::from),
                )
            })
    } else {
        let parsed = |flag: &str| {
            let raw = value_of(&args, flag).ok_or(format!("{flag} is required"))?;
            raw.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{raw}'"))
        };
        value_of(&args, "--workload")
            .ok_or_else(|| {
                "usage: palmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                    .to_string()
            })
            .and_then(|workload| {
                Ok(RunArgs {
                    workload,
                    seed: parsed("--seed")?,
                    seconds: parsed("--seconds")?,
                    trace: parsed("--trace")? != 0,
                    smoke: args.iter().any(|a| a == "--smoke"),
                    one_core: match value_of(&args, "--cores").as_deref() {
                        None => None,
                        Some("one") => Some(true),
                        Some("all") => Some(false),
                        Some(other) => return Err(format!("--cores takes one|all, not '{other}'")),
                    },
                })
            })
            .and_then(|run_args| run(&run_args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("palmbench: {why}");
            ExitCode::FAILURE
        }
    }
}
