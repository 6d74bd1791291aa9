//! What the four workloads share: the run context, failure accounting, the
//! server fleet, and the reduction of the passes into the end-to-end metrics.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use coconut_json::Json;

use crate::oracle::{self, Hit, Recall};
use crate::spec::{Sizes, K, LEN};
use crate::stats::{fold_min, median, percentile};
use crate::trace::{self, Span};
use crate::wire::{self, Child, Client};

/// One run's parameters and scratch space.
pub struct Ctx {
    /// Decides the order in which a session issues its requests.
    pub seed: u64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where the real server binaries are.
    pub bin_dir: PathBuf,
    /// This run's own directory under `palmbench/work/`; removed on exit.
    pub run_dir: PathBuf,
}

/// Attempts and failures.  A failure is a wrong answer, an error reply, a
/// refused request or an unclean child exit; the first few are kept as text.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records whether a `stats` reply shows that nothing was shed and no
    /// deadline was missed.
    pub fn record_nothing_dropped(&mut self, stats: &Json) {
        let dropped = ["shed", "deadline_exceeded"]
            .iter()
            .any(|key| wire::number(stats, key) != Ok(0.0));
        self.record(if dropped {
            Err("requests were shed or timed out".to_string())
        } else {
            Ok(())
        });
    }

    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// The nine end-to-end metrics, always.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics a traced run measured (the rest read 0).
    pub layers: Vec<(&'static str, f64)>,
    /// Info fields: knobs, counts, phase times.
    pub info: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Notes the trace of one request class — the median self time per span
    /// name, and whether the trace closes against `e2e_us`, what the same
    /// ops took in the timed passes — and returns the self times.
    pub fn note_trace(
        &mut self,
        spans: &[Span],
        label: &str,
        reqs: &dyn Fn(u32) -> bool,
        e2e_us: f64,
    ) -> BTreeMap<&'static str, f64> {
        let own = trace::median_self_us(spans, reqs);
        let parts: Vec<String> = own.iter().map(|(n, us)| format!("{n}={us:.1}")).collect();
        self.note(&format!("trace.{label}.self_us"), parts.join(" "));
        self.note(
            &format!("trace.{label}.closure"),
            trace::closure(spans, reqs, e2e_us),
        );
        own
    }
}

/// The children serving one workload: one `palm-server`, or a `palm-coord`
/// in front of several.
pub struct Fleet {
    workers: Vec<Child>,
    coord: Option<Child>,
    dir: PathBuf,
}

impl Fleet {
    /// `shards == 0`: a single `palm-server`.  Otherwise `shards` workers
    /// (result cache off, so broadcast answers stay cold) behind a
    /// coordinator.
    pub fn start(
        ctx: &Ctx,
        label: &str,
        cache_entries: usize,
        shards: usize,
    ) -> Result<Fleet, String> {
        let dir = ctx.run_dir.join(label);
        let mut fleet = Fleet {
            workers: Vec::new(),
            coord: None,
            dir: dir.clone(),
        };
        let cache = [("PALM_CACHE_ENTRIES", cache_entries.to_string())];
        for i in 0..shards.max(1) {
            let work = dir.join(format!("w{i}"));
            std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
            fleet
                .workers
                .push(Child::spawn(&ctx.bin_dir, "palm-server", &work, &cache)?);
        }
        if shards > 0 {
            let env = [("PALM_WORKERS", fleet.worker_addrs().join(","))];
            fleet.coord = Some(Child::spawn(&ctx.bin_dir, "palm-coord", &dir, &env)?);
        }
        Ok(fleet)
    }

    /// A client on the fleet's front door.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(match &self.coord {
            Some(coord) => &coord.addr,
            None => &self.workers[0].addr,
        })
    }

    /// Addresses of the `palm-server` children, in shard order.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|c| c.addr.clone()).collect()
    }

    /// `VmHWM` summed over every child.
    pub fn peak_rss_mib(&self) -> f64 {
        let children = self.workers.iter().chain(&self.coord);
        children.map(Child::peak_rss_mib).sum()
    }

    /// SIGTERMs the front first, then the workers, recording every exit.
    /// Returns the bytes the fleet left on disk after its final sync, and
    /// removes them.
    pub fn stop(self, tally: &mut Tally) -> u64 {
        for child in self.coord.into_iter().chain(self.workers) {
            tally.record(child.stop());
        }
        let bytes = wire::dir_bytes(&self.dir);
        let _ = std::fs::remove_dir_all(&self.dir);
        bytes
    }
}

/// What an op of a pass is, for the reduction into metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Exact,
    Approx,
    /// A load op (insert frame, ingest batch) carrying this many series.
    Load(u32),
    /// Counted in the session's wall and query count, in no percentile
    /// (batches, `recommend`, full-history scans).
    Other,
}

/// The passes of one op list, reduced.
pub struct Passes {
    pub classes: Vec<Class>,
    /// Queries each op answers (a `batch` of 16 counts 16).
    pub queries: Vec<u32>,
    /// Per-op minimum over the passes, seconds.
    pub best: Vec<f64>,
    /// Wall of each pass (sum of its op times), seconds.
    pub walls: Vec<f64>,
}

impl Passes {
    pub fn new(classes: Vec<Class>, queries: Vec<u32>) -> Passes {
        Passes {
            classes,
            queries,
            best: Vec::new(),
            walls: Vec::new(),
        }
    }

    pub fn add(&mut self, times: &[f64]) {
        fold_min(&mut self.best, times);
        self.walls.push(times.iter().sum());
    }

    fn of(&self, class: Class) -> Vec<f64> {
        self.best
            .iter()
            .zip(&self.classes)
            .filter(|(_, c)| **c == class)
            .map(|(t, _)| t * 1e3)
            .collect()
    }

    /// `exact_p50_ms`, `exact_p95_ms`, `approx_p50_ms`, `session_qps`.
    pub fn query_metrics(&self) -> Vec<(&'static str, f64)> {
        let exact = self.of(Class::Exact);
        let approx = self.of(Class::Approx);
        let queries: u64 = self.queries.iter().map(|&q| q as u64).sum();
        vec![
            ("exact_p50_ms", median(&exact)),
            ("exact_p95_ms", percentile(&exact, 95.0)),
            ("approx_p50_ms", median(&approx)),
            (
                "session_qps",
                queries as f64 / self.best.iter().sum::<f64>(),
            ),
        ]
    }

    /// Series made queryable per second of load calls.
    pub fn load_rate(&self) -> f64 {
        let (mut series, mut seconds) = (0u64, 0.0);
        for (class, best) in self.classes.iter().zip(&self.best) {
            if let Class::Load(n) = class {
                series += *n as u64;
                seconds += best;
            }
        }
        series as f64 / seconds
    }
}

/// The oracle's answers for a set of queries over one flat collection whose
/// series `i` has id `base_id + i` and timestamp 0.
pub fn truths(data: &[f32], base_id: u64, queries: &[Vec<f32>]) -> Vec<Vec<Hit>> {
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    oracle::knn_many(
        0..data.len() / LEN,
        |i| &data[i * LEN..(i + 1) * LEN],
        |i| (base_id + i as u64, 0),
        &refs,
        K,
    )
}

/// Checks a parsed `query_result`: exact replies against the oracle's truth,
/// approximate ones for shape (k neighbours, each at its real distance) and,
/// when `truth` is given, folded into `recall`.
pub fn check_query(
    reply: &Json,
    exact: bool,
    truth: Option<&[Hit]>,
    true_d2: impl Fn(u64) -> Option<f64>,
    recall: &mut Recall,
) -> Result<(), String> {
    let got = wire::hits(reply)?;
    if exact {
        return oracle::check_exact(&got, truth.expect("exact queries have a truth"), true_d2);
    }
    if got.len() != K {
        return Err(format!("approximate reply has {} neighbours", got.len()));
    }
    for hit in &got {
        let real = true_d2(hit.id).ok_or_else(|| format!("unknown id {}", hit.id))?;
        if (real - hit.d2).abs() > oracle::TOLERANCE * real.max(1.0) {
            return Err(format!(
                "id {} reported at {} but lies at {real}",
                hit.id, hit.d2
            ));
        }
    }
    if let Some(truth) = truth {
        let ids: Vec<u64> = got.iter().map(|h| h.id).collect();
        recall.add(&ids, truth);
    }
    Ok(())
}

/// Replies already verified once, by request line: a session that re-issues
/// a template checks its first reply against the oracle and every later one
/// for being that same reply (all but `elapsed_ms`, which is a clock).
#[derive(Default)]
pub struct Seen(HashMap<usize, u64>);

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hash of a reply line with the number after every `"elapsed_ms":` skipped.
pub fn reply_fingerprint(reply: &[u8]) -> u64 {
    const KEY: &[u8] = b"\"elapsed_ms\":";
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut rest = reply;
    while let Some(at) = rest.windows(KEY.len()).position(|w| w == KEY) {
        hash = fnv(hash, &rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        let number = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
            .unwrap_or(rest.len());
        rest = &rest[number..];
    }
    fnv(hash, rest)
}

impl Seen {
    /// `Ok(true)`: this reply equals the one verified before for `request`.
    /// `Ok(false)`: first sight — the caller verifies it fully, then calls
    /// [`Seen::remember`].  `Err`: the reply changed.
    pub fn matches(&self, request: usize, reply: &[u8]) -> Result<bool, String> {
        match self.0.get(&request) {
            None => Ok(false),
            Some(&print) if print == reply_fingerprint(reply) => Ok(true),
            Some(_) => Err("a repeated request got a different reply".to_string()),
        }
    }

    pub fn remember(&mut self, request: usize, reply: &[u8]) {
        self.0.insert(request, reply_fingerprint(reply));
    }
}

/// A unique scratch directory for one run, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(bench_root: &Path, label: &str) -> Result<RunDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = bench_root
            .join("work")
            .join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_only_the_clock() {
        let a = br#"{"type":"query_result","ids":[1,2],"elapsed_ms":0.0123,"cost":{"x":1}}"#;
        let b = br#"{"type":"query_result","ids":[1,2],"elapsed_ms":4.5e-3,"cost":{"x":1}}"#;
        let c = br#"{"type":"query_result","ids":[1,3],"elapsed_ms":0.0123,"cost":{"x":1}}"#;
        let d = br#"{"type":"query_result","ids":[1,2],"elapsed_ms":0.0123,"cost":{"x":2}}"#;
        assert_eq!(reply_fingerprint(a), reply_fingerprint(b));
        assert_ne!(reply_fingerprint(a), reply_fingerprint(c));
        assert_ne!(reply_fingerprint(a), reply_fingerprint(d));
        let mut seen = Seen::default();
        assert_eq!(seen.matches(7, a), Ok(false));
        seen.remember(7, a);
        assert_eq!(seen.matches(7, b), Ok(true));
        assert!(seen.matches(7, c).is_err());
        assert_eq!(seen.matches(8, c), Ok(false));
    }

    #[test]
    fn passes_reduce_to_the_metrics() {
        let classes = vec![Class::Exact, Class::Approx, Class::Load(100), Class::Other];
        let mut passes = Passes::new(classes, vec![1, 1, 0, 16]);
        passes.add(&[0.010, 0.001, 0.5, 0.004]);
        passes.add(&[0.012, 0.0008, 0.4, 0.005]);
        assert_eq!(passes.best, vec![0.010, 0.0008, 0.4, 0.004]);
        let metrics = passes.query_metrics();
        assert_eq!(metrics[0], ("exact_p50_ms", 10.0));
        assert_eq!(metrics[2], ("approx_p50_ms", 0.8));
        // 18 queries over every op at its fastest: 0.010 + 0.0008 + 0.4 + 0.004.
        assert!((metrics[3].1 - 18.0 / 0.4148).abs() < 1e-9);
        assert_eq!(passes.load_rate(), 250.0);
    }
}
