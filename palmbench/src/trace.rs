//! The outside-in layer trace.
//!
//! The program under test records no spans yet, so the bench makes them from
//! its own files: the same request is replayed at successive depths — wire
//! call, in-process `PalmServer::handle_json`, then `Json::parse` /
//! `handle` / encode separately, then the direct index call — and each
//! replay is one span.  A layer's self time is its span minus the spans one
//! level in.  Spans stay in memory and are written out when the run ends.
//!
//! There is one round of replays after every timed pass, on the pass's own
//! server, so the rounds meet the host at the moments the passes met it: what
//! the host does changes from second to second, and a replay made minutes
//! after the passes measures another machine.  A round replays one depth for
//! every sampled request, then the next depth for every request, and so on;
//! each depth of each request keeps its fastest round.  So a replay always
//! follows the replay of *another* request, as an op of a timed pass follows
//! another op — asking one request fifteen times in a row would find the
//! processor's caches full of it and cost a quarter less than it did in the
//! passes — and the depths of one request are still measured within a
//! second of one another.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{CancelToken, Dataset, IndexConfig, IoStats, SharedIoStats, StaticIndex};
use coconut_json::{FromJson, Json, ToJson};

use crate::spec::K;
use crate::stats::median;

/// One replay of one request at one depth.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request the span belongs to (index into the traced sample).
    pub req: u32,
    pub name: &'static str,
    /// Name of the span one level out, within the same request.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// The bench's monotonic clock, zero at the start of the run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The spans of one request: per depth, the fastest round so far.
pub struct Depths {
    clock: Clock,
    req: u32,
    spans: Vec<Span>,
}

impl Depths {
    pub fn new(clock: Clock, req: u32) -> Depths {
        Depths {
            clock,
            req,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as one replay at depth `name` and keeps it if it is the
    /// fastest at that depth.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.clock.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.clock.now_ns();
        self.offer(name, parent, start_ns, end_ns);
        out
    }

    /// Like [`Depths::time`] for an interval measured elsewhere.
    pub fn offer(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let span = Span {
            req: self.req,
            name,
            parent,
            start_ns,
            end_ns,
        };
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(best) if best.dur_ns() <= span.dur_ns() => {}
            Some(best) => *best = span,
            None => self.spans.push(span),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its children's, in ns.  May be
/// negative when a child's fastest round beat its parent's; sums are taken
/// signed so that the self times of one request always add up to its root
/// span, and [`closure`] reports any depth that does not nest.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut children: BTreeMap<(u32, &str), i64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *children.entry((span.req, parent)).or_default() += span.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.dur_ns() - children.get(&(s.req, s.name)).copied().unwrap_or(0))
        .collect()
}

/// Median self time per span name over the requests in `reqs`, microseconds.
pub fn median_self_us(spans: &[Span], reqs: &dyn Fn(u32) -> bool) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        if reqs(span.req) {
            by_name.entry(span.name).or_default().push(own as f64 / 1e3);
        }
    }
    by_name.into_iter().map(|(n, v)| (n, median(&v))).collect()
}

/// Median duration of the spans called `name` over `reqs`, microseconds.
pub fn median_dur_us(spans: &[Span], name: &str, reqs: &dyn Fn(u32) -> bool) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && reqs(s.req))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        median(&durs)
    }
}

/// Share by which a span may fall short of the spans one level in, and by
/// which the trace may miss the end-to-end time, before it "does not close".
pub const CLOSURE_TOLERANCE: f64 = 0.10;

/// Does the trace of one request class close?  Two things must hold:
/// every depth nests (over the class's requests, the median of a span's
/// children over the span itself stays within `1 + tolerance`), and the
/// self times add up to the end-to-end time of the same ops in the timed
/// passes (`e2e_us`, their median), within the tolerance.
pub struct Closure {
    /// Sum of the median self times, microseconds.
    pub self_sum_us: f64,
    pub e2e_us: f64,
    /// The depth whose children overrun it most: `(name, children / span)`.
    pub worst_nesting: Option<(&'static str, f64)>,
}

impl Closure {
    pub fn closes(&self) -> bool {
        let nests = self
            .worst_nesting
            .is_none_or(|(_, ratio)| ratio <= 1.0 + CLOSURE_TOLERANCE);
        nests && (self.self_sum_us / self.e2e_us - 1.0).abs() <= CLOSURE_TOLERANCE
    }
}

impl std::fmt::Display for Closure {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let verdict = if self.closes() {
            "closes"
        } else {
            "DOES NOT CLOSE"
        };
        write!(
            f,
            "{verdict}: self times sum to {:.1} us, the same ops took {:.1} us in the passes ({:+.1}%)",
            self.self_sum_us,
            self.e2e_us,
            (self.self_sum_us / self.e2e_us - 1.0) * 100.0
        )?;
        match self.worst_nesting {
            Some((name, ratio)) => write!(
                f,
                "; fullest depth {name}: the spans one level in are {:.0}% of it",
                ratio * 100.0
            ),
            None => write!(f, "; one depth only"),
        }
    }
}

pub fn closure(spans: &[Span], reqs: &dyn Fn(u32) -> bool, e2e_us: f64) -> Closure {
    let mut children: BTreeMap<(u32, &str), i64> = BTreeMap::new();
    for span in spans.iter().filter(|s| reqs(s.req)) {
        if let Some(parent) = span.parent {
            *children.entry((span.req, parent)).or_default() += span.dur_ns();
        }
    }
    let mut ratios: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans.iter().filter(|s| reqs(s.req)) {
        if let Some(inner) = children.get(&(span.req, span.name)) {
            ratios
                .entry(span.name)
                .or_default()
                .push(*inner as f64 / span.dur_ns().max(1) as f64);
        }
    }
    Closure {
        self_sum_us: median_self_us(spans, reqs).values().sum(),
        e2e_us,
        worst_nesting: ratios
            .into_iter()
            .map(|(name, r)| (name, median(&r)))
            .max_by(|a, b| a.1.total_cmp(&b.1)),
    }
}

/// Writes the spans as JSON lines `{req, name, parent, start_ns, end_ns}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

pub fn parse_request(line: &str) -> PalmRequest {
    let json = Json::parse(line).expect("the request line is JSON");
    PalmRequest::from_json(&json).expect("the request line is a request")
}

/// The bare index the child built, in process: the `build_index` line the
/// child was sent is parsed by the repository's own request parser, and the
/// index is configured from the parsed request exactly as `PalmServer` does
/// it — so the wire's defaults reach it without the bench knowing them.
pub struct Bare {
    pub index: StaticIndex,
    pub io: SharedIoStats,
    pub build_ms: f64,
}

impl Bare {
    pub fn build(dir: &Path, build_line: &str) -> Result<Bare, String> {
        let PalmRequest::BuildIndex {
            dataset_path,
            variant,
            materialized,
            memory_budget_bytes,
            parallelism,
            query_parallelism,
            shard_count,
            io_overlap,
            io_backend,
            planner,
            compression,
            ..
        } = parse_request(build_line.trim_end())
        else {
            return Err("not a build_index line".to_string());
        };
        let data = Dataset::open(&dataset_path).map_err(|e| e.to_string())?;
        let config = IndexConfig::new(variant, data.series_len())
            .materialized(materialized)
            .with_memory_budget(memory_budget_bytes.max(1 << 20))
            .with_parallelism(parallelism)
            .with_query_parallelism(query_parallelism)
            .with_shard_count(shard_count)
            .with_io_overlap(io_overlap)
            .with_io_backend(io_backend)
            .with_planner(planner)
            .with_compression(compression);
        let io = IoStats::shared();
        let start = Instant::now();
        let (index, _) =
            StaticIndex::build(&data, config, dir, Arc::clone(&io)).map_err(|e| e.to_string())?;
        Ok(Bare {
            index,
            io,
            build_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// The direct index call a computed query ends in: the one
    /// `PalmServer` makes.  Returns the five `QueryCost` counters in
    /// [`crate::wire::cost`] order.
    pub fn knn(&self, query: &[f32], exact: bool) -> [f64; 5] {
        let ((_, cost), _) = self
            .index
            .knn_planned(query, K, exact, &CancelToken::never())
            .expect("the replica answers what the child answered");
        [
            cost.entries_examined as f64,
            cost.entries_refined as f64,
            cost.raw_fetches as f64,
            cost.blocks_read as f64,
            cost.blocks_skipped as f64,
        ]
    }
}

/// An in-process `PalmServer` that took the very `build_index` line the
/// child was sent, with the child's cache setting.
pub struct Replica {
    pub palm: PalmServer,
}

impl Replica {
    pub fn build(dir: &Path, build_line: &str, cache_entries: usize) -> Result<Replica, String> {
        let mut palm = PalmServer::new(dir);
        if cache_entries > 0 {
            palm = palm.with_result_cache(cache_entries);
        }
        let built = palm.handle_json(build_line.trim_end());
        if !built.contains("\"type\":\"built\"") {
            return Err(format!("replica build failed: {built}"));
        }
        Ok(Replica { palm })
    }

    /// One round of one depth below the wire — `handle_json`, then its
    /// three parts separately — for every request: `lines[i]` is request
    /// `i`'s, `depths[i]` its spans.
    pub fn round(&self, depths: &mut [Depths], lines: &[&str]) {
        for (d, line) in depths.iter_mut().zip(lines) {
            d.time("handle_json", Some("wire"), || self.palm.handle_json(line));
        }
        let requests: Vec<PalmRequest> = depths
            .iter_mut()
            .zip(lines)
            .map(|(d, line)| d.time("json.parse", Some("handle_json"), || parse_request(line)))
            .collect();
        let responses: Vec<PalmResponse> = depths
            .iter_mut()
            .zip(requests)
            .map(|(d, request)| {
                d.time("core.handle", Some("handle_json"), || {
                    self.palm.handle(request)
                })
            })
            .collect();
        for (d, response) in depths.iter_mut().zip(&responses) {
            d.time("json.encode", Some("handle_json"), || {
                response.to_json().to_string()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u32, name: &'static str, parent: Option<&'static str>, dur: u64) -> Span {
        Span {
            req,
            name,
            parent,
            start_ns: 1000,
            end_ns: 1000 + dur,
        }
    }

    fn nested() -> Vec<Span> {
        vec![
            span(0, "wire", None, 100),
            span(0, "handle_json", Some("wire"), 70),
            span(0, "json.parse", Some("handle_json"), 10),
            span(0, "core.handle", Some("handle_json"), 50),
            span(0, "json.encode", Some("handle_json"), 5),
            span(0, "index.knn", Some("core.handle"), 45),
            // Another request's children must not be charged to this one.
            span(1, "wire", None, 40),
            span(1, "handle_json", Some("wire"), 30),
        ]
    }

    #[test]
    fn self_time_is_a_span_minus_the_spans_one_level_in() {
        let own = self_times(&nested());
        assert_eq!(own, vec![30, 5, 10, 5, 5, 45, 10, 30]);
        // The self times of a request add up to its root span.
        assert_eq!(own[..6].iter().sum::<i64>(), 100);
        assert_eq!(own[6..].iter().sum::<i64>(), 40);
    }

    #[test]
    fn a_trace_closes_when_depths_nest_and_the_sum_meets_the_passes() {
        let spans = nested();
        let first = |req: u32| req == 0;
        let fine = closure(&spans, &first, 0.104);
        assert!(fine.closes(), "{fine}");
        assert!((fine.self_sum_us - 0.1).abs() < 1e-12);
        assert_eq!(fine.worst_nesting, Some(("handle_json", 65.0 / 70.0)));
        // The passes saw the same ops a fifth slower than the replay did.
        assert!(!closure(&spans, &first, 0.125).closes());
        // An inner depth that overruns its parent: the sum still telescopes
        // to the root span, so only the nesting check can catch it.
        let overrun = vec![
            span(0, "wire", None, 100),
            span(0, "handle_json", Some("wire"), 120),
        ];
        assert_eq!(self_times(&overrun), vec![-20, 120]);
        let broken = closure(&overrun, &first, 0.1);
        assert!((broken.self_sum_us - 0.1).abs() < 1e-12);
        assert!(!broken.closes(), "{broken}");
        // A single depth nests trivially.
        assert!(closure(&overrun[..1], &first, 0.1).closes());
    }

    #[test]
    fn medians_group_by_name_and_request_class() {
        let spans = vec![
            span(0, "wire", None, 100),
            span(1, "wire", None, 300),
            span(2, "wire", None, 200),
            span(3, "wire", None, 9000),
        ];
        let small = |req: u32| req < 3;
        assert_eq!(median_dur_us(&spans, "wire", &small), 0.2);
        assert_eq!(median_self_us(&spans, &small)["wire"], 0.2);
        assert_eq!(median_dur_us(&spans, "absent", &small), 0.0);
    }

    #[test]
    fn a_depth_keeps_its_fastest_round() {
        let clock = Clock::start();
        let mut depths = Depths::new(clock, 7);
        depths.offer("wire", None, 0, 500);
        depths.offer("wire", None, 1000, 1300);
        depths.offer("wire", None, 2000, 2400);
        depths.offer("handle_json", Some("wire"), 3000, 3100);
        assert_eq!(
            depths.time("json.parse", Some("handle_json"), || 41 + 1),
            42
        );
        let spans = depths.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1000, 1300));
        assert!(spans.iter().all(|s| s.req == 7));
    }
}
