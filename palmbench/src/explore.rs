//! `static-explore` and `repeat-explore`: one `palm-server`, one client.
//! Every pass starts a fresh server, times one `build_index` and then every
//! op of the session.  The two differ in what the session is — all-distinct
//! queries against a cache-less server (every answer computed: engine-bound),
//! or a Zipf re-issue of a few templates against the result cache (every
//! answer a hit: framing, JSON and dispatch are the whole cost).

use std::path::Path;
use std::time::Instant;

use coconut_core::StaticIndex;
use coconut_json::Json;

use crate::gen::{self, Rng, Zipf};
use crate::layers;
use crate::oracle::{self, Hit, Recall};
use crate::session::{check_query, truths, Class, Ctx, Fleet, Outcome, Passes, Seen, Tally};
use crate::spec::{K, LEN};
use crate::stats::median;
use crate::trace::{self, Bare, Clock, Depths, Replica, Span};
use crate::wire::{self, Client};

/// One query of the session: its values, its kind, the oracle's answer.
struct Query {
    values: Vec<f32>,
    exact: bool,
    /// Every exact query has one; approximate ones only in the recall sample.
    truth: Option<Vec<Hit>>,
}

enum Check {
    /// A single query: index into the plan's queries.
    One(usize),
    /// A `batch` of approximate queries over these templates' values.
    Batch(Vec<usize>),
    Recommend,
}

struct Op {
    /// Index into the plan's request lines (templates share theirs).
    line: usize,
    class: Class,
    queries: u32,
    check: Check,
}

/// Everything that distinguishes the two workloads.
struct Plan {
    series: usize,
    budget: usize,
    variant: &'static str,
    materialized: bool,
    /// `PALM_CACHE_ENTRIES` of the child (0 = off).
    cache_entries: usize,
    passes: usize,
    data: Vec<f32>,
    queries: Vec<Query>,
    /// Pre-encoded request lines, each ending in `\n`.
    lines: Vec<String>,
    /// Sent once, untimed, after a pass's build: every distinct request of a
    /// cached session, so that the timed ops find the result cache full.
    warm: Vec<Op>,
    /// The timed session, in the order `--seed` gives it.
    ops: Vec<Op>,
    /// Seconds spent generating inputs and computing the oracle's answers.
    datagen_s: f64,
    oracle_s: f64,
}

/// Name of the index every pass builds and queries.
const TARGET: &str = "b";

fn with_truths(data: &[f32], values: Vec<Vec<f32>>, exact: bool, truthful: usize) -> Vec<Query> {
    let mut answers = truths(data, 0, &values[..truthful.min(values.len())]).into_iter();
    values
        .into_iter()
        .map(|values| Query {
            values,
            exact,
            truth: answers.next(),
        })
        .collect()
}

fn single(queries: &[Query], q: usize, line: usize) -> Op {
    Op {
        line,
        class: if queries[q].exact {
            Class::Exact
        } else {
            Class::Approx
        },
        queries: 1,
        check: Check::One(q),
    }
}

fn static_plan(ctx: &Ctx) -> Plan {
    let s = &ctx.sizes;
    let approx = s.static_exact * s.static_approx_per_exact;
    let start = Instant::now();
    let data = gen::random_walks(gen::ARCHIVE_SEED, s.static_series, LEN);
    let mut values = gen::queries(gen::QUERY_SEED, &data, s.static_exact + approx, LEN);
    let approx_values = values.split_off(s.static_exact);
    let datagen_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut queries = with_truths(&data, values, true, usize::MAX);
    queries.extend(with_truths(&data, approx_values, false, s.recall_sample));
    let oracle_s = start.elapsed().as_secs_f64();

    // Every query is its own line; the seed interleaves them.
    let lines = queries
        .iter()
        .map(|q| wire::query_request(TARGET, &q.values, K, q.exact))
        .collect();
    let mut ops: Vec<Op> = (0..queries.len()).map(|q| single(&queries, q, q)).collect();
    Rng::new(ctx.seed).shuffle(&mut ops);
    Plan {
        series: s.static_series,
        budget: s.static_budget,
        variant: "CTree",
        materialized: false,
        cache_entries: 0,
        passes: s.static_passes,
        data,
        queries,
        lines,
        warm: Vec::new(),
        ops,
        datagen_s,
        oracle_s,
    }
}

fn repeat_plan(ctx: &Ctx) -> Plan {
    let s = &ctx.sizes;
    let start = Instant::now();
    let data = gen::random_walks(gen::ARCHIVE_SEED, s.repeat_series, LEN);
    let templates = gen::queries(gen::QUERY_SEED, &data, s.repeat_templates, LEN);
    let datagen_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    // Template t is asked exact when t is odd.  A batch asks its templates
    // approximately whatever their parity, so every template has a truth.
    let answers = truths(&data, 0, &templates);
    let queries: Vec<Query> = templates
        .into_iter()
        .zip(answers)
        .enumerate()
        .map(|(t, (values, truth))| Query {
            values,
            exact: t % 2 == 1,
            truth: Some(truth),
        })
        .collect();
    let oracle_s = start.elapsed().as_secs_f64();

    // Line t is template t's single; then the `recommend`; batches follow,
    // assembled from the templates' approximate encodings.
    let mut lines: Vec<String> = queries
        .iter()
        .map(|q| wire::query_request(TARGET, &q.values, K, q.exact))
        .collect();
    let recommend_line = queries.len();
    let recommend = move || Op {
        line: recommend_line,
        class: Class::Other,
        queries: 1,
        check: Check::Recommend,
    };
    lines.push(wire::recommend_request(s.repeat_series as u64, LEN));
    let approximate: Vec<String> = queries
        .iter()
        .map(|q| wire::query_object(TARGET, &q.values, K, false))
        .collect();
    // The warm-up asks every template once each way it will be asked: as
    // its single, and approximately (batches ask odd templates that way).
    let mut warm: Vec<Op> = (0..queries.len()).map(|t| single(&queries, t, t)).collect();
    for from in (0..queries.len()).step_by(16) {
        let picks: Vec<usize> = (from..queries.len().min(from + 16)).collect();
        let objects: Vec<&str> = picks.iter().map(|&t| approximate[t].as_str()).collect();
        lines.push(wire::batch_request(&objects));
        warm.push(Op {
            line: lines.len() - 1,
            class: Class::Other,
            queries: picks.len() as u32,
            check: Check::Batch(picks),
        });
    }
    warm.push(recommend());

    let zipf = Zipf::new(s.repeat_templates, 1.0);
    let mut rng = Rng::new(ctx.seed);
    let mut ops = Vec::with_capacity(s.repeat_ops);
    for j in 0..s.repeat_ops {
        ops.push(if j % 256 == 255 {
            recommend()
        } else if j % 64 == 63 {
            let picks: Vec<usize> = (0..16).map(|_| zipf.sample(&mut rng)).collect();
            let objects: Vec<&str> = picks.iter().map(|&t| approximate[t].as_str()).collect();
            lines.push(wire::batch_request(&objects));
            Op {
                line: lines.len() - 1,
                class: Class::Other,
                queries: 16,
                check: Check::Batch(picks),
            }
        } else {
            let t = zipf.sample(&mut rng);
            single(&queries, t, t)
        });
    }
    Plan {
        series: s.repeat_series,
        budget: s.repeat_budget,
        variant: "Clsm",
        materialized: true,
        // The server's own default: four times the distinct requests.
        cache_entries: 1024,
        passes: s.repeat_passes,
        data,
        queries,
        lines,
        warm,
        ops,
        datagen_s,
        oracle_s,
    }
}

/// What verifying replies accumulates besides the tally.
#[derive(Default)]
struct Evidence {
    recall: Recall,
    /// `QueryCost` of every exact single reply checked in full, by query.
    exact_costs: Vec<(usize, [f64; 5])>,
}

impl Plan {
    fn true_d2(&self, query: &[f32], id: u64) -> Option<f64> {
        let i = id as usize;
        (i < self.series).then(|| oracle::distance(query, &self.data[i * LEN..(i + 1) * LEN]))
    }

    /// Full check of one reply against the oracle.
    fn verify(&self, op: &Op, reply: &[u8], evidence: &mut Evidence) -> Result<(), String> {
        let json = wire::parse_reply(reply)?;
        let one = |q: &Query, exact: bool, json: &Json, recall: &mut Recall| {
            check_query(
                json,
                exact,
                q.truth.as_deref(),
                |id| self.true_d2(&q.values, id),
                recall,
            )
        };
        match &op.check {
            Check::One(q) => {
                let query = &self.queries[*q];
                one(query, query.exact, &json, &mut evidence.recall)?;
                if query.exact {
                    evidence.exact_costs.push((*q, wire::cost(&json)?));
                }
                Ok(())
            }
            Check::Batch(picks) => {
                let replies = wire::batch_replies(&json)?;
                if replies.len() != picks.len() {
                    return Err(format!(
                        "batch of {} answered {}",
                        picks.len(),
                        replies.len()
                    ));
                }
                let mut unused = Recall::default();
                for (sub, &t) in replies.iter().zip(picks) {
                    one(&self.queries[t], false, sub, &mut unused)?;
                }
                Ok(())
            }
            Check::Recommend => match json.get("type").and_then(Json::as_str) {
                Some("recommendation") => Ok(()),
                _ => Err(format!("not a recommendation: {}", json.to_string())),
            },
        }
    }

    /// A reply seen before for the same request text only has to be that
    /// same reply again; a first sight is verified in full.
    fn check(
        &self,
        op: &Op,
        reply: &[u8],
        seen: &mut Seen,
        evidence: &mut Evidence,
    ) -> Result<(), String> {
        if self.cache_entries > 0 && seen.matches(op.line, reply)? {
            return Ok(());
        }
        self.verify(op, reply, evidence)?;
        if self.cache_entries > 0 {
            seen.remember(op.line, reply);
        }
        Ok(())
    }

    fn build_line(&self, dataset: &Path) -> String {
        wire::build_request(
            TARGET,
            dataset,
            self.variant,
            self.materialized,
            self.budget,
        )
    }
}

/// A server with the session's index built and its cache warm.
struct Live {
    fleet: Fleet,
    client: Client,
    /// Child started and connected, plus the warm-up: what a pass spends
    /// before its first timed op, the build aside.
    setup_s: f64,
    /// The timed `build_index`: seconds, and its reply.
    build_s: f64,
    built: Json,
}

fn go_live(
    ctx: &Ctx,
    plan: &Plan,
    label: &str,
    dataset: &Path,
    tally: &mut Tally,
    seen: &mut Seen,
    evidence: &mut Evidence,
) -> Result<Live, String> {
    let start = Instant::now();
    let fleet = Fleet::start(ctx, label, plan.cache_entries, 0)?;
    let mut client = fleet.connect()?;
    let mut setup_s = start.elapsed().as_secs_f64();

    let mut reply = Vec::new();
    let build_s = client.call(&plan.build_line(dataset), &mut reply)?;
    let built = wire::parse_reply(&reply).and_then(|json| {
        let entries = wire::number(json.get("report").ok_or("no report")?, "entries")?;
        if entries as usize == plan.series {
            Ok(json)
        } else {
            Err(format!("built {entries} of {} entries", plan.series))
        }
    });
    let built = match built {
        Ok(json) => {
            tally.record(Ok(()));
            json
        }
        Err(why) => {
            tally.record(Err(why));
            Json::Null
        }
    };

    let start = Instant::now();
    for op in &plan.warm {
        client.call(&plan.lines[op.line], &mut reply)?;
        tally.record(plan.check(op, &reply, seen, evidence));
    }
    setup_s += start.elapsed().as_secs_f64();
    Ok(Live {
        fleet,
        client,
        setup_s,
        build_s,
        built,
    })
}

fn run(ctx: &Ctx, plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dataset = ctx.run_dir.join("archive.bin");
    let start = Instant::now();
    gen::write_dataset(&dataset, &plan.data, LEN).map_err(|e| e.to_string())?;
    let write_s = start.elapsed().as_secs_f64();

    let mut passes = Passes::new(
        plan.ops.iter().map(|op| op.class).collect(),
        plan.ops.iter().map(|op| op.queries).collect(),
    );
    let mut seen = Seen::default();
    let mut kept = Evidence::default();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let (mut rss_mib, mut space_amp) = (Vec::new(), Vec::new());
    let (mut built, mut stats) = (Json::Null, Json::Null);
    let mut reply = Vec::new();
    let mut replay = match ctx.trace {
        true => Some(Replay::new(ctx, &plan, &dataset)?),
        false => None,
    };
    let session = Instant::now();
    for p in 0..plan.passes {
        // Every pass from nothing: a fresh server, its own build, its own
        // files.  The passes are identical, so whatever differs between them
        // is the host.
        let mut evidence = Evidence::default();
        let mut live = go_live(
            ctx,
            &plan,
            &format!("pass{p}"),
            &dataset,
            &mut out.tally,
            &mut seen,
            &mut evidence,
        )?;
        setup_s.push(live.setup_s);
        build_s.push(live.build_s);
        let mut times = Vec::with_capacity(plan.ops.len());
        for op in &plan.ops {
            times.push(live.client.call(&plan.lines[op.line], &mut reply)?);
            out.tally
                .record(plan.check(op, &reply, &mut seen, &mut evidence));
        }
        passes.add(&times);

        stats = live.client.ask(wire::STATS_REQUEST)?;
        out.tally.record_nothing_dropped(&stats);
        rss_mib.push(live.fleet.peak_rss_mib());
        // A traced run replays its sample once after every pass, on the
        // pass's own server: the rounds meet the host at the moments the
        // passes met it.
        if let Some(replay) = replay.as_mut() {
            replay.round(&mut live.client)?;
        }
        drop(live.client);
        let disk_bytes = live.fleet.stop(&mut out.tally);
        space_amp.push(disk_bytes as f64 / (plan.series * LEN * 4) as f64);
        built = live.built;
        if p == 0 {
            // The first pass saw every distinct reply: its recall and costs
            // are the run's.  A cache-less session is verified in full again
            // in every pass and must repeat them.
            kept = evidence;
        } else if plan.cache_entries == 0 {
            out.tally.record(if evidence.recall == kept.recall {
                Ok(())
            } else {
                Err(format!("pass {p} found another recall than the first"))
            });
        }
    }
    let session_s = session.elapsed().as_secs_f64();
    let fastest_build = build_s.iter().copied().fold(f64::INFINITY, f64::min);

    out.e2e.push(("setup_s", plan.datagen_s + median(&setup_s)));
    out.e2e
        .push(("load_series_per_s", plan.series as f64 / fastest_build));
    out.e2e.extend(passes.query_metrics());
    out.e2e.push(("approx_recall_at_10", kept.recall.value()));
    out.e2e.push(("space_amp", median(&space_amp)));
    out.e2e.push(("peak_rss_mib", median(&rss_mib)));

    let counter = |key| wire::number(&stats, key).unwrap_or(f64::NAN);
    out.note("knobs", format!(
        "build_index {} materialized={} memory_budget_bytes={} (all else wire defaults); PALM_CACHE_ENTRIES={}",
        plan.variant, plan.materialized, plan.budget, plan.cache_entries
    ));
    out.note(
        "sizes",
        format!(
        "series={} warm_up_ops={} ops_per_pass={} exact_ops={} approx_ops={} passes={} (each a fresh server and a timed build)",
        plan.series,
        plan.warm.len(),
        plan.ops.len(),
        passes.classes.iter().filter(|c| **c == Class::Exact).count(),
        passes.classes.iter().filter(|c| **c == Class::Approx).count(),
        plan.passes,
    ),
    );
    out.note("datagen_s", format!("{:.3}", plan.datagen_s));
    out.note("dataset_write_s", format!("{write_s:.3}"));
    out.note("oracle_s", format!("{:.3}", plan.oracle_s));
    out.note("pass_setup_s", format!("{setup_s:.3?}"));
    out.note("build_s", format!("{build_s:.3?}"));
    out.note("session_s", format!("{session_s:.3}"));
    out.note("pass_walls_s", format!("{:.3?}", passes.walls));
    out.note("pass_rss_mib", format!("{rss_mib:.2?}"));
    out.note("pass_space_amp", format!("{space_amp:?}"));
    out.note("recall_queries", kept.recall.queries);
    out.note("last_pass_cache_hits", counter("cache_hits"));
    out.note("last_pass_cache_misses", counter("cache_misses"));

    if let Some(replay) = replay {
        replay.finish(ctx, &passes, &built, &stats, &kept.exact_costs, &mut out)?;
    }
    Ok(out)
}

/// Ops replayed at depth in a traced run: the session's first single
/// requests, so many exact and the rest approximate, in session order — with
/// the session's repeats, so that the replay re-issues templates as often as
/// the passes do.
fn traced_sample(ctx: &Ctx, plan: &Plan) -> Vec<usize> {
    let mut exact = ctx.sizes.traced_exact;
    let mut approx = ctx.sizes.traced_requests - exact;
    let mut sample = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let left = match op.class {
            Class::Exact => &mut exact,
            Class::Approx => &mut approx,
            _ => continue,
        };
        if *left > 0 && matches!(op.check, Check::One(_)) {
            *left -= 1;
            sample.push(i);
        }
    }
    sample
}

/// The replay of a traced run: an in-process `PalmServer` that took the
/// passes' build line, the bare index, and per sampled request the spans of
/// every depth, each the fastest of the rounds so far.
struct Replay<'a> {
    plan: &'a Plan,
    replica: Replica,
    bare: Bare,
    clock: Clock,
    /// The sampled ops; per request its query index.
    sample: Vec<usize>,
    asked: Vec<usize>,
    depths: Vec<Depths>,
    /// Per request, what the bare index's last call cost and read.
    costs: Vec<[f64; 5]>,
    phys: Vec<f64>,
    /// `list_indexes` round trips, microseconds: the floor of a round trip.
    rtt: Vec<f64>,
}

impl<'a> Replay<'a> {
    fn new(ctx: &Ctx, plan: &'a Plan, dataset: &Path) -> Result<Replay<'a>, String> {
        let build_line = plan.build_line(dataset);
        let replica = Replica::build(
            &ctx.run_dir.join("replica"),
            &build_line,
            plan.cache_entries,
        )?;
        let bare = Bare::build(&ctx.run_dir.join("bare"), &build_line)?;
        let sample = traced_sample(ctx, plan);
        let asked: Vec<usize> = sample
            .iter()
            .map(|&i| match plan.ops[i].check {
                Check::One(q) => q,
                _ => unreachable!("the sample holds singles"),
            })
            .collect();
        let clock = Clock::start();
        let replay = Replay {
            plan,
            replica,
            bare,
            clock,
            depths: (0..sample.len())
                .map(|req| Depths::new(clock, req as u32))
                .collect(),
            costs: vec![[0.0; 5]; sample.len()],
            phys: vec![0.0; sample.len()],
            rtt: Vec::new(),
            sample,
            asked,
        };
        // A cache-on replica answers the rounds from its cache, as the child
        // does after its warm-up: fill it first.
        if plan.cache_entries > 0 {
            for line in replay.lines() {
                replay.replica.palm.handle_json(line);
            }
        }
        Ok(replay)
    }

    /// The sampled requests' lines, unterminated.
    fn lines(&self) -> Vec<&'a str> {
        let plan = self.plan;
        self.sample
            .iter()
            .map(|&i| plan.lines[plan.ops[i].line].trim_end())
            .collect()
    }

    /// One round: every depth, each for every request, on `client`'s server.
    fn round(&mut self, client: &mut Client) -> Result<(), String> {
        let plan = self.plan;
        let mut reply = Vec::new();
        for (d, &i) in self.depths.iter_mut().zip(&self.sample) {
            let start_ns = self.clock.now_ns();
            let wall = client.call(&plan.lines[plan.ops[i].line], &mut reply)?;
            d.offer("wire", None, start_ns, start_ns + (wall * 1e9) as u64);
        }
        let lines = self.lines();
        self.replica.round(&mut self.depths, &lines);
        // Only a computed answer has the index call inside `handle`; a cache
        // hit never reaches the index.
        if plan.cache_entries == 0 {
            for (req, &q) in self.asked.iter().enumerate() {
                let query = &plan.queries[q];
                let before = self.bare.io.snapshot();
                self.costs[req] = self.depths[req].time("index.knn", Some("core.handle"), || {
                    self.bare.knn(&query.values, query.exact)
                });
                let read = self.bare.io.snapshot().since(&before);
                self.phys[req] = read.physical_bytes_read as f64;
            }
        }
        for _ in 0..250 {
            self.rtt
                .push(client.call(wire::LIST_REQUEST, &mut reply)? * 1e6);
        }
        Ok(())
    }

    /// The per-layer metrics and the trace's closure, from the spans, the
    /// passes and the last pass's build and `stats` replies.
    fn finish(
        self,
        ctx: &Ctx,
        passes: &Passes,
        built: &Json,
        stats: &Json,
        exact_costs: &[(usize, [f64; 5])],
        out: &mut Outcome,
    ) -> Result<(), String> {
        let plan = self.plan;
        let computed = plan.cache_entries == 0;
        let is_exact: Vec<bool> = self.asked.iter().map(|&q| plan.queries[q].exact).collect();
        let spans: Vec<Span> = self
            .depths
            .into_iter()
            .flat_map(Depths::into_spans)
            .collect();
        let mut exact_phys = Vec::new();
        for (req, &q) in self.asked.iter().enumerate() {
            if computed && is_exact[req] {
                exact_phys.push(self.phys[req]);
                // The bare index must have done the work the child did.
                let child = exact_costs.iter().find(|(asked, _)| *asked == q);
                out.tally.record(match child {
                    Some((_, child)) if *child == self.costs[req] => Ok(()),
                    _ => Err(format!(
                        "the in-process index and the child disagree on the cost of query {q}"
                    )),
                });
            }
        }
        let exact_reqs = |req: u32| is_exact[req as usize];
        let approx_reqs = |req: u32| !is_exact[req as usize];

        out.layers
            .extend(layers::micro(&ctx.run_dir.join("micro"), plan.budget)?);
        out.layers.extend(layers::build_io(built)?);
        let costs: Vec<[f64; 5]> = exact_costs.iter().map(|(_, c)| *c).collect();
        out.layers.extend(layers::exact_costs(&costs));
        if let StaticIndex::Clsm(tree) = &self.bare.index {
            let clsm = tree.stats();
            out.layers.extend([
                ("clsm.flushes", clsm.flushes as f64),
                ("clsm.merges", clsm.merges as f64),
                ("clsm.write_amp", clsm.write_amplification()),
                (
                    "clsm.insert_series_per_s",
                    plan.series as f64 / (self.bare.build_ms / 1e3),
                ),
            ]);
        }
        let direct_ms = |exact: bool| {
            if computed {
                let reqs: &dyn Fn(u32) -> bool = if exact { &exact_reqs } else { &approx_reqs };
                return trace::median_dur_us(&spans, "index.knn", reqs) / 1e3;
            }
            // A cached session never reaches the index; what the call would
            // cost is measured all the same, outside the spans.
            let of_class = self
                .asked
                .iter()
                .zip(&is_exact)
                .filter(|(_, e)| **e == exact);
            let ms: Vec<f64> = of_class
                .take(32)
                .map(|(&q, _)| {
                    let start = Instant::now();
                    self.bare.knn(&plan.queries[q].values, exact);
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&ms)
        };
        let hits = wire::number(stats, "cache_hits")?;
        let misses = wire::number(stats, "cache_misses")?;
        let approx_queries: Vec<&[f32]> = plan
            .queries
            .iter()
            .filter(|q| !q.exact)
            .take(16)
            .map(|q| &q.values[..])
            .collect();
        let approx_self = trace::median_self_us(&spans, &approx_reqs);
        out.layers.extend([
            (
                "storage.exact_phys_bytes_per_query",
                if exact_phys.is_empty() {
                    0.0
                } else {
                    median(&exact_phys)
                },
            ),
            ("ctree.build_ms", self.bare.build_ms),
            ("ctree.exact_knn_ms", direct_ms(true)),
            ("ctree.approx_knn_ms", direct_ms(false)),
            (
                "core.handle_json_us",
                trace::median_dur_us(&spans, "handle_json", &approx_reqs),
            ),
            (
                "core.dispatch_us",
                approx_self.get("core.handle").copied().unwrap_or(0.0),
            ),
            (
                "core.cache_hit_rate",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ),
            (
                "core.batch16_speedup",
                layers::batch16_speedup(&self.replica.palm, TARGET, &approx_queries),
            ),
            ("net.frame_rtt_us", median(&self.rtt)),
            (
                "net.wire_overhead_us",
                approx_self.get("wire").copied().unwrap_or(0.0),
            ),
            ("net.shed", wire::number(stats, "shed")?),
            (
                "net.deadline_exceeded",
                wire::number(stats, "deadline_exceeded")?,
            ),
        ]);

        for (label, exact, reqs) in [
            ("exact", true, &exact_reqs as &dyn Fn(u32) -> bool),
            ("approx", false, &approx_reqs),
        ] {
            // What the same ops took in the timed passes.
            let in_passes: Vec<f64> = self
                .sample
                .iter()
                .zip(&is_exact)
                .filter(|(_, e)| **e == exact)
                .map(|(&i, _)| passes.best[i] * 1e6)
                .collect();
            let own = out.note_trace(&spans, label, reqs, median(&in_passes));
            let sum: f64 = own.values().sum();
            // Layer = crate: which crate's code a span's self time is.
            let share = |names: &[&str]| names.iter().filter_map(|n| own.get(n)).sum::<f64>() / sum;
            out.note(
                &format!("trace.{label}.layer_share"),
                format!(
                    "net={:.3} json={:.3} core={:.3} index={:.3}",
                    share(&["wire"]),
                    share(&["json.parse", "json.encode"]),
                    share(&["handle_json", "core.handle"]),
                    share(&["index.knn"]),
                ),
            );
        }
        out.spans = spans;
        Ok(())
    }
}

pub fn static_explore(ctx: &Ctx) -> Result<Outcome, String> {
    run(ctx, static_plan(ctx))
}

pub fn repeat_explore(ctx: &Ctx) -> Result<Outcome, String> {
    run(ctx, repeat_plan(ctx))
}
