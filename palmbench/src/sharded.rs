//! `sharded-mixed`: the fleet path.  A `palm-coord` child in front of two
//! `palm-server` children; every pass starts a fresh fleet, seeds a two-shard
//! CLSM index (untimed) and then alternates large `insert` frames, which the
//! coordinator routes to one shard, with queries, which it broadcasts and
//! merges.  Shows scatter-gather, the merge, the double JSON hop, and the
//! JSON layer used the other way round: a large decode, not a small encode.

use std::path::Path;
use std::time::Instant;

use coconut_core::StaticIndex;
use coconut_json::Json;

use crate::gen::{self, Rng};
use crate::layers;
use crate::oracle::{self, Hit, Recall, TopK};
use crate::session::{check_query, truths, Class, Ctx, Fleet, Outcome, Passes, Tally};
use crate::spec::{K, LEN};
use crate::stats::median;
use crate::trace::{self, Bare, Clock, Depths, Span};
use crate::wire::{self, Client};

const SHARDS: usize = 2;
const APPROX_PER_ROUND: usize = 4;
const EXACT_PER_ROUND: usize = 2;
/// Name of the index every pass seeds and fills.
const TARGET: &str = "s";

struct Query {
    values: Vec<f32>,
    exact: bool,
    /// The round (0-based) after whose insert frame the query is asked.
    round: usize,
    /// The oracle's answer over the seed archive and the frames inserted by
    /// then.  Every exact query has one, and the approximate ones of the
    /// recall sample.
    truth: Option<Vec<Hit>>,
}

struct Op {
    line: String,
    class: Class,
    /// Index into the plan's queries (`None`: an insert frame).
    query: Option<usize>,
}

struct Plan {
    seed: Vec<f32>,
    /// `rounds * insert` series, in insertion order.
    inserted: Vec<f32>,
    queries: Vec<Query>,
    /// A pass, in the order `--seed` gives each round's queries.
    ops: Vec<Op>,
    datagen_s: f64,
    oracle_s: f64,
}

fn plan(ctx: &Ctx) -> Plan {
    let s = &ctx.sizes;
    let per_round = APPROX_PER_ROUND + EXACT_PER_ROUND;
    let start = Instant::now();
    let seed = gen::random_walks(gen::ARCHIVE_SEED, s.sharded_series, LEN);
    // What goes over the wire as decimal text is rounded to 1/1024, so that
    // the text is the exact value the oracle searched with.
    let inserted = gen::rounded(gen::random_walks(
        gen::INSERT_SEED,
        s.sharded_rounds * s.sharded_insert,
        LEN,
    ));
    let values = gen::queries(gen::QUERY_SEED, &seed, s.sharded_rounds * per_round, LEN);
    let datagen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let exact = |i: usize| i % per_round >= APPROX_PER_ROUND;
    let mut sampled = 0;
    let wanted: Vec<bool> = (0..values.len())
        .map(|i| {
            let take = exact(i) || sampled < s.recall_sample;
            sampled += (take && !exact(i)) as usize;
            take
        })
        .collect();
    let asked: Vec<Vec<f32>> = values
        .iter()
        .zip(&wanted)
        .filter(|(_, w)| **w)
        .map(|(v, _)| v.clone())
        .collect();
    let mut seed_truths = truths(&seed, 0, &asked).into_iter();
    let seeds = s.sharded_series;
    let queries: Vec<Query> = values
        .into_iter()
        .enumerate()
        .map(|(i, values)| {
            let round = i / per_round;
            // Frame `f` arrives at timestamp `f + 1`; the query sees the
            // frames up to its own round's.
            let truth = wanted[i].then(|| {
                let seeded = seed_truths.next().expect("one truth per wanted query");
                let mut top = TopK::seeded(K, &seeded);
                let so_far = (round + 1) * s.sharded_insert;
                for (j, series) in inserted.chunks(LEN).take(so_far).enumerate() {
                    let frame = (j / s.sharded_insert) as u64;
                    top.consider(&values, series, (seeds + j) as u64, frame + 1);
                }
                top.into_hits()
            });
            Query {
                values,
                exact: exact(i),
                round,
                truth,
            }
        })
        .collect();
    let oracle_s = start.elapsed().as_secs_f64();

    let mut order = Rng::new(ctx.seed);
    let mut ops = Vec::new();
    for round in 0..s.sharded_rounds {
        let frame = &inserted[round * s.sharded_insert * LEN..(round + 1) * s.sharded_insert * LEN];
        ops.push(Op {
            line: wire::insert_request(TARGET, frame, LEN, round as u64 + 1),
            class: Class::Load(s.sharded_insert as u32),
            query: None,
        });
        let mut asked: Vec<usize> = (round * per_round..(round + 1) * per_round).collect();
        order.shuffle(&mut asked);
        for q in asked {
            let query = &queries[q];
            ops.push(Op {
                line: wire::query_request(TARGET, &query.values, K, query.exact),
                class: if query.exact {
                    Class::Exact
                } else {
                    Class::Approx
                },
                query: Some(q),
            });
        }
    }
    Plan {
        seed,
        inserted,
        queries,
        ops,
        datagen_s,
        oracle_s,
    }
}

impl Plan {
    fn seed_count(&self) -> usize {
        self.seed.len() / LEN
    }

    /// Series `id` as the fleet numbers them: the seed archive by file
    /// position, then the inserted series in insertion order.
    fn series(&self, id: u64, inserted_so_far: usize) -> Option<&[f32]> {
        let i = id as usize;
        let seeds = self.seed_count();
        if i < seeds {
            Some(&self.seed[i * LEN..(i + 1) * LEN])
        } else if i - seeds < inserted_so_far {
            Some(&self.inserted[(i - seeds) * LEN..(i - seeds + 1) * LEN])
        } else {
            None
        }
    }
}

fn build_line(ctx: &Ctx, dataset: &Path) -> String {
    wire::build_request(TARGET, dataset, "Clsm", true, ctx.sizes.sharded_budget)
}

#[derive(Default)]
struct Evidence {
    recall: Recall,
    exact_costs: Vec<[f64; 5]>,
}

/// A fresh fleet with the seed archive built across its shards (untimed:
/// this is the pass's set-up).
struct Live {
    fleet: Fleet,
    client: Client,
    setup_s: f64,
    built: Json,
}

fn go_live(ctx: &Ctx, label: &str, dataset: &Path) -> Result<Live, String> {
    let start = Instant::now();
    let fleet = Fleet::start(ctx, label, 0, SHARDS)?;
    let mut client = fleet.connect()?;
    let built = client.ask(&build_line(ctx, dataset))?;
    Ok(Live {
        fleet,
        client,
        setup_s: start.elapsed().as_secs_f64(),
        built,
    })
}

/// The ops of a pass against a live fleet, every reply checked against the
/// oracle.  Returns the op times.
fn ops(
    ctx: &Ctx,
    plan: &Plan,
    client: &mut Client,
    tally: &mut Tally,
    evidence: &mut Evidence,
) -> Result<Vec<f64>, String> {
    let s = &ctx.sizes;
    let mut reply = Vec::new();
    let mut times = Vec::with_capacity(plan.ops.len());
    let mut inserted = 0;
    for op in &plan.ops {
        times.push(client.call(&op.line, &mut reply)?);
        let parsed = wire::parse_reply(&reply);
        tally.record(parsed.and_then(|json| match op.query {
            None => {
                inserted += s.sharded_insert;
                let total = wire::number(&json, "total")?;
                if total as usize == plan.seed_count() + inserted {
                    Ok(())
                } else {
                    Err(format!(
                        "insert reports {total} entries, expected {}",
                        plan.seed_count() + inserted
                    ))
                }
            }
            Some(q) => {
                let q = &plan.queries[q];
                debug_assert_eq!((q.round + 1) * s.sharded_insert, inserted);
                let true_d2 = |id| {
                    plan.series(id, inserted)
                        .map(|v| oracle::distance(&q.values, v))
                };
                check_query(
                    &json,
                    q.exact,
                    q.truth.as_deref(),
                    true_d2,
                    &mut evidence.recall,
                )?;
                if q.exact {
                    evidence.exact_costs.push(wire::cost(&json)?);
                }
                Ok(())
            }
        }));
    }
    Ok(times)
}

pub fn sharded_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = &ctx.sizes;
    let plan = plan(ctx);
    let dataset = ctx.run_dir.join("seed.bin");
    let start = Instant::now();
    gen::write_dataset(&dataset, &plan.seed, LEN).map_err(|e| e.to_string())?;
    let write_s = start.elapsed().as_secs_f64();

    // Every pass from nothing: three fresh children, the seed build, then
    // the rounds, checked in full; recall and costs are kept once.
    let queries = plan
        .ops
        .iter()
        .map(|op| op.query.is_some() as u32)
        .collect();
    let mut passes = Passes::new(plan.ops.iter().map(|op| op.class).collect(), queries);
    let mut kept = Evidence::default();
    let (mut setup_s, mut rss_mib, mut space_amp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut built, mut stats) = (Json::Null, Json::Null);
    let held_bytes = (plan.seed.len() + plan.inserted.len()) * 4;
    let mut replay = ctx.trace.then(|| Replay::new(ctx, &plan));
    let session = Instant::now();
    for p in 0..s.sharded_passes {
        let mut live = go_live(ctx, &format!("pass{p}"), &dataset)?;
        setup_s.push(live.setup_s);
        let mut evidence = Evidence::default();
        let times = ops(ctx, &plan, &mut live.client, &mut out.tally, &mut evidence)?;
        passes.add(&times);
        stats = live.client.ask(wire::STATS_REQUEST)?;
        out.tally.record_nothing_dropped(&stats);
        rss_mib.push(live.fleet.peak_rss_mib());
        // A traced run replays its sample once after every pass, on the
        // pass's own fleet, which is in its final state: the rounds meet the
        // host at the moments the passes met it.
        if let Some(replay) = replay.as_mut() {
            replay.round(&plan, &live.fleet, &mut live.client)?;
        }
        drop(live.client);
        let disk_bytes = live.fleet.stop(&mut out.tally);
        space_amp.push(disk_bytes as f64 / held_bytes as f64);
        built = live.built;
        if p == 0 {
            kept = evidence;
        } else {
            out.tally.record(if evidence.recall == kept.recall {
                Ok(())
            } else {
                Err(format!("pass {p} found another recall than the first"))
            });
        }
    }
    let session_s = session.elapsed().as_secs_f64();

    out.e2e.push(("setup_s", plan.datagen_s + median(&setup_s)));
    out.e2e.push(("load_series_per_s", passes.load_rate()));
    out.e2e.extend(passes.query_metrics());
    out.e2e.push(("approx_recall_at_10", kept.recall.value()));
    out.e2e.push(("space_amp", median(&space_amp)));
    out.e2e.push(("peak_rss_mib", median(&rss_mib)));

    out.note("knobs", format!(
        "palm-coord over {SHARDS} palm-server; build_index Clsm materialized=true memory_budget_bytes={} (all else wire defaults); PALM_CACHE_ENTRIES=0",
        s.sharded_budget
    ));
    out.note(
        "sizes",
        format!(
            "seed_series={} rounds={} insert={} ops_per_pass={} passes={} (each a fresh fleet and an untimed seed build)",
            s.sharded_series,
            s.sharded_rounds,
            s.sharded_insert,
            passes.classes.len(),
            s.sharded_passes,
        ),
    );
    out.note("datagen_s", format!("{:.3}", plan.datagen_s));
    out.note("dataset_write_s", format!("{write_s:.3}"));
    out.note("oracle_s", format!("{:.3}", plan.oracle_s));
    out.note("pass_setup_s", format!("{setup_s:.3?}"));
    out.note("session_s", format!("{session_s:.3}"));
    out.note("pass_walls_s", format!("{:.3?}", passes.walls));
    out.note("pass_rss_mib", format!("{rss_mib:.2?}"));
    out.note("pass_space_amp", format!("{space_amp:?}"));
    out.note("recall_queries", kept.recall.queries);

    if let Some(replay) = replay {
        let replayed = replay.finish();
        layer_metrics(
            ctx, &plan, &dataset, &passes, &built, &stats, &kept, &replayed, &mut out,
        )?;
        out.spans = replayed.spans;
    }
    Ok(out)
}

struct Replayed {
    spans: Vec<Span>,
    /// Per traced request: the op it replays, and whether it is exact.
    sample: Vec<(usize, bool)>,
    /// Per exact request, the slower shard's time over the faster's.
    skew: Vec<f64>,
    /// `list_indexes` round trips through the coordinator, microseconds.
    rtt: Vec<f64>,
}

/// The traced replay: each sampled query asked through the coordinator and
/// then of every shard directly, one round after every pass.  The sample is
/// a pass's *last* queries: they were asked of all but the final state, so
/// their replay costs what they cost in the passes.
struct Replay {
    clock: Clock,
    sample: Vec<(usize, bool)>,
    depths: Vec<Depths>,
    /// Per request and shard, the shard's fastest round.
    shards: Vec<[(u64, u64); SHARDS]>,
    rtt: Vec<f64>,
}

impl Replay {
    fn new(ctx: &Ctx, plan: &Plan) -> Replay {
        let want_exact = ctx.sizes.traced_exact;
        let want_approx = ctx.sizes.traced_requests - want_exact;
        let last = |class: Class, want: usize| {
            let of_class = plan.ops.iter().enumerate().rev();
            let mut picked: Vec<(usize, bool)> = of_class
                .filter(|(_, op)| op.class == class)
                .take(want)
                .map(|(i, _)| (i, class == Class::Exact))
                .collect();
            picked.reverse();
            picked
        };
        let mut sample = last(Class::Exact, want_exact);
        sample.extend(last(Class::Approx, want_approx));
        let clock = Clock::start();
        Replay {
            clock,
            depths: (0..sample.len())
                .map(|req| Depths::new(clock, req as u32))
                .collect(),
            shards: vec![[(0, u64::MAX); SHARDS]; sample.len()],
            rtt: Vec::new(),
            sample,
        }
    }

    /// One round on a fleet in a pass's final state: the coordinator for
    /// every request, then each shard for every request.
    fn round(&mut self, plan: &Plan, fleet: &Fleet, client: &mut Client) -> Result<(), String> {
        let mut reply = Vec::new();
        for (d, &(i, _)) in self.depths.iter_mut().zip(&self.sample) {
            let start_ns = self.clock.now_ns();
            let wall = client.call(&plan.ops[i].line, &mut reply)?;
            wire::parse_reply(&reply)?;
            d.offer("wire", None, start_ns, start_ns + (wall * 1e9) as u64);
        }
        for (w, addr) in fleet.worker_addrs().iter().enumerate() {
            let mut worker = Client::connect(addr)?;
            for (best, &(i, _)) in self.shards.iter_mut().zip(&self.sample) {
                let start_ns = self.clock.now_ns();
                let ns = (worker.call(&plan.ops[i].line, &mut reply)? * 1e9) as u64;
                wire::parse_reply(&reply)?;
                if ns < best[w].1 - best[w].0 {
                    best[w] = (start_ns, start_ns + ns);
                }
            }
        }
        for _ in 0..250 {
            self.rtt
                .push(client.call(wire::LIST_REQUEST, &mut reply)? * 1e6);
        }
        Ok(())
    }

    fn finish(self) -> Replayed {
        let mut out = Replayed {
            spans: Vec::new(),
            sample: self.sample,
            skew: Vec::new(),
            rtt: self.rtt,
        };
        for ((mut d, mut shards), &(_, exact)) in
            self.depths.into_iter().zip(self.shards).zip(&out.sample)
        {
            // The coordinator waits for its slowest shard.
            shards.sort_by_key(|(start, end)| end - start);
            let (fast, slow) = (shards[0], shards[SHARDS - 1]);
            d.offer("shard.wire", Some("wire"), slow.0, slow.1);
            out.spans.extend(d.into_spans());
            if exact {
                out.skew
                    .push((slow.1 - slow.0) as f64 / (fast.1 - fast.0) as f64);
            }
        }
        out
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    plan: &Plan,
    dataset: &Path,
    passes: &Passes,
    built: &Json,
    stats: &Json,
    evidence: &Evidence,
    replayed: &Replayed,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = &ctx.sizes;
    let (spans, sample) = (&replayed.spans[..], &replayed.sample);
    // An unsharded in-process copy of the whole collection: the engine's
    // cost without the fleet, and the CLSM's own ingestion counters.
    let mut bare = Bare::build(&ctx.run_dir.join("bare"), &build_line(ctx, dataset))?;
    let mut insert_s = 0.0;
    for (round, frame) in plan.inserted.chunks(s.sharded_insert * LEN).enumerate() {
        let base = plan.seed_count() + round * s.sharded_insert;
        let series: Vec<coconut_core::Series> = frame
            .chunks(LEN)
            .enumerate()
            .map(|(i, v)| coconut_core::Series::new((base + i) as u64, v.to_vec()))
            .collect();
        let start = Instant::now();
        bare.index
            .insert_batch(&series, round as u64 + 1)
            .map_err(|e| e.to_string())?;
        insert_s += start.elapsed().as_secs_f64();
    }
    let StaticIndex::Clsm(tree) = &bare.index else {
        return Err("the replica is not a CLSM".to_string());
    };
    let clsm = tree.stats();
    let mut direct = (Vec::new(), Vec::new());
    let mut exact_phys = Vec::new();
    for &(i, exact) in sample {
        let q = &plan.queries[plan.ops[i].query.expect("the sample holds queries")];
        let rounds = 3;
        let before = bare.io.snapshot();
        let ms = (0..rounds)
            .map(|_| {
                let start = Instant::now();
                bare.knn(&q.values, exact);
                start.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        if exact {
            let read = bare.io.snapshot().since(&before).physical_bytes_read;
            exact_phys.push(read as f64 / rounds as f64);
            direct.0.push(ms);
        } else {
            direct.1.push(ms);
        }
    }

    let exact_reqs = |req: u32| sample[req as usize].1;
    let approx_reqs = |req: u32| !sample[req as usize].1;
    // What the coordinator adds to its slowest shard: the `wire` self time.
    let coord_exact_ms = trace::median_self_us(spans, &exact_reqs)["wire"] / 1e3;
    out.layers.extend(layers::build_io(built)?);
    out.layers
        .extend(layers::exact_costs(&evidence.exact_costs));
    out.layers
        .extend(layers::micro(&ctx.run_dir.join("micro"), s.sharded_budget)?);
    out.layers.extend([
        ("storage.exact_phys_bytes_per_query", median(&exact_phys)),
        ("ctree.build_ms", bare.build_ms),
        ("ctree.exact_knn_ms", median(&direct.0)),
        ("ctree.approx_knn_ms", median(&direct.1)),
        ("clsm.flushes", clsm.flushes as f64),
        ("clsm.merges", clsm.merges as f64),
        ("clsm.write_amp", clsm.write_amplification()),
        (
            "clsm.insert_series_per_s",
            (plan.inserted.len() / LEN) as f64 / insert_s,
        ),
        ("net.frame_rtt_us", median(&replayed.rtt)),
        (
            "net.wire_overhead_us",
            trace::median_self_us(spans, &approx_reqs)["wire"],
        ),
        ("net.coord_overhead_ms", coord_exact_ms),
        ("net.shard_skew", median(&replayed.skew)),
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
        let in_passes: Vec<f64> = sample
            .iter()
            .filter(|(_, e)| *e == exact)
            .map(|&(i, _)| passes.best[i] * 1e6)
            .collect();
        out.note_trace(spans, label, reqs, median(&in_passes));
    }
    Ok(())
}
