//! `stream-window`: the paper's streaming scenario, through the public
//! library API.  A seismic stream arrives in batches into an in-process
//! `streaming_index` (CLSM, bounded temporal partitioning, defaults) while
//! windowed queries run between the batches: the only workload where the
//! `stream` crate's merges work, and the only one with no JSON and no
//! socket at all.
//!
//! Arrivals are generated again, identically, in every pass and kept only as
//! long as the newest window needs them, so the process's memory is the
//! index's, not the bench's.  Generating them is the pass's set-up.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use coconut_core::{
    streaming_index, ClsmConfig, ClsmTree, IoStats, SaxConfig, Series, StreamingConfig,
    TimestampedSeries, VariantKind, WindowScheme,
};
use coconut_series::generator::SeismicStreamGenerator;

use crate::gen::{self, Rng};
use crate::layers;
use crate::oracle::{self, Hit, Recall, TopK};
use crate::session::{Class, Ctx, Outcome, Passes, Tally};
use crate::spec::{K, LEN};
use crate::stats::{median, percentile};
use crate::trace::{Clock, Span};
use crate::wire::dir_bytes;

/// Share of arrivals carrying a burst, and of queries looking for one.
const QUAKE_FRACTION: f64 = 0.1;
/// Batches the query window spans: the newest tenth of a full pass.
const WINDOW_BATCHES: usize = 10;
/// Approximate and exact window queries after every batch.
const APPROX_PER_BATCH: usize = 8;
const EXACT_PER_BATCH: usize = 2;
/// Every this many batches, one exact query over all history.
const FULL_EVERY: usize = 10;

fn config() -> StreamingConfig {
    StreamingConfig::new(
        VariantKind::Clsm,
        WindowScheme::BoundedTemporalPartitioning,
        LEN,
    )
}

/// The stream: id = timestamp = arrival number; every pass draws the same
/// one.
fn arrivals() -> SeismicStreamGenerator {
    SeismicStreamGenerator::new(LEN, gen::STREAM_SEED, QUAKE_FRACTION)
}

/// The queries: half look for a burst, half for background.
fn query_source() -> SeismicStreamGenerator {
    SeismicStreamGenerator::new(LEN, gen::QUERY_SEED, 0.5)
}

fn hits_of(neighbors: &[coconut_core::Neighbor]) -> Vec<Hit> {
    neighbors
        .iter()
        .map(|n| Hit {
            d2: n.squared_distance,
            id: n.id,
            ts: n.timestamp,
        })
        .collect()
}

/// State carried across the passes of one run.
#[derive(Default)]
struct Run {
    /// Per op of a pass, the answer the first pass verified (`None` for an
    /// ingest, or a query that failed).
    verified: Vec<Option<Vec<Hit>>>,
    recall: Recall,
    classes: Vec<Class>,
    queries: Vec<u32>,
}

impl Run {
    /// Settles query op `op`: the first pass checks the answer with `check`
    /// (the oracle) and records it; later passes must repeat the record.
    fn settle(
        &mut self,
        tally: &mut Tally,
        op: usize,
        class: Class,
        answer: Result<Vec<Hit>, String>,
        check: impl FnOnce(&[Hit], &mut Recall) -> Result<(), String>,
    ) {
        if op < self.verified.len() {
            tally.record(answer.and_then(|hits| match &self.verified[op] {
                Some(known) if *known == hits => Ok(()),
                _ => Err("a pass answered differently from the first".to_string()),
            }));
            return;
        }
        self.classes.push(class);
        self.queries.push(1);
        match answer {
            Ok(hits) => {
                tally.record(check(&hits, &mut self.recall));
                self.verified.push(Some(hits));
            }
            Err(why) => {
                tally.record(Err(why));
                self.verified.push(None);
            }
        }
    }
}

#[derive(Default)]
struct PassResult {
    /// Seconds inside each index call, in op order.
    times: Vec<f64>,
    /// Seconds the pass spent before and between its timed calls on what a
    /// user sets up: creating the empty index, generating the stream.
    setup_s: f64,
    partitions: usize,
    disk_bytes: u64,
    io: coconut_core::IoStatsSnapshot,
    footprint: u64,
    /// Physical bytes each window-exact query read.
    exact_phys_bytes: Vec<f64>,
    /// Start of each op on the run's clock (traced runs only).
    starts_ns: Vec<u64>,
}

/// One pass: a fresh index, every batch, the queries between them in the
/// order `--seed` gives them.
fn pass(
    ctx: &Ctx,
    label: &str,
    run: &mut Run,
    tally: &mut Tally,
    clock: Option<&Clock>,
) -> Result<PassResult, String> {
    let batches = ctx.sizes.stream_batches;
    let dir = ctx.run_dir.join(label);
    let io = IoStats::shared();
    let mut result = PassResult::default();
    let start = Instant::now();
    let mut index = streaming_index(config(), &dir, Arc::clone(&io)).map_err(|e| e.to_string())?;
    let mut arrivals = arrivals();
    let mut source = query_source();
    let mut next_query = || source.next_arrival().series.values;
    let full_queries: Vec<Vec<f32>> = (0..batches / FULL_EVERY).map(|_| next_query()).collect();
    result.setup_s = start.elapsed().as_secs_f64();
    let first = run.verified.is_empty();
    // The first pass keeps each full-history query's truth up to date as the
    // stream goes by, instead of keeping the stream.
    let mut full_tops: Vec<TopK> = full_queries.iter().map(|_| TopK::new(K)).collect();
    let mut window: VecDeque<Vec<TimestampedSeries>> = VecDeque::new();
    let mut order = Rng::new(ctx.seed);
    let mut op = 0;

    for b in 0..batches {
        let start = Instant::now();
        let batch = arrivals.next_batch(ctx.sizes.stream_batch);
        // Query q of a step is approximate when q < APPROX_PER_BATCH; the
        // seed decides in which order the step asks them.
        let mut step: Vec<(bool, Vec<f32>)> = (0..APPROX_PER_BATCH + EXACT_PER_BATCH)
            .map(|q| (q >= APPROX_PER_BATCH, next_query()))
            .collect();
        order.shuffle(&mut step);
        result.setup_s += start.elapsed().as_secs_f64();

        result.starts_ns.push(clock.map_or(0, Clock::now_ns));
        let start = Instant::now();
        let ingested = index.ingest_batch(&batch);
        result.times.push(start.elapsed().as_secs_f64());
        tally.record(ingested.map_err(|e| format!("ingest: {e}")));
        if first {
            run.classes.push(Class::Load(batch.len() as u32));
            run.queries.push(0);
            run.verified.push(None);
            for (query, top) in full_queries.iter().zip(full_tops.iter_mut()) {
                for arrival in &batch {
                    top.consider(
                        query,
                        &arrival.series.values,
                        arrival.series.id,
                        arrival.timestamp,
                    );
                }
            }
        }
        op += 1;
        window.push_back(batch);
        if window.len() > WINDOW_BATCHES {
            window.pop_front();
        }
        let held: Vec<&TimestampedSeries> = window.iter().flatten().collect();
        let (oldest, newest) = (held[0].timestamp, held[held.len() - 1].timestamp);
        let held_d2 = |query: &[f32], id: u64| {
            let at = id.checked_sub(oldest)? as usize;
            held.get(at)
                .map(|s| oracle::distance(query, &s.series.values))
        };

        for (exact, query) in &step {
            let (exact, query) = (*exact, &query[..]);
            let before = io.snapshot();
            result.starts_ns.push(clock.map_or(0, Clock::now_ns));
            let start = Instant::now();
            let answer = index.query_window(query, K, Some((oldest, newest)), exact);
            result.times.push(start.elapsed().as_secs_f64());
            if exact {
                let read = io.snapshot().since(&before).physical_bytes_read;
                result.exact_phys_bytes.push(read as f64);
            }
            let answer = answer
                .map(|r| hits_of(&r.neighbors))
                .map_err(|e| format!("query: {e}"));
            let class = if exact { Class::Exact } else { Class::Approx };
            run.settle(tally, op, class, answer, |hits, recall| {
                let truth = &oracle::knn_many(
                    0..held.len(),
                    |i| &held[i].series.values[..],
                    |i| (held[i].series.id, held[i].timestamp),
                    &[query],
                    K,
                )[0];
                if exact {
                    return oracle::check_exact(hits, truth, |id| held_d2(query, id));
                }
                let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
                recall.add(&ids, truth);
                hits.iter().try_for_each(|h| match held_d2(query, h.id) {
                    Some(d2) if (d2 - h.d2).abs() <= oracle::TOLERANCE * d2.max(1.0) => Ok(()),
                    _ => Err(format!("id {} at {} is not in the window", h.id, h.d2)),
                })
            });
            op += 1;
        }

        if (b + 1) % FULL_EVERY == 0 {
            let which = b / FULL_EVERY;
            result.starts_ns.push(clock.map_or(0, Clock::now_ns));
            let start = Instant::now();
            let answer = index.query_window(&full_queries[which], K, None, true);
            result.times.push(start.elapsed().as_secs_f64());
            let answer = answer
                .map(|r| hits_of(&r.neighbors))
                .map_err(|e| format!("query: {e}"));
            run.settle(tally, op, Class::Other, answer, |hits, _| {
                let truth = std::mem::replace(&mut full_tops[which], TopK::new(K)).into_hits();
                // An id outside the true top k has no business in the reply.
                let known = |id: u64| truth.iter().find(|h| h.id == id).map(|h| h.d2);
                oracle::check_exact(hits, &truth, known)
            });
            op += 1;
        }
    }
    result.partitions = index.num_partitions();
    result.footprint = index.footprint_bytes();
    result.io = io.snapshot();
    result.disk_bytes = dir_bytes(&dir);
    drop(index);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(result)
}

/// `clsm.*`: the same arrivals through a bare `ClsmTree` with the streaming
/// defaults (materialized, buffer 1024, growth 3), for its `ClsmStats`.
fn clsm_layer(ctx: &Ctx) -> Result<Vec<(&'static str, f64)>, String> {
    let defaults = config();
    let clsm = ClsmConfig::new(SaxConfig::paper_default(LEN))
        .materialized(true)
        .with_buffer_capacity(defaults.buffer_capacity)
        .with_growth_factor(defaults.growth_factor);
    let dir = ctx.run_dir.join("clsm");
    let mut tree = ClsmTree::new(clsm, &dir, IoStats::shared()).map_err(|e| e.to_string())?;
    let mut arrivals = arrivals();
    let mut seconds = 0.0;
    for b in 0..ctx.sizes.stream_batches {
        let batch: Vec<Series> = arrivals
            .next_batch(ctx.sizes.stream_batch)
            .into_iter()
            .map(|a| a.series)
            .collect();
        let start = Instant::now();
        tree.insert_batch(&batch, b as u64)
            .map_err(|e| e.to_string())?;
        seconds += start.elapsed().as_secs_f64();
    }
    let stats = tree.stats();
    Ok(vec![
        ("clsm.flushes", stats.flushes as f64),
        ("clsm.merges", stats.merges as f64),
        ("clsm.write_amp", stats.write_amplification()),
        (
            "clsm.insert_series_per_s",
            stats.entries_ingested as f64 / seconds,
        ),
    ])
}

pub fn stream_window(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let batches = ctx.sizes.stream_batches;
    let timed = ctx.sizes.stream_passes;

    // Every pass rebuilds from empty and is timed.  The first one has its
    // answers checked against the oracle; the later ones must repeat them.
    let clock = Clock::start();
    let mut run = Run::default();
    let mut passes: Option<Passes> = None;
    let (mut setup_s, mut space_amp) = (Vec::new(), Vec::new());
    let mut last = None;
    // Traced runs: per op, the interval of its fastest pass.
    let mut fastest: Vec<(u64, u64)> = Vec::new();
    let arrivals_bytes = (batches * ctx.sizes.stream_batch * LEN * 4) as f64;
    for p in 0..timed {
        let traced = ctx.trace.then_some(&clock);
        let result = pass(ctx, &format!("pass{p}"), &mut run, &mut out.tally, traced)?;
        fastest.resize(result.times.len(), (0, u64::MAX));
        for ((best, start_ns), seconds) in
            fastest.iter_mut().zip(&result.starts_ns).zip(&result.times)
        {
            let ns = (seconds * 1e9) as u64;
            if ns < best.1 - best.0 {
                *best = (*start_ns, start_ns + ns);
            }
        }
        passes
            .get_or_insert_with(|| Passes::new(run.classes.clone(), run.queries.clone()))
            .add(&result.times);
        setup_s.push(result.setup_s);
        space_amp.push(result.disk_bytes as f64 / arrivals_bytes);
        last = Some(result);
    }
    let passes = passes.expect("at least three passes");
    let last = last.expect("at least three passes");

    out.e2e.push(("setup_s", median(&setup_s)));
    out.e2e.push(("load_series_per_s", passes.load_rate()));
    out.e2e.extend(passes.query_metrics());
    out.e2e.push(("approx_recall_at_10", run.recall.value()));
    out.e2e.push(("space_amp", median(&space_amp)));
    out.e2e.push((
        "peak_rss_mib",
        crate::host::proc_kib("/proc/self/status", "VmHWM:") as f64 / 1024.0,
    ));

    out.note("knobs", format!("{:?}", config()));
    out.note(
        "sizes",
        format!(
        "batches={batches} batch={} ops_per_pass={} window_batches={WINDOW_BATCHES} passes={timed} (each from an empty index)",
        ctx.sizes.stream_batch,
        passes.classes.len(),
    ),
    );
    out.note("pass_setup_s", format!("{setup_s:.3?}"));
    out.note("pass_walls_s", format!("{:.3?}", passes.walls));
    out.note("pass_space_amp", format!("{space_amp:?}"));
    out.note("recall_queries", run.recall.queries);

    if ctx.trace {
        let of = |class: Class| -> Vec<f64> {
            passes
                .best
                .iter()
                .zip(&passes.classes)
                .filter(|(_, c)| std::mem::discriminant(*c) == std::mem::discriminant(&class))
                .map(|(t, _)| t * 1e3)
                .collect()
        };
        let ingest = of(Class::Load(0));
        out.layers
            .extend(layers::micro(&ctx.run_dir.join("micro"), 1 << 20)?);
        out.layers.extend(clsm_layer(ctx)?);
        let accesses = last.io.total_accesses().max(1) as f64;
        out.layers.extend([
            ("stream.ingest_batch_p50_ms", median(&ingest)),
            ("stream.ingest_batch_p99_ms", percentile(&ingest, 99.0)),
            ("stream.partitions_at_end", last.partitions as f64),
            ("stream.window_exact_ms", median(&of(Class::Exact))),
            ("stream.full_exact_ms", median(&of(Class::Other))),
            (
                "storage.build_write_amp",
                last.io.physical_bytes_written as f64 / last.footprint.max(1) as f64,
            ),
            (
                "storage.build_random_frac",
                last.io.random_accesses() as f64 / accesses,
            ),
            (
                "storage.exact_phys_bytes_per_query",
                median(&last.exact_phys_bytes),
            ),
        ]);
        // The library API is the outermost layer here, and nothing inside it
        // can be called on its own from outside: every span is a root, an
        // op's fastest pass, so the trace closes by construction.
        let sampled = ctx.sizes.traced_requests.min(last.times.len());
        let spans: Vec<Span> = (0..sampled)
            .map(|op| Span {
                req: op as u32,
                name: match passes.classes[op] {
                    Class::Load(_) => "stream.ingest_batch",
                    _ => "stream.query_window",
                },
                parent: None,
                start_ns: fastest[op].0,
                end_ns: fastest[op].1,
            })
            .collect();
        for (label, class) in [("exact", Class::Exact), ("approx", Class::Approx)] {
            let reqs = |req: u32| passes.classes[req as usize] == class;
            let best: Vec<f64> = (0..sampled)
                .filter(|&op| passes.classes[op] == class)
                .map(|op| passes.best[op] * 1e6)
                .collect();
            out.note_trace(&spans, label, &reqs, median(&best));
        }
        out.spans = spans;
    }
    Ok(out)
}
