//! Scatter-gather equivalence: the distributed query path answers
//! bit-identically to single-node execution.
//!
//! Three distinct identity claims are pinned here (see DESIGN.md,
//! "Scatter-gather"):
//!
//! 1. **Exact-answer identity** — at every shard count, exact kNN through
//!    the coordinator returns the same `(id, timestamp, squared_distance)`
//!    lists, bit-for-bit, as one unsharded index over the same data.
//!    Per-shard true top-k over disjoint id ranges, merged with the
//!    engine's own total order, *is* the global top-k, and surviving
//!    candidates get their distances fully computed by the same kernel.
//! 2. **Topology identity** — a coordinator over in-process
//!    `LocalBackend`s and one over `RemoteBackend`s (real TCP workers)
//!    produce identical responses in their entirety: answers, merged
//!    `QueryCost`, everything but wall-clock.  The wire adds nothing and
//!    loses nothing (`coconut-json` prints `f64` shortest-round-trip).
//! 3. **N=1 degeneracy** — a coordinator over one shard is the identity
//!    function around a plain `PalmServer`: answers *and* `QueryCost`
//!    match the undistributed service bit-for-bit, exact and approximate
//!    alike.
//!
//! 4. **Pass-through identity** — an `insert` sent as a *frame* is routed
//!    without being decoded: the shard is handed the client's `series`
//!    text byte for byte, and the ids, totals, answers and (at N=1)
//!    `QueryCost` that follow are those of a single node given the same
//!    frames.  A `query` frame is broadcast from the client's own spans of
//!    `name`, `query`, `k` and `exact`, and answers as a single node does.
//!
//! Approximate answers and costs at N>1 are deliberately *not* compared
//! against the unsharded index: N shards hold N differently-shaped trees
//! whose pruning bounds differ, so only claims 1-3 are sound — and they
//! are the ones the coordinator's correctness rests on.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use coconut_core::backend::{BackendError, ExecutionBackend, LocalBackend};
use coconut_core::palm::{
    PalmRequest, PalmResponse, PalmServer, ERROR_KIND_CONFIG, ERROR_KIND_MALFORMED,
};
use coconut_core::{CancelToken, Dataset, IoStatsSnapshot, VariantKind};
use coconut_json::{FromJson, Json, ToJson};
use coconut_net::{Coordinator, NetServer, RemoteBackend, RequestHandler, ServerConfig};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;
use proptest::prelude::*;

const SERIES_LEN: usize = 64;

fn build_request(name: &str, dataset_path: &str) -> PalmRequest {
    build_variant(name, dataset_path, VariantKind::Clsm)
}

fn build_variant(name: &str, dataset_path: &str, variant: VariantKind) -> PalmRequest {
    PalmRequest::build_index(name, dataset_path, variant, true, 4 << 20)
}

fn query_request(name: &str, query: &[f32], k: usize, exact: bool) -> PalmRequest {
    PalmRequest::Query {
        name: name.into(),
        query: query.to_vec(),
        k,
        exact,
    }
}

/// A coordinator over `shards` in-process workers, plus the workers
/// themselves (so callers can build through the coordinator).
fn local_fleet(dir: &ScratchDir, tag: &str, shards: usize) -> Coordinator {
    let backends: Vec<Arc<dyn ExecutionBackend>> = (0..shards)
        .map(|shard| {
            let palm = Arc::new(PalmServer::new(dir.file(&format!("{tag}-w{shard}"))));
            Arc::new(LocalBackend::new(palm)) as Arc<dyn ExecutionBackend>
        })
        .collect();
    Coordinator::new(backends)
}

/// A coordinator over `shards` real TCP workers.  The returned servers
/// must stay alive while the coordinator is used.
fn remote_fleet(dir: &ScratchDir, tag: &str, shards: usize) -> (Coordinator, Vec<NetServer>) {
    let mut servers = Vec::with_capacity(shards);
    let mut backends: Vec<Arc<dyn ExecutionBackend>> = Vec::with_capacity(shards);
    for shard in 0..shards {
        let palm = Arc::new(PalmServer::new(dir.file(&format!("{tag}-w{shard}"))));
        let server = NetServer::spawn(palm, ServerConfig::default()).unwrap();
        backends.push(Arc::new(RemoteBackend::new(
            server.local_addr().to_string(),
        )));
        servers.push(server);
    }
    (Coordinator::new(backends), servers)
}

/// An in-process shard that keeps every frame it is handed.
struct Recording {
    inner: LocalBackend,
    frames: Mutex<Vec<String>>,
}

impl ExecutionBackend for Recording {
    fn describe(&self) -> String {
        "recording".to_string()
    }

    fn execute_frame(
        &self,
        frame: &str,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError> {
        self.frames.lock().unwrap().push(frame.to_string());
        self.inner.execute_frame(frame, deadline)
    }
}

/// A coordinator over `shards` recording in-process workers, and the
/// workers.
fn recording_fleet(
    dir: &ScratchDir,
    tag: &str,
    shards: usize,
) -> (Coordinator, Vec<Arc<Recording>>) {
    let recorders: Vec<Arc<Recording>> = (0..shards)
        .map(|shard| {
            let palm = Arc::new(PalmServer::new(dir.file(&format!("{tag}-w{shard}"))));
            Arc::new(Recording {
                inner: LocalBackend::new(palm),
                frames: Mutex::new(Vec::new()),
            })
        })
        .collect();
    let backends = recorders
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ExecutionBackend>)
        .collect();
    (Coordinator::new(backends), recorders)
}

/// One frame through the coordinator's wire entry point.
fn send(fleet: &Coordinator, frame: &str) -> Json {
    let reply = fleet.handle_json_bytes(frame.as_bytes().to_vec(), &CancelToken::never());
    Json::parse(&reply).unwrap()
}

/// Frames recorded across `recorders` whose text contains `needle`.
fn frames_with(recorders: &[Arc<Recording>], needle: &str) -> Vec<(usize, String)> {
    recorders
        .iter()
        .enumerate()
        .flat_map(|(shard, r)| {
            let frames = r.frames.lock().unwrap().clone();
            frames.into_iter().map(move |f| (shard, f))
        })
        .filter(|(_, f)| f.contains(needle))
        .collect()
}

/// `rows` as a `series` value in a spelling no encoder of ours produces.
fn odd_series_text(rows: &[Vec<f32>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let values: Vec<String> = row.iter().map(|v| format!("{v:e}")).collect();
            format!("[ {}\t]", values.join(" , "))
        })
        .collect();
    format!("[{} ]", rows.join(",  "))
}

/// Response JSON with the named members removed at any depth.
fn strip_keys(json: Json, keys: &[&str]) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(key, _)| !keys.contains(&key.as_str()))
                .map(|(key, value)| (key, strip_keys(value, keys)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| strip_keys(v, keys)).collect()),
        other => other,
    }
}

/// Everything but wall-clock: the comparison for claims that include
/// `QueryCost` identity (same index shapes on both sides).
fn normalized(response: &PalmResponse) -> String {
    strip_keys(response.to_json(), &["elapsed_ms"]).to_string()
}

/// Answers only — `(id, timestamp, squared_distance)` lists and their
/// derived distances.  Used where the index *shapes* differ (N shards vs
/// one tree), so costs legitimately diverge while answers must not.
fn answers(response: &PalmResponse) -> String {
    strip_keys(response.to_json(), &["elapsed_ms", "cost"]).to_string()
}

fn dataset(dir: &ScratchDir, n: usize, seed: u64) -> (String, Vec<coconut_series::Series>) {
    let mut gen = RandomWalkGenerator::new(SERIES_LEN, seed);
    let series = gen.generate(n);
    let path = dir.file("raw.bin");
    Dataset::create_from_series(&path, &series).unwrap();
    (path.to_string_lossy().into_owned(), series)
}

fn queries(series: &[coconut_series::Series], count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            let base = &series[(i * 37) % series.len()].values;
            base.iter().map(|v| v + 0.01 * (i as f32 + 1.0)).collect()
        })
        .collect()
}

/// Claim 1: exact answers through the coordinator are bit-identical to
/// one unsharded index, across shard counts and batch widths.
#[test]
fn exact_answers_match_single_node_at_every_shard_count() {
    let dir = ScratchDir::new("sg-exact").unwrap();
    let (dataset_path, series) = dataset(&dir, 240, 7);
    let single = PalmServer::new(dir.file("single"));
    assert!(matches!(
        single.handle(build_request("idx", &dataset_path)),
        PalmResponse::Built { .. }
    ));
    let qs = queries(&series, 8);
    for shards in [1usize, 2, 4] {
        let fleet = local_fleet(&dir, &format!("s{shards}"), shards);
        let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
        assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
        // Single queries, varying k.
        for (i, q) in qs.iter().enumerate() {
            let k = 1 + i % 7;
            let expected = single.handle(query_request("idx", q, k, true));
            let merged = fleet.handle_with_deadline(query_request("idx", q, k, true), None);
            assert_eq!(
                answers(&expected),
                answers(&merged),
                "exact kNN diverged at {shards} shards, k={k}"
            );
        }
        // Batched widths 1, 3, 8.
        for width in [1usize, 3, 8] {
            let batch: Vec<PalmRequest> = qs
                .iter()
                .take(width)
                .map(|q| query_request("idx", q, 5, true))
                .collect();
            let expected = single.handle(PalmRequest::Batch {
                requests: batch.clone(),
            });
            let merged = fleet.handle_with_deadline(PalmRequest::Batch { requests: batch }, None);
            assert_eq!(
                answers(&expected),
                answers(&merged),
                "batched exact kNN diverged at {shards} shards, width {width}"
            );
        }
    }
}

/// Claim 2: local and remote topologies answer identically — answers,
/// merged `QueryCost`, error-free equality of whole responses — across
/// shard counts, exactness and batch widths.
#[test]
fn local_and_remote_topologies_are_identical() {
    let dir = ScratchDir::new("sg-topo").unwrap();
    let (dataset_path, series) = dataset(&dir, 180, 11);
    let qs = queries(&series, 6);
    for shards in [1usize, 2, 4] {
        let local = local_fleet(&dir, &format!("l{shards}"), shards);
        let (remote, servers) = remote_fleet(&dir, &format!("r{shards}"), shards);
        for fleet in [&local, &remote] {
            let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
            assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
        }
        for exact in [true, false] {
            for (i, q) in qs.iter().enumerate() {
                let k = 1 + i % 5;
                let a = local.handle_with_deadline(query_request("idx", q, k, exact), None);
                let b = remote.handle_with_deadline(query_request("idx", q, k, exact), None);
                assert_eq!(
                    normalized(&a),
                    normalized(&b),
                    "topologies diverged at {shards} shards, k={k}, exact={exact}"
                );
            }
            for width in [3usize, 8] {
                let batch: Vec<PalmRequest> = qs
                    .iter()
                    .cycle()
                    .take(width)
                    .map(|q| query_request("idx", q, 4, exact))
                    .collect();
                let a = local.handle_with_deadline(
                    PalmRequest::Batch {
                        requests: batch.clone(),
                    },
                    None,
                );
                let b = remote.handle_with_deadline(PalmRequest::Batch { requests: batch }, None);
                assert_eq!(
                    normalized(&a),
                    normalized(&b),
                    "batched topologies diverged at {shards} shards, width {width}, exact={exact}"
                );
            }
        }
        // Aggregated verbs agree across topologies too.
        for request in [
            PalmRequest::ListIndexes,
            PalmRequest::Metrics { name: "idx".into() },
        ] {
            let a = local.handle_with_deadline(request.clone(), None);
            let b = remote.handle_with_deadline(request, None);
            assert_eq!(normalized(&a), normalized(&b), "{shards} shards");
        }
        for server in servers {
            let report = server.shutdown();
            assert!(report.is_clean(), "{report:?}");
        }
    }
}

/// Claim 3: one shard behind the coordinator degenerates to the plain
/// service — answers *and* costs, exact and approximate.
#[test]
fn single_shard_coordinator_degenerates_to_plain_server() {
    let dir = ScratchDir::new("sg-degenerate").unwrap();
    let (dataset_path, series) = dataset(&dir, 150, 23);
    let plain = PalmServer::new(dir.file("plain"));
    plain.handle(build_request("idx", &dataset_path));
    let fleet = local_fleet(&dir, "one", 1);
    fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
    let qs = queries(&series, 6);
    for exact in [true, false] {
        for (i, q) in qs.iter().enumerate() {
            let k = 1 + i % 6;
            let expected = plain.handle(query_request("idx", q, k, exact));
            let merged = fleet.handle_with_deadline(query_request("idx", q, k, exact), None);
            assert_eq!(
                normalized(&expected),
                normalized(&merged),
                "single-shard coordinator diverged, k={k}, exact={exact}"
            );
        }
    }
    // Metrics degenerate too (one shard, nothing to aggregate).
    let expected = plain.handle(PalmRequest::Metrics { name: "idx".into() });
    let merged = fleet.handle_with_deadline(PalmRequest::Metrics { name: "idx".into() }, None);
    assert_eq!(normalized(&expected), normalized(&merged));
}

/// A sharded build's report, and the fleet's `metrics`, sum every shard's
/// I/O on all eight counters: the coordinator's `io` is the `plus` of what
/// each worker reports for its own shard, physical bytes included.
#[test]
fn built_io_sums_every_counter_across_shards() {
    let dir = ScratchDir::new("sg-built-io").unwrap();
    let (dataset_path, _) = dataset(&dir, 120, 23);
    let palms: Vec<Arc<PalmServer>> = (0..2)
        .map(|shard| Arc::new(PalmServer::new(dir.file(&format!("w{shard}")))))
        .collect();
    let fleet = Coordinator::new(
        palms
            .iter()
            .map(|palm| Arc::new(LocalBackend::new(Arc::clone(palm))) as Arc<dyn ExecutionBackend>)
            .collect(),
    );
    let request = build_variant("idx", &dataset_path, VariantKind::CTree);
    let metrics = || PalmRequest::Metrics { name: "idx".into() };
    let io_of = |response: PalmResponse| match response {
        PalmResponse::Built { report, .. } | PalmResponse::Metrics { report, .. } => report.io,
        other => panic!("unexpected response {other:?}"),
    };
    let built = io_of(fleet.handle_with_deadline(request, None));
    let shards: Vec<IoStatsSnapshot> = palms
        .iter()
        .map(|palm| io_of(palm.handle(metrics())))
        .collect();
    let sum = shards[0].plus(&shards[1]);
    assert_eq!(built, sum);
    assert_eq!(io_of(fleet.handle_with_deadline(metrics(), None)), sum);
    assert!(shards.iter().all(|io| io.physical_bytes_written > 0));
}

/// Sharded `stats` aggregates per-shard counters: the fleet's requests
/// and cache counters are the field-wise sums of its workers'.
#[test]
fn stats_aggregate_across_shards() {
    let dir = ScratchDir::new("sg-stats").unwrap();
    let (dataset_path, series) = dataset(&dir, 120, 31);
    let fleet = local_fleet(&dir, "st", 2);
    fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
    for q in queries(&series, 4) {
        let response = fleet.handle_with_deadline(query_request("idx", &q, 3, true), None);
        assert!(matches!(response, PalmResponse::QueryResult { .. }));
    }
    match fleet.handle_with_deadline(PalmRequest::Stats, None) {
        PalmResponse::Stats { stats } => {
            // Each of the 2 shards saw the build, 4 queries, and the
            // scattered stats request itself.
            assert_eq!(stats.requests, 12, "per-shard counters must sum");
            assert_eq!(
                stats.indexes, 1,
                "indexes reports the fleet-wide name count"
            );
        }
        other => panic!("unexpected stats response {other:?}"),
    }
}

/// A client's `deadline_ms` reaches each shard as the last member of the
/// coordinator's frame, at whatever time is left.  Shards key a request
/// with that value cut out, so asking a query, or a batch, a second time at
/// another deadline is a cache hit on every shard, and the merged replies
/// are those of the first ask apart from `elapsed_ms`.
#[test]
fn repeated_requests_hit_every_shard_cache_through_the_coordinator() {
    let dir = ScratchDir::new("sg-cache").unwrap();
    let (dataset_path, series) = dataset(&dir, 120, 19);
    let palms: Vec<Arc<PalmServer>> = (0..2)
        .map(|shard| {
            let work = dir.file(&format!("w{shard}"));
            Arc::new(PalmServer::new(work).with_result_cache(64))
        })
        .collect();
    let fleet = Coordinator::new(
        palms
            .iter()
            .map(|palm| Arc::new(LocalBackend::new(Arc::clone(palm))) as Arc<dyn ExecutionBackend>)
            .collect(),
    );
    let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    let qs: Vec<PalmRequest> = queries(&series, 4)
        .iter()
        .map(|q| query_request("idx", q, 3, true))
        .collect();
    let batch = PalmRequest::Batch {
        requests: qs.clone(),
    };
    for (request, width) in [(&qs[1], 1), (&batch, qs.len() as u64)] {
        let text = request.to_json().to_string();
        let ask = |deadline_ms: u64| {
            let frame = format!(
                "{},\"deadline_ms\":{deadline_ms}}}",
                &text[..text.len() - 1]
            );
            strip_keys(send(&fleet, &frame), &["elapsed_ms"])
        };
        let first = ask(60_000);
        let before: Vec<_> = palms.iter().map(|palm| palm.stats()).collect();
        let second = ask(59_000);
        assert_eq!(first, second, "{text}");
        assert!(second.get("kind").is_none(), "{second:?}");
        for (shard, (palm, before)) in palms.iter().zip(before).enumerate() {
            let after = palm.stats();
            assert_eq!(
                (
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses
                ),
                (width, 0),
                "shard {shard}: {text}"
            );
        }
    }
}

/// Claim 4: insert frames are forwarded, not re-encoded, and leave the
/// fleet where a single node given the same frames would be.
#[test]
fn insert_frames_pass_through_and_match_single_node() {
    let dir = ScratchDir::new("sg-frames").unwrap();
    let (dataset_path, series) = dataset(&dir, 100, 5);
    let single = PalmServer::new(dir.file("single"));
    single.handle(build_request("idx", &dataset_path));
    let (one, one_recorders) = recording_fleet(&dir, "one", 1);
    let (two, two_recorders) = recording_fleet(&dir, "two", 2);
    for fleet in [&one, &two] {
        let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
        assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    }
    let mut gen = RandomWalkGenerator::new(SERIES_LEN, 0xf00d);
    let batches: Vec<Vec<Vec<f32>>> = [3usize, 1, 2]
        .iter()
        .map(|&n| (0..n).map(|_| gen.next_series().values).collect())
        .collect();
    // Members in three orders, whitespace everywhere, the name escaped, a
    // member nobody knows, a deadline of the client's own.
    let texts: Vec<String> = batches.iter().map(|b| odd_series_text(b)).collect();
    let frames = [
        format!(r#"{{"type":"insert","name":"idx","series":{},"timestamp":1}}"#, texts[0]),
        format!(
            " {{ \"series\" : {} ,\"timestamp\":2 , \"name\":\"i\\u0064x\",\"note\":[\"]}}\"],\t\"type\":\"insert\" }} ",
            texts[1]
        ),
        format!(
            r#"{{"deadline_ms":60000,"timestamp":null,"name":"idx","type":"ins\u0065rt","series":{}}}"#,
            texts[2]
        ),
    ];
    let mut next_id = series.len() as u64;
    for ((frame, text), batch) in frames.iter().zip(&texts).zip(&batches) {
        let expected = Json::parse(&single.handle_json(frame)).unwrap();
        assert_eq!(
            expected.get("type").and_then(Json::as_str),
            Some("inserted")
        );
        for (fleet, recorders) in [(&one, &one_recorders), (&two, &two_recorders)] {
            assert_eq!(send(fleet, frame), expected, "{frame}");
            let seen = frames_with(recorders, text);
            assert_eq!(seen.len(), 1, "one shard gets the client's rows, verbatim");
            let forwarded = &seen[0].1;
            assert!(forwarded.contains(&format!("\"base_id\":{next_id},")));
            assert_eq!(
                forwarded.matches("deadline_ms").count(),
                usize::from(frame.contains("deadline_ms")),
                "{forwarded}"
            );
            assert!(!forwarded.contains("note"));
        }
        next_id += batch.len() as u64;
    }
    // The rows landed under the ids a single node gave them, and cost what
    // they cost there.
    for (i, row) in batches.iter().flatten().enumerate() {
        for exact in [true, false] {
            let request = query_request("idx", row, 3, exact);
            let expected = single.handle(request.clone());
            match &expected {
                PalmResponse::QueryResult { ids, .. } => {
                    assert_eq!(ids[0], (series.len() + i) as u64)
                }
                other => panic!("unexpected response {other:?}"),
            }
            let through_one = one.handle_with_deadline(request.clone(), None);
            assert_eq!(normalized(&expected), normalized(&through_one));
            if exact {
                let through_two = two.handle_with_deadline(request, None);
                assert_eq!(answers(&expected), answers(&through_two));
            }
        }
    }
}

/// Claim 4, queries: a query frame is broadcast from the client's own spans,
/// never printed anew, and answers as a single node given the same frame.
/// A frame the coordinator refuses as malformed is refused in the very words
/// a full parse would use, and no shard hears of it.
#[test]
fn query_frames_pass_through_and_match_single_node() {
    let dir = ScratchDir::new("sg-query-frames").unwrap();
    let (dataset_path, series) = dataset(&dir, 100, 29);
    let single = PalmServer::new(dir.file("single"));
    single.handle(build_request("idx", &dataset_path));
    let (one, one_recorders) = recording_fleet(&dir, "one", 1);
    let (two, two_recorders) = recording_fleet(&dir, "two", 2);
    for fleet in [&one, &two] {
        let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
        assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    }
    // Every shard frame carries the front end's deadline, folded.
    let ask = |fleet: &Coordinator, frame: &str| {
        let cancel = CancelToken::at(std::time::Instant::now() + Duration::from_secs(60));
        fleet.handle_json_bytes(frame.as_bytes().to_vec(), &cancel)
    };
    let spelled = |values: &[f32]| {
        let values: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
        format!("[ {}\t]", values.join(" , "))
    };
    let qs = queries(&series, 3);
    // (name, query, k, exact) as the client spells them, and the frame.
    let cases: Vec<([String; 4], String)> = qs
        .iter()
        .enumerate()
        .flat_map(|(i, q)| {
            let query = spelled(q);
            let k = format!("{}", 2 + i);
            [true, false].map(|exact| {
                let name = if i == 1 { r#""i\u0064x""# } else { r#""idx""# };
                let spans = [
                    name.to_string(),
                    query.clone(),
                    k.clone(),
                    exact.to_string(),
                ];
                let [name, query, k, exact] = &spans;
                let frame = match i {
                    0 => format!(
                        r#"{{"type":"query","name":{name},"query":{query},"k":{k},"exact":{exact}}}"#
                    ),
                    1 => format!(
                        " {{ \"exact\" : {exact} ,\"note\":[\"}}\"], \"k\":{k},\t\"query\": {query}, \"name\":{name} ,\"type\":\"qu\\u0065ry\" }} "
                    ),
                    _ => format!(
                        r#"{{"deadline_ms":60000,"k":{k},"name":{name},"type":"query","query":{query},"exact":{exact}}}"#
                    ),
                };
                (spans, frame)
            })
        })
        .collect();
    for ([name, query, k, exact], frame) in &cases {
        let expected = Json::parse(&single.handle_json(frame)).unwrap();
        assert_eq!(
            expected.get("type").and_then(Json::as_str),
            Some("query_result")
        );
        let through_one = Json::parse(&ask(&one, frame)).unwrap();
        assert_eq!(
            strip_keys(through_one, &["elapsed_ms"]),
            strip_keys(expected.clone(), &["elapsed_ms"]),
            "{frame}"
        );
        if exact == "true" {
            let through_two = Json::parse(&ask(&two, frame)).unwrap();
            assert_eq!(
                strip_keys(through_two, &["elapsed_ms", "cost"]),
                strip_keys(expected, &["elapsed_ms", "cost"]),
                "{frame}"
            );
        }
        // Each shard got the client's spans byte for byte, in the order a
        // typed encoding writes them, then one deadline, last.
        let head = format!(
            r#"{{"type":"query","name":{name},"query":{query},"k":{k},"exact":{exact},"deadline_ms":"#
        );
        let asked: &[_] = if exact == "true" {
            &[&one_recorders, &two_recorders]
        } else {
            &[&one_recorders]
        };
        for recorders in asked {
            for recorder in recorders.iter() {
                let frames = recorder.frames.lock().unwrap();
                let forwarded = frames.last().expect("the shard was asked");
                let deadline = forwarded
                    .strip_prefix(&head)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .unwrap_or_else(|| panic!("{forwarded}"));
                assert!(
                    !deadline.is_empty()
                        && deadline.bytes().all(|b| b.is_ascii_digit() || b == b'.'),
                    "{forwarded}"
                );
            }
        }
    }

    // Refused as a full parse refuses them, before any shard hears of them.
    let contacted = |recorders: &[Arc<Recording>]| -> usize {
        recorders
            .iter()
            .map(|r| r.frames.lock().unwrap().len())
            .sum()
    };
    let before = contacted(&two_recorders);
    for frame in [
        r#"{"type":"query","name":"idx","query":[1,2],"exact":true}"#,
        r#"{"type":"query","name":"idx","query":[1,2],"k":"2","exact":true}"#,
        r#"{"type":"query","name":"idx","query":{"0":1},"k":2,"exact":true}"#,
        r#"{"type":"query","name":"idx","query":[1,2],"k":2}"#,
        r#"{"type":"query","name":"idx","query":[1,"2"],"k":2,"exact":true}"#,
        r#"{"type":"query","query":[1,2],"k":2,"exact":true}"#,
        r#"{"type":"query","name":"idx","query":[1,2],"k":2,"exact":1}"#,
    ] {
        let e = Json::parse(frame)
            .and_then(|json| PalmRequest::from_json(&json))
            .expect_err(frame);
        let malformed = PalmResponse::Error {
            kind: ERROR_KIND_MALFORMED.to_string(),
            message: format!("malformed request: {e}"),
            partial_cost: None,
            retry_after_ms: None,
            shard_costs: None,
        };
        assert_eq!(ask(&two, frame), malformed.to_json().to_string(), "{frame}");
    }
    assert_eq!(
        contacted(&two_recorders),
        before,
        "a refused frame reached a shard"
    );
}

/// A frame the coordinator can refuse on its own never reaches a shard: not
/// one JSON object, cut short, followed by garbage, or carrying a member
/// that is the coordinator's to set.
#[test]
fn hostile_insert_frames_contact_no_shard() {
    let dir = ScratchDir::new("sg-hostile").unwrap();
    let (dataset_path, _) = dataset(&dir, 60, 9);
    let (fleet, recorders) = recording_fleet(&dir, "h", 2);
    fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
    let contacted = |recorders: &[Arc<Recording>]| -> usize {
        recorders
            .iter()
            .map(|r| r.frames.lock().unwrap().len())
            .sum()
    };
    let before = contacted(&recorders);
    let whole = format!(
        r#"{{"type":"insert","name":"idx","series":{},"timestamp":4}}"#,
        odd_series_text(&[vec![0.5; SERIES_LEN]])
    );
    let mut hostile: Vec<String> = (1..whole.len())
        .step_by(7)
        .map(|cut| whole[..cut].to_string())
        .collect();
    hostile.extend(["}", " x", ",{}", "\u{1}"].map(|tail| format!("{whole}{tail}")));
    hostile.extend(
        [
            r#"[{"type":"insert","name":"idx","series":[]}]"#,
            r#"{"type":"insert","name":"idx"}"#,
            r#"{"type":"insert","series":[]}"#,
            r#"{"type":"insert","name":7,"series":[]}"#,
            r#"{"type":"insert","name":"idx","series":{"0":[1]}}"#,
            r#"{"type":"insert","name":"idx","series":[],"timestamp":-1}"#,
            r#"{"type":"insert","name":"idx","series":[],"deadline_ms":"soon"}"#,
            r#"{"type":"insert","name":"idx","series":[[1e]]}"#,
        ]
        .map(str::to_string),
    );
    // Nested past the parser's depth limit: refused before it recurses
    // through the connection thread's stack.
    hostile.push(format!(
        r#"{{"type":"insert","name":"idx","series":{}}}"#,
        "[".repeat(100_000)
    ));
    // A 354 KB frame, which the coordinator checks on several threads
    // split at row boundaries, with a bad number past its middle.
    let row = |seed: usize| {
        let values: Vec<String> = (0..SERIES_LEN)
            .map(|i| format!("{}", ((seed * SERIES_LEN + i) as f32 * 0.37).sin()))
            .collect();
        format!("[{}]", values.join(","))
    };
    let rows: Vec<String> = (0..512).map(row).collect();
    let large = format!(
        r#"{{"type":"insert","name":"idx","series":[{}],"timestamp":4}}"#,
        rows.join(",")
    );
    assert!((340_000..370_000).contains(&large.len()), "{}", large.len());
    let past_middle = large.len() / 2 + 1000;
    let bad = past_middle + large[past_middle..].find(',').unwrap() + 1;
    hostile.push(format!("{}1e{}", &large[..bad], &large[bad..]));
    for frame in &hostile {
        let reply = send(&fleet, frame);
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some(ERROR_KIND_MALFORMED),
            "{frame:?} -> {reply:?}"
        );
    }
    let reply = send(
        &fleet,
        r#"{"type":"insert","name":"idx","series":[],"base_id":3}"#,
    );
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some(ERROR_KIND_CONFIG)
    );
    assert_eq!(
        contacted(&recorders),
        before,
        "a refused frame reached a shard"
    );
}

/// A shard that rejects an insert before applying it does not use up ids
/// or the shard's turn: the next accepted insert is placed, and numbered, as
/// if the rejected one had never been sent.  And nothing of a rejected batch
/// stays behind to share those ids, whichever index variant refused it.
#[test]
fn rejected_insert_leaves_the_ids_for_the_next_one() {
    let dir = ScratchDir::new("sg-reject").unwrap();
    let (dataset_path, series) = dataset(&dir, 80, 13);
    let count = series.len() as u64;
    let good: Vec<f32> = series[3].values.iter().map(|v| v + 0.5).collect();
    let row: Vec<f32> = series[7].values.iter().map(|v| v + 0.25).collect();
    let rejected = [
        // Valid JSON, so it is routed; rows that are not arrays.
        (
            r#"{"type":"insert","name":"idx","series":[1,2,3]}"#.to_string(),
            ERROR_KIND_MALFORMED,
        ),
        // A row the index could take, then one of the wrong length.
        (
            format!(
                r#"{{"type":"insert","name":"idx","series":{}}}"#,
                odd_series_text(&[good.clone(), vec![1.0, 2.0]])
            ),
            ERROR_KIND_CONFIG,
        ),
        // ... then one holding a value past f32 (it decodes as infinity).
        (
            format!(
                r#"{{"type":"insert","name":"idx","series":{}}}"#,
                odd_series_text(&[good.clone(), overflowing(&row)])
            )
            .replace(OVERFLOW_MARK, "1e39"),
            ERROR_KIND_CONFIG,
        ),
    ];
    for variant in [VariantKind::Clsm, VariantKind::CTree, VariantKind::Ads] {
        let (fleet, recorders) = recording_fleet(&dir, &format!("r-{variant:?}"), 2);
        let built = fleet.handle_with_deadline(build_variant("idx", &dataset_path, variant), None);
        assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
        for (frame, kind) in &rejected {
            let reply = send(&fleet, frame);
            assert_eq!(
                reply.get("kind").and_then(Json::as_str),
                Some(*kind),
                "{variant:?}: {reply:?}"
            );
        }
        let accepted = send(
            &fleet,
            &format!(
                r#"{{"type":"insert","name":"idx","series":{}}}"#,
                odd_series_text(std::slice::from_ref(&row))
            ),
        );
        assert_eq!(
            accepted.get("total").and_then(Json::as_f64),
            Some((count + 1) as f64)
        );
        let inserts = frames_with(&recorders, "\"insert\"");
        assert_eq!(inserts.len(), rejected.len() + 1);
        for (shard, frame) in &inserts {
            assert_eq!(*shard, 0, "a rejected insert used up shard 0's turn");
            assert!(frame.contains(&format!("\"base_id\":{count},")), "{frame}");
        }
        // `count` names the accepted row and nothing else: the good row of
        // the refused batch is in no shard.
        for (query, inserted) in [(&row, true), (&good, false)] {
            match fleet.handle_with_deadline(query_request("idx", query, 1, true), None) {
                PalmResponse::QueryResult {
                    ids,
                    squared_distances,
                    ..
                } => assert_eq!(
                    (ids[0] == count, squared_distances[0] == 0.0),
                    (inserted, inserted),
                    "{variant:?}: {ids:?} {squared_distances:?}"
                ),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
}

/// A value `odd_series_text` spells uniquely, for a test to swap for an
/// out-of-range literal.
const OVERFLOW_MARK: &str = "1.2345e4";

/// `values` with value 5 set to [`OVERFLOW_MARK`].
fn overflowing(values: &[f32]) -> Vec<f32> {
    let mut values = values.to_vec();
    values[5] = 12345.0;
    values
}

/// A query the shards would refuse is refused through the coordinator as
/// single-node refuses it, with a typed `config` reply: a non-finite value
/// by the coordinator itself (its re-encoding cannot carry one, so no shard
/// hears of it), a wrong length or `k: 0` by the shards.  In a batch, only
/// the bad positions are refused.
#[test]
fn bad_queries_are_config_errors_through_the_coordinator() {
    let dir = ScratchDir::new("sg-bad-query").unwrap();
    let (dataset_path, series) = dataset(&dir, 80, 17);
    let (fleet, recorders) = recording_fleet(&dir, "bq", 2);
    let built = fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    let query = |values: &[f32]| {
        let values: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
        format!(
            r#"{{"type":"query","name":"idx","query":[{}],"k":2,"exact":true}}"#,
            values.join(",")
        )
        .replace(OVERFLOW_MARK, "1e39")
    };
    let good = query(&series[4].values);
    let overflow = query(&overflowing(&series[4].values));
    let short = query(&series[4].values[..10]);
    let zero_k = good.replace(r#""k":2"#, r#""k":0"#);
    let scattered = frames_with(&recorders, "\"query\"").len();
    let reply = send(&fleet, &overflow);
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some(ERROR_KIND_CONFIG),
        "{reply:?}"
    );
    assert_eq!(
        frames_with(&recorders, "\"query\"").len(),
        scattered,
        "a shard heard it"
    );
    for bad in [&short, &zero_k] {
        let reply = send(&fleet, bad);
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some(ERROR_KIND_CONFIG),
            "{reply:?}"
        );
    }
    let batch = format!(r#"{{"type":"batch","requests":[{good},{overflow},{short}]}}"#);
    let reply = send(&fleet, &batch);
    let kinds: Vec<Option<&str>> = reply
        .get("responses")
        .and_then(Json::as_arr)
        .expect("a batch reply")
        .iter()
        .map(|r| r.get("kind").and_then(Json::as_str))
        .collect();
    assert_eq!(
        kinds,
        [None, Some(ERROR_KIND_CONFIG), Some(ERROR_KIND_CONFIG)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random query/insert interleavings against both topologies: after
    /// every operation the exact answers of the unsharded single node and
    /// the 2-shard coordinator agree bit-for-bit.  Inserts go through the
    /// coordinator's id routing, so this also pins that the coordinator's
    /// global id assignment matches single-node sequential assignment.
    #[test]
    fn random_interleavings_agree_across_topologies(
        seed in 0u64..500,
        ops in proptest::collection::vec(0u8..4, 4..12),
    ) {
        let dir = ScratchDir::new("sg-prop").unwrap();
        let (dataset_path, series) = dataset(&dir, 90, seed);
        let single = PalmServer::new(dir.file("single"));
        single.handle(build_request("idx", &dataset_path));
        let fleet = local_fleet(&dir, "fleet", 2);
        fleet.handle_with_deadline(build_request("idx", &dataset_path), None);
        let mut gen = RandomWalkGenerator::new(SERIES_LEN, seed ^ 0xc0c0);
        for (step, op) in ops.into_iter().enumerate() {
            if op == 0 {
                // Insert a small batch through both topologies.
                let fresh: Vec<Vec<f32>> = (0..1 + step % 3).map(|_| gen.next_series().values).collect();
                let insert = PalmRequest::Insert {
                    name: "idx".into(),
                    series: fresh,
                    timestamp: step as u64,
                    base_id: None,
                };
                let a = single.handle(insert.clone());
                let b = fleet.handle_with_deadline(insert, None);
                // Inserted totals agree because the coordinator's global
                // id space starts at the dataset length, like the index's.
                prop_assert_eq!(normalized(&a), normalized(&b), "insert diverged at step {}", step);
            } else {
                let q: Vec<f32> = series[(seed as usize + step * 13) % series.len()]
                    .values
                    .iter()
                    .map(|v| v + 0.02 * op as f32)
                    .collect();
                let k = 1 + (step % 5);
                let expected = single.handle(query_request("idx", &q, k, true));
                let merged = fleet.handle_with_deadline(query_request("idx", &q, k, true), None);
                prop_assert_eq!(
                    answers(&expected),
                    answers(&merged),
                    "query diverged at step {}", step
                );
            }
        }
    }
}
