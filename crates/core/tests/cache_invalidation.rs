//! Cache-invalidation ordering: a reader racing a writer must never
//! observe a stale cached answer, and a cached server must be
//! indistinguishable — bit for bit — from an uncached one under any
//! interleaving of queries and inserts.
//!
//! The invalidation design under test (see DESIGN.md, "Palm over the
//! wire"): every slot carries a monotonic version tag bumped under the
//! write lock; cache entries record the version they were computed
//! against and are unservable the moment it changes, even if the purge
//! races an in-flight insert into the cache.  A `batch` runs its
//! sub-queries concurrently on the server's pool, so they record into the
//! cache concurrently too.

use std::time::Duration;

use coconut_core::backend::encode_frame;
use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{Dataset, VariantKind};
use coconut_json::{FromJson, Json, ToJson};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;
use proptest::prelude::*;

fn build_request(name: &str, dataset_path: &str) -> PalmRequest {
    PalmRequest::build_index(name, dataset_path, VariantKind::Clsm, true, 1 << 20)
}

fn make_dataset(
    dir: &ScratchDir,
    count: usize,
    seed: u64,
) -> (String, Vec<coconut_series::Series>) {
    let mut gen = RandomWalkGenerator::new(64, seed);
    let series = gen.generate(count);
    let path = dir.file("raw.bin");
    Dataset::create_from_series(&path, &series).unwrap();
    (path.to_string_lossy().into_owned(), series)
}

/// Strips the timing member so responses can be compared for identity.
fn identity_view(response: &PalmResponse) -> String {
    reply_view(&response.to_json().to_string())
}

/// [`identity_view`] of a reply as `handle_json` returns it, the replies
/// in a `batch_result` included.
fn reply_view(reply: &str) -> String {
    fn strip(json: Json) -> Json {
        match json {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| k != "elapsed_ms")
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    let json = Json::parse(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    strip(json).to_string()
}

/// The first distance of a `query_result` reply.
fn nearest(reply: &str) -> f64 {
    Json::parse(reply)
        .ok()
        .and_then(|json| json.get("distances")?.as_arr()?.first()?.as_f64())
        .unwrap_or_else(|| panic!("query failed: {reply}"))
}

/// `request`, a query, spelled the way the encoder never spells it: members
/// reversed, whitespace around every token, `k` as `3.0` and every value in
/// exponent form.  It asks exactly what the canonical spelling asks.
fn respelled(request: &PalmRequest) -> String {
    let PalmRequest::Query {
        name,
        query,
        k,
        exact,
    } = request
    else {
        panic!("only queries are respelled");
    };
    let values: Vec<String> = query.iter().map(|&v| format!("{:e}", v as f64)).collect();
    format!(
        "{{ \"exact\" : {exact} , \"k\" : {k}.0 , \"query\" : [ {} ] , \"name\" : {} , \"type\" : \"query\" }}",
        values.join(" , "),
        Json::Str(name.clone()).to_string()
    )
}

/// Satellite stress test: a writer streams ever-closer matches to a fixed
/// query while readers hammer that exact query (the worst case for a
/// result cache — every request shares one cache key).  Each reader's
/// observed nearest distance must be non-increasing: serving one stale
/// cached answer after an insert landed would bounce it back up.
#[test]
fn readers_racing_inserts_never_observe_stale_answers() {
    let dir = ScratchDir::new("cache-race").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 200, 5);
    let server = PalmServer::new(dir.file("work")).with_result_cache(128);
    let built = server.handle(build_request("race", &dataset_path));
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");

    let query: Vec<f32> = series[3].values.iter().map(|v| v + 4.0).collect();
    let rounds = 24u64;
    std::thread::scope(|scope| {
        let server = &server;
        let query = &query;
        let writer = scope.spawn(move || {
            for round in 0..rounds {
                // Each insert is strictly closer to the query than every
                // earlier series: distance shrinks round by round.
                let offset = 2.0 - (round as f32 / rounds as f32) * 2.0 + 0.01;
                let close: Vec<f32> = query.iter().map(|v| v + offset).collect();
                match server.handle(PalmRequest::Insert {
                    name: "race".into(),
                    series: vec![close],
                    timestamp: round,
                    base_id: None,
                }) {
                    PalmResponse::Inserted { .. } => {}
                    other => panic!("insert failed: {other:?}"),
                }
                std::thread::yield_now();
            }
        });
        // Readers on the frame path, the last in `encode_frame`'s form with
        // a fresh deadline on every ask: a recorded reply is served only
        // while its version is current.
        for reader in 0..5 {
            scope.spawn(move || {
                let request = PalmRequest::Query {
                    name: "race".into(),
                    query: query.clone(),
                    k: 1,
                    exact: true,
                };
                let mut last = f64::INFINITY;
                for ask in 0..60 {
                    let frame = if reader == 4 {
                        encode_frame(&request, Some(Duration::from_millis(60_000 + ask)))
                    } else {
                        request.to_json().to_string()
                    };
                    let distance = nearest(&server.handle_json(&frame));
                    assert!(
                        distance <= last,
                        "stale cached answer: distance went {last} -> {distance}"
                    );
                    last = distance;
                }
            });
        }
        writer.join().unwrap();
    });

    // Settled state: the cached answer equals a fresh computation.
    let request = PalmRequest::Query {
        name: "race".into(),
        query: query.clone(),
        k: 1,
        exact: true,
    };
    let cached = server.handle_json(&request.to_json().to_string());
    let fresh_server = PalmServer::new(dir.file("work2"));
    fresh_server.handle(build_request("race", &dataset_path));
    // Replay the writer's inserts so both servers hold the same data.
    for round in 0..rounds {
        let offset = 2.0 - (round as f32 / rounds as f32) * 2.0 + 0.01;
        let close: Vec<f32> = query.iter().map(|v| v + offset).collect();
        fresh_server.handle(PalmRequest::Insert {
            name: "race".into(),
            series: vec![close],
            timestamp: round,
            base_id: None,
        });
    }
    let computed = fresh_server.handle(request);
    assert_eq!(
        reply_view(&cached),
        identity_view(&computed),
        "cached answer must equal recomputation"
    );
    let stats = server.stats();
    assert!(
        stats.cache_hits > 0,
        "the race must exercise hits: {stats:?}"
    );
}

/// Service-layer stress test: spawned readers issue single and batched
/// queries against one index while one writer streams appends through the
/// shared `&self` server.  The batches go through the cached frame path, so
/// their sub-queries record into the cache while the writer bumps versions.
/// Every response must be a valid snapshot — never an error, and a query
/// matching a build-time series always finds it.
#[test]
fn concurrent_reads_during_append_observe_valid_snapshots() {
    let dir = ScratchDir::new("beq-stress").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 300, 3);
    let server = PalmServer::new(dir.file("work")).with_result_cache(64);
    let mut build = build_request("stress", &dataset_path);
    if let PalmRequest::BuildIndex { shard_count, .. } = &mut build {
        *shard_count = 2;
    }
    let built = server.handle(build);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");

    let anchors: Vec<(u64, Vec<f32>)> = [7u64, 120, 288]
        .into_iter()
        .map(|id| {
            let q: Vec<f32> = series[id as usize]
                .values
                .iter()
                .map(|v| v + 0.0005)
                .collect();
            (id, q)
        })
        .collect();
    let query = |q: &[f32]| PalmRequest::Query {
        name: "stress".into(),
        query: q.to_vec(),
        k: 1,
        exact: true,
    };
    let batch = PalmRequest::Batch {
        requests: anchors.iter().map(|(_, q)| query(q)).collect(),
    }
    .to_json()
    .to_string();

    std::thread::scope(|scope| {
        let server = &server;
        let (anchors, query, batch) = (&anchors, &query, &batch);
        let writer = scope.spawn(move || {
            let mut gen = RandomWalkGenerator::new(64, 999);
            for round in 0..15u64 {
                let batch: Vec<Vec<f32>> = (0..40).map(|_| gen.next_series().values).collect();
                match server.handle(PalmRequest::Insert {
                    name: "stress".into(),
                    series: batch,
                    timestamp: round,
                    base_id: None,
                }) {
                    PalmResponse::Inserted { inserted, .. } => assert_eq!(inserted, 40),
                    other => panic!("insert failed: {other:?}"),
                }
            }
        });
        for reader in 0..4usize {
            scope.spawn(move || {
                for i in 0..12 {
                    let (id, q) = &anchors[(reader + i) % anchors.len()];
                    if i % 3 == 0 {
                        // Batched reads share the same snapshot guarantee.
                        let reply = Json::parse(&server.handle_json(batch)).unwrap();
                        match PalmResponse::from_json(&reply).unwrap() {
                            PalmResponse::Batch { responses } => {
                                for (response, (id, _)) in responses.iter().zip(anchors.iter()) {
                                    match response {
                                        PalmResponse::QueryResult { ids, .. } => {
                                            assert_eq!(ids, &vec![*id])
                                        }
                                        other => panic!("batched query failed: {other:?}"),
                                    }
                                }
                            }
                            other => panic!("batch failed: {other:?}"),
                        }
                    } else {
                        match server.handle(query(q)) {
                            PalmResponse::QueryResult { ids, .. } => assert_eq!(&ids, &vec![*id]),
                            other => panic!("query failed: {other:?}"),
                        }
                    }
                }
            });
        }
        writer.join().unwrap();
    });

    // After the writer joined, the index holds every append.
    match server.handle(PalmRequest::Metrics {
        name: "stress".into(),
    }) {
        PalmResponse::Metrics { report, .. } => assert_eq!(report.entries, 300),
        other => panic!("metrics failed: {other:?}"),
    }
    match server.handle(query(&series[7].values)) {
        PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![7]),
        other => panic!("final query failed: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drive a cached and an uncached server through the same random
    /// interleaving of queries, inserts and rebuilds: every response — ids,
    /// distance bits, costs, insert totals — must be identical.  Any
    /// invalidation bug (stale entry surviving a write, over-eager key
    /// matching, ABA across versions) shows up as a divergence.  The cached
    /// server takes each query as frame text in two spellings (the second is
    /// another key), then in `encode_frame`'s form at a fresh deadline, which
    /// is one key whatever the deadline, then with deadlines the key must
    /// not cut: refused ones and one spelled in exponent form.
    #[test]
    fn interleaved_queries_and_inserts_cached_equals_uncached(
        seed in 0u64..1000,
        ops in proptest::collection::vec(0u64..1_000_000u64, 6..30),
    ) {
        let dir = ScratchDir::new("cache-prop").unwrap();
        let (dataset_path, _series) = make_dataset(&dir, 80, seed);
        let cached = PalmServer::new(dir.file("work-cached")).with_result_cache(16);
        let uncached = PalmServer::new(dir.file("work-uncached"));
        cached.handle(build_request("p", &dataset_path));
        uncached.handle(build_request("p", &dataset_path));

        // A small query pool makes repeats (cache hits) likely.
        let mut qgen = RandomWalkGenerator::new(64, seed ^ 0xabcd);
        let pool: Vec<Vec<f32>> = (0..5).map(|_| qgen.next_series().values).collect();

        let mut fresh = 0u64;
        for encoded in ops {
            // One draw encodes the op kind and its argument.
            let (op, arg) = ((encoded % 6) as u8, encoded / 6);
            if op == 5 {
                // A rebuild under the same name, which drops every insert:
                // a reply recorded before it must never answer after it.
                // The sync first lets the old index's queued unlinks run
                // before the new build reuses its file names.
                for server in [&cached, &uncached] {
                    server.sync_all().unwrap();
                    let built = server.handle(build_request("p", &dataset_path));
                    prop_assert!(matches!(built, PalmResponse::Built { .. }), "{:?}", built);
                }
                continue;
            }
            let request = match op {
                // Inserts: identical fresh series on both servers.
                0 => {
                    let mut gen = RandomWalkGenerator::new(64, arg);
                    let batch: Vec<Vec<f32>> =
                        (0..1 + (arg % 3) as usize).map(|_| gen.next_series().values).collect();
                    PalmRequest::Insert {
                        name: "p".into(),
                        series: batch,
                        timestamp: arg,
                        base_id: None,
                    }
                }
                // Queries from the pool, varying k and exactness.
                _ => PalmRequest::Query {
                    name: "p".into(),
                    query: pool[arg as usize % pool.len()].clone(),
                    k: 1 + (arg % 4) as usize,
                    exact: op % 2 == 0,
                },
            };
            let expected = identity_view(&uncached.handle(request.clone()));
            if matches!(request, PalmRequest::Query { .. }) {
                let canonical = request.to_json().to_string();
                for frame in [canonical.clone(), respelled(&request)] {
                    prop_assert_eq!(
                        reply_view(&cached.handle_json(&frame)),
                        expected.clone(),
                        "cached and uncached servers diverged on {}",
                        frame
                    );
                }
                // Asked a second time, at another deadline, the form is a hit.
                for ask in 0..2 {
                    fresh += 1;
                    let frame =
                        encode_frame(&request, Some(Duration::from_micros(60_000_000 + fresh * 250)));
                    let hits = cached.stats().cache_hits;
                    prop_assert_eq!(
                        reply_view(&cached.handle_json(&frame)),
                        expected.clone(),
                        "cached and uncached servers diverged on {}",
                        frame
                    );
                    if ask == 1 {
                        prop_assert_eq!(cached.stats().cache_hits, hits + 1, "{} missed", frame);
                    }
                }
                // Deadlines the key must not cut, each also in a batch, which
                // ignores an element's deadline but must not record a reply
                // the element's bytes do not get alone; and frames that end
                // where a cut key does.
                let open = &canonical[..canonical.len() - 1];
                let mut frames = vec![format!("{open},\"deadline_ms\":")];
                for value in ["-5", "\"soon\"", "1e3", ""] {
                    let frame = format!("{open},\"deadline_ms\":{value}}}");
                    frames.push(format!(r#"{{"type":"batch","requests":[{frame}]}}"#));
                    frames.push(frame);
                }
                for frame in frames {
                    prop_assert_eq!(
                        reply_view(&cached.handle_json(&frame)),
                        reply_view(&uncached.handle_json(&frame)),
                        "cached and uncached servers diverged on {}",
                        frame
                    );
                }
            } else {
                prop_assert_eq!(
                    identity_view(&cached.handle(request)),
                    expected,
                    "cached and uncached servers diverged"
                );
            }
        }
        // The interleavings must actually exercise the cache.
        let stats = cached.stats();
        prop_assert!(stats.cache_misses > 0, "no cache traffic: {:?}", stats);
        prop_assert!(stats.cache_hits > 0, "no cache hits: {:?}", stats);
    }
}
