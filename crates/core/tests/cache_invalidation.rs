//! Cache-invalidation ordering: a reader racing a writer must never
//! observe a stale cached answer, and a cached server must be
//! indistinguishable — bit for bit — from an uncached one under any
//! interleaving of queries and inserts.
//!
//! The invalidation design under test (see DESIGN.md, "Palm over the
//! wire"): every slot carries a monotonic version tag bumped under the
//! write lock; cache entries record the version they were computed
//! against and are unservable the moment it changes, even if the purge
//! races an in-flight insert into the cache.

use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{Dataset, VariantKind};
use coconut_json::{Json, ToJson};
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

/// [`identity_view`] of a reply as `handle_json` returns it.
fn reply_view(reply: &str) -> String {
    let Ok(Json::Obj(members)) = Json::parse(reply) else {
        panic!("replies are JSON objects: {reply}");
    };
    Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| k != "elapsed_ms")
            .collect(),
    )
    .to_string()
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
        for _ in 0..4 {
            scope.spawn(move || {
                let mut last = f64::INFINITY;
                for _ in 0..60 {
                    match server.handle(PalmRequest::Query {
                        name: "race".into(),
                        query: query.clone(),
                        k: 1,
                        exact: true,
                    }) {
                        PalmResponse::QueryResult { distances, .. } => {
                            assert!(
                                distances[0] <= last,
                                "stale cached answer: distance went {last} -> {}",
                                distances[0]
                            );
                            last = distances[0];
                        }
                        other => panic!("query failed: {other:?}"),
                    }
                }
            });
        }
        // One reader on the frame path: a recorded reply is served only
        // while its version is current.
        scope.spawn(move || {
            let frame = PalmRequest::Query {
                name: "race".into(),
                query: query.clone(),
                k: 1,
                exact: true,
            }
            .to_json()
            .to_string();
            let mut last = f64::INFINITY;
            for _ in 0..60 {
                let distance = nearest(&server.handle_json(&frame));
                assert!(
                    distance <= last,
                    "stale frame reply: distance went {last} -> {distance}"
                );
                last = distance;
            }
        });
        writer.join().unwrap();
    });

    // Settled state: the cached answer equals a fresh computation.
    let request = PalmRequest::Query {
        name: "race".into(),
        query: query.clone(),
        k: 1,
        exact: true,
    };
    let cached = server.handle(request.clone());
    let frame_reply = server.handle_json(&request.to_json().to_string());
    assert_eq!(reply_view(&frame_reply), identity_view(&cached));
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
        identity_view(&cached),
        identity_view(&computed),
        "cached answer must equal recomputation"
    );
    let stats = server.stats();
    assert!(
        stats.cache_hits > 0,
        "the race must exercise hits: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drive a cached and an uncached server through the same random
    /// interleaving of queries, inserts and rebuilds: every response — ids,
    /// distance bits, costs, insert totals — must be identical.  Any
    /// invalidation bug (stale entry surviving a write, over-eager key
    /// matching, ABA across versions) shows up as a divergence.  The cached
    /// server takes each query as frame text in two spellings, so frames
    /// recorded by computed answers, typed hits and frame hits all meet the
    /// writes.
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
                for frame in [request.to_json().to_string(), respelled(&request)] {
                    prop_assert_eq!(
                        reply_view(&cached.handle_json(&frame)),
                        expected.clone(),
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
