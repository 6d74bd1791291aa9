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
    let Json::Obj(members) = response.to_json() else {
        panic!("responses serialize to objects");
    };
    Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| k != "elapsed_ms")
            .collect(),
    )
    .to_string()
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
    /// interleaving of queries and inserts: every response — ids,
    /// distance bits, costs, insert totals — must be identical.  Any
    /// invalidation bug (stale entry surviving a write, over-eager key
    /// matching, ABA across versions) shows up as a divergence.
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
            let (op, arg) = ((encoded % 5) as u8, encoded / 5);
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
            let a = cached.handle(request.clone());
            let b = uncached.handle(request);
            prop_assert_eq!(
                identity_view(&a),
                identity_view(&b),
                "cached and uncached servers diverged"
            );
        }
        // The interleavings must actually exercise the cache.
        let stats = cached.stats();
        prop_assert!(stats.cache_misses > 0, "no cache traffic: {:?}", stats);
    }
}
