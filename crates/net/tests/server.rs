//! Integration tests for the TCP front-end: protocol identity with the
//! in-process path, fault injection at the raw socket, admission control,
//! deadlines, and graceful shutdown (including a SIGTERM subprocess run).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::backend::ExecutionBackend;
use coconut_core::palm::{
    PalmRequest, PalmResponse, PalmServer, ERROR_KIND_CONFIG, ERROR_KIND_DEADLINE,
    ERROR_KIND_MALFORMED, ERROR_KIND_OVERLOADED, ERROR_KIND_SHUTTING_DOWN,
};
use coconut_core::{Dataset, VariantKind};
use coconut_json::{scan_array, scan_object, Json, ToJson};
use coconut_net::{Coordinator, NetServer, PalmClient, RemoteBackend, ServerConfig};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;

fn make_dataset(dir: &ScratchDir, count: usize) -> (String, Vec<coconut_series::Series>) {
    let mut gen = RandomWalkGenerator::new(64, 12);
    let series = gen.generate(count);
    let path = dir.file("raw.bin");
    Dataset::create_from_series(&path, &series).unwrap();
    (path.to_string_lossy().into_owned(), series)
}

fn build_request(name: &str, dataset_path: &str) -> PalmRequest {
    build_variant(name, dataset_path, VariantKind::Clsm, true)
}

fn build_variant(
    name: &str,
    dataset_path: &str,
    variant: VariantKind,
    materialized: bool,
) -> PalmRequest {
    PalmRequest::build_index(name, dataset_path, variant, materialized, 8 << 20)
}

fn query_request(name: &str, query: &[f32], k: usize) -> String {
    PalmRequest::Query {
        name: name.into(),
        query: query.to_vec(),
        k,
        exact: true,
    }
    .to_json()
    .to_string()
}

fn spawn_server(palm: Arc<PalmServer>, config: ServerConfig) -> NetServer {
    NetServer::spawn(palm, config).expect("bind")
}

fn kind_of(json: &Json) -> Option<&str> {
    json.get("kind").and_then(|j| j.as_str())
}

fn type_of(json: &Json) -> Option<&str> {
    json.get("type").and_then(|j| j.as_str())
}

/// Strips the timing member so responses can be compared for identity.
fn identity_view(json: &Json) -> Json {
    let Json::Obj(members) = json else {
        return json.clone();
    };
    Json::Obj(
        members
            .iter()
            .filter(|(k, _)| k != "elapsed_ms")
            .cloned()
            .collect(),
    )
}

/// [`query_request`] spelled differently: members reversed, whitespace
/// around every token, `k` as `3.0`, values in exponent form.  Same query,
/// other frame bytes.
fn respelled_query(name: &str, query: &[f32], k: usize) -> String {
    let values: Vec<String> = query.iter().map(|&v| format!("{:e}", v as f64)).collect();
    format!(
        r#"{{ "exact" : true , "k" : {k}.0 , "query" : [ {} ] , "name" : "{name}" , "type" : "query" }}"#,
        values.join(" , ")
    )
}

/// `reply` with the value of its `elapsed_ms` member cut out, byte for byte
/// otherwise.
fn without_elapsed(reply: &str) -> String {
    let member = r#""elapsed_ms":"#;
    let at = reply.find(member).expect("an elapsed_ms member") + member.len();
    let end = at + reply[at..].find([',', '}']).expect("a member after it");
    format!("{}{}", &reply[..at], &reply[end..])
}

/// Tentpole acceptance: answers over the wire are bit-identical to the
/// in-process `handle` path — with the result cache on *and* off, and on
/// repeat queries.  Each query is asked three times: computed, then in
/// another spelling (another key, so computed again and recorded), then
/// that spelling again (served from the recorded bytes).  A `batch` of the
/// same queries is then served element by element from the recorded
/// replies, and a batch the parser refuses is refused as uncached.
#[test]
fn wire_answers_are_bit_identical_to_in_process_with_and_without_cache() {
    let dir = ScratchDir::new("net-identity").unwrap();
    let (dataset_path, _series) = make_dataset(&dir, 200);
    let cached = Arc::new(PalmServer::new(dir.file("work-cached")).with_result_cache(256));
    let uncached = Arc::new(PalmServer::new(dir.file("work-uncached")));
    cached.handle(build_request("idx", &dataset_path));
    uncached.handle(build_request("idx", &dataset_path));
    let server = spawn_server(Arc::clone(&cached), ServerConfig::default());
    let mut client = PalmClient::connect(&server.local_addr().to_string()).unwrap();

    let mut gen = RandomWalkGenerator::new(64, 31);
    let mut singles = Vec::new();
    for _ in 0..8 {
        let q = gen.next_series();
        let request = query_request("idx", &q.values, 3);
        let respelled = respelled_query("idx", &q.values, 3);
        let in_process = Json::parse(&uncached.handle_json(&request)).unwrap();
        let mut replies = Vec::new();
        // (requests, cache_hits, cache_misses) each ask adds.
        for (frame, moves) in [
            (&request, (1, 0, 1)),
            (&respelled, (1, 0, 1)),
            (&respelled, (1, 1, 0)),
        ] {
            let before = cached.stats();
            let reply = client.call(frame).unwrap();
            let after = cached.stats();
            let wire = Json::parse(&reply).unwrap();
            assert_eq!(type_of(&wire), Some("query_result"));
            assert_eq!(
                identity_view(&wire).to_string(),
                identity_view(&in_process).to_string(),
                "wire answer must equal the computed in-process answer"
            );
            assert_eq!(
                (
                    after.requests - before.requests,
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses
                ),
                moves,
                "ask {} of {frame}",
                replies.len() + 1
            );
            replies.push(reply);
        }
        assert_eq!(
            without_elapsed(&replies[1]),
            without_elapsed(&replies[2]),
            "a hit replays the computed reply's bytes"
        );
        singles.push((request, replies.swap_remove(0)));
    }

    // The 8 queries and one never asked, as one batch: 10 requests (the
    // batch and its elements), 8 hits and 1 miss.
    let unseen = query_request("idx", &gen.next_series().values, 3);
    singles.push((unseen.clone(), uncached.handle_json(&unseen)));
    let elements: Vec<&str> = singles
        .iter()
        .map(|(request, _)| request.as_str())
        .collect();
    let batch = format!(r#"{{"type":"batch","requests":[{}]}}"#, elements.join(","));
    let before = cached.stats();
    let reply = client.call(&batch).unwrap();
    let after = cached.stats();
    assert_eq!(
        (
            after.requests - before.requests,
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses
        ),
        (10, 8, 1)
    );
    let envelope = scan_object(&reply).unwrap();
    assert_eq!(envelope[0].raw, r#""batch_result""#);
    let sub_replies = scan_array(envelope[1].raw).unwrap();
    assert_eq!(sub_replies.len(), singles.len());
    for ((_, single), sub_reply) in singles.iter().zip(sub_replies) {
        assert_eq!(without_elapsed(sub_reply), without_elapsed(single));
    }
    // An element of the wrong type makes the whole batch malformed, as it
    // does uncached, the hit beside it notwithstanding.
    let bad = format!(r#"{{"type":"batch","requests":[{},7]}}"#, elements[0]);
    let reply = client.call(&bad).unwrap();
    assert_eq!(reply, uncached.handle_json(&bad));
    assert_eq!(
        kind_of(&Json::parse(&reply).unwrap()),
        Some(ERROR_KIND_MALFORMED)
    );
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// Satellite: a client that sends batches of large replies and never reads
/// them does not wedge shutdown — the connection thread's blocked write
/// gives up once the server stops, so no thread leaks.
#[test]
fn a_client_that_never_reads_does_not_wedge_shutdown() {
    let dir = ScratchDir::new("net-unread").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 3000);
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    palm.handle(build_variant(
        "big",
        &dataset_path,
        VariantKind::CTree,
        true,
    ));
    let server = spawn_server(Arc::clone(&palm), ServerConfig::default());

    // 32 exact k=3000 queries: a ~24 KB frame asking for MBs of reply.
    let batch = PalmRequest::Batch {
        requests: (0..32)
            .map(|i| PalmRequest::Query {
                name: "big".into(),
                query: series[i].values.clone(),
                k: 3000,
                exact: true,
            })
            .collect(),
    }
    .to_json()
    .to_string();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for _ in 0..20 {
        stream.write_all(batch.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    // Wait until the server stops taking batches (33 requests each): the
    // socket buffers are full of replies and it is blocked writing to us.
    let mut last = (palm.stats().requests, Instant::now());
    let give_up = Instant::now() + Duration::from_secs(30);
    while last.1.elapsed() < Duration::from_millis(500) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(20));
        let requests = palm.stats().requests;
        if requests != last.0 {
            last = (requests, Instant::now());
        }
    }
    assert!(
        last.0 < 1 + 20 * 33,
        "the server answered every batch: the replies never filled the buffers"
    );

    let report = server.shutdown();
    assert_eq!(report.leaked_threads, 0, "{report:?}");
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
    drop(stream);
}

/// Satellite: an oversized frame gets a structured error, then the
/// connection closes (the stream cannot be resynchronized).
#[test]
fn oversized_frame_gets_structured_error_then_close() {
    let dir = ScratchDir::new("net-oversize").unwrap();
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    let config = ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    };
    let server = spawn_server(palm, config);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&vec![b'x'; 4096]).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (line, rest) = response.split_once('\n').expect("one reply line");
    let parsed = Json::parse(line).unwrap();
    assert_eq!(kind_of(&parsed), Some(ERROR_KIND_MALFORMED));
    assert!(rest.is_empty(), "connection must close after the reply");
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// Satellite: invalid UTF-8 answers `malformed_request` and the
/// connection stays usable; a half-closed mid-frame connection is a
/// clean disconnect; plain garbage JSON is `malformed_request`.
#[test]
fn malformed_input_never_kills_the_server() {
    let dir = ScratchDir::new("net-malformed").unwrap();
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    let server = spawn_server(palm, ServerConfig::default());
    let addr = server.local_addr().to_string();

    // Invalid UTF-8: structured error, connection survives.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"\xff\xfe\xfd\n").unwrap();
    let mut reader = coconut_net::FrameReader::new(stream.try_clone().unwrap(), 1 << 20);
    let coconut_net::FrameOutcome::Frame(frame) = reader.read_frame() else {
        panic!("expected an error frame");
    };
    let parsed = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(kind_of(&parsed), Some(ERROR_KIND_MALFORMED));
    stream.write_all(b"{\"type\":\"list_indexes\"}\n").unwrap();
    let coconut_net::FrameOutcome::Frame(frame) = reader.read_frame() else {
        panic!("connection must stay usable after invalid UTF-8");
    };
    let parsed = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(type_of(&parsed), Some("indexes"));
    drop(reader);
    drop(stream);

    // Half-closed mid-frame: no reply, clean disconnect, server lives on.
    let stream = TcpStream::connect(&addr).unwrap();
    (&stream).write_all(b"{\"type\":\"li").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut remainder = Vec::new();
    let mut read_half = stream.try_clone().unwrap();
    read_half
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    read_half.read_to_end(&mut remainder).unwrap();
    assert!(
        remainder.is_empty(),
        "mid-frame EOF must not produce a reply"
    );

    // Garbage JSON via the client: structured error.
    let mut client = PalmClient::connect(&addr).unwrap();
    let parsed = Json::parse(&client.call("not json at all").unwrap()).unwrap();
    assert_eq!(kind_of(&parsed), Some(ERROR_KIND_MALFORMED));

    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// One frame nested 100k arrays deep gets a `malformed_request` reply from
/// a real `palm-server` process, and the same server then builds an index
/// and answers a query.  Without a nesting limit the parse recurses once
/// per `[` and overflows the connection thread's stack, which aborts the
/// whole process.
#[test]
fn a_deeply_nested_frame_is_refused_and_the_server_lives_on() {
    use std::io::BufRead;
    use std::process::{Child, Command, Stdio};

    /// The server process, killed however the test ends.
    struct Server(Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let dir = ScratchDir::new("net-deep").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 100);
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_palm-server"))
            .env("PALM_ADDR", "127.0.0.1:0")
            .env("PALM_WORK_DIR", dir.file("work"))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn palm-server"),
    );
    let stdout = server.0.stdout.take().unwrap();
    let banner = std::io::BufReader::new(stdout).lines().next();
    let banner = banner.expect("banner line").unwrap();
    let addr = banner
        .strip_prefix("palm-server listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner}"))
        .to_string();

    let flood = format!(
        r#"{{"type":"insert","name":"idx","series":{}}}"#,
        "[".repeat(100_000)
    );
    let refused = PalmClient::connect(&addr).unwrap().call(&flood);
    let refused = Json::parse(&refused.expect("a reply, not a dead server")).unwrap();
    assert_eq!(kind_of(&refused), Some(ERROR_KIND_MALFORMED));
    assert_eq!(
        refused.get("message").and_then(Json::as_str),
        Some("malformed request: nesting deeper than 64 levels")
    );

    let mut client = PalmClient::connect(&addr).unwrap();
    let build = build_request("idx", &dataset_path).to_json().to_string();
    let built = Json::parse(&client.call(&build).unwrap()).unwrap();
    assert_eq!(type_of(&built), Some("built"));
    let answer = client.call(&query_request("idx", &series[7].values, 1));
    let answer = Json::parse(&answer.unwrap()).unwrap();
    assert_eq!(type_of(&answer), Some("query_result"), "{answer:?}");
    assert_eq!(answer.get("ids"), Some(&Json::Arr(vec![Json::Num(7.0)])));
}

/// Satellite: a query of the wrong length, with a value past `f32` or with
/// `k: 0`, and an insert holding a bad row, get a typed `config` reply over
/// the wire — no panic, no EOF, no `null` — in every variant, and the
/// connection answers the next request; a refused insert applies none of
/// its rows.
#[test]
fn bad_queries_and_rows_get_a_typed_reply_over_the_wire() {
    let dir = ScratchDir::new("net-validate").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 120);
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    let indexes = [
        ("ads", VariantKind::Ads, true),
        ("ctree", VariantKind::CTree, true),
        ("thin", VariantKind::CTree, false),
        ("clsm", VariantKind::Clsm, true),
    ];
    for (name, variant, materialized) in indexes {
        palm.handle(build_variant(name, &dataset_path, variant, materialized));
    }
    let server = spawn_server(palm, ServerConfig::default());
    let mut client = PalmClient::connect(&server.local_addr().to_string()).unwrap();
    let text = |values: &[f32], overflow: bool| {
        let mut row: Vec<String> = values.iter().map(f32::to_string).collect();
        if overflow {
            row[5] = "1e39".into();
        }
        format!("[{}]", row.join(","))
    };
    let good = text(&series[9].values, false);
    for (name, _, materialized) in indexes {
        for (bad, k) in [
            (text(&series[9].values[..60], false), 3),
            (text(&series[9].values, true), 3),
            (good.clone(), 0),
        ] {
            let frame =
                format!(r#"{{"type":"query","name":"{name}","query":{bad},"k":{k},"exact":true}}"#);
            let reply = client.call(&frame).unwrap();
            assert!(!reply.contains("null"), "{name}: {reply}");
            assert_eq!(
                kind_of(&Json::parse(&reply).unwrap()),
                Some(ERROR_KIND_CONFIG),
                "{name}"
            );
        }
        let reply = Json::parse(
            &client
                .call(&query_request(name, &series[9].values, 3))
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            type_of(&reply),
            Some("query_result"),
            "{name}: the connection must live on"
        );
        if materialized {
            let insert =
                |rows: String| format!(r#"{{"type":"insert","name":"{name}","series":{rows}}}"#);
            let frame = insert(format!("[{good},{}]", text(&series[9].values, true)));
            let reply = Json::parse(&client.call(&frame).unwrap()).unwrap();
            assert_eq!(
                kind_of(&reply),
                Some(ERROR_KIND_CONFIG),
                "{name}: {reply:?}"
            );
            let reply = Json::parse(&client.call(&insert(format!("[{good}]"))).unwrap()).unwrap();
            assert_eq!(
                reply.get("total").and_then(Json::as_f64),
                Some(121.0),
                "{name}"
            );
        }
    }
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// Admission control: with a tiny byte budget every request is shed with
/// a structured `overloaded` error and a `retry_after_ms` hint, and the
/// shed counter records it.
#[test]
fn overload_sheds_with_retry_hint() {
    let dir = ScratchDir::new("net-shed").unwrap();
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    let config = ServerConfig {
        max_queued_bytes: 1,
        retry_after_ms: 40,
        ..ServerConfig::default()
    };
    let server = spawn_server(Arc::clone(&palm), config);
    let mut client = PalmClient::connect(&server.local_addr().to_string()).unwrap();
    for _ in 0..3 {
        let parsed = Json::parse(&client.call(r#"{"type":"list_indexes"}"#).unwrap()).unwrap();
        assert_eq!(kind_of(&parsed), Some(ERROR_KIND_OVERLOADED));
        assert_eq!(
            parsed.get("retry_after_ms").and_then(|j| j.as_f64()),
            Some(40.0)
        );
    }
    assert_eq!(palm.stats().shed, 3);
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// Eight connections each send `request` 20 times to `addr`: every single
/// request gets either the right answer (id 7 first) or a typed
/// `overloaded`/`deadline_exceeded` error — no hangs, no
/// disconnect-without-reply — and some get through.
fn hammer(addr: &str, request: &str) {
    let mut answered = 0usize;
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..8 {
            workers.push(scope.spawn(move || {
                let mut client = PalmClient::connect(addr).unwrap();
                let mut counts = (0usize, 0usize);
                for _ in 0..20 {
                    let response = client.call(request).expect("every request gets a reply");
                    let parsed = Json::parse(&response).unwrap();
                    match type_of(&parsed) {
                        Some("query_result") => {
                            let ids = parsed.get("ids").unwrap().as_arr().unwrap();
                            assert_eq!(ids[0].as_f64(), Some(7.0), "wrong answer under load");
                            counts.0 += 1;
                        }
                        Some("error") => {
                            let kind = kind_of(&parsed).unwrap();
                            assert!(
                                kind == ERROR_KIND_OVERLOADED || kind == ERROR_KIND_DEADLINE,
                                "untyped failure under load: {kind}"
                            );
                            counts.1 += 1;
                        }
                        other => panic!("unexpected response type {other:?}"),
                    }
                }
                counts
            }));
        }
        for worker in workers {
            let (a, s) = worker.join().unwrap();
            answered += a;
            shed += s;
        }
    });
    assert_eq!(answered + shed, 160, "every request must be accounted for");
    assert!(answered > 0, "some requests must get through");
}

/// Overload acceptance: with in-flight bound 1, a hammered server answers
/// or sheds every request — alone, and as a 2-shard fleet behind a
/// coordinator (TCP shards), where the sheds happen at the front door.
#[test]
fn hammered_server_answers_or_sheds_every_request() {
    let dir = ScratchDir::new("net-hammer").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 200);
    let config = ServerConfig {
        max_in_flight: 1,
        ..ServerConfig::default()
    };
    let query: Vec<f32> = series[7].values.iter().map(|v| v + 0.001).collect();
    let request = query_request("idx", &query, 1);

    let palm = Arc::new(PalmServer::new(dir.file("work")).with_result_cache(64));
    palm.handle(build_request("idx", &dataset_path));
    let server = spawn_server(palm, config.clone());
    hammer(&server.local_addr().to_string(), &request);
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");

    let shards: Vec<NetServer> = (0..2)
        .map(|s| {
            let palm = PalmServer::new(dir.file(&format!("shard{s}")));
            spawn_server(Arc::new(palm), ServerConfig::default())
        })
        .collect();
    let coordinator = Coordinator::new(
        shards
            .iter()
            .map(|shard| {
                Arc::new(RemoteBackend::new(shard.local_addr().to_string()))
                    as Arc<dyn ExecutionBackend>
            })
            .collect(),
    );
    let built = coordinator.handle_with_deadline(build_request("idx", &dataset_path), None);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    let front = NetServer::spawn(Arc::new(coordinator), config).expect("bind");
    hammer(&front.local_addr().to_string(), &request);
    let report = front.shutdown();
    assert!(
        report.is_clean(),
        "unclean coordinator shutdown: {report:?}"
    );
    for shard in shards {
        let report = shard.shutdown();
        assert!(report.is_clean(), "unclean shard shutdown: {report:?}");
    }
}

/// Deadlines over the wire: `deadline_ms: 0` answers a structured
/// `deadline_exceeded` with a partial cost, and the connection keeps
/// serving normal requests afterwards.
#[test]
fn expired_deadline_over_the_wire_reports_partial_cost() {
    let dir = ScratchDir::new("net-deadline").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 200);
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    palm.handle(build_request("idx", &dataset_path));
    let server = spawn_server(palm, ServerConfig::default());
    let mut client = PalmClient::connect(&server.local_addr().to_string()).unwrap();

    let query = query_request("idx", &series[3].values, 1);
    let expired = format!("{}{}", &query[..query.len() - 1], r#","deadline_ms":0}"#);
    let parsed = Json::parse(&client.call(&expired).unwrap()).unwrap();
    assert_eq!(kind_of(&parsed), Some(ERROR_KIND_DEADLINE));
    assert!(
        parsed.get("partial_cost").is_some(),
        "deadline errors must report partial cost"
    );
    let parsed = Json::parse(&client.call(&query).unwrap()).unwrap();
    assert_eq!(type_of(&parsed), Some("query_result"));
    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}

/// Graceful shutdown under load: the in-flight build completes (drained),
/// connections attempted during the drain are refused with
/// `shutting_down` (or the socket is already gone), no thread leaks and
/// the indexes are synced.
#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let dir = ScratchDir::new("net-drain").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 200);
    let (big_path, _) = {
        let mut gen = RandomWalkGenerator::new(64, 77);
        let series = gen.generate(30_000);
        let path = dir.file("big.bin");
        Dataset::create_from_series(&path, &series).unwrap();
        (path.to_string_lossy().into_owned(), series)
    };
    let palm = Arc::new(PalmServer::new(dir.file("work")));
    palm.handle(build_request("small", &dataset_path));
    // Leave pending deltas so the shutdown sync has real work.
    palm.handle(PalmRequest::Insert {
        name: "small".into(),
        series: vec![series[0].values.clone()],
        timestamp: 1,
        base_id: None,
    });
    let config = ServerConfig {
        drain_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = spawn_server(Arc::clone(&palm), config);
    let addr = server.local_addr().to_string();

    let builder = {
        let addr = addr.clone();
        let request = build_request("big", &big_path).to_json().to_string();
        std::thread::spawn(move || {
            let mut client = PalmClient::connect(&addr).unwrap();
            Json::parse(&client.call(&request).unwrap()).unwrap()
        })
    };
    // Let the build request get admitted before starting the drain.
    let admit_deadline = Instant::now() + Duration::from_secs(10);
    while server.in_flight() == 0 && Instant::now() < admit_deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.in_flight() > 0, "build request never got admitted");

    let prober = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            // Probe during the drain: each attempt must either be told
            // shutting_down or fail to connect — never hang, never get a
            // half answer.
            let mut saw_shutting_down = false;
            for _ in 0..50 {
                match PalmClient::connect(&addr) {
                    Err(_) => break,
                    Ok(mut client) => match client.call(r#"{"type":"list_indexes"}"#) {
                        Err(_) => {}
                        Ok(response) => {
                            let parsed = Json::parse(&response).unwrap();
                            if kind_of(&parsed) == Some(ERROR_KIND_SHUTTING_DOWN) {
                                saw_shutting_down = true;
                            } else {
                                // The probe raced ahead of the drain start.
                                assert_eq!(type_of(&parsed), Some("indexes"));
                            }
                        }
                    },
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            saw_shutting_down
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let report = server.shutdown();
    assert!(report.drained, "the in-flight build must drain: {report:?}");
    assert_eq!(report.leaked_threads, 0, "no thread may leak");
    assert!(report.sync_error.is_none(), "sync failed: {report:?}");
    assert!(report.synced_indexes >= 1);
    let built = builder.join().unwrap();
    assert_eq!(
        type_of(&built),
        Some("built"),
        "the drained request must complete with its real answer"
    );
    let saw_shutting_down = prober.join().unwrap();
    assert!(
        saw_shutting_down,
        "a connection during the drain must be told shutting_down"
    );
}

/// Acceptance: SIGTERM against the real binary under load exits 0 after a
/// drained, synced shutdown.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_zero() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let dir = ScratchDir::new("net-sigterm").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 200);
    let mut child = Command::new(env!("CARGO_BIN_EXE_palm-server"))
        .env("PALM_ADDR", "127.0.0.1:0")
        .env("PALM_WORK_DIR", dir.file("work"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn palm-server");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").unwrap();
    let addr = banner
        .strip_prefix("palm-server listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner}"))
        .to_string();

    let mut client = PalmClient::connect(&addr).unwrap();
    let built = Json::parse(
        &client
            .call(&build_request("idx", &dataset_path).to_json().to_string())
            .unwrap(),
    )
    .unwrap();
    assert_eq!(type_of(&built), Some("built"));
    client
        .call(
            &PalmRequest::Insert {
                name: "idx".into(),
                series: vec![series[1].values.clone()],
                timestamp: 2,
                base_id: None,
            }
            .to_json()
            .to_string(),
        )
        .unwrap();

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill must succeed");

    let wait_deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() < wait_deadline => std::thread::sleep(Duration::from_millis(20)),
            None => {
                let _ = child.kill();
                panic!("palm-server did not exit within 30s of SIGTERM");
            }
        }
    };
    assert!(exit.success(), "palm-server must exit 0, got {exit:?}");
    let shutdown_line: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        shutdown_line
            .iter()
            .any(|l| l.contains("shutdown") && l.contains("leaked=0") && l.contains("synced=1")),
        "missing clean shutdown line in {shutdown_line:?}"
    );
}

/// Strips timing and the index name so two indexes' answers can be
/// compared for identity.
fn answer_view(json: &Json) -> Json {
    let Json::Obj(members) = json else {
        return json.clone();
    };
    Json::Obj(
        members
            .iter()
            .filter(|(k, _)| k != "elapsed_ms" && k != "name")
            .cloned()
            .collect(),
    )
}

/// An old client's `"planner":"adaptive"` build still builds, and its index
/// answers as the one a `"planner":"fixed"` build makes, over the wire;
/// repeats are result-cache hits, two per query.
#[test]
fn old_planner_frame_answers_as_fixed_over_the_wire() {
    let dir = ScratchDir::new("net-planner").unwrap();
    let (dataset_path, _series) = make_dataset(&dir, 200);
    let palm = Arc::new(PalmServer::new(dir.file("work")).with_result_cache(64));
    let server = spawn_server(Arc::clone(&palm), ServerConfig::default());
    let mut client = PalmClient::connect(&server.local_addr().to_string()).unwrap();

    // Build one index per planner name over the same dataset, through raw
    // JSON to pin the wire spelling.
    for name in ["fixed", "adaptive"] {
        let mut frame = build_request(name, &dataset_path).to_json();
        if let Json::Obj(members) = &mut frame {
            for (key, value) in members.iter_mut() {
                if key == "planner" {
                    *value = Json::Str(name.into());
                }
            }
        }
        let built = Json::parse(&client.call(&frame.to_string()).unwrap()).unwrap();
        assert_eq!(type_of(&built), Some("built"), "{name}");
    }

    let mut gen = RandomWalkGenerator::new(64, 77);
    for _ in 0..4 {
        let q = gen.next_series();
        let on_fixed =
            Json::parse(&client.call(&query_request("fixed", &q.values, 3)).unwrap()).unwrap();
        let on_adaptive = Json::parse(
            &client
                .call(&query_request("adaptive", &q.values, 3))
                .unwrap(),
        )
        .unwrap();
        assert_eq!(type_of(&on_adaptive), Some("query_result"));
        assert_eq!(
            answer_view(&on_adaptive).to_string(),
            answer_view(&on_fixed).to_string(),
            "an adaptive frame's index answers as the fixed one"
        );
        // The same query again is a cache hit, served from the computed
        // reply's bytes.
        for _ in 0..2 {
            let repeat = Json::parse(
                &client
                    .call(&query_request("adaptive", &q.values, 3))
                    .unwrap(),
            )
            .unwrap();
            assert_eq!(
                answer_view(&repeat).to_string(),
                answer_view(&on_adaptive).to_string()
            );
        }
    }

    let stats = Json::parse(
        &client
            .call(&PalmRequest::Stats.to_json().to_string())
            .unwrap(),
    )
    .unwrap();
    let counter = |name: &str| {
        stats
            .get(name)
            .and_then(|j| j.as_f64())
            .unwrap_or_else(|| panic!("stats missing {name}")) as u64
    };
    assert_eq!(counter("cache_hits"), 8, "two hits per adaptive query");
    assert_eq!(
        counter("cache_misses"),
        8,
        "each index computes each query once"
    );

    let report = server.shutdown();
    assert!(report.is_clean(), "unclean shutdown: {report:?}");
}
