//! Fault injection for the scatter-gather path: workers that die or
//! stall mid-query, and the client's admission-aware retry loop.
//!
//! Pins the coordinator's failure contract: a shard that cannot answer
//! yields the typed `shard_unavailable` error carrying per-shard
//! `QueryCost`s, within the request deadline (plus the transport grace)
//! — never a hang.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coconut_core::backend::{BackendError, ExecutionBackend, LocalBackend};
use coconut_core::palm::{
    PalmRequest, PalmResponse, PalmServer, ERROR_KIND_OVERLOADED, ERROR_KIND_SHARD_UNAVAILABLE,
};
use coconut_core::{Dataset, IoBackend, PlannerMode, VariantKind};
use coconut_json::{FromJson, Json, ToJson};
use coconut_net::{CallError, Coordinator, PalmClient, RemoteBackend, RetryPolicy};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;

fn make_dataset(dir: &ScratchDir, count: usize) -> (String, Vec<coconut_series::Series>) {
    let mut gen = RandomWalkGenerator::new(64, 77);
    let series = gen.generate(count);
    let path = dir.file("raw.bin");
    Dataset::create_from_series(&path, &series).unwrap();
    (path.to_string_lossy().into_owned(), series)
}

fn build_request(name: &str, dataset_path: &str) -> PalmRequest {
    PalmRequest::BuildIndex {
        name: name.into(),
        dataset_path: dataset_path.into(),
        variant: VariantKind::Clsm,
        materialized: true,
        memory_budget_bytes: 4 << 20,
        parallelism: 1,
        query_parallelism: 1,
        shard_count: 1,
        range: None,
        io_overlap: true,
        io_backend: IoBackend::Pread,
        planner: PlannerMode::Fixed,
        compression: coconut_storage::Compression::Off,
    }
}

fn query_request(name: &str, query: &[f32], k: usize) -> PalmRequest {
    PalmRequest::Query {
        name: name.into(),
        query: query.to_vec(),
        k,
        exact: true,
    }
}

/// A real `palm-server` child process; killed on drop so a failing test
/// cannot leak workers.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn(dir: &ScratchDir, tag: &str) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_palm-server"))
            .env("PALM_ADDR", "127.0.0.1:0")
            .env("PALM_WORK_DIR", dir.file(&format!("worker-{tag}")))
            .env("PALM_CACHE_ENTRIES", "0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn palm-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in the listening line")
            .to_string();
        Worker { child, addr }
    }

    /// SIGSTOP: the worker freezes with whatever it is serving in flight.
    fn pause(&self) {
        let status = Command::new("kill")
            .args(["-STOP", &self.child.id().to_string()])
            .status()
            .expect("send SIGSTOP");
        assert!(status.success());
    }

    /// SIGKILL: the kernel reaps the process and resets its sockets.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A worker killed while a query is in flight yields the typed
/// `shard_unavailable` error — carrying per-shard costs — within the
/// deadline plus transport grace, never a hang.
#[test]
fn killed_worker_mid_query_yields_typed_shard_unavailable() {
    let dir = ScratchDir::new("fault-kill").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 160);
    let mut victim = Worker::spawn(&dir, "victim");
    let healthy = Worker::spawn(&dir, "healthy");
    let coordinator = Arc::new(Coordinator::new(vec![
        Arc::new(RemoteBackend::new(&victim.addr)) as Arc<dyn ExecutionBackend>,
        Arc::new(RemoteBackend::new(&healthy.addr)) as Arc<dyn ExecutionBackend>,
    ]));
    let built = coordinator.handle_with_deadline(build_request("idx", &dataset_path), None);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");

    // Freeze the victim so the scattered query is genuinely in flight on
    // it, then kill it under the query.
    victim.pause();
    let query = query_request("idx", &series[3].values, 5);
    let deadline = Duration::from_millis(1500);
    let in_flight = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            let started = Instant::now();
            let response = coordinator.handle_with_deadline(query, Some(deadline));
            (response, started.elapsed())
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    victim.kill();
    let (response, elapsed) = in_flight.join().unwrap();
    match response {
        PalmResponse::Error {
            kind, shard_costs, ..
        } => {
            assert_eq!(kind, ERROR_KIND_SHARD_UNAVAILABLE);
            let costs = shard_costs.expect("per-shard costs must be attached");
            assert_eq!(costs.len(), 2, "one entry per shard, in shard order");
            assert_eq!(costs[0].shard, 0);
            assert!(costs[0].cost.is_none(), "the dead shard has no cost");
            assert!(
                costs[1].cost.is_some(),
                "the healthy shard's completed cost must be reported"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
    // SIGKILL resets the socket, so the failure surfaces well before the
    // deadline-plus-grace bound; assert the never-hang contract with
    // slack for CI scheduling noise.
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "coordinator hung for {elapsed:?}"
    );
}

/// A worker that accepts the connection and then never answers is bounded
/// by the per-shard deadline: the coordinator returns `shard_unavailable`
/// shortly after the deadline instead of hanging on the silent socket.
#[test]
fn stalled_worker_is_bounded_by_the_deadline() {
    let dir = ScratchDir::new("fault-stall").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 120);
    // Shard 0 is healthy and in-process; shard 1 accepts and stalls.
    let palm = Arc::new(PalmServer::new(dir.file("healthy")));
    let built = palm.handle(build_request("idx", &dataset_path));
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    let stall = TcpListener::bind("127.0.0.1:0").unwrap();
    let stall_addr = stall.local_addr().unwrap().to_string();
    let stall_thread = std::thread::spawn(move || {
        // Hold every accepted connection open, reading nothing, answering
        // nothing, until the listener is dropped at test end.
        let mut held = Vec::new();
        while let Ok((socket, _)) = stall.accept() {
            held.push(socket);
        }
    });
    let coordinator = Coordinator::new(vec![
        Arc::new(LocalBackend::new(palm)) as Arc<dyn ExecutionBackend>,
        Arc::new(RemoteBackend::new(&stall_addr)) as Arc<dyn ExecutionBackend>,
    ]);
    let deadline = Duration::from_millis(400);
    let started = Instant::now();
    let response = coordinator
        .handle_with_deadline(query_request("idx", &series[9].values, 3), Some(deadline));
    let elapsed = started.elapsed();
    match response {
        PalmResponse::Error {
            kind, shard_costs, ..
        } => {
            assert_eq!(kind, ERROR_KIND_SHARD_UNAVAILABLE);
            let costs = shard_costs.expect("per-shard costs must be attached");
            assert!(costs[0].cost.is_some(), "the healthy shard answered");
            assert!(costs[1].cost.is_none(), "the stalled shard never did");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Deadline + the backend's 250 ms read grace + scheduling slack.
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "coordinator hung for {elapsed:?}"
    );
    drop(coordinator);
    drop(stall_thread);
}

/// An in-process shard whose next outcomes can be scripted: a scripted
/// outcome is returned *instead of* executing the frame (the request is
/// lost, as on a dead connection); with the script empty the frame runs.
/// Keeps every frame it is handed.
struct Scripted {
    inner: LocalBackend,
    script: Mutex<VecDeque<Result<PalmResponse, BackendError>>>,
    frames: Mutex<Vec<String>>,
}

impl Scripted {
    fn new(dir: &ScratchDir, tag: &str) -> Arc<Scripted> {
        Arc::new(Scripted {
            inner: LocalBackend::new(Arc::new(PalmServer::new(dir.file(tag)))),
            script: Mutex::new(VecDeque::new()),
            frames: Mutex::new(Vec::new()),
        })
    }
}

impl ExecutionBackend for Scripted {
    fn describe(&self) -> String {
        "scripted".to_string()
    }

    fn execute_frame(
        &self,
        frame: &str,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError> {
        self.frames.lock().unwrap().push(frame.to_string());
        match self.script.lock().unwrap().pop_front() {
            Some(outcome) => outcome,
            None => self.inner.execute_frame(frame, deadline),
        }
    }
}

/// Route bookkeeping under failure.  A transport failure leaves the outcome
/// unknown, so the ids it was given are burned and the turn passes on; a
/// shard that reports another row count than the coordinator counted is a
/// protocol failure, and burns them too.
#[test]
fn transport_failure_burns_ids_and_a_row_mismatch_is_a_protocol_error() {
    let dir = ScratchDir::new("fault-route").unwrap();
    let (dataset_path, series) = make_dataset(&dir, 90);
    let shards = [Scripted::new(&dir, "s0"), Scripted::new(&dir, "s1")];
    let coordinator = Coordinator::new(
        shards
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ExecutionBackend>)
            .collect(),
    );
    let built = coordinator.handle_with_deadline(build_request("idx", &dataset_path), None);
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    let count = series.len() as u64;
    let insert = |rows: usize| PalmRequest::Insert {
        name: "idx".into(),
        series: vec![series[1].values.clone(); rows],
        timestamp: 1,
        base_id: None,
    };
    let base_ids = |shard: &Scripted| -> Vec<u64> {
        let frames = shard.frames.lock().unwrap();
        frames
            .iter()
            .filter_map(|f| {
                Json::parse(f)
                    .unwrap()
                    .get("base_id")
                    .and_then(Json::as_f64)
            })
            .map(|id| id as u64)
            .collect()
    };

    // Shard 0's connection dies under a 2-row insert.
    shards[0]
        .script
        .lock()
        .unwrap()
        .push_back(Err(BackendError::Unavailable("scripted reset".into())));
    match coordinator.handle_with_deadline(insert(2), None) {
        PalmResponse::Error { kind, .. } => assert_eq!(kind, ERROR_KIND_SHARD_UNAVAILABLE),
        other => panic!("unexpected response {other:?}"),
    }
    // Shard 1 claims to have applied 5 rows of a 3-row insert.
    shards[1]
        .script
        .lock()
        .unwrap()
        .push_back(Ok(PalmResponse::Inserted {
            name: "idx".into(),
            inserted: 5,
            total: 0,
        }));
    match coordinator.handle_with_deadline(insert(3), None) {
        PalmResponse::Error { kind, message, .. } => {
            assert_eq!(kind, ERROR_KIND_SHARD_UNAVAILABLE);
            assert!(message.contains("protocol"), "{message}");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // The next insert is back on shard 0, past everything that may exist.
    match coordinator.handle_with_deadline(insert(1), None) {
        PalmResponse::Inserted {
            inserted, total, ..
        } => assert_eq!((inserted, total), (1, count + 2 + 5 + 1)),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(base_ids(&shards[0]), vec![count, count + 7]);
    assert_eq!(base_ids(&shards[1]), vec![count + 2]);
}

/// A scripted server answering `overloaded` a fixed number of times
/// before succeeding, for pinning the retry loop.
fn scripted_overload_server(sheds_before_success: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut served = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let payload = if served < sheds_before_success {
                Json::obj(vec![
                    ("type", Json::Str("error".into())),
                    ("kind", Json::Str("overloaded".into())),
                    ("message", Json::Str("scripted shed".into())),
                    ("retry_after_ms", Json::Num(10.0)),
                ])
            } else {
                Json::obj(vec![
                    ("type", Json::Str("indexes".into())),
                    ("names", Json::Arr(vec![])),
                ])
            };
            served += 1;
            let mut bytes = payload.to_string().into_bytes();
            bytes.push(b'\n');
            if writer.write_all(&bytes).is_err() {
                return;
            }
        }
    });
    (addr, handle)
}

/// Satellite: the client honors `retry_after_ms` on overloaded sheds and
/// succeeds once the server recovers within the attempt budget.
#[test]
fn client_retries_overloaded_sheds_until_success() {
    let (addr, server) = scripted_overload_server(2);
    let mut client = PalmClient::connect(&addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 4,
        budget: Duration::from_secs(2),
        default_backoff: Duration::from_millis(5),
    };
    let started = Instant::now();
    let response = client
        .call_with_retry(&PalmRequest::ListIndexes.to_json().to_string(), &policy)
        .expect("two sheds then success must succeed");
    assert_eq!(response.get("type").and_then(Json::as_str), Some("indexes"));
    // Two jittered waits of a 10 ms hint: at least 10 ms total (jitter
    // halves at worst), comfortably under the budget.
    assert!(started.elapsed() >= Duration::from_millis(10));
    drop(client);
    let _ = server.join();
}

/// Satellite: a server that never recovers produces the typed give-up
/// error after exactly the policy's attempts, within the budget.
#[test]
fn client_gives_up_with_typed_error_when_always_overloaded() {
    let (addr, server) = scripted_overload_server(usize::MAX);
    let mut client = PalmClient::connect(&addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 3,
        budget: Duration::from_secs(2),
        default_backoff: Duration::from_millis(5),
    };
    match client.call_with_retry(&PalmRequest::ListIndexes.to_json().to_string(), &policy) {
        Err(CallError::RetriesExhausted {
            attempts,
            last_retry_after_ms,
            ..
        }) => {
            assert_eq!(attempts, 3);
            assert_eq!(last_retry_after_ms, Some(10));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    drop(client);
    let _ = server.join();
}

/// The `RemoteBackend` surfaces an exhausted retry budget as the worker's
/// own structured `overloaded` response — a service condition, not a
/// transport failure — so the coordinator propagates it typed.
#[test]
fn remote_backend_reports_persistent_overload_as_service_error() {
    let (addr, server) = scripted_overload_server(usize::MAX);
    let backend = RemoteBackend::with_policy(
        &addr,
        RetryPolicy {
            max_attempts: 2,
            budget: Duration::from_secs(1),
            default_backoff: Duration::from_millis(5),
        },
    );
    let response = backend
        .execute(&PalmRequest::ListIndexes, Some(Duration::from_secs(1)))
        .expect("overload is a response, not a transport error");
    match response {
        PalmResponse::Error {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, ERROR_KIND_OVERLOADED);
            assert_eq!(retry_after_ms, Some(10), "the server's hint is preserved");
        }
        other => panic!("unexpected response {other:?}"),
    }
    drop(backend);
    let _ = server.join();
}

/// The full `PalmResponse` JSON round-trip used by the wire: an error
/// with shard costs survives serialize → parse exactly.
#[test]
fn shard_error_round_trips_through_json() {
    let response = PalmResponse::Error {
        kind: ERROR_KIND_SHARD_UNAVAILABLE.to_string(),
        message: "shard 1 (worker 127.0.0.1:1): gone".to_string(),
        partial_cost: None,
        retry_after_ms: Some(40),
        shard_costs: Some(vec![
            coconut_core::palm::ShardCostJson {
                shard: 0,
                cost: Some(coconut_core::palm::QueryCostJson {
                    entries_examined: 10,
                    entries_refined: 4,
                    raw_fetches: 2,
                    blocks_read: 3,
                    blocks_skipped: 5,
                }),
            },
            coconut_core::palm::ShardCostJson {
                shard: 1,
                cost: None,
            },
        ]),
    };
    let json = response.to_json().to_string();
    let parsed = PalmResponse::from_json(&Json::parse(&json).unwrap()).unwrap();
    assert_eq!(json, parsed.to_json().to_string());
}
