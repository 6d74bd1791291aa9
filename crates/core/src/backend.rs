//! The `ExecutionBackend` seam: *where* a Palm request runs.
//!
//! Every request path in the repo funnels through [`PalmServer`] — the
//! service verbs, their JSON encoding, deadlines, and error taxonomy are
//! all defined there.  This module abstracts only the *placement* of that
//! execution: an [`ExecutionBackend`] accepts a [`PalmRequest`] plus an
//! optional deadline and returns the [`PalmResponse`] some Palm instance
//! produced, whether that instance lives in this process
//! ([`LocalBackend`]) or behind a socket (`coconut-net`'s
//! `RemoteBackend`).
//!
//! The contract that makes scatter-gather provable is *transparency*: a
//! backend never rewrites, reorders, or re-rounds the response.  The
//! coordinator merges per-shard answers with the engine's own
//! [`merge_topk`](coconut_ctree::engine::merge_topk) total order, so two
//! topologies that execute the same per-shard requests return
//! bit-identical merged answers regardless of which backend carried them.
//!
//! Service-level errors (unknown index, deadline, overload shed) are
//! *responses* — they travel inside `Ok(PalmResponse::Error { .. })` just
//! as they travel inside a wire frame.  [`BackendError`] is reserved for
//! the transport itself failing: the process behind a remote backend died
//! or the bytes that came back were not a Palm response.  A local backend
//! has no transport, so it is infallible by construction.

use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_json::{FromJson, Json, ToJson};
use coconut_parallel::CancelToken;

use crate::palm::{PalmRequest, PalmResponse, PalmServer};

/// Transport-level failure of a backend — the request never produced a
/// Palm response at all (distinct from `PalmResponse::Error`, which is a
/// well-formed service answer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend cannot be reached: connection refused, reset, timed
    /// out below the protocol level, or the worker process is gone.
    Unavailable(String),
    /// The backend answered with bytes that do not parse as a Palm
    /// response — a protocol bug, not a service condition.
    Protocol(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unavailable(why) => write!(f, "backend unavailable: {why}"),
            BackendError::Protocol(why) => write!(f, "backend protocol error: {why}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A place where Palm requests execute.
pub trait ExecutionBackend: Send + Sync {
    /// Human-readable identity for logs and error messages (e.g.
    /// `"local"` or `"worker 127.0.0.1:9042"`).
    fn describe(&self) -> String;

    /// Executes one already encoded request — a JSON object as
    /// [`encode_frame`] or a router writes it — to completion.  This is the
    /// one thing a placement has to do; a caller that holds the text of a
    /// request (the coordinator forwarding an `insert`, or broadcasting one
    /// encoding of a query to every shard) never pays for a second encode.
    ///
    /// `deadline` bounds the whole call from now at the transport; `None`
    /// means the caller imposes no limit.  The *worker* stops computing at
    /// the frame's own `deadline_ms` member, which [`encode_frame`] writes
    /// from the same value.  Running past the deadline must surface as a
    /// `deadline_exceeded` error *response* when the engine noticed, or
    /// [`BackendError::Unavailable`] when the transport gave up waiting.
    fn execute_frame(
        &self,
        frame: &str,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError>;

    /// Executes one typed request: encodes it once and hands the text to
    /// [`ExecutionBackend::execute_frame`].
    fn execute(
        &self,
        request: &PalmRequest,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError> {
        self.execute_frame(&encode_frame(request, deadline), deadline)
    }
}

/// The wire text of `request`, with the protocol-level `deadline_ms` member
/// spliced in so that whoever executes it bounds its own work.
pub fn encode_frame(request: &PalmRequest, deadline: Option<Duration>) -> String {
    let mut json = request.to_json();
    if let (Some(limit), Json::Obj(members)) = (deadline, &mut json) {
        members.push(("deadline_ms".to_string(), Json::Num(deadline_ms(limit))));
    }
    json.to_string()
}

/// `limit` as the value of a `deadline_ms` member.
pub fn deadline_ms(limit: Duration) -> f64 {
    limit.as_secs_f64() * 1000.0
}

/// The in-process placement: requests run directly on a [`PalmServer`]
/// in this address space.  This is the pre-refactor query path, now one
/// implementation among several.
///
/// Requests reach the server as JSON text, exactly as a remote shard's do.
/// For a typed request that costs microseconds and buys the identity
/// proof: a local shard and a remote shard present the *same bytes* to the
/// same `PalmServer` entry point (`coconut-json` prints `f64`
/// shortest-round-trip, so numeric values survive exactly), which is what
/// lets the equivalence suite compare topologies at the bit level rather
/// than "close enough".
pub struct LocalBackend {
    palm: Arc<PalmServer>,
}

impl LocalBackend {
    /// Wraps an in-process server as a backend.
    pub fn new(palm: Arc<PalmServer>) -> Self {
        LocalBackend { palm }
    }

    /// The wrapped server.
    pub fn palm(&self) -> &Arc<PalmServer> {
        &self.palm
    }
}

impl ExecutionBackend for LocalBackend {
    fn describe(&self) -> String {
        "local".to_string()
    }

    fn execute_frame(
        &self,
        frame: &str,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError> {
        let cancel = match deadline {
            None => CancelToken::never(),
            Some(limit) => CancelToken::at(Instant::now() + limit),
        };
        let response_json = self.palm.handle_json_with(frame, &cancel);
        let parsed = Json::parse(&response_json)
            .map_err(|e| BackendError::Protocol(format!("local response unparseable: {e}")))?;
        PalmResponse::from_json(&parsed)
            .map_err(|e| BackendError::Protocol(format!("local response malformed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::ScratchDir;

    use crate::{Dataset, IoBackend, PlannerMode, VariantKind};

    fn build(name: &str, dataset_path: String) -> PalmRequest {
        PalmRequest::BuildIndex {
            name: name.into(),
            dataset_path,
            variant: VariantKind::Clsm,
            materialized: true,
            memory_budget_bytes: 8 << 20,
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

    /// A query through the backend seam answers bit-identically to the
    /// same query handled directly — the JSON round-trip is lossless.
    #[test]
    fn local_backend_is_transparent() {
        let dir = ScratchDir::new("backend-local").unwrap();
        let mut gen = RandomWalkGenerator::new(64, 41);
        let series = gen.generate(96);
        let dataset_path = dir.file("raw.bin");
        Dataset::create_from_series(&dataset_path, &series).unwrap();

        let palm = Arc::new(PalmServer::new(dir.file("work")));
        let backend = LocalBackend::new(Arc::clone(&palm));
        let built = backend
            .execute(
                &build("b", dataset_path.to_string_lossy().into_owned()),
                None,
            )
            .unwrap();
        assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");

        let query = PalmRequest::Query {
            name: "b".into(),
            query: series[17].values.iter().map(|v| v + 0.01).collect(),
            k: 5,
            exact: true,
        };
        let direct = palm.handle(query.clone());
        let via_backend = backend.execute(&query, None).unwrap();
        match (direct, via_backend) {
            (
                PalmResponse::QueryResult {
                    ids: i1,
                    squared_distances: d1,
                    cost: c1,
                    ..
                },
                PalmResponse::QueryResult {
                    ids: i2,
                    squared_distances: d2,
                    cost: c2,
                    ..
                },
            ) => {
                assert_eq!(i1, i2);
                let b1: Vec<u64> = d1.iter().map(|d| d.to_bits()).collect();
                let b2: Vec<u64> = d2.iter().map(|d| d.to_bits()).collect();
                assert_eq!(
                    b1, b2,
                    "squared distances must survive the seam bit-exactly"
                );
                assert_eq!(c1, c2);
            }
            other => panic!("unexpected responses {other:?}"),
        }
    }

    /// A zero deadline surfaces as the service's own typed
    /// `deadline_exceeded` response, not a transport error.
    #[test]
    fn local_backend_maps_deadline_to_service_error() {
        let dir = ScratchDir::new("backend-deadline").unwrap();
        let palm = Arc::new(PalmServer::new(dir.file("work")));
        let backend = LocalBackend::new(palm);
        let response = backend
            .execute(
                &PalmRequest::Query {
                    name: "missing".into(),
                    query: vec![0.0; 8],
                    k: 1,
                    exact: false,
                },
                Some(Duration::from_millis(0)),
            )
            .unwrap();
        // The index does not exist, so the service answers before the
        // engine ever consults the token; what matters here is that the
        // seam returned a typed response rather than failing transport.
        assert!(
            matches!(response, PalmResponse::Error { .. }),
            "{response:?}"
        );
    }
}
