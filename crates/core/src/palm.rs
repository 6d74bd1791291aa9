//! The "algorithms server" request/response layer.
//!
//! The demo's GUI client talks to a back-end algorithms server over REST with
//! JSON payloads (Section 4, "Implementation").  This module reproduces that
//! protocol as a library: [`PalmServer`] holds built indexes keyed by name
//! and processes [`PalmRequest`] values, returning [`PalmResponse`] values
//! that serialize to the same kind of JSON the GUI would consume (build
//! metrics, query results, heat-map style access summaries, recommender
//! advice).  Examples and benchmarks drive it directly; an actual HTTP
//! front-end would be a thin wrapper around [`PalmServer::handle`].
//!
//! # Concurrency
//!
//! [`PalmServer::handle`] takes `&self`: the server is shared across request
//! threads, so many clients are served concurrently.  The lock hierarchy has
//! two levels (see DESIGN.md, "Palm service concurrency"):
//!
//! 1. the **registry** — an `RwLock` over the name → index map, held only
//!    long enough to look a slot up (read) or register a built index
//!    (write); index builds run entirely outside it;
//! 2. one **slot** `RwLock` per index — queries share the read side (reads
//!    of one index run concurrently with each other), streaming
//!    [`PalmRequest::Insert`]s take the write side, so every query observes
//!    a consistent snapshot of the index.
//!
//! A [`PalmRequest::Batch`] dispatches its sub-requests across a
//! [`WorkerPool`]; kNN queries sharing `(index, k, exact)` are grouped and
//! executed through the engine's batched round pipeline
//! (`coconut_ctree::engine::batch_knn`), whose per-query answers and costs
//! are bit-identical to one-at-a-time execution.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_json::{member, member_or, FromJson, Json, JsonError, ToJson};
use coconut_parallel::{CancelToken, WorkerPool};
use parking_lot::{Mutex, RwLock};

use crate::{
    recommend, BuildReport, Dataset, IndexConfig, IoBackend, IoStats, PlanReport, PlannerMode,
    Scenario, Series, StaticIndex, VariantKind,
};
use coconut_storage::SharedIoStats;

/// A request to the algorithms server.
#[derive(Debug, Clone)]
pub enum PalmRequest {
    /// Build an index over a dataset file.
    BuildIndex {
        /// Name under which the index is registered.
        name: String,
        /// Path of the raw dataset file.
        dataset_path: String,
        /// Structure family.
        variant: VariantKind,
        /// Whether to materialize the series inside the index.
        materialized: bool,
        /// Memory budget in bytes.
        memory_budget_bytes: usize,
        /// Worker threads for the build (`1` = sequential, `0` = all cores).
        /// Optional in the JSON protocol; defaults to `1`.
        parallelism: usize,
        /// Worker threads for the query fan-out (`1` = sequential, `0` =
        /// all cores).  Optional in the JSON protocol; defaults to `1`.
        /// A pure performance knob: query results are identical at every
        /// setting.
        query_parallelism: usize,
        /// Key-range shards per CLSM compaction.  Optional in the JSON
        /// protocol; defaults to `1` (ignored by non-CLSM variants).
        shard_count: usize,
        /// Restrict the build to the dataset's id window `[lo, hi)`.
        /// Optional in the JSON protocol (`range_lo`/`range_hi` members);
        /// defaults to the whole file.  Ids stay global (a series' id is
        /// its file position), which is what makes service-level sharding
        /// sound: each worker builds over its own contiguous id range of
        /// the shared dataset and merged answers need no id translation.
        range: Option<(u64, u64)>,
        /// Overlap computation with I/O during the build.  Optional in the
        /// JSON protocol; defaults to `true`.  A pure performance knob:
        /// index files, answers and I/O totals are identical either way.
        io_overlap: bool,
        /// Read backend for the index files ("pread" | "mmap").  Optional
        /// in the JSON protocol; defaults to "pread".  A pure performance
        /// knob: index files, answers and I/O totals are identical either
        /// way.
        io_backend: IoBackend,
        /// Query planning mode ("fixed" | "adaptive").  Optional in the
        /// JSON protocol; defaults to "fixed".  A pure performance knob:
        /// query results are identical in both modes — "adaptive" only
        /// changes which execution knobs the engine runs with, and attaches
        /// an `explain` member to query responses.
        planner: PlannerMode,
        /// On-disk compression of sorted runs and leaf blocks ("off" |
        /// "prefix").  Optional in the JSON protocol; defaults to the
        /// `COCONUT_COMPRESSION` environment variable (itself defaulting to
        /// "off").  A pure performance knob: answers, `QueryCost` and the
        /// logical I/O totals are identical at either setting.
        compression: coconut_storage::Compression,
    },
    /// Run a query against a registered index.
    Query {
        /// Name of the index to query.
        name: String,
        /// The query series values.
        query: Vec<f32>,
        /// Number of neighbours.
        k: usize,
        /// Exact or approximate search.
        exact: bool,
    },
    /// Execute a batch of sub-requests concurrently on the worker pool.
    ///
    /// Responses come back in request order.  kNN queries sharing
    /// `(index, k, exact)` are grouped through the engine's batched round
    /// pipeline, so each one's answers and cost are identical to issuing it
    /// alone.
    Batch {
        /// The sub-requests; each produces one entry of
        /// [`PalmResponse::Batch`].
        requests: Vec<PalmRequest>,
    },
    /// Append new series to a registered index (streaming ingest).  Series
    /// ids are assigned sequentially after the index's current entries.
    Insert {
        /// Name of the index to append to.
        name: String,
        /// The series values, one inner vector per series.
        series: Vec<Vec<f32>>,
        /// Arrival timestamp shared by the batch.  Optional in the JSON
        /// protocol; defaults to `0`.
        timestamp: u64,
        /// First id to assign, overriding the default
        /// `index.len()`-sequential assignment.  Optional in the JSON
        /// protocol.  Used by the scatter-gather coordinator, which owns
        /// the global id space and routes each insert to one shard; direct
        /// single-node clients leave it unset.
        base_id: Option<u64>,
    },
    /// Fetch the build report of a registered index.
    Metrics {
        /// Name of the index.
        name: String,
    },
    /// Ask the recommender for advice.
    Recommend {
        /// The application scenario.
        scenario: Scenario,
    },
    /// List registered indexes.
    ListIndexes,
    /// Fetch service counters (requests, cache hits/misses, shed load,
    /// deadline misses).
    Stats,
}

/// A response from the algorithms server.
#[derive(Debug, Clone)]
pub enum PalmResponse {
    /// Result of a build request.
    Built {
        /// Index name.
        name: String,
        /// Variant display name ("CTreeFull", ...).
        variant: String,
        /// Build metrics.
        report: BuildReport,
    },
    /// Result of a query request.
    QueryResult {
        /// Index name.
        name: String,
        /// Neighbour ids, ascending distance.
        ids: Vec<u64>,
        /// Neighbour distances (Euclidean, not squared).
        distances: Vec<f64>,
        /// Squared distances, exactly as the engine compares them.  The
        /// full neighbour identity `(squared_distance, id, timestamp)`
        /// travels on the wire so a scatter-gather coordinator can merge
        /// per-shard top-k with the engine's own total order, bit-exactly
        /// (`sqrt` rounding could collapse distinct squared distances).
        squared_distances: Vec<f64>,
        /// Arrival timestamps of the matched entries (zero for static
        /// data); the tie-break of last resort in the engine's order.
        timestamps: Vec<u64>,
        /// Query latency in milliseconds.  For a query answered inside a
        /// batched group this is the wall-clock of the whole group.
        elapsed_ms: f64,
        /// Entries examined / refined / raw fetches / blocks read+skipped.
        cost: QueryCostJson,
        /// The planner's recorded decision for this execution, present only
        /// when the index runs in "adaptive" mode *and* the answer was
        /// computed (cache hits carry no plan — nothing was planned).
        /// Serialized only when present.
        explain: Option<PlanReportJson>,
    },
    /// Per-sub-request responses of a batch, in request order.
    Batch {
        /// One response per sub-request.
        responses: Vec<PalmResponse>,
    },
    /// Result of an insert request.
    Inserted {
        /// Index name.
        name: String,
        /// Number of series appended by this request.
        inserted: u64,
        /// Total entries in the index afterwards.
        total: u64,
    },
    /// Metrics of a registered index.
    Metrics {
        /// Index name.
        name: String,
        /// Build metrics.
        report: BuildReport,
        /// Current footprint in bytes.
        footprint_bytes: u64,
    },
    /// Recommender advice.
    Recommendation {
        /// The recommendation, including the rationale path.
        recommendation: coconut_recommender::Recommendation,
    },
    /// Names of registered indexes.
    Indexes {
        /// Registered names.
        names: Vec<String>,
    },
    /// Service counters (see [`PalmRequest::Stats`]).
    Stats {
        /// Requests handled (batch sub-requests count individually).
        requests: u64,
        /// Queries answered from the result cache.
        cache_hits: u64,
        /// Queries that missed the result cache (counted only when the
        /// cache is enabled).
        cache_misses: u64,
        /// Entries currently resident in the result cache.
        cache_entries: u64,
        /// Requests shed by admission control (reported by a network
        /// front-end via [`PalmServer::note_shed`]).
        shed: u64,
        /// Requests that missed their deadline.
        deadline_exceeded: u64,
        /// Indexes currently registered.
        indexes: u64,
        /// Queries (and batched groups) executed through the adaptive
        /// planner's compute path.
        planner_adaptive: u64,
        /// Queries (and batched groups) executed with fixed knobs.
        planner_fixed: u64,
        /// Adaptive plans that chose a parallel fan-out (>1 worker).
        plans_parallel: u64,
        /// Adaptive plans that chose sequential execution (1 worker).
        plans_sequential: u64,
        /// Adaptive plans that disabled read-ahead (cache-resident index).
        plans_read_ahead_off: u64,
        /// Adaptive plans that split the batch into round-pipeline chunks.
        plans_chunked: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable error kind; one of the `ERROR_KIND_*`
        /// constants ("malformed_request", "unknown_index", "config",
        /// "storage", "series", "deadline_exceeded", "overloaded",
        /// "shutting_down").
        kind: String,
        /// Human-readable error message.
        message: String,
        /// For `deadline_exceeded`: the work performed before the
        /// cancellation was observed.  Serialized only when present.
        partial_cost: Option<QueryCostJson>,
        /// For `overloaded`: how long the client should wait before
        /// retrying.  Attached by the network front-end's admission
        /// control and preserved end-to-end so retry loops (the client's
        /// `call_with_retry`, the coordinator's per-shard retries) can
        /// honour the server's hint.  Serialized only when present.
        retry_after_ms: Option<u64>,
        /// For `shard_unavailable` (and other scatter-gather failures):
        /// the per-shard partial costs the coordinator had collected when
        /// the request failed, in shard order.  Serialized only when
        /// present.
        shard_costs: Option<Vec<ShardCostJson>>,
    },
}

/// Per-shard cost evidence attached to scatter-gather error responses: what
/// each worker reported (or failed to report) before the coordinator gave
/// up on the request.
#[derive(Debug, Clone, Copy)]
pub struct ShardCostJson {
    /// Shard index in the coordinator's configured order.
    pub shard: u64,
    /// The shard's (possibly partial) cost; `None` when the shard became
    /// unreachable before reporting anything.
    pub cost: Option<QueryCostJson>,
}

impl ToJson for ShardCostJson {
    fn to_json(&self) -> Json {
        let mut members = vec![("shard", self.shard.to_json())];
        if let Some(cost) = &self.cost {
            members.push(("cost", cost.to_json()));
        }
        Json::obj(members)
    }
}

impl FromJson for ShardCostJson {
    fn from_json(json: &Json) -> coconut_json::Result<ShardCostJson> {
        Ok(ShardCostJson {
            shard: member(json, "shard")?,
            cost: match json.get("cost") {
                Some(cost) => Some(QueryCostJson::from_json(cost)?),
                None => None,
            },
        })
    }
}

/// Error kind for requests that could not be parsed as JSON / protocol.
pub const ERROR_KIND_MALFORMED: &str = "malformed_request";
/// Error kind for requests naming an unregistered index.
pub const ERROR_KIND_UNKNOWN_INDEX: &str = "unknown_index";
/// Error kind for configuration errors (mismatched lengths, bad knobs).
pub const ERROR_KIND_CONFIG: &str = "config";
/// Error kind for storage-layer failures.
pub const ERROR_KIND_STORAGE: &str = "storage";
/// Error kind for raw-dataset failures.
pub const ERROR_KIND_SERIES: &str = "series";
/// Error kind for requests cancelled because their deadline passed.  The
/// response carries the partial [`QueryCostJson`] accumulated so far.
pub const ERROR_KIND_DEADLINE: &str = "deadline_exceeded";
/// Error kind for requests shed by admission control.  Emitted by the
/// network front-end (`coconut_net`), which adds a `retry_after_ms` hint.
pub const ERROR_KIND_OVERLOADED: &str = "overloaded";
/// Error kind for requests refused because the server is draining before
/// exit.  Emitted by the network front-end (`coconut_net`).
pub const ERROR_KIND_SHUTTING_DOWN: &str = "shutting_down";
/// Error kind for scatter-gather requests that lost a shard: a worker
/// became unreachable (connection refused, reset, or silent past the
/// deadline) before every fragment of the answer arrived.  Emitted by the
/// coordinator (`coconut_net::coordinator`), carrying the per-shard
/// partial costs collected so far in `shard_costs`.
pub const ERROR_KIND_SHARD_UNAVAILABLE: &str = "shard_unavailable";

/// Internal error carrying the machine-readable kind alongside the message.
struct ServiceError {
    kind: &'static str,
    message: String,
    partial_cost: Option<QueryCostJson>,
}

impl ServiceError {
    fn unknown_index(name: &str) -> Self {
        ServiceError {
            kind: ERROR_KIND_UNKNOWN_INDEX,
            message: format!("no index registered under '{name}'"),
            partial_cost: None,
        }
    }

    fn config(message: String) -> Self {
        ServiceError {
            kind: ERROR_KIND_CONFIG,
            message,
            partial_cost: None,
        }
    }

    /// A request cancelled before (or while) touching the index: the
    /// partial cost is whatever the engine accumulated up to the round
    /// boundary where the cancellation was observed.
    fn deadline(partial_cost: QueryCostJson) -> Self {
        ServiceError {
            kind: ERROR_KIND_DEADLINE,
            message: "deadline exceeded before the request completed".to_string(),
            partial_cost: Some(partial_cost),
        }
    }

    fn into_response(self) -> PalmResponse {
        PalmResponse::Error {
            kind: self.kind.to_string(),
            message: self.message,
            partial_cost: self.partial_cost,
            retry_after_ms: None,
            shard_costs: None,
        }
    }
}

impl From<crate::IndexError> for ServiceError {
    fn from(e: crate::IndexError) -> Self {
        if let crate::IndexError::Cancelled { partial_cost } = &e {
            return ServiceError::deadline((*partial_cost).into());
        }
        let kind = match &e {
            crate::IndexError::Config(_) => ERROR_KIND_CONFIG,
            crate::IndexError::Storage(_) => ERROR_KIND_STORAGE,
            crate::IndexError::Series(_) => ERROR_KIND_SERIES,
            crate::IndexError::Cancelled { .. } => unreachable!("handled above"),
        };
        ServiceError {
            kind,
            message: e.to_string(),
            partial_cost: None,
        }
    }
}

impl From<coconut_series::SeriesError> for ServiceError {
    fn from(e: coconut_series::SeriesError) -> Self {
        ServiceError {
            kind: ERROR_KIND_SERIES,
            message: e.to_string(),
            partial_cost: None,
        }
    }
}

/// JSON-friendly projection of [`coconut_ctree::query::QueryCost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCostJson {
    /// Entries whose summarization was examined.
    pub entries_examined: u64,
    /// Entries refined with a true distance computation.
    pub entries_refined: u64,
    /// Raw series fetched from the data file.
    pub raw_fetches: u64,
    /// Blocks/partitions read.
    pub blocks_read: u64,
    /// Blocks/partitions skipped by pruning.
    pub blocks_skipped: u64,
}

impl From<coconut_ctree::query::QueryCost> for QueryCostJson {
    fn from(c: coconut_ctree::query::QueryCost) -> Self {
        QueryCostJson {
            entries_examined: c.entries_examined,
            entries_refined: c.entries_refined,
            raw_fetches: c.raw_fetches,
            blocks_read: c.blocks_read,
            blocks_skipped: c.blocks_skipped,
        }
    }
}

impl ToJson for QueryCostJson {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entries_examined", self.entries_examined.to_json()),
            ("entries_refined", self.entries_refined.to_json()),
            ("raw_fetches", self.raw_fetches.to_json()),
            ("blocks_read", self.blocks_read.to_json()),
            ("blocks_skipped", self.blocks_skipped.to_json()),
        ])
    }
}

impl FromJson for QueryCostJson {
    fn from_json(json: &Json) -> coconut_json::Result<QueryCostJson> {
        Ok(QueryCostJson {
            entries_examined: member(json, "entries_examined")?,
            entries_refined: member(json, "entries_refined")?,
            raw_fetches: member(json, "raw_fetches")?,
            blocks_read: member(json, "blocks_read")?,
            blocks_skipped: member(json, "blocks_skipped")?,
        })
    }
}

/// JSON-friendly projection of [`crate::PlanReport`]: the captured
/// [`crate::PlannerInputs`] snapshot and the [`crate::PlanDecision`] chosen
/// from it, exactly as recorded (replayable: `decision` is the pure
/// `planner::plan` of `inputs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanReportJson {
    /// Index footprint at capture time, bytes.
    pub footprint_bytes: u64,
    /// Estimated page-cache budget at capture time, bytes.
    pub cache_budget_bytes: u64,
    /// Search units the query fans out over.
    pub unit_count: u64,
    /// Runs/levels backing the index.
    pub run_count: u64,
    /// Cores at capture time.
    pub cores: u64,
    /// Neighbours requested.
    pub k: u64,
    /// Queries covered by this plan.
    pub batch_width: u64,
    /// Exact or approximate search.
    pub exact: bool,
    /// Random share of reads so far, permille.
    pub random_read_permille: u64,
    /// Chosen engine fan-out workers.
    pub query_parallelism: u64,
    /// Chosen read-ahead engagement.
    pub read_ahead: bool,
    /// Chosen read-ahead gate, bytes.
    pub prefetch_min_bytes: u64,
    /// Chosen batch round chunk.
    pub batch_chunk: u64,
}

impl From<PlanReport> for PlanReportJson {
    fn from(r: PlanReport) -> Self {
        PlanReportJson {
            footprint_bytes: r.inputs.footprint_bytes,
            cache_budget_bytes: r.inputs.cache_budget_bytes,
            unit_count: r.inputs.unit_count as u64,
            run_count: r.inputs.run_count as u64,
            cores: r.inputs.cores as u64,
            k: r.inputs.k as u64,
            batch_width: r.inputs.batch_width as u64,
            exact: r.inputs.exact,
            random_read_permille: r.inputs.random_read_permille as u64,
            query_parallelism: r.decision.query_parallelism as u64,
            read_ahead: r.decision.read_ahead,
            prefetch_min_bytes: r.decision.prefetch_min_bytes,
            batch_chunk: r.decision.batch_chunk as u64,
        }
    }
}

impl ToJson for PlanReportJson {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "inputs",
                Json::obj(vec![
                    ("footprint_bytes", self.footprint_bytes.to_json()),
                    ("cache_budget_bytes", self.cache_budget_bytes.to_json()),
                    ("unit_count", self.unit_count.to_json()),
                    ("run_count", self.run_count.to_json()),
                    ("cores", self.cores.to_json()),
                    ("k", self.k.to_json()),
                    ("batch_width", self.batch_width.to_json()),
                    ("exact", self.exact.to_json()),
                    ("random_read_permille", self.random_read_permille.to_json()),
                ]),
            ),
            (
                "decision",
                Json::obj(vec![
                    ("query_parallelism", self.query_parallelism.to_json()),
                    ("read_ahead", self.read_ahead.to_json()),
                    ("prefetch_min_bytes", self.prefetch_min_bytes.to_json()),
                    ("batch_chunk", self.batch_chunk.to_json()),
                ]),
            ),
        ])
    }
}

impl FromJson for PlanReportJson {
    fn from_json(json: &Json) -> coconut_json::Result<PlanReportJson> {
        let inputs = json
            .get("inputs")
            .ok_or_else(|| JsonError::new("missing field 'inputs'"))?;
        let decision = json
            .get("decision")
            .ok_or_else(|| JsonError::new("missing field 'decision'"))?;
        Ok(PlanReportJson {
            footprint_bytes: member(inputs, "footprint_bytes")?,
            cache_budget_bytes: member(inputs, "cache_budget_bytes")?,
            unit_count: member(inputs, "unit_count")?,
            run_count: member(inputs, "run_count")?,
            cores: member(inputs, "cores")?,
            k: member(inputs, "k")?,
            batch_width: member(inputs, "batch_width")?,
            exact: member(inputs, "exact")?,
            random_read_permille: member(inputs, "random_read_permille")?,
            query_parallelism: member(decision, "query_parallelism")?,
            read_ahead: member(decision, "read_ahead")?,
            prefetch_min_bytes: member(decision, "prefetch_min_bytes")?,
            batch_chunk: member(decision, "batch_chunk")?,
        })
    }
}

impl ToJson for PalmRequest {
    fn to_json(&self) -> Json {
        match self {
            PalmRequest::BuildIndex {
                name,
                dataset_path,
                variant,
                materialized,
                memory_budget_bytes,
                parallelism,
                query_parallelism,
                shard_count,
                range,
                io_overlap,
                io_backend,
                planner,
                compression,
            } => {
                let mut members = vec![
                    ("type", Json::Str("build_index".into())),
                    ("name", name.to_json()),
                    ("dataset_path", dataset_path.to_json()),
                    ("variant", variant.to_json()),
                    ("materialized", materialized.to_json()),
                    ("memory_budget_bytes", memory_budget_bytes.to_json()),
                    ("parallelism", parallelism.to_json()),
                    ("query_parallelism", query_parallelism.to_json()),
                    ("shard_count", shard_count.to_json()),
                    ("io_overlap", io_overlap.to_json()),
                    ("io_backend", io_backend.to_json()),
                    ("planner", planner.to_json()),
                    ("compression", compression.to_json()),
                ];
                if let Some((lo, hi)) = range {
                    members.push(("range_lo", lo.to_json()));
                    members.push(("range_hi", hi.to_json()));
                }
                Json::obj(members)
            }
            PalmRequest::Query {
                name,
                query,
                k,
                exact,
            } => Json::obj(vec![
                ("type", Json::Str("query".into())),
                ("name", name.to_json()),
                ("query", query.to_json()),
                ("k", k.to_json()),
                ("exact", exact.to_json()),
            ]),
            PalmRequest::Batch { requests } => Json::obj(vec![
                ("type", Json::Str("batch".into())),
                ("requests", requests.to_json()),
            ]),
            PalmRequest::Insert {
                name,
                series,
                timestamp,
                base_id,
            } => {
                let mut members = vec![
                    ("type", Json::Str("insert".into())),
                    ("name", name.to_json()),
                    ("series", series.to_json()),
                    ("timestamp", timestamp.to_json()),
                ];
                if let Some(base) = base_id {
                    members.push(("base_id", base.to_json()));
                }
                Json::obj(members)
            }
            PalmRequest::Metrics { name } => Json::obj(vec![
                ("type", Json::Str("metrics".into())),
                ("name", name.to_json()),
            ]),
            PalmRequest::Recommend { scenario } => Json::obj(vec![
                ("type", Json::Str("recommend".into())),
                ("scenario", scenario.to_json()),
            ]),
            PalmRequest::ListIndexes => Json::obj(vec![("type", Json::Str("list_indexes".into()))]),
            PalmRequest::Stats => Json::obj(vec![("type", Json::Str("stats".into()))]),
        }
    }
}

impl FromJson for PalmRequest {
    fn from_json(json: &Json) -> coconut_json::Result<PalmRequest> {
        let kind: String = member(json, "type")?;
        match kind.as_str() {
            "build_index" => Ok(PalmRequest::BuildIndex {
                name: member(json, "name")?,
                dataset_path: member(json, "dataset_path")?,
                variant: member(json, "variant")?,
                materialized: member(json, "materialized")?,
                memory_budget_bytes: member(json, "memory_budget_bytes")?,
                parallelism: member_or(json, "parallelism", 1)?,
                query_parallelism: member_or(json, "query_parallelism", 1)?,
                shard_count: member_or(json, "shard_count", 1)?,
                range: match (json.get("range_lo"), json.get("range_hi")) {
                    (None, None) => None,
                    (Some(_), Some(_)) => {
                        Some((member(json, "range_lo")?, member(json, "range_hi")?))
                    }
                    _ => {
                        return Err(JsonError::new(
                            "range_lo and range_hi must be given together",
                        ))
                    }
                },
                io_overlap: member_or(json, "io_overlap", true)?,
                io_backend: member_or(json, "io_backend", IoBackend::Pread)?,
                planner: member_or(json, "planner", PlannerMode::Fixed)?,
                compression: member_or(
                    json,
                    "compression",
                    coconut_storage::Compression::from_env(),
                )?,
            }),
            "query" => Ok(PalmRequest::Query {
                name: member(json, "name")?,
                query: member(json, "query")?,
                k: member(json, "k")?,
                exact: member(json, "exact")?,
            }),
            "batch" => Ok(PalmRequest::Batch {
                requests: member(json, "requests")?,
            }),
            "insert" => Ok(PalmRequest::Insert {
                name: member(json, "name")?,
                series: member(json, "series")?,
                timestamp: member_or(json, "timestamp", 0u64)?,
                base_id: match json.get("base_id") {
                    Some(_) => Some(member(json, "base_id")?),
                    None => None,
                },
            }),
            "metrics" => Ok(PalmRequest::Metrics {
                name: member(json, "name")?,
            }),
            "recommend" => Ok(PalmRequest::Recommend {
                scenario: member(json, "scenario")?,
            }),
            "list_indexes" => Ok(PalmRequest::ListIndexes),
            "stats" => Ok(PalmRequest::Stats),
            other => Err(JsonError::new(format!("unknown request type '{other}'"))),
        }
    }
}

impl ToJson for PalmResponse {
    fn to_json(&self) -> Json {
        match self {
            PalmResponse::Built {
                name,
                variant,
                report,
            } => Json::obj(vec![
                ("type", Json::Str("built".into())),
                ("name", name.to_json()),
                ("variant", variant.to_json()),
                ("report", report.to_json()),
            ]),
            PalmResponse::QueryResult {
                name,
                ids,
                distances,
                squared_distances,
                timestamps,
                elapsed_ms,
                cost,
                explain,
            } => {
                let mut members = vec![
                    ("type", Json::Str("query_result".into())),
                    ("name", name.to_json()),
                    ("ids", ids.to_json()),
                    ("distances", distances.to_json()),
                    ("squared_distances", squared_distances.to_json()),
                    ("timestamps", timestamps.to_json()),
                    ("elapsed_ms", elapsed_ms.to_json()),
                    ("cost", cost.to_json()),
                ];
                if let Some(report) = explain {
                    members.push(("explain", report.to_json()));
                }
                Json::obj(members)
            }
            PalmResponse::Batch { responses } => Json::obj(vec![
                ("type", Json::Str("batch_result".into())),
                ("responses", responses.to_json()),
            ]),
            PalmResponse::Inserted {
                name,
                inserted,
                total,
            } => Json::obj(vec![
                ("type", Json::Str("inserted".into())),
                ("name", name.to_json()),
                ("inserted", inserted.to_json()),
                ("total", total.to_json()),
            ]),
            PalmResponse::Metrics {
                name,
                report,
                footprint_bytes,
            } => Json::obj(vec![
                ("type", Json::Str("metrics".into())),
                ("name", name.to_json()),
                ("report", report.to_json()),
                ("footprint_bytes", footprint_bytes.to_json()),
            ]),
            PalmResponse::Recommendation { recommendation } => Json::obj(vec![
                ("type", Json::Str("recommendation".into())),
                ("recommendation", recommendation.to_json()),
            ]),
            PalmResponse::Indexes { names } => Json::obj(vec![
                ("type", Json::Str("indexes".into())),
                ("names", names.to_json()),
            ]),
            PalmResponse::Stats {
                requests,
                cache_hits,
                cache_misses,
                cache_entries,
                shed,
                deadline_exceeded,
                indexes,
                planner_adaptive,
                planner_fixed,
                plans_parallel,
                plans_sequential,
                plans_read_ahead_off,
                plans_chunked,
            } => Json::obj(vec![
                ("type", Json::Str("stats".into())),
                ("requests", requests.to_json()),
                ("cache_hits", cache_hits.to_json()),
                ("cache_misses", cache_misses.to_json()),
                ("cache_entries", cache_entries.to_json()),
                ("shed", shed.to_json()),
                ("deadline_exceeded", deadline_exceeded.to_json()),
                ("indexes", indexes.to_json()),
                ("planner_adaptive", planner_adaptive.to_json()),
                ("planner_fixed", planner_fixed.to_json()),
                ("plans_parallel", plans_parallel.to_json()),
                ("plans_sequential", plans_sequential.to_json()),
                ("plans_read_ahead_off", plans_read_ahead_off.to_json()),
                ("plans_chunked", plans_chunked.to_json()),
            ]),
            PalmResponse::Error {
                kind,
                message,
                partial_cost,
                retry_after_ms,
                shard_costs,
            } => {
                let mut members = vec![
                    ("type", Json::Str("error".into())),
                    ("kind", kind.to_json()),
                    ("message", message.to_json()),
                ];
                if let Some(cost) = partial_cost {
                    members.push(("partial_cost", cost.to_json()));
                }
                if let Some(ms) = retry_after_ms {
                    members.push(("retry_after_ms", ms.to_json()));
                }
                if let Some(costs) = shard_costs {
                    members.push(("shard_costs", costs.to_json()));
                }
                Json::obj(members)
            }
        }
    }
}

impl FromJson for PalmResponse {
    fn from_json(json: &Json) -> coconut_json::Result<PalmResponse> {
        let kind: String = member(json, "type")?;
        match kind.as_str() {
            "built" => Ok(PalmResponse::Built {
                name: member(json, "name")?,
                variant: member(json, "variant")?,
                report: member(json, "report")?,
            }),
            "query_result" => Ok(PalmResponse::QueryResult {
                name: member(json, "name")?,
                ids: member(json, "ids")?,
                distances: member(json, "distances")?,
                squared_distances: member(json, "squared_distances")?,
                timestamps: member(json, "timestamps")?,
                elapsed_ms: member(json, "elapsed_ms")?,
                cost: member(json, "cost")?,
                explain: match json.get("explain") {
                    Some(report) => Some(PlanReportJson::from_json(report)?),
                    None => None,
                },
            }),
            "batch_result" => Ok(PalmResponse::Batch {
                responses: member(json, "responses")?,
            }),
            "inserted" => Ok(PalmResponse::Inserted {
                name: member(json, "name")?,
                inserted: member(json, "inserted")?,
                total: member(json, "total")?,
            }),
            "metrics" => Ok(PalmResponse::Metrics {
                name: member(json, "name")?,
                report: member(json, "report")?,
                footprint_bytes: member(json, "footprint_bytes")?,
            }),
            "recommendation" => Ok(PalmResponse::Recommendation {
                recommendation: member(json, "recommendation")?,
            }),
            "indexes" => Ok(PalmResponse::Indexes {
                names: member(json, "names")?,
            }),
            "stats" => Ok(PalmResponse::Stats {
                requests: member(json, "requests")?,
                cache_hits: member(json, "cache_hits")?,
                cache_misses: member(json, "cache_misses")?,
                cache_entries: member(json, "cache_entries")?,
                shed: member(json, "shed")?,
                deadline_exceeded: member(json, "deadline_exceeded")?,
                indexes: member(json, "indexes")?,
                planner_adaptive: member(json, "planner_adaptive")?,
                planner_fixed: member(json, "planner_fixed")?,
                plans_parallel: member(json, "plans_parallel")?,
                plans_sequential: member(json, "plans_sequential")?,
                plans_read_ahead_off: member(json, "plans_read_ahead_off")?,
                plans_chunked: member(json, "plans_chunked")?,
            }),
            "error" => Ok(PalmResponse::Error {
                kind: member(json, "kind")?,
                message: member(json, "message")?,
                partial_cost: match json.get("partial_cost") {
                    Some(cost) => Some(QueryCostJson::from_json(cost)?),
                    None => None,
                },
                retry_after_ms: match json.get("retry_after_ms") {
                    Some(_) => Some(member(json, "retry_after_ms")?),
                    None => None,
                },
                shard_costs: match json.get("shard_costs") {
                    Some(_) => Some(member(json, "shard_costs")?),
                    None => None,
                },
            }),
            other => Err(JsonError::new(format!("unknown response type '{other}'"))),
        }
    }
}

struct Registered {
    index: StaticIndex,
    report: BuildReport,
    stats: SharedIoStats,
    /// Monotonic write-version tag.  Unique across every index the server
    /// ever registers (drawn from [`PalmServer::versions`]), and bumped
    /// under the slot's write lock by every mutation (insert, sync,
    /// rebuild under the same name).  Cache entries carry the version they
    /// were computed against; a version mismatch makes them invisible, so
    /// a stale entry can never be served — even across an index rebuild
    /// that reuses a name (no ABA).
    version: u64,
}

/// One registered index behind its own reader-writer lock: queries share
/// the read side, streaming inserts take the write side.
type Slot = Arc<RwLock<Registered>>;

/// Key of a memoized query answer: the full identity of the computation.
/// Query values are compared bit-wise (`f32::to_bits`), so `-0.0 != 0.0`
/// and NaN payloads are distinguished — the cache only ever coalesces
/// requests that are bit-identical on the wire.  `window` is carried for
/// forward compatibility with windowed queries; the service protocol
/// currently always issues unwindowed queries (`None`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    name: String,
    query_bits: Vec<u32>,
    k: usize,
    exact: bool,
    window: Option<(u64, u64)>,
}

impl CacheKey {
    fn query(name: &str, query: &[f32], k: usize, exact: bool) -> Self {
        CacheKey {
            name: name.to_string(),
            query_bits: query.iter().map(|v| v.to_bits()).collect(),
            k,
            exact,
            window: None,
        }
    }
}

/// A memoized answer: exactly what the compute path produced, so a hit is
/// bit-identical to a recomputation against the same index version.
#[derive(Clone)]
struct CachedAnswer {
    ids: Vec<u64>,
    distances: Vec<f64>,
    squared_distances: Vec<f64>,
    timestamps: Vec<u64>,
    cost: QueryCostJson,
}

impl CachedAnswer {
    /// Captures the engine's answer with full neighbour identity.
    fn from_neighbors(
        neighbors: &[coconut_series::distance::Neighbor],
        cost: QueryCostJson,
    ) -> Self {
        CachedAnswer {
            ids: neighbors.iter().map(|n| n.id).collect(),
            distances: neighbors.iter().map(|n| n.distance()).collect(),
            squared_distances: neighbors.iter().map(|n| n.squared_distance).collect(),
            timestamps: neighbors.iter().map(|n| n.timestamp).collect(),
            cost,
        }
    }
    /// `explain` is the plan that drove this computation — `None` for cache
    /// hits (nothing was planned) and for fixed-mode executions.
    fn into_response(
        self,
        name: &str,
        elapsed_ms: f64,
        explain: Option<PlanReportJson>,
    ) -> PalmResponse {
        PalmResponse::QueryResult {
            name: name.to_string(),
            ids: self.ids,
            distances: self.distances,
            squared_distances: self.squared_distances,
            timestamps: self.timestamps,
            elapsed_ms,
            cost: self.cost,
            explain,
        }
    }
}

struct CacheEntry {
    version: u64,
    answer: CachedAnswer,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    /// FIFO insertion order used for eviction.  May hold keys already
    /// purged from `map`; eviction skips them.
    order: VecDeque<CacheKey>,
}

/// Bounded result cache with version-tagged entries (see [`Registered`]).
struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Returns the cached answer iff it was computed against exactly
    /// `version`; a stale entry is dropped on sight.
    fn lookup(&self, key: &CacheKey, version: u64) -> Option<CachedAnswer> {
        let mut inner = self.inner.lock();
        match inner.map.get(key) {
            Some(entry) if entry.version == version => Some(entry.answer.clone()),
            Some(_) => {
                inner.map.remove(key);
                None
            }
            None => None,
        }
    }

    fn insert(&self, key: CacheKey, version: u64, answer: CachedAnswer) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.map.get_mut(&key) {
            // Same key, possibly newer version: replace in place.
            *entry = CacheEntry { version, answer };
            return;
        }
        while inner.map.len() >= self.capacity {
            match inner.order.pop_front() {
                Some(oldest) => {
                    inner.map.remove(&oldest);
                }
                None => break,
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, CacheEntry { version, answer });
    }

    /// Drops every entry belonging to `name`.  The version tags already
    /// make such entries unservable; the purge just returns their memory.
    fn purge(&self, name: &str) {
        let mut inner = self.inner.lock();
        inner.map.retain(|key, _| key.name != name);
        inner.order.retain(|key| key.name != name);
    }

    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }
}

/// Monotonic service counters, updated with relaxed atomics (they are
/// telemetry, not synchronization).
#[derive(Default)]
pub struct ServiceStats {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    planner_adaptive: AtomicU64,
    planner_fixed: AtomicU64,
    plans_parallel: AtomicU64,
    plans_sequential: AtomicU64,
    plans_read_ahead_off: AtomicU64,
    plans_chunked: AtomicU64,
}

/// A point-in-time copy of [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Requests handled (batch sub-requests count individually).
    pub requests: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that consulted the result cache and missed.
    pub cache_misses: u64,
    /// Requests shed by admission control (see [`PalmServer::note_shed`]).
    pub shed: u64,
    /// Requests that missed their deadline.
    pub deadline_exceeded: u64,
    /// Queries (and batched groups) executed through the adaptive planner.
    pub planner_adaptive: u64,
    /// Queries (and batched groups) executed with fixed knobs.
    pub planner_fixed: u64,
    /// Adaptive plans that chose a parallel fan-out.
    pub plans_parallel: u64,
    /// Adaptive plans that chose sequential execution.
    pub plans_sequential: u64,
    /// Adaptive plans that disabled read-ahead.
    pub plans_read_ahead_off: u64,
    /// Adaptive plans that chunked the batch round shape.
    pub plans_chunked: u64,
}

impl ServiceStats {
    /// Reads all counters.
    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            planner_adaptive: self.planner_adaptive.load(Ordering::Relaxed),
            planner_fixed: self.planner_fixed.load(Ordering::Relaxed),
            plans_parallel: self.plans_parallel.load(Ordering::Relaxed),
            plans_sequential: self.plans_sequential.load(Ordering::Relaxed),
            plans_read_ahead_off: self.plans_read_ahead_off.load(Ordering::Relaxed),
            plans_chunked: self.plans_chunked.load(Ordering::Relaxed),
        }
    }

    /// Folds one compute-path execution into the planner counters: `None`
    /// means the index ran with fixed knobs, `Some` is the adaptive plan
    /// that drove the execution (its decision is tallied by knob value).
    fn note_plan(&self, report: Option<&PlanReport>) {
        match report {
            None => {
                self.planner_fixed.fetch_add(1, Ordering::Relaxed);
            }
            Some(report) => {
                self.planner_adaptive.fetch_add(1, Ordering::Relaxed);
                if report.decision.query_parallelism > 1 {
                    self.plans_parallel.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.plans_sequential.fetch_add(1, Ordering::Relaxed);
                }
                if !report.decision.read_ahead {
                    self.plans_read_ahead_off.fetch_add(1, Ordering::Relaxed);
                }
                if report.decision.batch_chunk < report.inputs.batch_width {
                    self.plans_chunked.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The in-process algorithms server.
///
/// `handle` takes `&self`, so one server is shared across request threads;
/// see the module docs for the lock hierarchy.
pub struct PalmServer {
    work_dir: PathBuf,
    indexes: RwLock<HashMap<String, Slot>>,
    pool: WorkerPool,
    /// Result cache; `None` (the default) disables memoization entirely.
    cache: Option<ResultCache>,
    stats: ServiceStats,
    /// Source of unique [`Registered::version`] tags.
    versions: AtomicU64,
}

impl PalmServer {
    /// Creates a server that stores index files under `work_dir`.  Batch
    /// sub-requests fan out over one worker per available core; see
    /// [`PalmServer::with_batch_parallelism`].
    pub fn new<P: Into<PathBuf>>(work_dir: P) -> Self {
        PalmServer {
            work_dir: work_dir.into(),
            indexes: RwLock::new(HashMap::new()),
            pool: WorkerPool::new(0),
            cache: None,
            stats: ServiceStats::default(),
            versions: AtomicU64::new(0),
        }
    }

    /// Sets the worker count batch sub-requests are dispatched over
    /// (`1` = sequential, `0` = one per available core).  A pure
    /// performance knob: batch responses are identical at every setting.
    pub fn with_batch_parallelism(mut self, workers: usize) -> Self {
        self.pool = WorkerPool::new(workers);
        self
    }

    /// Enables the result cache, memoizing up to `capacity` query answers
    /// keyed by `(index, query bits, k, exact, window)`.  Entries are
    /// version-tagged and invalidated by the write side (inserts, syncs,
    /// rebuilds), so a hit is bit-identical to recomputation: answers are
    /// a pure function of the key and the index version.
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(ResultCache::new(capacity));
        self
    }

    /// Whether [`PalmServer::with_result_cache`] was applied.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Service counters (shared with the `stats` verb).
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.stats.snapshot()
    }

    /// Records a request shed by admission control.  The network
    /// front-end calls this when it refuses a request before it ever
    /// reaches [`PalmServer::handle`], so the `stats` verb still sees it.
    pub fn note_shed(&self) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn next_version(&self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Handles one request, never panicking: failures become
    /// [`PalmResponse::Error`] carrying a machine-readable `kind`.
    pub fn handle(&self, request: PalmRequest) -> PalmResponse {
        self.handle_with(request, &CancelToken::never())
    }

    /// [`PalmServer::handle`] under a cancellation token: the engine
    /// checks it at round boundaries and aborts with
    /// [`ERROR_KIND_DEADLINE`] (carrying the partial cost) once it trips.
    /// Completed requests are unaffected by the token — answers stay
    /// bit-identical to the untokened path.
    pub fn handle_with(&self, request: PalmRequest, cancel: &CancelToken) -> PalmResponse {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match self.try_handle(request, cancel) {
            Ok(response) => response,
            Err(e) => e.into_response(),
        };
        if let PalmResponse::Error { kind, .. } = &response {
            if kind == ERROR_KIND_DEADLINE {
                self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
        }
        response
    }

    /// Handles a request given as a JSON string, returning a JSON response
    /// (the exact shape the GUI client would exchange over REST).
    pub fn handle_json(&self, request_json: &str) -> String {
        self.handle_json_with(request_json, &CancelToken::never())
    }

    /// [`PalmServer::handle_json`] under a cancellation token.  A numeric
    /// top-level `deadline_ms` member tightens the token for this request
    /// only (relative to now); the response then reports
    /// `deadline_exceeded` if the engine could not finish in time.
    pub fn handle_json_with(&self, request_json: &str, cancel: &CancelToken) -> String {
        let response = match Json::parse(request_json) {
            Ok(json) => self.handle_parsed(&json, cancel),
            Err(e) => PalmResponse::Error {
                kind: ERROR_KIND_MALFORMED.to_string(),
                message: format!("malformed request: {e}"),
                partial_cost: None,
                retry_after_ms: None,
                shard_costs: None,
            },
        };
        response.to_json().to_string()
    }

    /// [`PalmServer::handle_json_with`] over an owned byte buffer, as a
    /// network front-end reads it off a socket.  The buffer is consumed —
    /// validated in place, never copied — and the invalid-UTF-8 reject
    /// path allocates only a short fixed message, not a second copy of
    /// the (attacker-sized) payload.
    pub fn handle_json_bytes(&self, request: Vec<u8>, cancel: &CancelToken) -> String {
        match String::from_utf8(request) {
            Ok(text) => self.handle_json_with(&text, cancel),
            Err(_) => {
                let response = PalmResponse::Error {
                    kind: ERROR_KIND_MALFORMED.to_string(),
                    message: "request is not valid UTF-8".to_string(),
                    partial_cost: None,
                    retry_after_ms: None,
                    shard_costs: None,
                };
                response.to_json().to_string()
            }
        }
    }

    /// Handles an already-parsed JSON request.  This is where the
    /// protocol-level `deadline_ms` member is folded into the token.
    pub fn handle_parsed(&self, json: &Json, cancel: &CancelToken) -> PalmResponse {
        let cancel = match json.get("deadline_ms") {
            None => cancel.clone(),
            Some(value) => match value.as_f64() {
                Some(ms) if ms >= 0.0 => {
                    cancel.with_deadline(Instant::now() + Duration::from_millis(ms as u64))
                }
                _ => {
                    return PalmResponse::Error {
                        kind: ERROR_KIND_MALFORMED.to_string(),
                        message: "deadline_ms must be a non-negative number".to_string(),
                        partial_cost: None,
                        retry_after_ms: None,
                        shard_costs: None,
                    }
                }
            },
        };
        match PalmRequest::from_json(json) {
            Ok(request) => self.handle_with(request, &cancel),
            Err(e) => PalmResponse::Error {
                kind: ERROR_KIND_MALFORMED.to_string(),
                message: format!("malformed request: {e}"),
                partial_cost: None,
                retry_after_ms: None,
                shard_costs: None,
            },
        }
    }

    /// Syncs every registered index to durable storage (delta merges,
    /// buffer flushes, then the durability barrier: see
    /// [`StaticIndex::sync`]).  Each sync runs under its slot's write lock
    /// and — being a mutation from the cache's point of view — bumps the
    /// slot version and purges the index's cache entries.  Called by the
    /// network front-end during graceful shutdown, so the process never
    /// exits with an `fdatasync` or unlink still queued.
    pub fn sync_all(&self) -> Result<usize, String> {
        let slots: Vec<(String, Slot)> = self
            .indexes
            .read()
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut synced = 0;
        for (name, slot) in slots {
            let mut registered = slot.write();
            registered
                .index
                .sync()
                .map_err(|e| format!("sync of index '{name}' failed: {e}"))?;
            registered.version = self.next_version();
            if let Some(cache) = &self.cache {
                cache.purge(&name);
            }
            synced += 1;
        }
        // With no index registered nothing above reached the barrier, and
        // a dropped index may have left a failed sync unreported.
        coconut_storage::durability::drain().map_err(|e| format!("sync failed: {e}"))?;
        Ok(synced)
    }

    fn slot(&self, name: &str) -> Result<Slot, ServiceError> {
        self.indexes
            .read()
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| ServiceError::unknown_index(name))
    }

    fn try_handle(
        &self,
        request: PalmRequest,
        cancel: &CancelToken,
    ) -> Result<PalmResponse, ServiceError> {
        match request {
            PalmRequest::BuildIndex {
                name,
                dataset_path,
                variant,
                materialized,
                memory_budget_bytes,
                parallelism,
                query_parallelism,
                shard_count,
                range,
                io_overlap,
                io_backend,
                planner,
                compression,
            } => {
                // The build runs entirely outside the registry lock, so
                // queries against other indexes proceed while it sorts.
                // A ranged build (service-level sharding) windows the
                // dataset to `[lo, hi)`; ids stay global.
                let dataset = match range {
                    None => Dataset::open(&dataset_path)?,
                    Some((lo, hi)) => Dataset::open_range(&dataset_path, lo, hi)?,
                };
                let config = IndexConfig::new(variant, dataset.series_len())
                    .materialized(materialized)
                    .with_memory_budget(memory_budget_bytes.max(1 << 20))
                    .with_parallelism(parallelism)
                    .with_query_parallelism(query_parallelism)
                    .with_shard_count(shard_count)
                    .with_io_overlap(io_overlap)
                    .with_io_backend(io_backend)
                    .with_planner(planner)
                    .with_compression(compression);
                let stats = IoStats::shared();
                let dir = self.work_dir.join(&name);
                let (index, report) =
                    StaticIndex::build(&dataset, config, &dir, Arc::clone(&stats))?;
                let variant_name = config.display_name();
                self.indexes.write().insert(
                    name.clone(),
                    Arc::new(RwLock::new(Registered {
                        index,
                        report,
                        stats,
                        version: self.next_version(),
                    })),
                );
                // Rebuilding under an existing name is a write: the fresh
                // version tag already hides old entries, the purge just
                // frees them.
                if let Some(cache) = &self.cache {
                    cache.purge(&name);
                }
                Ok(PalmResponse::Built {
                    name,
                    variant: variant_name,
                    report,
                })
            }
            PalmRequest::Query {
                name,
                query,
                k,
                exact,
            } => {
                let slot = self.slot(&name)?;
                let registered = slot.read();
                let start = Instant::now();
                // The version is read under the slot read lock, so it is
                // exactly the version the computation below runs against:
                // any insert orders entirely before (older version, entry
                // invisible to future readers) or after this read section.
                let version = registered.version;
                let key = self
                    .cache
                    .as_ref()
                    .map(|_| CacheKey::query(&name, &query, k, exact));
                if let (Some(cache), Some(key)) = (&self.cache, &key) {
                    // A hit is served whatever the deadline says, expired
                    // included: it costs less than the error would.
                    if let Some(hit) = cache.lookup(key, version) {
                        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
                        // A hit ran no plan, so there is no explain.
                        return Ok(hit.into_response(&name, elapsed_ms, None));
                    }
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                }
                let ((neighbors, cost), plan) =
                    registered.index.knn_planned(&query, k, exact, cancel)?;
                self.stats.note_plan(plan.as_ref());
                let answer = CachedAnswer::from_neighbors(&neighbors, cost.into());
                if let (Some(cache), Some(key)) = (&self.cache, key) {
                    cache.insert(key, version, answer.clone());
                }
                let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
                Ok(answer.into_response(&name, elapsed_ms, plan.map(Into::into)))
            }
            PalmRequest::Batch { requests } => Ok(self.execute_batch(requests, cancel)),
            PalmRequest::Insert {
                name,
                series,
                timestamp,
                base_id,
            } => {
                let slot = self.slot(&name)?;
                // The write side: queries drain first, then the append runs
                // exclusively, so every query sees a consistent snapshot.
                let mut registered = slot.write();
                // A non-materialized index refines from the original dataset
                // file, which does not contain appended series: accepting
                // the insert would poison every later query with fetch
                // errors, so reject it up front.  (Both `config` answers to
                // this verb — this one and a wrong-length row, which
                // `insert_batch` checks batch-wide first — leave the index
                // untouched; the coordinator's id bookkeeping counts on it.)
                if !registered.index.is_materialized() {
                    return Err(ServiceError::config(format!(
                        "index '{name}' is non-materialized: streaming inserts require a                          materialized index (appended series do not exist in the raw                          dataset file used for refinement)"
                    )));
                }
                // The coordinator owns the global id space when sharding
                // and passes the base explicitly; a direct client gets the
                // local-sequential default.
                let base = base_id.unwrap_or_else(|| registered.index.len());
                let batch: Vec<Series> = series
                    .into_iter()
                    .enumerate()
                    .map(|(i, values)| Series::new(base + i as u64, values))
                    .collect();
                let inserted = registered.index.insert_batch(&batch, timestamp);
                // Invalidate before releasing the write lock — and even on
                // failure, which may have partially mutated the index.  A
                // reader that raced this insert cached under the *old*
                // version while holding the read side; bumping the version
                // here makes that entry (and any in-flight insert of it)
                // unservable before any post-insert reader can look up.
                registered.version = self.next_version();
                if let Some(cache) = &self.cache {
                    cache.purge(&name);
                }
                inserted?;
                Ok(PalmResponse::Inserted {
                    name,
                    inserted: batch.len() as u64,
                    total: registered.index.len(),
                })
            }
            PalmRequest::Metrics { name } => {
                let slot = self.slot(&name)?;
                let registered = slot.read();
                Ok(PalmResponse::Metrics {
                    name,
                    report: registered.report,
                    footprint_bytes: registered.index.footprint_bytes(),
                })
            }
            PalmRequest::Recommend { scenario } => Ok(PalmResponse::Recommendation {
                recommendation: recommend(&scenario),
            }),
            PalmRequest::ListIndexes => {
                let mut names: Vec<String> = self.indexes.read().keys().cloned().collect();
                names.sort();
                Ok(PalmResponse::Indexes { names })
            }
            PalmRequest::Stats => {
                let snapshot = self.stats.snapshot();
                Ok(PalmResponse::Stats {
                    requests: snapshot.requests,
                    cache_hits: snapshot.cache_hits,
                    cache_misses: snapshot.cache_misses,
                    cache_entries: self.cache.as_ref().map_or(0, |c| c.len() as u64),
                    shed: snapshot.shed,
                    deadline_exceeded: snapshot.deadline_exceeded,
                    indexes: self.indexes.read().len() as u64,
                    planner_adaptive: snapshot.planner_adaptive,
                    planner_fixed: snapshot.planner_fixed,
                    plans_parallel: snapshot.plans_parallel,
                    plans_sequential: snapshot.plans_sequential,
                    plans_read_ahead_off: snapshot.plans_read_ahead_off,
                    plans_chunked: snapshot.plans_chunked,
                })
            }
        }
    }

    /// Executes a batch: kNN queries sharing `(index, k, exact)` become one
    /// grouped job answered through [`StaticIndex::batch_knn_with`]; every
    /// other sub-request is a singleton job.  Jobs fan out over the worker
    /// pool and responses are scattered back into request order.
    /// Sub-requests are consumed, never cloned; nested batches are rejected
    /// (the service boundary must not recurse on attacker-chosen depth).
    ///
    /// Deadlines are reported per sub-request: a job that trips the token
    /// produces `deadline_exceeded` for *its* entries only, while jobs that
    /// completed (possibly on other workers) keep their answers — the batch
    /// as a whole never turns into one blanket error.
    fn execute_batch(&self, requests: Vec<PalmRequest>, cancel: &CancelToken) -> PalmResponse {
        enum Job {
            /// A singleton sub-request, taken (exactly once) by the worker
            /// that claims the job; the `Mutex` only exists because the
            /// pool hands out shared references.
            Single(usize, parking_lot::Mutex<Option<PalmRequest>>),
            Queries {
                name: String,
                k: usize,
                exact: bool,
                idxs: Vec<usize>,
                queries: Vec<Vec<f32>>,
            },
        }
        let total = requests.len();
        let mut jobs: Vec<Job> = Vec::new();
        let mut ready: Vec<(usize, PalmResponse)> = Vec::new();
        let mut groups: HashMap<(String, usize, bool), usize> = HashMap::new();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                PalmRequest::Query {
                    name,
                    query,
                    k,
                    exact,
                } => {
                    let job = *groups.entry((name.clone(), k, exact)).or_insert_with(|| {
                        jobs.push(Job::Queries {
                            name,
                            k,
                            exact,
                            idxs: Vec::new(),
                            queries: Vec::new(),
                        });
                        jobs.len() - 1
                    });
                    let Job::Queries { idxs, queries, .. } = &mut jobs[job] else {
                        unreachable!("query group indexes only point at query jobs");
                    };
                    idxs.push(i);
                    queries.push(query);
                    // Grouped queries bypass `handle_with`, so count them
                    // here: every sub-request shows up in the stats.
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                }
                PalmRequest::Batch { .. } => ready.push((
                    i,
                    PalmResponse::Error {
                        kind: ERROR_KIND_MALFORMED.to_string(),
                        message: "batch requests cannot be nested".to_string(),
                        partial_cost: None,
                        retry_after_ms: None,
                        shard_costs: None,
                    },
                )),
                other => jobs.push(Job::Single(i, parking_lot::Mutex::new(Some(other)))),
            }
        }
        let outcomes = self.pool.run(&jobs, |_, job| match job {
            Job::Single(i, request) => {
                let request = request
                    .lock()
                    .take()
                    .expect("each singleton job is claimed exactly once");
                vec![(*i, self.handle_with(request, cancel))]
            }
            Job::Queries {
                name,
                k,
                exact,
                idxs,
                queries,
            } => match self.batch_query(name, queries, *k, *exact, cancel) {
                Ok(responses) => idxs.iter().copied().zip(responses).collect(),
                Err(e) => {
                    if e.kind == ERROR_KIND_DEADLINE {
                        self.stats
                            .deadline_exceeded
                            .fetch_add(idxs.len() as u64, Ordering::Relaxed);
                    }
                    let response = e.into_response();
                    idxs.iter().map(|&i| (i, response.clone())).collect()
                }
            },
        });
        let mut responses: Vec<Option<PalmResponse>> = vec![None; total];
        for (i, response) in outcomes.into_iter().flatten().chain(ready) {
            responses[i] = Some(response);
        }
        PalmResponse::Batch {
            responses: responses
                .into_iter()
                .map(|r| r.expect("every sub-request produced a response"))
                .collect(),
        }
    }

    /// Answers a group of same-shape kNN queries against one index through
    /// the engine's batched round pipeline.  With the result cache enabled,
    /// hits are served directly and only the misses go through the engine;
    /// this is answer-preserving because batched answers are bit-identical
    /// to one-at-a-time answers (the engine invariant), so a mix of cached
    /// and freshly-batched entries equals the all-fresh batch.
    fn batch_query(
        &self,
        name: &str,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
        cancel: &CancelToken,
    ) -> Result<Vec<PalmResponse>, ServiceError> {
        let slot = self.slot(name)?;
        let registered = slot.read();
        let start = Instant::now();
        let version = registered.version;
        let mut answers: Vec<Option<CachedAnswer>> = vec![None; queries.len()];
        let mut miss_idxs: Vec<usize> = Vec::new();
        match &self.cache {
            Some(cache) => {
                for (i, query) in queries.iter().enumerate() {
                    let key = CacheKey::query(name, query, k, exact);
                    match cache.lookup(&key, version) {
                        Some(hit) => {
                            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                            answers[i] = Some(hit);
                        }
                        None => {
                            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                            miss_idxs.push(i);
                        }
                    }
                }
            }
            None => miss_idxs.extend(0..queries.len()),
        }
        let mut explain: Option<PlanReportJson> = None;
        if !miss_idxs.is_empty() {
            // Avoid re-cloning the payloads when nothing was cached.
            let miss_queries: Vec<Vec<f32>>;
            let engine_queries: &[Vec<f32>] = if miss_idxs.len() == queries.len() {
                queries
            } else {
                miss_queries = miss_idxs.iter().map(|&i| queries[i].clone()).collect();
                &miss_queries
            };
            let (results, plan) =
                registered
                    .index
                    .batch_knn_planned(engine_queries, k, exact, cancel)?;
            self.stats.note_plan(plan.as_ref());
            explain = plan.map(Into::into);
            for (&i, (neighbors, cost)) in miss_idxs.iter().zip(results) {
                let answer = CachedAnswer::from_neighbors(&neighbors, cost.into());
                if let Some(cache) = &self.cache {
                    cache.insert(
                        CacheKey::query(name, &queries[i], k, exact),
                        version,
                        answer.clone(),
                    );
                }
                answers[i] = Some(answer);
            }
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
        // One plan covered every engine-computed miss; cache hits ran no
        // plan and carry no explain.
        let mut missed = vec![false; queries.len()];
        for &i in &miss_idxs {
            missed[i] = true;
        }
        Ok(answers
            .into_iter()
            .zip(missed)
            .map(|(answer, was_miss)| {
                answer
                    .expect("every query is either a cache hit or an engine result")
                    .into_response(name, elapsed_ms, if was_miss { explain } else { None })
            })
            .collect())
    }

    /// Shared I/O statistics of a registered index (for heat-map style
    /// reporting in examples).
    pub fn io_stats(&self, name: &str) -> Option<SharedIoStats> {
        self.indexes
            .read()
            .get(name)
            .map(|slot| Arc::clone(&slot.read().stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::ScratchDir;

    fn setup() -> (ScratchDir, String, Vec<coconut_series::Series>) {
        let dir = ScratchDir::new("palm").unwrap();
        let mut gen = RandomWalkGenerator::new(64, 12);
        let series = gen.generate(200);
        let path = dir.file("raw.bin");
        Dataset::create_from_series(&path, &series).unwrap();
        (dir, path.to_string_lossy().into_owned(), series)
    }

    fn build_request(name: &str, dataset_path: String, variant: VariantKind) -> PalmRequest {
        PalmRequest::BuildIndex {
            name: name.into(),
            dataset_path,
            variant,
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

    #[test]
    fn build_query_metrics_roundtrip() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        let built = server.handle(build_request("ctree", dataset_path, VariantKind::CTree));
        match &built {
            PalmResponse::Built {
                variant, report, ..
            } => {
                assert_eq!(variant, "CTreeFull");
                assert_eq!(report.entries, 200);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let target = &series[17];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.001).collect();
        let result = server.handle(PalmRequest::Query {
            name: "ctree".into(),
            query,
            k: 1,
            exact: true,
        });
        match result {
            PalmResponse::QueryResult { ids, distances, .. } => {
                assert_eq!(ids, vec![17]);
                assert!(distances[0] < 1.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        match server.handle(PalmRequest::Metrics {
            name: "ctree".into(),
        }) {
            PalmResponse::Metrics {
                footprint_bytes, ..
            } => assert!(footprint_bytes > 0),
            other => panic!("unexpected response {other:?}"),
        }
        match server.handle(PalmRequest::ListIndexes) {
            PalmResponse::Indexes { names } => assert_eq!(names, vec!["ctree".to_string()]),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn json_protocol_roundtrip() {
        let (dir, dataset_path, _series) = setup();
        let server = PalmServer::new(dir.file("work"));
        let request = format!(
            r#"{{"type":"build_index","name":"a","dataset_path":{},"variant":"CTree","materialized":false,"memory_budget_bytes":1048576}}"#,
            Json::Str(dataset_path.clone()).to_string()
        );
        let response = server.handle_json(&request);
        assert!(response.contains("\"built\""), "response was {response}");
        let response = server.handle_json(r#"{"type":"list_indexes"}"#);
        assert!(response.contains("\"a\""));
        let response = server.handle_json("not json at all");
        assert!(response.contains("malformed request"));
    }

    /// Satellite: errors are structured JSON (machine-readable kind +
    /// message), with the schema pinned field by field.
    #[test]
    fn errors_are_structured_json() {
        let dir = ScratchDir::new("palm-err-json").unwrap();
        let server = PalmServer::new(dir.file("work"));

        // Unparseable request.
        let parsed = Json::parse(&server.handle_json("{{{")).unwrap();
        assert_eq!(parsed.get("type").and_then(|j| j.as_str()), Some("error"));
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_MALFORMED)
        );
        assert!(parsed.get("message").and_then(|j| j.as_str()).is_some());

        // Well-formed JSON, unknown verb.
        let parsed = Json::parse(&server.handle_json(r#"{"type":"frobnicate"}"#)).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_MALFORMED)
        );

        // Unknown index name.
        let parsed =
            Json::parse(&server.handle_json(
                r#"{"type":"query","name":"missing","query":[0.0],"k":1,"exact":true}"#,
            ))
            .unwrap();
        assert_eq!(parsed.get("type").and_then(|j| j.as_str()), Some("error"));
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_UNKNOWN_INDEX)
        );
        let message = parsed.get("message").and_then(|j| j.as_str()).unwrap();
        assert!(message.contains("missing"), "message was {message}");

        // Config errors carry their own kind (dataset missing -> series).
        let parsed = Json::parse(&server.handle_json(
            r#"{"type":"build_index","name":"x","dataset_path":"/nonexistent","variant":"CTree","materialized":false,"memory_budget_bytes":1048576}"#,
        ))
        .unwrap();
        assert_eq!(parsed.get("type").and_then(|j| j.as_str()), Some("error"));
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_SERIES)
        );
    }

    #[test]
    fn unknown_index_is_an_error_response() {
        let dir = ScratchDir::new("palm-err").unwrap();
        let server = PalmServer::new(dir.file("work"));
        let response = server.handle(PalmRequest::Query {
            name: "missing".into(),
            query: vec![0.0; 8],
            k: 1,
            exact: false,
        });
        match response {
            PalmResponse::Error { kind, .. } => assert_eq!(kind, ERROR_KIND_UNKNOWN_INDEX),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn recommend_request_returns_rationale() {
        let dir = ScratchDir::new("palm-rec").unwrap();
        let server = PalmServer::new(dir.file("work"));
        let response = server.handle(PalmRequest::Recommend {
            scenario: Scenario::streaming(1_000_000, 256),
        });
        match response {
            PalmResponse::Recommendation { recommendation } => {
                assert!(!recommendation.rationale.is_empty());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn insert_appends_and_is_queryable() {
        let (dir, dataset_path, _series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(build_request("lsm", dataset_path, VariantKind::Clsm));
        let mut gen = RandomWalkGenerator::new(64, 77);
        let fresh = gen.next_series();
        let response = server.handle(PalmRequest::Insert {
            name: "lsm".into(),
            series: vec![fresh.values.clone()],
            timestamp: 9,
            base_id: None,
        });
        match response {
            PalmResponse::Inserted {
                inserted, total, ..
            } => {
                assert_eq!(inserted, 1);
                assert_eq!(total, 201);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The appended series got id 200 and must be findable.
        let query: Vec<f32> = fresh.values.iter().map(|v| v + 0.001).collect();
        match server.handle(PalmRequest::Query {
            name: "lsm".into(),
            query,
            k: 1,
            exact: true,
        }) {
            PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![200]),
            other => panic!("unexpected response {other:?}"),
        }
        // Length mismatch surfaces as a config error.
        match server.handle(PalmRequest::Insert {
            name: "lsm".into(),
            series: vec![vec![0.0; 3]],
            timestamp: 10,
            base_id: None,
        }) {
            PalmResponse::Error { kind, .. } => assert_eq!(kind, ERROR_KIND_CONFIG),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn insert_into_non_materialized_index_is_rejected() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(PalmRequest::BuildIndex {
            name: "thin".into(),
            dataset_path,
            variant: VariantKind::Clsm,
            materialized: false,
            memory_budget_bytes: 8 << 20,
            parallelism: 1,
            query_parallelism: 1,
            shard_count: 1,
            range: None,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Fixed,
            compression: coconut_storage::Compression::Off,
        });
        // Appended series would not exist in the raw file the index refines
        // from; the insert must be refused, not accepted and left to poison
        // later queries.
        match server.handle(PalmRequest::Insert {
            name: "thin".into(),
            series: vec![vec![0.5; 64]],
            timestamp: 1,
            base_id: None,
        }) {
            PalmResponse::Error { kind, message, .. } => {
                assert_eq!(kind, ERROR_KIND_CONFIG);
                assert!(message.contains("non-materialized"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
        // The index still answers queries after the rejected insert.
        let query: Vec<f32> = series[5].values.iter().map(|v| v + 0.001).collect();
        match server.handle(PalmRequest::Query {
            name: "thin".into(),
            query,
            k: 1,
            exact: true,
        }) {
            PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![5]),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn nested_batches_are_rejected_per_entry() {
        let dir = ScratchDir::new("palm-nested").unwrap();
        let server = PalmServer::new(dir.file("work"));
        let response = server.handle(PalmRequest::Batch {
            requests: vec![
                PalmRequest::ListIndexes,
                PalmRequest::Batch {
                    requests: vec![PalmRequest::ListIndexes],
                },
            ],
        });
        let PalmResponse::Batch { responses } = response else {
            panic!("expected a batch response");
        };
        assert!(matches!(responses[0], PalmResponse::Indexes { .. }));
        match &responses[1] {
            PalmResponse::Error { kind, message, .. } => {
                assert_eq!(kind, ERROR_KIND_MALFORMED);
                assert!(message.contains("nested"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Tentpole: a `batch` of queries returns, per query, exactly what the
    /// one-at-a-time path returns — same ids, distances and cost — with
    /// responses in request order, heterogeneous sub-requests included.
    #[test]
    fn batch_matches_one_at_a_time_responses() {
        let (dir, dataset_path, _series) = setup();
        let server = PalmServer::new(dir.file("work")).with_batch_parallelism(4);
        server.handle(build_request("a", dataset_path.clone(), VariantKind::CTree));
        server.handle(build_request("b", dataset_path, VariantKind::Clsm));

        let mut gen = RandomWalkGenerator::new(64, 5);
        let mut requests = vec![PalmRequest::ListIndexes];
        for i in 0..6 {
            let q = gen.next_series();
            requests.push(PalmRequest::Query {
                name: if i % 2 == 0 { "a".into() } else { "b".into() },
                query: q.values.clone(),
                k: 3,
                exact: true,
            });
        }
        requests.push(PalmRequest::Query {
            name: "missing".into(),
            query: vec![0.0; 64],
            k: 1,
            exact: true,
        });

        let singles: Vec<PalmResponse> =
            requests.iter().map(|r| server.handle(r.clone())).collect();
        let batched = server.handle(PalmRequest::Batch {
            requests: requests.clone(),
        });
        let PalmResponse::Batch { responses } = batched else {
            panic!("expected a batch response");
        };
        assert_eq!(responses.len(), requests.len());
        for (single, batched) in singles.iter().zip(responses.iter()) {
            match (single, batched) {
                (
                    PalmResponse::QueryResult {
                        name: n1,
                        ids: i1,
                        distances: d1,
                        ..
                    },
                    PalmResponse::QueryResult {
                        name: n2,
                        ids: i2,
                        distances: d2,
                        ..
                    },
                ) => {
                    assert_eq!(n1, n2);
                    assert_eq!(i1, i2);
                    assert_eq!(d1, d2);
                }
                (PalmResponse::Indexes { names: a }, PalmResponse::Indexes { names: b }) => {
                    assert_eq!(a, b)
                }
                (PalmResponse::Error { kind: a, .. }, PalmResponse::Error { kind: b, .. }) => {
                    assert_eq!(a, b)
                }
                other => panic!("mismatched response shapes {other:?}"),
            }
        }
    }

    #[test]
    fn batch_json_verb_roundtrips() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(build_request("idx", dataset_path, VariantKind::CTree));
        let q: Vec<f32> = series[3].values.iter().map(|v| v + 0.001).collect();
        let request = PalmRequest::Batch {
            requests: vec![
                PalmRequest::Query {
                    name: "idx".into(),
                    query: q.clone(),
                    k: 1,
                    exact: true,
                },
                PalmRequest::Query {
                    name: "idx".into(),
                    query: q,
                    k: 1,
                    exact: false,
                },
            ],
        };
        let response = server.handle_json(&request.to_json().to_string());
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|j| j.as_str()),
            Some("batch_result")
        );
        let responses = parsed.get("responses").unwrap().as_arr().unwrap();
        let first = &responses[0];
        assert_eq!(
            first.get("type").and_then(|j| j.as_str()),
            Some("query_result")
        );
    }

    /// Concurrent service smoke test: `handle` takes `&self`, so threads
    /// share one server; queries run while another thread streams inserts,
    /// and every response is a valid snapshot (never an error, always the
    /// still-present base neighbour).
    #[test]
    fn concurrent_queries_and_inserts_share_the_server() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(build_request("shared", dataset_path, VariantKind::Clsm));
        let target = &series[42];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.0005).collect();
        std::thread::scope(|scope| {
            let server = &server;
            let writer = scope.spawn(move || {
                let mut gen = RandomWalkGenerator::new(64, 901);
                for round in 0..10 {
                    let batch: Vec<Vec<f32>> = (0..20).map(|_| gen.next_series().values).collect();
                    let response = server.handle(PalmRequest::Insert {
                        name: "shared".into(),
                        series: batch,
                        timestamp: round,
                        base_id: None,
                    });
                    assert!(
                        matches!(response, PalmResponse::Inserted { .. }),
                        "insert failed: {response:?}"
                    );
                }
            });
            for _ in 0..3 {
                let query = query.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        match server.handle(PalmRequest::Query {
                            name: "shared".into(),
                            query: query.clone(),
                            k: 1,
                            exact: true,
                        }) {
                            PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![42]),
                            other => panic!("query failed mid-stream: {other:?}"),
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        match server.handle(PalmRequest::Metrics {
            name: "shared".into(),
        }) {
            PalmResponse::Metrics { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Tentpole: cached answers are bit-identical to computed ones, and an
    /// insert invalidates so the next query sees the new data.
    #[test]
    fn result_cache_hits_are_bit_identical_and_invalidated_by_inserts() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work")).with_result_cache(64);
        server.handle(build_request("c", dataset_path, VariantKind::Clsm));
        let query: Vec<f32> = series[17].values.iter().map(|v| v + 0.001).collect();
        let request = PalmRequest::Query {
            name: "c".into(),
            query: query.clone(),
            k: 3,
            exact: true,
        };
        let first = server.handle(request.clone());
        let second = server.handle(request.clone());
        match (&first, &second) {
            (
                PalmResponse::QueryResult {
                    ids: i1,
                    distances: d1,
                    cost: c1,
                    ..
                },
                PalmResponse::QueryResult {
                    ids: i2,
                    distances: d2,
                    cost: c2,
                    ..
                },
            ) => {
                assert_eq!(i1, i2);
                let bits1: Vec<u64> = d1.iter().map(|d| d.to_bits()).collect();
                let bits2: Vec<u64> = d2.iter().map(|d| d.to_bits()).collect();
                assert_eq!(bits1, bits2, "cached distances must be bit-identical");
                assert_eq!(c1.entries_examined, c2.entries_examined);
                assert_eq!(c1.entries_refined, c2.entries_refined);
            }
            other => panic!("unexpected responses {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 1, "second query must hit");
        assert_eq!(stats.cache_misses, 1);

        // Insert the query itself: the cached 1-NN answer is now stale.
        server.handle(PalmRequest::Insert {
            name: "c".into(),
            series: vec![query.clone()],
            timestamp: 1,
            base_id: None,
        });
        match server.handle(request) {
            PalmResponse::QueryResult { ids, distances, .. } => {
                assert_eq!(ids[0], 200, "query must see the freshly inserted series");
                assert_eq!(distances[0], 0.0);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 1, "post-insert query must not hit");
        assert_eq!(stats.cache_misses, 2);
    }

    /// The `stats` verb reports the counters over JSON.
    #[test]
    fn stats_verb_reports_counters() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work")).with_result_cache(8);
        server.handle(build_request("s", dataset_path, VariantKind::CTree));
        let request = PalmRequest::Query {
            name: "s".into(),
            query: series[0].values.clone(),
            k: 1,
            exact: true,
        };
        server.handle(request.clone());
        server.handle(request);
        server.note_shed();
        let parsed = Json::parse(&server.handle_json(r#"{"type":"stats"}"#)).unwrap();
        assert_eq!(parsed.get("type").and_then(|j| j.as_str()), Some("stats"));
        assert_eq!(parsed.get("cache_hits").and_then(|j| j.as_f64()), Some(1.0));
        assert_eq!(
            parsed.get("cache_misses").and_then(|j| j.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("cache_entries").and_then(|j| j.as_f64()),
            Some(1.0)
        );
        assert_eq!(parsed.get("shed").and_then(|j| j.as_f64()), Some(1.0));
        assert_eq!(parsed.get("indexes").and_then(|j| j.as_f64()), Some(1.0));
    }

    /// Satellite: a pre-expired deadline produces a structured
    /// `deadline_exceeded` error with a `partial_cost` member, and the
    /// server keeps serving afterwards.
    #[test]
    fn expired_deadline_is_a_structured_error_with_partial_cost() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(build_request("d", dataset_path, VariantKind::CTree));
        let query_json = PalmRequest::Query {
            name: "d".into(),
            query: series[9].values.clone(),
            k: 1,
            exact: true,
        }
        .to_json();
        // Splice a deadline_ms of 0 into the request object.
        let Json::Obj(mut members) = query_json else {
            panic!("requests serialize to objects");
        };
        members.push(("deadline_ms".into(), Json::Num(0.0)));
        let response = server.handle_json(&Json::Obj(members.clone()).to_string());
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("type").and_then(|j| j.as_str()), Some("error"));
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_DEADLINE)
        );
        let partial = parsed.get("partial_cost").expect("partial cost reported");
        assert!(partial.get("entries_examined").is_some());
        assert_eq!(server.stats().deadline_exceeded, 1);

        // A sane deadline still answers, identically to no deadline.
        members.pop();
        members.push(("deadline_ms".into(), Json::Num(60_000.0)));
        let response = server.handle_json(&Json::Obj(members).to_string());
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|j| j.as_str()),
            Some("query_result")
        );
        assert_eq!(
            parsed
                .get("ids")
                .and_then(|j| j.as_arr())
                .and_then(|ids| ids[0].as_f64()),
            Some(9.0)
        );

        // Negative deadlines are malformed, not silently clamped.
        let response = server.handle_json(r#"{"type":"list_indexes","deadline_ms":-5}"#);
        assert!(response.contains(ERROR_KIND_MALFORMED), "{response}");
    }

    /// The decision: a result-cache hit is served even when the request's
    /// deadline has already expired.  The same token fails a cold key.
    #[test]
    fn cache_hit_is_served_past_an_expired_deadline() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work")).with_result_cache(8);
        server.handle(build_request("c", dataset_path, VariantKind::CTree));
        let query = |i: usize| PalmRequest::Query {
            name: "c".into(),
            query: series[i].values.clone(),
            k: 3,
            exact: true,
        };
        let computed = server.handle(query(4));
        let expired = CancelToken::at(Instant::now());
        let hit = server.handle_with(query(4), &expired);
        match (&computed, &hit) {
            (
                PalmResponse::QueryResult {
                    ids: a, cost: c1, ..
                },
                PalmResponse::QueryResult {
                    ids: b, cost: c2, ..
                },
            ) => assert_eq!((a, c1), (b, c2)),
            other => panic!("unexpected responses {other:?}"),
        }
        assert!(matches!(
            server.handle_with(query(5), &expired),
            PalmResponse::Error { kind, .. } if kind == ERROR_KIND_DEADLINE
        ));
        let stats = server.stats();
        assert_eq!((stats.cache_hits, stats.deadline_exceeded), (1, 1));
    }

    /// Satellite: per-sub-request deadline reporting inside a batch — the
    /// expired group fails alone, the rest of the batch still answers.
    #[test]
    fn batch_reports_deadlines_per_sub_request() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work"));
        server.handle(build_request("b", dataset_path, VariantKind::CTree));
        let pre_cancelled = CancelToken::new();
        pre_cancelled.cancel();
        let response = server.handle_with(
            PalmRequest::Batch {
                requests: vec![
                    PalmRequest::ListIndexes,
                    PalmRequest::Query {
                        name: "b".into(),
                        query: series[0].values.clone(),
                        k: 1,
                        exact: true,
                    },
                ],
            },
            &pre_cancelled,
        );
        let PalmResponse::Batch { responses } = response else {
            panic!("expected a batch response");
        };
        // ListIndexes does not touch the engine and still answers; the
        // query group reports its own deadline error.
        assert!(matches!(responses[0], PalmResponse::Indexes { .. }));
        match &responses[1] {
            PalmResponse::Error {
                kind, partial_cost, ..
            } => {
                assert_eq!(kind, ERROR_KIND_DEADLINE);
                assert!(partial_cost.is_some());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// `sync_all` persists every registered index and the server keeps
    /// answering afterwards.
    #[test]
    fn sync_all_flushes_every_index() {
        let (dir, dataset_path, series) = setup();
        let server = PalmServer::new(dir.file("work")).with_result_cache(8);
        server.handle(build_request("x", dataset_path.clone(), VariantKind::Clsm));
        server.handle(build_request("y", dataset_path, VariantKind::CTree));
        server.handle(PalmRequest::Insert {
            name: "x".into(),
            series: vec![series[0].values.clone()],
            timestamp: 3,
            base_id: None,
        });
        assert_eq!(server.sync_all().unwrap(), 2);
        let query: Vec<f32> = series[11].values.iter().map(|v| v + 0.001).collect();
        match server.handle(PalmRequest::Query {
            name: "x".into(),
            query,
            k: 1,
            exact: true,
        }) {
            PalmResponse::QueryResult { ids, .. } => assert_eq!(ids, vec![11]),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Satellite: the owned-bytes entry point consumes the buffer and
    /// rejects invalid UTF-8 with a structured error.
    #[test]
    fn handle_json_bytes_rejects_invalid_utf8() {
        let dir = ScratchDir::new("palm-bytes").unwrap();
        let server = PalmServer::new(dir.file("work"));
        let never = CancelToken::never();
        let response = server.handle_json_bytes(vec![0xff, 0xfe, 0x20], &never);
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(|j| j.as_str()),
            Some(ERROR_KIND_MALFORMED)
        );
        let message = parsed.get("message").and_then(|j| j.as_str()).unwrap();
        assert!(message.contains("UTF-8"), "{message}");
        // Valid bytes route through the normal path.
        let response = server.handle_json_bytes(br#"{"type":"list_indexes"}"#.to_vec(), &never);
        assert!(response.contains("indexes"), "{response}");
    }
}
