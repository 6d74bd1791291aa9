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
//! # Wire format
//!
//! [`PalmRequest`] and [`PalmResponse`] are declared with
//! [`coconut_json::wire!`], which derives their JSON codec from the
//! declaration (see DESIGN.md, "Wire codec").  The records they carry are
//! the engine's own — [`QueryCost`], [`BuildReport`],
//! [`ServiceStatsSnapshot`] — declared the same way where they live.  Only
//! `build_index`'s `range_lo`/`range_hi` pair is coded by hand.
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
//! A [`PalmRequest::Batch`] is N single requests: each sub-request is one
//! task of [`coconut_parallel::parallel_map_tasks`], handled exactly as if
//! it had been sent alone, so its reply is that request's reply (apart from
//! `elapsed_ms`).  Only a batch of queries runs concurrently; a batch with
//! any other sub-request (an `insert`, a `build_index`, a `stats`, ...)
//! runs them one at a time, in request order, so each reply is the one the
//! requests sent alone in that order would get.
//!
//! # Result cache
//!
//! [`PalmServer::with_result_cache`] turns on one bounded cache of encoded
//! `query_result` replies, keyed by the bytes of the request object that
//! asked them (a trailing `deadline_ms` value cut out) and tagged with the
//! index version they were computed against.  Only the text entry point,
//! [`PalmServer::handle_json_with`], consults it: a top-level `query` frame
//! and each element of a `batch` frame.  Typed [`PalmServer::handle`]
//! always computes.  A write bumps the version under the slot's write lock,
//! so a recorded reply is served only while it is still the answer.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_json::{
    find_member, scan_array, scan_object, FromJson, Json, JsonError, Reader, ToJson,
};
use coconut_parallel::{parallel_map_tasks, CancelToken};
use parking_lot::{Mutex, RwLock};

use crate::{
    recommend, BuildReport, Compression, Dataset, IndexConfig, IoBackend, IoStats, PerfKnobs,
    PlannerMode, QueryCost, Scenario, Series, StaticIndex, VariantKind,
};

coconut_json::wire! {
    /// A request to the algorithms server.
    #[derive(Debug, Clone)]
    pub enum PalmRequest tagged "request" {
        /// Build an index over a dataset file.
        BuildIndex = "build_index" {
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
            /// A number, optional in the JSON protocol (default `1`); a
            /// build reads nothing of it.  Kept only because palmbench names
            /// it; see ROADMAP 14(b).
            parallelism: usize = 1,
            /// A number, optional in the JSON protocol (default `1`); a
            /// build reads nothing of it.  Kept only because palmbench names
            /// it; see ROADMAP 14(b).
            query_parallelism: usize = 1,
            /// Key-range shards per CLSM compaction.  Optional in the JSON
            /// protocol; defaults to `1` (ignored by non-CLSM variants).
            shard_count: usize = 1,
            /// Overlap computation with I/O during the build.  Optional in
            /// the JSON protocol; defaults to `true`.  A pure performance
            /// knob: index files, answers and I/O totals are identical
            /// either way.
            io_overlap: bool = PerfKnobs::default().io_overlap,
            /// Read backend for the index files ("pread" | "mmap").
            /// Optional in the JSON protocol; defaults to "pread".  A pure
            /// performance knob: index files, answers and I/O totals are
            /// identical either way.
            io_backend: IoBackend = PerfKnobs::default().io_backend,
            /// "fixed" or "adaptive".  Optional in the JSON protocol; a build
            /// reads nothing of it.  Kept only because palmbench names it;
            /// see ROADMAP 14(b).
            planner: PlannerMode = PlannerMode::Fixed,
            /// "off", the one value.  Optional in the JSON protocol; a build
            /// reads nothing of it.  Kept only because palmbench names it;
            /// see ROADMAP 14(b).
            compression: Compression = Compression::Off,
            /// Restrict the build to the dataset's id window `[lo, hi)`.
            /// Optional in the JSON protocol, as the `range_lo`/`range_hi`
            /// pair that ends the frame (see `id_range`); defaults to the
            /// whole file.  Ids stay global (a series' id is its file
            /// position), which is what makes service-level sharding sound:
            /// each worker builds over its own contiguous id range of the
            /// shared dataset and merged answers need no id translation.
            range: Option<(u64, u64)> [with id_range],
        },
        /// Run a query against a registered index.
        Query = "query" {
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
        /// Responses come back in request order.  Each sub-request is
        /// handled exactly as if it had been sent alone, so its response is
        /// identical to that request's, apart from `elapsed_ms`.
        Batch = "batch" {
            /// The sub-requests; each produces one entry of
            /// [`PalmResponse::Batch`].
            requests: Vec<PalmRequest>,
        },
        /// Append new series to a registered index (streaming ingest).
        /// Series ids are assigned sequentially after the index's current
        /// entries.
        Insert = "insert" {
            /// Name of the index to append to.
            name: String,
            /// The series values, one inner vector per series.
            series: Vec<Vec<f32>>,
            /// Arrival timestamp shared by the batch.  Optional in the JSON
            /// protocol; defaults to `0`.
            timestamp: u64 = 0,
            /// First id to assign, overriding the default
            /// `index.len()`-sequential assignment.  Optional in the JSON
            /// protocol.  Used by the scatter-gather coordinator, which
            /// owns the global id space and routes each insert to one
            /// shard; direct single-node clients leave it unset.
            base_id: Option<u64>,
        },
        /// Fetch the build report of a registered index.
        Metrics = "metrics" {
            /// Name of the index.
            name: String,
        },
        /// Ask the recommender for advice.
        Recommend = "recommend" {
            /// The application scenario.
            scenario: Scenario,
        },
        /// List registered indexes.
        ListIndexes = "list_indexes",
        /// Fetch service counters (requests, cache hits/misses, shed load,
        /// deadline misses).
        Stats = "stats",
    }
}

/// The one member of the protocol a declaration cannot state: a
/// `build_index` range travels as two members, `range_lo` and `range_hi`,
/// written last, and one given without the other is refused.
mod id_range {
    use coconut_json::wire::{Member, Members};
    use coconut_json::{JsonError, Reader, Result};

    pub type Slots = (Option<Result<u64>>, Option<Result<u64>>);

    pub fn put(range: &Option<(u64, u64)>, out: &mut Members) {
        if let Some((lo, hi)) = range {
            lo.put("range_lo", out);
            hi.put("range_hi", out);
        }
    }

    pub fn claim((lo, hi): &mut Slots, p: &mut Reader<'_>, key: &str) -> Result<bool> {
        match key {
            "range_lo" => p.claim(lo),
            "range_hi" => p.claim(hi),
            _ => Ok(false),
        }
    }

    pub fn finish(slots: Slots) -> Result<Option<(u64, u64)>> {
        match slots {
            (None, None) => Ok(None),
            (lo @ Some(_), hi @ Some(_)) => Ok(Some((
                u64::finish(lo, "range_lo", false)?,
                u64::finish(hi, "range_hi", false)?,
            ))),
            _ => Err(JsonError::new(
                "range_lo and range_hi must be given together",
            )),
        }
    }
}

coconut_json::wire! {
    /// A response from the algorithms server.
    #[derive(Debug, Clone)]
    pub enum PalmResponse tagged "response" {
        /// Result of a build request.
        Built = "built" {
            /// Index name.
            name: String,
            /// Variant display name ("CTreeFull", ...).
            variant: String,
            /// Build metrics.
            report: BuildReport,
        },
        /// Result of a query request.
        QueryResult = "query_result" {
            /// Index name.
            name: String,
            /// Neighbour ids, ascending distance.
            ids: Vec<u64>,
            /// Neighbour distances (Euclidean, not squared).
            distances: Vec<f64>,
            /// Squared distances, exactly as the engine compares them.  The
            /// full neighbour identity `(squared_distance, id, timestamp)`
            /// travels on the wire so a scatter-gather coordinator can
            /// merge per-shard top-k with the engine's own total order,
            /// bit-exactly (`sqrt` rounding could collapse distinct squared
            /// distances).
            squared_distances: Vec<f64>,
            /// Arrival timestamps of the matched entries (zero for static
            /// data); the tie-break of last resort in the engine's order.
            timestamps: Vec<u64>,
            /// Query latency in milliseconds.
            elapsed_ms: f64,
            /// Entries examined / refined / raw fetches / blocks read+skipped.
            cost: QueryCost,
        },
        /// Per-sub-request responses of a batch, in request order.
        Batch = "batch_result" {
            /// One response per sub-request.
            responses: Vec<PalmResponse>,
        },
        /// Result of an insert request.
        Inserted = "inserted" {
            /// Index name.
            name: String,
            /// Number of series appended by this request.
            inserted: u64,
            /// Total entries in the index afterwards.
            total: u64,
        },
        /// Metrics of a registered index.
        Metrics = "metrics" {
            /// Index name.
            name: String,
            /// Build metrics.
            report: BuildReport,
            /// Current footprint in bytes.
            footprint_bytes: u64,
        },
        /// Recommender advice.
        Recommendation = "recommendation" {
            /// The recommendation, including the rationale path.
            recommendation: coconut_recommender::Recommendation,
        },
        /// Names of registered indexes.
        Indexes = "indexes" {
            /// Registered names.
            names: Vec<String>,
        },
        /// Service counters (see [`PalmRequest::Stats`]), as members of the
        /// response itself.
        Stats = "stats" {
            /// The counters.
            stats: ServiceStatsSnapshot [flat],
        },
        /// The request failed.
        Error = "error" {
            /// Machine-readable error kind; one of the `ERROR_KIND_*`
            /// constants ("malformed_request", "unknown_index", "config",
            /// "storage", "series", "deadline_exceeded", "overloaded",
            /// "shutting_down").
            kind: String,
            /// Human-readable error message.
            message: String,
            /// For `deadline_exceeded`: the work performed before the
            /// cancellation was observed.  Serialized only when present.
            partial_cost: Option<QueryCost> [bare],
            /// For `overloaded`: how long the client should wait before
            /// retrying.  Attached by the network front-end's admission
            /// control and preserved end-to-end so retry loops (the
            /// client's `call_with_retry`, the coordinator's per-shard
            /// retries) can honour the server's hint.  Serialized only when
            /// present.
            retry_after_ms: Option<u64>,
            /// For `shard_unavailable` (and other scatter-gather failures):
            /// the per-shard partial costs the coordinator had collected
            /// when the request failed, in shard order.  Serialized only
            /// when present.
            shard_costs: Option<Vec<ShardCostJson>>,
        },
    }
}

impl PalmResponse {
    /// An `error` response with nothing but its kind and message.
    pub fn error(kind: &str, message: impl Into<String>) -> PalmResponse {
        PalmResponse::Error {
            kind: kind.to_string(),
            message: message.into(),
            partial_cost: None,
            retry_after_ms: None,
            shard_costs: None,
        }
    }
}

coconut_json::wire! {
    /// Per-shard cost evidence attached to scatter-gather error responses:
    /// what each worker reported (or failed to report) before the
    /// coordinator gave up on the request.
    #[derive(Debug, Clone, Copy)]
    pub struct ShardCostJson {
        /// Shard index in the coordinator's configured order.
        pub shard: u64,
        /// The shard's (possibly partial) cost; `None` when the shard
        /// became unreachable before reporting anything.
        pub cost: Option<QueryCost> [bare],
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
/// response carries the partial [`QueryCost`] accumulated so far.
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
    partial_cost: Option<QueryCost>,
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

    fn malformed(message: String) -> Self {
        ServiceError {
            kind: ERROR_KIND_MALFORMED,
            message,
            partial_cost: None,
        }
    }

    /// A request cancelled before (or while) touching the index: the
    /// partial cost is whatever the engine accumulated up to the round
    /// boundary where the cancellation was observed.
    fn deadline(partial_cost: QueryCost) -> Self {
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
            return ServiceError::deadline(*partial_cost);
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

impl PalmRequest {
    /// Reads one request frame in one walk: the request or its refusal, and
    /// the frame's first top-level `deadline_ms` as spelled.  The outer
    /// error is the grammar's.
    fn read_frame(text: &str) -> Result<(Option<&str>, Result<PalmRequest, JsonError>), JsonError> {
        let mut reader = Reader::new(text);
        reader.keep("deadline_ms");
        let request = reader.document()?;
        Ok((reader.kept(), request))
    }

    /// A whole-dataset `build_index` request with the engine's knob
    /// defaults ([`PerfKnobs::default`], one CLSM shard).  Callers that
    /// want other knobs set the variant's fields afterwards.
    pub fn build_index(
        name: impl Into<String>,
        dataset_path: impl Into<String>,
        variant: VariantKind,
        materialized: bool,
        memory_budget_bytes: usize,
    ) -> PalmRequest {
        let knobs = PerfKnobs::default();
        PalmRequest::BuildIndex {
            name: name.into(),
            dataset_path: dataset_path.into(),
            variant,
            materialized,
            memory_budget_bytes,
            parallelism: 1,
            query_parallelism: 1,
            shard_count: 1,
            range: None,
            io_overlap: knobs.io_overlap,
            io_backend: knobs.io_backend,
            planner: PlannerMode::Fixed,
            compression: Compression::Off,
        }
    }
}

struct Registered {
    index: StaticIndex,
    report: BuildReport,
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

/// The member whose value is the only part of a `query_result` reply that
/// differs between two answers to the same request.  This byte sequence
/// cannot occur inside an encoded JSON string (its quotes would be
/// escaped), so its first occurrence is the member itself.
const ELAPSED_MEMBER: &str = ",\"elapsed_ms\":";

/// The member [`crate::backend::encode_frame`] appends last.
const DEADLINE_MEMBER: &str = ",\"deadline_ms\":";

/// What a request object is cached under: its bytes, with the value of a
/// trailing `deadline_ms` member cut out when it is a plain non-negative
/// decimal (`0`, `250`, `1.5`), the form `encode_frame` writes.  Two
/// requests that differ only in such a value ask the same thing, and a hit
/// is served whatever the deadline says.  Anything else about the bytes
/// (member order, whitespace, how a number is spelled) makes another key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct RequestKey<'a> {
    /// The request's bytes, ending before the cut value if there is one.
    text: &'a str,
    /// Whether a deadline was cut: no whole request shares a cut key,
    /// though one may end in the same bytes.
    deadline_cut: bool,
}

impl<'a> RequestKey<'a> {
    fn of(request: &'a str) -> Self {
        let body = request.strip_suffix('}').unwrap_or(request);
        let value_len = body
            .bytes()
            .rev()
            .take_while(|b| b.is_ascii_digit() || *b == b'.')
            .count();
        let (text, value) = body.split_at(body.len() - value_len);
        let (int, fraction) = value.split_once('.').unwrap_or((value, "0"));
        let plain = [int, fraction]
            .iter()
            .all(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()));
        let deadline_cut = plain && body.len() < request.len() && text.ends_with(DEADLINE_MEMBER);
        RequestKey {
            text: if deadline_cut { text } else { request },
            deadline_cut,
        }
    }
}

/// A reply recorded for one request key.
#[derive(Clone)]
struct Entry {
    /// The key's bytes (two keys may share a hash) and `deadline_cut`.
    key: (Arc<str>, bool),
    /// The index the request queries.
    name: Arc<str>,
    /// The slot version the answer was computed against.
    version: u64,
    /// The reply as encoded.
    reply: Arc<str>,
    /// Where in `reply` the `elapsed_ms` value sits; a hit splices in its
    /// own.
    elapsed: Range<usize>,
}

impl Entry {
    fn is_for(&self, key: RequestKey) -> bool {
        *self.key.0 == *key.text && self.key.1 == key.deadline_cut
    }
}

#[derive(Default)]
struct CacheInner {
    /// Recorded replies by [`ResultCache::hash`] of their key.
    entries: HashMap<u64, Entry>,
    /// The hashes of `entries` in insertion order, for FIFO eviction.
    order: VecDeque<u64>,
}

/// Bounded cache of encoded `query_result` replies keyed by request bytes,
/// with version-tagged entries (see [`Registered`]).
struct ResultCache {
    capacity: usize,
    /// Keys the hashes at random, so no client can pick requests that
    /// collide.
    hasher: RandomState,
    /// The longest key ever recorded: a longer one (an `insert` frame, say)
    /// cannot hit, so it is not hashed.  A hint only; the entries are under
    /// `inner`.
    longest_key: AtomicUsize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            hasher: RandomState::new(),
            longest_key: AtomicUsize::new(0),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The hash `key` is recorded under, or `None` for a key longer than
    /// any recorded, which cannot hit.  One pass over the key serves both
    /// its lookup and its recording.
    fn hash(&self, key: RequestKey) -> Option<u64> {
        (key.text.len() <= self.longest_key.load(Ordering::Relaxed))
            .then(|| self.hasher.hash_one(key))
    }

    /// The entry recorded for `key`, whatever its version: the caller
    /// checks that under the slot's read lock.
    fn lookup(&self, key: RequestKey, hash: Option<u64>) -> Option<Entry> {
        let inner = self.inner.lock();
        let entry = inner.entries.get(&hash?)?;
        entry.is_for(key).then(|| entry.clone())
    }

    /// Records `reply`, a `query_result` answered against `version` of
    /// index `name`, for `key` (whose [`ResultCache::hash`] is `hash`, if
    /// it was taken).
    fn record(&self, key: RequestKey, hash: Option<u64>, name: &str, version: u64, reply: &str) {
        let Some(at) = reply.find(ELAPSED_MEMBER) else {
            return;
        };
        let start = at + ELAPSED_MEMBER.len();
        let Some(len) = reply[start..].find([',', '}']) else {
            return;
        };
        let hash = hash.unwrap_or_else(|| self.hasher.hash_one(key));
        let entry = Entry {
            key: (Arc::from(key.text), key.deadline_cut),
            name: Arc::from(name),
            version,
            reply: Arc::from(reply),
            elapsed: start..start + len,
        };
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.get_mut(&hash) {
            // The same key answered again takes the newer reply; another
            // key with this hash leaves the entry alone.
            if old.is_for(key) {
                *old = entry;
            }
            return;
        }
        while inner.entries.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&oldest);
        }
        inner.order.push_back(hash);
        inner.entries.insert(hash, entry);
        self.longest_key
            .fetch_max(key.text.len(), Ordering::Relaxed);
    }

    /// Drops every entry belonging to `name`.  The version tags already
    /// make such entries unservable; the purge just returns their memory.
    fn purge(&self, name: &str) {
        let CacheInner { entries, order } = &mut *self.inner.lock();
        entries.retain(|_, entry| &*entry.name != name);
        order.retain(|hash| entries.contains_key(hash));
    }

    fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }
}

/// When a request whose `deadline_ms` member is spelled `value` runs out:
/// `None` for no member, and for one too far off to represent.
fn request_deadline(value: Option<&str>) -> Result<Option<Instant>, ServiceError> {
    match value.map(f64::from_text) {
        None => Ok(None),
        Some(Ok(ms)) if ms >= 0.0 => {
            Ok(Instant::now().checked_add(Duration::from_millis(ms as u64)))
        }
        Some(_) => Err(ServiceError::malformed(
            "deadline_ms must be a non-negative number".to_string(),
        )),
    }
}

/// The reply to a computed query: the engine's answer with full neighbour
/// identity.
fn query_result(
    name: String,
    neighbors: &[coconut_series::distance::Neighbor],
    cost: QueryCost,
    elapsed_ms: f64,
) -> PalmResponse {
    PalmResponse::QueryResult {
        name,
        ids: neighbors.iter().map(|n| n.id).collect(),
        distances: neighbors.iter().map(|n| n.distance()).collect(),
        squared_distances: neighbors.iter().map(|n| n.squared_distance).collect(),
        timestamps: neighbors.iter().map(|n| n.timestamp).collect(),
        elapsed_ms,
        cost,
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
}

coconut_json::wire! {
    /// A point-in-time copy of [`ServiceStats`], with the server's cache
    /// and registry sizes: the members of the `stats` response.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServiceStatsSnapshot {
        /// Requests handled (batch sub-requests count individually).
        pub requests: u64,
        /// Queries answered from the result cache.
        pub cache_hits: u64,
        /// Queries that missed the result cache and were computed (counted
        /// only when the cache is enabled).
        pub cache_misses: u64,
        /// Replies currently recorded in the result cache.
        pub cache_entries: u64,
        /// Requests shed by admission control (see
        /// [`PalmServer::note_shed`]).
        pub shed: u64,
        /// Requests that missed their deadline.
        pub deadline_exceeded: u64,
        /// Indexes currently registered.
        pub indexes: u64,
    }
}

impl ServiceStatsSnapshot {
    /// Two services' counters as one fleet's: every counter sums, except
    /// `indexes`, the larger of the two (every shard registers the same
    /// names).
    pub fn merged(&self, other: &ServiceStatsSnapshot) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            requests: self.requests + other.requests,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_entries: self.cache_entries + other.cache_entries,
            shed: self.shed + other.shed,
            deadline_exceeded: self.deadline_exceeded + other.deadline_exceeded,
            indexes: self.indexes.max(other.indexes),
        }
    }
}

impl ServiceStats {
    /// Reads all counters (the cache and registry sizes are the server's
    /// to fill in).
    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            ..ServiceStatsSnapshot::default()
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
    /// Workers a batch's sub-requests fan out over.
    batch_workers: usize,
    /// Result cache; `None` (the default) disables memoization entirely.
    cache: Option<ResultCache>,
    stats: ServiceStats,
    /// Source of unique [`Registered::version`] tags.
    versions: AtomicU64,
}

impl PalmServer {
    /// Creates a server that stores index files under `work_dir`.  Batch
    /// sub-requests fan out over one worker per available core.
    pub fn new<P: Into<PathBuf>>(work_dir: P) -> Self {
        PalmServer {
            work_dir: work_dir.into(),
            indexes: RwLock::new(HashMap::new()),
            batch_workers: std::thread::available_parallelism().map_or(1, usize::from),
            cache: None,
            stats: ServiceStats::default(),
            versions: AtomicU64::new(0),
        }
    }

    /// Enables the result cache, recording up to `capacity` encoded
    /// `query_result` replies keyed by the bytes of the request object that
    /// asked them (see [`PalmServer::handle_json_with`]).  Entries are
    /// version-tagged and invalidated by the write side (inserts, syncs,
    /// rebuilds), so a hit is bit-identical to recomputation, apart from
    /// `elapsed_ms`: an answer is a pure function of the request and the
    /// index version.
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(ResultCache::new(capacity));
        self
    }

    /// Service counters, with the cache and registry sizes (what the
    /// `stats` verb answers).
    pub fn stats(&self) -> ServiceStatsSnapshot {
        ServiceStatsSnapshot {
            cache_entries: self.cache.as_ref().map_or(0, |c| c.len() as u64),
            indexes: self.indexes.read().len() as u64,
            ..self.stats.snapshot()
        }
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
    /// checks it before each query phase and aborts with
    /// [`ERROR_KIND_DEADLINE`] (carrying the partial cost) once it trips.
    /// Completed requests are unaffected by the token — answers stay
    /// bit-identical to the untokened path.
    pub fn handle_with(&self, request: PalmRequest, cancel: &CancelToken) -> PalmResponse {
        self.handle_versioned(request, cancel).0
    }

    /// [`PalmServer::handle_with`], also returning the slot version a
    /// query's answer was computed against (`None` for every other verb and
    /// for a failed query).
    fn handle_versioned(
        &self,
        request: PalmRequest,
        cancel: &CancelToken,
    ) -> (PalmResponse, Option<u64>) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let (response, version) = match self.try_handle(request, cancel) {
            Ok(handled) => handled,
            Err(e) => (e.into_response(), None),
        };
        if let PalmResponse::Error { kind, .. } = &response {
            if kind == ERROR_KIND_DEADLINE {
                self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
        }
        (response, version)
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
    ///
    /// This is the one entry point that consults the result cache.  With it
    /// on, a request whose bytes match those of an earlier `query` (apart
    /// from the value of a trailing `deadline_ms`, as
    /// [`crate::backend::encode_frame`] writes it) is answered from that
    /// query's recorded reply, without being parsed, as long as the index
    /// still has the version the reply was answered against: only
    /// `elapsed_ms` is fresh.  Like every hit, it
    /// is served whatever the deadline says.  A `batch` looks each element
    /// of `requests` up the same way and computes only the misses.  With the
    /// cache off, the request is parsed and handled, nothing else.
    pub fn handle_json_with(&self, request_json: &str, cancel: &CancelToken) -> String {
        let Some(cache) = &self.cache else {
            let (response, _) = self.handle_text(request_json, cancel);
            return response.to_json().to_string();
        };
        let start = Instant::now();
        let key = RequestKey::of(request_json);
        let hash = cache.hash(key);
        if let Some(reply) = self.replay(cache, key, hash, start) {
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return reply;
        }
        if let Some(reply) = self.batch_json(cache, request_json, cancel) {
            return reply;
        }
        let (response, version) = self.handle_text(request_json, cancel);
        let reply = response.to_json().to_string();
        if let (Some(version), PalmResponse::QueryResult { name, .. }) = (version, &response) {
            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            cache.record(key, hash, name, version, &reply);
        }
        reply
    }

    /// The reply recorded for `key`, with a fresh `elapsed_ms` timed from
    /// `start`, if the index it queries still has the version that reply
    /// was answered against.  The version is compared under the slot's read
    /// lock, as the answer's was read under one, so an insert either came
    /// before (no hit) or comes after this answer.
    fn replay(
        &self,
        cache: &ResultCache,
        key: RequestKey,
        hash: Option<u64>,
        start: Instant,
    ) -> Option<String> {
        let recorded = cache.lookup(key, hash)?;
        let slot = self.slot(&recorded.name).ok()?;
        if slot.read().version != recorded.version {
            return None;
        }
        let elapsed_ms = Json::Num(start.elapsed().as_secs_f64() * 1000.0).to_string();
        let Range { start, end } = recorded.elapsed;
        let mut reply = String::with_capacity(recorded.reply.len() + elapsed_ms.len());
        reply.push_str(&recorded.reply[..start]);
        reply.push_str(&elapsed_ms);
        reply.push_str(&recorded.reply[end..]);
        Some(reply)
    }

    /// Answers a `batch` frame element by element.  Each element of
    /// `requests` is looked up by the [`RequestKey`] of its own bytes; hits
    /// are served from their recorded replies, and only the misses are
    /// decoded and run through [`PalmServer::execute_batch`].  No element
    /// after one that is not a query is looked up: it is computed in order.
    /// Their `query_result`s are recorded, and the replies are spliced into
    /// one `batch_result`.
    ///
    /// `None`, with nothing run and nothing counted, leaves the frame to the
    /// parsed path: a frame that does not begin `{"type":"batch",` as every
    /// encoder writes it, one the parser refuses, and one with an element
    /// that does not decode, whose error the parsed path words.
    fn batch_json(&self, cache: &ResultCache, frame: &str, cancel: &CancelToken) -> Option<String> {
        if !frame.starts_with("{\"type\":\"batch\",") {
            return None;
        }
        let members = scan_object(frame).ok()?;
        let deadline =
            request_deadline(find_member(&members, "deadline_ms").map(|m| m.raw)).ok()?;
        let cancel = deadline.map_or_else(|| cancel.clone(), |at| cancel.with_deadline(at));
        let elements = scan_array(find_member(&members, "requests")?.raw).ok()?;
        let start = Instant::now();
        let mut replies: Vec<Option<String>> = Vec::with_capacity(elements.len());
        let mut misses = Vec::new();
        let mut requests = Vec::new();
        // Past an element that is not a query (an insert, say) the batch
        // runs in order, and a reply recorded before it may be stale.
        let mut ordered = false;
        for (i, element) in elements.iter().enumerate() {
            let key = RequestKey::of(element);
            let hash = cache.hash(key);
            let reply = (!ordered)
                .then(|| self.replay(cache, key, hash, start))
                .flatten();
            if reply.is_none() {
                let (deadline, request) = PalmRequest::read_frame(element).ok()?;
                let request = request.ok()?;
                ordered |= !matches!(request, PalmRequest::Query { .. });
                requests.push(request);
                // A batch ignores an element's own `deadline_ms`; its reply
                // is recorded only if it also answers the element's bytes
                // sent alone.
                let recordable = request_deadline(deadline).is_ok();
                misses.push((i, key, hash, recordable));
            }
            replies.push(reply);
        }
        // The batch itself and its hits; `execute_batch` counts the rest.
        let hits = (elements.len() - misses.len()) as u64;
        self.stats.requests.fetch_add(1 + hits, Ordering::Relaxed);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        let computed = self.execute_batch(requests, &cancel);
        for ((i, key, hash, recordable), (response, version)) in misses.into_iter().zip(computed) {
            let reply = response.to_json().to_string();
            if let (Some(version), PalmResponse::QueryResult { name, .. }) = (version, &response) {
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                if recordable {
                    cache.record(key, hash, name, version, &reply);
                }
            }
            replies[i] = Some(reply);
        }
        let replies: Vec<String> = replies
            .into_iter()
            .map(|reply| reply.expect("every element is a hit or was computed"))
            .collect();
        let responses = replies.join(",");
        Some(format!(
            r#"{{"type":"batch_result","responses":[{responses}]}}"#
        ))
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
                let message = "request is not valid UTF-8".to_string();
                ServiceError::malformed(message)
                    .into_response()
                    .to_json()
                    .to_string()
            }
        }
    }

    /// Parses and handles one request, with the version of
    /// [`PalmServer::handle_versioned`].  This is where the protocol-level
    /// `deadline_ms` member is folded into the token.
    fn handle_text(&self, request_json: &str, cancel: &CancelToken) -> (PalmResponse, Option<u64>) {
        let malformed = |e: JsonError| {
            ServiceError::malformed(format!("malformed request: {e}")).into_response()
        };
        let (deadline, request) = match PalmRequest::read_frame(request_json) {
            Ok(read) => read,
            Err(e) => return (malformed(e), None),
        };
        let cancel = match request_deadline(deadline) {
            Ok(None) => cancel.clone(),
            Ok(Some(at)) => cancel.with_deadline(at),
            Err(e) => return (e.into_response(), None),
        };
        match request {
            Ok(request) => self.handle_versioned(request, &cancel),
            Err(e) => (malformed(e), None),
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

    /// The response, with the version of [`PalmServer::handle_versioned`].
    fn try_handle(
        &self,
        request: PalmRequest,
        cancel: &CancelToken,
    ) -> Result<(PalmResponse, Option<u64>), ServiceError> {
        let response = match request {
            PalmRequest::BuildIndex {
                ref name,
                ref dataset_path,
                range,
                ..
            } => {
                // The build runs entirely outside the registry lock, so
                // queries against other indexes proceed while it sorts.
                // A ranged build (service-level sharding) windows the
                // dataset to `[lo, hi)`; ids stay global.
                let dataset = match range {
                    None => Dataset::open(dataset_path)?,
                    Some((lo, hi)) => Dataset::open_range(dataset_path, lo, hi)?,
                };
                let config = IndexConfig::for_build(&request, dataset.series_len())
                    .expect("a build_index request");
                let dir = self.work_dir.join(name);
                let (index, report) =
                    StaticIndex::build(&dataset, config, &dir, IoStats::shared())?;
                let variant_name = config.display_name();
                self.indexes.write().insert(
                    name.clone(),
                    Arc::new(RwLock::new(Registered {
                        index,
                        report,
                        version: self.next_version(),
                    })),
                );
                // Rebuilding under an existing name is a write: the fresh
                // version tag already hides old entries, the purge just
                // frees them.
                if let Some(cache) = &self.cache {
                    cache.purge(name);
                }
                PalmResponse::Built {
                    name: name.clone(),
                    variant: variant_name,
                    report,
                }
            }
            PalmRequest::Query {
                name,
                query,
                k,
                exact,
            } => {
                let slot = self.slot(&name)?;
                let registered = slot.read();
                registered.index.check_query(&query, k)?;
                let start = Instant::now();
                // The version is read under the slot read lock, so it is
                // exactly the version the computation below runs against:
                // any insert orders entirely before or after this read
                // section.  It is returned with the answer to tag the
                // reply's cache entry, never re-read once this lock is gone.
                let version = registered.version;
                let (neighbors, cost) = registered.index.knn(&query, k, exact, cancel)?;
                let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
                let response = query_result(name, &neighbors, cost, elapsed_ms);
                return Ok((response, Some(version)));
            }
            PalmRequest::Batch { requests } => PalmResponse::Batch {
                responses: self
                    .execute_batch(requests, cancel)
                    .into_iter()
                    .map(|(response, _)| response)
                    .collect(),
            },
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
                PalmResponse::Inserted {
                    name,
                    inserted: batch.len() as u64,
                    total: registered.index.len(),
                }
            }
            PalmRequest::Metrics { name } => {
                let slot = self.slot(&name)?;
                let registered = slot.read();
                PalmResponse::Metrics {
                    name,
                    report: registered.report,
                    footprint_bytes: registered.index.footprint_bytes(),
                }
            }
            PalmRequest::Recommend { scenario } => PalmResponse::Recommendation {
                recommendation: recommend(&scenario),
            },
            PalmRequest::ListIndexes => {
                let mut names: Vec<String> = self.indexes.read().keys().cloned().collect();
                names.sort();
                PalmResponse::Indexes { names }
            }
            PalmRequest::Stats => PalmResponse::Stats {
                stats: self.stats(),
            },
        };
        Ok((response, None))
    }

    /// Executes a batch: every sub-request is one task fanned out over
    /// `batch_workers` threads, handled by [`PalmServer::handle_versioned`]
    /// exactly as if it had been sent alone, and responses come back in
    /// request order.  Only a batch of queries fans out: any other
    /// sub-request — a write, or a `stats` or `metrics` that reads counters
    /// the others advance — makes the batch run one sub-request at a time,
    /// in request order, so each sees exactly what ran before it.
    /// Sub-requests are consumed, never cloned; nested batches are rejected
    /// (the service boundary must not recurse on attacker-chosen depth).
    ///
    /// A deadline that trips fails only the sub-requests it interrupted:
    /// the others keep their answers, and the batch as a whole never turns
    /// into one blanket error.  Each response comes with the version of
    /// [`PalmServer::handle_versioned`].
    fn execute_batch(
        &self,
        requests: Vec<PalmRequest>,
        cancel: &CancelToken,
    ) -> Vec<(PalmResponse, Option<u64>)> {
        let only_queries = requests
            .iter()
            .all(|request| matches!(request, PalmRequest::Query { .. }));
        let workers = if only_queries { self.batch_workers } else { 1 };
        // The `Mutex` only lets the worker that claims a job take its
        // request out of the shared slice.
        let jobs: Vec<Mutex<Option<PalmRequest>>> = requests
            .into_iter()
            .map(|request| Mutex::new(Some(request)))
            .collect();
        parallel_map_tasks(&jobs, workers, |_, job| {
            match job.lock().take().expect("each job is claimed exactly once") {
                PalmRequest::Batch { .. } => {
                    let message = "batch requests cannot be nested".to_string();
                    (ServiceError::malformed(message).into_response(), None)
                }
                request => self.handle_versioned(request, cancel),
            }
        })
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
        PalmRequest::build_index(name, dataset_path, variant, true, 8 << 20)
    }

    /// `request` as a frame through `handle_json_with`, the entry point
    /// that consults the result cache, and its reply decoded.
    fn ask(server: &PalmServer, request: &PalmRequest, cancel: &CancelToken) -> PalmResponse {
        let reply = server.handle_json_with(&request.to_json().to_string(), cancel);
        PalmResponse::from_json(&Json::parse(&reply).unwrap()).unwrap()
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

    /// `"prefix"`, the retired run codec, is no `compression` value: the
    /// build is refused before it opens the dataset or writes a file, and
    /// registers nothing.  `"off"` still builds.
    #[test]
    fn a_prefix_build_is_refused_before_it_writes_anything() {
        let (dir, dataset_path, _series) = setup();
        let work = dir.file("work");
        let server = PalmServer::new(&work);
        let frame = |compression: &str| {
            format!(
                r#"{{"type":"build_index","name":"a","dataset_path":{},"variant":"CTree","materialized":true,"memory_budget_bytes":1048576,"compression":"{compression}"}}"#,
                Json::Str(dataset_path.clone()).to_string()
            )
        };
        let reply = Json::parse(&server.handle_json(&frame("prefix"))).unwrap();
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("malformed_request")
        );
        let message = reply.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.ends_with("field 'compression': unknown compression 'prefix' (expected 'off')"),
            "{message}"
        );
        let files = std::fs::read_dir(&work).map_or(0, |entries| entries.count());
        assert_eq!(files, 0, "a refused build left files in the work dir");
        match server.handle(PalmRequest::ListIndexes) {
            PalmResponse::Indexes { names } => assert!(names.is_empty(), "{names:?}"),
            other => panic!("unexpected response {other:?}"),
        }
        assert!(server
            .handle_json(&frame("off"))
            .contains(r#""type":"built""#));
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
        server.handle(PalmRequest::build_index(
            "thin",
            dataset_path,
            VariantKind::Clsm,
            false,
            8 << 20,
        ));
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
        let server = PalmServer::new(dir.file("work"));
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

    /// `response` as the wire carries it, with the one value that is not a
    /// function of the request and the index contents, the wall-clock
    /// `elapsed_ms`, blanked.
    fn reply_bytes(response: &PalmResponse) -> String {
        let mut text = response.to_json().to_string();
        if let Some(at) = text.find(ELAPSED_MEMBER) {
            let start = at + ELAPSED_MEMBER.len();
            let len = text[start..].find([',', '}']).expect("a value");
            text.replace_range(start..start + len, "_");
        }
        text
    }

    /// A `batch` is N single requests: on a CTree and a 2-shard CLSM,
    /// exact and approximate and under a pre-cancelled token, every
    /// sub-reply is the reply the same request gets alone from an
    /// identical server, byte for byte (see [`reply_bytes`]),
    /// `partial_cost` included.
    #[test]
    fn batch_sub_replies_equal_single_replies() {
        let dir = ScratchDir::new("palm-batch-singles").unwrap();
        let series = RandomWalkGenerator::new(64, 21).generate(11000);
        let path = dir.file("raw.bin");
        Dataset::create_from_series(&path, &series).unwrap();
        let dataset_path = path.to_string_lossy().into_owned();
        let mut names = Vec::new();
        let servers = [dir.file("singles"), dir.file("batches")].map(PalmServer::new);
        for (variant, shards) in [(VariantKind::CTree, 1), (VariantKind::Clsm, 2)] {
            let name = variant.name().to_string();
            for server in &servers {
                let mut request =
                    PalmRequest::build_index(&name, &dataset_path, variant, true, 1 << 20);
                if let PalmRequest::BuildIndex { shard_count, .. } = &mut request {
                    *shard_count = shards;
                }
                let built = server.handle(request);
                assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
            }
            names.push(name);
        }
        let mut gen = RandomWalkGenerator::new(64, 22);
        let queries: Vec<Vec<f32>> = (0..3).map(|_| gen.next_series().values).collect();
        let live = CancelToken::never();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for (exact, cancel) in [(true, &live), (false, &live), (true, &cancelled)] {
            let requests: Vec<PalmRequest> = names
                .iter()
                .flat_map(|name| {
                    queries.iter().map(move |query| PalmRequest::Query {
                        name: name.clone(),
                        query: query.clone(),
                        k: 4,
                        exact,
                    })
                })
                .collect();
            let singles: Vec<String> = requests
                .iter()
                .map(|request| reply_bytes(&servers[0].handle_with(request.clone(), cancel)))
                .collect();
            let batch = servers[1].handle_with(PalmRequest::Batch { requests }, cancel);
            let PalmResponse::Batch { responses } = batch else {
                panic!("expected a batch response, got {batch:?}");
            };
            let batched: Vec<String> = responses.iter().map(reply_bytes).collect();
            assert_eq!(batched, singles, "exact={exact}");
            let refused = singles
                .iter()
                .filter(|r| r.contains("partial_cost"))
                .count();
            let expected = if cancel.is_cancelled() {
                singles.len()
            } else {
                0
            };
            assert_eq!(refused, expected);
        }
    }

    /// A `batch` that writes answers as if its requests were sent alone, in
    /// order: the query before the insert does not see the inserted row and
    /// the query after it does.  Each round starts from a fresh index, on a
    /// server that gets the requests one by one and one that gets the batch.
    #[test]
    fn writing_batch_answers_as_its_requests_sent_alone_in_order() {
        let (dir, dataset_path, _series) = setup();
        let row = RandomWalkGenerator::new(64, 78).next_series().values;
        let query = |k| PalmRequest::Query {
            name: "a".into(),
            query: row.clone(),
            k,
            exact: true,
        };
        let insert = PalmRequest::Insert {
            name: "a".into(),
            series: vec![row.clone()],
            timestamp: 1,
            base_id: None,
        };
        let requests = vec![query(5), insert, query(1), PalmRequest::Stats];
        for round in 0..50 {
            let servers = [
                dir.file(&format!("singles-{round}")),
                dir.file(&format!("batch-{round}")),
            ]
            .map(PalmServer::new);
            for server in &servers {
                server.handle(build_request("a", dataset_path.clone(), VariantKind::Clsm));
            }
            // The batch frame is a request of its own.
            servers[0].handle(PalmRequest::ListIndexes);
            let singles: Vec<PalmResponse> = requests
                .iter()
                .map(|r| servers[0].handle(r.clone()))
                .collect();
            let batch = servers[1].handle(PalmRequest::Batch {
                requests: requests.clone(),
            });
            let PalmResponse::Batch { responses } = batch else {
                panic!("expected a batch response, got {batch:?}");
            };
            let bytes =
                |replies: &[PalmResponse]| replies.iter().map(reply_bytes).collect::<Vec<_>>();
            assert_eq!(bytes(&responses), bytes(&singles), "round {round}");
            let PalmResponse::QueryResult { ids, .. } = &responses[2] else {
                panic!("expected a query result, got {:?}", responses[2]);
            };
            assert_eq!(ids, &[200], "the query after the insert finds the row");
        }
    }

    /// With the result cache on, no `batch` element after a write is
    /// answered from a reply recorded before that write.
    #[test]
    fn cached_batch_replays_nothing_recorded_before_its_write() {
        let (dir, dataset_path, _series) = setup();
        let server = PalmServer::new(dir.file("work")).with_result_cache(64);
        server.handle(build_request("a", dataset_path, VariantKind::Clsm));
        let row = RandomWalkGenerator::new(64, 79).next_series().values;
        let query = PalmRequest::Query {
            name: "a".into(),
            query: row.clone(),
            k: 1,
            exact: true,
        };
        let insert = PalmRequest::Insert {
            name: "a".into(),
            series: vec![row],
            timestamp: 1,
            base_id: None,
        };
        let alone = server.handle_json(&query.to_json().to_string());
        let batch = PalmRequest::Batch {
            requests: vec![query.clone(), insert, query],
        };
        let reply = server.handle_json(&batch.to_json().to_string());
        let reply = PalmResponse::from_json(&Json::parse(&reply).unwrap()).unwrap();
        let PalmResponse::Batch { responses } = reply else {
            panic!("expected a batch response, got {reply:?}");
        };
        let ids = |response: &PalmResponse| match response {
            PalmResponse::QueryResult { ids, .. } => ids.clone(),
            other => panic!("expected a query result, got {other:?}"),
        };
        let alone = PalmResponse::from_json(&Json::parse(&alone).unwrap()).unwrap();
        assert_eq!(ids(&responses[0]), ids(&alone), "a hit before the write");
        assert_eq!(ids(&responses[2]), vec![200], "computed after the write");
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
        let never = CancelToken::never();
        let first = ask(&server, &request, &never);
        let second = ask(&server, &request, &never);
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
        match ask(&server, &request, &never) {
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
        ask(&server, &request, &CancelToken::never());
        ask(&server, &request, &CancelToken::never());
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
        let computed = ask(&server, &query(4), &CancelToken::never());
        let expired = CancelToken::at(Instant::now());
        let hit = ask(&server, &query(4), &expired);
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
            ask(&server, &query(5), &expired),
            PalmResponse::Error { kind, .. } if kind == ERROR_KIND_DEADLINE
        ));
        let stats = server.stats();
        assert_eq!((stats.cache_hits, stats.deadline_exceeded), (1, 1));
    }

    /// Satellite: per-sub-request deadline reporting inside a batch — the
    /// expired query fails alone, the rest of the batch still answers.
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

    /// A query or row as JSON text, with `overflow` (if any) replacing
    /// value 5 by `1e39` — past `f32`, so it decodes as infinity.
    fn row_text(values: &[f32], overflow: bool) -> String {
        let mut row: Vec<String> = values.iter().map(f32::to_string).collect();
        if overflow {
            row[5] = "1e39".into();
        }
        format!("[{}]", row.join(","))
    }

    fn kind(reply: &Json) -> Option<&str> {
        reply.get("kind").and_then(Json::as_str)
    }

    /// A query of the wrong length, with a non-finite value or with
    /// `k: 0`, and an insert holding a bad row, are `config` errors in every
    /// variant and layout — refused before any index work: no panic, no
    /// `null` distance, and nothing of a refused batch applied.  In a batch
    /// only the bad sub-queries are refused.  A `k` past the entry count
    /// answers every entry, without sizing anything by `k`.
    #[test]
    fn bad_queries_and_rows_are_config_errors_in_every_variant() {
        let (dir, dataset_path, series) = setup();
        let good = row_text(&series[3].values, false);
        let overflow = row_text(&series[3].values, true);
        let short = row_text(&series[3].values[..63], false);
        for variant in VariantKind::all() {
            for materialized in [true, false] {
                let server = PalmServer::new(dir.file(&format!("work-{variant:?}-{materialized}")));
                server.handle(PalmRequest::build_index(
                    "i",
                    dataset_path.clone(),
                    variant,
                    materialized,
                    8 << 20,
                ));
                let at = format!("{variant:?} materialized={materialized}");
                let query = |q: &str, k: u64, exact: bool| {
                    format!(r#"{{"type":"query","name":"i","query":{q},"k":{k},"exact":{exact}}}"#)
                };
                for exact in [true, false] {
                    for (bad, k) in [(&short, 3), (&overflow, 3), (&good, 0)] {
                        let reply = server.handle_json(&query(bad, k, exact));
                        assert!(!reply.contains("null"), "{at}: {reply}");
                        let reply = Json::parse(&reply).unwrap();
                        assert_eq!(kind(&reply), Some(ERROR_KIND_CONFIG), "{at}: {reply:?}");
                    }
                }
                let reply =
                    Json::parse(&server.handle_json(&query(&good, 1_000_000_000_000, true)))
                        .unwrap();
                let ids = reply.get("ids").and_then(Json::as_arr).map(<[Json]>::len);
                assert_eq!(ids, Some(200), "{at}: {reply:?}");
                let batch = format!(
                    r#"{{"type":"batch","requests":[{},{},{},{}]}}"#,
                    query(&good, 3, true),
                    query(&short, 3, true),
                    query(&overflow, 3, true),
                    query(&good, 0, true)
                );
                let reply = Json::parse(&server.handle_json(&batch)).unwrap();
                let Some(Json::Arr(responses)) = reply.get("responses") else {
                    panic!("{at}: {reply:?}");
                };
                let kinds: Vec<Option<&str>> = responses.iter().map(kind).collect();
                assert_eq!(
                    kinds,
                    vec![
                        None,
                        Some(ERROR_KIND_CONFIG),
                        Some(ERROR_KIND_CONFIG),
                        Some(ERROR_KIND_CONFIG)
                    ],
                    "{at}"
                );
                assert_eq!(
                    responses[0]
                        .get("ids")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::len),
                    Some(3),
                    "{at}"
                );
                if materialized {
                    let insert = |rows: &str| {
                        let frame = format!(r#"{{"type":"insert","name":"i","series":{rows}}}"#);
                        Json::parse(&server.handle_json(&frame)).unwrap()
                    };
                    let reply = insert(&format!("[{good},{overflow}]"));
                    assert_eq!(kind(&reply), Some(ERROR_KIND_CONFIG), "{at}: {reply:?}");
                    let reply = insert(&format!("[{good}]"));
                    assert_eq!(
                        reply.get("total").and_then(Json::as_f64),
                        Some(201.0),
                        "{at}"
                    );
                }
            }
        }

        // A hostile shard count on a CLSM build that compacts: the merge
        // must not size anything by the requested count.
        let wide = dir.file("wide.bin");
        let walks = RandomWalkGenerator::new(64, 13).generate(20_000);
        Dataset::create_from_series(&wide, &walks).unwrap();
        let server = PalmServer::new(dir.file("work-shards"));
        let frame = format!(
            r#"{{"type":"build_index","name":"w","dataset_path":{},"variant":"Clsm","materialized":true,"memory_budget_bytes":1048576,"shard_count":1000000000000}}"#,
            wide.to_string_lossy().to_json().to_string()
        );
        let reply = Json::parse(&server.handle_json(&frame)).unwrap();
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("built"));
        let query = format!(r#"{{"type":"query","name":"w","query":{good},"k":3,"exact":true}}"#);
        let reply = Json::parse(&server.handle_json(&query)).unwrap();
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("query_result")
        );
    }

    /// An archive holding a non-finite value is refused at build time by
    /// every variant and layout, as an insert of that row would be: a
    /// `config` error naming the value, never an index that answers `null`
    /// distances.
    #[test]
    fn archive_with_a_non_finite_value_is_refused_by_every_variant() {
        let dir = ScratchDir::new("palm-nan").unwrap();
        let mut series = RandomWalkGenerator::new(64, 14).generate(300);
        series[5].values[3] = f32::NAN;
        let path = dir.file("raw.bin");
        Dataset::create_from_series(&path, &series).unwrap();
        let server = PalmServer::new(dir.file("work"));
        for variant in VariantKind::all() {
            for materialized in [true, false] {
                let at = format!("{variant:?} materialized={materialized}");
                let name = format!("{variant:?}-{materialized}");
                let request = PalmRequest::build_index(
                    name,
                    path.to_string_lossy(),
                    variant,
                    materialized,
                    1 << 20,
                );
                let reply =
                    Json::parse(&server.handle_json(&request.to_json().to_string())).unwrap();
                assert_eq!(kind(&reply), Some(ERROR_KIND_CONFIG), "{at}: {reply:?}");
                let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
                assert!(
                    message.contains("inserted series value 3 is not finite"),
                    "{at}: {message}"
                );
            }
        }
        let reply = Json::parse(&server.handle_json(r#"{"type":"list_indexes"}"#)).unwrap();
        assert_eq!(
            reply.get("names").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }
}
