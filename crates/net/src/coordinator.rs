//! Scatter-gather coordination over a fleet of Palm shards.
//!
//! The [`Coordinator`] owns an ordered list of [`ExecutionBackend`]s, one
//! per shard.  Each shard holds an index built over a contiguous id range
//! `[lo, hi)` of the *same* dataset file (ids are file positions, so no
//! translation layer exists anywhere).  The coordinator speaks the exact
//! `PalmServer` protocol — it implements
//! [`RequestHandler`], so the same TCP
//! front-end, admission control and shutdown machinery serve both a
//! single worker and a whole fleet.
//!
//! **Fragmenting rule.**  A kNN (or a batch of kNNs) is broadcast to
//! every shard unchanged: each shard answers its local top-k over its id
//! range, which by disjointness covers the whole collection.  `insert`
//! is *routed*, not broadcast — the coordinator owns the global id space
//! and sends each append to one shard (round-robin) with an explicit
//! `base_id` — and routed *unread*: the front door scans the frame's
//! envelope and the shard gets the client's `series` bytes verbatim (see
//! DESIGN.md, "Wire path: who parses what").  `build_index` is fragmented
//! by [`chunk_bounds`] into one ranged build per shard.
//!
//! **Merge identity.**  Shards return the full neighbour identity
//! `(squared_distance, id, timestamp)` on the wire, and the coordinator
//! merges with [`merge_topk`] — the *same* function the engine uses to
//! combine per-run candidates — so the distributed exact answer is
//! bit-identical to single-node execution over the same data, and the
//! merged `QueryCost` is the field-wise sum of per-shard costs, exactly
//! as single-node cost sums per-run work.  See DESIGN.md,
//! "Scatter-gather", for the full argument.
//!
//! **Failure semantics.**  A shard that cannot be reached (worker died,
//! connect refused, read past deadline+grace) fails the whole request
//! with the typed `shard_unavailable` error carrying `shard_costs`: the
//! per-shard costs the coordinator had gathered, in shard order, so a
//! caller can see how much work was lost and where.  Shards that answer
//! a *service* error (unknown index, deadline) propagate that error kind
//! instead — the fleet is reachable, the request itself failed.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::backend::{deadline_ms, encode_frame, BackendError, ExecutionBackend};
use coconut_core::palm::{
    PalmRequest, PalmResponse, QueryCostJson, ShardCostJson, ERROR_KIND_CONFIG,
    ERROR_KIND_MALFORMED, ERROR_KIND_SHARD_UNAVAILABLE,
};
use coconut_core::{merge_topk, BuildReport, Dataset, Neighbor, QueryCost};
use coconut_json::{scan_object, FromJson, Json, JsonError, RawMember, ToJson};
use coconut_parallel::{chunk_bounds, parallel_map_tasks, CancelToken};

use crate::server::RequestHandler;

/// Routing state of one coordinated index: the coordinator owns the
/// global id space, so appended series get ids `total_entries,
/// total_entries + 1, ...` regardless of which shard stores them.
struct Route {
    /// Entries across every shard; the next insert's first id.
    total_entries: u64,
    /// Round-robin cursor for insert placement.
    next_shard: usize,
}

/// Scatter-gather front over an ordered shard fleet.
pub struct Coordinator {
    shards: Vec<Arc<dyn ExecutionBackend>>,
    /// Insert routing per index name, created by `build_index`.  Also the
    /// serialization point of the write path: id assignment and shard
    /// placement must be atomic per index.
    routes: parking_lot::Mutex<HashMap<String, Route>>,
    /// Requests shed by the coordinator's own admission control.
    shed: AtomicU64,
}

/// The rejections of an `insert` a worker issues with its index untouched:
/// the frame did not decode (`malformed_request`), or the index takes no
/// inserts or a row has the wrong length (`config` — every variant's
/// `insert_batch` checks the whole batch before applying any of it).  Only
/// these give their ids back; any other kind may follow a partial write.
const INSERT_REJECTED_UNAPPLIED: [&str; 2] = [ERROR_KIND_MALFORMED, ERROR_KIND_CONFIG];

/// One shard's scatter outcome.
type ShardOutcome = Result<PalmResponse, BackendError>;

impl Coordinator {
    /// A coordinator over `shards`, in shard order.  At least one shard.
    pub fn new(shards: Vec<Arc<dyn ExecutionBackend>>) -> Self {
        assert!(!shards.is_empty(), "a coordinator needs at least one shard");
        Coordinator {
            shards,
            routes: parking_lot::Mutex::new(HashMap::new()),
            shed: AtomicU64::new(0),
        }
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sends `request` to every shard concurrently — one encoding, the same
    /// bytes to each; one outcome per shard, in shard order.
    fn scatter(&self, request: &PalmRequest, deadline: Option<Duration>) -> Vec<ShardOutcome> {
        let frame = encode_frame(request, deadline);
        parallel_map_tasks(&self.shards, self.shards.len(), |_, shard| {
            shard.execute_frame(&frame, deadline)
        })
    }

    /// Per-shard costs for error reporting: whatever each shard's outcome
    /// carried (a full cost, a partial cost, or nothing for a shard that
    /// never answered), in shard order.
    fn shard_costs(outcomes: &[ShardOutcome]) -> Vec<ShardCostJson> {
        outcomes
            .iter()
            .enumerate()
            .map(|(shard, outcome)| ShardCostJson {
                shard: shard as u64,
                cost: match outcome {
                    Ok(PalmResponse::QueryResult { cost, .. }) => Some(*cost),
                    Ok(PalmResponse::Error { partial_cost, .. }) => *partial_cost,
                    _ => None,
                },
            })
            .collect()
    }

    /// Separates successful shard responses from the fleet-level failure
    /// they imply.  `Err` carries the coordinator's response: a typed
    /// `shard_unavailable` when any shard was unreachable, else the first
    /// shard-reported service error — both with `shard_costs` attached.
    ///
    /// The `Err` variant *is* a full response by design (it goes straight
    /// onto the wire), so its size is the protocol's, not an accident.
    #[allow(clippy::result_large_err)]
    fn gather(&self, outcomes: Vec<ShardOutcome>) -> Result<Vec<PalmResponse>, PalmResponse> {
        if let Some((shard, failure)) = outcomes
            .iter()
            .enumerate()
            .find_map(|(i, o)| o.as_ref().err().map(|e| (i, e.clone())))
        {
            return Err(PalmResponse::Error {
                kind: ERROR_KIND_SHARD_UNAVAILABLE.to_string(),
                message: format!(
                    "shard {shard} ({}): {failure}",
                    self.shards[shard].describe()
                ),
                partial_cost: None,
                retry_after_ms: None,
                shard_costs: Some(Self::shard_costs(&outcomes)),
            });
        }
        if let Some((shard, kind, message, partial_cost)) =
            outcomes.iter().enumerate().find_map(|(i, o)| match o {
                Ok(PalmResponse::Error {
                    kind,
                    message,
                    partial_cost,
                    ..
                }) => Some((i, kind.clone(), message.clone(), *partial_cost)),
                _ => None,
            })
        {
            return Err(PalmResponse::Error {
                kind,
                message: format!("shard {shard}: {message}"),
                partial_cost,
                retry_after_ms: None,
                shard_costs: Some(Self::shard_costs(&outcomes)),
            });
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("errors were filtered above"))
            .collect())
    }

    /// Merges per-shard kNN answers with the engine's own total order.
    ///
    /// Each shard ships the full neighbour identity, so this reconstructs
    /// the engine's `(Vec<Neighbor>, QueryCost)` pairs and defers to
    /// [`merge_topk`] — the single merge function both topologies share,
    /// which is the identity argument in one line.
    ///
    /// As in [`Coordinator::gather`], the `Err` variant is a wire response.
    #[allow(clippy::result_large_err)]
    fn merge_query_results(
        parts: Vec<PalmResponse>,
        k: usize,
    ) -> Result<PalmResponse, PalmResponse> {
        let mut merged: Vec<(Vec<Neighbor>, QueryCost)> = Vec::with_capacity(parts.len());
        let mut name = String::new();
        let mut elapsed_ms = 0f64;
        for part in parts {
            match part {
                PalmResponse::QueryResult {
                    name: part_name,
                    ids,
                    squared_distances,
                    timestamps,
                    elapsed_ms: part_elapsed,
                    cost,
                    ..
                } => {
                    let neighbors = ids
                        .iter()
                        .zip(timestamps.iter())
                        .zip(squared_distances.iter())
                        .map(|((&id, &timestamp), &squared)| {
                            Neighbor::new_at(id, timestamp, squared)
                        })
                        .collect();
                    merged.push((neighbors, cost_from_json(cost)));
                    name = part_name;
                    // The fleet answers when its slowest shard does.
                    elapsed_ms = elapsed_ms.max(part_elapsed);
                }
                other => {
                    return Err(PalmResponse::Error {
                        kind: ERROR_KIND_MALFORMED.to_string(),
                        message: format!("shard answered a non-query response {other:?}"),
                        partial_cost: None,
                        retry_after_ms: None,
                        shard_costs: None,
                    })
                }
            }
        }
        let (neighbors, cost) = merge_topk(merged, k);
        Ok(PalmResponse::QueryResult {
            name,
            ids: neighbors.iter().map(|n| n.id).collect(),
            distances: neighbors.iter().map(Neighbor::distance).collect(),
            squared_distances: neighbors.iter().map(|n| n.squared_distance).collect(),
            timestamps: neighbors.iter().map(|n| n.timestamp).collect(),
            elapsed_ms,
            cost: cost.into(),
            // Per-shard plans cannot be presented as one decision; the
            // coordinator's answers are explain-less by design.
            explain: None,
        })
    }

    /// Handles one request against the fleet.  `deadline` bounds the
    /// whole scatter (each shard gets the remaining time).
    pub fn handle_with_deadline(
        &self,
        request: PalmRequest,
        deadline: Option<Duration>,
    ) -> PalmResponse {
        match request {
            PalmRequest::Query { ref k, .. } => {
                let k = *k;
                match self.gather(self.scatter(&request, deadline)) {
                    Err(failure) => failure,
                    Ok(parts) => {
                        Self::merge_query_results(parts, k).unwrap_or_else(|failure| failure)
                    }
                }
            }
            PalmRequest::Batch { requests } => self.execute_batch(requests, deadline),
            PalmRequest::BuildIndex { .. } => self.build_index(request, deadline),
            PalmRequest::Insert {
                name,
                series,
                timestamp,
                base_id,
            } => {
                if base_id.is_some() {
                    return base_id_error();
                }
                // The typed entry goes down the routine a wire frame takes:
                // the rows as text, counted.
                let rows = series.len() as u64;
                let series = series.to_json().to_string();
                self.insert(&name, &series, rows, timestamp, deadline)
            }
            PalmRequest::Metrics { .. } => match self.gather(self.scatter(&request, deadline)) {
                Err(failure) => failure,
                Ok(parts) => Self::merge_metrics(parts),
            },
            PalmRequest::ListIndexes => match self.gather(self.scatter(&request, deadline)) {
                Err(failure) => failure,
                Ok(parts) => {
                    let mut names: Vec<String> = parts
                        .into_iter()
                        .flat_map(|part| match part {
                            PalmResponse::Indexes { names } => names,
                            _ => Vec::new(),
                        })
                        .collect();
                    names.sort();
                    names.dedup();
                    PalmResponse::Indexes { names }
                }
            },
            PalmRequest::Recommend { .. } => {
                // Advice is data-independent of shard layout; one shard
                // answers for the fleet.
                match self.shards[0].execute(&request, deadline) {
                    Ok(response) => response,
                    Err(failure) => self.unavailable(0, &failure),
                }
            }
            PalmRequest::Stats => match self.gather(self.scatter(&request, deadline)) {
                Err(failure) => failure,
                Ok(parts) => self.merge_stats(parts),
            },
        }
    }

    /// The typed fleet-level failure for a single-shard call.
    fn unavailable(&self, shard: usize, failure: &BackendError) -> PalmResponse {
        PalmResponse::Error {
            kind: ERROR_KIND_SHARD_UNAVAILABLE.to_string(),
            message: format!(
                "shard {shard} ({}): {failure}",
                self.shards[shard].describe()
            ),
            partial_cost: None,
            retry_after_ms: None,
            shard_costs: Some(
                (0..self.shards.len())
                    .map(|shard| ShardCostJson {
                        shard: shard as u64,
                        cost: None,
                    })
                    .collect(),
            ),
        }
    }

    /// Batch execution: every kNN position scatters as *one* per-shard
    /// batch (each worker applies its own grouping machinery, so shared
    /// `(index, k, exact)` groups batch server-side exactly as they do
    /// single-node), then each position merges shard-wise.  Non-query
    /// sub-requests execute through the coordinator's own verbs.
    fn execute_batch(
        &self,
        requests: Vec<PalmRequest>,
        deadline: Option<Duration>,
    ) -> PalmResponse {
        let mut responses: Vec<Option<PalmResponse>> = (0..requests.len()).map(|_| None).collect();
        let mut query_positions: Vec<usize> = Vec::new();
        let mut queries: Vec<PalmRequest> = Vec::new();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                PalmRequest::Query { .. } => {
                    query_positions.push(i);
                    queries.push(request);
                }
                PalmRequest::Batch { .. } => {
                    responses[i] = Some(PalmResponse::Error {
                        kind: ERROR_KIND_MALFORMED.to_string(),
                        message: "batch requests cannot be nested".to_string(),
                        partial_cost: None,
                        retry_after_ms: None,
                        shard_costs: None,
                    });
                }
                other => {
                    responses[i] = Some(self.handle_with_deadline(other, deadline));
                }
            }
        }
        if !queries.is_empty() {
            let ks: Vec<usize> = queries
                .iter()
                .map(|q| match q {
                    PalmRequest::Query { k, .. } => *k,
                    _ => unreachable!("only queries are collected"),
                })
                .collect();
            let batch = PalmRequest::Batch { requests: queries };
            match self.gather(self.scatter(&batch, deadline)) {
                Err(failure) => {
                    // A fleet-level failure fails every query position the
                    // same way (the batch was one scatter).
                    for &position in &query_positions {
                        responses[position] = Some(failure.clone());
                    }
                }
                Ok(parts) => {
                    // parts[shard] is a Batch response aligned to `queries`;
                    // transpose it into one column per query position.
                    let mut per_shard: Vec<std::vec::IntoIter<PalmResponse>> = parts
                        .into_iter()
                        .map(|part| match part {
                            PalmResponse::Batch { responses } => responses.into_iter(),
                            other => vec![other].into_iter(),
                        })
                        .collect();
                    for (slot, &position) in query_positions.iter().enumerate() {
                        let column: Vec<PalmResponse> = per_shard
                            .iter_mut()
                            .map(|shard_responses| {
                                shard_responses
                                    .next()
                                    .unwrap_or_else(|| PalmResponse::Error {
                                        kind: ERROR_KIND_MALFORMED.to_string(),
                                        message: "shard batch response too short".to_string(),
                                        partial_cost: None,
                                        retry_after_ms: None,
                                        shard_costs: None,
                                    })
                            })
                            .collect();
                        let merged = if column
                            .iter()
                            .any(|r| matches!(r, PalmResponse::Error { .. }))
                        {
                            match self.gather(column.into_iter().map(Ok).collect()) {
                                Err(failure) => failure,
                                Ok(_) => unreachable!("an error column cannot gather clean"),
                            }
                        } else {
                            Self::merge_query_results(column, ks[slot])
                                .unwrap_or_else(|failure| failure)
                        };
                        responses[position] = Some(merged);
                    }
                }
            }
        }
        PalmResponse::Batch {
            responses: responses
                .into_iter()
                .map(|r| r.expect("every position was filled"))
                .collect(),
        }
    }

    /// Sharded build: fragments the dataset's id space with the same
    /// [`chunk_bounds`] rule the engine uses for intra-index sharding,
    /// builds one ranged index per worker, and registers the insert
    /// route.
    fn build_index(&self, request: PalmRequest, deadline: Option<Duration>) -> PalmResponse {
        let PalmRequest::BuildIndex {
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
        } = request
        else {
            unreachable!("caller matched BuildIndex");
        };
        if range.is_some() {
            return config_error(
                "range_lo/range_hi are coordinator-internal; build through the coordinator without a range",
            );
        }
        // The dataset lives on storage every worker shares; open it here
        // only to learn its length for fragmenting.
        let count = match Dataset::open(&dataset_path) {
            Ok(dataset) => dataset.len(),
            Err(e) => return config_error(format!("cannot open dataset {dataset_path}: {e}")),
        };
        let bounds = chunk_bounds(count as usize, self.shards.len());
        if bounds.len() < self.shards.len() {
            return config_error(format!(
                "dataset has {count} series, fewer than {} shards",
                self.shards.len()
            ));
        }
        let outcomes = parallel_map_tasks(&self.shards, self.shards.len(), |shard, backend| {
            let (lo, hi) = bounds[shard];
            backend.execute(
                &PalmRequest::BuildIndex {
                    name: name.clone(),
                    dataset_path: dataset_path.clone(),
                    variant,
                    materialized,
                    memory_budget_bytes,
                    parallelism,
                    query_parallelism,
                    shard_count,
                    range: Some((lo as u64, hi as u64)),
                    io_overlap,
                    io_backend,
                    planner,
                    compression,
                },
                deadline,
            )
        });
        let parts = match self.gather(outcomes) {
            Err(failure) => return failure,
            Ok(parts) => parts,
        };
        let mut merged: Option<(String, BuildReport)> = None;
        for part in parts {
            match part {
                PalmResponse::Built {
                    variant, report, ..
                } => {
                    merged = Some(match merged {
                        None => (variant, report),
                        Some((variant, acc)) => (variant, merge_build_reports(acc, &report)),
                    });
                }
                other => {
                    return config_error(format!("shard answered a non-build response {other:?}"))
                }
            }
        }
        let (variant, report) = merged.expect("at least one shard");
        self.routes.lock().insert(
            name.clone(),
            Route {
                total_entries: count,
                next_shard: 0,
            },
        );
        PalmResponse::Built {
            name,
            variant,
            report,
        }
    }

    /// Routed insert: one shard receives the batch with an explicit
    /// `base_id` carved out of the coordinator's global id space.  `series`
    /// is the rows as JSON text — the client's own bytes when the request
    /// came off the wire — and goes into the shard's frame verbatim: the
    /// coordinator never holds a float.  `rows` is how many there are.
    ///
    /// The route lock serializes the write path (exactly like the slot write
    /// lock single-node).  The route advances when the shard applied the
    /// batch, and also when nobody can say whether it did (a transport
    /// failure, a shard-side failure past validation): ids are then burned,
    /// which keeps already-assigned ids stable at the cost of gaps — the
    /// same trade every id-allocating coordinator makes.  A rejection the
    /// worker issues *before* touching the index
    /// ([`INSERT_REJECTED_UNAPPLIED`]) leaves the route where it was, so the
    /// next insert gets the ids this one would have had.
    fn insert(
        &self,
        name: &str,
        series: &str,
        rows: u64,
        timestamp: u64,
        deadline: Option<Duration>,
    ) -> PalmResponse {
        let mut routes = self.routes.lock();
        let Some(route) = routes.get_mut(name) else {
            return config_error(format!(
                "index '{name}' has no insert route; build it through the coordinator first"
            ));
        };
        let (base, shard) = (route.total_entries, route.next_shard);
        let mut frame = String::with_capacity(series.len() + name.len() + 128);
        frame.push_str("{\"type\":\"insert\",\"name\":");
        frame.push_str(&name.to_json().to_string());
        let _ = write!(frame, ",\"timestamp\":{timestamp},\"base_id\":{base}");
        if let Some(limit) = deadline {
            let _ = write!(frame, ",\"deadline_ms\":{}", deadline_ms(limit));
        }
        frame.push_str(",\"series\":");
        frame.push_str(series);
        frame.push('}');
        let outcome = self.shards[shard].execute_frame(&frame, deadline);
        // How many ids the outcome uses up, and what the client hears.
        let (burned, response) = match outcome {
            Ok(PalmResponse::Inserted { inserted, .. }) if inserted == rows => (
                rows,
                PalmResponse::Inserted {
                    name: name.to_string(),
                    inserted,
                    total: base + rows,
                },
            ),
            Ok(PalmResponse::Inserted { inserted, .. }) => (
                rows.max(inserted),
                self.unavailable(
                    shard,
                    &BackendError::Protocol(format!(
                        "shard applied {inserted} series of an insert of {rows}"
                    )),
                ),
            ),
            Ok(other) => {
                let unapplied = matches!(&other, PalmResponse::Error { kind, .. }
                    if INSERT_REJECTED_UNAPPLIED.contains(&kind.as_str()));
                (if unapplied { 0 } else { rows }, other)
            }
            Err(failure) => (rows, self.unavailable(shard, &failure)),
        };
        if burned > 0 {
            route.total_entries += burned;
            route.next_shard = (shard + 1) % self.shards.len();
        }
        response
    }

    /// An `insert` as it came off the wire: reads the envelope's small
    /// members, counts the rows of `series` and routes its text untouched.
    /// Mirrors what `PalmRequest::from_json` accepts, down to its messages;
    /// what the rows *hold* is for the shard to judge.
    fn insert_frame(
        &self,
        members: &[RawMember<'_>],
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, JsonError> {
        let required = |key: &str| {
            find(members, key).ok_or_else(|| JsonError::new(format!("missing field '{key}'")))
        };
        let name: String = decode(required("name")?)?;
        let series = required("series")?;
        let rows = series
            .elements
            .ok_or_else(|| JsonError::new("field 'series': expected an array"))?;
        let timestamp = match find(members, "timestamp") {
            Some(member) if member.raw != "null" => decode::<u64>(member)?,
            _ => 0,
        };
        if find(members, "base_id").is_some() {
            return Ok(base_id_error());
        }
        Ok(self.insert(&name, series.raw, rows as u64, timestamp, deadline))
    }

    /// Fleet metrics: entries and footprint sum, I/O sums field-wise,
    /// build time is the slowest shard's (they built concurrently).
    fn merge_metrics(parts: Vec<PalmResponse>) -> PalmResponse {
        let mut merged: Option<(String, BuildReport, u64)> = None;
        for part in parts {
            match part {
                PalmResponse::Metrics {
                    name,
                    report,
                    footprint_bytes,
                } => {
                    merged = Some(match merged {
                        None => (name, report, footprint_bytes),
                        Some((name, acc, footprint)) => (
                            name,
                            merge_build_reports(acc, &report),
                            footprint + footprint_bytes,
                        ),
                    });
                }
                other => return config_error(format!("shard answered non-metrics {other:?}")),
            }
        }
        let (name, report, footprint_bytes) = merged.expect("at least one shard");
        PalmResponse::Metrics {
            name,
            report,
            footprint_bytes,
        }
    }

    /// Fleet stats: counters sum field-wise; `indexes` is the max (every
    /// shard registers the same names); the coordinator's own shed count
    /// joins the fleet's.
    fn merge_stats(&self, parts: Vec<PalmResponse>) -> PalmResponse {
        let mut totals = [0u64; 13];
        let mut indexes = 0u64;
        for part in parts {
            match part {
                PalmResponse::Stats {
                    requests,
                    cache_hits,
                    cache_misses,
                    cache_entries,
                    shed,
                    deadline_exceeded,
                    indexes: shard_indexes,
                    planner_adaptive,
                    planner_fixed,
                    plans_parallel,
                    plans_sequential,
                    plans_read_ahead_off,
                    plans_chunked,
                } => {
                    for (slot, value) in totals.iter_mut().zip([
                        requests,
                        cache_hits,
                        cache_misses,
                        cache_entries,
                        shed,
                        deadline_exceeded,
                        0,
                        planner_adaptive,
                        planner_fixed,
                        plans_parallel,
                        plans_sequential,
                        plans_read_ahead_off,
                        plans_chunked,
                    ]) {
                        *slot += value;
                    }
                    indexes = indexes.max(shard_indexes);
                }
                other => return config_error(format!("shard answered non-stats {other:?}")),
            }
        }
        PalmResponse::Stats {
            requests: totals[0],
            cache_hits: totals[1],
            cache_misses: totals[2],
            cache_entries: totals[3],
            shed: totals[4] + self.shed.load(Ordering::Relaxed),
            deadline_exceeded: totals[5],
            indexes,
            planner_adaptive: totals[7],
            planner_fixed: totals[8],
            plans_parallel: totals[9],
            plans_sequential: totals[10],
            plans_read_ahead_off: totals[11],
            plans_chunked: totals[12],
        }
    }
}

/// `QueryCostJson` back to the engine's cost record (both are plain
/// field-for-field counters).
fn cost_from_json(cost: QueryCostJson) -> QueryCost {
    QueryCost {
        entries_examined: cost.entries_examined,
        entries_refined: cost.entries_refined,
        raw_fetches: cost.raw_fetches,
        blocks_skipped: cost.blocks_skipped,
        blocks_read: cost.blocks_read,
    }
}

/// The first member called `key` of a scanned envelope (what `Json::get`
/// finds in a parsed one).
fn find<'m, 'a>(members: &'m [RawMember<'a>], key: &str) -> Option<&'m RawMember<'a>> {
    members.iter().find(|m| m.key == key)
}

/// `coconut_json::member`'s conversion and message, over a scanned member.
fn decode<T: FromJson>(member: &RawMember<'_>) -> Result<T, JsonError> {
    member
        .decode()
        .map_err(|e| JsonError::new(format!("field '{}': {e}", member.key)))
}

fn base_id_error() -> PalmResponse {
    config_error("base_id is coordinator-internal; inserts are routed")
}

fn config_error(message: impl Into<String>) -> PalmResponse {
    PalmResponse::Error {
        kind: ERROR_KIND_CONFIG.to_string(),
        message: message.into(),
        partial_cost: None,
        retry_after_ms: None,
        shard_costs: None,
    }
}

/// Field-wise aggregation of two shards' build metrics: entries,
/// footprint and I/O sum; wall-clock is the slower build (they ran
/// concurrently).
fn merge_build_reports(mut acc: BuildReport, other: &BuildReport) -> BuildReport {
    acc.elapsed_ms = acc.elapsed_ms.max(other.elapsed_ms);
    acc.entries += other.entries;
    acc.footprint_bytes += other.footprint_bytes;
    acc.io.sequential_reads += other.io.sequential_reads;
    acc.io.random_reads += other.io.random_reads;
    acc.io.sequential_writes += other.io.sequential_writes;
    acc.io.random_writes += other.io.random_writes;
    acc.io.bytes_read += other.io.bytes_read;
    acc.io.bytes_written += other.io.bytes_written;
    acc
}

impl RequestHandler for Coordinator {
    /// Mirrors `PalmServer::handle_json_bytes`: parse, fold the
    /// protocol-level `deadline_ms` with the front-end's token, dispatch.
    fn handle_json_bytes(&self, request: Vec<u8>, cancel: &CancelToken) -> String {
        let malformed = |message: String| {
            PalmResponse::Error {
                kind: ERROR_KIND_MALFORMED.to_string(),
                message,
                partial_cost: None,
                retry_after_ms: None,
                shard_costs: None,
            }
            .to_json()
            .to_string()
        };
        let Ok(text) = String::from_utf8(request) else {
            return malformed("request is not valid UTF-8".to_string());
        };
        // The envelope only: an `insert` is routed without its floats ever
        // being decoded here, and a frame that is not one JSON object is
        // refused before any shard hears of it.
        let members = match scan_object(&text) {
            Ok(members) => members,
            Err(e) => return malformed(format!("malformed request: {e}")),
        };
        let request_deadline = match find(&members, "deadline_ms") {
            None => None,
            Some(value) => match value.decode::<f64>() {
                Ok(ms) if ms >= 0.0 => Some(Duration::from_millis(ms as u64)),
                _ => return malformed("deadline_ms must be a non-negative number".to_string()),
            },
        };
        // The tighter of the request's deadline and the front-end token's.
        let token_deadline = cancel
            .deadline()
            .map(|at| at.saturating_duration_since(Instant::now()));
        let deadline = match (request_deadline, token_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let is_insert = find(&members, "type")
            .is_some_and(|kind| kind.decode::<String>().as_deref() == Ok("insert"));
        let response = if is_insert {
            self.insert_frame(&members, deadline)
        } else {
            Json::parse(&text)
                .and_then(|json| PalmRequest::from_json(&json))
                .map(|request| self.handle_with_deadline(request, deadline))
        };
        match response {
            Ok(response) => response.to_json().to_string(),
            Err(e) => malformed(format!("malformed request: {e}")),
        }
    }

    fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// The shards own their indexes (and their own front-ends sync on
    /// shutdown); the coordinator itself has nothing durable.
    fn sync_all(&self) -> Result<usize, String> {
        Ok(0)
    }
}
