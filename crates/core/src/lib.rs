//! # coconut-core
//!
//! The Coconut Palm facade: one entry point over the whole index variant
//! matrix of Figure 1, plus the recommender and the "algorithms server"
//! request/response layer the demo GUI talks to.
//!
//! * [`IndexConfig`] / [`StaticIndex`] — build and query any static variant
//!   (ADS+, CTree, CLSM; materialized or not) behind a single API, with
//!   uniform build/query metrics.
//! * [`streaming_index`] — instantiate any streaming variant (ADS+PP,
//!   CLSM+PP, TP with sorted or ADS partitions, CLSM-style BTP).
//! * [`palm`] — a JSON request/response layer mirroring the demo's
//!   client/server protocol (build an index, run queries, fetch metrics,
//!   consult the recommender).

pub mod backend;
pub mod palm;

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coconut_json::{member, FromJson, Json, JsonError, ToJson};

pub use coconut_ads::{AdsConfig, AdsTree};
pub use coconut_clsm::{ClsmConfig, ClsmTree};
pub use coconut_ctree::engine::merge_topk;
pub use coconut_ctree::planner::{
    self, PlanDecision, PlanReport, PlannedAnswer, PlannedBatch, PlannerInputs, PlannerMode,
};
pub use coconut_ctree::query::QueryCost;
pub use coconut_ctree::{CTree, CTreeConfig, IndexError, Result};
pub use coconut_parallel::CancelToken;
pub use coconut_recommender::{recommend, DataArrival, Recommendation, Scenario, StructureKind};
pub use coconut_sax::SaxConfig;
pub use coconut_series::distance::Neighbor;
pub use coconut_series::{Dataset, Series, TimestampedSeries};
pub use coconut_storage::{
    Compression, CostModel, IoBackend, IoStats, IoStatsSnapshot, ScratchDir, SharedIoStats,
};
pub use coconut_stream::{
    PartitionKind, PartitionedConfig, PartitionedStream, PpStream, StreamingIndex, WindowScheme,
};

/// The three index structure families of the Figure 1 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// ADS+-style baseline.
    Ads,
    /// CoconutTree.
    CTree,
    /// CoconutLSM.
    Clsm,
}

impl VariantKind {
    /// All variants, in the order used by reports.
    pub fn all() -> [VariantKind; 3] {
        [VariantKind::Ads, VariantKind::CTree, VariantKind::Clsm]
    }

    /// Display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            VariantKind::Ads => "ADS+",
            VariantKind::CTree => "CTree",
            VariantKind::Clsm => "CLSM",
        }
    }
}

/// Configuration of a static index variant.
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// Which structure family to build.
    pub variant: VariantKind,
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Whether the index embeds the full series (materialized).
    pub materialized: bool,
    /// CTree leaf fill factor.
    pub fill_factor: f64,
    /// CLSM growth factor.
    pub growth_factor: usize,
    /// Memory budget in bytes (external sort / buffers).
    pub memory_budget_bytes: usize,
    /// Worker threads used by the build pipeline (`1` = sequential, `0` =
    /// one per available core).  Results are identical at every setting;
    /// see DESIGN.md ("Threading model").
    pub parallelism: usize,
    /// Worker threads used by the query fan-out (`1` = sequential, `0` =
    /// one per available core).  Neighbours, distances, tie-breaking order
    /// and cost counters are identical at every setting; see DESIGN.md
    /// ("Query threading model").
    pub query_parallelism: usize,
    /// Key-range shards per CLSM compaction (`1` = classic single-run
    /// merges).  Ignored by the other variants.
    pub shard_count: usize,
    /// Overlap computation with I/O in the build pipeline (default `true`;
    /// `false` restores the strictly alternating sort-then-write pipeline).
    /// A pure performance knob: index files, query answers and `IoStats`
    /// totals are identical at either setting; see DESIGN.md ("I/O
    /// overlap").
    pub io_overlap: bool,
    /// Read backend for the index's run/leaf files (`pread` positioned
    /// reads, the default, or `mmap` read-only file mappings).  A pure
    /// performance knob: index files, answers, `QueryCost` and `IoStats`
    /// totals are identical at either setting; see DESIGN.md ("Read path
    /// backends").
    pub io_backend: IoBackend,
    /// Query planning mode (default `Adaptive`).  `Fixed` uses the knobs
    /// above verbatim; `Adaptive` lets the per-query cost-model planner
    /// pick fan-out, read-ahead gate and batch shape from observed state.
    /// Answers, `QueryCost` and `IoStats` are identical in both modes; see
    /// DESIGN.md ("Adaptive planning").
    pub planner: PlannerMode,
    /// Minimum contiguous byte range for which merge/compaction read-ahead
    /// engages (default `coconut_storage::PREFETCH_MIN_BYTES`; `usize::MAX`
    /// disables read-ahead).  A pure performance knob the adaptive planner
    /// also sets.
    pub prefetch_min_bytes: usize,
    /// On-disk compression of sorted runs and leaf blocks (default `off`).
    /// Answers, `QueryCost` and the logical `IoStats` view are identical at
    /// either setting; only physical bytes on disk and read shrink.  See
    /// DESIGN.md ("Compressed runs").
    pub compression: coconut_storage::Compression,
}

impl IndexConfig {
    /// Default configuration for a variant at a given series length.
    pub fn new(variant: VariantKind, series_len: usize) -> Self {
        IndexConfig {
            variant,
            sax: SaxConfig::paper_default(series_len),
            materialized: false,
            fill_factor: 1.0,
            growth_factor: 4,
            memory_budget_bytes: 32 << 20,
            parallelism: 1,
            query_parallelism: 1,
            shard_count: 1,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Adaptive,
            prefetch_min_bytes: coconut_storage::PREFETCH_MIN_BYTES,
            compression: coconut_storage::Compression::Off,
        }
    }

    /// Enables or disables materialization.
    pub fn materialized(mut self, yes: bool) -> Self {
        self.materialized = yes;
        self
    }

    /// Sets the memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Sets the build parallelism (`1` = sequential, `0` = all cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Sets the query fan-out parallelism (`1` = sequential, `0` = all
    /// cores).  A pure performance knob.
    pub fn with_query_parallelism(mut self, workers: usize) -> Self {
        self.query_parallelism = workers;
        self
    }

    /// Sets the number of key-range shards per CLSM compaction.
    pub fn with_shard_count(mut self, shards: usize) -> Self {
        self.shard_count = shards.max(1);
        self
    }

    /// Enables or disables overlapped build I/O (default on).  A pure
    /// performance knob; see DESIGN.md ("I/O overlap").
    pub fn with_io_overlap(mut self, overlap: bool) -> Self {
        self.io_overlap = overlap;
        self
    }

    /// Selects the read backend (default `pread`).  A pure performance
    /// knob; see DESIGN.md ("Read path backends").
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Selects the query planning mode (default `Adaptive`).  A pure
    /// performance knob; see DESIGN.md ("Adaptive planning").
    pub fn with_planner(mut self, mode: PlannerMode) -> Self {
        self.planner = mode;
        self
    }

    /// Sets the read-ahead engagement gate in bytes (`usize::MAX` disables
    /// read-ahead).  A pure performance knob.
    pub fn with_prefetch_min_bytes(mut self, bytes: usize) -> Self {
        self.prefetch_min_bytes = bytes;
        self
    }

    /// Selects the on-disk compression of sorted runs and leaf blocks
    /// (default `off`).  A pure performance knob; see DESIGN.md
    /// ("Compressed runs").
    pub fn with_compression(mut self, compression: coconut_storage::Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Display name like "CTreeFull" / "CTree" following Figure 1.
    pub fn display_name(&self) -> String {
        if self.materialized {
            format!("{}Full", self.variant.name())
        } else {
            self.variant.name().to_string()
        }
    }

    /// Builds a configuration from a recommender output.
    pub fn from_recommendation(rec: &Recommendation, series_len: usize) -> Self {
        let variant = match rec.structure {
            StructureKind::Ads => VariantKind::Ads,
            StructureKind::CTree => VariantKind::CTree,
            StructureKind::Clsm => VariantKind::Clsm,
        };
        IndexConfig {
            variant,
            sax: SaxConfig::paper_default(series_len),
            materialized: rec.materialized,
            fill_factor: rec.fill_factor,
            growth_factor: rec.growth_factor.max(2),
            memory_budget_bytes: 32 << 20,
            parallelism: 1,
            query_parallelism: 1,
            shard_count: 1,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Adaptive,
            prefetch_min_bytes: coconut_storage::PREFETCH_MIN_BYTES,
            compression: coconut_storage::Compression::Off,
        }
    }
}

impl ToJson for VariantKind {
    fn to_json(&self) -> Json {
        let name = match self {
            VariantKind::Ads => "Ads",
            VariantKind::CTree => "CTree",
            VariantKind::Clsm => "Clsm",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for VariantKind {
    fn from_json(json: &Json) -> coconut_json::Result<VariantKind> {
        match json.as_str() {
            Some("Ads") => Ok(VariantKind::Ads),
            Some("CTree") => Ok(VariantKind::CTree),
            Some("Clsm") => Ok(VariantKind::Clsm),
            Some(other) => Err(JsonError::new(format!("unknown variant '{other}'"))),
            None => Err(JsonError::new("expected a string for the index variant")),
        }
    }
}

/// Metrics reported after building an index.
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Wall-clock build time in milliseconds.
    pub elapsed_ms: f64,
    /// I/O performed during the build.
    pub io: IoStatsSnapshot,
    /// Index footprint on disk in bytes.
    pub footprint_bytes: u64,
    /// Number of entries indexed.
    pub entries: u64,
}

impl ToJson for BuildReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("elapsed_ms", self.elapsed_ms.to_json()),
            ("io", self.io.to_json()),
            ("footprint_bytes", self.footprint_bytes.to_json()),
            ("entries", self.entries.to_json()),
        ])
    }
}

impl FromJson for BuildReport {
    fn from_json(json: &Json) -> coconut_json::Result<BuildReport> {
        let io = json
            .get("io")
            .ok_or_else(|| JsonError::new("missing field 'io'"))?;
        Ok(BuildReport {
            elapsed_ms: member(json, "elapsed_ms")?,
            io: IoStatsSnapshot::from_json(io)?,
            footprint_bytes: member(json, "footprint_bytes")?,
            entries: member(json, "entries")?,
        })
    }
}

/// A built static index of any variant.
pub enum StaticIndex {
    /// ADS+-style baseline.
    Ads(AdsTree),
    /// CoconutTree.
    CTree(CTree),
    /// CoconutLSM.
    Clsm(ClsmTree),
}

impl StaticIndex {
    /// Builds the configured variant over `dataset`, storing index files in
    /// `dir` and charging I/O to `stats`.
    pub fn build(
        dataset: &Dataset,
        config: IndexConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<(StaticIndex, BuildReport)> {
        std::fs::create_dir_all(dir).map_err(coconut_storage::StorageError::from)?;
        let before = stats.snapshot();
        let start = Instant::now();
        let index = match config.variant {
            VariantKind::Ads => {
                let ads_config = AdsConfig::new(config.sax)
                    .materialized(config.materialized)
                    .with_buffer_capacity(
                        (config.memory_budget_bytes / (config.sax.series_len * 4 + 32)).max(64),
                    );
                StaticIndex::Ads(AdsTree::build(
                    dataset,
                    ads_config,
                    dir,
                    Arc::clone(&stats),
                )?)
            }
            VariantKind::CTree => {
                let ctree_config = CTreeConfig::new(config.sax)
                    .materialized(config.materialized)
                    .with_fill_factor(config.fill_factor)
                    .with_memory_budget(config.memory_budget_bytes)
                    .with_parallelism(config.parallelism)
                    .with_query_parallelism(config.query_parallelism)
                    .with_io_overlap(config.io_overlap)
                    .with_io_backend(config.io_backend)
                    .with_planner(config.planner)
                    .with_prefetch_min_bytes(config.prefetch_min_bytes)
                    .with_compression(config.compression);
                StaticIndex::CTree(CTree::build(
                    dataset,
                    ctree_config,
                    dir,
                    Arc::clone(&stats),
                )?)
            }
            VariantKind::Clsm => {
                let clsm_config = ClsmConfig::new(config.sax)
                    .materialized(config.materialized)
                    .with_growth_factor(config.growth_factor)
                    .with_parallelism(config.parallelism)
                    .with_query_parallelism(config.query_parallelism)
                    .with_shard_count(config.shard_count)
                    .with_io_overlap(config.io_overlap)
                    .with_io_backend(config.io_backend)
                    .with_planner(config.planner)
                    .with_prefetch_min_bytes(config.prefetch_min_bytes)
                    .with_compression(config.compression)
                    .with_buffer_capacity(
                        (config.memory_budget_bytes / (config.sax.series_len * 4 + 32)).max(64),
                    );
                StaticIndex::Clsm(ClsmTree::build(
                    dataset,
                    clsm_config,
                    dir,
                    Arc::clone(&stats),
                )?)
            }
        };
        let report = BuildReport {
            elapsed_ms: start.elapsed().as_secs_f64() * 1000.0,
            io: stats.snapshot().since(&before),
            footprint_bytes: index.footprint_bytes(),
            entries: index.len(),
        };
        Ok((index, report))
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        match self {
            StaticIndex::Ads(t) => t.len(),
            StaticIndex::CTree(t) => t.len(),
            StaticIndex::Clsm(t) => t.len(),
        }
    }

    /// Returns `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            StaticIndex::Ads(t) => t.footprint_bytes(),
            StaticIndex::CTree(t) => t.footprint_bytes(),
            StaticIndex::Clsm(t) => t.footprint_bytes(),
        }
    }

    /// Returns `true` when the index embeds full series values.  A
    /// non-materialized index refines candidates from the original dataset
    /// file, so series appended after the build (which that file does not
    /// contain) cannot be served by it.
    pub fn is_materialized(&self) -> bool {
        match self {
            StaticIndex::Ads(t) => t.config().materialized,
            StaticIndex::CTree(t) => t.config().materialized,
            StaticIndex::Clsm(t) => t.config().materialized,
        }
    }

    /// Approximate kNN query.
    pub fn approximate_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        match self {
            StaticIndex::Ads(t) => t.approximate_knn(query, k),
            StaticIndex::CTree(t) => t.approximate_knn(query, k),
            StaticIndex::Clsm(t) => t.approximate_knn(query, k),
        }
    }

    /// Exact kNN query.
    pub fn exact_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        match self {
            StaticIndex::Ads(t) => t.exact_knn(query, k),
            StaticIndex::CTree(t) => t.exact_knn(query, k),
            StaticIndex::Clsm(t) => t.exact_knn(query, k),
        }
    }

    /// Runs a batch of kNN queries, returning per-query `(neighbours,
    /// cost)` in query order.
    ///
    /// Coconut variants execute the whole batch through the engine's round
    /// pipeline (`coconut_ctree::engine::batch_knn`), reusing per-unit
    /// state across consecutive queries; the ADS+ baseline loops.  Either
    /// way every query's answers and `QueryCost` are bit-identical to
    /// issuing it alone via [`StaticIndex::exact_knn`] /
    /// [`StaticIndex::approximate_knn`].
    pub fn batch_knn(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
    ) -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        match self {
            StaticIndex::Ads(t) => queries
                .iter()
                .map(|q| {
                    if exact {
                        t.exact_knn(q, k)
                    } else {
                        t.approximate_knn(q, k)
                    }
                })
                .collect(),
            StaticIndex::CTree(t) => t.batch_knn(queries, k, exact),
            StaticIndex::Clsm(t) => t.batch_knn(queries, k, exact),
        }
    }

    /// Single kNN query with cooperative cancellation.
    ///
    /// Coconut variants poll the token at the engine's `SearchUnit` round
    /// boundaries; the ADS+ baseline (which does not go through the engine)
    /// only checks it up front.  When the token never fires, answers and
    /// `QueryCost` are bit-identical to [`StaticIndex::exact_knn`] /
    /// [`StaticIndex::approximate_knn`] — the cancellable path *is* the
    /// regular path plus pure reads of the token.  On cancellation the
    /// query unwinds with `IndexError::Cancelled` carrying the partial cost.
    pub fn knn_with(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        match self {
            StaticIndex::Ads(t) => {
                if cancel.is_cancelled() {
                    return Err(IndexError::Cancelled {
                        partial_cost: QueryCost::default(),
                    });
                }
                if exact {
                    t.exact_knn(query, k)
                } else {
                    t.approximate_knn(query, k)
                }
            }
            StaticIndex::CTree(t) => t.knn_with(query, k, exact, cancel),
            StaticIndex::Clsm(t) => t.knn_with(query, k, exact, cancel),
        }
    }

    /// [`StaticIndex::batch_knn`] with cooperative cancellation.  Coconut
    /// variants poll at the engine's round boundaries; the ADS+ loop checks
    /// between consecutive queries, accumulating the completed queries'
    /// costs into the `Cancelled` error.
    pub fn batch_knn_with(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        match self {
            StaticIndex::Ads(t) => {
                let mut out = Vec::with_capacity(queries.len());
                let mut partial_cost = QueryCost::default();
                for q in queries {
                    if cancel.is_cancelled() {
                        return Err(IndexError::Cancelled { partial_cost });
                    }
                    let result = if exact {
                        t.exact_knn(q, k)?
                    } else {
                        t.approximate_knn(q, k)?
                    };
                    partial_cost = partial_cost.plus(&result.1);
                    out.push(result);
                }
                Ok(out)
            }
            StaticIndex::CTree(t) => t.batch_knn_with(queries, k, exact, cancel),
            StaticIndex::Clsm(t) => t.batch_knn_with(queries, k, exact, cancel),
        }
    }

    /// Like [`StaticIndex::knn_with`], but routed through the per-query
    /// cost-model planner when the index was built with
    /// [`PlannerMode::Adaptive`]: the execution knobs come from a
    /// [`PlanReport`] captured for this query, returned alongside the
    /// answer.  In `Fixed` mode (and for the ADS+ baseline, which does not
    /// go through the engine) this is exactly `knn_with` and the report is
    /// `None`.  Answers and `QueryCost` are identical in both modes.
    pub fn knn_planned(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<PlannedAnswer> {
        match self {
            StaticIndex::Ads(_) => self.knn_with(query, k, exact, cancel).map(|r| (r, None)),
            StaticIndex::CTree(t) => t.knn_planned(query, k, exact, cancel),
            StaticIndex::Clsm(t) => t.knn_planned(query, k, exact, cancel),
        }
    }

    /// Like [`StaticIndex::batch_knn_with`], but routed through the
    /// per-query cost-model planner when the index was built with
    /// [`PlannerMode::Adaptive`] (one [`PlanReport`] covers the whole
    /// batch).  In `Fixed` mode (and for ADS+) this is exactly
    /// `batch_knn_with` and the report is `None`.  Answers and `QueryCost`
    /// are identical in both modes.
    pub fn batch_knn_planned(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<PlannedBatch> {
        match self {
            StaticIndex::Ads(_) => self
                .batch_knn_with(queries, k, exact, cancel)
                .map(|r| (r, None)),
            StaticIndex::CTree(t) => t.batch_knn_planned(queries, k, exact, cancel),
            StaticIndex::Clsm(t) => t.batch_knn_planned(queries, k, exact, cancel),
        }
    }

    /// Inserts a batch of new series (updates after the initial build).
    pub fn insert_batch(&mut self, series: &[Series], timestamp: u64) -> Result<()> {
        match self {
            StaticIndex::Ads(t) => t.insert_batch(series, timestamp),
            StaticIndex::CTree(t) => t.insert_batch(series, timestamp),
            StaticIndex::Clsm(t) => t.insert_batch(series, timestamp),
        }
    }

    /// The durability barrier.  Every buffered update is written out —
    /// pending CTree delta entries are merged into the contiguous leaf
    /// file, the CLSM write buffer is flushed into a run, ADS+ leaf buffers
    /// are written back and synced — and the call returns only once the
    /// durability worker has `fdatasync`'ed every run finished so far (and
    /// unlinked every merged-away one); a sync that failed in the background
    /// since the last barrier is returned here.  Used by the server's
    /// graceful shutdown; also a *write* from the cache's point of view
    /// (flushing can change the cost accounting of later queries), so
    /// callers holding the index behind a lock must invalidate cached
    /// answers afterwards.
    pub fn sync(&mut self) -> Result<()> {
        match self {
            StaticIndex::Ads(t) => t.flush_buffers()?,
            StaticIndex::CTree(t) => t.merge_delta()?,
            StaticIndex::Clsm(t) => t.flush()?,
        }
        Ok(coconut_storage::durability::drain()?)
    }
}

/// Configuration of a streaming index variant (structure + window scheme).
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Structure family used by the scheme (`Ads` or `Clsm` for PP; the
    /// partition kind for TP; BTP always uses sorted partitions).
    pub variant: VariantKind,
    /// Windowing scheme.
    pub scheme: WindowScheme,
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Buffer capacity in entries (partition size for TP/BTP).
    pub buffer_capacity: usize,
    /// Growth factor for CLSM / BTP merging.
    pub growth_factor: usize,
    /// Worker threads used when summarizing and flushing batches.
    pub parallelism: usize,
    /// Worker threads used by the query fan-out over partitions (`1` =
    /// sequential, `0` = one per available core).  A pure performance knob.
    pub query_parallelism: usize,
    /// Overlap computation with I/O during CLSM compactions and BTP
    /// partition merges (default `true`).  A pure performance knob; see
    /// DESIGN.md ("I/O overlap").
    pub io_overlap: bool,
    /// Read backend for runs and partitions (default `pread`).  A pure
    /// performance knob; see DESIGN.md ("Read path backends").
    pub io_backend: IoBackend,
    /// Query planning mode (default `Adaptive`).  A pure performance knob;
    /// see DESIGN.md ("Adaptive planning").
    pub planner: PlannerMode,
    /// Minimum contiguous byte range for which merge read-ahead engages
    /// (default `coconut_storage::PREFETCH_MIN_BYTES`).  A pure performance
    /// knob the adaptive planner also sets.
    pub prefetch_min_bytes: usize,
    /// On-disk compression of runs and partitions (default `off`).  A pure
    /// performance knob; see DESIGN.md ("Compressed runs").
    pub compression: coconut_storage::Compression,
}

impl StreamingConfig {
    /// Default streaming configuration.
    pub fn new(variant: VariantKind, scheme: WindowScheme, series_len: usize) -> Self {
        StreamingConfig {
            variant,
            scheme,
            sax: SaxConfig::paper_default(series_len),
            buffer_capacity: 1024,
            growth_factor: 3,
            parallelism: 1,
            query_parallelism: 1,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Adaptive,
            prefetch_min_bytes: coconut_storage::PREFETCH_MIN_BYTES,
            compression: coconut_storage::Compression::Off,
        }
    }

    /// Sets the ingest parallelism (`1` = sequential, `0` = all cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Sets the query fan-out parallelism (`1` = sequential, `0` = all
    /// cores).  A pure performance knob.
    pub fn with_query_parallelism(mut self, workers: usize) -> Self {
        self.query_parallelism = workers;
        self
    }

    /// Enables or disables overlapped merge I/O (default on).  A pure
    /// performance knob; see DESIGN.md ("I/O overlap").
    pub fn with_io_overlap(mut self, overlap: bool) -> Self {
        self.io_overlap = overlap;
        self
    }

    /// Selects the read backend (default `pread`).  A pure performance
    /// knob; see DESIGN.md ("Read path backends").
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Selects the query planning mode (default `Adaptive`).  A pure
    /// performance knob; see DESIGN.md ("Adaptive planning").
    pub fn with_planner(mut self, mode: PlannerMode) -> Self {
        self.planner = mode;
        self
    }

    /// Sets the read-ahead engagement gate in bytes (`usize::MAX` disables
    /// read-ahead).  A pure performance knob.
    pub fn with_prefetch_min_bytes(mut self, bytes: usize) -> Self {
        self.prefetch_min_bytes = bytes;
        self
    }

    /// Selects the on-disk compression of runs and partitions (default
    /// `off`).  A pure performance knob; see DESIGN.md ("Compressed runs").
    pub fn with_compression(mut self, compression: coconut_storage::Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Display name like "ADS+ PP", "CLSM BTP".
    pub fn display_name(&self) -> String {
        format!("{} {}", self.variant.name(), self.scheme.short_name())
    }
}

/// Instantiates a streaming index for the given configuration.
pub fn streaming_index(
    config: StreamingConfig,
    dir: &Path,
    stats: SharedIoStats,
) -> Result<Box<dyn StreamingIndex>> {
    std::fs::create_dir_all(dir).map_err(coconut_storage::StorageError::from)?;
    match config.scheme {
        WindowScheme::PostProcessing => match config.variant {
            VariantKind::Ads => {
                let ads = AdsTree::new(AdsConfig::new(config.sax).materialized(true), dir, stats)?;
                Ok(Box::new(PpStream::over_ads(ads)))
            }
            _ => {
                let clsm = ClsmTree::new(
                    ClsmConfig::new(config.sax)
                        .materialized(true)
                        .with_buffer_capacity(config.buffer_capacity)
                        .with_growth_factor(config.growth_factor)
                        .with_parallelism(config.parallelism)
                        .with_query_parallelism(config.query_parallelism)
                        .with_io_overlap(config.io_overlap)
                        .with_io_backend(config.io_backend)
                        .with_planner(config.planner)
                        .with_prefetch_min_bytes(config.prefetch_min_bytes)
                        .with_compression(config.compression),
                    dir,
                    stats,
                )?;
                Ok(Box::new(PpStream::over_clsm(clsm)))
            }
        },
        WindowScheme::TemporalPartitioning => {
            let kind = if config.variant == VariantKind::Ads {
                PartitionKind::Ads
            } else {
                PartitionKind::Sorted
            };
            let cfg = PartitionedConfig::new(config.sax)
                .with_buffer_capacity(config.buffer_capacity)
                .with_partition_kind(kind)
                .with_parallelism(config.parallelism)
                .with_query_parallelism(config.query_parallelism)
                .with_io_overlap(config.io_overlap)
                .with_io_backend(config.io_backend)
                .with_planner(config.planner)
                .with_prefetch_min_bytes(config.prefetch_min_bytes)
                .with_compression(config.compression);
            Ok(Box::new(PartitionedStream::temporal_partitioning(
                cfg, dir, stats,
            )?))
        }
        WindowScheme::BoundedTemporalPartitioning => {
            let cfg = PartitionedConfig::new(config.sax)
                .with_buffer_capacity(config.buffer_capacity)
                .with_growth_factor(config.growth_factor)
                .with_parallelism(config.parallelism)
                .with_query_parallelism(config.query_parallelism)
                .with_io_overlap(config.io_overlap)
                .with_io_backend(config.io_backend)
                .with_planner(config.planner)
                .with_prefetch_min_bytes(config.prefetch_min_bytes)
                .with_compression(config.compression);
            Ok(Box::new(PartitionedStream::bounded_temporal_partitioning(
                cfg, dir, stats,
            )?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

    fn dataset(dir: &ScratchDir, n: usize, len: usize, seed: u64) -> (Vec<Series>, Dataset) {
        let mut gen = RandomWalkGenerator::new(len, seed);
        let series = gen.generate(n);
        let ds = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        (series, ds)
    }

    #[test]
    fn every_static_variant_builds_and_agrees_on_exact_answers() {
        let dir = ScratchDir::new("core-matrix").unwrap();
        let (series, ds) = dataset(&dir, 300, 64, 1);
        let mut gen = RandomWalkGenerator::new(64, 50);
        let query = gen.next_series();
        let mut distances = Vec::new();
        for variant in VariantKind::all() {
            for materialized in [false, true] {
                let config = IndexConfig::new(variant, 64).materialized(materialized);
                let stats = IoStats::shared();
                let subdir = dir.file(&format!("{}-{}", config.display_name(), materialized));
                let (index, report) =
                    StaticIndex::build(&ds, config, &subdir, Arc::clone(&stats)).unwrap();
                assert_eq!(index.len(), series.len() as u64);
                assert!(report.footprint_bytes > 0);
                let (nn, _) = index.exact_knn(&query.values, 1).unwrap();
                distances.push(nn[0].squared_distance);
            }
        }
        // Every variant must return the same exact nearest-neighbour distance.
        for d in &distances {
            assert!((d - distances[0]).abs() < 1e-6);
        }
    }

    #[test]
    fn display_names_follow_figure_1() {
        assert_eq!(
            IndexConfig::new(VariantKind::CTree, 64).display_name(),
            "CTree"
        );
        assert_eq!(
            IndexConfig::new(VariantKind::Ads, 64)
                .materialized(true)
                .display_name(),
            "ADS+Full"
        );
        let sc = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        assert_eq!(sc.display_name(), "CLSM BTP");
    }

    #[test]
    fn recommendation_translates_to_config() {
        let rec = recommend(&Scenario::streaming(10_000, 64));
        let config = IndexConfig::from_recommendation(&rec, 64);
        assert_eq!(config.variant, VariantKind::Clsm);
        let rec = recommend(&Scenario::static_archive(10_000, 64));
        let config = IndexConfig::from_recommendation(&rec, 64);
        assert_eq!(config.variant, VariantKind::CTree);
    }

    #[test]
    fn streaming_variants_ingest_and_answer_window_queries() {
        let dir = ScratchDir::new("core-stream").unwrap();
        let mut gen = coconut_series::generator::SeismicStreamGenerator::new(64, 3, 0.1);
        let batches: Vec<_> = (0..6).map(|_| gen.next_batch(40)).collect();
        let query = gen.quake_template();
        let configs = [
            StreamingConfig::new(VariantKind::Ads, WindowScheme::PostProcessing, 64),
            StreamingConfig::new(VariantKind::Clsm, WindowScheme::PostProcessing, 64),
            StreamingConfig::new(VariantKind::CTree, WindowScheme::TemporalPartitioning, 64),
            StreamingConfig::new(
                VariantKind::Clsm,
                WindowScheme::BoundedTemporalPartitioning,
                64,
            ),
        ];
        let mut results = Vec::new();
        for (i, cfg) in configs.iter().enumerate() {
            let mut cfg = *cfg;
            cfg.buffer_capacity = 40;
            let stats = IoStats::shared();
            let mut index = streaming_index(cfg, &dir.file(&format!("s{i}")), stats).unwrap();
            for b in &batches {
                index.ingest_batch(b).unwrap();
            }
            assert_eq!(index.len(), 240);
            let r = index
                .query_window(&query, 1, Some((100, 200)), true)
                .unwrap();
            assert_eq!(r.neighbors.len(), 1);
            results.push(r.neighbors[0].squared_distance);
        }
        for d in &results {
            assert!((d - results[0]).abs() < 1e-6, "streaming variants disagree");
        }
    }
}
