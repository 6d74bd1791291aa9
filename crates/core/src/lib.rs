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

pub use coconut_ads::{AdsConfig, AdsTree};
pub use coconut_clsm::{ClsmConfig, ClsmTree};
pub use coconut_ctree::engine::merge_topk;
pub use coconut_ctree::query::QueryCost;
pub use coconut_ctree::{check_finite, CTree, CTreeConfig, IndexError, Result};
pub use coconut_parallel::CancelToken;
pub use coconut_recommender::{recommend, DataArrival, Recommendation, Scenario, StructureKind};
pub use coconut_sax::SaxConfig;
pub use coconut_series::distance::Neighbor;
pub use coconut_series::{Dataset, Series, TimestampedSeries};
pub use coconut_storage::{
    IoBackend, IoStats, IoStatsSnapshot, PerfKnobs, ScratchDir, SharedIoStats,
};
pub use coconut_stream::{
    PartitionKind, PartitionedConfig, PartitionedStream, PpStream, StreamingIndex, WindowScheme,
};

coconut_json::wire! {
    /// The three index structure families of the Figure 1 matrix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum VariantKind names "the index variant" {
        /// ADS+-style baseline.
        Ads = "Ads",
        /// CoconutTree.
        CTree = "CTree",
        /// CoconutLSM.
        Clsm = "Clsm",
    }
    unknown: |name| Err(format!("unknown variant '{name}'"));
}

coconut_json::wire! {
    /// The `compression` member of `build_index`, whose one value is what
    /// every run is written as.  Kept only because palmbench names it; see
    /// ROADMAP 14(b).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Compression names "the compression scheme" {
        /// Whole rows, or heads and value tails in two files.
        #[default]
        Off = "off",
    }
    unknown: |name| match name.trim().to_ascii_lowercase().as_str() {
        "off" => Ok(Compression::Off),
        other => Err(format!("unknown compression '{other}' (expected 'off')")),
    };
}

coconut_json::wire! {
    /// The `planner` member of `build_index`: either name is read, and a
    /// build reads nothing of it.  Kept only because palmbench names it;
    /// see ROADMAP 14(b).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum PlannerMode names "the planner mode" {
        /// The name a frame leaves out.
        #[default]
        Fixed = "fixed",
        /// Builds and answers as `Fixed`.
        Adaptive = "adaptive",
    }
    unknown: |name| Err(format!(
        "unknown planner mode '{name}' (expected \"fixed\" or \"adaptive\")"
    ));
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
    /// Key-range shards per CLSM compaction (`1` = classic single-run
    /// merges).  Ignored by the other variants.
    pub shard_count: usize,
    /// The pure-performance knobs, handed whole to the variant's config
    /// (default [`PerfKnobs::default`]).  See DESIGN.md ("Performance
    /// knobs").
    pub knobs: PerfKnobs,
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
            shard_count: 1,
            knobs: PerfKnobs::default(),
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

    /// Returns `self`: a build runs on the caller's thread.  Kept only
    /// because palmbench names it; see ROADMAP 14(b).
    pub fn with_parallelism(self, _: usize) -> Self {
        self
    }

    /// Returns `self`: a query runs on the caller's thread.  Kept only
    /// because palmbench names it; see ROADMAP 14(b).
    pub fn with_query_parallelism(self, _: usize) -> Self {
        self
    }

    /// Sets the number of key-range shards per CLSM compaction.
    pub fn with_shard_count(mut self, shards: usize) -> Self {
        self.shard_count = shards.max(1);
        self
    }

    /// Enables or disables overlapped I/O ([`PerfKnobs::io_overlap`]).
    pub fn with_io_overlap(mut self, overlap: bool) -> Self {
        self.knobs.io_overlap = overlap;
        self
    }

    /// Selects the read backend ([`PerfKnobs::io_backend`]).
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.knobs.io_backend = backend;
        self
    }

    /// Returns `self`: every index merges and answers one way.  Kept only
    /// because palmbench names it; see ROADMAP 14(b).
    pub fn with_planner(self, _: PlannerMode) -> Self {
        self
    }

    /// Returns `self`: there is one run format.  Kept only because
    /// palmbench names it; see ROADMAP 14(b).
    pub fn with_compression(self, _: Compression) -> Self {
        self
    }

    /// The configuration a `build_index` request asks for over a dataset
    /// of `series_len`-long series: the request's variant, materialization
    /// and knobs, with the memory budget floored at 1 MiB.  `None` for any
    /// other request.  This is the one translation from the wire to a
    /// build; the server calls it for every `build_index`.
    pub fn for_build(request: &palm::PalmRequest, series_len: usize) -> Option<IndexConfig> {
        let palm::PalmRequest::BuildIndex {
            variant,
            materialized,
            memory_budget_bytes,
            shard_count,
            io_overlap,
            io_backend,
            ..
        } = *request
        else {
            return None;
        };
        Some(
            IndexConfig::new(variant, series_len)
                .materialized(materialized)
                .with_memory_budget(memory_budget_bytes.max(1 << 20))
                .with_shard_count(shard_count)
                .with_io_overlap(io_overlap)
                .with_io_backend(io_backend),
        )
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
            materialized: rec.materialized,
            fill_factor: rec.fill_factor,
            growth_factor: rec.growth_factor.max(2),
            ..IndexConfig::new(variant, series_len)
        }
    }
}

coconut_json::wire! {
    /// Metrics reported after building an index; the `report` object of the
    /// palm protocol.
    #[derive(Debug, Clone, Copy)]
    pub struct BuildReport {
        /// Wall-clock build time in milliseconds.
        pub elapsed_ms: f64,
        /// I/O performed during the build.
        pub io: IoStatsSnapshot [bare],
        /// Index footprint on disk in bytes.
        pub footprint_bytes: u64,
        /// Number of entries indexed.
        pub entries: u64,
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
                    .with_knobs(config.knobs);
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
                    .with_shard_count(config.shard_count)
                    .with_knobs(config.knobs)
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

    /// The query half of the admission rule
    /// ([`coconut_ctree::check_series`]): a query of the wrong length or
    /// with a non-finite value, or a `k` of zero, is a `Config` error, to
    /// be raised before any index work (the search paths assume all three).
    pub fn check_query(&self, query: &[f32], k: usize) -> Result<()> {
        let series_len = match self {
            StaticIndex::Ads(t) => t.config().sax.series_len,
            StaticIndex::CTree(t) => t.config().sax.series_len,
            StaticIndex::Clsm(t) => t.config().sax.series_len,
        };
        if k == 0 {
            return Err(IndexError::Config("k must be positive".into()));
        }
        coconut_ctree::check_series("query", query, series_len)
    }

    /// kNN query, exact or approximate.  Coconut variants poll `cancel`
    /// before each of the engine's phases; the ADS+ baseline (which does
    /// not go through the engine) only checks it up front.  On
    /// cancellation the query unwinds with `IndexError::Cancelled` carrying
    /// the partial cost; a token that never fires changes nothing.
    pub fn knn(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &CancelToken,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        match self {
            StaticIndex::Ads(t) => {
                if cancel.is_cancelled() {
                    return Err(IndexError::Cancelled {
                        partial_cost: QueryCost::default(),
                    });
                }
                t.knn(query, k, exact, None)
            }
            StaticIndex::CTree(t) => t.knn(query, k, exact, cancel),
            StaticIndex::Clsm(t) => t.knn(query, k, exact, None, cancel),
        }
    }

    /// [`StaticIndex::knn`], paired with nothing.  Kept only because
    /// palmbench names it; see ROADMAP 14(b).
    pub fn knn_planned(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &CancelToken,
    ) -> Result<((Vec<Neighbor>, QueryCost), ())> {
        Ok((self.knn(query, k, exact, cancel)?, ()))
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
    /// The pure-performance knobs, handed whole to the scheme's config
    /// (default [`PerfKnobs::default`]).  See DESIGN.md ("Performance
    /// knobs").
    pub knobs: PerfKnobs,
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
            knobs: PerfKnobs::default(),
        }
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
                        .with_knobs(config.knobs),
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
                .with_knobs(config.knobs);
            Ok(Box::new(PartitionedStream::temporal_partitioning(
                cfg, dir, stats,
            )?))
        }
        WindowScheme::BoundedTemporalPartitioning => {
            let cfg = PartitionedConfig::new(config.sax)
                .with_buffer_capacity(config.buffer_capacity)
                .with_growth_factor(config.growth_factor)
                .with_knobs(config.knobs);
            Ok(Box::new(PartitionedStream::bounded_temporal_partitioning(
                cfg, dir, stats,
            )?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_json::{FromJson, Json};
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
                let (nn, _) = index
                    .knn(&query.values, 1, true, &CancelToken::never())
                    .unwrap();
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

    /// Every entry point carries the one default, [`PerfKnobs::default`]:
    /// the engine configs, the facade configs and the wire's minimal
    /// `build_index` frame (the one palmbench sends).
    #[test]
    fn every_entry_point_pins_its_default_knobs() {
        let engine = PerfKnobs::default();
        let sax = SaxConfig::paper_default(64);
        assert_eq!(CTreeConfig::new(sax).knobs, engine);
        assert_eq!(ClsmConfig::new(sax).knobs, engine);
        assert_eq!(PartitionedConfig::new(sax).knobs, engine);
        assert_eq!(IndexConfig::new(VariantKind::Clsm, 64).knobs, engine);
        let rec = recommend(&Scenario::static_archive(10_000, 64));
        assert_eq!(IndexConfig::from_recommendation(&rec, 64).knobs, engine);
        let streaming = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        assert_eq!(streaming.knobs, engine);

        let frame = r#"{"type":"build_index","name":"w","dataset_path":"/d","variant":"CTree","materialized":false,"memory_budget_bytes":1048576}"#;
        let request = palm::PalmRequest::from_json(&Json::parse(frame).unwrap()).unwrap();
        let config = IndexConfig::for_build(&request, 64).expect("a build_index frame");
        assert_eq!(config.knobs, engine);
        assert_eq!(config.shard_count, 1);
        assert!(matches!(
            request,
            palm::PalmRequest::BuildIndex { range: None, .. }
        ));
    }

    /// The `planner` residue reads both names, refuses any other, and
    /// defaults to `fixed`.
    #[test]
    fn planner_mode_names_round_trip() {
        use coconut_json::ToJson;
        for (mode, name) in [
            (PlannerMode::Fixed, "fixed"),
            (PlannerMode::Adaptive, "adaptive"),
        ] {
            assert_eq!(mode.to_json(), Json::Str(name.to_string()));
            assert_eq!(PlannerMode::from_json(&mode.to_json()), Ok(mode));
        }
        assert!(PlannerMode::from_json(&Json::Str("greedy".to_string())).is_err());
        assert_eq!(PlannerMode::default(), PlannerMode::Fixed);
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
