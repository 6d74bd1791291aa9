//! The CoconutTree (CTree) index.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::kernels::euclidean_early_abandon;
use coconut_parallel::effective_parallelism;
use coconut_sax::{SaxConfig, SortableSummarizer};
use coconut_series::dataset::Dataset;
use coconut_series::distance::Neighbor;
use coconut_series::{Series, Timestamp};
use coconut_storage::dynsort::DynExternalSorter;
use coconut_storage::iostats::{IoStatsSnapshot, SharedIoStats};
use coconut_storage::page::DEFAULT_PAGE_SIZE;
use coconut_storage::IoBackend;

use crate::entry::{EntryLayout, SeriesEntry};
use crate::planner::{self, PlannedAnswer, PlannedBatch, PlannerInputs, PlannerMode};
use crate::query::{KnnHeap, QueryContext, QueryCost};
use crate::raw::RawSeriesSource;
use crate::sorted_file::SortedSeriesFile;
use crate::{IndexError, Result};

/// Configuration of a CoconutTree.
#[derive(Debug, Clone, Copy)]
pub struct CTreeConfig {
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Whether the index embeds full series values (materialized) or only
    /// summarizations + pointers into the raw data file.
    pub materialized: bool,
    /// Leaf fill factor in `(0, 1]`: the fraction of each leaf block filled
    /// at bulk-load time.  Lower values leave slack that absorbs later
    /// inserts before a merge is needed, at the cost of a larger index.
    pub fill_factor: f64,
    /// Nominal leaf block size in bytes.
    pub leaf_block_bytes: usize,
    /// Memory budget for external sorting during construction (bytes).
    pub memory_budget_bytes: usize,
    /// Page size used for I/O accounting.
    pub page_size: usize,
    /// Worker threads for summarization and run-generation sorting during
    /// bulk load (`1` = sequential, `0` = one per available core).  The
    /// produced index is byte-identical at every setting.
    pub parallelism: usize,
    /// Worker threads for query fan-out (`1` = sequential, `0` = one per
    /// available core).  Results and cost counters are identical at every
    /// setting; see `crate::engine`.
    pub query_parallelism: usize,
    /// Overlap computation with I/O during bulk load and delta merges
    /// (default `true`): run generation double-buffers through a dedicated
    /// writer worker and merge readers prefetch.  A pure performance knob —
    /// the index files, query answers and `IoStats` totals are identical at
    /// either setting; see
    /// `coconut_storage::ExternalSortConfig::io_overlap`.
    pub io_overlap: bool,
    /// Read backend for the leaf level and the sort's spill runs (default
    /// `pread`; `mmap` serves block scans from a read-only file mapping).
    /// A pure performance knob — the index files, answers, `QueryCost` and
    /// `IoStats` totals are identical at either setting; see
    /// `coconut_storage::IoBackend`.
    pub io_backend: IoBackend,
    /// Query planning mode (default [`PlannerMode::Fixed`]).  `Fixed` uses
    /// the knobs above verbatim; `Adaptive` lets the per-query cost-model
    /// planner override the pure performance knobs (fan-out, read-ahead
    /// gate, batch shape) from observed state.  Answers, `QueryCost` and
    /// `IoStats` are identical in both modes; see `crate::planner`.
    pub planner: PlannerMode,
    /// Minimum contiguous byte range for which read-ahead engages on delta
    /// merges (default `coconut_storage::PREFETCH_MIN_BYTES`;
    /// `usize::MAX` disables read-ahead).  A pure performance knob.
    pub prefetch_min_bytes: usize,
    /// On-disk compression of the leaf level and the sort's spill runs
    /// (default `off`).  `prefix` front-codes the sorted invSAX keys and
    /// delta-codes ids/timestamps into ~4 KiB blocks.  Answers,
    /// `QueryCost` and the logical `IoStats` view are identical at either
    /// setting; only the physical bytes (and the on-disk footprint the
    /// adaptive planner sees) shrink.  See `coconut_storage::Compression`.
    pub compression: coconut_storage::Compression,
}

impl CTreeConfig {
    /// A reasonable default configuration for the given summarization.
    pub fn new(sax: SaxConfig) -> Self {
        CTreeConfig {
            sax,
            materialized: false,
            fill_factor: 1.0,
            leaf_block_bytes: 16 * 1024,
            memory_budget_bytes: 32 << 20,
            page_size: DEFAULT_PAGE_SIZE,
            parallelism: 1,
            query_parallelism: 1,
            io_overlap: true,
            io_backend: IoBackend::Pread,
            planner: PlannerMode::Fixed,
            prefetch_min_bytes: coconut_storage::PREFETCH_MIN_BYTES,
            compression: coconut_storage::Compression::Off,
        }
    }

    /// Enables materialization.
    pub fn materialized(mut self, yes: bool) -> Self {
        self.materialized = yes;
        self
    }

    /// Sets the leaf fill factor.
    pub fn with_fill_factor(mut self, fill_factor: f64) -> Self {
        assert!(fill_factor > 0.0 && fill_factor <= 1.0);
        self.fill_factor = fill_factor;
        self
    }

    /// Sets the external-sort memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = bytes.max(1024);
        self
    }

    /// Sets the bulk-load parallelism (`1` = sequential, `0` = all cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Sets the query fan-out parallelism (`1` = sequential, `0` = all
    /// cores).  A pure performance knob: answers and cost are identical at
    /// every setting.
    pub fn with_query_parallelism(mut self, workers: usize) -> Self {
        self.query_parallelism = workers;
        self
    }

    /// Enables or disables overlapped build I/O (default on).  A pure
    /// performance knob; see [`CTreeConfig::io_overlap`].
    pub fn with_io_overlap(mut self, overlap: bool) -> Self {
        self.io_overlap = overlap;
        self
    }

    /// Selects the read backend (default `pread`).  A pure performance
    /// knob; see [`CTreeConfig::io_backend`].
    pub fn with_io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Selects the query planning mode (default `Fixed`).  A pure
    /// performance knob; see [`CTreeConfig::planner`].
    pub fn with_planner(mut self, mode: PlannerMode) -> Self {
        self.planner = mode;
        self
    }

    /// Sets the read-ahead engagement gate for delta merges in bytes
    /// (`usize::MAX` disables read-ahead).  A pure performance knob; see
    /// [`CTreeConfig::prefetch_min_bytes`].
    pub fn with_prefetch_min_bytes(mut self, bytes: usize) -> Self {
        self.prefetch_min_bytes = bytes;
        self
    }

    /// Selects the on-disk compression (default `off`).  Answers, costs
    /// and the logical `IoStats` view are identical either way; see
    /// [`CTreeConfig::compression`].
    pub fn with_compression(mut self, compression: coconut_storage::Compression) -> Self {
        self.compression = compression;
        self
    }

    /// The entry layout implied by this configuration.
    pub fn layout(&self) -> EntryLayout {
        if self.materialized {
            EntryLayout::materialized(self.sax.key_bits(), self.sax.series_len)
        } else {
            EntryLayout::non_materialized(self.sax.key_bits())
        }
    }

    /// Number of entries stored per leaf block at bulk-load time.
    pub fn entries_per_block(&self) -> usize {
        let entry_size = coconut_storage::RecordLayout::record_size(&self.layout());
        let full = (self.leaf_block_bytes / entry_size).max(1);
        ((full as f64 * self.fill_factor).floor() as usize).max(1)
    }
}

/// Statistics collected while building an index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Wall-clock build time.
    pub elapsed: Duration,
    /// I/O performed during the build.
    pub io: IoStatsSnapshot,
    /// Number of external-sort spill runs generated (0 = in-memory sort).
    pub sort_runs: usize,
    /// Index footprint on disk in bytes.
    pub footprint_bytes: u64,
    /// Number of entries indexed.
    pub entries: u64,
}

/// The CoconutTree: a compact, contiguous, bulk-loaded data series index.
pub struct CTree {
    config: CTreeConfig,
    summarizer: SortableSummarizer,
    file: SortedSeriesFile,
    raw: Option<RawSeriesSource>,
    stats: SharedIoStats,
    dir: PathBuf,
    build_stats: BuildStats,
    /// Delta inserts awaiting the next merge (kept sorted lazily).
    delta: Vec<SeriesEntry>,
    /// Maximum delta entries before a merge is triggered, derived from the
    /// fill-factor slack.
    delta_capacity: usize,
    generation: u64,
    /// Number of delta merges performed so far.
    pub merges: u64,
}

impl Drop for CTree {
    /// Waits for the durability worker, so no queued sync or unlink of this
    /// tree's files outlives it (a later index may reuse the directory).  A
    /// failed sync stays with the worker for the next caller that can
    /// return it.
    fn drop(&mut self) {
        coconut_storage::durability::wait_idle();
    }
}

impl std::fmt::Debug for CTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CTree")
            .field("entries", &self.len())
            .field("materialized", &self.config.materialized)
            .field("fill_factor", &self.config.fill_factor)
            .finish()
    }
}

impl CTree {
    /// Bulk-loads a CTree from every series in `dataset`, storing the index
    /// files in `dir` and charging all I/O to `stats`.
    pub fn build(
        dataset: &Dataset,
        config: CTreeConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<CTree> {
        if dataset.series_len() != config.sax.series_len {
            return Err(IndexError::Config(format!(
                "dataset series length {} does not match SAX config {}",
                dataset.series_len(),
                config.sax.series_len
            )));
        }
        let start = Instant::now();
        let before = stats.snapshot();
        let summarizer = SortableSummarizer::new(config.sax);
        let layout = config.layout();

        // Pass 1: sequential scan of the raw data file, summarizing series
        // into entries in parallel batches (timestamp 0 for static
        // datasets).  The staging batch is capped at an eighth of the sort
        // budget (series + entries are alive together during a refill, so
        // the stage contributes at most ~a quarter of the budget on top of
        // the sorter's own half-budget chunk).
        let materialized = config.materialized;
        let batch_records = (config.memory_budget_bytes
            / 8
            / coconut_storage::RecordLayout::record_size(&layout).max(1))
        .clamp(256, 1 << 16);
        let mut entries = BatchedEntryIter::new(
            dataset.iter()?,
            &summarizer,
            materialized,
            config.parallelism,
            batch_records,
        );

        // Pass 2: bounded-memory external sort by interleaved key, with
        // run-generation chunks sorted by the same worker pool.
        let mut sorter =
            DynExternalSorter::new(layout, config.memory_budget_bytes, dir, Arc::clone(&stats))
                .with_page_size(config.page_size)
                .with_parallelism(config.parallelism)
                .with_io_overlap(config.io_overlap)
                .with_io_backend(config.io_backend)
                .with_compression(config.compression)
                .with_prefetch_min_bytes(config.prefetch_min_bytes);
        let sorted = sorter.sort(&mut entries)?;
        if let Some(err) = entries.error.take() {
            return Err(err);
        }
        let sort_runs = sorted.runs_generated;

        // Pass 3: pack the sorted stream into contiguous leaf blocks.
        let file = SortedSeriesFile::build_from_sorted_compressed(
            dir.join("ctree-leaves.run"),
            layout,
            config.sax,
            sorted.map(|r| r.map_err(IndexError::from)),
            config.entries_per_block(),
            Arc::clone(&stats),
            config.page_size,
            config.io_backend,
            config.compression,
        )?;

        let entries_count = file.len();
        let footprint = file.physical_byte_size();
        let delta_capacity = Self::delta_capacity_for(&config, entries_count);
        let build_stats = BuildStats {
            elapsed: start.elapsed(),
            io: stats.snapshot().since(&before),
            sort_runs,
            footprint_bytes: footprint,
            entries: entries_count,
        };
        Ok(CTree {
            config,
            summarizer,
            file,
            raw: if materialized {
                None
            } else {
                // Raw-series refinement fetches flow through the same
                // io_backend knob as the index's own files.
                Some(RawSeriesSource::new(dataset.reopen()?, config.io_backend)?)
            },
            stats,
            dir: dir.to_path_buf(),
            build_stats,
            delta: Vec::new(),
            delta_capacity,
            generation: 0,
            merges: 0,
        })
    }

    /// Builds a CTree directly from in-memory series (convenience used by
    /// tests, examples and the streaming partitions).  Non-materialized
    /// configurations additionally write the raw data file into `dir`.
    pub fn build_from_series(
        series: &[Series],
        config: CTreeConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<CTree> {
        let dataset = Dataset::create_from_series(dir.join("ctree-raw.bin"), series)?;
        Self::build(&dataset, config, dir, stats)
    }

    fn delta_capacity_for(config: &CTreeConfig, entries: u64) -> usize {
        let slack = (1.0 - config.fill_factor).max(0.0);
        ((entries as f64 * slack) as usize).max(64)
    }

    /// Configuration the tree was built with.
    pub fn config(&self) -> &CTreeConfig {
        &self.config
    }

    /// Number of indexed entries (including un-merged delta inserts).
    pub fn len(&self) -> u64 {
        self.file.len() + self.delta.len() as u64
    }

    /// Returns `true` when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint of the index in bytes — the *physical* size, so
    /// compressed trees report (and the adaptive planner's residency test
    /// sees) their real, smaller working set.  Equals the logical size when
    /// compression is off.
    pub fn footprint_bytes(&self) -> u64 {
        self.file.physical_byte_size()
    }

    /// Build statistics.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// The shared I/O statistics handle.
    pub fn io_stats(&self) -> &SharedIoStats {
        &self.stats
    }

    /// Number of leaf blocks.
    pub fn num_blocks(&self) -> usize {
        self.file.blocks().len()
    }

    /// The sorted leaf level.
    pub fn leaf_file(&self) -> &SortedSeriesFile {
        &self.file
    }

    fn query_context(&self) -> QueryContext<'_> {
        match &self.raw {
            Some(raw) => QueryContext::non_materialized(raw, Arc::clone(&self.stats)),
            None => QueryContext::materialized(),
        }
    }

    fn query_units(&self, window: Option<(Timestamp, Timestamp)>) -> Vec<CTreeUnit<'_>> {
        let mut units = vec![CTreeUnit {
            tree: self,
            window,
            part: CTreePart::Leaves,
        }];
        if !self.delta.is_empty() {
            units.push(CTreeUnit {
                tree: self,
                window,
                part: CTreePart::Delta,
            });
        }
        units
    }

    /// Captures a deterministic snapshot of the observed state the planner
    /// decides from.  Every field is an integer read at capture time; the
    /// decision itself is the pure function `crate::planner::plan`.
    fn planner_inputs(&self, k: usize, batch_width: usize, exact: bool) -> PlannerInputs {
        let probe = planner::host_probe();
        let snap = self.stats.snapshot();
        PlannerInputs {
            footprint_bytes: self.footprint_bytes(),
            cache_budget_bytes: probe.cache_budget_bytes,
            unit_count: self.query_units(None).len(),
            run_count: 1,
            cores: probe.cores,
            k,
            batch_width,
            exact,
            random_read_permille: planner::read_permille(&snap),
        }
    }

    /// The read-ahead gate a delta merge should use: the configured value in
    /// `Fixed` mode, or the planner's choice from a fresh state snapshot in
    /// `Adaptive` mode.
    fn merge_prefetch_gate(&self) -> usize {
        match self.config.planner {
            PlannerMode::Fixed => self.config.prefetch_min_bytes,
            PlannerMode::Adaptive => {
                planner::plan(&self.planner_inputs(0, 1, true)).effective_prefetch_gate()
            }
        }
    }

    /// Like [`CTree::knn_with`], but routed through the query planner when
    /// the config selects [`PlannerMode::Adaptive`]: the fan-out knob comes
    /// from a [`planner::PlanReport`] captured for this query, returned alongside the
    /// answer.  In `Fixed` mode this is exactly `knn_with` (byte-identical
    /// path) and the report is `None`.  Answers and cost are identical in
    /// both modes.
    pub fn knn_planned(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<PlannedAnswer> {
        match self.config.planner {
            PlannerMode::Fixed => self.knn_with(query, k, exact, cancel).map(|r| (r, None)),
            PlannerMode::Adaptive => {
                let report = planner::plan_report(self.planner_inputs(k, 1, exact));
                let units = self.query_units(None);
                let answer = crate::engine::parallel_knn_with(
                    &units,
                    query,
                    k,
                    report.decision.query_parallelism,
                    exact,
                    cancel,
                )?;
                Ok((answer, Some(report)))
            }
        }
    }

    /// Like [`CTree::batch_knn_with`], but routed through the query planner
    /// when the config selects [`PlannerMode::Adaptive`]: fan-out and batch
    /// round shape come from a [`planner::PlanReport`] captured for this batch.  In
    /// `Fixed` mode this is exactly `batch_knn_with` and the report is
    /// `None`.  Answers and cost are identical in both modes.
    pub fn batch_knn_planned(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<PlannedBatch> {
        match self.config.planner {
            PlannerMode::Fixed => self
                .batch_knn_with(queries, k, exact, cancel)
                .map(|r| (r, None)),
            PlannerMode::Adaptive => {
                let report = planner::plan_report(self.planner_inputs(k, queries.len(), exact));
                let units = self.query_units(None);
                let answers = crate::engine::batch_knn_chunked(
                    &units,
                    queries,
                    k,
                    report.decision.query_parallelism,
                    exact,
                    report.decision.batch_chunk,
                    cancel,
                )?;
                Ok((answers, Some(report)))
            }
        }
    }

    fn search_delta(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        window: Option<(Timestamp, Timestamp)>,
    ) {
        for entry in &self.delta {
            if let Some((start, end)) = window {
                if entry.timestamp < start || entry.timestamp > end {
                    continue;
                }
            }
            if entry.is_materialized() {
                if let Some(d) = euclidean_early_abandon(query, &entry.values, heap.bound()) {
                    heap.offer_at(entry.id, entry.timestamp, d);
                }
            }
        }
    }

    /// Approximate kNN search.
    pub fn approximate_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        self.approximate_knn_window(query, k, None)
    }

    /// Approximate kNN search restricted to a timestamp window.
    pub fn approximate_knn_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        let units = self.query_units(window);
        crate::engine::parallel_knn(&units, query, k, self.config.query_parallelism, false)
    }

    /// Exact kNN search.
    pub fn exact_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        self.exact_knn_window(query, k, None)
    }

    /// Exact kNN search restricted to a timestamp window.
    pub fn exact_knn_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        let units = self.query_units(window);
        crate::engine::parallel_knn(&units, query, k, self.config.query_parallelism, true)
    }

    /// Runs a batch of kNN queries through the engine's round pipeline.
    ///
    /// Every query's answers and `QueryCost` are bit-identical to issuing
    /// it alone via [`CTree::exact_knn`] / [`CTree::approximate_knn`], and
    /// so is the per-file `IoStats` accounting; see `crate::engine`.
    pub fn batch_knn(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
    ) -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        self.batch_knn_window(queries, k, None, exact)
    }

    /// Like [`CTree::batch_knn`], restricted to a timestamp window.
    pub fn batch_knn_window(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
        exact: bool,
    ) -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        let units = self.query_units(window);
        crate::engine::batch_knn(&units, queries, k, self.config.query_parallelism, exact)
    }

    /// Single kNN query with cooperative cancellation: a batch of one run
    /// through the engine, polling `cancel` at its round boundaries.
    /// Answers and cost are bit-identical to [`CTree::exact_knn`] /
    /// [`CTree::approximate_knn`] when the token never fires; on
    /// cancellation the query unwinds with
    /// [`IndexError::Cancelled`] carrying the
    /// partial cost.
    pub fn knn_with(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        let units = self.query_units(None);
        crate::engine::parallel_knn_with(
            &units,
            query,
            k,
            self.config.query_parallelism,
            exact,
            cancel,
        )
    }

    /// [`CTree::batch_knn`] with cooperative cancellation (polled at the
    /// engine's round boundaries).
    pub fn batch_knn_with(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        exact: bool,
        cancel: &coconut_parallel::CancelToken,
    ) -> Result<Vec<(Vec<Neighbor>, QueryCost)>> {
        let units = self.query_units(None);
        crate::engine::batch_knn_with(
            &units,
            queries,
            k,
            self.config.query_parallelism,
            exact,
            cancel,
        )
    }

    /// Inserts a batch of new series (delta inserts).  Materialized trees
    /// keep the values in the delta; non-materialized trees only keep the
    /// summarization and expect the series to also exist in the raw dataset.
    ///
    /// When the delta exceeds the fill-factor slack, the delta is sort-merged
    /// into the contiguous leaf level (a sequential rebuild), mirroring how
    /// the paper describes CTree absorbing updates.
    pub fn insert_batch(&mut self, series: &[Series], timestamp: Timestamp) -> Result<()> {
        for s in series {
            if s.len() != self.config.sax.series_len {
                return Err(IndexError::Config(format!(
                    "inserted series length {} does not match index ({})",
                    s.len(),
                    self.config.sax.series_len
                )));
            }
        }
        // Delta entries are always materialized in memory so that queries
        // can refine them without the raw file.
        self.delta.extend(SeriesEntry::from_series_batch(
            series,
            timestamp,
            &self.summarizer,
            true,
            self.config.parallelism,
        ));
        if self.delta.len() > self.delta_capacity {
            self.merge_delta()?;
        }
        Ok(())
    }

    /// Forces the delta to be merged into the contiguous leaf level.
    pub fn merge_delta(&mut self) -> Result<()> {
        if self.delta.is_empty() {
            return Ok(());
        }
        let mut delta = std::mem::take(&mut self.delta);
        if !self.config.materialized {
            // The leaf layout stores no values; strip them from the delta.
            for e in delta.iter_mut() {
                e.values = Vec::new();
            }
        }
        delta.sort_by_key(|e| (e.key, e.id));
        let mut delta_iter = delta.into_iter().peekable();
        // The old leaf level is drained front to back while the merged level
        // is written: read ahead so the next leaf buffer loads while the
        // current one interleaves with the delta.
        let mut file_iter = self
            .file
            .reader_with_prefetch_gate(
                self.config.entries_per_block(),
                self.config.io_overlap,
                self.merge_prefetch_gate(),
            )
            .map(|r| r.map_err(IndexError::from))
            .peekable();
        self.generation += 1;
        let path = self
            .dir
            .join(format!("ctree-leaves-{}.run", self.generation));
        let layout = self.config.layout();
        let sax = self.config.sax;
        let merged = std::iter::from_fn(move || -> Option<Result<SeriesEntry>> {
            let take_delta = match (delta_iter.peek(), file_iter.peek()) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(d), Some(Ok(f))) => (d.key, d.id) <= (f.key, f.id),
                (Some(_), Some(Err(_))) => false,
            };
            if take_delta {
                delta_iter.next().map(Ok)
            } else {
                file_iter.next()
            }
        });
        let new_file = SortedSeriesFile::build_from_sorted_compressed(
            path,
            layout,
            sax,
            merged,
            self.config.entries_per_block(),
            Arc::clone(&self.stats),
            self.config.page_size,
            self.config.io_backend,
            self.config.compression,
        )?;
        let old = std::mem::replace(&mut self.file, new_file);
        self.delta_capacity = Self::delta_capacity_for(&self.config, self.file.len());
        self.merges += 1;
        SortedSeriesFile::replace(&[&self.file], vec![old])
    }

    /// Number of delta entries not yet merged.
    pub fn pending_delta(&self) -> usize {
        self.delta.len()
    }
}

#[derive(Clone, Copy)]
enum CTreePart {
    /// The contiguous leaf level.
    Leaves,
    /// The in-memory delta (always materialized).
    Delta,
}

/// One independently searchable piece of a CTree for the concurrent query
/// engine: the contiguous leaf level or the in-memory delta.  The query is
/// supplied per search call so one unit list serves a whole batch.
struct CTreeUnit<'a> {
    tree: &'a CTree,
    window: Option<(Timestamp, Timestamp)>,
    part: CTreePart,
}

impl crate::engine::SearchUnit for CTreeUnit<'_> {
    fn context(&self) -> QueryContext<'_> {
        self.tree.query_context()
    }

    fn search_approximate(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()> {
        match self.part {
            CTreePart::Leaves => self
                .tree
                .file
                .search_approximate(query, heap, ctx, self.window),
            CTreePart::Delta => {
                // The delta is in memory: its "approximate" probe is the
                // full scan, which both seeds the bound and is exact.
                self.tree.search_delta(query, heap, self.window);
                Ok(())
            }
        }
    }

    fn search_exact(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()> {
        match self.part {
            CTreePart::Leaves => self.tree.file.search_exact(query, heap, ctx, self.window),
            CTreePart::Delta => {
                self.tree.search_delta(query, heap, self.window);
                Ok(())
            }
        }
    }
}

/// Streaming adapter feeding the external sorter: pulls series from the
/// dataset scan in batches, summarizes each batch with the worker pool, and
/// yields plain entries (remembering the first error, since the sorter only
/// understands plain records).
struct BatchedEntryIter<'a, I> {
    inner: I,
    summarizer: &'a SortableSummarizer,
    materialized: bool,
    parallelism: usize,
    batch_size: usize,
    pending: std::collections::VecDeque<SeriesEntry>,
    error: Option<IndexError>,
}

impl<'a, I> BatchedEntryIter<'a, I>
where
    I: Iterator<Item = coconut_series::Result<Series>>,
{
    fn new(
        inner: I,
        summarizer: &'a SortableSummarizer,
        materialized: bool,
        parallelism: usize,
        max_batch_records: usize,
    ) -> Self {
        // Enough work per refill to amortize a fork/join across the pool,
        // but capped by the caller's memory bound so staging never rivals
        // the external sorter's budget.
        let batch_size =
            (effective_parallelism(parallelism) * 1024).clamp(256, max_batch_records.max(256));
        BatchedEntryIter {
            inner,
            summarizer,
            materialized,
            parallelism,
            batch_size,
            pending: std::collections::VecDeque::new(),
            error: None,
        }
    }

    fn refill(&mut self) {
        let mut batch: Vec<Series> = Vec::with_capacity(self.batch_size);
        while batch.len() < self.batch_size {
            match self.inner.next() {
                Some(Ok(series)) => batch.push(series),
                Some(Err(e)) => {
                    self.error = Some(IndexError::from(e));
                    break;
                }
                None => break,
            }
        }
        if !batch.is_empty() {
            self.pending.extend(SeriesEntry::from_series_batch(
                &batch,
                0,
                self.summarizer,
                self.materialized,
                self.parallelism,
            ));
        }
    }
}

impl<'a, I> Iterator for BatchedEntryIter<'a, I>
where
    I: Iterator<Item = coconut_series::Result<Series>>,
{
    type Item = SeriesEntry;

    fn next(&mut self) -> Option<SeriesEntry> {
        if self.pending.is_empty() && self.error.is_none() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::brute_force_knn;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    fn build_tree(
        n: usize,
        materialized: bool,
        budget: usize,
        seed: u64,
    ) -> (ScratchDir, Vec<Series>, CTree, SharedIoStats) {
        let dir = ScratchDir::new("ctree").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let stats = IoStats::shared();
        let config = CTreeConfig::new(sax)
            .materialized(materialized)
            .with_memory_budget(budget);
        let tree = CTree::build(&dataset, config, dir.path(), Arc::clone(&stats)).unwrap();
        (dir, series, tree, stats)
    }

    #[test]
    fn build_indexes_every_series() {
        let (_dir, series, tree, _stats) = build_tree(500, true, 1 << 20, 1);
        assert_eq!(tree.len(), series.len() as u64);
        assert!(tree.num_blocks() > 1);
        assert!(tree.footprint_bytes() > 0);
        assert_eq!(tree.build_stats().entries, 500);
    }

    #[test]
    fn construction_is_mostly_sequential_even_with_tiny_budget() {
        // A small memory budget forces external sorting, but the I/O pattern
        // must remain overwhelmingly sequential — the core Coconut claim.
        let (_dir, _series, tree, _stats) = build_tree(2000, true, 64 * 1024, 2);
        let io = tree.build_stats().io;
        assert!(tree.build_stats().sort_runs > 1, "expected spill runs");
        assert!(
            io.random_fraction() < 0.15,
            "CTree construction should be sequential, random fraction {}",
            io.random_fraction()
        );
    }

    #[test]
    fn exact_knn_matches_brute_force_materialized() {
        let (_dir, series, tree, _stats) = build_tree(400, true, 1 << 20, 3);
        let mut gen = RandomWalkGenerator::new(64, 99);
        for _ in 0..10 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                5,
            );
            let (got, _) = tree.exact_knn(&q.values, 5).unwrap();
            assert_eq!(got.len(), 5);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!(
                    (g.squared_distance - e.squared_distance).abs() < 1e-6,
                    "distance mismatch"
                );
            }
        }
    }

    #[test]
    fn exact_knn_matches_brute_force_non_materialized() {
        let (_dir, series, tree, _stats) = build_tree(300, false, 1 << 20, 4);
        let mut gen = RandomWalkGenerator::new(64, 55);
        for _ in 0..5 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                1,
            );
            let (got, cost) = tree.exact_knn(&q.values, 1).unwrap();
            assert_eq!(got[0].id, expected[0].id);
            assert!(cost.raw_fetches < series.len() as u64);
        }
    }

    #[test]
    fn approximate_query_is_cheaper_than_exact() {
        let (_dir, _series, tree, _stats) = build_tree(1000, true, 1 << 20, 5);
        let mut gen = RandomWalkGenerator::new(64, 7);
        let q = gen.next_series();
        let (_a, approx_cost) = tree.approximate_knn(&q.values, 1).unwrap();
        let (_e, exact_cost) = tree.exact_knn(&q.values, 1).unwrap();
        assert!(approx_cost.blocks_read <= exact_cost.blocks_read);
        assert!(approx_cost.entries_examined <= exact_cost.entries_examined);
    }

    #[test]
    fn non_materialized_is_smaller_than_materialized() {
        let (_d1, _s1, non, _) = build_tree(300, false, 1 << 20, 6);
        let (_d2, _s2, mat, _) = build_tree(300, true, 1 << 20, 6);
        assert!(non.footprint_bytes() < mat.footprint_bytes() / 2);
    }

    #[test]
    fn mismatched_dataset_length_rejected() {
        let dir = ScratchDir::new("ctree-mismatch").unwrap();
        let mut gen = RandomWalkGenerator::new(32, 1);
        let series = gen.generate(10);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let config = CTreeConfig::new(SaxConfig::new(64, 8, 8));
        let result = CTree::build(&dataset, config, dir.path(), IoStats::shared());
        assert!(matches!(result, Err(IndexError::Config(_))));
    }

    #[test]
    fn delta_inserts_are_queryable_and_merge() {
        let dir = ScratchDir::new("ctree-delta").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, 10);
        let base = gen.generate(200);
        let stats = IoStats::shared();
        let config = CTreeConfig::new(sax)
            .materialized(true)
            .with_fill_factor(0.7);
        let mut tree =
            CTree::build_from_series(&base, config, dir.path(), Arc::clone(&stats)).unwrap();

        // Insert new series with fresh ids.
        let mut extra: Vec<Series> = gen.generate(50);
        for (i, s) in extra.iter_mut().enumerate() {
            s.id = 200 + i as u64;
        }
        tree.insert_batch(&extra, 1).unwrap();
        assert_eq!(tree.len(), 250);

        // A query targeting an inserted series must find it.
        let target = &extra[10];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.001).collect();
        let (got, _) = tree.exact_knn(&query, 1).unwrap();
        assert_eq!(got[0].id, target.id);

        // Force the merge and re-check.
        tree.merge_delta().unwrap();
        assert_eq!(tree.pending_delta(), 0);
        assert_eq!(tree.len(), 250);
        let (got, _) = tree.exact_knn(&query, 1).unwrap();
        assert_eq!(got[0].id, target.id);
        assert!(tree.merges >= 1);
    }

    #[test]
    fn lower_fill_factor_means_more_blocks() {
        let dir = ScratchDir::new("ctree-ff").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, 11);
        let series = gen.generate(400);
        let dense_cfg = CTreeConfig::new(sax)
            .materialized(true)
            .with_fill_factor(1.0);
        let sparse_cfg = CTreeConfig::new(sax)
            .materialized(true)
            .with_fill_factor(0.5);
        let dense =
            CTree::build_from_series(&series, dense_cfg, &dir.file("dense"), IoStats::shared());
        std::fs::create_dir_all(dir.file("dense")).unwrap();
        std::fs::create_dir_all(dir.file("sparse")).unwrap();
        let dense = match dense {
            Ok(t) => t,
            Err(_) => {
                CTree::build_from_series(&series, dense_cfg, &dir.file("dense"), IoStats::shared())
                    .unwrap()
            }
        };
        let sparse =
            CTree::build_from_series(&series, sparse_cfg, &dir.file("sparse"), IoStats::shared())
                .unwrap();
        assert!(sparse.num_blocks() > dense.num_blocks());
    }
}
