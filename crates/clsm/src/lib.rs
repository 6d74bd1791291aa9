//! # coconut-clsm
//!
//! CoconutLSM (CLSM): the write-optimized, log-structured data series index
//! of the Coconut infrastructure.
//!
//! CLSM ingests series into an in-memory buffer; when the buffer fills it is
//! sorted by the interleaved SAX key and written out sequentially as a run
//! (a [`SortedSeriesFile`]).  Runs are organized into levels with a
//! configurable **growth factor** `T`: when a level accumulates `T` runs they
//! are sort-merged (sequential I/O) into a single run at the next level.
//! Smaller growth factors merge more aggressively (fewer runs to probe at
//! query time, more write amplification); larger factors favour ingestion —
//! exactly the read/write knob Section 2 of the paper describes.
//!
//! Queries probe the buffer plus every run under one best-so-far bound
//! frozen from the merged seeds, so that older, larger runs are pruned
//! effectively; see `coconut_ctree::engine` for the protocol.
//!
//! With `shard_count > 1` every compaction is **sharded by key range**: the
//! level merge runs as independent per-shard k-way merges producing a
//! key-partitioned set of run files, and queries search each shard as its
//! own unit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::kernels::euclidean_early_abandon;
use coconut_ctree::query::{KnnHeap, QueryContext, QueryCost};
use coconut_ctree::raw::RawSeriesSource;
use coconut_ctree::sorted_file::SortedSeriesFile;
use coconut_ctree::{check_series, IndexError, Result};
use coconut_parallel::CancelToken;
use coconut_sax::{SaxConfig, SortableSummarizer};
use coconut_series::dataset::Dataset;
use coconut_series::distance::Neighbor;
use coconut_series::{Series, Timestamp};
use coconut_storage::{PerfKnobs, SharedIoStats};

/// Configuration of a CoconutLSM index.
#[derive(Debug, Clone, Copy)]
pub struct ClsmConfig {
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Whether runs embed the full series values.
    pub materialized: bool,
    /// Number of entries buffered in memory before a flush.
    pub buffer_capacity: usize,
    /// Growth factor `T`: a level is merged into the next one once it holds
    /// `T` runs.
    pub growth_factor: usize,
    /// Entries per block inside each run (query granularity).
    pub entries_per_block: usize,
    /// Page size used for I/O accounting.
    pub page_size: usize,
    /// Number of key-range shards each compaction produces.  `1` keeps the
    /// classic single-run merge; larger values split every level merge into
    /// independent per-shard merges and give queries finer search units.
    /// The shard layout is derived deterministically from the input runs'
    /// block fences.
    pub shard_count: usize,
    /// The pure-performance knobs (default [`PerfKnobs::default`]).
    /// Flushes and compactions read `io_backend` (mappings are dropped
    /// before a compaction deletes its inputs); every per-shard merge reads
    /// its inputs inline.  Run files, answers, `QueryCost` and the logical
    /// `IoStats` are identical at every setting.
    pub knobs: PerfKnobs,
}

impl ClsmConfig {
    /// A reasonable default configuration for the given summarization.
    pub fn new(sax: SaxConfig) -> Self {
        ClsmConfig {
            sax,
            materialized: false,
            buffer_capacity: 4096,
            growth_factor: 4,
            entries_per_block: 64,
            page_size: coconut_storage::DEFAULT_PAGE_SIZE,
            shard_count: 1,
            knobs: PerfKnobs::default(),
        }
    }

    /// Enables or disables materialization.
    pub fn materialized(mut self, yes: bool) -> Self {
        self.materialized = yes;
        self
    }

    /// Sets the buffer capacity in entries.
    pub fn with_buffer_capacity(mut self, entries: usize) -> Self {
        self.buffer_capacity = entries.max(1);
        self
    }

    /// Sets the growth factor.
    pub fn with_growth_factor(mut self, t: usize) -> Self {
        assert!(t >= 2, "growth factor must be at least 2");
        self.growth_factor = t;
        self
    }

    /// Sets the number of key-range shards per compaction (`>= 1`).
    pub fn with_shard_count(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        self.shard_count = shards;
        self
    }

    /// Sets the performance knobs; see [`ClsmConfig::knobs`].
    pub fn with_knobs(mut self, knobs: PerfKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    fn layout(&self) -> EntryLayout {
        if self.materialized {
            EntryLayout::materialized(self.sax.key_bits(), self.sax.series_len)
        } else {
            EntryLayout::non_materialized(self.sax.key_bits())
        }
    }
}

/// Cumulative ingestion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClsmStats {
    /// Number of buffer flushes (level-0 run creations).
    pub flushes: u64,
    /// Number of merge compactions.
    pub merges: u64,
    /// Total entries written to disk across flushes and merges
    /// (write amplification numerator).
    pub entries_written: u64,
    /// Total entries ingested.
    pub entries_ingested: u64,
}

impl ClsmStats {
    /// Write amplification: entries written to disk per ingested entry.
    pub fn write_amplification(&self) -> f64 {
        if self.entries_ingested == 0 {
            0.0
        } else {
            self.entries_written as f64 / self.entries_ingested as f64
        }
    }
}

/// One logical sorted run of a CLSM level: a key-partitioned set of
/// [`SortedSeriesFile`] shards.  Shards are disjoint and ordered by key
/// range, so their concatenation is one globally sorted sequence; buffer
/// flushes produce single-shard runs, sharded compactions produce
/// `shard_count`-way runs.
pub struct RunSet {
    shards: Vec<SortedSeriesFile>,
}

impl RunSet {
    fn single(file: SortedSeriesFile) -> Self {
        RunSet { shards: vec![file] }
    }

    /// The key-ordered shards of this run.
    pub fn shards(&self) -> &[SortedSeriesFile] {
        &self.shards
    }

    /// Total entries across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Returns `true` when the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size (records x record size) across all shards: what they
    /// occupy on disk, and what budget arithmetic counts.
    pub fn byte_size(&self) -> u64 {
        self.shards.iter().map(|s| s.byte_size()).sum()
    }
}

/// The CoconutLSM index.
pub struct ClsmTree {
    config: ClsmConfig,
    summarizer: SortableSummarizer,
    buffer: Vec<SeriesEntry>,
    /// `levels[i]` holds the runs of level `i`, oldest first; each run is a
    /// key-partitioned [`RunSet`].
    levels: Vec<Vec<RunSet>>,
    dir: PathBuf,
    stats: SharedIoStats,
    raw: Option<RawSeriesSource>,
    next_run_id: u64,
    lsm_stats: ClsmStats,
}

impl Drop for ClsmTree {
    /// Waits for the durability worker, so no queued sync or unlink of this
    /// tree's runs outlives it (a later index may reuse the directory).  A
    /// failed sync stays with the worker for the next caller that can
    /// return it.
    fn drop(&mut self) {
        coconut_storage::durability::wait_idle();
    }
}

impl std::fmt::Debug for ClsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClsmTree")
            .field("entries", &self.len())
            .field("levels", &self.levels.len())
            .field("runs", &self.num_runs())
            .finish()
    }
}

impl ClsmTree {
    /// Creates an empty CLSM whose runs are stored in `dir`.
    pub fn new(config: ClsmConfig, dir: &Path, stats: SharedIoStats) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(coconut_storage::StorageError::from)?;
        Ok(ClsmTree {
            config,
            summarizer: SortableSummarizer::new(config.sax),
            buffer: Vec::with_capacity(config.buffer_capacity.min(1 << 20)),
            levels: Vec::new(),
            dir: dir.to_path_buf(),
            stats,
            raw: None,
            next_run_id: 0,
            lsm_stats: ClsmStats::default(),
        })
    }

    /// Attaches the raw dataset handle used for non-materialized
    /// refinement.  Fetches are served through the index's `io_backend`
    /// knob (mmap-backed when configured), with accounting identical at
    /// either setting.
    pub fn attach_dataset(&mut self, dataset: Dataset) -> Result<()> {
        self.raw = Some(RawSeriesSource::new(dataset, self.config.knobs.io_backend)?);
        Ok(())
    }

    /// Builds a CLSM by ingesting every series of `dataset` in order.
    pub fn build(
        dataset: &Dataset,
        config: ClsmConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<Self> {
        if dataset.series_len() != config.sax.series_len {
            return Err(IndexError::Config(format!(
                "dataset series length {} does not match SAX config {}",
                dataset.series_len(),
                config.sax.series_len
            )));
        }
        let mut tree = ClsmTree::new(config, dir, stats)?;
        for series in dataset.iter()? {
            tree.insert(&series?, 0)?;
        }
        tree.flush()?;
        if !config.materialized {
            tree.attach_dataset(dataset.reopen()?)?;
        }
        Ok(tree)
    }

    /// Configuration of this index.
    pub fn config(&self) -> &ClsmConfig {
        &self.config
    }

    /// Number of indexed entries (including the in-memory buffer).
    pub fn len(&self) -> u64 {
        self.buffer.len() as u64
            + self
                .levels
                .iter()
                .flat_map(|l| l.iter())
                .map(|r| r.len())
                .sum::<u64>()
    }

    /// Returns `true` when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of logical runs ([`RunSet`]s) across all levels.
    pub fn num_runs(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// The on-disk run files (shards) of every level, level 0 first and
    /// oldest run first within a level.
    pub fn shards(&self) -> impl Iterator<Item = &SortedSeriesFile> {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .flat_map(|r| r.shards.iter())
    }

    /// Number of on-disk run files (shards) across all levels.
    pub fn num_shards(&self) -> usize {
        self.shards().count()
    }

    /// Number of levels currently in use.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// On-disk footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|r| r.byte_size())
            .sum()
    }

    /// Cumulative ingestion statistics.
    pub fn stats(&self) -> ClsmStats {
        self.lsm_stats
    }

    /// Inserts one series with an arrival timestamp.
    pub fn insert(&mut self, series: &Series, timestamp: Timestamp) -> Result<()> {
        self.insert_batch(std::slice::from_ref(series), timestamp)
    }

    /// Inserts a batch of series sharing one timestamp.  Every series is
    /// checked before any enters the buffer.
    pub fn insert_batch(&mut self, series: &[Series], timestamp: Timestamp) -> Result<()> {
        for s in series {
            check_series("inserted series", &s.values, self.config.sax.series_len)?;
        }
        for s in series {
            self.buffer.push(SeriesEntry::from_series(
                s,
                timestamp,
                &self.summarizer,
                self.config.materialized,
            ));
            self.lsm_stats.entries_ingested += 1;
            if self.buffer.len() >= self.config.buffer_capacity {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Flushes the in-memory buffer into a new level-0 run and compacts
    /// levels that reached the growth factor.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.buffer);
        let count = entries.len() as u64;
        let run = self.write_sorted_run(entries, 0)?;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(RunSet::single(run));
        self.lsm_stats.flushes += 1;
        self.lsm_stats.entries_written += count;
        self.compact()?;
        Ok(())
    }

    fn write_sorted_run(
        &mut self,
        entries: Vec<SeriesEntry>,
        level: usize,
    ) -> Result<SortedSeriesFile> {
        let path = self
            .dir
            .join(format!("clsm-L{level}-{:06}.run", self.next_run_id));
        self.next_run_id += 1;
        SortedSeriesFile::build_unsorted(
            path,
            self.config.layout(),
            self.config.sax,
            entries,
            self.config.entries_per_block,
            Arc::clone(&self.stats),
            self.config.page_size,
            self.config.knobs.io_backend,
        )
    }

    fn compact(&mut self) -> Result<()> {
        let t = self.config.growth_factor;
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() >= t {
                let runs = std::mem::take(&mut self.levels[level]);
                let merged = self.merge_runs(&runs, level + 1)?;
                if self.levels.len() <= level + 1 {
                    self.levels.push(Vec::new());
                }
                // The inputs leave the disk behind the merged shards' syncs.
                let outputs: Vec<&SortedSeriesFile> = merged.shards.iter().collect();
                let inputs = runs.into_iter().flat_map(|run| run.shards).collect();
                let retired = SortedSeriesFile::replace(&outputs, inputs);
                self.lsm_stats.merges += 1;
                self.lsm_stats.entries_written += merged.len();
                self.levels[level + 1].push(merged);
                retired?;
            }
            level += 1;
        }
        Ok(())
    }

    /// Picks `shard_count - 1` key boundaries that split the merged output
    /// of `inputs` into near-equal shards.  Boundaries are block fence keys
    /// of the inputs, chosen by walking the fences in key order and cutting
    /// at entry-count quantiles — a deterministic function of the input
    /// runs.
    fn shard_boundaries(inputs: &[&SortedSeriesFile], shard_count: usize) -> Vec<u128> {
        if shard_count <= 1 {
            return Vec::new();
        }
        let total: u64 = inputs.iter().map(|f| f.len()).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut fences: Vec<(u128, u64)> = inputs
            .iter()
            .flat_map(|f| f.blocks().iter().map(|b| (b.min_key, b.count as u64)))
            .collect();
        fences.sort_unstable();
        let per_shard = total.div_ceil(shard_count as u64).max(1);
        // Boundaries are fence keys: never more than there are fences,
        // whatever shard count a caller asked for.
        let mut boundaries = Vec::with_capacity((shard_count - 1).min(fences.len()));
        let mut seen = 0u64;
        for (key, count) in fences {
            if boundaries.len() + 1 >= shard_count {
                break;
            }
            if seen >= (boundaries.len() as u64 + 1) * per_shard
                && boundaries.last().is_none_or(|&b| key > b)
                && key > 0
            {
                boundaries.push(key);
            }
            seen += count;
        }
        boundaries
    }

    fn merge_runs(&mut self, runs: &[RunSet], target_level: usize) -> Result<RunSet> {
        let layout = self.config.layout();
        // Flatten in (run, shard) order: shards of one run are key-disjoint,
        // so any equal (key, id) pair across *runs* keeps the same relative
        // order as the unsharded merge would produce.
        let inputs: Vec<&SortedSeriesFile> = runs.iter().flat_map(|r| r.shards.iter()).collect();
        let boundaries = Self::shard_boundaries(&inputs, self.config.shard_count);
        let run_id = self.next_run_id;
        self.next_run_id += 1;

        // Shard ranges: [0, b1), [b1, b2), ..., [b_last, +inf).
        let mut ranges: Vec<(u128, Option<u128>)> = Vec::with_capacity(boundaries.len() + 1);
        let mut lo = 0u128;
        for &b in &boundaries {
            ranges.push((lo, Some(b)));
            lo = b;
        }
        ranges.push((lo, None));

        // Every shard is an independent k-way merge over the inputs' key
        // slices, writing its own file.
        let mut shards = Vec::with_capacity(ranges.len());
        for (shard_idx, &(lo, hi)) in ranges.iter().enumerate() {
            let readers: Vec<_> = inputs.iter().map(|f| f.range_reader(lo, hi)).collect();
            let merge = coconut_storage::DynIterMerge::new(layout, readers)?;
            let path = self.dir.join(format!(
                "clsm-L{target_level}-{run_id:06}-s{shard_idx:03}.run"
            ));
            let shard = SortedSeriesFile::build(
                path,
                layout,
                self.config.sax,
                merge,
                self.config.entries_per_block,
                Arc::clone(&self.stats),
                self.config.page_size,
                self.config.knobs.io_backend,
            )?;
            // Quantile boundaries can leave a shard empty on tiny inputs;
            // drop its (empty) file rather than carrying a zero-entry shard.
            if shard.is_empty() {
                shard.delete()?;
            } else {
                shards.push(shard);
            }
        }
        Ok(RunSet { shards })
    }

    fn query_context(&self) -> QueryContext<'_> {
        match &self.raw {
            Some(raw) => QueryContext::non_materialized(raw, Arc::clone(&self.stats)),
            None => QueryContext::materialized(),
        }
    }

    fn search_buffer(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        for entry in &self.buffer {
            if let Some((start, end)) = window {
                if entry.timestamp < start || entry.timestamp > end {
                    continue;
                }
            }
            ctx.cost.entries_examined += 1;
            let bound = heap.bound();
            let values = if entry.is_materialized() {
                &entry.values
            } else {
                ctx.fetch(entry.id)?
            };
            if let Some(d) = euclidean_early_abandon(query, values, bound) {
                heap.offer_at(entry.id, entry.timestamp, d);
            }
        }
        Ok(())
    }

    /// Search units in newest-first order: the buffer, then level 0's runs
    /// (newest flush first), then deeper levels, with every shard of a
    /// sharded run as its own unit.
    fn query_units(&self, window: Option<(Timestamp, Timestamp)>) -> Vec<ClsmUnit<'_>> {
        let mut units = Vec::with_capacity(self.num_shards() + 1);
        if !self.buffer.is_empty() {
            units.push(ClsmUnit {
                tree: self,
                window,
                part: ClsmPart::Buffer,
            });
        }
        for level in &self.levels {
            for run in level.iter().rev() {
                for shard in &run.shards {
                    units.push(ClsmUnit {
                        tree: self,
                        window,
                        part: ClsmPart::Shard(shard),
                    });
                }
            }
        }
        units
    }

    /// kNN over the buffer plus every run, exact or approximate, optionally
    /// restricted to the timestamp window `[start, end]` (an exact query
    /// under a bound frozen from the merged seeds; see
    /// [`coconut_ctree::engine`]).  The engine polls `cancel` before each
    /// of its phases and unwinds with [`IndexError::Cancelled`] carrying
    /// the partial cost; a token that never fires changes nothing.
    pub fn knn(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        window: Option<(Timestamp, Timestamp)>,
        cancel: &CancelToken,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        coconut_ctree::engine::parallel_knn_with(&self.query_units(window), query, k, exact, cancel)
    }
}

#[derive(Clone, Copy)]
enum ClsmPart<'a> {
    /// The in-memory write buffer.
    Buffer,
    /// One on-disk shard of a run.
    Shard(&'a SortedSeriesFile),
}

/// One independently searchable piece of a CLSM tree for the query
/// engine.  The query is supplied per search call so one unit list
/// serves both phases of a query.
struct ClsmUnit<'a> {
    tree: &'a ClsmTree,
    window: Option<(Timestamp, Timestamp)>,
    part: ClsmPart<'a>,
}

impl coconut_ctree::engine::SearchUnit for ClsmUnit<'_> {
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
            // The buffer is in memory: its "approximate" probe is the full
            // scan, which both seeds the frozen bound and is exact.
            ClsmPart::Buffer => self.tree.search_buffer(query, heap, ctx, self.window),
            ClsmPart::Shard(file) => file.search_approximate(query, heap, ctx, self.window),
        }
    }

    fn search_exact(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()> {
        match self.part {
            ClsmPart::Buffer => self.tree.search_buffer(query, heap, ctx, self.window),
            ClsmPart::Shard(file) => file.search_exact(query, heap, ctx, self.window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::brute_force_knn;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    fn build_clsm(
        n: usize,
        materialized: bool,
        buffer: usize,
        growth: usize,
        seed: u64,
    ) -> (ScratchDir, Vec<Series>, ClsmTree, SharedIoStats) {
        let dir = ScratchDir::new("clsm").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let stats = IoStats::shared();
        let config = ClsmConfig::new(sax)
            .materialized(materialized)
            .with_buffer_capacity(buffer)
            .with_growth_factor(growth);
        let tree = ClsmTree::build(&dataset, config, &dir.file("lsm"), Arc::clone(&stats)).unwrap();
        (dir, series, tree, stats)
    }

    #[test]
    fn ingestion_creates_runs_and_levels() {
        let (_dir, series, tree, _) = build_clsm(1000, true, 100, 3, 1);
        assert_eq!(tree.len(), series.len() as u64);
        assert!(tree.stats().flushes >= 10);
        assert!(tree.stats().merges > 0);
        assert!(tree.num_levels() > 1);
        assert!(tree.footprint_bytes() > 0);
    }

    #[test]
    fn exact_knn_matches_brute_force_materialized() {
        let (_dir, series, tree, _) = build_clsm(600, true, 128, 4, 2);
        let mut gen = RandomWalkGenerator::new(64, 93);
        for _ in 0..8 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                5,
            );
            let (got, _) = tree
                .knn(&q.values, 5, true, None, &CancelToken::never())
                .unwrap();
            assert_eq!(got.len(), 5);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn exact_knn_matches_brute_force_non_materialized() {
        let (_dir, series, tree, _) = build_clsm(400, false, 100, 3, 3);
        let mut gen = RandomWalkGenerator::new(64, 19);
        for _ in 0..4 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                1,
            );
            let (got, cost) = tree
                .knn(&q.values, 1, true, None, &CancelToken::never())
                .unwrap();
            assert_eq!(got[0].id, expected[0].id);
            assert!(cost.raw_fetches < 400);
        }
    }

    #[test]
    fn buffered_entries_are_visible_before_flush() {
        let dir = ScratchDir::new("clsm-buf").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let config = ClsmConfig::new(sax)
            .materialized(true)
            .with_buffer_capacity(1000);
        let mut tree = ClsmTree::new(config, &dir.file("lsm"), IoStats::shared()).unwrap();
        let mut gen = RandomWalkGenerator::new(64, 4);
        let series = gen.generate(50);
        tree.insert_batch(&series, 7).unwrap();
        assert_eq!(tree.num_runs(), 0, "nothing should be flushed yet");
        let target = &series[20];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.001).collect();
        let (got, _) = tree
            .knn(&query, 1, true, None, &CancelToken::never())
            .unwrap();
        assert_eq!(got[0].id, target.id);
    }

    #[test]
    fn ingestion_io_is_mostly_sequential() {
        let (_dir, _series, tree, stats) = build_clsm(2000, true, 100, 3, 5);
        let snap = stats.snapshot();
        assert!(snap.total_writes() > 0);
        assert!(
            snap.random_fraction() < 0.2,
            "CLSM ingestion should be log-structured/sequential, got {}",
            snap.random_fraction()
        );
        let _ = tree;
    }

    #[test]
    fn smaller_growth_factor_means_fewer_runs_more_writes() {
        let (_d1, _s1, aggressive, _) = build_clsm(1500, true, 100, 2, 6);
        let (_d2, _s2, lazy, _) = build_clsm(1500, true, 100, 8, 6);
        assert!(aggressive.num_runs() <= lazy.num_runs());
        assert!(
            aggressive.stats().write_amplification() > lazy.stats().write_amplification(),
            "aggressive merging must rewrite entries more often ({} vs {})",
            aggressive.stats().write_amplification(),
            lazy.stats().write_amplification()
        );
    }

    fn build_sharded_clsm(
        n: usize,
        shards: usize,
        seed: u64,
    ) -> (ScratchDir, Vec<Series>, ClsmTree) {
        let dir = ScratchDir::new("clsm-shard").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let config = ClsmConfig::new(sax)
            .materialized(true)
            .with_buffer_capacity(100)
            .with_growth_factor(3)
            .with_shard_count(shards);
        let tree = ClsmTree::build(&dataset, config, &dir.file("lsm"), IoStats::shared()).unwrap();
        (dir, series, tree)
    }

    #[test]
    fn sharded_compaction_splits_runs_by_key_range() {
        let (_dir, series, tree) = build_sharded_clsm(1200, 4, 21);
        assert!(tree.stats().merges > 0, "compactions must have happened");
        assert!(
            tree.num_shards() > tree.num_runs(),
            "merged levels must hold multi-shard runs ({} shards over {} runs)",
            tree.num_shards(),
            tree.num_runs()
        );
        assert_eq!(tree.len(), series.len() as u64);
        // Shards of every run must be key-disjoint and ordered.
        for level in &tree.levels {
            for run in level {
                for pair in run.shards().windows(2) {
                    let left_max = pair[0].blocks().last().unwrap().max_key;
                    let right_min = pair[1].blocks().first().unwrap().min_key;
                    assert!(left_max <= right_min, "shards must be key-ordered");
                }
            }
        }
        // A sharded tree must answer exactly like brute force.
        let mut gen = RandomWalkGenerator::new(64, 77);
        for _ in 0..5 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                4,
            );
            let (got, _) = tree
                .knn(&q.values, 4, true, None, &CancelToken::never())
                .unwrap();
            assert_eq!(got.len(), 4);
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.id, e.id);
                assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sharded_and_unsharded_trees_agree_with_identical_write_amplification() {
        let (_d1, series, sharded) = build_sharded_clsm(1000, 4, 55);
        let dir = ScratchDir::new("clsm-unsharded").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let config = ClsmConfig::new(sax)
            .materialized(true)
            .with_buffer_capacity(100)
            .with_growth_factor(3);
        let plain = ClsmTree::build(&dataset, config, &dir.file("lsm"), IoStats::shared()).unwrap();
        // Sharding changes the file layout, not the merge schedule.
        assert_eq!(sharded.stats(), plain.stats());
        let mut gen = RandomWalkGenerator::new(64, 11);
        for _ in 0..5 {
            let q = gen.next_series();
            let (a, _) = sharded
                .knn(&q.values, 3, true, None, &CancelToken::never())
                .unwrap();
            let (b, _) = plain
                .knn(&q.values, 3, true, None, &CancelToken::never())
                .unwrap();
            assert_eq!(a, b, "sharded and unsharded answers must agree");
        }
    }

    #[test]
    fn window_queries_respect_window() {
        let dir = ScratchDir::new("clsm-window").unwrap();
        let sax = SaxConfig::new(32, 4, 8);
        let config = ClsmConfig::new(sax)
            .materialized(true)
            .with_buffer_capacity(32);
        let mut tree = ClsmTree::new(config, &dir.file("lsm"), IoStats::shared()).unwrap();
        let mut gen = RandomWalkGenerator::new(32, 7);
        let mut stored = Vec::new();
        for batch in 0..10u64 {
            let series = gen.generate(20);
            tree.insert_batch(&series, batch * 100).unwrap();
            stored.extend(series.into_iter().map(|s| (batch * 100, s)));
        }
        tree.flush().unwrap();
        let q = gen.next_series();
        let window = (300, 600);
        let (got, _) = tree
            .knn(&q.values, 200, true, Some(window), &CancelToken::never())
            .unwrap();
        assert!(!got.is_empty());
        // Every returned id must belong to batches 3..=6 (ids 60..140).
        for n in &got {
            assert!(
                n.id >= 60 && n.id < 140,
                "id {} outside window batches",
                n.id
            );
        }
        // Exact: the brute-force answer over the series stored in the window.
        for k in [1, 5, 200] {
            let in_window = stored
                .iter()
                .filter(|(ts, _)| (window.0..=window.1).contains(ts))
                .map(|(_, s)| (s.id, s.values.as_slice()));
            let expected: Vec<_> = brute_force_knn(&q.values, in_window, k)
                .iter()
                .map(|n| (n.id, n.squared_distance))
                .collect();
            let (got, _) = tree
                .knn(&q.values, k, true, Some(window), &CancelToken::never())
                .unwrap();
            let got: Vec<_> = got.iter().map(|n| (n.id, n.squared_distance)).collect();
            assert_eq!(got, expected, "exact window answer at k={k}");
            // Approximate: at most k hits, every one inside the window.
            let (approx, _) = tree
                .knn(&q.values, k, false, Some(window), &CancelToken::never())
                .unwrap();
            assert!(approx.len() <= k);
            for n in &approx {
                assert!((window.0..=window.1).contains(&n.timestamp));
            }
        }
    }

    #[test]
    fn empty_tree_query_returns_nothing() {
        let dir = ScratchDir::new("clsm-empty").unwrap();
        let config = ClsmConfig::new(SaxConfig::new(32, 4, 8)).materialized(true);
        let tree = ClsmTree::new(config, &dir.file("lsm"), IoStats::shared()).unwrap();
        let (got, _) = tree
            .knn(&[0.0; 32], 3, true, None, &CancelToken::never())
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn mismatched_series_length_rejected() {
        let dir = ScratchDir::new("clsm-mismatch").unwrap();
        let config = ClsmConfig::new(SaxConfig::new(32, 4, 8)).materialized(true);
        let mut tree = ClsmTree::new(config, &dir.file("lsm"), IoStats::shared()).unwrap();
        let bad = Series::new(0, vec![0.0; 8]);
        assert!(matches!(tree.insert(&bad, 0), Err(IndexError::Config(_))));
    }
}
