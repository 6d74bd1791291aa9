//! The CoconutTree (CTree) index.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::kernels::euclidean_early_abandon;
use coconut_parallel::CancelToken;
use coconut_sax::{InvSaxKey, SaxConfig, SortableSummarizer};
use coconut_series::dataset::{Dataset, DatasetReader};
use coconut_series::distance::Neighbor;
use coconut_series::{Series, SeriesId, Timestamp};
use coconut_storage::dynsort::DynExternalSorter;
use coconut_storage::iostats::{IoStatsSnapshot, SharedIoStats};
use coconut_storage::page::DEFAULT_PAGE_SIZE;
use coconut_storage::PerfKnobs;

use crate::entry::{EntryLayout, SeriesEntry};
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
    /// The pure-performance knobs (default [`PerfKnobs::default`]).  The
    /// bulk load's external sort reads `io_overlap` and `io_backend`, leaf
    /// scans `io_backend`; a delta merge reads the old leaves inline.
    /// Answers, `QueryCost` and the logical `IoStats` are identical at
    /// every setting.
    pub knobs: PerfKnobs,
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
            knobs: PerfKnobs::default(),
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

    /// Sets the performance knobs; see [`CTreeConfig::knobs`].
    pub fn with_knobs(mut self, knobs: PerfKnobs) -> Self {
        self.knobs = knobs;
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

        // Pass 1: sequential block scan of the raw data file, keying each
        // block's rows where they lie (timestamp 0 for static datasets).
        let materialized = config.materialized;
        let mut entries = BlockEntries {
            reader: dataset.iter()?,
            summarizer: &summarizer,
            materialized,
            first_id: 0,
            keys: Vec::new(),
            next: 0,
            error: None,
        };

        // Pass 2: bounded-memory external sort by interleaved key.
        let mut sorter =
            DynExternalSorter::new(layout, config.memory_budget_bytes, dir, Arc::clone(&stats))
                .with_page_size(config.page_size)
                .with_knobs(config.knobs);
        let mut sorted = sorter.sort(&mut entries)?;
        let sort_runs = sorted.runs_generated;

        // Pass 3: pack the sorted stream into contiguous leaf blocks.
        let file = match entries.error.take() {
            Some(err) => Err(err),
            None => SortedSeriesFile::build(
                dir.join("ctree-leaves.run"),
                layout,
                config.sax,
                sorted.by_ref().map(|r| r.map_err(IndexError::from)),
                config.entries_per_block(),
                Arc::clone(&stats),
                config.page_size,
                config.knobs.io_backend,
            ),
        };
        // The spill runs are scratch: gone once the merge has drained into
        // the leaves, or the build has failed.
        let deleted = sorted.delete_runs();
        let file = file?;
        deleted?;

        let entries_count = file.len();
        let footprint = file.byte_size();
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
                Some(RawSeriesSource::new(
                    dataset.reopen()?,
                    config.knobs.io_backend,
                )?)
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

    /// On-disk footprint of the index in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.file.byte_size()
    }

    /// Build statistics.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
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

    fn query_units(&self) -> Vec<CTreeUnit<'_>> {
        let mut units = vec![CTreeUnit {
            tree: self,
            part: CTreePart::Leaves,
        }];
        if !self.delta.is_empty() {
            units.push(CTreeUnit {
                tree: self,
                part: CTreePart::Delta,
            });
        }
        units
    }

    /// kNN search, exact or approximate (see [`crate::engine`]).  The
    /// engine polls `cancel` before each of its phases and unwinds with
    /// [`IndexError::Cancelled`] carrying the partial cost; a token that
    /// never fires changes nothing.
    pub fn knn(
        &self,
        query: &[f32],
        k: usize,
        exact: bool,
        cancel: &CancelToken,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        crate::engine::parallel_knn_with(&self.query_units(), query, k, exact, cancel)
    }

    fn search_delta(&self, query: &[f32], heap: &mut KnnHeap) {
        for entry in &self.delta {
            if entry.is_materialized() {
                if let Some(d) = euclidean_early_abandon(query, &entry.values, heap.bound()) {
                    heap.offer_at(entry.id, entry.timestamp, d);
                }
            }
        }
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
            crate::check_series("inserted series", &s.values, self.config.sax.series_len)?;
        }
        // Delta entries are always materialized in memory so that queries
        // can refine them without the raw file.
        self.delta.extend(
            series
                .iter()
                .map(|s| SeriesEntry::from_series(s, timestamp, &self.summarizer, true)),
        );
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
        // is written.
        let mut file_iter = self
            .file
            .reader(self.config.entries_per_block())
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
        let new_file = SortedSeriesFile::build(
            path,
            layout,
            sax,
            merged,
            self.config.entries_per_block(),
            Arc::clone(&self.stats),
            self.config.page_size,
            self.config.knobs.io_backend,
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

/// One independently searchable piece of a CTree for the query engine:
/// the contiguous leaf level or the in-memory delta.  The query is
/// supplied per search call so one unit list serves both phases of a query.
struct CTreeUnit<'a> {
    tree: &'a CTree,
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
            CTreePart::Leaves => self.tree.file.search_approximate(query, heap, ctx, None),
            CTreePart::Delta => {
                // The delta is in memory: its "approximate" probe is the
                // full scan, which both seeds the bound and is exact.
                self.tree.search_delta(query, heap);
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
            CTreePart::Leaves => self.tree.file.search_exact(query, heap, ctx, None),
            CTreePart::Delta => {
                self.tree.search_delta(query, heap);
                Ok(())
            }
        }
    }
}

/// Pass 1 of the bulk load, feeding the external sorter: reads the dataset
/// a block at a time, refuses a non-finite value as an insert would, keys
/// the block's rows in place, and yields one entry per
/// row, copying its values only into a materialized entry.  It remembers
/// the first error, since the sorter only understands plain records.
struct BlockEntries<'a> {
    reader: DatasetReader,
    summarizer: &'a SortableSummarizer,
    materialized: bool,
    /// Id of the current block's first row.
    first_id: SeriesId,
    /// Keys of the current block's rows, and the next row to yield.
    keys: Vec<InvSaxKey>,
    next: usize,
    error: Option<IndexError>,
}

impl BlockEntries<'_> {
    fn key_block(&mut self) -> Result<()> {
        let series_len = self.summarizer.config().series_len;
        let (first_id, values) = self.reader.next_block()?;
        let rows: Vec<&[f32]> = values.chunks_exact(series_len).collect();
        for row in &rows {
            crate::check_series("inserted series", row, series_len)?;
        }
        self.keys = rows.iter().map(|row| self.summarizer.key(row)).collect();
        self.first_id = first_id;
        self.next = 0;
        Ok(())
    }
}

impl Iterator for BlockEntries<'_> {
    type Item = SeriesEntry;

    fn next(&mut self) -> Option<SeriesEntry> {
        if self.next == self.keys.len() {
            if self.error.is_some() {
                return None;
            }
            if let Err(e) = self.key_block() {
                self.error = Some(e);
                return None;
            }
        }
        let row = self.next;
        let key = *self.keys.get(row)?;
        self.next += 1;
        let values = if self.materialized {
            let len = self.summarizer.config().series_len;
            self.reader.block()[row * len..(row + 1) * len].to_vec()
        } else {
            Vec::new()
        };
        Some(SeriesEntry {
            key: key.raw(),
            id: self.first_id + row as u64,
            timestamp: 0,
            values,
        })
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
            let (got, _) = tree.knn(&q.values, 5, true, &CancelToken::never()).unwrap();
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
            let (got, cost) = tree.knn(&q.values, 1, true, &CancelToken::never()).unwrap();
            assert_eq!(got[0].id, expected[0].id);
            assert!(cost.raw_fetches < series.len() as u64);
        }
    }

    /// A spilled build deletes its sort's spill runs: the directory holds
    /// the leaves alone, and the index answers from them.
    #[test]
    fn spilled_build_leaves_no_spill_runs() {
        for materialized in [true, false] {
            let (dir, series, tree, _stats) = build_tree(2000, materialized, 64 * 1024, 2);
            assert!(tree.build_stats().sort_runs > 1, "expected spill runs");
            let names: Vec<String> = std::fs::read_dir(dir.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                names.iter().all(|n| !n.starts_with("dynsort-run-")),
                "{names:?}"
            );
            assert!(names.iter().any(|n| n == "ctree-leaves.run"), "{names:?}");
            let (got, _) = tree
                .knn(&series[7].values, 1, true, &CancelToken::never())
                .unwrap();
            assert_eq!(got[0].id, 7);
        }
    }

    /// Every row of a build past one scan block gets its own id and the key
    /// of its values, in a materialized entry its values too.
    #[test]
    fn block_scan_keys_every_row_in_place() {
        let (_dir, series, tree, _stats) = build_tree(2500, true, 1 << 20, 8);
        let summarizer = SortableSummarizer::new(tree.config().sax);
        let mut seen = vec![false; series.len()];
        for entry in tree.leaf_file().reader(256) {
            let entry = entry.unwrap();
            let s = &series[entry.id as usize];
            assert_eq!(entry.values, s.values);
            assert_eq!(entry.key, summarizer.key(&s.values).raw());
            seen[entry.id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn non_finite_archive_value_is_refused() {
        let dir = ScratchDir::new("ctree-nan").unwrap();
        let mut series = RandomWalkGenerator::new(64, 9).generate(1500);
        series[1200].values[5] = f32::INFINITY;
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let config = CTreeConfig::new(SaxConfig::new(64, 8, 8)).with_memory_budget(64 * 1024);
        let result = CTree::build(&dataset, config, dir.path(), IoStats::shared());
        match result {
            Err(IndexError::Config(message)) => {
                assert!(message.contains("value 5 is not finite"), "{message}")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        let left: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
        assert_eq!(left.len(), 1, "only the archive is left: {left:?}");
    }

    #[test]
    fn approximate_query_is_cheaper_than_exact() {
        let (_dir, _series, tree, _stats) = build_tree(1000, true, 1 << 20, 5);
        let mut gen = RandomWalkGenerator::new(64, 7);
        let q = gen.next_series();
        let (_a, approx_cost) = tree
            .knn(&q.values, 1, false, &CancelToken::never())
            .unwrap();
        let (_e, exact_cost) = tree.knn(&q.values, 1, true, &CancelToken::never()).unwrap();
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
        let (got, _) = tree.knn(&query, 1, true, &CancelToken::never()).unwrap();
        assert_eq!(got[0].id, target.id);

        // Force the merge and re-check.
        tree.merge_delta().unwrap();
        assert_eq!(tree.pending_delta(), 0);
        assert_eq!(tree.len(), 250);
        let (got, _) = tree.knn(&query, 1, true, &CancelToken::never()).unwrap();
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
