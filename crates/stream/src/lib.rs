//! # coconut-stream
//!
//! Streaming window schemes for data series exploration (Section 3 of the
//! paper).  Queries over streams carry a temporal window of interest; the
//! three schemes differ in how they restrict the search to that window:
//!
//! * **Post-Processing (PP)** — a single index over everything; every entry's
//!   timestamp is examined during the search and out-of-window entries are
//!   discarded.  Cheap to maintain, but queries over small windows still
//!   touch the whole index.
//! * **Temporal Partitioning (TP)** — every buffer flush creates a new,
//!   never-merged partition tagged with its creation time range.  Queries
//!   read only partitions intersecting the window, but the number of
//!   partitions grows without bound, which hurts large-window and
//!   approximate queries.
//! * **Bounded Temporal Partitioning (BTP)** — enabled by sortable
//!   summarizations: partitions are sort-merged size-tieredly (newest data in
//!   small partitions, older data in progressively larger contiguous ones),
//!   so the partition count stays logarithmic while small-window queries
//!   still skip the bulk of the data.
//!
//! All three schemes implement the common [`StreamingIndex`] trait so the
//! benchmarks and the core facade can swap them freely.  PP can wrap either
//! the ADS+ baseline or CoconutLSM; TP supports sorted (Coconut) and ADS
//! partitions; BTP requires sorted partitions (that is the point).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use coconut_ads::{AdsConfig, AdsTree};
use coconut_clsm::ClsmTree;
use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::query::{KnnHeap, QueryContext, QueryCost};
use coconut_ctree::sorted_file::SortedSeriesFile;
use coconut_ctree::{check_series, IndexError, Result};
use coconut_parallel::CancelToken;
use coconut_sax::{SaxConfig, SortableSummarizer};
use coconut_series::distance::Neighbor;
use coconut_series::{Timestamp, TimestampedSeries};
use coconut_storage::{DynIterMerge, PerfKnobs, SharedIoStats};

/// Which windowing scheme a streaming index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowScheme {
    /// Post-processing: one index, timestamps filtered during the scan.
    PostProcessing,
    /// Temporal partitioning: one partition per buffer flush, never merged.
    TemporalPartitioning,
    /// Bounded temporal partitioning: size-tiered sort-merged partitions.
    BoundedTemporalPartitioning,
}

impl WindowScheme {
    /// Short name used in reports ("PP", "TP", "BTP").
    pub fn short_name(&self) -> &'static str {
        match self {
            WindowScheme::PostProcessing => "PP",
            WindowScheme::TemporalPartitioning => "TP",
            WindowScheme::BoundedTemporalPartitioning => "BTP",
        }
    }
}

/// Result of a windowed streaming query.
#[derive(Debug, Clone)]
pub struct StreamQueryResult {
    /// Nearest neighbours found, ascending distance.
    pub neighbors: Vec<Neighbor>,
    /// Cost counters accumulated during the query.
    pub cost: QueryCost,
    /// Partitions whose data was actually read.
    pub partitions_accessed: usize,
    /// Total partitions existing at query time.
    pub partitions_total: usize,
}

/// Common interface of all streaming index variants.
pub trait StreamingIndex {
    /// Ingests a batch of timestamped arrivals.
    fn ingest_batch(&mut self, batch: &[TimestampedSeries]) -> Result<()>;

    /// Answers a kNN query constrained to `window` (`None` = everything).
    fn query_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
        exact: bool,
    ) -> Result<StreamQueryResult>;

    /// Number of partitions (1 for PP schemes).
    fn num_partitions(&self) -> usize;

    /// Total entries ingested so far.
    fn len(&self) -> u64;

    /// Returns `true` when nothing has been ingested yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint in bytes.
    fn footprint_bytes(&self) -> u64;

    /// The durability barrier: writes the in-memory buffer out as a
    /// partition (or run), then waits until every partition finished so far
    /// is on the device and every merged-away one is unlinked.  Returns the
    /// first failed `fdatasync` since the last barrier, if any.
    fn sync(&mut self) -> Result<()>;
}

// ---------------------------------------------------------------------------
// Post-Processing (PP)
// ---------------------------------------------------------------------------

/// The mutable index a PP scheme wraps.
pub enum PpBackend {
    /// ADS+ baseline.
    Ads(AdsTree),
    /// CoconutLSM.
    Clsm(ClsmTree),
}

/// Post-processing scheme: a single index plus timestamp filtering.
pub struct PpStream {
    backend: PpBackend,
    entries: u64,
}

impl PpStream {
    /// Wraps an ADS+ index.
    pub fn over_ads(tree: AdsTree) -> Self {
        PpStream {
            backend: PpBackend::Ads(tree),
            entries: 0,
        }
    }

    /// Wraps a CoconutLSM index.
    pub fn over_clsm(tree: ClsmTree) -> Self {
        PpStream {
            backend: PpBackend::Clsm(tree),
            entries: 0,
        }
    }

    /// Access to the wrapped backend (for inspection in benchmarks).
    pub fn backend(&self) -> &PpBackend {
        &self.backend
    }
}

impl StreamingIndex for PpStream {
    fn ingest_batch(&mut self, batch: &[TimestampedSeries]) -> Result<()> {
        for arrival in batch {
            match &mut self.backend {
                PpBackend::Ads(t) => t.insert(&arrival.series, arrival.timestamp)?,
                PpBackend::Clsm(t) => t.insert(&arrival.series, arrival.timestamp)?,
            }
            self.entries += 1;
        }
        Ok(())
    }

    fn query_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
        exact: bool,
    ) -> Result<StreamQueryResult> {
        let (neighbors, cost) = match &self.backend {
            PpBackend::Ads(t) => t.knn(query, k, exact, window)?,
            PpBackend::Clsm(t) => t.knn(query, k, exact, window, &CancelToken::never())?,
        };
        Ok(StreamQueryResult {
            neighbors,
            cost,
            partitions_accessed: 1,
            partitions_total: 1,
        })
    }

    fn num_partitions(&self) -> usize {
        1
    }

    fn len(&self) -> u64 {
        self.entries
    }

    fn footprint_bytes(&self) -> u64 {
        match &self.backend {
            PpBackend::Ads(t) => t.footprint_bytes(),
            PpBackend::Clsm(t) => t.footprint_bytes(),
        }
    }

    fn sync(&mut self) -> Result<()> {
        match &mut self.backend {
            PpBackend::Ads(t) => t.flush_buffers()?,
            PpBackend::Clsm(t) => t.flush()?,
        }
        Ok(coconut_storage::durability::drain()?)
    }
}

// ---------------------------------------------------------------------------
// Temporal partitions (shared by TP and BTP)
// ---------------------------------------------------------------------------

/// What kind of structure each temporal partition uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// A sorted (Coconut-style) partition built by sorting the buffer.
    Sorted,
    /// An ADS+-style partition built by insertions.
    Ads,
}

enum Partition {
    Sorted {
        file: SortedSeriesFile,
        min_ts: Timestamp,
        max_ts: Timestamp,
    },
    Ads {
        tree: Box<AdsTree>,
        min_ts: Timestamp,
        max_ts: Timestamp,
    },
}

impl Partition {
    fn time_range(&self) -> (Timestamp, Timestamp) {
        match self {
            Partition::Sorted { min_ts, max_ts, .. } => (*min_ts, *max_ts),
            Partition::Ads { min_ts, max_ts, .. } => (*min_ts, *max_ts),
        }
    }

    fn intersects(&self, window: Option<(Timestamp, Timestamp)>) -> bool {
        match window {
            None => true,
            Some((start, end)) => {
                let (min_ts, max_ts) = self.time_range();
                min_ts <= end && max_ts >= start
            }
        }
    }

    fn len(&self) -> u64 {
        match self {
            Partition::Sorted { file, .. } => file.len(),
            Partition::Ads { tree, .. } => tree.len(),
        }
    }

    fn footprint(&self) -> u64 {
        match self {
            Partition::Sorted { file, .. } => file.byte_size(),
            Partition::Ads { tree, .. } => tree.footprint_bytes(),
        }
    }
}

/// Configuration shared by the TP and BTP schemes.
#[derive(Debug, Clone, Copy)]
pub struct PartitionedConfig {
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Number of arrivals buffered in memory before a partition is created
    /// (the paper's "in-memory buffer fills up").
    pub buffer_capacity: usize,
    /// Entries per block inside sorted partitions.
    pub entries_per_block: usize,
    /// Growth factor for BTP size-tiered merging.
    pub growth_factor: usize,
    /// Kind of structure used for each partition.
    pub partition_kind: PartitionKind,
    /// Page size used for I/O accounting.
    pub page_size: usize,
    /// The pure-performance knobs (default [`PerfKnobs::default`]).
    /// Sorted partitions and BTP merges read `io_backend` (mappings are
    /// dropped before a merge deletes its inputs); a BTP merge reads its
    /// inputs inline.  Partitions, answers, `QueryCost` and the logical
    /// `IoStats` are identical at every setting.
    pub knobs: PerfKnobs,
}

impl PartitionedConfig {
    /// A reasonable default configuration.
    pub fn new(sax: SaxConfig) -> Self {
        PartitionedConfig {
            sax,
            buffer_capacity: 1024,
            entries_per_block: 64,
            growth_factor: 3,
            partition_kind: PartitionKind::Sorted,
            page_size: coconut_storage::DEFAULT_PAGE_SIZE,
            knobs: PerfKnobs::default(),
        }
    }

    /// Sets the buffer capacity (arrivals per partition).
    pub fn with_buffer_capacity(mut self, entries: usize) -> Self {
        self.buffer_capacity = entries.max(1);
        self
    }

    /// Sets the BTP growth factor.
    pub fn with_growth_factor(mut self, t: usize) -> Self {
        assert!(t >= 2);
        self.growth_factor = t;
        self
    }

    /// Sets the partition kind.
    pub fn with_partition_kind(mut self, kind: PartitionKind) -> Self {
        self.partition_kind = kind;
        self
    }

    /// Sets the performance knobs; see [`PartitionedConfig::knobs`].
    pub fn with_knobs(mut self, knobs: PerfKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    fn layout(&self) -> EntryLayout {
        // Streaming partitions always materialize their entries: the raw
        // series only exist in the stream, there is no pre-existing raw data
        // file to point into (documented substitution in DESIGN.md).
        EntryLayout::materialized(self.sax.key_bits(), self.sax.series_len)
    }
}

/// A partitioned streaming index implementing TP or (with merging) BTP.
pub struct PartitionedStream {
    config: PartitionedConfig,
    scheme: WindowScheme,
    summarizer: SortableSummarizer,
    buffer: Vec<SeriesEntry>,
    buffer_min_ts: Timestamp,
    buffer_max_ts: Timestamp,
    partitions: Vec<Partition>,
    dir: PathBuf,
    stats: SharedIoStats,
    next_id: u64,
    entries: u64,
    /// Number of partition merges performed (BTP only).
    pub merges: u64,
}

impl Drop for PartitionedStream {
    /// Waits for the durability worker, so no queued sync or unlink of this
    /// stream's partitions outlives it (a later index may reuse the
    /// directory).  A failed sync stays with the worker for the next caller
    /// that can return it.
    fn drop(&mut self) {
        coconut_storage::durability::wait_idle();
    }
}

impl PartitionedStream {
    /// Creates a TP index (never merges partitions).
    pub fn temporal_partitioning(
        config: PartitionedConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<Self> {
        Self::new(config, WindowScheme::TemporalPartitioning, dir, stats)
    }

    /// Creates a BTP index (size-tiered partition merging).  Requires sorted
    /// partitions.
    pub fn bounded_temporal_partitioning(
        config: PartitionedConfig,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<Self> {
        if config.partition_kind != PartitionKind::Sorted {
            return Err(IndexError::Config(
                "BTP requires sortable (Coconut) partitions; ADS partitions cannot be sort-merged"
                    .into(),
            ));
        }
        Self::new(
            config,
            WindowScheme::BoundedTemporalPartitioning,
            dir,
            stats,
        )
    }

    fn new(
        config: PartitionedConfig,
        scheme: WindowScheme,
        dir: &Path,
        stats: SharedIoStats,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(coconut_storage::StorageError::from)?;
        Ok(PartitionedStream {
            config,
            scheme,
            summarizer: SortableSummarizer::new(config.sax),
            buffer: Vec::new(),
            buffer_min_ts: Timestamp::MAX,
            buffer_max_ts: 0,
            partitions: Vec::new(),
            dir: dir.to_path_buf(),
            stats,
            next_id: 0,
            entries: 0,
            merges: 0,
        })
    }

    /// The windowing scheme of this index.
    pub fn scheme(&self) -> WindowScheme {
        self.scheme
    }

    /// The sorted (Coconut-style) partitions, oldest first.
    pub fn sorted_partitions(&self) -> impl Iterator<Item = &SortedSeriesFile> {
        self.partitions.iter().filter_map(|p| match p {
            Partition::Sorted { file, .. } => Some(file),
            Partition::Ads { .. } => None,
        })
    }

    /// Flushes the in-memory buffer into a new partition.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.buffer);
        let (min_ts, max_ts) = (self.buffer_min_ts, self.buffer_max_ts);
        self.buffer_min_ts = Timestamp::MAX;
        self.buffer_max_ts = 0;
        let partition = match self.config.partition_kind {
            PartitionKind::Sorted => {
                let path = self.dir.join(format!("tp-part-{:06}.run", self.next_id));
                self.next_id += 1;
                let file = SortedSeriesFile::build_unsorted(
                    path,
                    self.config.layout(),
                    self.config.sax,
                    entries,
                    self.config.entries_per_block,
                    Arc::clone(&self.stats),
                    self.config.page_size,
                    self.config.knobs.io_backend,
                )?;
                Partition::Sorted {
                    file,
                    min_ts,
                    max_ts,
                }
            }
            PartitionKind::Ads => {
                let subdir = self.dir.join(format!("tp-ads-{:06}", self.next_id));
                self.next_id += 1;
                std::fs::create_dir_all(&subdir).map_err(coconut_storage::StorageError::from)?;
                let ads_config = AdsConfig::new(self.config.sax)
                    .materialized(true)
                    .with_leaf_capacity(self.config.entries_per_block);
                let mut tree = AdsTree::new(ads_config, &subdir, Arc::clone(&self.stats))?;
                for e in entries {
                    let series = coconut_series::Series::new(e.id, e.values.clone());
                    tree.insert(&series, e.timestamp)?;
                }
                tree.flush_buffers()?;
                Partition::Ads {
                    tree: Box::new(tree),
                    min_ts,
                    max_ts,
                }
            }
        };
        self.partitions.push(partition);
        if self.scheme == WindowScheme::BoundedTemporalPartitioning {
            self.merge_tiers()?;
        }
        Ok(())
    }

    /// Size-tiered merging: whenever `growth_factor` partitions share the
    /// same size tier, they are sort-merged into one partition of the next
    /// tier.  Newer data therefore stays in small partitions while older data
    /// accumulates into few large contiguous ones.
    fn merge_tiers(&mut self) -> Result<()> {
        let t = self.config.growth_factor as u64;
        loop {
            // Group partition indexes by their size tier.
            let mut by_tier: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
            for (i, p) in self.partitions.iter().enumerate() {
                let tier = size_tier(p.len(), self.config.buffer_capacity as u64, t);
                by_tier.entry(tier).or_default().push(i);
            }
            let Some((_, group)) = by_tier.into_iter().find(|(_, v)| v.len() >= t as usize) else {
                return Ok(());
            };
            // Merge the oldest `t` partitions of that tier.
            let mut to_merge: Vec<usize> = group.into_iter().take(t as usize).collect();
            to_merge.sort_unstable();
            let mut files = Vec::new();
            let mut min_ts = Timestamp::MAX;
            let mut max_ts = 0;
            // Remove from the back so indexes stay valid.
            for &idx in to_merge.iter().rev() {
                match self.partitions.remove(idx) {
                    Partition::Sorted {
                        file,
                        min_ts: a,
                        max_ts: b,
                    } => {
                        min_ts = min_ts.min(a);
                        max_ts = max_ts.max(b);
                        files.push(file);
                    }
                    Partition::Ads { .. } => {
                        return Err(IndexError::Config(
                            "BTP merging encountered an ADS partition".into(),
                        ))
                    }
                }
            }
            let layout = self.config.layout();
            let readers = files.iter().map(|f| f.run().reader(256)).collect();
            let merge = DynIterMerge::new(layout, readers)?;
            let path = self.dir.join(format!("btp-merged-{:06}.run", self.next_id));
            self.next_id += 1;
            let merged = SortedSeriesFile::build(
                path,
                layout,
                self.config.sax,
                merge.map(|r| r.map_err(IndexError::from)),
                self.config.entries_per_block,
                Arc::clone(&self.stats),
                self.config.page_size,
                self.config.knobs.io_backend,
            )?;
            // The inputs leave the disk behind the merged partition's sync.
            let retired = SortedSeriesFile::replace(&[&merged], files);
            self.partitions.push(Partition::Sorted {
                file: merged,
                min_ts,
                max_ts,
            });
            self.merges += 1;
            retired?;
        }
    }

    fn search_buffer(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) {
        for entry in &self.buffer {
            if let Some((start, end)) = window {
                if entry.timestamp < start || entry.timestamp > end {
                    continue;
                }
            }
            ctx.cost.entries_examined += 1;
            if let Some(d) =
                coconut_ctree::kernels::euclidean_early_abandon(query, &entry.values, heap.bound())
            {
                heap.offer_at(entry.id, entry.timestamp, d);
            }
        }
    }

    /// Search units in newest-first order: the buffer, then every partition
    /// whose time range intersects the window (the second value is how many
    /// partitions will be accessed).  The engine probes them in order
    /// around a best-so-far bound frozen from the merged seeds.
    fn query_units(
        &self,
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> (Vec<StreamUnit<'_>>, usize) {
        let mut units = Vec::with_capacity(self.partitions.len() + 1);
        if !self.buffer.is_empty() {
            units.push(StreamUnit {
                stream: self,
                k,
                window,
                part: StreamPart::Buffer,
            });
        }
        let mut accessed = 0;
        for partition in self.partitions.iter().rev() {
            if !partition.intersects(window) {
                continue;
            }
            accessed += 1;
            let part = match partition {
                Partition::Sorted { file, .. } => StreamPart::Sorted(file),
                Partition::Ads { tree, .. } => StreamPart::Ads(tree),
            };
            units.push(StreamUnit {
                stream: self,
                k,
                window,
                part,
            });
        }
        (units, accessed)
    }
}

#[derive(Clone, Copy)]
enum StreamPart<'a> {
    /// The in-memory arrival buffer.
    Buffer,
    /// A sorted (Coconut-style) temporal partition.
    Sorted(&'a SortedSeriesFile),
    /// An ADS+-style temporal partition.
    Ads(&'a AdsTree),
}

/// One independently searchable piece of a partitioned stream for the
/// query engine.  The query is supplied per search call so one
/// unit list serves both phases of a query.
struct StreamUnit<'a> {
    stream: &'a PartitionedStream,
    k: usize,
    window: Option<(Timestamp, Timestamp)>,
    part: StreamPart<'a>,
}

impl StreamUnit<'_> {
    fn search_ads(
        &self,
        tree: &AdsTree,
        query: &[f32],
        exact: bool,
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()> {
        // ADS partitions run their own traversal; fold their neighbours and
        // cost into this unit's heap and counters.
        let (neighbors, cost) = tree.knn(query, self.k, exact, self.window)?;
        ctx.cost = ctx.cost.plus(&cost);
        for n in neighbors {
            heap.offer_at(n.id, n.timestamp, n.squared_distance);
        }
        Ok(())
    }
}

impl coconut_ctree::engine::SearchUnit for StreamUnit<'_> {
    fn context(&self) -> QueryContext<'_> {
        // Streaming partitions always materialize their entries.
        QueryContext::materialized()
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
            StreamPart::Buffer => {
                self.stream.search_buffer(query, heap, ctx, self.window);
                Ok(())
            }
            StreamPart::Sorted(file) => file.search_approximate(query, heap, ctx, self.window),
            StreamPart::Ads(tree) => self.search_ads(tree, query, false, heap, ctx),
        }
    }

    fn search_exact(
        &self,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
    ) -> Result<()> {
        match self.part {
            StreamPart::Buffer => {
                self.stream.search_buffer(query, heap, ctx, self.window);
                Ok(())
            }
            StreamPart::Sorted(file) => file.search_exact(query, heap, ctx, self.window),
            StreamPart::Ads(tree) => self.search_ads(tree, query, true, heap, ctx),
        }
    }
}

fn size_tier(len: u64, base: u64, growth: u64) -> u32 {
    let base = base.max(1);
    let mut tier = 0u32;
    let mut cap = base;
    while len > cap {
        cap = cap.saturating_mul(growth);
        tier += 1;
    }
    tier
}

impl StreamingIndex for PartitionedStream {
    fn ingest_batch(&mut self, batch: &[TimestampedSeries]) -> Result<()> {
        for arrival in batch {
            check_series(
                "arrival series",
                &arrival.series.values,
                self.config.sax.series_len,
            )?;
        }
        // Apply arrivals in order (each carries its own timestamp).
        for arrival in batch {
            self.buffer.push(SeriesEntry::from_series(
                &arrival.series,
                arrival.timestamp,
                &self.summarizer,
                true,
            ));
            self.buffer_min_ts = self.buffer_min_ts.min(arrival.timestamp);
            self.buffer_max_ts = self.buffer_max_ts.max(arrival.timestamp);
            self.entries += 1;
            if self.buffer.len() >= self.config.buffer_capacity {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn query_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
        exact: bool,
    ) -> Result<StreamQueryResult> {
        let (units, accessed) = self.query_units(k, window);
        let (neighbors, cost) = coconut_ctree::engine::parallel_knn(&units, query, k, exact)?;
        Ok(StreamQueryResult {
            neighbors,
            cost,
            partitions_accessed: accessed,
            partitions_total: self.partitions.len(),
        })
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn len(&self) -> u64 {
        self.entries
    }

    fn footprint_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.footprint()).sum()
    }

    fn sync(&mut self) -> Result<()> {
        self.flush()?;
        Ok(coconut_storage::durability::drain()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::brute_force_knn;
    use coconut_series::generator::SeismicStreamGenerator;
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    fn stream_batches(n_batches: usize, batch: usize, seed: u64) -> Vec<Vec<TimestampedSeries>> {
        let mut gen = SeismicStreamGenerator::new(64, seed, 0.1);
        (0..n_batches).map(|_| gen.next_batch(batch)).collect()
    }

    fn all_series(batches: &[Vec<TimestampedSeries>]) -> Vec<(u64, Vec<f32>, Timestamp)> {
        batches
            .iter()
            .flatten()
            .map(|a| (a.series.id, a.series.values.clone(), a.timestamp))
            .collect()
    }

    fn sax() -> SaxConfig {
        SaxConfig::new(64, 8, 8)
    }

    #[test]
    fn tp_creates_unmerged_partitions() {
        let dir = ScratchDir::new("tp").unwrap();
        let config = PartitionedConfig::new(sax()).with_buffer_capacity(50);
        let mut tp =
            PartitionedStream::temporal_partitioning(config, dir.path(), IoStats::shared())
                .unwrap();
        for batch in stream_batches(10, 50, 1) {
            tp.ingest_batch(&batch).unwrap();
        }
        assert_eq!(tp.num_partitions(), 10);
        assert_eq!(tp.merges, 0);
        assert_eq!(tp.len(), 500);
    }

    /// Size-tiered merging at growth factor T leaves as many partitions as
    /// the base-T digit sum of the batches flushed: 27 = 1000 in base 3
    /// merges down to one partition, 26 = 222 leaves 6, the newest batch
    /// its own.
    #[test]
    fn btp_bounds_partition_count() {
        for (batches, partitions) in [(27, 1), (26, 6)] {
            let dir = ScratchDir::new("btp").unwrap();
            let config = PartitionedConfig::new(sax())
                .with_buffer_capacity(50)
                .with_growth_factor(3);
            let mut btp = PartitionedStream::bounded_temporal_partitioning(
                config,
                dir.path(),
                IoStats::shared(),
            )
            .unwrap();
            for batch in stream_batches(batches, 50, 2) {
                btp.ingest_batch(&batch).unwrap();
            }
            let digit_sum = (0..4).map(|d| batches / 3usize.pow(d) % 3).sum::<usize>();
            assert_eq!(digit_sum, partitions);
            assert!(btp.merges > 0, "BTP must have merged partitions");
            assert_eq!(btp.num_partitions(), partitions, "{batches} batches");
            assert_eq!(btp.len(), batches as u64 * 50);
        }
    }

    #[test]
    fn btp_rejects_ads_partitions() {
        let dir = ScratchDir::new("btp-ads").unwrap();
        let config = PartitionedConfig::new(sax()).with_partition_kind(PartitionKind::Ads);
        assert!(matches!(
            PartitionedStream::bounded_temporal_partitioning(config, dir.path(), IoStats::shared()),
            Err(IndexError::Config(_))
        ));
    }

    #[test]
    fn windowed_queries_are_exact_within_window() {
        let dir = ScratchDir::new("tp-exact").unwrap();
        let batches = stream_batches(8, 40, 3);
        let reference = all_series(&batches);
        let config = PartitionedConfig::new(sax()).with_buffer_capacity(40);
        let mut tp =
            PartitionedStream::temporal_partitioning(config, dir.path(), IoStats::shared())
                .unwrap();
        for batch in &batches {
            tp.ingest_batch(batch).unwrap();
        }
        let gen = SeismicStreamGenerator::new(64, 99, 0.5);
        let query = gen.quake_template();
        let window = (100u64, 250u64);
        let expected = brute_force_knn(
            &query,
            reference
                .iter()
                .filter(|(_, _, ts)| *ts >= window.0 && *ts <= window.1)
                .map(|(id, v, _)| (*id, v.as_slice())),
            3,
        );
        let result = tp.query_window(&query, 3, Some(window), true).unwrap();
        assert_eq!(result.neighbors.len(), 3);
        for (g, e) in result.neighbors.iter().zip(expected.iter()) {
            assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
        }
        // Partitions outside the window must have been skipped.
        assert!(result.partitions_accessed < result.partitions_total);
    }

    #[test]
    fn btp_queries_match_tp_queries() {
        let dir = ScratchDir::new("tp-vs-btp").unwrap();
        let batches = stream_batches(12, 40, 4);
        let tp_config = PartitionedConfig::new(sax()).with_buffer_capacity(40);
        let btp_config = PartitionedConfig::new(sax())
            .with_buffer_capacity(40)
            .with_growth_factor(3);
        let mut tp =
            PartitionedStream::temporal_partitioning(tp_config, &dir.file("tp"), IoStats::shared())
                .unwrap();
        let mut btp = PartitionedStream::bounded_temporal_partitioning(
            btp_config,
            &dir.file("btp"),
            IoStats::shared(),
        )
        .unwrap();
        for batch in &batches {
            tp.ingest_batch(batch).unwrap();
            btp.ingest_batch(batch).unwrap();
        }
        let mut gen = SeismicStreamGenerator::new(64, 5, 0.5);
        for _ in 0..5 {
            let q = gen.next_arrival().series.values;
            for window in [None, Some((50u64, 300u64))] {
                let a = tp.query_window(&q, 2, window, true).unwrap();
                let b = btp.query_window(&q, 2, window, true).unwrap();
                let da: Vec<_> = a.neighbors.iter().map(|n| n.squared_distance).collect();
                let db: Vec<_> = b.neighbors.iter().map(|n| n.squared_distance).collect();
                for (x, y) in da.iter().zip(db.iter()) {
                    assert!((x - y).abs() < 1e-6, "TP and BTP must agree");
                }
            }
        }
        assert!(btp.num_partitions() < tp.num_partitions());
    }

    #[test]
    fn pp_over_clsm_matches_brute_force() {
        let dir = ScratchDir::new("pp-clsm").unwrap();
        let batches = stream_batches(6, 50, 6);
        let reference = all_series(&batches);
        let clsm_config = coconut_clsm::ClsmConfig::new(sax())
            .materialized(true)
            .with_buffer_capacity(100);
        let clsm = ClsmTree::new(clsm_config, &dir.file("clsm"), IoStats::shared()).unwrap();
        let mut pp = PpStream::over_clsm(clsm);
        for batch in &batches {
            pp.ingest_batch(batch).unwrap();
        }
        assert_eq!(pp.len(), 300);
        let mut gen = SeismicStreamGenerator::new(64, 7, 0.5);
        let query = gen.next_arrival().series.values;
        let window = (60u64, 240u64);
        let expected = brute_force_knn(
            &query,
            reference
                .iter()
                .filter(|(_, _, ts)| *ts >= window.0 && *ts <= window.1)
                .map(|(id, v, _)| (*id, v.as_slice())),
            2,
        );
        let result = pp.query_window(&query, 2, Some(window), true).unwrap();
        for (g, e) in result.neighbors.iter().zip(expected.iter()) {
            assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
        }
    }

    #[test]
    fn pp_over_ads_ingests_and_queries() {
        let dir = ScratchDir::new("pp-ads").unwrap();
        let ads_config = AdsConfig::new(sax())
            .materialized(true)
            .with_leaf_capacity(32);
        let ads = AdsTree::new(ads_config, dir.path(), IoStats::shared()).unwrap();
        let mut pp = PpStream::over_ads(ads);
        let batches = stream_batches(4, 30, 8);
        for batch in &batches {
            pp.ingest_batch(batch).unwrap();
        }
        assert_eq!(pp.len(), 120);
        let q = batches[1][5].series.values.clone();
        let result = pp.query_window(&q, 1, None, true).unwrap();
        assert_eq!(result.neighbors[0].id, batches[1][5].series.id);
    }

    #[test]
    fn small_window_skips_more_partitions_than_large_window() {
        let dir = ScratchDir::new("tp-window-skip").unwrap();
        let config = PartitionedConfig::new(sax()).with_buffer_capacity(40);
        let mut tp =
            PartitionedStream::temporal_partitioning(config, dir.path(), IoStats::shared())
                .unwrap();
        for batch in stream_batches(15, 40, 9) {
            tp.ingest_batch(&batch).unwrap();
        }
        let mut gen = SeismicStreamGenerator::new(64, 11, 0.5);
        let q = gen.next_arrival().series.values;
        let small = tp.query_window(&q, 1, Some((560, 599)), true).unwrap();
        let large = tp.query_window(&q, 1, Some((0, 599)), true).unwrap();
        assert!(small.partitions_accessed < large.partitions_accessed);
        assert_eq!(large.partitions_accessed, large.partitions_total);
    }
}
