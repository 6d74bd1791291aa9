//! # coconut-ads
//!
//! ADS+-style baseline: an adaptive, top-down-built iSAX index.
//!
//! This crate re-implements the state-of-the-art baseline the paper compares
//! Coconut against.  The index is a tree of iSAX nodes built by *insertions*:
//! each incoming series descends from the root to the leaf whose
//! variable-cardinality iSAX word covers its summarization and is appended to
//! that leaf; when a leaf overflows it is *split* by promoting the cardinality
//! of one segment, redistributing its entries between two children.
//!
//! Leaves live on disk in a leaf file in which every leaf owns a
//! fixed-capacity region allocated when the leaf is created.  Because leaves
//! are created and filled in arrival order rather than key order, both
//! construction and querying touch the file at scattered offsets — the many
//! random I/Os the paper attributes to existing data series indexes.  An
//! in-memory insertion buffer (configurable budget) batches appends per leaf,
//! mirroring how ADS+ relies on buffering to remain practical.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::kernels::euclidean_early_abandon;
use coconut_ctree::query::{KnnHeap, QueryContext, QueryCost};
use coconut_ctree::{IndexError, Result};
use coconut_sax::breakpoints::BreakpointTable;
use coconut_sax::mindist::{mindist_paa_isax_sq, QueryBounds};
use coconut_sax::{InvSaxKey, IsaxWord, SaxConfig, SortableSummarizer};
use coconut_series::dataset::Dataset;
use coconut_series::distance::Neighbor;
use coconut_series::paa::paa;
use coconut_series::{Series, Timestamp};
use coconut_storage::iostats::IoStatsSnapshot;
use coconut_storage::{PagedFile, RecordLayout, SharedIoStats};

/// Configuration of the ADS+-style index.
#[derive(Debug, Clone, Copy)]
pub struct AdsConfig {
    /// Summarization configuration.
    pub sax: SaxConfig,
    /// Whether leaf entries embed the full series values.
    pub materialized: bool,
    /// Maximum number of entries per leaf before it splits.
    pub leaf_capacity: usize,
    /// Total number of entries that may be buffered in memory across all
    /// leaves before the buffers are flushed to disk.
    pub buffer_capacity: usize,
    /// Page size used for I/O accounting.
    pub page_size: usize,
}

impl AdsConfig {
    /// A reasonable default configuration for the given summarization.
    pub fn new(sax: SaxConfig) -> Self {
        AdsConfig {
            sax,
            materialized: false,
            leaf_capacity: 128,
            buffer_capacity: 16 * 1024,
            page_size: coconut_storage::DEFAULT_PAGE_SIZE,
        }
    }

    /// Enables or disables materialization.
    pub fn materialized(mut self, yes: bool) -> Self {
        self.materialized = yes;
        self
    }

    /// Sets the in-memory insertion buffer capacity (entries).
    pub fn with_buffer_capacity(mut self, entries: usize) -> Self {
        self.buffer_capacity = entries.max(1);
        self
    }

    /// Sets the leaf capacity (entries).
    pub fn with_leaf_capacity(mut self, entries: usize) -> Self {
        self.leaf_capacity = entries.max(2);
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

#[derive(Debug)]
enum Node {
    Internal {
        word: IsaxWord,
        /// Segment whose cardinality was promoted when this node split
        /// (retained for introspection / debugging output).
        #[allow(dead_code)]
        split_segment: usize,
        low: Box<Node>,
        high: Box<Node>,
    },
    Leaf {
        word: IsaxWord,
        leaf_id: usize,
    },
}

#[derive(Debug)]
struct LeafState {
    /// Entries currently on disk for this leaf.
    on_disk: u32,
    /// Entries buffered in memory, not yet written.
    buffered: Vec<SeriesEntry>,
    /// First entry slot of this leaf's disk region.
    region_start: u64,
    /// Entry slots allocated to this leaf's region.  Normally one region
    /// (`leaf_capacity`); overflowed leaves that reached maximum iSAX
    /// cardinality get relocated to geometrically larger spans.
    region_slots: u64,
}

/// Statistics collected while building an ADS+ index.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdsBuildStats {
    /// Wall-clock build time.
    pub elapsed: Duration,
    /// I/O performed during the build.
    pub io: IoStatsSnapshot,
    /// Number of leaf splits performed.
    pub splits: u64,
    /// Number of buffer flush rounds.
    pub flushes: u64,
    /// Index footprint on disk in bytes (allocated leaf regions).
    pub footprint_bytes: u64,
    /// Number of entries indexed.
    pub entries: u64,
}

/// The ADS+-style adaptive iSAX index.
pub struct AdsTree {
    config: AdsConfig,
    summarizer: SortableSummarizer,
    root: Node,
    leaves: Vec<LeafState>,
    leaf_file: Arc<PagedFile>,
    raw: Option<coconut_ctree::raw::RawSeriesSource>,
    stats: SharedIoStats,
    buffered_total: usize,
    entries: u64,
    splits: u64,
    flushes: u64,
    next_region: u64,
    build_stats: AdsBuildStats,
}

impl std::fmt::Debug for AdsTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdsTree")
            .field("entries", &self.entries)
            .field("leaves", &self.leaves.len())
            .field("materialized", &self.config.materialized)
            .finish()
    }
}

impl AdsTree {
    /// Creates an empty index whose leaf file lives in `dir`.
    pub fn new(config: AdsConfig, dir: &Path, stats: SharedIoStats) -> Result<Self> {
        let layout = config.layout();
        let leaf_path = dir.join("ads-leaves.bin");
        let _ = layout;
        let file = Arc::new(PagedFile::create_with_page_size(
            &leaf_path,
            Arc::clone(&stats),
            config.page_size,
        )?);
        let summarizer = SortableSummarizer::new(config.sax);
        let mut leaves = Vec::new();
        let root = Node::Leaf {
            word: IsaxWord::root(config.sax.segments),
            leaf_id: 0,
        };
        leaves.push(LeafState {
            on_disk: 0,
            buffered: Vec::new(),
            region_start: 0,
            region_slots: config.leaf_capacity as u64,
        });
        Ok(AdsTree {
            config,
            summarizer,
            root,
            leaves,
            leaf_file: file,
            raw: None,
            stats,
            buffered_total: 0,
            entries: 0,
            splits: 0,
            flushes: 0,
            next_region: 1,
            build_stats: AdsBuildStats::default(),
        })
    }

    /// Builds an index over every series of `dataset` by top-down insertion
    /// (the construction method the paper contrasts with Coconut's sorting).
    pub fn build(
        dataset: &Dataset,
        config: AdsConfig,
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
        let start = Instant::now();
        let before = stats.snapshot();
        let mut tree = AdsTree::new(config, dir, Arc::clone(&stats))?;
        for series in dataset.iter()? {
            let series = series?;
            tree.insert(&series, 0)?;
        }
        tree.flush_buffers()?;
        if !config.materialized {
            tree.attach_dataset(dataset.reopen()?)?;
        }
        tree.build_stats = AdsBuildStats {
            elapsed: start.elapsed(),
            io: stats.snapshot().since(&before),
            splits: tree.splits,
            flushes: tree.flushes,
            footprint_bytes: tree.footprint_bytes(),
            entries: tree.entries,
        };
        Ok(tree)
    }

    /// Attaches the raw dataset handle used for non-materialized
    /// refinement (ADS+ is the baseline: fetches stay on positioned reads).
    pub fn attach_dataset(&mut self, dataset: Dataset) -> Result<()> {
        self.raw = Some(coconut_ctree::raw::RawSeriesSource::new(
            dataset,
            coconut_storage::IoBackend::Pread,
        )?);
        Ok(())
    }

    /// Configuration of this index.
    pub fn config(&self) -> &AdsConfig {
        &self.config
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Returns `true` when no entry has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of leaf splits performed so far.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Build statistics (populated by [`AdsTree::build`]).
    pub fn build_stats(&self) -> AdsBuildStats {
        self.build_stats
    }

    /// On-disk footprint: every allocated leaf region, full or not — the
    /// sparse allocation the paper calls out as a storage bottleneck.
    pub fn footprint_bytes(&self) -> u64 {
        self.next_region * self.config.leaf_capacity as u64 * self.entry_size() as u64
    }

    fn entry_size(&self) -> usize {
        self.config.layout().record_size()
    }

    /// Inserts one series with the given arrival timestamp.
    pub fn insert(&mut self, series: &Series, timestamp: Timestamp) -> Result<()> {
        if series.len() != self.config.sax.series_len {
            return Err(IndexError::Config(format!(
                "inserted series length {} does not match index ({})",
                series.len(),
                self.config.sax.series_len
            )));
        }
        let entry = SeriesEntry::from_series(
            series,
            timestamp,
            &self.summarizer,
            self.config.materialized,
        );
        let sax = self
            .summarizer
            .decode(InvSaxKey::from_raw(entry.key, self.config.sax.key_bits()));
        let leaf_id = Self::descend(&self.root, &sax);
        self.leaves[leaf_id].buffered.push(entry);
        self.buffered_total += 1;
        self.entries += 1;
        if self.leaves[leaf_id].buffered.len() + self.leaves[leaf_id].on_disk as usize
            > self.config.leaf_capacity
        {
            self.split_leaf(leaf_id)?;
        }
        // Per-leaf buffering: each leaf gets an equal share of the global
        // buffer budget and is flushed to its own (scattered) disk region
        // when that share fills up.  This is what makes ADS+ construction
        // random-I/O bound once the buffer is small relative to the data.
        let per_leaf_quota = (self.config.buffer_capacity / self.leaves.len().max(1)).max(1);
        if self.leaves[leaf_id].buffered.len() >= per_leaf_quota {
            self.flush_leaf(leaf_id)?;
        }
        if self.buffered_total >= self.config.buffer_capacity {
            self.flush_buffers()?;
        }
        Ok(())
    }

    /// Inserts a batch of timestamped series.  A row of the wrong length
    /// rejects the whole batch before any of it is applied, as in the other
    /// variants.
    pub fn insert_batch(&mut self, series: &[Series], timestamp: Timestamp) -> Result<()> {
        if let Some(bad) = series
            .iter()
            .find(|s| s.len() != self.config.sax.series_len)
        {
            return Err(IndexError::Config(format!(
                "inserted series length {} does not match index ({})",
                bad.len(),
                self.config.sax.series_len
            )));
        }
        for s in series {
            self.insert(s, timestamp)?;
        }
        Ok(())
    }

    fn descend(node: &Node, sax: &coconut_sax::SaxWord) -> usize {
        match node {
            Node::Leaf { leaf_id, .. } => *leaf_id,
            Node::Internal { low, high, .. } => {
                if Self::node_word(low).covers(sax) {
                    Self::descend(low, sax)
                } else {
                    Self::descend(high, sax)
                }
            }
        }
    }

    fn node_word(node: &Node) -> &IsaxWord {
        match node {
            Node::Leaf { word, .. } => word,
            Node::Internal { word, .. } => word,
        }
    }

    fn split_leaf(&mut self, leaf_id: usize) -> Result<()> {
        // Load every entry of the leaf (disk + buffer).
        let mut entries = self.read_leaf_disk(leaf_id)?;
        entries.append(&mut self.leaves[leaf_id].buffered);
        // The leaf's buffered entries moved into `entries` above; recompute
        // the global buffered counter from the remaining leaf buffers.
        self.buffered_total = self.leaves.iter().map(|l| l.buffered.len()).sum();

        // Find the leaf node in the tree and split its word.
        let word = self.find_leaf_word(leaf_id).clone();
        let Some(split_segment) = word.next_split_segment() else {
            // Cannot refine further; allow the leaf to overflow its capacity.
            // Every entry (disk + buffer) now lives in `entries`, so the
            // disk region is logically empty — without resetting `on_disk`
            // the stale disk copies would be re-read on the next split and
            // re-written on the next flush, doubling the leaf every round.
            self.leaves[leaf_id].on_disk = 0;
            self.leaves[leaf_id].buffered = entries;
            self.buffered_total = self.leaves.iter().map(|l| l.buffered.len()).sum();
            return Ok(());
        };
        let (low_word, high_word) = word.split(split_segment);
        let low_id = leaf_id;
        let high_id = self.leaves.len();
        // The low child reuses the old leaf's disk region (now logically
        // empty); the high child gets a freshly allocated region.
        self.leaves[low_id].on_disk = 0;
        self.leaves[low_id].buffered = Vec::new();
        self.leaves.push(LeafState {
            on_disk: 0,
            buffered: Vec::new(),
            region_start: self.next_region * self.config.leaf_capacity as u64,
            region_slots: self.config.leaf_capacity as u64,
        });
        self.next_region += 1;
        self.splits += 1;

        // Redistribute entries between the two children (in memory; they will
        // be written on the next flush, as ADS+ does with its buffers).
        for entry in entries {
            let sax = self
                .summarizer
                .decode(InvSaxKey::from_raw(entry.key, self.config.sax.key_bits()));
            let target = if low_word.covers(&sax) {
                low_id
            } else {
                high_id
            };
            self.leaves[target].buffered.push(entry);
        }
        self.buffered_total = self.leaves.iter().map(|l| l.buffered.len()).sum();

        // Replace the leaf node with an internal node.
        Self::replace_leaf(
            &mut self.root,
            leaf_id,
            Node::Internal {
                word,
                split_segment,
                low: Box::new(Node::Leaf {
                    word: low_word,
                    leaf_id: low_id,
                }),
                high: Box::new(Node::Leaf {
                    word: high_word,
                    leaf_id: high_id,
                }),
            },
        );
        // A split that leaves one child over capacity triggers further splits.
        if self.leaves[low_id].buffered.len() > self.config.leaf_capacity {
            self.split_leaf(low_id)?;
        }
        if self.leaves[high_id].buffered.len() > self.config.leaf_capacity {
            self.split_leaf(high_id)?;
        }
        Ok(())
    }

    fn find_leaf_word(&self, leaf_id: usize) -> &IsaxWord {
        fn walk(node: &Node, leaf_id: usize) -> Option<&IsaxWord> {
            match node {
                Node::Leaf { word, leaf_id: id } => (*id == leaf_id).then_some(word),
                Node::Internal { low, high, .. } => {
                    walk(low, leaf_id).or_else(|| walk(high, leaf_id))
                }
            }
        }
        walk(&self.root, leaf_id).expect("leaf id must exist in the tree")
    }

    fn replace_leaf(node: &mut Node, leaf_id: usize, replacement: Node) {
        let is_target = matches!(node, Node::Leaf { leaf_id: id, .. } if *id == leaf_id);
        if is_target {
            *node = replacement;
            return;
        }
        if let Node::Internal { low, high, .. } = node {
            let in_low = contains_leaf(low, leaf_id);
            if in_low {
                Self::replace_leaf(low, leaf_id, replacement);
            } else {
                Self::replace_leaf(high, leaf_id, replacement);
            }
        }

        fn contains_leaf(node: &Node, leaf_id: usize) -> bool {
            match node {
                Node::Leaf { leaf_id: id, .. } => *id == leaf_id,
                Node::Internal { low, high, .. } => {
                    contains_leaf(low, leaf_id) || contains_leaf(high, leaf_id)
                }
            }
        }
    }

    /// Flushes the in-memory buffer of a single leaf to its disk region.
    fn flush_leaf(&mut self, leaf_id: usize) -> Result<()> {
        let entry_size = self.entry_size();
        let layout = self.config.layout();
        if self.leaves[leaf_id].buffered.is_empty() {
            return Ok(());
        }
        let total =
            self.leaves[leaf_id].on_disk as u64 + self.leaves[leaf_id].buffered.len() as u64;
        if total > self.leaves[leaf_id].region_slots {
            // The leaf overflowed its allocated span (it reached maximum
            // iSAX cardinality and can no longer split).  Relocate it to a
            // fresh span with geometric slack — writing past the span end
            // would corrupt the neighbouring leaf's region, and relocating
            // on every flush would make N flushes cost O(N^2) writes.
            let mut all = self.read_leaf_disk(leaf_id)?;
            let regions = (total * 2).div_ceil(self.config.leaf_capacity as u64);
            let leaf = &mut self.leaves[leaf_id];
            all.append(&mut leaf.buffered);
            leaf.region_start = self.next_region * self.config.leaf_capacity as u64;
            leaf.region_slots = regions * self.config.leaf_capacity as u64;
            leaf.on_disk = 0;
            leaf.buffered = all;
            self.next_region += regions;
        }
        let leaf = &mut self.leaves[leaf_id];
        let offset = (leaf.region_start + leaf.on_disk as u64) * entry_size as u64;
        let drained = leaf.buffered.len();
        let mut buf = vec![0u8; entry_size * drained];
        for (i, entry) in leaf.buffered.drain(..).enumerate() {
            layout.encode(&entry, &mut buf[i * entry_size..(i + 1) * entry_size]);
            leaf.on_disk += 1;
        }
        self.leaf_file.write_at(offset, &buf)?;
        self.buffered_total = self.buffered_total.saturating_sub(drained);
        self.flushes += 1;
        Ok(())
    }

    /// Flushes every in-memory leaf buffer to its disk region (random I/O:
    /// regions are scattered across the leaf file in creation order).
    pub fn flush_buffers(&mut self) -> Result<()> {
        for leaf_id in 0..self.leaves.len() {
            self.flush_leaf(leaf_id)?;
        }
        self.leaf_file.sync()?;
        self.buffered_total = 0;
        Ok(())
    }

    fn read_leaf_disk(&self, leaf_id: usize) -> Result<Vec<SeriesEntry>> {
        let leaf = &self.leaves[leaf_id];
        if leaf.on_disk == 0 {
            return Ok(Vec::new());
        }
        let entry_size = self.entry_size();
        let layout = self.config.layout();
        let start = leaf.region_start * entry_size as u64;
        let buf = self
            .leaf_file
            .read_at(start, entry_size * leaf.on_disk as usize)?;
        Ok(buf
            .chunks_exact(entry_size)
            .map(|c| layout.decode(c))
            .collect())
    }

    fn leaf_entries(&self, leaf_id: usize) -> Result<Vec<SeriesEntry>> {
        let mut entries = self.read_leaf_disk(leaf_id)?;
        entries.extend(self.leaves[leaf_id].buffered.iter().cloned());
        Ok(entries)
    }

    fn query_context(&self) -> QueryContext<'_> {
        match &self.raw {
            Some(raw) => QueryContext::non_materialized(raw, Arc::clone(&self.stats)),
            None => QueryContext::materialized(),
        }
    }

    fn refine_leaf(
        &self,
        leaf_id: usize,
        query: &[f32],
        bounds: &QueryBounds,
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<()> {
        ctx.cost.blocks_read += 1;
        for entry in self.leaf_entries(leaf_id)? {
            if let Some((start, end)) = window {
                if entry.timestamp < start || entry.timestamp > end {
                    continue;
                }
            }
            ctx.cost.entries_examined += 1;
            if bounds.key_bound_sq(entry.key) > heap.bound() {
                continue;
            }
            ctx.cost.entries_refined += 1;
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

    /// Approximate kNN: descends to the single leaf covering the query and
    /// refines only its entries.
    pub fn approximate_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        self.approximate_knn_window(query, k, None)
    }

    /// Approximate kNN restricted to a timestamp window.
    pub fn approximate_knn_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        let query_paa = paa(query, self.config.sax.segments);
        let sax = self.summarizer.sax(query);
        let leaf_id = Self::descend(&self.root, &sax);
        let mut heap = KnnHeap::new(k);
        let mut ctx = self.query_context();
        let bounds = QueryBounds::new(&query_paa, &self.config.sax);
        self.refine_leaf(leaf_id, query, &bounds, &mut heap, &mut ctx, window)?;
        let cost = ctx.cost;
        Ok((heap.into_sorted(), cost))
    }

    /// Exact kNN: best-first traversal of the node tree ordered by iSAX
    /// lower bound, refining leaves until the bound exceeds the best answer.
    pub fn exact_knn(&self, query: &[f32], k: usize) -> Result<(Vec<Neighbor>, QueryCost)> {
        self.exact_knn_window(query, k, None)
    }

    /// Exact kNN restricted to a timestamp window.
    pub fn exact_knn_window(
        &self,
        query: &[f32],
        k: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<(Vec<Neighbor>, QueryCost)> {
        let query_paa = paa(query, self.config.sax.segments);
        let bounds = QueryBounds::new(&query_paa, &self.config.sax);
        let mut heap = KnnHeap::new(k);
        let mut ctx = self.query_context();
        // Collect (lower bound, leaf) pairs over the whole tree.
        let mut leaves: Vec<(f64, usize)> = Vec::with_capacity(self.leaves.len());
        self.collect_leaf_bounds(&self.root, &query_paa, &mut leaves);
        leaves.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (lb, leaf_id) in leaves {
            if lb > heap.bound() {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            self.refine_leaf(leaf_id, query, &bounds, &mut heap, &mut ctx, window)?;
        }
        let cost = ctx.cost;
        Ok((heap.into_sorted(), cost))
    }

    fn collect_leaf_bounds(&self, node: &Node, query_paa: &[f64], out: &mut Vec<(f64, usize)>) {
        match node {
            Node::Leaf { word, leaf_id } => {
                let lb = mindist_paa_isax_sq(
                    query_paa,
                    word,
                    &self.config.sax,
                    BreakpointTable::global(),
                );
                out.push((lb, *leaf_id));
            }
            Node::Internal { low, high, .. } => {
                self.collect_leaf_bounds(low, query_paa, out);
                self.collect_leaf_bounds(high, query_paa, out);
            }
        }
    }

    /// Per-leaf occupancy (entries on disk + buffered), for the demo's
    /// visualization of how sparsely the index is populated.
    pub fn leaf_occupancy(&self) -> HashMap<usize, usize> {
        self.leaves
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.on_disk as usize + l.buffered.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_series::distance::brute_force_knn;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_storage::iostats::IoStats;
    use coconut_storage::ScratchDir;

    fn build_ads(
        n: usize,
        materialized: bool,
        buffer: usize,
        seed: u64,
    ) -> (ScratchDir, Vec<Series>, AdsTree, SharedIoStats) {
        let dir = ScratchDir::new("ads").unwrap();
        let sax = SaxConfig::new(64, 8, 8);
        let mut gen = RandomWalkGenerator::new(64, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
        let stats = IoStats::shared();
        let config = AdsConfig::new(sax)
            .materialized(materialized)
            .with_leaf_capacity(32)
            .with_buffer_capacity(buffer);
        let tree = AdsTree::build(&dataset, config, dir.path(), Arc::clone(&stats)).unwrap();
        (dir, series, tree, stats)
    }

    #[test]
    fn build_inserts_every_series_and_splits() {
        let (_dir, series, tree, _) = build_ads(500, true, 1 << 14, 1);
        assert_eq!(tree.len(), series.len() as u64);
        assert!(tree.num_leaves() > 4, "expected splits to create leaves");
        assert!(tree.splits() > 0);
        assert!(tree.footprint_bytes() > 0);
    }

    #[test]
    fn exact_knn_matches_brute_force_materialized() {
        let (_dir, series, tree, _) = build_ads(400, true, 1 << 14, 2);
        let mut gen = RandomWalkGenerator::new(64, 91);
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
                assert!((g.squared_distance - e.squared_distance).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn exact_knn_matches_brute_force_non_materialized() {
        let (_dir, series, tree, _) = build_ads(300, false, 1 << 14, 3);
        let mut gen = RandomWalkGenerator::new(64, 17);
        for _ in 0..5 {
            let q = gen.next_series();
            let expected = brute_force_knn(
                &q.values,
                series.iter().map(|s| (s.id, s.values.as_slice())),
                1,
            );
            let (got, cost) = tree.exact_knn(&q.values, 1).unwrap();
            assert_eq!(got[0].id, expected[0].id);
            assert!(cost.raw_fetches < 300);
        }
    }

    #[test]
    fn approximate_probe_touches_single_leaf() {
        let (_dir, series, tree, _) = build_ads(600, true, 1 << 14, 4);
        let target = &series[250];
        let query: Vec<f32> = target.values.iter().map(|v| v + 0.001).collect();
        let (got, cost) = tree.approximate_knn(&query, 1).unwrap();
        assert_eq!(cost.blocks_read, 1);
        // The approximate answer is usually the target itself; it must at
        // least be a close match.
        assert!(!got.is_empty());
        assert!(got[0].squared_distance < 5.0);
    }

    #[test]
    fn construction_issues_more_random_io_than_ctree_shape() {
        // The defining property of the baseline: a small insertion buffer
        // leads to a large fraction of random I/O during construction.
        let (_dir, _series, tree, _) = build_ads(1500, true, 256, 5);
        let io = tree.build_stats().io;
        assert!(io.total_writes() > 0);
        assert!(
            io.random_fraction() > 0.3,
            "ADS+ construction should be random-I/O heavy, got {}",
            io.random_fraction()
        );
    }

    #[test]
    fn larger_buffer_reduces_flushes() {
        let (_d1, _s1, small, _) = build_ads(800, true, 128, 6);
        let (_d2, _s2, large, _) = build_ads(800, true, 1 << 14, 6);
        assert!(small.build_stats().flushes > large.build_stats().flushes);
    }

    #[test]
    fn window_filtered_queries_respect_window() {
        let dir = ScratchDir::new("ads-window").unwrap();
        let sax = SaxConfig::new(32, 4, 8);
        let mut gen = RandomWalkGenerator::new(32, 7);
        let series = gen.generate(100);
        let stats = IoStats::shared();
        let config = AdsConfig::new(sax)
            .materialized(true)
            .with_leaf_capacity(16);
        let mut tree = AdsTree::new(config, dir.path(), stats).unwrap();
        for (i, s) in series.iter().enumerate() {
            tree.insert(s, (i as u64) * 10).unwrap();
        }
        tree.flush_buffers().unwrap();
        let q = gen.next_series();
        let (got, _) = tree
            .exact_knn_window(&q.values, 50, Some((200, 500)))
            .unwrap();
        assert!(!got.is_empty());
        for n in &got {
            assert!(n.id * 10 >= 200 && n.id * 10 <= 500);
        }
    }

    #[test]
    fn empty_tree_returns_no_neighbours() {
        let dir = ScratchDir::new("ads-empty").unwrap();
        let config = AdsConfig::new(SaxConfig::new(32, 4, 8)).materialized(true);
        let tree = AdsTree::new(config, dir.path(), IoStats::shared()).unwrap();
        let (got, _) = tree.exact_knn(&[0.0; 32], 3).unwrap();
        assert!(got.is_empty());
        let (got, _) = tree.approximate_knn(&[0.0; 32], 3).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn mismatched_series_length_rejected() {
        let dir = ScratchDir::new("ads-mismatch").unwrap();
        let config = AdsConfig::new(SaxConfig::new(32, 4, 8)).materialized(true);
        let mut tree = AdsTree::new(config, dir.path(), IoStats::shared()).unwrap();
        let bad = Series::new(0, vec![0.0; 16]);
        assert!(matches!(tree.insert(&bad, 0), Err(IndexError::Config(_))));
        // A batch with one bad row applies none of its rows.
        let batch = [Series::new(0, vec![0.5; 32]), bad];
        assert!(matches!(
            tree.insert_batch(&batch, 0),
            Err(IndexError::Config(_))
        ));
        assert_eq!(tree.len(), 0);
    }
}
