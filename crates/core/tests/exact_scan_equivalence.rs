//! Equivalence of the exact-scan inner loop with the loop it replaced.
//!
//! `SortedSeriesFile::{search_exact, search_approximate}` bound an entry
//! through a per-query distance table looked up straight from the raw key
//! bytes of the block, and decode an entry only once it survives.  The
//! contract is that nothing observable moved: for every partition file the
//! real indexes produce, the neighbours, the `QueryCost` and the logical
//! `IoStats` delta of a search equal those of the *reference scan* below —
//! the previous loop, kept here and nowhere else: decode every entry of the
//! block, invert its key bit by bit into an allocated SAX word, bound it
//! with `mindist_paa_sax_sq`, bound a block through an allocated iSAX word.
//!
//! Grid: CTree materialized / non-materialized, CLSM runs, BTP partitions
//! under windows that cut through blocks, `compression` off / prefix,
//! `io_backend` pread / mmap; random walks, an archive of duplicates and an
//! archive of constant series; pruning ceilings from "none" to "everything".

use std::sync::Arc;

use coconut_core::{
    CTree, CTreeConfig, ClsmConfig, ClsmTree, Compression, IoBackend, IoStats, QueryCost,
    SaxConfig, ScratchDir, SharedIoStats,
};
use coconut_ctree::kernels::euclidean_early_abandon;
use coconut_ctree::query::{KnnHeap, QueryContext};
use coconut_ctree::raw::RawSeriesSource;
use coconut_ctree::sorted_file::{BlockMeta, SortedSeriesFile};
use coconut_sax::breakpoints::{BreakpointTable, Breakpoints};
use coconut_sax::{
    mindist_paa_isax_sq, mindist_paa_sax_sq, InvSaxKey, IsaxSymbol, IsaxWord, SaxWord,
    SortableSummarizer,
};
use coconut_series::distance::Neighbor;
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::paa::paa;
use coconut_series::{Dataset, Series, Timestamp};
use coconut_stream::{PartitionedConfig, PartitionedStream, StreamingIndex};

type Window = Option<(Timestamp, Timestamp)>;

const SERIES_LEN: usize = 64;

fn sax() -> SaxConfig {
    SaxConfig::paper_default(SERIES_LEN)
}

/// The scan as it was before the table bound: the oracle of this file.
mod reference {
    use super::*;

    /// Bit-at-a-time inversion of the interleaved key.
    fn to_sax(key: u128, sax: &SaxConfig) -> SaxWord {
        let mut symbols = vec![0u8; sax.segments];
        for level in 0..sax.bits_per_segment as u32 {
            for (seg, symbol) in symbols.iter_mut().enumerate() {
                let pos_from_msb = level * sax.segments as u32 + seg as u32;
                let bit = ((key >> (sax.key_bits() - 1 - pos_from_msb)) & 1) as u8;
                *symbol = (*symbol << 1) | bit;
            }
        }
        SaxWord::from_symbols(symbols, sax.bits_per_segment)
    }

    fn block_mindist_sq(sax: &SaxConfig, block: &BlockMeta, query_paa: &[f64]) -> f64 {
        let width = sax.key_bits();
        let min = InvSaxKey::from_raw(block.min_key, width);
        let max = InvSaxKey::from_raw(block.max_key, width);
        let shared_bits = min.common_prefix_bits(&max);
        let segments = sax.segments as u32;
        let base_levels = (shared_bits / segments).min(sax.bits_per_segment as u32) as u8;
        let extra_segments = if base_levels >= sax.bits_per_segment {
            0
        } else {
            (shared_bits % segments) as usize
        };
        let word = to_sax(block.min_key, sax);
        let symbols: Vec<IsaxSymbol> = (0..sax.segments)
            .map(|seg| match base_levels + u8::from(seg < extra_segments) {
                0 => IsaxSymbol::ANY,
                bits => IsaxSymbol::new(word.symbol_at_bits(seg, bits), bits),
            })
            .collect();
        mindist_paa_isax_sq(
            query_paa,
            &IsaxWord::new(symbols),
            sax,
            &BreakpointTable::new(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_block(
        file: &SortedSeriesFile,
        sax: &SaxConfig,
        block: &BlockMeta,
        query: &[f32],
        query_paa: &[f64],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Window,
        prune_entries: bool,
    ) {
        ctx.cost.blocks_read += 1;
        let entries = file
            .run()
            .read_range(block.start, block.count as usize)
            .unwrap();
        let breakpoints = Breakpoints::new(sax.bits_per_segment);
        for entry in &entries {
            if let Some((start, end)) = window {
                if entry.timestamp < start || entry.timestamp > end {
                    continue;
                }
            }
            ctx.cost.entries_examined += 1;
            if prune_entries {
                let word = to_sax(entry.key, sax);
                let lb = mindist_paa_sax_sq(query_paa, &word, sax, &breakpoints);
                if lb > heap.bound() {
                    continue;
                }
            }
            ctx.cost.entries_refined += 1;
            let bound = heap.bound();
            let values = if entry.is_materialized() {
                entry.values.clone()
            } else {
                ctx.fetch(entry.id).unwrap().to_vec()
            };
            if let Some(d) = euclidean_early_abandon(query, &values, bound) {
                heap.offer_at(entry.id, entry.timestamp, d);
            }
        }
    }

    pub fn search_approximate(
        file: &SortedSeriesFile,
        sax: &SaxConfig,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Window,
    ) {
        let blocks = file.blocks();
        if blocks.is_empty() {
            return;
        }
        let query_paa = paa(query, sax.segments);
        let key = SortableSummarizer::new(*sax).key(query).raw();
        let target = file.locate_block(key).unwrap();
        let mut offsets: Vec<usize> = vec![target];
        let mut radius = 1usize;
        while offsets.len() < blocks.len() {
            let mut extended = false;
            if target + radius < blocks.len() {
                offsets.push(target + radius);
                extended = true;
            }
            if let Some(lo) = target.checked_sub(radius) {
                offsets.push(lo);
                extended = true;
            }
            if heap.bound() < f64::INFINITY || !extended {
                break;
            }
            radius += 1;
        }
        for idx in offsets {
            let block = blocks[idx];
            if !block.intersects_window(window) {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            scan_block(
                file, sax, &block, query, &query_paa, heap, ctx, window, false,
            );
            if heap.bound() < f64::INFINITY {
                break;
            }
        }
    }

    pub fn search_exact(
        file: &SortedSeriesFile,
        sax: &SaxConfig,
        query: &[f32],
        heap: &mut KnnHeap,
        ctx: &mut QueryContext<'_>,
        window: Window,
    ) {
        let blocks = file.blocks();
        if blocks.is_empty() {
            return;
        }
        let query_paa = paa(query, sax.segments);
        let mut ordered: Vec<(f64, usize)> = blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects_window(window))
            .map(|(i, b)| (block_mindist_sq(sax, b, &query_paa), i))
            .collect();
        ctx.cost.blocks_skipped += (blocks.len() - ordered.len()) as u64;
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (lb, idx) in ordered {
            if lb > heap.bound() {
                ctx.cost.blocks_skipped += 1;
                continue;
            }
            let block = blocks[idx];
            scan_block(
                file, sax, &block, query, &query_paa, heap, ctx, window, true,
            );
        }
    }
}

/// The partition files of one index, and what a search over them needs.
struct Partitions<'a> {
    label: String,
    files: Vec<&'a SortedSeriesFile>,
    /// The raw data file of a non-materialized index.
    raw: Option<&'a RawSeriesSource>,
    stats: SharedIoStats,
}

impl Partitions<'_> {
    fn context(&self) -> QueryContext<'_> {
        match self.raw {
            Some(raw) => QueryContext::non_materialized(raw, Arc::clone(&self.stats)),
            None => QueryContext::materialized(),
        }
    }
}

/// One search: what is asked of a partition file.
#[derive(Clone, Copy, Debug)]
struct Probe<'q> {
    query: &'q [f32],
    exact: bool,
    /// Frozen pruning bound the heap starts under (`+inf` = none).
    ceiling: f64,
    window: Window,
}

const K: usize = 5;

impl Probe<'_> {
    /// Runs the shipped search, or the reference one, over `file`; returns
    /// the neighbours, the cost and the heap's final pruning bound.
    fn run(
        &self,
        parts: &Partitions<'_>,
        file: &SortedSeriesFile,
        shipped: bool,
    ) -> (Vec<Neighbor>, QueryCost, f64) {
        let mut heap = KnnHeap::with_ceiling(K, self.ceiling);
        let mut ctx = parts.context();
        let (query, window) = (self.query, self.window);
        match (shipped, self.exact) {
            (true, true) => file
                .search_exact(query, &mut heap, &mut ctx, window)
                .unwrap(),
            (true, false) => file
                .search_approximate(query, &mut heap, &mut ctx, window)
                .unwrap(),
            (false, true) => {
                reference::search_exact(file, &sax(), query, &mut heap, &mut ctx, window)
            }
            (false, false) => {
                reference::search_approximate(file, &sax(), query, &mut heap, &mut ctx, window)
            }
        }
        let bound = heap.bound();
        (heap.into_sorted(), ctx.cost, bound)
    }
}

/// Every file × query × window × {exact, approximate} × ceiling: the shipped
/// search against the reference.  Returns how many exact searches pruned an
/// entry, so a caller can tell the per-entry bound was exercised.
fn assert_equivalent(parts: &Partitions<'_>, queries: &[Vec<f32>], windows: &[Window]) -> u64 {
    let mut pruned = 0;
    for (fi, file) in parts.files.iter().enumerate() {
        for (qi, query) in queries.iter().enumerate() {
            for &window in windows {
                // The k-th best of an unconstrained search gives ceilings
                // that prune some, most and all of the partition.
                let unconstrained = Probe {
                    query,
                    exact: true,
                    ceiling: f64::INFINITY,
                    window,
                };
                let (_, _, kth) = unconstrained.run(parts, file, true);
                for exact in [true, false] {
                    for ceiling in [f64::INFINITY, kth, kth * 0.25, 0.0] {
                        let probe = Probe {
                            query,
                            exact,
                            ceiling,
                            window,
                        };
                        let at = format!(
                            "{} file {fi} q{qi} window {window:?} exact={exact} ceiling={ceiling}",
                            parts.label
                        );
                        // Each path starts where an identical read sequence
                        // left the files' sequential/random classification
                        // cursors: the shipped search runs once unmeasured,
                        // then reference and shipped are measured in turn.
                        probe.run(parts, file, true);
                        let before = parts.stats.snapshot();
                        let (nn_ref, cost_ref, _) = probe.run(parts, file, false);
                        let between = parts.stats.snapshot();
                        let (nn, cost, _) = probe.run(parts, file, true);
                        let after = parts.stats.snapshot();
                        assert_eq!(nn, nn_ref, "neighbours differ ({at})");
                        assert_eq!(cost, cost_ref, "QueryCost differs ({at})");
                        assert_eq!(
                            after.since(&between).logical(),
                            between.since(&before).logical(),
                            "logical IoStats delta differs ({at})"
                        );
                        if exact && cost.entries_refined < cost.entries_examined {
                            pruned += 1;
                        }
                    }
                }
            }
        }
    }
    pruned
}

fn random_walks(n: usize, seed: u64) -> Vec<Series> {
    RandomWalkGenerator::new(SERIES_LEN, seed).generate(n)
}

/// `n` copies of one random walk: one key, every distance a tie.
fn duplicates(n: usize) -> Vec<Series> {
    let template = random_walks(1, 77).remove(0);
    (0..n as u64)
        .map(|id| Series::new(id, template.values.clone()))
        .collect()
}

/// `n` constant series over 37 levels: every PAA segment equal, symbols
/// reaching into both unbounded regions.
fn constants(n: usize) -> Vec<Series> {
    (0..n as u64)
        .map(|id| Series::new(id, vec![(id % 37) as f32 * 0.2 - 3.6; SERIES_LEN]))
        .collect()
}

fn queries_for(archive: &[Series]) -> Vec<Vec<f32>> {
    let mut queries: Vec<Vec<f32>> = random_walks(3, 4242)
        .into_iter()
        .map(|s| s.values)
        .collect();
    // A member of the archive (distance zero) and a near miss of one.
    queries.push(archive[archive.len() / 2].values.clone());
    queries.push(
        archive[archive.len() / 3]
            .values
            .iter()
            .map(|v| v + 0.01)
            .collect(),
    );
    queries
}

const KNOBS: [(Compression, IoBackend); 4] = [
    (Compression::Off, IoBackend::Pread),
    (Compression::Off, IoBackend::Mmap),
    (Compression::Prefix, IoBackend::Pread),
    (Compression::Prefix, IoBackend::Mmap),
];

#[test]
fn ctree_leaf_scan_matches_reference() {
    let dir = ScratchDir::new("scan-eq-ctree").unwrap();
    let archives = [
        ("walks", random_walks(1500, 2026)),
        ("duplicates", duplicates(400)),
        ("constants", constants(400)),
    ];
    let mut pruned = 0;
    for (name, archive) in &archives {
        let dataset =
            Dataset::create_from_series(dir.file(&format!("{name}.bin")), archive).unwrap();
        let queries = queries_for(archive);
        for materialized in [true, false] {
            for (compression, backend) in KNOBS {
                let label = format!("ctree {name} m={materialized} {compression} {backend}");
                let mut config = CTreeConfig::new(sax())
                    .materialized(materialized)
                    // Small enough that the build spills and merges runs.
                    .with_memory_budget(64 << 10)
                    .with_compression(compression)
                    .with_io_backend(backend);
                config.leaf_block_bytes = 4096;
                let stats = IoStats::shared();
                let tree_dir = dir.file(&label.replace(' ', "-"));
                std::fs::create_dir_all(&tree_dir).unwrap();
                let tree = CTree::build(&dataset, config, &tree_dir, Arc::clone(&stats)).unwrap();
                assert!(tree.num_blocks() > 3, "{label}");
                let raw = RawSeriesSource::new(dataset.reopen().unwrap(), backend).unwrap();
                let parts = Partitions {
                    label,
                    files: vec![tree.leaf_file()],
                    raw: (!materialized).then_some(&raw),
                    stats,
                };
                pruned += assert_equivalent(&parts, &queries, &[None]);
            }
        }
    }
    assert!(pruned > 0, "no search exercised the per-entry bound");
}

#[test]
fn clsm_run_scans_match_reference() {
    let dir = ScratchDir::new("scan-eq-clsm").unwrap();
    let archives = [
        ("walks", random_walks(1500, 909)),
        ("duplicates", duplicates(500)),
    ];
    for (name, archive) in &archives {
        let dataset =
            Dataset::create_from_series(dir.file(&format!("{name}.bin")), archive).unwrap();
        let queries = queries_for(archive);
        for materialized in [true, false] {
            for (compression, backend) in KNOBS {
                let label = format!("clsm {name} m={materialized} {compression} {backend}");
                let mut config = ClsmConfig::new(sax())
                    .materialized(materialized)
                    // Flushes, compactions and sharded runs all happen.
                    .with_buffer_capacity(128)
                    .with_shard_count(2)
                    .with_compression(compression)
                    .with_io_backend(backend);
                config.entries_per_block = 16;
                let stats = IoStats::shared();
                let tree = ClsmTree::build(
                    &dataset,
                    config,
                    &dir.file(&label.replace(' ', "-")),
                    Arc::clone(&stats),
                )
                .unwrap();
                let files: Vec<&SortedSeriesFile> = tree.shards().collect();
                assert!(!files.is_empty(), "{label}");
                let raw = RawSeriesSource::new(dataset.reopen().unwrap(), backend).unwrap();
                let parts = Partitions {
                    label,
                    files,
                    raw: (!materialized).then_some(&raw),
                    stats,
                };
                assert_equivalent(&parts, &queries, &[None]);
            }
        }
    }
}

#[test]
fn btp_partition_scans_match_reference_under_cutting_windows() {
    let dir = ScratchDir::new("scan-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(SERIES_LEN, 321, 0.1);
    let batches: Vec<_> = (0..12).map(|_| gen.next_batch(100)).collect();
    let last_ts = batches.last().unwrap().last().unwrap().timestamp;
    let mut queries = vec![gen.quake_template()];
    queries.extend(random_walks(2, 5).into_iter().map(|s| s.values));
    for (compression, backend) in KNOBS {
        let label = format!("btp {compression} {backend}");
        let mut config = PartitionedConfig::new(sax())
            .with_buffer_capacity(100)
            .with_compression(compression)
            .with_io_backend(backend);
        config.entries_per_block = 16;
        let stats = IoStats::shared();
        let mut stream = PartitionedStream::bounded_temporal_partitioning(
            config,
            &dir.file(&label.replace(' ', "-")),
            Arc::clone(&stats),
        )
        .unwrap();
        for batch in &batches {
            stream.ingest_batch(batch).unwrap();
        }
        stream.flush().unwrap();
        assert!(stream.merges > 0, "{label}: BTP never merged");
        let files: Vec<&SortedSeriesFile> = stream.sorted_partitions().collect();
        // A merged partition is key-ordered, so a block mixes arrival times
        // from its whole span: these windows keep part of most blocks.
        let windows = [
            None,
            Some((last_ts / 4, last_ts / 2)),
            Some((last_ts / 3, last_ts / 3 + 40)),
            Some((last_ts + 1, last_ts + 2)),
        ];
        let cut = files.iter().any(|f| {
            let (lo, hi) = windows[1].unwrap();
            f.blocks().iter().any(|b| b.min_ts < lo && b.max_ts > hi)
        });
        assert!(cut, "{label}: no block straddles the window");
        let parts = Partitions {
            label,
            files,
            raw: None,
            stats,
        };
        assert_equivalent(&parts, &queries, &windows);
    }
}
