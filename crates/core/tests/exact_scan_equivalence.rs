//! The scan inner loop against the loop it replaced: the cost-monotonicity
//! harness.
//!
//! `SortedSeriesFile::{search_exact, search_approximate}` bound an entry
//! through a per-query distance table looked up straight from the raw key
//! bytes of the block, decode an entry only once it survives, and — where a
//! refinement is a raw fetch — refine a block's survivors best-first.  The
//! *reference scan* below is the previous loop, kept here and nowhere else:
//! decode every entry of the block, invert its key bit by bit into an
//! allocated SAX word, bound it with `mindist_paa_sax_sq`, refine in file
//! order, bound a block through an allocated iSAX word; its approximate
//! probe refines every entry of the block with no bound.
//!
//! The contract, for every partition file the real indexes produce:
//! * neighbours equal the reference's, and an exact search's equal the
//!   brute-force oracle's;
//! * on a materialized file the `QueryCost` and the logical `IoStats` delta
//!   equal the reference's, and the physical bytes read never exceed the
//!   reference's and fall on random walks: they are exactly a
//!   block's heads plus the values of the entries whose bound the heap's
//!   bound at block start leaves, read in ranges that bridge gaps of at most
//!   one page, as the reference counts — never more than the heads plus the
//!   span from the first to the last such entry, and fewer summed over a
//!   windowed archive whose blocks are wider than that gap;
//! * on a raw-fetch file `entries_examined`, `blocks_read` and
//!   `blocks_skipped` equal the reference's, every refinement is one fetch,
//!   the fetches are the only I/O that moved, and summed over an archive's
//!   query set they never rise — and fall on random walks.
//!
//! Grid: CTree materialized / non-materialized, CLSM runs, BTP partitions
//! of 16- and 64-entry blocks under windows that cut through blocks, ADS+
//! leaves, `io_backend` pread / mmap; random
//! walks, an archive of duplicates and an archive of constant series;
//! pruning ceilings from "none" to "everything".

use std::sync::Arc;

use coconut_core::{
    AdsConfig, AdsTree, CTree, CTreeConfig, ClsmConfig, ClsmTree, IoBackend, IoStats,
    IoStatsSnapshot, PerfKnobs, QueryCost, SaxConfig, ScratchDir, SharedIoStats,
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

/// Physical bytes of a materialized block scan as the reference counts
/// them, heads included.
#[derive(Clone, Copy, Debug, Default)]
struct Reads {
    /// The values of the kept entries, gaps of at most one page bridged.
    planned: u64,
    /// The values from the first to the last kept entry.
    span: u64,
}

/// The scan as it was before the table bound and the best-first refine.
mod reference {
    use super::*;

    /// Value tails read for the `kept` slots (ascending): each kept tail,
    /// plus the unkept ones between two kept slots whose gap is at most one
    /// page (4 KiB) of tails.
    fn planned_tails(kept: &[usize]) -> usize {
        let page_entries = 4096 / (SERIES_LEN * 4);
        let bridged: usize = kept
            .windows(2)
            .map(|pair| pair[1] - pair[0] - 1)
            .filter(|&gap| gap <= page_entries)
            .sum();
        kept.len() + bridged
    }

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

    /// `reads` gains what the shipped scan of a materialized block reads —
    /// every head, then the values of the entries in the window whose bound
    /// does not exceed the heap's at block start, in planned ranges — and
    /// what a read of their first-to-last span would.
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
        reads: &mut Reads,
    ) {
        ctx.cost.blocks_read += 1;
        let entries = file
            .run()
            .read_range(block.start, block.count as usize)
            .unwrap();
        let breakpoints = Breakpoints::new(sax.bits_per_segment);
        let in_window = |ts: Timestamp| window.is_none_or(|(start, end)| start <= ts && ts <= end);
        let survivors: Vec<usize> = (0..entries.len())
            .filter(|&slot| {
                let entry = &entries[slot];
                let word = to_sax(entry.key, sax);
                in_window(entry.timestamp)
                    && (!prune_entries
                        || mindist_paa_sax_sq(query_paa, &word, sax, &breakpoints) <= heap.bound())
            })
            .collect();
        let span = survivors
            .first()
            .map_or(0, |f| survivors.last().unwrap() - f + 1);
        let bytes = |tails: usize| (entries.len() * 32 + tails * SERIES_LEN * 4) as u64;
        reads.planned += bytes(planned_tails(&survivors));
        reads.span += bytes(span);
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
        reads: &mut Reads,
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
                file, sax, &block, query, &query_paa, heap, ctx, window, false, reads,
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
        reads: &mut Reads,
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
                file, sax, &block, query, &query_paa, heap, ctx, window, true, reads,
            );
        }
    }
}

/// The partition files of one index, and what a search over them needs.
struct Partitions<'a> {
    label: String,
    files: Vec<&'a SortedSeriesFile>,
    /// The raw data file of a non-materialized index, and its series by id.
    raw: Option<(&'a RawSeriesSource, &'a [Series])>,
    stats: SharedIoStats,
}

impl Partitions<'_> {
    fn context(&self) -> QueryContext<'_> {
        match self.raw {
            Some((raw, _)) => QueryContext::non_materialized(raw, Arc::clone(&self.stats)),
            None => QueryContext::materialized(),
        }
    }

    /// Every entry of `file` with its values, for the brute-force oracle.
    fn entries(&self, file: &SortedSeriesFile) -> Vec<Candidate> {
        file.reader(64)
            .map(|entry| {
                let entry = entry.unwrap();
                let values = match self.raw {
                    Some((_, series)) => series[entry.id as usize].values.clone(),
                    None => entry.values,
                };
                (entry.id, entry.timestamp, values)
            })
            .collect()
    }
}

/// `(id, timestamp, values)` of one entry, as the oracle sees it.
type Candidate = (u64, Timestamp, Vec<f32>);

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
    /// the neighbours, the cost, the heap's final pruning bound and — from
    /// the reference — the bytes a materialized scan reads.
    fn run(
        &self,
        parts: &Partitions<'_>,
        file: &SortedSeriesFile,
        shipped: bool,
    ) -> (Vec<Neighbor>, QueryCost, f64, Reads) {
        let mut heap = KnnHeap::with_ceiling(K, self.ceiling);
        let mut ctx = parts.context();
        let (query, window) = (self.query, self.window);
        let mut reads = Reads::default();
        match (shipped, self.exact) {
            (true, true) => file
                .search_exact(query, &mut heap, &mut ctx, window)
                .unwrap(),
            (true, false) => file
                .search_approximate(query, &mut heap, &mut ctx, window)
                .unwrap(),
            (false, true) => reference::search_exact(
                file,
                &sax(),
                query,
                &mut heap,
                &mut ctx,
                window,
                &mut reads,
            ),
            (false, false) => reference::search_approximate(
                file,
                &sax(),
                query,
                &mut heap,
                &mut ctx,
                window,
                &mut reads,
            ),
        }
        let bound = heap.bound();
        (heap.into_sorted(), ctx.cost, bound, reads)
    }

    /// What an exact search must answer: the top-k, in the
    /// `(distance, id, timestamp)` order, of the entries in the window
    /// whose distance does not exceed the ceiling.
    fn oracle(&self, entries: &[Candidate]) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = entries
            .iter()
            .filter(|(_, ts, _)| {
                self.window
                    .is_none_or(|(start, end)| start <= *ts && *ts <= end)
            })
            .filter_map(|(id, ts, values)| {
                euclidean_early_abandon(self.query, values, self.ceiling)
                    .map(|d| Neighbor::new_at(*id, *ts, d))
            })
            .collect();
        all.sort();
        all.truncate(K);
        all
    }
}

/// What [`assert_equivalent`] saw: how many exact searches pruned an entry
/// (so a caller can tell the per-entry bound was exercised), and the
/// refinements and physical bytes read of the shipped and the reference
/// searches, summed; on a materialized file, also what
/// reading each block's first-to-last value span would have cost.
#[derive(Debug, Default)]
struct Totals {
    pruned: u64,
    refined: u64,
    reference_refined: u64,
    physical: u64,
    reference_physical: u64,
    span_physical: u64,
}

/// Every file × query × window × {exact, approximate} × ceiling: the shipped
/// search against the reference and the brute-force oracle.
///
/// Answers must be equal everywhere.  A materialized file must also match
/// the reference's `QueryCost` and logical `IoStats` exactly, and read no
/// more physical bytes than the reference does.  A raw-fetch
/// file refines best-first, so there only `entries_examined`,
/// `blocks_read` and `blocks_skipped` must match, every refinement is one
/// fetch, and the fetches are the only I/O that moved; whether they fell
/// is for the caller to judge from the [`Totals`].
fn assert_equivalent(parts: &Partitions<'_>, queries: &[Vec<f32>], windows: &[Window]) -> Totals {
    let mut totals = Totals::default();
    let fetch_bytes = (SERIES_LEN * 4) as u64;
    for (fi, file) in parts.files.iter().enumerate() {
        let entries = parts.entries(file);
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
                let (_, _, kth, _) = unconstrained.run(parts, file, true);
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
                        let (nn_ref, cost_ref, _, reads) = probe.run(parts, file, false);
                        let between = parts.stats.snapshot();
                        let (nn, cost, _, _) = probe.run(parts, file, true);
                        let after = parts.stats.snapshot();
                        assert_eq!(nn, nn_ref, "neighbours differ ({at})");
                        if exact {
                            assert_eq!(nn, probe.oracle(&entries), "not the oracle's ({at})");
                        }
                        let (io, io_ref) = (after.since(&between), between.since(&before));
                        let (physical, physical_ref) =
                            (io.physical_bytes_read, io_ref.physical_bytes_read);
                        let (io, io_ref) = (io.logical(), io_ref.logical());
                        if parts.raw.is_none() {
                            assert_eq!(cost, cost_ref, "QueryCost differs ({at})");
                            assert_eq!(io, io_ref, "logical IoStats delta differs ({at})");
                            assert!(
                                physical <= physical_ref,
                                "read {physical} physical bytes, the reference \
                                 {physical_ref} ({at})"
                            );
                            // The bytes are exactly the heads of every block
                            // read and each block's planned value ranges,
                            // which lie inside its span.
                            assert_eq!(physical, reads.planned, "heads + planned ranges ({at})");
                            assert!(reads.planned <= reads.span, "{at}");
                            totals.span_physical += reads.span;
                            totals.physical += physical;
                            totals.reference_physical += physical_ref;
                        } else {
                            let pruning = |c: QueryCost| {
                                (c.entries_examined, c.blocks_read, c.blocks_skipped)
                            };
                            assert_eq!(pruning(cost), pruning(cost_ref), "pruning differs ({at})");
                            assert_eq!(cost.entries_refined, cost.raw_fetches, "{at}");
                            assert_eq!(cost_ref.entries_refined, cost_ref.raw_fetches, "{at}");
                            // Logical I/O differs by the fetches alone.
                            let unfetched = |mut s: IoStatsSnapshot, fetches: u64| {
                                s.random_reads -= fetches;
                                s.bytes_read -= fetches * fetch_bytes;
                                s
                            };
                            assert_eq!(
                                unfetched(io, cost.raw_fetches),
                                unfetched(io_ref, cost_ref.raw_fetches),
                                "logical IoStats beyond the fetches differ ({at})"
                            );
                        }
                        totals.refined += cost.entries_refined;
                        totals.reference_refined += cost_ref.entries_refined;
                        if exact && cost.entries_refined < cost.entries_examined {
                            totals.pruned += 1;
                        }
                    }
                }
            }
        }
    }
    totals
}

/// The fetch contract of a raw-fetch archive: never more refinements than
/// the file-order reference over the archive's query set, and strictly
/// fewer on random walks (where bounds spread out).
fn assert_fetches_fall(totals: &Totals, walks: bool, label: &str) {
    assert!(
        totals.refined <= totals.reference_refined,
        "{label}: best-first refined more ({totals:?})"
    );
    if walks {
        assert!(
            totals.refined < totals.reference_refined,
            "{label}: best-first saved no fetch ({totals:?})"
        );
    }
}

/// The physical-bytes contract of a materialized file: summed over a query
/// set, strictly fewer bytes than the reference's whole-record block reads
/// on random walks (where bounds spread out); never more holds per probe.
fn assert_physical_bytes_fall(totals: &Totals, walks: bool, label: &str) {
    assert!(
        totals.physical <= totals.reference_physical,
        "{label}: read more physical bytes ({totals:?})"
    );
    if walks {
        assert!(
            totals.physical < totals.reference_physical,
            "{label}: the value span saved no physical byte ({totals:?})"
        );
    }
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

const BACKENDS: [IoBackend; 2] = [IoBackend::Pread, IoBackend::Mmap];

fn knobs(io_backend: IoBackend) -> PerfKnobs {
    PerfKnobs {
        io_backend,
        ..PerfKnobs::default()
    }
}

/// One CTree per archive × layout × knob setting, small enough that the
/// build spills and merges runs; `visit` sees each with its label.
fn for_each_ctree(
    dir: &ScratchDir,
    archives: &[(&str, Vec<Series>)],
    layouts: &[bool],
    mut visit: impl FnMut(&str, &[Series], Partitions<'_>),
) {
    for (name, archive) in archives {
        let dataset =
            Dataset::create_from_series(dir.file(&format!("{name}.bin")), archive).unwrap();
        for &materialized in layouts {
            for backend in BACKENDS {
                let label = format!("ctree {name} m={materialized} {backend}");
                let mut config = CTreeConfig::new(sax())
                    .materialized(materialized)
                    .with_memory_budget(64 << 10)
                    .with_knobs(knobs(backend));
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
                    raw: (!materialized).then_some((&raw, archive.as_slice())),
                    stats,
                };
                visit(name, archive, parts);
            }
        }
    }
}

/// Random walks, an archive of duplicates and one of constants.
fn archives(walks_seed: u64) -> [(&'static str, Vec<Series>); 3] {
    [
        ("walks", random_walks(1500, walks_seed)),
        ("duplicates", duplicates(400)),
        ("constants", constants(400)),
    ]
}

#[test]
fn ctree_leaf_scan_matches_reference() {
    let dir = ScratchDir::new("scan-eq-ctree").unwrap();
    let mut pruned = 0;
    for_each_ctree(
        &dir,
        &archives(2026),
        &[true, false],
        |name, archive, parts| {
            let totals = assert_equivalent(&parts, &queries_for(archive), &[None]);
            if parts.raw.is_some() {
                assert_fetches_fall(&totals, name == "walks", &parts.label);
            } else {
                assert_physical_bytes_fall(&totals, name == "walks", &parts.label);
            }
            pruned += totals.pruned;
        },
    );
    assert!(pruned > 0, "no search exercised the per-entry bound");
}

/// The approximate probe of a raw-fetch file bounds its entries and refines
/// them best-first; its answer must still be the unbounded probe's (the
/// reference refines every entry of the block), at several `k`, on ties
/// (duplicates, constants) as on walks — after fewer fetches.
#[test]
fn bounded_approximate_probe_matches_unbounded_reference() {
    let dir = ScratchDir::new("scan-eq-approx").unwrap();
    for_each_ctree(&dir, &archives(4711), &[false], |name, archive, parts| {
        let file = parts.files[0];
        let mut queries = queries_for(archive);
        queries.extend(random_walks(12, 99).into_iter().map(|s| s.values));
        let (mut refined, mut reference_refined) = (0, 0);
        for (qi, query) in queries.iter().enumerate() {
            for k in [1, K, 40] {
                let at = format!("{} q{qi} k={k}", parts.label);
                let probe = |shipped: bool| {
                    let mut heap = KnnHeap::new(k);
                    let mut ctx = parts.context();
                    if shipped {
                        file.search_approximate(query, &mut heap, &mut ctx, None)
                            .unwrap();
                    } else {
                        reference::search_approximate(
                            file,
                            &sax(),
                            query,
                            &mut heap,
                            &mut ctx,
                            None,
                            &mut Reads::default(),
                        );
                    }
                    (heap.into_sorted(), ctx.cost)
                };
                let (nn_ref, cost_ref) = probe(false);
                let (nn, cost) = probe(true);
                assert_eq!(nn, nn_ref, "neighbours differ ({at})");
                assert_eq!(
                    (cost.entries_examined, cost.blocks_read, cost.blocks_skipped),
                    (
                        cost_ref.entries_examined,
                        cost_ref.blocks_read,
                        cost_ref.blocks_skipped
                    ),
                    "{at}"
                );
                assert_eq!(cost.entries_refined, cost.raw_fetches, "{at}");
                assert!(cost.raw_fetches <= cost_ref.raw_fetches, "{at}");
                refined += cost.raw_fetches;
                reference_refined += cost_ref.raw_fetches;
            }
        }
        if name == "walks" {
            assert!(
                refined * 2 < reference_refined,
                "{}: the bounded probe fetched {refined} of {reference_refined}",
                parts.label
            );
        }
    });
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
            for backend in BACKENDS {
                let label = format!("clsm {name} m={materialized} {backend}");
                let mut config = ClsmConfig::new(sax())
                    .materialized(materialized)
                    // Flushes, compactions and sharded runs all happen.
                    .with_buffer_capacity(128)
                    .with_shard_count(2)
                    .with_knobs(knobs(backend));
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
                    raw: (!materialized).then_some((&raw, archive.as_slice())),
                    stats,
                };
                let totals = assert_equivalent(&parts, &queries, &[None]);
                if materialized {
                    assert_physical_bytes_fall(&totals, *name == "walks", &parts.label);
                } else {
                    assert_fetches_fall(&totals, *name == "walks", &parts.label);
                }
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
    for (backend, entries_per_block) in BACKENDS
        .into_iter()
        .flat_map(|backend| [(backend, 16), (backend, 64)])
    {
        let label = format!("btp {backend} block={entries_per_block}");
        let mut config = PartitionedConfig::new(sax())
            .with_buffer_capacity(100)
            .with_knobs(knobs(backend));
        config.entries_per_block = entries_per_block;
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
        let totals = assert_equivalent(&parts, &queries, &windows);
        assert_physical_bytes_fall(&totals, true, &parts.label);
        // A window keeps scattered entries of a key-ordered block: past one
        // page of tails, the gaps between them are left unread.
        if entries_per_block == 64 {
            assert!(
                totals.physical < totals.span_physical,
                "{}: the planned ranges saved nothing on the spans ({totals:?})",
                parts.label
            );
        }
    }
}

/// A key-only scan of a materialized partition reads the heads
/// file alone — 32 physical bytes per entry, not one of its values — while
/// the logical view is charged the whole entries, as a row read would be.
#[test]
fn key_scans_of_an_uncompressed_materialized_file_read_heads_only() {
    let dir = ScratchDir::new("scan-eq-keys").unwrap();
    let archive = random_walks(1500, 77);
    let dataset = Dataset::create_from_series(dir.file("walks.bin"), &archive).unwrap();
    let config = CTreeConfig::new(sax())
        .materialized(true)
        .with_knobs(knobs(IoBackend::Pread));
    let stats = IoStats::shared();
    let tree_dir = dir.file("tree");
    std::fs::create_dir_all(&tree_dir).unwrap();
    let tree = CTree::build(&dataset, config, &tree_dir, Arc::clone(&stats)).unwrap();
    let file = tree.leaf_file();
    let entries = file.len();
    let before = stats.snapshot();
    let keys = file.scan_keys(0, entries as usize).unwrap();
    let io = stats.snapshot().since(&before);
    assert_eq!(keys.len() as u64, entries);
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "keys come in key order"
    );
    assert_eq!(io.physical_bytes_read, entries * 32, "heads only");
    assert_eq!(io.bytes_read, file.byte_size().div_ceil(4096) * 4096);
}

/// ADS+ leaves go through the same refine routine: a raw-fetch tree
/// refines each leaf best-first, its materialized twin (the same tree —
/// splits depend on entry counts alone) in file order.  Both must give the
/// same answers, exact ones the brute-force oracle's, with the same
/// pruning counts; the raw-fetch tree refines no more over the query set,
/// and strictly less on walks.
#[test]
fn ads_leaf_refine_matches_file_order_twin() {
    let dir = ScratchDir::new("scan-eq-ads").unwrap();
    for (name, archive) in &archives(31) {
        let dataset =
            Dataset::create_from_series(dir.file(&format!("{name}.bin")), archive).unwrap();
        let build = |materialized: bool| {
            let config = AdsConfig::new(sax())
                .materialized(materialized)
                .with_leaf_capacity(64);
            let tree_dir = dir.file(&format!("ads-{name}-{materialized}"));
            std::fs::create_dir_all(&tree_dir).unwrap();
            AdsTree::build(&dataset, config, &tree_dir, IoStats::shared()).unwrap()
        };
        let (fetching, twin) = (build(false), build(true));
        assert!(fetching.num_leaves() > 3, "ads {name}");
        let (mut refined, mut twin_refined) = (0, 0);
        for (qi, query) in queries_for(archive).iter().enumerate() {
            for exact in [true, false] {
                let at = format!("ads {name} q{qi} exact={exact}");
                let search = |tree: &AdsTree| tree.knn(query, K, exact, None).unwrap();
                let (nn, cost) = search(&fetching);
                let (nn_twin, cost_twin) = search(&twin);
                assert_eq!(nn, nn_twin, "neighbours differ ({at})");
                if exact {
                    let oracle = Probe {
                        query,
                        exact,
                        ceiling: f64::INFINITY,
                        window: None,
                    };
                    let entries: Vec<Candidate> = archive
                        .iter()
                        .map(|s| (s.id, 0, s.values.clone()))
                        .collect();
                    assert_eq!(nn, oracle.oracle(&entries), "not the oracle's ({at})");
                }
                assert_eq!(
                    (cost.entries_examined, cost.blocks_read, cost.blocks_skipped),
                    (
                        cost_twin.entries_examined,
                        cost_twin.blocks_read,
                        cost_twin.blocks_skipped
                    ),
                    "{at}"
                );
                assert_eq!(cost.entries_refined, cost.raw_fetches, "{at}");
                refined += cost.entries_refined;
                twin_refined += cost_twin.entries_refined;
            }
        }
        let totals = Totals {
            refined,
            reference_refined: twin_refined,
            ..Totals::default()
        };
        assert_fetches_fall(&totals, *name == "walks", &format!("ads {name}"));
    }
}
