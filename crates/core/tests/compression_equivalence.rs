//! Compression equivalence of the whole stack.
//!
//! The tentpole guarantee of the block-compressed run format is that
//! `compression` is a *pure* performance knob: front-coding keys and
//! delta-varint-coding the integer columns changes how many bytes reach the
//! disk, never which entries an index holds or which pages the logical view
//! charges.  For every variant in the grid
//! `{off, prefix} x {CTree, CLSM, streaming} x {materialized, non} x
//! {exact, approx}` the answers, `QueryCost` and the *logical* `IoStats`
//! view must be bit-identical — only the physical byte counters and the
//! on-disk footprint may (and on sorted keys, do) shrink.

use std::sync::Arc;

use coconut_core::{
    streaming_index, Compression, IndexConfig, IoBackend, IoStats, IoStatsSnapshot, ScratchDir,
    StaticIndex, StreamingConfig, VariantKind, WindowScheme,
};
use coconut_ctree::entry::{EntryLayout, SeriesEntry};
use coconut_ctree::sorted_file::SortedSeriesFile;
use coconut_sax::{SaxConfig, SortableSummarizer};
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::Dataset;
use coconut_storage::DEFAULT_PAGE_SIZE;

fn build_static(
    dir: &ScratchDir,
    dataset: &Dataset,
    variant: VariantKind,
    materialized: bool,
    compression: Compression,
) -> (StaticIndex, IoStatsSnapshot, u64) {
    let config = IndexConfig::new(variant, 64)
        .materialized(materialized)
        // Small budget so CTree spills external-sort runs and CLSM flushes
        // and compacts: every compressed code path runs, not just the leaf.
        .with_memory_budget(256 << 10)
        .with_shard_count(2)
        .with_compression(compression);
    let subdir = dir.file(&format!("{}-m{materialized}-{compression}", variant.name()));
    let stats = IoStats::shared();
    let (index, _report) =
        StaticIndex::build(dataset, config, &subdir, Arc::clone(&stats)).expect("build");
    let footprint = index.footprint_bytes();
    (index, stats.snapshot(), footprint)
}

/// The static grid: CTree and CLSM, materialized and not, exact and
/// approximate — answers, costs and logical I/O identical; compressed
/// footprint strictly smaller.
#[test]
fn static_variants_are_equivalent_at_either_compression() {
    let dir = ScratchDir::new("comp-eq-static").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 2026);
    let series = gen.generate(2500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let mut qgen = RandomWalkGenerator::new(64, 808);
    let queries: Vec<_> = (0..6).map(|_| qgen.next_series()).collect();

    for variant in [VariantKind::CTree, VariantKind::Clsm] {
        for materialized in [true, false] {
            let (off, off_io, off_fp) =
                build_static(&dir, &dataset, variant, materialized, Compression::Off);
            let (prefix, prefix_io, prefix_fp) =
                build_static(&dir, &dataset, variant, materialized, Compression::Prefix);
            let ctx = format!("{variant:?} materialized={materialized}");
            assert_eq!(
                off_io.logical(),
                prefix_io.logical(),
                "build logical IoStats must be knob-invariant ({ctx})"
            );
            assert!(
                prefix_io.physical_bytes_written < off_io.physical_bytes_written,
                "compressed build must write fewer physical bytes ({ctx}): \
                 {} vs {}",
                prefix_io.physical_bytes_written,
                off_io.physical_bytes_written
            );
            assert!(
                prefix_fp < off_fp,
                "compressed footprint must be smaller ({ctx}): {prefix_fp} vs {off_fp}"
            );
            if variant == VariantKind::CTree && !materialized {
                // A CTree's footprint is its leaf file; sorted invSAX keys
                // without value tails are where front-coding earns its keep.
                assert!(
                    off_fp as f64 >= 1.5 * prefix_fp as f64,
                    "non-materialized leaf file must shrink >= 1.5x: {off_fp} vs {prefix_fp}"
                );
            }
            for (qi, q) in queries.iter().enumerate() {
                let (nn_off, cost_off) = off.knn(&q.values, 5, true).unwrap();
                let (nn_prefix, cost_prefix) = prefix.knn(&q.values, 5, true).unwrap();
                assert_eq!(nn_off, nn_prefix, "exact answers differ ({ctx}, q{qi})");
                assert_eq!(cost_off, cost_prefix, "exact costs differ ({ctx}, q{qi})");
                let (ap_off, ap_cost_off) = off.knn(&q.values, 5, false).unwrap();
                let (ap_prefix, ap_cost_prefix) = prefix.knn(&q.values, 5, false).unwrap();
                assert_eq!(ap_off, ap_prefix, "approx answers differ ({ctx}, q{qi})");
                assert_eq!(
                    ap_cost_off, ap_cost_prefix,
                    "approx costs differ ({ctx}, q{qi})"
                );
            }
        }
    }
}

/// The streaming arm: a BTP stream (flushes + size-tiered merges, the
/// paper's streaming write path) ingesting identical batches must produce
/// identical windowed answers and logical I/O at either setting.
#[test]
fn streaming_btp_is_equivalent_at_either_compression() {
    let dir = ScratchDir::new("comp-eq-btp").unwrap();
    let mut gen = SeismicStreamGenerator::new(64, 321, 0.1);
    let batches: Vec<_> = (0..12).map(|_| gen.next_batch(100)).collect();
    let query = gen.quake_template();

    let mut outcomes = Vec::new();
    for compression in [Compression::Off, Compression::Prefix] {
        let mut config = StreamingConfig::new(
            VariantKind::Clsm,
            WindowScheme::BoundedTemporalPartitioning,
            64,
        );
        config.knobs.compression = compression;
        config.buffer_capacity = 100;
        let stats = IoStats::shared();
        let subdir = dir.file(&format!("btp-{compression}"));
        let mut index = streaming_index(config, &subdir, Arc::clone(&stats)).unwrap();
        for batch in &batches {
            index.ingest_batch(batch).unwrap();
        }
        let mut answers = Vec::new();
        for window in [None, Some((200u64, 700u64))] {
            for exact in [true, false] {
                answers.push(
                    index
                        .query_window(&query, 3, window, exact)
                        .unwrap()
                        .neighbors,
                );
            }
        }
        outcomes.push((answers, stats.snapshot(), index.footprint_bytes()));
    }
    let (off_answers, off_io, off_fp) = &outcomes[0];
    let (prefix_answers, prefix_io, prefix_fp) = &outcomes[1];
    assert_eq!(off_answers, prefix_answers, "windowed answers differ");
    assert_eq!(
        off_io.logical(),
        prefix_io.logical(),
        "streaming logical IoStats must be knob-invariant"
    );
    assert!(
        prefix_io.physical_bytes_written < off_io.physical_bytes_written,
        "compressed stream must write fewer physical bytes"
    );
    assert!(
        prefix_fp < off_fp,
        "compressed partitions must occupy fewer bytes: {prefix_fp} vs {off_fp}"
    );
}

/// Query-time logical reads are knob-invariant too: run the same query set
/// against fresh stats handles after the build, so read-side accounting is
/// isolated from build-side accounting.  Non-materialized, where the
/// key/id/timestamp columns *are* the record, so the compressed probes also
/// move strictly fewer physical bytes.  Materialized full-record probes can
/// overshoot on block boundaries; their win is the key-only scan, so a cold
/// `scan_keys` over a materialized leaf file of the same series must return
/// the same keys, charge the same logical reads and move strictly fewer
/// physical bytes.
#[test]
fn query_logical_reads_are_knob_invariant() {
    let dir = ScratchDir::new("comp-eq-reads").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 555);
    let series = gen.generate(1500);
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let mut qgen = RandomWalkGenerator::new(64, 777);
    let queries: Vec<_> = (0..5).map(|_| qgen.next_series()).collect();
    let sax = SaxConfig::paper_default(64);
    let summarizer = SortableSummarizer::new(sax);
    let entries: Vec<SeriesEntry> = series
        .iter()
        .map(|s| SeriesEntry::from_series(s, 0, &summarizer, true))
        .collect();

    let mut per_setting = Vec::new();
    let mut key_scans = Vec::new();
    for compression in [Compression::Off, Compression::Prefix] {
        let config = IndexConfig::new(VariantKind::CTree, 64)
            .materialized(false)
            .with_memory_budget(256 << 10)
            .with_compression(compression);
        let subdir = dir.file(&format!("reads-{compression}"));
        let stats = IoStats::shared();
        let (index, _) = StaticIndex::build(&dataset, config, &subdir, Arc::clone(&stats)).unwrap();
        let before = stats.snapshot();
        for q in &queries {
            index.knn(&q.values, 5, true).unwrap();
        }
        per_setting.push(stats.snapshot().since(&before));

        let stats = IoStats::shared();
        let leaf = SortedSeriesFile::build_unsorted(
            dir.file(&format!("keys-{compression}.run")),
            EntryLayout::materialized(sax.key_bits(), 64),
            sax,
            entries.clone(),
            64,
            Arc::clone(&stats),
            DEFAULT_PAGE_SIZE,
            1,
            IoBackend::Pread,
            compression,
        )
        .unwrap();
        let before = stats.snapshot();
        let mut keys = Vec::new();
        while (keys.len() as u64) < leaf.len() {
            keys.extend(leaf.scan_keys(keys.len() as u64, 2048).unwrap());
        }
        key_scans.push((keys, stats.snapshot().since(&before)));
    }
    assert_eq!(
        per_setting[0].logical(),
        per_setting[1].logical(),
        "query-time logical IoStats must be knob-invariant"
    );
    assert!(
        per_setting[1].physical_bytes_read < per_setting[0].physical_bytes_read,
        "compressed queries must read fewer physical bytes: {} vs {}",
        per_setting[1].physical_bytes_read,
        per_setting[0].physical_bytes_read
    );
    let ((off_keys, off_io), (prefix_keys, prefix_io)) = (&key_scans[0], &key_scans[1]);
    assert!(off_keys == prefix_keys, "key-only scans must agree");
    assert_eq!(
        off_io.logical(),
        prefix_io.logical(),
        "key-only scan logical IoStats must be knob-invariant"
    );
    assert!(
        prefix_io.physical_bytes_read < off_io.physical_bytes_read,
        "a compressed key-only scan must read fewer physical bytes: {} vs {}",
        prefix_io.physical_bytes_read,
        off_io.physical_bytes_read
    );
}
