//! Criterion micro-benchmarks (M1-M4 in DESIGN.md): sortable-key encoding,
//! MINDIST evaluation, external sorting and CTree block search.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use coconut_sax::mindist::{mindist_paa_sax_sq, QueryBounds};
use coconut_sax::{InvSaxKey, SaxConfig, SortableSummarizer};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::paa::paa;
use coconut_storage::record::KeyPointerRecord;
use coconut_storage::{
    durability, DynRunWriter, ExternalSortConfig, ExternalSorter, IoStats, RecordLayout,
    ScratchDir, DEFAULT_PAGE_SIZE,
};

fn bench_invsax_encode(c: &mut Criterion) {
    let config = SaxConfig::new(256, 16, 8);
    let summarizer = SortableSummarizer::new(config);
    let mut gen = RandomWalkGenerator::new(256, 1);
    let series: Vec<_> = gen.generate(256);
    c.bench_function("m1_invsax_encode_256pt", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = &series[i % series.len()];
            i += 1;
            std::hint::black_box(summarizer.key(&s.values));
        })
    });
    let keys: Vec<InvSaxKey> = series.iter().map(|s| summarizer.key(&s.values)).collect();
    c.bench_function("m1_invsax_decode", |b| {
        let mut i = 0;
        b.iter(|| {
            let k = keys[i % keys.len()];
            i += 1;
            std::hint::black_box(k.to_sax(&config));
        })
    });
}

fn bench_mindist(c: &mut Criterion) {
    let config = SaxConfig::new(256, 16, 8);
    let summarizer = SortableSummarizer::new(config);
    let mut gen = RandomWalkGenerator::new(256, 2);
    let q = gen.next_series();
    let q_paa = paa(&q.values, config.segments);
    let words: Vec<_> = gen
        .generate(128)
        .iter()
        .map(|s| summarizer.sax(&s.values))
        .collect();
    c.bench_function("m2_mindist_paa_sax", |b| {
        let mut i = 0;
        b.iter(|| {
            let w = &words[i % words.len()];
            i += 1;
            std::hint::black_box(mindist_paa_sax_sq(
                &q_paa,
                w,
                &config,
                summarizer.breakpoints(),
            ));
        })
    });
    // The exact scan's per-entry bound: raw key -> bound through the
    // per-query table, i.e. m1_invsax_decode + m2_mindist_paa_sax fused.
    let keys: Vec<u128> = words.iter().map(|w| InvSaxKey::from_sax(w).raw()).collect();
    let bounds = QueryBounds::new(&q_paa, &config);
    c.bench_function("m2b_key_bound_fused", |b| {
        let mut i = 0;
        b.iter(|| {
            let k = keys[i % keys.len()];
            i += 1;
            std::hint::black_box(bounds.key_bound_sq(std::hint::black_box(k)));
        })
    });
}

fn bench_external_sort(c: &mut Criterion) {
    c.bench_function("m3_external_sort_20k_spilled", |b| {
        b.iter_batched(
            || {
                let records: Vec<KeyPointerRecord> = (0..20_000u64)
                    .map(|i| KeyPointerRecord {
                        key: ((i.wrapping_mul(2654435761)) as u128) << 32,
                        pointer: i,
                    })
                    .collect();
                (ScratchDir::new("bench-sort").unwrap(), records)
            },
            |(dir, records)| {
                let mut sorter = ExternalSorter::<KeyPointerRecord>::new(
                    ExternalSortConfig::with_budget(24 * 2000),
                    dir.path(),
                    IoStats::shared(),
                );
                let out = sorter.sort(records).unwrap();
                std::hint::black_box(out.map(|r| r.unwrap()).fold(0u64, |n, _| n + 1));
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_ctree_query(c: &mut Criterion) {
    let dir = ScratchDir::new("bench-ctree").unwrap();
    let mut gen = RandomWalkGenerator::new(128, 3);
    let series = gen.generate(2000);
    let config = coconut_ctree::CTreeConfig::new(SaxConfig::paper_default(128)).materialized(true);
    let tree =
        coconut_ctree::CTree::build_from_series(&series, config, dir.path(), IoStats::shared())
            .unwrap();
    let queries = gen.generate(32);
    let _ = Arc::new(());
    c.bench_function("m4_ctree_exact_knn_2k", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(tree.exact_knn(&q.values, 1).unwrap());
        })
    });
    c.bench_function("m4_ctree_approx_knn_2k", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(tree.approximate_knn(&q.values, 1).unwrap());
        })
    });
}

/// The write path on its own: materialized 1,056-byte entries through one
/// `DynRunWriter`, finished durably, with the durability barrier inside the
/// timed region (so the `fdatasync` is paid, just not per append).
fn bench_run_write(c: &mut Criterion) {
    const RECORDS: usize = 8192;
    let layout = coconut_ctree::EntryLayout::materialized(128, 256);
    let mut gen = RandomWalkGenerator::new(256, 4);
    let entries: Vec<coconut_ctree::SeriesEntry> = gen
        .generate(RECORDS)
        .into_iter()
        .enumerate()
        .map(|(i, s)| coconut_ctree::SeriesEntry {
            key: (i as u128) << 64,
            id: s.id,
            timestamp: 0,
            values: s.values,
        })
        .collect();
    let mut fastest = std::time::Duration::MAX;
    let mut appends = 0;
    c.bench_function("m5_run_write", |b| {
        b.iter_batched(
            || ScratchDir::new("bench-run-write").unwrap(),
            |dir| {
                let start = std::time::Instant::now();
                let mut writer = DynRunWriter::create(
                    layout,
                    dir.file("m5.run"),
                    IoStats::shared(),
                    DEFAULT_PAGE_SIZE,
                )
                .unwrap();
                for entry in &entries {
                    writer.push(entry).unwrap();
                }
                let run = writer.finish().unwrap();
                durability::drain().unwrap();
                fastest = fastest.min(start.elapsed());
                appends = run.write_count();
            },
            BatchSize::LargeInput,
        )
    });
    let mib = (RECORDS * layout.record_size()) as f64 / (1 << 20) as f64;
    println!(
        "{:<40} {RECORDS} x {} B = {mib:.1} MiB in {appends} appends, {:.0} MiB/s (fastest sample)",
        "m5_run_write",
        layout.record_size(),
        mib / fastest.as_secs_f64()
    );
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_invsax_encode, bench_mindist, bench_external_sort, bench_ctree_query, bench_run_write
}
criterion_main!(micro);
