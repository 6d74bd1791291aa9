//! Criterion micro-benchmarks (M1-M8 in DESIGN.md): sortable-key encoding,
//! MINDIST evaluation, external sorting, CTree block search, windowed exact
//! search over BTP partitions, the run writer, the wire path's request
//! decode, envelope scan and frame split, and the CTree bulk load.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use coconut_core::palm::PalmRequest;
use coconut_core::{CancelToken, Neighbor, PartitionedConfig, PartitionedStream, StreamingIndex};
use coconut_json::{scan_array, scan_object, FromJson, Json, Reader, ToJson};
use coconut_net::{FrameOutcome, FrameReader, DEFAULT_MAX_FRAME_BYTES};

use coconut_sax::mindist::{mindist_paa_sax_sq, QueryBounds};
use coconut_sax::{InvSaxKey, SaxConfig, SortableSummarizer};
use coconut_series::dataset::DatasetWriter;
use coconut_series::distance::squared_euclidean;
use coconut_series::generator::{RandomWalkGenerator, SeismicStreamGenerator, SeriesGenerator};
use coconut_series::paa::paa;
use coconut_series::KernelBackend;
use coconut_storage::{
    durability, DynExternalSorter, DynRunWriter, IoBackend, IoStats, RecordLayout, ScratchDir,
    DEFAULT_PAGE_SIZE,
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
    // The exact scan's bound: one call bounds a block of 512 heads (key,
    // id, timestamp; 32 B each) through the per-query table, on every
    // backend, so a reported time over 512 is the cost of one key.
    // Set-up asserts each bound equals `key_bound_sq`'s bits.
    const HEADS: usize = 512;
    let bounds = QueryBounds::new(&q_paa, &config);
    let mut heads = Vec::with_capacity(HEADS * 32);
    let mut expected = Vec::with_capacity(HEADS);
    for (id, s) in gen.generate(HEADS).iter().enumerate() {
        let key = summarizer.key(&s.values).raw();
        heads.extend_from_slice(&key.to_be_bytes());
        heads.extend_from_slice(&(id as u64).to_be_bytes());
        heads.extend_from_slice(&(id as u64 * 7).to_be_bytes());
        expected.push(bounds.key_bound_sq(key).to_bits());
    }
    let mut out = Vec::new();
    for backend in KernelBackend::available_backends() {
        bounds.block_bounds_sq_with(backend, &heads, 32, &mut out);
        let got: Vec<u64> = out.iter().map(|lb| lb.to_bits()).collect();
        assert_eq!(got, expected, "{backend} block bounds");
        let name = format!("m2b_block_bounds_512_{backend}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                bounds.block_bounds_sq_with(backend, std::hint::black_box(&heads), 32, &mut out);
                std::hint::black_box(&out);
            })
        });
    }
    // The table itself, built once per exact search and per raw-fetch
    // approximate probe: 16 segments x 256 symbols.
    c.bench_function("m2c_query_bounds_new", |b| {
        b.iter(|| {
            std::hint::black_box(QueryBounds::new(std::hint::black_box(&q_paa), &config));
        })
    });
}

/// The sort a CTree build runs: 20k key-only (non-materialized) entries
/// through `DynExternalSorter`, at a budget of 2,000-entry chunks so the
/// sort spills 10 runs and merges them.
fn bench_external_sort(c: &mut Criterion) {
    let layout = coconut_ctree::EntryLayout::non_materialized(128);
    c.bench_function("m3_external_sort_20k_spilled", |b| {
        b.iter_batched(
            || {
                let entries: Vec<coconut_ctree::SeriesEntry> = (0..20_000u64)
                    .map(|i| coconut_ctree::SeriesEntry {
                        key: ((i.wrapping_mul(2654435761)) as u128) << 32,
                        id: i,
                        timestamp: 0,
                        values: Vec::new(),
                    })
                    .collect();
                (ScratchDir::new("bench-sort").unwrap(), entries)
            },
            |(dir, entries)| {
                let budget = 2 * 2000 * layout.record_size();
                let mut sorter =
                    DynExternalSorter::new(layout, budget, dir.path(), IoStats::shared());
                let out = sorter.sort(entries).unwrap();
                assert!(out.spilled());
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
    c.bench_function("m4_ctree_exact_knn_2k", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(tree.knn(&q.values, 1, true, &CancelToken::never()).unwrap());
        })
    });
    c.bench_function("m4_ctree_approx_knn_2k", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            std::hint::black_box(
                tree.knn(&q.values, 1, false, &CancelToken::never())
                    .unwrap(),
            );
        })
    });
}

/// Exact kNN over a BTP stream of seismic arrivals (256 floats) inside
/// windows of a tenth of the stream: merged partitions are key-ordered, so
/// a window keeps scattered entries of most blocks it reads.  Set-up checks
/// every (query, window) answer against a brute-force scan of the window.
fn bench_btp_window_exact(c: &mut Criterion) {
    const LEN: usize = 256;
    const K: usize = 10;
    let dir = ScratchDir::new("bench-btp-window").unwrap();
    let config = PartitionedConfig::new(SaxConfig::paper_default(LEN));
    let mut stream =
        PartitionedStream::bounded_temporal_partitioning(config, dir.path(), IoStats::shared())
            .unwrap();
    let mut arrivals = SeismicStreamGenerator::new(LEN, 11, 0.1);
    let mut history = Vec::new();
    for _ in 0..20 {
        let batch = arrivals.next_batch(600);
        stream.ingest_batch(&batch).unwrap();
        history.extend(batch);
    }
    stream.flush().unwrap();
    let span = history.len() as u64 / 10;
    let windows: Vec<(u64, u64)> = [1, 4, 7, 9]
        .iter()
        .map(|tenth| (tenth * span, (tenth + 1) * span - 1))
        .collect();
    let queries: Vec<Vec<f32>> = SeismicStreamGenerator::new(LEN, 12, 0.5)
        .next_batch(8)
        .into_iter()
        .map(|a| a.series.values)
        .collect();
    for query in &queries {
        for &(start, end) in &windows {
            let mut expected: Vec<Neighbor> = history
                .iter()
                .filter(|a| start <= a.timestamp && a.timestamp <= end)
                .map(|a| {
                    let d = squared_euclidean(query, &a.series.values);
                    Neighbor::new_at(a.series.id, a.timestamp, d)
                })
                .collect();
            expected.sort();
            expected.truncate(K);
            let got = stream
                .query_window(query, K, Some((start, end)), true)
                .unwrap();
            assert_eq!(got.neighbors, expected, "window {start}..={end}");
        }
    }
    c.bench_function("m4c_btp_window_exact", |b| {
        let mut i = 0;
        b.iter(|| {
            let query = &queries[i % queries.len()];
            let window = windows[i / queries.len() % windows.len()];
            i += 1;
            std::hint::black_box(stream.query_window(query, K, Some(window), true).unwrap());
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
                    IoBackend::Pread,
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

/// An `insert` frame as the repository's benchmark client writes one: 128
/// random walks of 256 points, each value rounded to 1/1024 and printed by
/// `{}` (about 354 KB).
fn insert_frame() -> String {
    let mut gen = RandomWalkGenerator::new(256, 0x4A_50);
    let rows: Vec<String> = (0..128)
        .map(|_| {
            let values: Vec<String> = gen
                .next_series()
                .values
                .iter()
                .map(|v| format!("{}", (v * 1024.0).round() / 1024.0))
                .collect();
            format!("[{}]", values.join(","))
        })
        .collect();
    format!(
        r#"{{"type":"insert","name":"m","series":[{}],"timestamp":1}}"#,
        rows.join(",")
    )
}

/// The shard's decode of one insert frame: `PalmRequest::from_text`, one
/// walk of the frame that reads `series` straight to `f32`, split across
/// every core.  Set-up checks it agrees bit for bit with the same read on
/// one thread.
fn bench_request_decode(c: &mut Criterion) {
    let frame = insert_frame();
    let one_thread = Reader::with_threads(&frame, 1)
        .document::<PalmRequest>()
        .unwrap()
        .unwrap();
    let served = |text: &str| PalmRequest::from_text(text).unwrap();
    let bits = |request: &PalmRequest| match request {
        PalmRequest::Insert { series, .. } => series
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect::<Vec<u32>>(),
        other => panic!("not an insert: {other:?}"),
    };
    let got = served(&frame);
    assert_eq!(bits(&one_thread).len(), 128 * 256);
    assert_eq!(bits(&one_thread), bits(&got));
    assert_eq!(one_thread.to_json().to_string(), got.to_json().to_string());
    println!("{:<40} {} B frame", "m6_insert_frame", frame.len());
    c.bench_function("m6b_insert_frame_served", |b| {
        b.iter(|| std::hint::black_box(served(std::hint::black_box(&frame))))
    });
}

/// The coordinator's pass over the same frame: `scan_object`, which checks
/// every number and leaves `series` as text.  Set-up checks each member's
/// span against the parsed tree, and the `series` count against
/// `scan_array`'s one-thread walk of that span.
fn bench_insert_frame_scan(c: &mut Criterion) {
    let frame = insert_frame();
    let members = scan_object(&frame).unwrap();
    let tree = Json::parse(&frame).unwrap();
    let keys: Vec<&str> = members.iter().map(|m| m.key.as_str()).collect();
    assert_eq!(keys, ["type", "name", "series", "timestamp"]);
    for member in &members {
        assert_eq!(
            tree.get(&member.key),
            Some(&Json::parse(member.raw).unwrap())
        );
    }
    let series = &members[2];
    assert_eq!(series.elements, Some(128));
    assert_eq!(series.elements, Some(scan_array(series.raw).unwrap().len()));
    c.bench_function("m6c_insert_frame_scanned", |b| {
        b.iter(|| std::hint::black_box(scan_object(std::hint::black_box(&frame)).unwrap()))
    });
}

/// `FrameReader` splitting that insert frame off an in-memory reader: the
/// newline search, the buffer fills and the frame's copy.  Set-up checks the
/// frame ends where a byte-wise search finds the newline.
fn bench_frame_split(c: &mut Criterion) {
    let mut data = insert_frame().into_bytes();
    data.push(b'\n');
    let split = |data: &[u8]| match FrameReader::new(data, DEFAULT_MAX_FRAME_BYTES).read_frame() {
        FrameOutcome::Frame(frame) => frame,
        other => panic!("not a frame: {other:?}"),
    };
    let newline = data.iter().position(|&b| b == b'\n');
    assert_eq!(Some(split(&data).len()), newline);
    c.bench_function("m7_frame_split_354k", |b| {
        b.iter(|| std::hint::black_box(split(std::hint::black_box(&data))))
    });
}

/// The bulk load `static-explore` times: a non-materialized CTree over a
/// 50k x 256 archive (51.2 MB) at a 1 MiB sort budget, so the sort spills
/// four runs.  Every build must index every series and leave no spill run;
/// set-up checks each leaf entry's key against the SAX-word reference key
/// of its id.  The timed region ends with the tree's drop, which waits for
/// the queued `fdatasync` of its leaves.
fn bench_ctree_bulk_load(c: &mut Criterion) {
    const SERIES: usize = 50_000;
    const LEN: usize = 256;
    let sax = SaxConfig::paper_default(LEN);
    let summarizer = SortableSummarizer::new(sax);
    let dir = ScratchDir::new("bench-bulk-load").unwrap();
    let mut writer = DatasetWriter::create(dir.file("archive.bin"), LEN).unwrap();
    let mut gen = RandomWalkGenerator::new(LEN, 8);
    let reference: Vec<u128> = (0..SERIES)
        .map(|_| {
            let s = gen.next_series();
            writer.append(&s.values).unwrap();
            InvSaxKey::from_sax(&summarizer.sax(&s.values)).raw()
        })
        .collect();
    let dataset = writer.finish().unwrap();
    let config = coconut_ctree::CTreeConfig::new(sax).with_memory_budget(1 << 20);
    let build = |index_dir: &ScratchDir| {
        let tree =
            coconut_ctree::CTree::build(&dataset, config, index_dir.path(), IoStats::shared())
                .unwrap();
        assert_eq!(tree.len(), SERIES as u64);
        assert_eq!(tree.build_stats().sort_runs, 4);
        let spill = std::fs::read_dir(index_dir.path())
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("dynsort-run-")
            })
            .count();
        assert_eq!(spill, 0, "spill runs left behind");
        tree
    };
    let index_dir = ScratchDir::new("bench-bulk-load-index").unwrap();
    let tree = build(&index_dir);
    for entry in tree.leaf_file().reader(4096) {
        let entry = entry.unwrap();
        assert_eq!(
            entry.key, reference[entry.id as usize],
            "key of {}",
            entry.id
        );
    }
    drop(tree);
    c.bench_function("m8_ctree_bulk_load_50k", |b| {
        b.iter_batched(
            || ScratchDir::new("bench-bulk-load-index").unwrap(),
            |index_dir| std::hint::black_box(build(&index_dir).len()),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_invsax_encode, bench_mindist, bench_external_sort, bench_ctree_query, bench_btp_window_exact, bench_run_write, bench_request_decode, bench_insert_frame_scan, bench_frame_split, bench_ctree_bulk_load
}
criterion_main!(micro);
