//! Durability is off the ingest thread, and its order is still the inline
//! one.
//!
//! `DynRunWriter::finish` queues a run's `fdatasync` on the durability
//! worker, and a merge queues the unlink of its inputs behind the sync of
//! its output.  These tests park the worker, ingest through several merges,
//! and check what the contract promises at each point:
//!
//! * while nothing has been synced, nothing has been unlinked — every merge
//!   input is still on disk — and every query already answers (neighbours
//!   *and* `QueryCost`) exactly as it does once the queue has run;
//! * after `sync()` the directory holds exactly the live runs, each
//!   `fdatasync`'ed exactly once;
//! * the files are byte-identical to a build that reaches the barrier after
//!   every batch, which is what an inline `fdatasync` in `finish()` gave.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};

use coconut_core::{
    CancelToken, ClsmConfig, ClsmTree, IoStats, Neighbor, PartitionedConfig, PartitionedStream,
    QueryCost, SaxConfig, ScratchDir, StreamingIndex, TimestampedSeries,
};
use coconut_ctree::SortedSeriesFile;
use coconut_series::generator::SeismicStreamGenerator;
use coconut_storage::durability::{self, Job};

const LEN: usize = 64;
const BUFFER: usize = 40;
const BATCH: usize = 100;
/// 17 flushes and 6 merges at growth factor 3: 29 queued jobs (a sync per
/// run, an unlink job per merge), inside the worker's bound of 64, so a
/// parked worker never blocks the ingest.
const BATCHES: usize = 7;

/// The tests share the process's one worker; a parked worker would stall the
/// other test's barrier, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// Parks the durability worker inside a job until the returned sender is
/// dropped.  Declare it *after* the index: a failing assertion then drops it
/// first, and the index's `Drop` (which waits for the worker) can finish.
fn park_worker() -> mpsc::Sender<()> {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = Job::new(
        move || {
            let _ = parked_tx.send(());
            let _ = release_rx.recv();
            Ok(())
        },
        Vec::new(),
    );
    durability::submit(gate).expect("submit gate");
    parked_rx.recv().expect("worker parked");
    release_tx
}

/// The two merging ingest paths, behind what the test needs of them.
trait Subject {
    fn create(dir: &Path) -> Self;
    fn ingest(&mut self, batch: &[TimestampedSeries]);
    fn live_runs(&self) -> Vec<&SortedSeriesFile>;
    fn merges(&self) -> u64;
    fn query(&self, query: &[f32], exact: bool) -> (Vec<Neighbor>, QueryCost);
    fn sync(&mut self);
}

impl Subject for ClsmTree {
    fn create(dir: &Path) -> Self {
        let config = ClsmConfig::new(SaxConfig::new(LEN, 8, 8))
            .materialized(true)
            .with_buffer_capacity(BUFFER)
            .with_growth_factor(3);
        ClsmTree::new(config, dir, IoStats::shared()).expect("clsm")
    }
    fn ingest(&mut self, batch: &[TimestampedSeries]) {
        for arrival in batch {
            self.insert(&arrival.series, arrival.timestamp)
                .expect("insert");
        }
    }
    fn live_runs(&self) -> Vec<&SortedSeriesFile> {
        self.shards().collect()
    }
    fn merges(&self) -> u64 {
        self.stats().merges
    }
    fn query(&self, query: &[f32], exact: bool) -> (Vec<Neighbor>, QueryCost) {
        self.knn(query, 5, exact, None, &CancelToken::never())
            .expect("query")
    }
    fn sync(&mut self) {
        self.flush().expect("flush");
        durability::drain().expect("barrier");
    }
}

impl Subject for PartitionedStream {
    fn create(dir: &Path) -> Self {
        let config = PartitionedConfig::new(SaxConfig::new(LEN, 8, 8))
            .with_buffer_capacity(BUFFER)
            .with_growth_factor(3);
        PartitionedStream::bounded_temporal_partitioning(config, dir, IoStats::shared())
            .expect("btp")
    }
    fn ingest(&mut self, batch: &[TimestampedSeries]) {
        self.ingest_batch(batch).expect("ingest");
    }
    fn live_runs(&self) -> Vec<&SortedSeriesFile> {
        self.sorted_partitions().collect()
    }
    fn merges(&self) -> u64 {
        self.merges
    }
    fn query(&self, query: &[f32], exact: bool) -> (Vec<Neighbor>, QueryCost) {
        let result = self.query_window(query, 5, None, exact).expect("query");
        (result.neighbors, result.cost)
    }
    fn sync(&mut self) {
        StreamingIndex::sync(self).expect("sync");
    }
}

fn batches() -> Vec<Vec<TimestampedSeries>> {
    let mut arrivals = SeismicStreamGenerator::new(LEN, 7, 0.2);
    (0..BATCHES).map(|_| arrivals.next_batch(BATCH)).collect()
}

fn queries() -> Vec<Vec<f32>> {
    let mut source = SeismicStreamGenerator::new(LEN, 99, 0.5);
    (0..6)
        .map(|_| source.next_arrival().series.values)
        .collect()
}

fn answers<S: Subject>(index: &S) -> Vec<(Vec<Neighbor>, QueryCost)> {
    queries()
        .iter()
        .flat_map(|q| [index.query(q, true), index.query(q, false)])
        .collect()
}

fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|entry| entry.expect("entry").path())
        .collect();
    files.sort();
    files
}

fn contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    files_in(dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).expect("read run");
            (path.file_name().expect("name").into(), bytes)
        })
        .collect()
}

/// Every file of every live run: a materialized run keeps its values in a
/// `.tail` file beside its own.
fn live_paths<S: Subject>(index: &S) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = index
        .live_runs()
        .iter()
        .flat_map(|run| run.run().paths().map(Path::to_path_buf))
        .collect();
    paths.sort();
    paths
}

fn check<S: Subject>(name: &str) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = ScratchDir::new(name).expect("scratch");

    // Reference: the barrier after every batch — what `finish()` used to do.
    let reference_dir = scratch.file("inline");
    let mut reference = S::create(&reference_dir);
    for batch in &batches() {
        reference.ingest(batch);
        durability::drain().expect("barrier");
    }
    reference.sync();

    // Subject: the same arrivals with the worker parked throughout.
    let held_dir = scratch.file("held");
    let mut held = S::create(&held_dir);
    let parked = park_worker();
    let mut created = Vec::new();
    for batch in &batches() {
        held.ingest(batch);
        for path in live_paths(&held) {
            if !created.contains(&path) {
                created.push(path);
            }
        }
    }
    created.sort();
    assert!(
        held.merges() >= 4,
        "the ingest must merge: {}",
        held.merges()
    );
    assert!(
        created.len() > held.live_runs().len(),
        "merges must have retired runs"
    );
    // Nothing is synced, so nothing may be unlinked: every run ever made
    // visible — each merge's inputs included — is still on disk.
    assert!(held.live_runs().iter().all(|r| r.run().sync_count() == 0));
    let on_disk = files_in(&held_dir);
    for path in &created {
        assert!(on_disk.contains(path), "{} was unlinked", path.display());
    }
    let while_held = answers(&held);

    // Releasing the worker changes what is on disk, not what a query sees:
    // same neighbours, same `QueryCost`.
    drop(parked);
    durability::drain().expect("barrier");
    assert_eq!(answers(&held), while_held);
    held.sync();

    assert_eq!(files_in(&held_dir), live_paths(&held), "only live runs");
    for run in held.live_runs() {
        assert_eq!(run.run().sync_count(), 1, "{}", run.run().path().display());
    }
    // The merge schedule, the answers and the bytes never depended on when
    // the worker ran.
    assert_eq!(held.merges(), reference.merges());
    assert_eq!(answers(&held), answers(&reference));
    assert_eq!(contents(&held_dir), contents(&reference_dir));
    for run in reference.live_runs() {
        assert_eq!(run.run().sync_count(), 1);
    }
}

#[test]
fn clsm_unlinks_nothing_before_its_replacement_is_synced() {
    check::<ClsmTree>("durability-clsm");
}

#[test]
fn btp_unlinks_nothing_before_its_replacement_is_synced() {
    check::<PartitionedStream>("durability-btp");
}

/// The barrier of a `StaticIndex` is `sync()`: it returns only once the
/// worker has synced every run, so a sync count read right after is final.
#[test]
fn static_index_sync_is_the_barrier() {
    use coconut_core::{IndexConfig, StaticIndex, VariantKind};
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
    use coconut_series::Dataset;

    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = ScratchDir::new("durability-static").expect("scratch");
    let mut gen = RandomWalkGenerator::new(LEN, 3);
    let series: Vec<_> = (0..600).map(|_| gen.next_series()).collect();
    let dataset = Dataset::create_from_series(scratch.file("raw.bin"), &series).expect("dataset");
    let config = IndexConfig::new(VariantKind::Clsm, LEN).materialized(true);
    let (mut index, _) =
        StaticIndex::build(&dataset, config, &scratch.file("index"), IoStats::shared())
            .expect("build");
    index.sync().expect("sync");
    let StaticIndex::Clsm(tree) = &index else {
        panic!("built a CLSM");
    };
    assert!(tree.shards().count() > 0);
    assert!(tree.shards().all(|run| run.run().sync_count() == 1));
}
