//! The brute-force differential harness: every index structure, on every
//! data shape and at every knob point, against one oracle.
//!
//! Three axes, each one array:
//! * structure ([`STRUCTURES`]): CTree materialized or not, spilling or in
//!   memory; CLSM with 1 and 4 shards; ADS+; PP / TP / BTP streams queried
//!   through windows;
//! * data ([`DATA`]): random walks, exact duplicates, constant series,
//!   near-ties at the k-th distance, values near `f32::MAX / len`, a single
//!   series, and `len` = 1;
//! * knob point ([`knob_points`], one [`Knob`] family after another):
//!   `{io_overlap off, on} × {pread, mmap}`; and every `KernelBackend`, in
//!   one test of its own because `force_backend` pins a process-wide
//!   atomic.
//!
//! Each case checks two things.  (1) Every exact answer equals brute
//! force — `brute_force_knn` for a static index, a sorted
//! `Neighbor::new_at` scan of the window for a stream — by `==` on
//! `Neighbor`, `(squared_distance, id, timestamp)` with no tolerance, and
//! the oracle's own order is checked against that key spelled out, so it
//! cannot inherit a bug from `Neighbor`'s `Ord`.  (2) At each knob point
//! the index files, the build and query `IoStats`, the index's shape
//! (sort runs, `ClsmStats`, runs, units, partitions, footprint) and every
//! answer with its `QueryCost` and partitions accessed equal the default
//! point's.
//!
//! The tests are cells of these crosses, each one call of
//! [`check_every_structure`], [`check_knob_points`] or [`check_random`]:
//! data × structure at the default point is split between static indexes
//! and streams (`integration.rs`); knob points × structure on the
//! duplicates is one test (`differential/main.rs`), and on the walks one
//! test per knob family and structure group, in that family's file
//! (`knob_equivalence.rs`: the grid point that moves both knobs;
//! `io_overlap_` and `io_backend_equivalence.rs`: the point that moves
//! only theirs).  Each
//! cell runs once.  A knob that goes takes its values out of [`points`]
//! and its family's cells with them; nothing else here changes.

// Each test target runs its own cells.
#![allow(dead_code)]

use std::sync::Arc;

use coconut_clsm::ClsmStats;
use coconut_core::{
    streaming_index, CancelToken, IndexConfig, IoBackend, IoStats, IoStatsSnapshot, Neighbor,
    PerfKnobs, QueryCost, ScratchDir, Series, StaticIndex, StreamingConfig, TimestampedSeries,
    VariantKind, WindowScheme,
};
use coconut_series::distance::{brute_force_knn, squared_euclidean};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::Dataset;
pub use Structure::{Static, Stream};
pub use VariantKind::{Ads, CTree, Clsm};
use WindowScheme::TemporalPartitioning as Tp;
use WindowScheme::{BoundedTemporalPartitioning as Btp, PostProcessing as Pp};

/// A memory budget under which the sorts spill and CLSM flushes and
/// compacts; and one that swallows every input here.
pub const SPILL: usize = 16 << 10;
pub const IN_MEMORY: usize = 64 << 20;

/// Arrivals per stream batch, and the stream's buffer (partition) size.
pub const BATCH: usize = 150;

/// A `k` past every entry: the probe answers all of them.
pub const EVERY: usize = usize::MAX;

/// The `k` values the data × structure cross probes exactly.
pub const KS: &[usize] = &[1, 5, 10, EVERY];

/// The `k` of the approximate probes: brute force cannot check them, the
/// knob points compare them with the default's.
pub const APPROX_K: usize = 10;

/// An index structure of the Figure 1 matrix.
#[derive(Clone, Copy, Debug)]
pub enum Structure {
    /// A static index: variant, materialized, memory budget, CLSM shards.
    Static(VariantKind, bool, usize, usize),
    /// A stream of `variant` under a window scheme.
    Stream(VariantKind, WindowScheme),
}

pub const STRUCTURES: [Structure; 14] = [
    Static(CTree, true, SPILL, 1),
    Static(CTree, false, SPILL, 1),
    Static(CTree, true, IN_MEMORY, 1),
    Static(CTree, false, IN_MEMORY, 1),
    Static(Clsm, true, SPILL, 1),
    Static(Clsm, false, SPILL, 1),
    Static(Clsm, true, SPILL, 4),
    Static(Ads, true, SPILL, 1),
    Static(Ads, false, SPILL, 1),
    Stream(Ads, Pp),
    Stream(Clsm, Pp),
    Stream(CTree, Tp),
    Stream(Ads, Tp),
    Stream(Clsm, Btp),
];

impl Structure {
    pub fn label(self) -> String {
        match self {
            Static(variant, materialized, budget, shards) => format!(
                "{}-m{materialized}-{}k-s{shards}",
                variant.name(),
                budget >> 10
            ),
            Stream(variant, scheme) => format!("{}-{}", variant.name(), scheme.short_name()),
        }
    }

    /// The knobs reach everything but the ADS+ baseline and the streams
    /// over ADS+ structures, which take none.
    pub fn takes_knobs(self) -> bool {
        !matches!(self, Static(Ads, ..) | Stream(Ads, _))
    }
}

/// One dataset: its series (ids by position, as `Dataset` numbers them),
/// the queries every structure answers over it and the `k`s they ask for.
pub struct Data {
    pub name: &'static str,
    pub len: usize,
    pub series: Vec<Series>,
    pub queries: Vec<Vec<f32>>,
    pub ks: &'static [usize],
}

impl Data {
    fn new(name: &'static str, series: Vec<Series>, queries: Vec<Vec<f32>>) -> Data {
        let len = series[0].values.len();
        Data {
            name,
            len,
            series,
            queries,
            ks: KS,
        }
    }
}

pub fn walks(len: usize, n: usize, seed: u64) -> Vec<Series> {
    RandomWalkGenerator::new(len, seed).generate(n)
}

/// `values` as the series at position `id`.
pub fn at(id: usize, values: Vec<f32>) -> Series {
    Series::new(id as u64, values)
}

/// Random walks, with a fresh walk and a member as queries.
pub fn random_walks(n: usize) -> Data {
    walks_from(n, 808, 4242)
}

/// `n` walks drawn from `seed`, with a fresh walk drawn from `query_seed`
/// and a member as queries.
pub fn walks_from(n: usize, seed: u64, query_seed: u64) -> Data {
    let series = walks(64, n, seed);
    let queries = vec![
        walks(64, 1, query_seed)[0].values.clone(),
        series[n / 3].values.clone(),
    ];
    Data::new("walks", series, queries)
}

/// Two walks, each repeated `n / 2` times: every distance ties with
/// every copy's, and more copies share one iSAX word than an ADS+ leaf
/// holds, so that leaf splits to full cardinality and then overflows.
pub fn duplicates(n: usize) -> Data {
    let templates = walks(64, 2, 7);
    let series: Vec<Series> = (0..n)
        .map(|i| at(i, templates[i % 2].values.clone()))
        .collect();
    let queries = vec![
        templates[0].values.iter().map(|v| v + 0.25).collect(),
        templates[1].values.clone(),
    ];
    Data::new("duplicates", series, queries)
}

/// Constant series on five levels, `n / 5` series each: every segment of
/// a series has the same PAA value, and a level's series share one word.
pub fn constant(n: usize) -> Data {
    let level = |i: usize| (i % 5) as f32 * 0.5 - 1.0;
    let series = (0..n).map(|i| at(i, vec![level(i); 64])).collect();
    Data::new("constant", series, vec![vec![0.1; 64], vec![level(2); 64]])
}

/// Copies of one base series, series `i` with one point moved by
/// `1 + (i / 5)·2⁻¹⁷`: from the base, five series tie exactly at each
/// distance and the next five are a few ulps further, so the 5th and 10th
/// distances nearly tie with the 6th and 11th.  The base is on a 1/16
/// grid, so every moved point, and every distance, is exact.
pub fn near_ties(n: usize) -> Data {
    let base: Vec<f32> = walks(64, 1, 9)[0]
        .values
        .iter()
        .map(|v| (v * 16.0).round() / 16.0)
        .collect();
    let series = (0..n)
        .map(|i| {
            let mut values = base.clone();
            values[i % 64] += 1.0 + (i / 5) as f32 * (2.0f32).powi(-17);
            at(i, values)
        })
        .collect();
    let mut nudged = base.clone();
    nudged[5] += 0.5;
    Data::new("near-ties", series, vec![base, nudged])
}

/// Walks pushed out to magnitudes within a factor of two of
/// `f32::MAX / len`, the largest whose sums still fit an `f32`, keeping
/// their signs: every point is past SAX's outer breakpoints.
pub fn huge(n: usize) -> Data {
    let scale = f32::MAX / 64.0;
    let big = |s: &Series| -> Vec<f32> {
        let magnitude = |v: f32| scale * (0.5 + 0.5 * (v.abs() / 3.0).min(1.0));
        s.values.iter().map(|&v| magnitude(v).copysign(v)).collect()
    };
    let series: Vec<Series> = walks(64, n, 31)
        .iter()
        .map(|s| Series::new(s.id, big(s)))
        .collect();
    let queries = vec![big(&walks(64, 1, 32)[0]), series[n / 2].values.clone()];
    Data::new("huge", series, queries)
}

/// One series, id 0.
pub fn single(_: usize) -> Data {
    let series = walks(64, 1, 5);
    let queries = vec![walks(64, 1, 6)[0].values.clone(), series[0].values.clone()];
    Data::new("single", series, queries)
}

/// Series of one point, taken from one raw walk (so neighbours repeat).
pub fn len_one(n: usize) -> Data {
    let points = RandomWalkGenerator::new(n, 3)
        .without_znormalization()
        .next_series()
        .values;
    let series = points
        .iter()
        .enumerate()
        .map(|(i, &v)| at(i, vec![v]))
        .collect();
    Data::new("len-1", series, vec![vec![0.3], vec![points[n / 2]]])
}

pub const DATA: [fn(usize) -> Data; 7] = [
    random_walks,
    duplicates,
    constant,
    near_ties,
    huge,
    single,
    len_one,
];

impl Data {
    /// The stream's arrivals: the series twice over, at timestamps `0..2n`,
    /// so every id arrives twice and `(distance, id)` ties fall through to
    /// the timestamp.
    fn arrivals(&self) -> impl Iterator<Item = (u64, &Series)> {
        let n = self.series.len();
        (0..2 * n).map(move |t| (t as u64, &self.series[t % n]))
    }

    fn probes(&self, structure: Structure) -> Vec<Probe> {
        let entries = match structure {
            Static(..) => self.series.len(),
            Stream(..) => 2 * self.series.len(),
        } as u64;
        let windows = match structure {
            Static(..) => vec![None],
            // Everything; a span across both passes; one instant (so a
            // window's end must be inclusive); an inverted, empty window.
            Stream(..) => vec![
                None,
                Some((entries / 4, 3 * entries / 4)),
                Some((entries / 3, entries / 3)),
                Some((entries / 2, entries / 4)),
            ],
        };
        let mut probes = Vec::new();
        for query in &self.queries {
            let exact = self.ks.iter().map(|&k| (k, true));
            for (k, exact) in exact.chain([(APPROX_K, false)]) {
                let k = if k == EVERY { entries as usize + 3 } else { k };
                for &window in &windows {
                    probes.push(Probe {
                        query: query.clone(),
                        k,
                        window,
                        exact,
                    });
                }
            }
        }
        probes
    }

    /// The exact answer to `probe`, by brute force.
    fn oracle(&self, structure: Structure, probe: &Probe) -> Vec<Neighbor> {
        let expected = match structure {
            Static(..) => brute_force_knn(
                &probe.query,
                self.series.iter().map(|s| (s.id, s.values.as_slice())),
                probe.k,
            ),
            Stream(..) => {
                let in_window = |t: u64| probe.window.is_none_or(|(s, e)| s <= t && t <= e);
                let mut all: Vec<Neighbor> = self
                    .arrivals()
                    .filter(|&(t, _)| in_window(t))
                    .map(|(t, s)| {
                        Neighbor::new_at(s.id, t, squared_euclidean(&probe.query, &s.values))
                    })
                    .collect();
                all.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite"));
                all.truncate(probe.k);
                all
            }
        };
        assert!(
            expected.windows(2).all(|w| key(&w[0]) < key(&w[1])),
            "the oracle must order by (distance, id, timestamp)"
        );
        expected
    }
}

/// `Neighbor`'s order, spelled out.
pub fn key(n: &Neighbor) -> (f64, u64, u64) {
    (n.squared_distance, n.id, n.timestamp)
}

pub struct Probe {
    query: Vec<f32>,
    k: usize,
    window: Option<(u64, u64)>,
    exact: bool,
}

/// An answer, its cost and the partitions it read (0 for a static index).
pub type Answer = (Vec<Neighbor>, QueryCost, usize);

/// What an index reports about its own shape.
#[derive(Debug, PartialEq)]
pub struct Shape {
    /// CTree external-sort runs.
    sort_runs: usize,
    /// CLSM ingestion counters, runs and search units.
    clsm: Option<(ClsmStats, usize, usize)>,
    /// Stream partitions.
    partitions: usize,
}

/// Everything a build and its probes observably produce.
pub struct Run {
    files: Vec<(String, Vec<u8>)>,
    build_io: IoStatsSnapshot,
    query_io: IoStatsSnapshot,
    footprint: u64,
    shape: Shape,
    answers: Vec<Answer>,
}

/// A directory name unique to a knob point.
pub fn tag(knobs: PerfKnobs) -> String {
    format!("ov{}-{}", knobs.io_overlap, knobs.io_backend)
}

/// Recursively collects `(relative name, bytes)` of all files under `dir`.
pub fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    // Merged-away runs are unlinked off-thread: list what is left after.
    coconut_storage::durability::drain().expect("durability barrier");
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("prefix")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read file")));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Builds `structure` over `data` at `knobs` and answers every probe.
pub fn run(dir: &ScratchDir, data: &Data, structure: Structure, knobs: PerfKnobs) -> Run {
    let subdir = dir.file(&format!(
        "{}-{}-{}",
        data.name,
        structure.label(),
        tag(knobs)
    ));
    let stats = IoStats::shared();
    let probes = data.probes(structure);
    let mut shape = Shape {
        sort_runs: 0,
        clsm: None,
        partitions: 0,
    };
    let (files, build_io, query_io, footprint, answers) = match structure {
        Static(variant, materialized, budget, shards) => {
            let dataset = dir.file(&format!("{}.bin", data.name));
            if !dataset.exists() {
                Dataset::create_from_series(&dataset, &data.series).expect("dataset");
            }
            let dataset = Dataset::open(&dataset).expect("dataset");
            let config = IndexConfig {
                knobs,
                ..IndexConfig::new(variant, data.len)
                    .materialized(materialized)
                    .with_memory_budget(budget)
                    .with_shard_count(shards)
            };
            let (index, _) =
                StaticIndex::build(&dataset, config, &subdir, Arc::clone(&stats)).expect("build");
            match &index {
                StaticIndex::CTree(tree) => shape.sort_runs = tree.build_stats().sort_runs,
                StaticIndex::Clsm(tree) => {
                    shape.clsm = Some((tree.stats(), tree.num_runs(), tree.num_shards()))
                }
                StaticIndex::Ads(_) => {}
            }
            let (files, build_io) = (dir_contents(&subdir), stats.snapshot());
            let never = CancelToken::never();
            let answers: Vec<Answer> = probes
                .iter()
                .map(|p| {
                    let (neighbors, cost) =
                        index.knn(&p.query, p.k, p.exact, &never).expect("query");
                    (neighbors, cost, 0)
                })
                .collect();
            let query_io = stats.snapshot().since(&build_io);
            (files, build_io, query_io, index.footprint_bytes(), answers)
        }
        Stream(variant, scheme) => {
            let mut config = StreamingConfig::new(variant, scheme, data.len);
            config.buffer_capacity = BATCH;
            config.knobs = knobs;
            let mut index = streaming_index(config, &subdir, Arc::clone(&stats)).expect("stream");
            let arrivals: Vec<TimestampedSeries> = data
                .arrivals()
                .map(|(timestamp, s)| TimestampedSeries {
                    series: s.clone(),
                    timestamp,
                })
                .collect();
            for batch in arrivals.chunks(BATCH) {
                index.ingest_batch(batch).expect("ingest");
            }
            shape.partitions = index.num_partitions();
            let (files, build_io) = (dir_contents(&subdir), stats.snapshot());
            let answers = probes
                .iter()
                .map(|p| {
                    let r = index
                        .query_window(&p.query, p.k, p.window, p.exact)
                        .expect("query");
                    (r.neighbors, r.cost, r.partitions_accessed)
                })
                .collect();
            let query_io = stats.snapshot().since(&build_io);
            (files, build_io, query_io, index.footprint_bytes(), answers)
        }
    };
    Run {
        files,
        build_io,
        query_io,
        footprint,
        shape,
        answers,
    }
}

/// Check (1): every exact answer of `run` is the brute-force one.
pub fn assert_brute_force(data: &Data, structure: Structure, run: &Run) {
    for (probe, (got, ..)) in data.probes(structure).iter().zip(&run.answers) {
        if probe.exact {
            let expected = data.oracle(structure, probe);
            assert!(
                *got == expected,
                "{} on {}: k={} window={:?} differs from brute force\n got: {got:?}\nwant: {expected:?}",
                structure.label(),
                data.name,
                probe.k,
                probe.window,
            );
        }
    }
}

/// Check (2): the run at `knobs` reproduces the default run.
pub fn assert_same(default: &Run, got: &Run, at: &str) {
    assert!(
        got.answers == default.answers,
        "answers or QueryCost differ ({at})"
    );
    assert_eq!(default.shape, got.shape, "index shape differs ({at})");
    let names = |r: &Run| r.files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(default), names(got), "file set differs ({at})");
    for ((name, a), (_, b)) in default.files.iter().zip(&got.files) {
        assert!(a == b, "file {name} differs ({at})");
    }
    assert_eq!(default.footprint, got.footprint, "footprint differs ({at})");
    assert_eq!(
        default.build_io, got.build_io,
        "build IoStats differ ({at})"
    );
    assert_eq!(
        default.query_io, got.query_io,
        "query IoStats differ ({at})"
    );
}

/// The knob point families, one per knob, plus the grid points that move
/// several at once.  [`knob_points`] is their union.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Knob {
    /// The grid point moving both `io_overlap` and `io_backend`.
    Combined,
    IoOverlap,
    IoBackend,
}

pub const KNOBS: [Knob; 3] = [Knob::Combined, Knob::IoOverlap, Knob::IoBackend];

/// The knob points of `knob`'s family.
pub fn points(knob: Knob) -> Vec<PerfKnobs> {
    let base = PerfKnobs::default();
    let overlap_off = PerfKnobs {
        io_overlap: false,
        ..base
    };
    let mmap = PerfKnobs {
        io_backend: IoBackend::Mmap,
        ..base
    };
    match knob {
        Knob::Combined => vec![PerfKnobs {
            io_backend: IoBackend::Mmap,
            ..overlap_off
        }],
        Knob::IoOverlap => vec![overlap_off],
        Knob::IoBackend => vec![mmap],
    }
}

/// Every knob point but the default.
pub fn knob_points() -> Vec<PerfKnobs> {
    KNOBS.into_iter().flat_map(points).collect()
}

/// The structure groups the cells split [`STRUCTURES`] by.
pub fn every(_: Structure) -> bool {
    true
}

pub fn static_index(s: Structure) -> bool {
    matches!(s, Static(..))
}

pub fn stream(s: Structure) -> bool {
    matches!(s, Stream(..))
}

pub fn ctree(s: Structure) -> bool {
    matches!(s, Static(CTree, ..))
}

pub fn ctree_spilling(s: Structure) -> bool {
    matches!(s, Static(CTree, _, SPILL, _))
}

pub fn ctree_in_memory(s: Structure) -> bool {
    matches!(s, Static(CTree, _, IN_MEMORY, _))
}

pub fn clsm(s: Structure) -> bool {
    matches!(s, Static(Clsm, ..))
}

/// Data × the `structures` at the default point: exact answers are brute
/// force.
pub fn check_every_structure(data: Data, structures: fn(Structure) -> bool) {
    let dir = ScratchDir::new(&format!("diff-{}", data.name)).unwrap();
    for structure in STRUCTURES.into_iter().filter(|&s| structures(s)) {
        let run = run(&dir, &data, structure, PerfKnobs::default());
        assert_brute_force(&data, structure, &run);
    }
}

/// The walks the knob points are crossed on.
pub fn knob_walks() -> Data {
    Data {
        ks: &[1, 10],
        ..random_walks(600)
    }
}

/// `points` × the `structures` the knobs reach, over `data`: every point
/// reproduces the default, which is brute force.  The budget makes every
/// structure do the work its knobs reach: the CTree sort spills, CLSM fans
/// out over several units, a TP or BTP stream has several partitions, and
/// queries cost.
pub fn check_knob_points(data: Data, structures: fn(Structure) -> bool, points: &[PerfKnobs]) {
    let dir = ScratchDir::new(&format!("diff-knobs-{}", data.name)).unwrap();
    let reached = STRUCTURES
        .into_iter()
        .filter(|&s| s.takes_knobs() && structures(s));
    for structure in reached {
        let default = run(&dir, &data, structure, PerfKnobs::default());
        assert_brute_force(&data, structure, &default);
        let shape = &default.shape;
        match structure {
            Static(CTree, _, SPILL, _) => assert!(shape.sort_runs > 0, "the sort must spill"),
            Static(Clsm, ..) => assert!(shape.clsm.is_some_and(|(_, _, units)| units > 1)),
            Stream(_, Tp | Btp) => assert!(shape.partitions > 1, "the stream must partition"),
            _ => {}
        }
        let costs = default.answers.iter().any(|(_, cost, _)| {
            cost.entries_examined > 0 && (cost.blocks_read > 0 || matches!(structure, Stream(..)))
        });
        assert!(costs, "queries must cost something ({})", structure.label());
        for &knobs in points {
            let at = format!("{} on {} at {knobs:?}", structure.label(), data.name);
            assert_same(&default, &run(&dir, &data, structure, knobs), &at);
        }
    }
}

/// `structure` over `n` walks drawn from `seed`, built at `a` and at `b`:
/// the build at `a` is brute force, and the one at `b` reproduces it.
pub fn check_random(n: usize, seed: u64, structure: Structure, a: PerfKnobs, b: PerfKnobs) {
    let dir = ScratchDir::new("diff-random").unwrap();
    let data = Data {
        ks: &[1, 10],
        ..walks_from(n, seed, seed + 1000)
    };
    let first = run(&dir, &data, structure, a);
    assert_brute_force(&data, structure, &first);
    let at = format!(
        "{} over n={n} seed={seed} at {a:?} vs {b:?}",
        structure.label()
    );
    assert_same(&first, &run(&dir, &data, structure, b), &at);
}
