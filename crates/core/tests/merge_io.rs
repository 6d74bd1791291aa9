//! Pins the I/O of the k-way merge against recorded values.
//!
//! Two merges run over whole run files: the external sorter's final merge
//! of its spill runs and the BTP size-tiered partition merge.  Both read
//! their inputs through `DynRunReader`s (with read-ahead workers once a run
//! is large enough) and merge them with `DynIterMerge`.  Each case below
//! runs with `io_overlap` off and on, and must reproduce, exactly, the
//! digests of the merged records and of every file left on disk, and the
//! full `IoStatsSnapshot` (logical and physical), as recorded with the
//! merge this one replaced.  A change that adds, drops or reorders a merge
//! read, or changes which record wins a tie, fails here.

use std::path::Path;
use std::sync::Arc;

use coconut_core::{
    IoStats, IoStatsSnapshot, PartitionedConfig, PartitionedStream, PerfKnobs, SaxConfig,
    ScratchDir, StreamingIndex,
};
use coconut_series::generator::SeismicStreamGenerator;
use coconut_storage::{DynExternalSorter, RecordLayout};

/// 64-bit FNV-1a, folded over several byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every file under `dir`, in name order, names included; taken
/// behind the durability barrier, so merged-away inputs are gone.
fn dir_digest(dir: &Path) -> u64 {
    coconut_storage::durability::drain().expect("durability barrier");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|entry| entry.expect("entry").path())
        .collect();
    paths.sort();
    let mut digest = Digest::new();
    for path in paths {
        digest.add(path.file_name().unwrap().to_string_lossy().as_bytes());
        digest.add(&std::fs::read(&path).expect("read file"));
    }
    digest.0
}

/// What a merge must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    records: u64,
    files: u64,
    io: IoStatsSnapshot,
}

/// A `u64` key followed by a payload that names the record.
#[derive(Clone)]
struct BlobLayout;

const BLOB_BYTES: usize = 1024;

impl RecordLayout for BlobLayout {
    type Record = (u64, Vec<u8>);
    type Key = u64;

    fn record_size(&self) -> usize {
        BLOB_BYTES
    }

    fn encode(&self, record: &Self::Record, buf: &mut [u8]) {
        buf[..8].copy_from_slice(&record.0.to_be_bytes());
        buf[8..].copy_from_slice(&record.1);
    }

    fn decode(&self, buf: &[u8]) -> Self::Record {
        (
            u64::from_be_bytes(buf[..8].try_into().unwrap()),
            buf[8..].to_vec(),
        )
    }

    fn key(&self, record: &Self::Record) -> u64 {
        record.0
    }
}

/// 12 000 records of 1 KiB with keys from 5 000 values (so ties cross
/// runs), sorted under a budget of 3 000-record chunks: four 3 MiB spill
/// runs, each read ahead at the start of the merge.
fn spilled_sort(io_overlap: bool) -> Pinned {
    let dir = ScratchDir::new("merge-io-sort").unwrap();
    let stats = IoStats::shared();
    let records = (0..12_000u64).map(|i| {
        let mut payload = vec![0u8; BLOB_BYTES - 8];
        for (j, chunk) in payload.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&(i ^ j as u64).to_le_bytes());
        }
        ((i * 2_654_435_761) % 5_000, payload)
    });
    let budget = 2 * 3_000 * BLOB_BYTES;
    let mut sorter = DynExternalSorter::new(BlobLayout, budget, dir.path(), Arc::clone(&stats))
        .with_knobs(PerfKnobs {
            io_overlap,
            ..PerfKnobs::default()
        });
    let output = sorter.sort(records).unwrap();
    assert_eq!(output.runs_generated, 4);
    let mut digest = Digest::new();
    let mut buf = vec![0u8; BLOB_BYTES];
    for record in output {
        BlobLayout.encode(&record.unwrap(), &mut buf);
        digest.add(&buf);
    }
    Pinned {
        records: digest.0,
        files: dir_digest(dir.path()),
        io: stats.snapshot(),
    }
}

/// Three 2 048-series partitions of length 256 (over 2 MiB each, so the
/// merge reads them ahead) fill one size tier and merge once.
fn btp_ingest(io_overlap: bool) -> Pinned {
    let dir = ScratchDir::new("merge-io-btp").unwrap();
    let stats = IoStats::shared();
    let config = PartitionedConfig::new(SaxConfig::paper_default(256))
        .with_buffer_capacity(2_048)
        .with_growth_factor(3)
        .with_knobs(PerfKnobs {
            io_overlap,
            ..PerfKnobs::default()
        });
    let mut btp =
        PartitionedStream::bounded_temporal_partitioning(config, dir.path(), Arc::clone(&stats))
            .unwrap();
    let mut generator = SeismicStreamGenerator::new(256, 5, 0.1);
    for _ in 0..3 {
        btp.ingest_batch(&generator.next_batch(2_048)).unwrap();
    }
    assert_eq!(btp.merges, 1);
    let mut digest = Digest::new();
    for partition in btp.sorted_partitions() {
        // A materialized partition's heads file, then its values file.
        for path in partition.run().paths() {
            digest.add(&std::fs::read(path).unwrap());
        }
    }
    Pinned {
        records: digest.0,
        files: dir_digest(dir.path()),
        io: stats.snapshot(),
    }
}

#[test]
fn merge_io_matches_the_recorded_values() {
    let sort = Pinned {
        records: 4_906_119_908_750_237_796,
        files: 15_701_001_324_956_119_472,
        io: IoStatsSnapshot {
            sequential_reads: 3_020,
            random_reads: 4,
            sequential_writes: 2_996,
            random_writes: 4,
            bytes_read: 12_386_304,
            bytes_written: 12_288_000,
            physical_bytes_read: 12_386_304,
            physical_bytes_written: 12_288_000,
        },
    };
    // Materialized partitions keep their values in a `.tail` file: the
    // digests cover both files, and appends charge exact physical bytes
    // (the logical fields, and the rows the two files hold, are unchanged).
    let btp = Pinned {
        records: 615_809_879_293_458_902,
        files: 7_899_874_654_484_989_064,
        io: IoStatsSnapshot {
            sequential_reads: 1_581,
            random_reads: 3,
            sequential_writes: 3_357,
            random_writes: 4,
            bytes_read: 6_488_064,
            bytes_written: 13_766_656,
            physical_bytes_read: 6_488_064,
            physical_bytes_written: 12_976_128,
        },
    };
    for io_overlap in [false, true] {
        assert_eq!(
            spilled_sort(io_overlap),
            sort,
            "sort, io_overlap={io_overlap}"
        );
        assert_eq!(btp_ingest(io_overlap), btp, "btp, io_overlap={io_overlap}");
    }
}
