//! Block-compressed framing for sorted record runs (the `compression` knob).
//!
//! The Coconut papers' headline storage argument is that *sortable*
//! summarizations make the index itself compressible: neighboring invSAX
//! keys in a sorted run share long big-endian prefixes, exactly like the
//! key blocks of an LSM tree.  This module implements that claim as a
//! column-aware block codec:
//!
//! * Sorted records are framed into blocks of a fixed **record count**
//!   ([`block_records_for`], targeting ~4 KiB of logical data), so the block
//!   holding record `i` is a pure function of `i` — compression never moves
//!   a record to a different block.
//! * Within a block, a [`ColumnSpec`] splits each record into three column
//!   regions:
//!   1. a **front-coded prefix column** (the big-endian invSAX key): the
//!      first record's prefix is stored raw as the restart key, every
//!      following record as `varint(shared_prefix_len)`,
//!      `varint(suffix_len)`, suffix bytes;
//!   2. **integer columns** (pointers, timestamps; 8-byte big-endian u64s):
//!      first value as a varint, then zigzag-varint deltas;
//!   3. a **raw tail** (materialized `values` payloads — f32 noise that does
//!      not compress): concatenated unencoded in a separate region at the
//!      end of the block, so key-only scans read the head region and never
//!      touch it.
//! * Every block's physical `(offset, total_len, head_len)` extent is kept
//!   in an in-memory directory and mirrored in a self-describing footer at
//!   the end of the file ([`FOOTER_MAGIC`]).
//!
//! # The identity contract
//!
//! Compression is a pure performance knob.  The decoded record stream is
//! byte-identical to the uncompressed file, so answers, `QueryCost` and
//! every engine decision point are unchanged by construction.  `IoStats`
//! stays honest through the logical/physical split
//! ([`crate::iostats`]): a compressed run charges the **logical** view —
//! classification counters and byte totals — from its record arithmetic via
//! [`LogicalAccountant`], which replays exactly the page walk
//! `PagedFile::account` would have performed on the uncompressed file,
//! while the **physical** byte counters record the block frames actually
//! read or written.  `compression=off` writes raw fixed-size records:
//! whole rows for a layout without a value tail, and for a layout with one
//! (a materialized entry) the heads in the run's file and the tails in a
//! sibling `.tail` file, charged the same logical way (see
//! `crate::dynsort`'s `RunFormat`).

use crate::iostats::{PageCursor, SharedIoStats};
use crate::{Result, StorageError};

coconut_json::wire! {
    /// On-disk compression scheme of a sorted run.  Its wire name (`"off"` /
    /// `"prefix"`, [`Compression::name`]) is the palm `build_index`
    /// member's; the wire also takes any spelling [`str::parse`] does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Compression names "the compression scheme" {
        /// Raw fixed-size records: rows, or heads and value tails in two
        /// files when the layout has a tail.  The default.
        #[default]
        Off = "off",
        /// Front-coded prefix column + delta-varint integer columns + raw
        /// tail region, framed into blocks (see the module docs).
        Prefix = "prefix",
    }
    fn name;
    unknown: str::parse;
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Compression {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(Compression::Off),
            "prefix" => Ok(Compression::Prefix),
            other => Err(format!(
                "unknown compression '{other}' (expected 'off' or 'prefix')"
            )),
        }
    }
}

/// How a fixed-size record splits into the codec's three column regions.
///
/// `prefix_len + 8 * int_fields + tail_len` must equal the record size.
/// Layouts that have no meaningful structure use [`ColumnSpec::opaque`]:
/// the whole record is front-coded as one prefix column, which is always
/// correct (front-coding two arbitrary byte strings is lossless) and still
/// wins on sorted data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Leading bytes front-coded against the previous record (the sorted
    /// big-endian key column).
    pub prefix_len: usize,
    /// Number of 8-byte big-endian `u64` fields following the prefix
    /// (pointers, timestamps), each stored as a delta-varint column.
    pub int_fields: usize,
    /// Trailing raw bytes (materialized values) stored unencoded in the
    /// block's tail region.
    pub tail_len: usize,
}

impl ColumnSpec {
    /// A spec treating the whole record as one front-coded column.
    pub fn opaque(record_size: usize) -> ColumnSpec {
        ColumnSpec {
            prefix_len: record_size,
            int_fields: 0,
            tail_len: 0,
        }
    }

    /// Total record size described by this spec.
    pub fn record_size(&self) -> usize {
        self.prefix_len + 8 * self.int_fields + self.tail_len
    }

    /// Size of the head portion of one record (prefix + integer fields) —
    /// what a key-only scan decodes.
    pub fn head_size(&self) -> usize {
        self.prefix_len + 8 * self.int_fields
    }
}

/// Target logical bytes per block.  4 KiB of records per block keeps a
/// block probe within one page-cache page worth of decoded data while
/// amortizing the restart key.
pub const BLOCK_TARGET_BYTES: usize = 4096;

/// Records per block for a given record size: the block index of record
/// `i` is the pure function `i / block_records_for(size)`.
pub fn block_records_for(record_size: usize) -> usize {
    (BLOCK_TARGET_BYTES / record_size.max(1)).max(1)
}

/// Physical placement of one encoded block inside its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockExtent {
    /// Byte offset of the block's first byte.
    pub offset: u64,
    /// Total encoded length (head + tail regions).
    pub len: u32,
    /// Length of the head region alone (record count + front-coded prefix
    /// column + integer columns); a key-only scan reads only these bytes.
    pub head_len: u32,
}

/// Magic trailer bytes of the self-describing footer a compressed run ends
/// with (directory of [`BlockExtent`]s + record/block counts).
pub const FOOTER_MAGIC: [u8; 4] = *b"CPRX";

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| StorageError::Corrupt("varint truncated".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag encoding: maps small-magnitude signed deltas to small unsigned
/// varints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Encodes one block of raw records (`records.len()` must be a non-zero
/// multiple of `spec.record_size()`) into `out`, returning the head length
/// (the byte length of everything before the raw tail region).
pub fn encode_block(spec: &ColumnSpec, records: &[u8], out: &mut Vec<u8>) -> usize {
    let size = spec.record_size();
    debug_assert!(size > 0 && !records.is_empty() && records.len().is_multiple_of(size));
    let n = records.len() / size;
    let record = |i: usize| &records[i * size..(i + 1) * size];

    write_varint(out, n as u64);
    // Front-coded prefix column: restart key raw, then shared/suffix pairs.
    out.extend_from_slice(&record(0)[..spec.prefix_len]);
    for i in 1..n {
        let prev = &record(i - 1)[..spec.prefix_len];
        let cur = &record(i)[..spec.prefix_len];
        let shared = common_prefix(prev, cur);
        write_varint(out, shared as u64);
        write_varint(out, (spec.prefix_len - shared) as u64);
        out.extend_from_slice(&cur[shared..]);
    }
    // Integer columns: first value raw varint, then zigzag deltas.
    for field in 0..spec.int_fields {
        let at = spec.prefix_len + 8 * field;
        let mut prev = 0u64;
        for i in 0..n {
            let raw: [u8; 8] = record(i)[at..at + 8].try_into().expect("8-byte field");
            let v = u64::from_be_bytes(raw);
            if i == 0 {
                write_varint(out, v);
            } else {
                write_varint(out, zigzag(v.wrapping_sub(prev) as i64));
            }
            prev = v;
        }
    }
    let head_len = out.len();
    // Raw tail region: values payloads, unencoded, never touched by
    // key-only scans.
    for i in 0..n {
        out.extend_from_slice(&record(i)[size - spec.tail_len..]);
    }
    head_len
}

/// Decodes a block's head region into concatenated per-record head bytes
/// (`n * spec.head_size()`): the prefix column followed by the big-endian
/// integer fields, exactly as they appear at the front of each raw record.
pub fn decode_block_heads(spec: &ColumnSpec, head: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let n = read_varint(head, &mut pos)? as usize;
    if n == 0 {
        return Err(StorageError::Corrupt("empty block".into()));
    }
    let head_size = spec.head_size();
    let mut out = vec![0u8; n * head_size];

    // Prefix column.
    let take = |bytes: &[u8], pos: &mut usize, len: usize| -> Result<std::ops::Range<usize>> {
        let start = *pos;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| StorageError::Corrupt("block head truncated".into()))?;
        *pos = end;
        Ok(start..end)
    };
    let first = take(head, &mut pos, spec.prefix_len)?;
    out[..spec.prefix_len].copy_from_slice(&head[first]);
    for i in 1..n {
        let shared = read_varint(head, &mut pos)? as usize;
        let suffix = read_varint(head, &mut pos)? as usize;
        if shared + suffix != spec.prefix_len || shared > spec.prefix_len {
            return Err(StorageError::Corrupt(format!(
                "front-coded key {shared}+{suffix} != prefix length {}",
                spec.prefix_len
            )));
        }
        let suffix_bytes = take(head, &mut pos, suffix)?;
        let (done, cur) = out.split_at_mut(i * head_size);
        let prev = &done[(i - 1) * head_size..(i - 1) * head_size + shared];
        cur[..shared].copy_from_slice(prev);
        cur[shared..spec.prefix_len].copy_from_slice(&head[suffix_bytes]);
    }
    // Integer columns.
    for field in 0..spec.int_fields {
        let at = spec.prefix_len + 8 * field;
        let mut prev = 0u64;
        for i in 0..n {
            let raw = read_varint(head, &mut pos)?;
            let v = if i == 0 {
                raw
            } else {
                prev.wrapping_add(unzigzag(raw) as u64)
            };
            out[i * head_size + at..i * head_size + at + 8].copy_from_slice(&v.to_be_bytes());
            prev = v;
        }
    }
    Ok(out)
}

/// Decodes one whole block (as produced by [`encode_block`]) back into raw
/// records, given the head length recorded in the block's extent.
pub fn decode_block(spec: &ColumnSpec, bytes: &[u8], head_len: usize) -> Result<Vec<u8>> {
    if head_len > bytes.len() {
        return Err(StorageError::Corrupt("block shorter than its head".into()));
    }
    let (head, tail) = bytes.split_at(head_len);
    let heads = decode_block_heads(spec, head)?;
    let head_size = spec.head_size();
    let n = heads.len() / head_size.max(1);
    if tail.len() != n * spec.tail_len {
        return Err(StorageError::Corrupt(format!(
            "block tail region is {} bytes, expected {}",
            tail.len(),
            n * spec.tail_len
        )));
    }
    let size = spec.record_size();
    let mut out = vec![0u8; n * size];
    for i in 0..n {
        out[i * size..i * size + head_size]
            .copy_from_slice(&heads[i * head_size..(i + 1) * head_size]);
        out[i * size + head_size..(i + 1) * size]
            .copy_from_slice(&tail[i * spec.tail_len..(i + 1) * spec.tail_len]);
    }
    Ok(out)
}

/// Replays, over *logical* record offsets, the exact page walk
/// [`crate::PagedFile`] performs over physical offsets: every touched
/// logical page is classified sequential or random against the previously
/// touched logical page of the same run, and charged to the **logical**
/// counters of the shared [`crate::IoStats`].
///
/// A compressed run owns one accountant for its whole life (writer state
/// carries into the reader, exactly like `PagedFile`'s cursor), so the
/// logical view of a compressed run is identical, access for access, to
/// the `IoStats` an uncompressed run would have produced.
#[derive(Debug)]
pub struct LogicalAccountant {
    page_size: usize,
    stats: SharedIoStats,
    cursor: PageCursor,
}

impl LogicalAccountant {
    /// Creates an accountant charging into `stats` at `page_size`
    /// granularity (the same page size the run's `PagedFile` uses).
    pub fn new(stats: SharedIoStats, page_size: usize) -> LogicalAccountant {
        assert!(page_size > 0);
        LogicalAccountant {
            page_size,
            stats,
            cursor: PageCursor::new(),
        }
    }

    /// Charges one logical access of `bytes` bytes at logical `offset`:
    /// the page walk of `PagedFile`, through the same page cursor.
    pub fn account(&self, offset: u64, bytes: usize, is_read: bool) {
        self.cursor
            .charge(&self.stats, self.page_size, offset, bytes, is_read, false);
    }

    /// The shared stats handle this accountant charges into.
    pub fn stats(&self) -> &SharedIoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoStats;

    fn records_from_rows(spec: &ColumnSpec, rows: &[(Vec<u8>, Vec<u64>, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (prefix, ints, tail) in rows {
            assert_eq!(prefix.len(), spec.prefix_len);
            assert_eq!(ints.len(), spec.int_fields);
            assert_eq!(tail.len(), spec.tail_len);
            out.extend_from_slice(prefix);
            for v in ints {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out.extend_from_slice(tail);
        }
        out
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // Truncated stream surfaces as Corrupt, not a panic.
        let mut short_pos = 0;
        assert!(read_varint(&buf[..1], &mut short_pos).is_ok());
        let mut bad_pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut bad_pos).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn block_roundtrip_with_columns() {
        let spec = ColumnSpec {
            prefix_len: 16,
            int_fields: 2,
            tail_len: 12,
        };
        // Sorted 16-byte keys sharing long prefixes, small id deltas, a
        // constant timestamp, and noisy tails.
        let rows: Vec<(Vec<u8>, Vec<u64>, Vec<u8>)> = (0..100u64)
            .map(|i| {
                let key = (0x1234_5678_0000_0000u128 + (i as u128) * 3)
                    .to_be_bytes()
                    .to_vec();
                let ints = vec![i * 977 % 4096, 42];
                let tail = (0..12).map(|b| ((i * 31 + b) % 251) as u8).collect();
                (key, ints, tail)
            })
            .collect();
        let raw = records_from_rows(&spec, &rows);
        let mut encoded = Vec::new();
        let head_len = encode_block(&spec, &raw, &mut encoded);
        assert!(head_len <= encoded.len());
        assert!(
            encoded.len() < raw.len(),
            "sorted keys with shared prefixes must compress ({} vs {})",
            encoded.len(),
            raw.len()
        );
        let back = decode_block(&spec, &encoded, head_len).unwrap();
        assert_eq!(back, raw);
        // Head-only decode reconstructs prefix + int fields of each record.
        let heads = decode_block_heads(&spec, &encoded[..head_len]).unwrap();
        let head_size = spec.head_size();
        for (i, row) in rows.iter().enumerate() {
            let h = &heads[i * head_size..(i + 1) * head_size];
            assert_eq!(&h[..16], row.0.as_slice());
            assert_eq!(u64::from_be_bytes(h[16..24].try_into().unwrap()), row.1[0]);
        }
    }

    #[test]
    fn duplicate_keys_front_code_to_nothing() {
        let spec = ColumnSpec {
            prefix_len: 16,
            int_fields: 1,
            tail_len: 0,
        };
        let key = 7u128.to_be_bytes().to_vec();
        let rows: Vec<_> = (0..50u64)
            .map(|i| (key.clone(), vec![i], Vec::new()))
            .collect();
        let raw = records_from_rows(&spec, &rows);
        let mut encoded = Vec::new();
        let head_len = encode_block(&spec, &raw, &mut encoded);
        let back = decode_block(&spec, &encoded, head_len).unwrap();
        assert_eq!(back, raw);
        // 49 duplicate keys cost two varints each (shared=16, suffix=0).
        assert!(encoded.len() < raw.len() / 4);
    }

    #[test]
    fn opaque_spec_roundtrips_arbitrary_records() {
        let spec = ColumnSpec::opaque(21);
        let raw: Vec<u8> = (0..21 * 33).map(|i| (i * 89 % 256) as u8).collect();
        let mut encoded = Vec::new();
        let head_len = encode_block(&spec, &raw, &mut encoded);
        assert_eq!(head_len, encoded.len(), "opaque spec has no tail region");
        assert_eq!(decode_block(&spec, &encoded, head_len).unwrap(), raw);
    }

    #[test]
    fn single_record_block_roundtrips() {
        let spec = ColumnSpec {
            prefix_len: 16,
            int_fields: 2,
            tail_len: 256,
        };
        let raw = records_from_rows(
            &spec,
            &[(vec![0xab; 16], vec![u64::MAX, 0], vec![0x5a; 256])],
        );
        let mut encoded = Vec::new();
        let head_len = encode_block(&spec, &raw, &mut encoded);
        assert_eq!(decode_block(&spec, &encoded, head_len).unwrap(), raw);
    }

    #[test]
    fn corrupt_blocks_error_instead_of_panicking() {
        let spec = ColumnSpec {
            prefix_len: 8,
            int_fields: 1,
            tail_len: 4,
        };
        let raw = records_from_rows(
            &spec,
            &[
                (vec![1; 8], vec![5], vec![9; 4]),
                (vec![2; 8], vec![6], vec![8; 4]),
            ],
        );
        let mut encoded = Vec::new();
        let head_len = encode_block(&spec, &raw, &mut encoded);
        assert!(decode_block(&spec, &encoded[..head_len / 2], head_len).is_err());
        assert!(decode_block(&spec, &encoded[..encoded.len() - 1], head_len).is_err());
        let mut mangled = encoded.clone();
        mangled[1] ^= 0xff; // corrupt the restart key length structure
        let _ = decode_block(&spec, &mangled, head_len); // must not panic
    }

    #[test]
    fn block_records_is_deterministic_in_record_size() {
        assert_eq!(block_records_for(32), 128);
        assert_eq!(block_records_for(288), 14);
        assert_eq!(block_records_for(4096), 1);
        assert_eq!(block_records_for(100_000), 1);
        assert_eq!(block_records_for(1), 4096);
    }

    #[test]
    fn logical_accountant_mirrors_paged_file_walk() {
        // The same access sequence against a LogicalAccountant and a real
        // PagedFile must produce identical logical counters.
        let dir = crate::tempdir::ScratchDir::new("block-logical").unwrap();
        let file_stats = IoStats::shared();
        let file = crate::PagedFile::create_with_page_size(
            dir.file("a.bin"),
            std::sync::Arc::clone(&file_stats),
            64,
        )
        .unwrap();
        let logical_stats = IoStats::shared();
        let acct = LogicalAccountant::new(std::sync::Arc::clone(&logical_stats), 64);

        file.append(&vec![0u8; 300]).unwrap();
        acct.account(0, 300, false);
        file.append(&[0u8; 20]).unwrap();
        acct.account(300, 20, false);
        for (offset, len) in [(0u64, 64usize), (64, 64), (256, 64), (10, 100)] {
            file.read_at(offset, len).unwrap();
            acct.account(offset, len, true);
        }
        assert_eq!(
            file_stats.snapshot().logical(),
            logical_stats.snapshot().logical()
        );
    }

    #[test]
    fn compression_parse_and_json() {
        assert_eq!("off".parse::<Compression>().unwrap(), Compression::Off);
        assert_eq!(
            " Prefix ".parse::<Compression>().unwrap(),
            Compression::Prefix
        );
        assert!("zstd".parse::<Compression>().is_err());
        for c in [Compression::Off, Compression::Prefix] {
            let json = coconut_json::ToJson::to_json(&c);
            let back: Compression = coconut_json::FromJson::from_json(&json).unwrap();
            assert_eq!(back, c);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Round-trip across the column-width extremes: any key width
            /// (including zero), any int-field count, any tail length, any
            /// record count — full decode and head-only decode both
            /// reconstruct the input exactly, duplicate-heavy keys
            /// included.
            #[test]
            fn encode_decode_roundtrips_for_random_widths(
                prefix_len in 1usize..24,
                int_fields in 0usize..4,
                tail_len in 0usize..48,
                count in 1usize..120,
                dup_every in 1u64..8,
                seed in 0u64..10_000,
            ) {
                let spec = ColumnSpec { prefix_len, int_fields, tail_len };
                let rows: Vec<(Vec<u8>, Vec<u64>, Vec<u8>)> = (0..count as u64)
                    .map(|i| {
                        // Sorted keys with runs of duplicates; pseudo-random
                        // ints and tails derived from the seed.
                        let base = (seed as u128) << 32 | (i / dup_every) as u128;
                        let key: Vec<u8> = base
                            .to_be_bytes()
                            .into_iter()
                            .cycle()
                            .take(prefix_len)
                            .collect();
                        let ints = (0..int_fields as u64)
                            .map(|f| seed.wrapping_mul(i + 1).wrapping_add(f))
                            .collect();
                        let tail = (0..tail_len as u64)
                            .map(|b| (seed ^ (i * 131 + b)) as u8)
                            .collect();
                        (key, ints, tail)
                    })
                    .collect();
                let raw = records_from_rows(&spec, &rows);
                let mut encoded = Vec::new();
                let head_len = encode_block(&spec, &raw, &mut encoded);
                prop_assert!(head_len <= encoded.len());
                prop_assert_eq!(&decode_block(&spec, &encoded, head_len).unwrap(), &raw);
                let heads = decode_block_heads(&spec, &encoded[..head_len]).unwrap();
                let head = spec.head_size();
                let record = spec.record_size();
                prop_assert_eq!(heads.len(), count * head);
                for i in 0..count {
                    prop_assert_eq!(
                        &heads[i * head..(i + 1) * head],
                        &raw[i * record..i * record + head]
                    );
                }
            }

            /// Truncating an encoded block anywhere never panics: it either
            /// errors or (for cuts inside the tail) returns fewer bytes than
            /// a full decode.
            #[test]
            fn truncated_blocks_never_panic(
                cut in 0usize..200,
                count in 1usize..40,
            ) {
                let spec = ColumnSpec { prefix_len: 8, int_fields: 1, tail_len: 4 };
                let rows: Vec<_> = (0..count as u64)
                    .map(|i| ((i * 3).to_be_bytes().to_vec(), vec![i], vec![i as u8; 4]))
                    .collect();
                let raw = records_from_rows(&spec, &rows);
                let mut encoded = Vec::new();
                let head_len = encode_block(&spec, &raw, &mut encoded);
                let cut = cut.min(encoded.len());
                let _ = decode_block(&spec, &encoded[..cut], head_len.min(cut));
                let _ = decode_block_heads(&spec, &encoded[..cut.min(head_len)]);
            }
        }
    }
}
