//! Index entries and their on-disk layout.
//!
//! Every Coconut index stores *entries*: the sortable summarization key, the
//! series id in the raw data file, the arrival timestamp (zero for static
//! datasets) and — in *materialized* variants — the full series values.

use coconut_sax::{InvSaxKey, SortableSummarizer};
use coconut_series::dataset::decode_f32_le;
use coconut_series::{Series, Timestamp};
use coconut_storage::RecordLayout;

/// A single index entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesEntry {
    /// Raw value of the sortable interleaved SAX key.
    pub key: u128,
    /// Series id in the raw data file.
    pub id: u64,
    /// Arrival timestamp (zero for static datasets).
    pub timestamp: Timestamp,
    /// Full series values when materialized; empty when non-materialized.
    pub values: Vec<f32>,
}

impl SeriesEntry {
    /// Builds an entry from a series using `summarizer`, materializing the
    /// values when `materialized` is set.
    pub fn from_series(
        series: &Series,
        timestamp: Timestamp,
        summarizer: &SortableSummarizer,
        materialized: bool,
    ) -> Self {
        Self::from_keyed(
            summarizer.key(&series.values),
            series,
            timestamp,
            materialized,
        )
    }

    /// Builds an entry from a series whose sortable key was already computed
    /// (e.g. by a batched summarization pass).  Single source of truth for
    /// the key/id/timestamp/values field mapping.
    pub fn from_keyed(
        key: InvSaxKey,
        series: &Series,
        timestamp: Timestamp,
        materialized: bool,
    ) -> Self {
        SeriesEntry {
            key: key.raw(),
            id: series.id,
            timestamp,
            values: if materialized {
                series.values.clone()
            } else {
                Vec::new()
            },
        }
    }

    /// Builds entries for a whole batch of series in one call, summarizing
    /// with up to `parallelism` worker threads (`1` = sequential, `0` = one
    /// per available core).
    ///
    /// Output order matches `series`; the result is identical to calling
    /// [`SeriesEntry::from_series`] per element at every worker count.
    pub fn from_series_batch(
        series: &[Series],
        timestamp: Timestamp,
        summarizer: &SortableSummarizer,
        materialized: bool,
        parallelism: usize,
    ) -> Vec<Self> {
        let keys = summarizer.keys_batch(series, parallelism);
        series
            .iter()
            .zip(keys)
            .map(|(s, key)| Self::from_keyed(key, s, timestamp, materialized))
            .collect()
    }

    /// Reconstructs the typed [`InvSaxKey`] of this entry.
    pub fn invsax(&self, key_width: u32) -> InvSaxKey {
        InvSaxKey::from_raw(self.key, key_width)
    }

    /// Returns `true` when the entry carries the full series values.
    pub fn is_materialized(&self) -> bool {
        !self.values.is_empty()
    }
}

/// On-disk layout for [`SeriesEntry`] records.
///
/// `series_len == 0` encodes a non-materialized layout (no values stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLayout {
    /// Width of the sortable key in bits (for reconstructing [`InvSaxKey`]s).
    pub key_width: u32,
    /// Number of stored values per entry (0 for non-materialized layouts).
    pub series_len: usize,
}

impl EntryLayout {
    /// Layout for non-materialized entries.
    pub fn non_materialized(key_width: u32) -> Self {
        EntryLayout {
            key_width,
            series_len: 0,
        }
    }

    /// Layout for materialized entries carrying `series_len` values.
    pub fn materialized(key_width: u32, series_len: usize) -> Self {
        assert!(series_len > 0);
        EntryLayout {
            key_width,
            series_len,
        }
    }

    /// Returns `true` when the layout stores full series values.
    pub fn is_materialized(&self) -> bool {
        self.series_len > 0
    }
}

/// Field readers over one encoded record, for scans that look at the key
/// and timestamp of every entry but decode the rest of only a few.
impl EntryLayout {
    /// The sortable key of an encoded record.
    pub fn key_of(buf: &[u8]) -> u128 {
        u128::from_be_bytes(buf[..16].try_into().expect("16-byte key field"))
    }

    /// The series id of an encoded record.
    pub fn id_of(buf: &[u8]) -> u64 {
        u64::from_be_bytes(buf[16..24].try_into().expect("8-byte id field"))
    }

    /// The arrival timestamp of an encoded record.
    pub fn timestamp_of(buf: &[u8]) -> Timestamp {
        u64::from_be_bytes(buf[24..32].try_into().expect("8-byte timestamp field"))
    }

    /// The little-endian `f32` values of an encoded record (empty for a
    /// non-materialized layout).
    pub fn values_of(buf: &[u8]) -> &[u8] {
        &buf[32..]
    }
}

impl RecordLayout for EntryLayout {
    type Record = SeriesEntry;
    type Key = (u128, u64);

    fn record_size(&self) -> usize {
        16 + 8 + 8 + 4 * self.series_len
    }

    fn encode(&self, record: &SeriesEntry, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.record_size());
        debug_assert_eq!(record.values.len(), self.series_len);
        buf[..16].copy_from_slice(&record.key.to_be_bytes());
        buf[16..24].copy_from_slice(&record.id.to_be_bytes());
        buf[24..32].copy_from_slice(&record.timestamp.to_be_bytes());
        let mut off = 32;
        for v in &record.values {
            buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
            off += 4;
        }
    }

    fn decode(&self, buf: &[u8]) -> SeriesEntry {
        debug_assert_eq!(buf.len(), self.record_size());
        let mut values = Vec::new();
        decode_f32_le(Self::values_of(buf), &mut values);
        SeriesEntry {
            key: Self::key_of(buf),
            id: Self::id_of(buf),
            timestamp: Self::timestamp_of(buf),
            values,
        }
    }

    fn key(&self, record: &SeriesEntry) -> Self::Key {
        (record.key, record.id)
    }

    fn columns(&self) -> coconut_storage::ColumnSpec {
        // The 16-byte big-endian invSAX key is front-coded (sorted
        // neighbors share long prefixes), id and timestamp are delta-varint
        // columns, and the f32 values are the raw tail key-only scans skip.
        coconut_storage::ColumnSpec {
            prefix_len: 16,
            int_fields: 2,
            tail_len: 4 * self.series_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_sax::SaxConfig;
    use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

    #[test]
    fn entry_roundtrip_non_materialized() {
        let layout = EntryLayout::non_materialized(128);
        let e = SeriesEntry {
            key: 12345678901234567890,
            id: 7,
            timestamp: 99,
            values: vec![],
        };
        let mut buf = vec![0u8; layout.record_size()];
        layout.encode(&e, &mut buf);
        assert_eq!(layout.decode(&buf), e);
        assert_eq!(layout.record_size(), 32);
        assert!(!layout.is_materialized());
    }

    #[test]
    fn entry_roundtrip_materialized() {
        let layout = EntryLayout::materialized(64, 16);
        let e = SeriesEntry {
            key: 42,
            id: 3,
            timestamp: 1,
            values: (0..16).map(|i| i as f32 * 0.5).collect(),
        };
        let mut buf = vec![0u8; layout.record_size()];
        layout.encode(&e, &mut buf);
        assert_eq!(layout.decode(&buf), e);
        assert_eq!(layout.record_size(), 32 + 64);
        assert!(layout.is_materialized());
    }

    #[test]
    fn from_series_respects_materialization() {
        let config = SaxConfig::new(64, 8, 8);
        let summarizer = SortableSummarizer::new(config);
        let mut gen = RandomWalkGenerator::new(64, 4);
        let s = gen.next_series();
        let mat = SeriesEntry::from_series(&s, 5, &summarizer, true);
        let non = SeriesEntry::from_series(&s, 5, &summarizer, false);
        assert_eq!(mat.key, non.key);
        assert_eq!(mat.id, s.id);
        assert!(mat.is_materialized());
        assert!(!non.is_materialized());
        assert_eq!(mat.values, s.values);
        assert_eq!(mat.invsax(config.key_bits()).raw(), mat.key);
    }

    #[test]
    fn layout_key_orders_by_key_then_id() {
        let layout = EntryLayout::non_materialized(128);
        let a = SeriesEntry {
            key: 1,
            id: 9,
            timestamp: 0,
            values: vec![],
        };
        let b = SeriesEntry {
            key: 2,
            id: 1,
            timestamp: 0,
            values: vec![],
        };
        assert!(layout.key(&a) < layout.key(&b));
    }
}
