//! # coconut-sax
//!
//! Summarization substrate for the Coconut Palm reproduction.
//!
//! Data series indexes never compare raw series against each other during
//! pruning; they compare small fixed-size *summarizations*.  This crate
//! implements the SAX family of summarizations plus the paper's core
//! contribution, the **sortable** summarization:
//!
//! * [`breakpoints`] — Gaussian quantization breakpoints for alphabet sizes
//!   that are powers of two (as required by iSAX).
//! * [`sax`] — the SAX word of a series: PAA segment means quantized into
//!   per-segment symbols at a fixed cardinality.
//! * [`isax`] — indexable SAX: per-segment symbols annotated with their own
//!   cardinality, allowing variable-resolution prefixes (used by the ADS+
//!   baseline's split hierarchy).
//! * [`invsax`] — *inverted/interleaved* SAX, the sortable summarization: the
//!   bits of all segments are interleaved most-significant-first into a
//!   single integer key, such that sorting by the key clusters series that
//!   agree on the high-order bits of **all** segments (Section 1 of the
//!   paper: "interleave the bits in each summarization such that the more
//!   significant bits across all segments precede all the less significant
//!   bits").
//! * [`mindist`] — lower-bounding distances between a query (PAA) and a SAX /
//!   iSAX / InvSax summary, used for pruning during search; the exact scan's
//!   per-entry bound is [`QueryBounds`], a per-query distance table looked up
//!   straight from the raw key.
//!
//! All types are parameterized by a [`SaxConfig`] describing the series
//! length, the number of segments and the per-segment alphabet bits.

pub mod breakpoints;
pub mod invsax;
pub mod isax;
pub mod mindist;
pub mod sax;

pub use breakpoints::Breakpoints;
pub use invsax::{deinterleave, InvSaxKey, SortableSummarizer};
pub use isax::{IsaxSymbol, IsaxWord};
pub use mindist::{
    mindist_paa_isax_sq, mindist_paa_key_prefix_sq, mindist_paa_sax_sq, QueryBounds,
};
pub use sax::SaxWord;

/// Maximum number of bits per segment supported by the summarizations.
///
/// 8 bits = cardinality 256, which is the maximum used by iSAX
/// implementations in the literature (iSAX 2.0 uses 8 bits as well).
pub const MAX_BITS_PER_SEGMENT: u8 = 8;

/// Maximum total key width supported by [`invsax::InvSaxKey`] (bits).
pub const MAX_KEY_BITS: u32 = 128;

/// Maximum number of segments a [`SaxConfig`] can hold (one bit each in a
/// key of [`MAX_KEY_BITS`]): the size of a stack buffer that fits the
/// symbols of any key.
pub const MAX_SEGMENTS: usize = MAX_KEY_BITS as usize;

/// Configuration of a SAX-family summarization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaxConfig {
    /// Number of points in each summarized series.
    pub series_len: usize,
    /// Number of PAA segments (a.k.a. the word length `w`).
    pub segments: usize,
    /// Bits per segment; the alphabet cardinality is `2^bits_per_segment`.
    pub bits_per_segment: u8,
}

impl SaxConfig {
    /// Creates a new configuration, validating its invariants.
    ///
    /// # Panics
    /// Panics if the segment count is zero or exceeds the series length, if
    /// the bit width is zero or exceeds [`MAX_BITS_PER_SEGMENT`], or if the
    /// total key width would exceed [`MAX_KEY_BITS`].
    pub fn new(series_len: usize, segments: usize, bits_per_segment: u8) -> Self {
        assert!(segments > 0, "segments must be positive");
        assert!(
            segments <= series_len,
            "segments ({segments}) must not exceed series length ({series_len})"
        );
        assert!(bits_per_segment > 0, "bits per segment must be positive");
        assert!(
            bits_per_segment <= MAX_BITS_PER_SEGMENT,
            "bits per segment must be at most {MAX_BITS_PER_SEGMENT}"
        );
        assert!(
            (segments as u32) * (bits_per_segment as u32) <= MAX_KEY_BITS,
            "total key width {} exceeds {} bits",
            segments * bits_per_segment as usize,
            MAX_KEY_BITS
        );
        SaxConfig {
            series_len,
            segments,
            bits_per_segment,
        }
    }

    /// The default configuration used throughout the paper's experiments:
    /// 16 segments with 8 bits each (cardinality 256).
    pub fn paper_default(series_len: usize) -> Self {
        let segments = 16.min(series_len);
        SaxConfig::new(series_len, segments, 8)
    }

    /// Per-segment alphabet cardinality (`2^bits_per_segment`).
    pub fn cardinality(&self) -> u32 {
        1u32 << self.bits_per_segment
    }

    /// Total number of bits in the interleaved sortable key.
    pub fn key_bits(&self) -> u32 {
        self.segments as u32 * self.bits_per_segment as u32
    }
}

/// The configurations and keys the deinterleave and bound tests sweep.
#[cfg(test)]
pub(crate) mod test_grid {
    use super::{InvSaxKey, SaxConfig, MAX_KEY_BITS};

    /// Every shape the deinterleave distinguishes: whole-byte bit levels
    /// (8, 16, 32 segments) and the bit-at-a-time fallback (1, 4, 12).
    pub const SEGMENTS: [usize; 6] = [1, 4, 8, 12, 16, 32];

    /// `segments` × `bits`, the cardinality clamped to what the key width
    /// allows (32 segments stop at 4 bits).
    pub fn config(segments: usize, bits: u8) -> SaxConfig {
        let bits = bits.min((MAX_KEY_BITS as usize / segments) as u8);
        SaxConfig::new(segments * 4, segments, bits)
    }

    /// The key of `config`'s width made of the low bits of `hi:lo`.
    pub fn key(hi: u64, lo: u64, config: &SaxConfig) -> InvSaxKey {
        let raw = ((hi as u128) << 64) | lo as u128;
        let width = config.key_bits();
        let raw = if width < 128 {
            raw & ((1u128 << width) - 1)
        } else {
            raw
        };
        InvSaxKey::from_raw(raw, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors() {
        let c = SaxConfig::new(256, 16, 8);
        assert_eq!(c.cardinality(), 256);
        assert_eq!(c.key_bits(), 128);
    }

    #[test]
    fn paper_default_clamps_segments() {
        let c = SaxConfig::paper_default(8);
        assert_eq!(c.segments, 8);
        let c = SaxConfig::paper_default(256);
        assert_eq!(c.segments, 16);
        assert_eq!(c.bits_per_segment, 8);
    }

    #[test]
    #[should_panic(expected = "segments must be positive")]
    fn zero_segments_rejected() {
        SaxConfig::new(16, 0, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_key_rejected() {
        SaxConfig::new(1024, 32, 8);
    }

    #[test]
    #[should_panic(expected = "bits per segment")]
    fn oversized_bits_rejected() {
        SaxConfig::new(64, 8, 9);
    }
}
