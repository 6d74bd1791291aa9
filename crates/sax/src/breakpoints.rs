//! Gaussian quantization breakpoints.
//!
//! SAX quantizes each (z-normalized) PAA coefficient into one of `2^b`
//! symbols whose regions are equiprobable under the standard normal
//! distribution.  The region boundaries ("breakpoints") are therefore the
//! quantiles `Φ⁻¹(i / 2^b)` for `i = 1 .. 2^b - 1`.
//!
//! Because the quantiles at cardinality `2^b` are a subset of those at
//! `2^(b+1)`, the symbol at a coarser cardinality is exactly the bit prefix
//! of the symbol at a finer cardinality — the nesting property that both
//! iSAX (variable-cardinality nodes) and the sortable interleaved keys rely
//! on.  [`Breakpoints::symbol`] and [`Breakpoints::region`] expose the
//! quantization and its inverse bounds.

use std::sync::OnceLock;

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Uses Peter Acklam's rational approximation (relative error < 1.15e-9),
/// which is more than accurate enough for breakpoint computation.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inverse_normal_cdf requires 0 < p < 1, got {p}"
    );
    // Coefficients for the rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Breakpoint table for a fixed number of bits per segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakpoints {
    bits: u8,
    /// `2^bits - 1` breakpoints in strictly increasing order.
    cuts: Vec<f64>,
}

impl Breakpoints {
    /// Builds the breakpoint table for `bits` bits (cardinality `2^bits`).
    ///
    /// # Panics
    /// Panics if `bits` is zero or greater than
    /// [`crate::MAX_BITS_PER_SEGMENT`].
    pub fn new(bits: u8) -> Self {
        assert!(bits > 0, "bits must be positive");
        assert!(
            bits <= crate::MAX_BITS_PER_SEGMENT,
            "bits must be at most {}",
            crate::MAX_BITS_PER_SEGMENT
        );
        let card = 1usize << bits;
        let cuts = (1..card)
            .map(|i| inverse_normal_cdf(i as f64 / card as f64))
            .collect();
        Breakpoints { bits, cuts }
    }

    /// Number of bits per symbol.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Alphabet cardinality.
    pub fn cardinality(&self) -> u32 {
        1u32 << self.bits
    }

    /// The raw breakpoints (length `cardinality - 1`), strictly increasing.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Quantizes a PAA coefficient into its symbol (0-based, lowest region is
    /// symbol 0).
    pub fn symbol(&self, value: f64) -> u32 {
        // partition_point returns the number of breakpoints <= value, which
        // is exactly the region index.
        self.cuts.partition_point(|&cut| cut <= value) as u32
    }

    /// Returns the `(lower, upper)` bounds of a symbol's region.
    ///
    /// The lowest region's lower bound is `-inf` and the highest region's
    /// upper bound is `+inf`.
    pub fn region(&self, symbol: u32) -> (f64, f64) {
        assert!(
            symbol < self.cardinality(),
            "symbol {symbol} out of range for cardinality {}",
            self.cardinality()
        );
        let lower = if symbol == 0 {
            f64::NEG_INFINITY
        } else {
            self.cuts[(symbol - 1) as usize]
        };
        let upper = if symbol as usize == self.cuts.len() {
            f64::INFINITY
        } else {
            self.cuts[symbol as usize]
        };
        (lower, upper)
    }

    /// Minimum squared distance between a value and a symbol's region
    /// (zero when the value falls inside the region).
    pub fn region_distance_sq(&self, value: f64, symbol: u32) -> f64 {
        let (lower, upper) = self.region(symbol);
        if value < lower {
            let d = lower - value;
            d * d
        } else if value > upper {
            let d = value - upper;
            d * d
        } else {
            0.0
        }
    }

    /// Minimum squared distance between the regions of two symbols at this
    /// cardinality (zero for identical or adjacent symbols).
    pub fn symbol_distance_sq(&self, a: u32, b: u32) -> f64 {
        if a == b || a.abs_diff(b) == 1 {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // The gap between the upper bound of the lower region and the lower
        // bound of the higher region.
        let upper_of_lo = self.cuts[lo as usize];
        let lower_of_hi = self.cuts[(hi - 1) as usize];
        let d = lower_of_hi - upper_of_lo;
        d * d
    }
}

/// A cache of breakpoint tables for all supported bit widths (1..=8).
#[derive(Debug, Clone)]
pub struct BreakpointTable {
    tables: Vec<Breakpoints>,
}

impl BreakpointTable {
    /// Builds breakpoint tables for every bit width from 1 to
    /// [`crate::MAX_BITS_PER_SEGMENT`].
    pub fn new() -> Self {
        BreakpointTable {
            tables: (1..=crate::MAX_BITS_PER_SEGMENT)
                .map(Breakpoints::new)
                .collect(),
        }
    }

    /// The process-wide table, built on first use.  The breakpoints are
    /// constants of the normal distribution, so every index and every query
    /// shares this one copy.
    pub fn global() -> &'static BreakpointTable {
        static TABLE: OnceLock<BreakpointTable> = OnceLock::new();
        TABLE.get_or_init(BreakpointTable::new)
    }

    /// Returns the table for `bits` bits.
    pub fn for_bits(&self, bits: u8) -> &Breakpoints {
        assert!((1..=crate::MAX_BITS_PER_SEGMENT).contains(&bits));
        &self.tables[(bits - 1) as usize]
    }
}

impl Default for BreakpointTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cdf_known_values() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn breakpoints_card4_match_sax_literature() {
        // The classic SAX alphabet-4 breakpoints are (-0.6745, 0, 0.6745).
        let bp = Breakpoints::new(2);
        assert_eq!(bp.cuts().len(), 3);
        assert!((bp.cuts()[0] + 0.6745).abs() < 1e-3);
        assert!(bp.cuts()[1].abs() < 1e-9);
        assert!((bp.cuts()[2] - 0.6745).abs() < 1e-3);
    }

    #[test]
    fn breakpoints_are_strictly_increasing() {
        for bits in 1..=8u8 {
            let bp = Breakpoints::new(bits);
            assert_eq!(bp.cuts().len(), (1usize << bits) - 1);
            for w in bp.cuts().windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn symbol_assignment_is_monotone() {
        let bp = Breakpoints::new(3);
        let mut last = 0;
        for i in -40..=40 {
            let v = i as f64 / 10.0;
            let s = bp.symbol(v);
            assert!(s >= last);
            last = s;
            assert!(s < bp.cardinality());
        }
        assert_eq!(bp.symbol(-100.0), 0);
        assert_eq!(bp.symbol(100.0), bp.cardinality() - 1);
    }

    #[test]
    fn nesting_property_coarse_is_prefix_of_fine() {
        // Quantizing at b bits must equal quantizing at b+1 bits shifted
        // right by one — the property iSAX cardinality promotion relies on.
        for bits in 1..8u8 {
            let coarse = Breakpoints::new(bits);
            let fine = Breakpoints::new(bits + 1);
            for i in -50..=50 {
                let v = i as f64 / 12.5;
                assert_eq!(
                    coarse.symbol(v),
                    fine.symbol(v) >> 1,
                    "nesting violated at bits={bits}, v={v}"
                );
            }
        }
    }

    #[test]
    fn region_bounds_contain_values_mapped_to_them() {
        let bp = Breakpoints::new(4);
        for i in -50..=50 {
            let v = i as f64 / 10.0;
            let s = bp.symbol(v);
            let (lo, hi) = bp.region(s);
            assert!(v >= lo && v <= hi, "value {v} outside region of its symbol");
            assert_eq!(bp.region_distance_sq(v, s), 0.0);
        }
    }

    #[test]
    fn region_distance_positive_outside() {
        let bp = Breakpoints::new(2);
        // Symbol 3 is the top region; a very low value is far from it.
        assert!(bp.region_distance_sq(-3.0, 3) > 1.0);
        // Symbol 0 is the bottom region; a very high value is far from it.
        assert!(bp.region_distance_sq(3.0, 0) > 1.0);
    }

    #[test]
    fn symbol_distance_zero_for_adjacent() {
        let bp = Breakpoints::new(3);
        assert_eq!(bp.symbol_distance_sq(2, 2), 0.0);
        assert_eq!(bp.symbol_distance_sq(2, 3), 0.0);
        assert!(bp.symbol_distance_sq(0, 7) > 0.0);
        assert_eq!(bp.symbol_distance_sq(0, 7), bp.symbol_distance_sq(7, 0));
    }

    #[test]
    fn table_caches_all_widths() {
        let t = BreakpointTable::new();
        for bits in 1..=8u8 {
            assert_eq!(t.for_bits(bits).bits(), bits);
        }
    }

    #[test]
    #[should_panic]
    fn region_out_of_range_panics() {
        Breakpoints::new(2).region(4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn symbol_always_in_range(v in -10.0f64..10.0, bits in 1u8..=8) {
            let bp = Breakpoints::new(bits);
            prop_assert!(bp.symbol(v) < bp.cardinality());
        }

        #[test]
        fn region_distance_lower_bounds_point_distance(
            v in -5.0f64..5.0,
            w in -5.0f64..5.0,
            bits in 1u8..=8,
        ) {
            // The distance from v to the region containing w never exceeds
            // the distance from v to w itself.
            let bp = Breakpoints::new(bits);
            let s = bp.symbol(w);
            let d = bp.region_distance_sq(v, s);
            prop_assert!(d <= (v - w) * (v - w) + 1e-12);
        }

        #[test]
        fn symbol_distance_lower_bounds_value_distance(
            v in -5.0f64..5.0,
            w in -5.0f64..5.0,
            bits in 1u8..=8,
        ) {
            let bp = Breakpoints::new(bits);
            let sv = bp.symbol(v);
            let sw = bp.symbol(w);
            prop_assert!(bp.symbol_distance_sq(sv, sw) <= (v - w) * (v - w) + 1e-12);
        }
    }
}
