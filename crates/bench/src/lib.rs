//! Shared harness of `e17_scale`, the scale tier of the SIMD kernel
//! backends: a generated dataset on disk and aligned text tables.
//!
//! The paper's claims are checked by `cargo test` (coconut-core's
//! `paper_claims.rs`, one row each in REPRODUCTION.md), identity checks
//! likewise, and timing of the running system by palmbench.
//!
//! Set the `COCONUT_SCALE` environment variable to a multiplier (e.g. `4`)
//! to scale e17's dataset up.

use coconut_core::{Dataset, IoStats, ScratchDir, Series, SharedIoStats};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::workload::QueryWorkload;

/// Scale multiplier read from `COCONUT_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("COCONUT_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// A generated dataset on disk plus its in-memory copy and query workload.
pub struct Workbench {
    /// Scratch directory holding the raw file and all index files.
    pub dir: ScratchDir,
    /// In-memory copy of the dataset (for ground truth).
    pub series: Vec<Series>,
    /// On-disk raw dataset file.
    pub dataset: Dataset,
    /// Query workload.
    pub queries: QueryWorkload,
}

impl Workbench {
    /// Generates a random-walk dataset of `n` series of length `len` plus
    /// `q` noisy-member queries.
    pub fn random_walk(label: &str, n: usize, len: usize, q: usize, seed: u64) -> Workbench {
        let dir = ScratchDir::new(label).expect("scratch dir");
        let mut gen = RandomWalkGenerator::new(len, seed);
        let series = gen.generate(n);
        let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).expect("dataset");
        let queries = QueryWorkload::noisy_members(&series, q, 0.1, seed ^ 0xdead);
        Workbench {
            dir,
            series,
            dataset,
            queries,
        }
    }

    /// Fresh shared I/O statistics handle.
    pub fn stats(&self) -> SharedIoStats {
        IoStats::shared()
    }
}

/// Prints an aligned text table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_owned: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_owned));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_generates_consistent_data() {
        let wb = Workbench::random_walk("bench-lib-test", 50, 32, 5, 1);
        assert_eq!(wb.series.len(), 50);
        assert_eq!(wb.dataset.len(), 50);
        assert_eq!(wb.queries.len(), 5);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f2(1.005), "1.00");
        assert!(scale() >= 1);
    }
}
