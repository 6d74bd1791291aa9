//! Degenerate-input regression: an all-duplicates dataset (every series
//! identical) must build and query in bounded time and memory even though
//! no leaf split can ever separate the entries.

use coconut_ads::{AdsConfig, AdsTree};
use coconut_sax::SaxConfig;
use coconut_series::distance::brute_force_knn;
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::{Dataset, Series};
use coconut_storage::{IoStats, ScratchDir};

/// `count` copies of one random walk of 64 points, built into a
/// materialized ADS+ tree; the template and the tree.
fn duplicates(dir: &ScratchDir, count: u64) -> (Series, AdsTree) {
    let mut gen = RandomWalkGenerator::new(64, 3);
    let template = gen.next_series();
    let series: Vec<Series> = (0..count)
        .map(|id| Series::new(id, template.values.clone()))
        .collect();
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let config = AdsConfig::new(SaxConfig::paper_default(64)).materialized(true);
    let tree = AdsTree::build(&dataset, config, dir.path(), IoStats::shared()).unwrap();
    (template, tree)
}

#[test]
fn all_duplicates_build_and_query_terminate() {
    let dir = ScratchDir::new("ads-dups").unwrap();
    let (template, tree) = duplicates(&dir, 300);
    assert_eq!(tree.len(), 300);

    let query: Vec<f32> = template.values.iter().map(|v| v + 0.25).collect();
    let (nn, _) = tree.knn(&query, 5, true, None).unwrap();
    let ids: Vec<u64> = nn.iter().map(|n| n.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4], "ties must order by ascending id");
}

/// A leaf that cannot split is not re-read on every insert into it: the
/// bytes a build reads grow linearly in the number of duplicates, not
/// quadratically, and the answers stay brute force's.
#[test]
fn all_duplicates_build_reads_linearly() {
    let mut bytes_read = Vec::new();
    for count in [1200u64, 2400] {
        let dir = ScratchDir::new("ads-dups-io").unwrap();
        let (template, tree) = duplicates(&dir, count);
        assert_eq!(tree.len(), count);
        bytes_read.push(tree.build_stats().io.bytes_read);

        let query: Vec<f32> = template.values.iter().map(|v| v - 0.5).collect();
        let candidates: Vec<(u64, &[f32])> =
            (0..count).map(|id| (id, &template.values[..])).collect();
        for k in [1, 10, count as usize + 3] {
            let (nn, _) = tree.knn(&query, k, true, None).unwrap();
            assert_eq!(
                nn,
                brute_force_knn(&query, candidates.clone(), k),
                "k = {k}"
            );
        }
    }
    let (n, twice) = (bytes_read[0], bytes_read[1]);
    assert!(
        twice as f64 <= 2.5 * n as f64,
        "build read {n} B at N and {twice} B at 2N"
    );
}
