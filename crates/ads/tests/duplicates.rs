//! Degenerate-input regression: an all-duplicates dataset (every series
//! identical) must build and query in bounded time and memory even though
//! no leaf split can ever separate the entries.

use coconut_ads::{AdsConfig, AdsTree};
use coconut_sax::SaxConfig;
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_series::{Dataset, Series};
use coconut_storage::{IoStats, ScratchDir};

#[test]
fn all_duplicates_build_and_query_terminate() {
    let dir = ScratchDir::new("ads-dups").unwrap();
    let mut gen = RandomWalkGenerator::new(64, 3);
    let template = gen.next_series();
    let series: Vec<Series> = (0..300u64)
        .map(|id| Series::new(id, template.values.clone()))
        .collect();
    let dataset = Dataset::create_from_series(dir.file("raw.bin"), &series).unwrap();
    let config = AdsConfig::new(SaxConfig::paper_default(64)).materialized(true);
    let tree = AdsTree::build(&dataset, config, dir.path(), IoStats::shared()).unwrap();
    assert_eq!(tree.len(), 300);

    let query: Vec<f32> = template.values.iter().map(|v| v + 0.25).collect();
    let (nn, _) = tree.knn(&query, 5, true, None).unwrap();
    let ids: Vec<u64> = nn.iter().map(|n| n.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4], "ties must order by ascending id");
}
