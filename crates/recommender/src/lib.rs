//! # coconut-recommender
//!
//! The configuration recommender of Coconut Palm.
//!
//! The demo's recommender is "designed as a decision tree to be able to
//! provide users with the rationale for its advice" (Section 4).  Given a
//! description of the application scenario — static archive vs stream,
//! available memory, expected number of queries, update rate, window sizes,
//! storage budget — it walks an explicit decision tree and returns both the
//! recommended index configuration and the path of decisions that led to it.
//!
//! The tree mirrors the narrative of Sections 2 and 5:
//!
//! * streaming scenarios get CoconutLSM with BTP (the sortable summarization
//!   is what makes BTP possible at all);
//! * static scenarios get CoconutTree (external sorting beats top-down
//!   insertion regardless of the memory budget);
//! * materialization is chosen by amortizing its extra build/storage cost
//!   over the expected number of queries (the "recommender flip" of
//!   Scenario 1);
//! * heavy in-place update rates on static data lower the CTree fill factor
//!   or switch to CLSM.

coconut_json::wire! {
    /// Whether the data arrives as a fixed archive or as a stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DataArrival names "DataArrival" {
        /// The whole collection exists up front (Scenario 1).
        Static = "Static",
        /// Series keep arriving in batches (Scenario 2).
        Streaming = "Streaming",
    }
}

coconut_json::wire! {
    /// Description of the target application scenario.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Scenario {
        /// How data arrives.
        pub arrival: DataArrival,
        /// Number of series expected in the collection (or per retention
        /// period for streams).
        pub collection_size: u64,
        /// Length of each series in points.
        pub series_len: usize,
        /// Main-memory budget available to the index, in bytes.
        pub memory_budget_bytes: u64,
        /// Storage budget available on disk, in bytes (0 = unconstrained).
        pub storage_budget_bytes: u64,
        /// Expected number of queries over the lifetime of the index.
        pub expected_queries: u64,
        /// Expected number of updates (new series) after the initial build.
        pub expected_updates: u64,
        /// For streams: do queries typically use small temporal windows?
        pub small_windows: bool,
    }
}

impl Scenario {
    /// A static-archive scenario with sensible defaults (override fields as
    /// needed).
    pub fn static_archive(collection_size: u64, series_len: usize) -> Self {
        Scenario {
            arrival: DataArrival::Static,
            collection_size,
            series_len,
            memory_budget_bytes: 1 << 30,
            storage_budget_bytes: 0,
            expected_queries: 100,
            expected_updates: 0,
            small_windows: false,
        }
    }

    /// A streaming scenario with sensible defaults.
    pub fn streaming(collection_size: u64, series_len: usize) -> Self {
        Scenario {
            arrival: DataArrival::Streaming,
            collection_size,
            series_len,
            memory_budget_bytes: 256 << 20,
            storage_budget_bytes: 0,
            expected_queries: 1000,
            expected_updates: collection_size,
            small_windows: true,
        }
    }

    /// Raw size of the collection in bytes (`count * len * 4`).
    pub fn raw_bytes(&self) -> u64 {
        self.collection_size * self.series_len as u64 * 4
    }
}

coconut_json::wire! {
    /// Index structure families available in the Coconut Palm matrix
    /// (Figure 1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum StructureKind names "StructureKind" {
        /// ADS+-style adaptive iSAX tree (the baseline).
        Ads = "Ads",
        /// CoconutTree (read-optimized, bulk loaded).
        CTree = "CTree",
        /// CoconutLSM (write-optimized, log-structured).
        Clsm = "Clsm",
    }
}

coconut_json::wire! {
    /// Streaming window scheme choices.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SchemeKind names "SchemeKind" {
        /// No windowing (static data).
        None = "None",
        /// Post-processing.
        PostProcessing = "PostProcessing",
        /// Temporal partitioning.
        TemporalPartitioning = "TemporalPartitioning",
        /// Bounded temporal partitioning.
        BoundedTemporalPartitioning = "BoundedTemporalPartitioning",
    }
}

coconut_json::wire! {
    /// The recommender's output: a configuration plus the rationale path.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Recommendation {
        /// Recommended structure family.
        pub structure: StructureKind,
        /// Whether the index should be materialized.
        pub materialized: bool,
        /// Recommended window scheme (streams only).
        pub scheme: SchemeKind,
        /// Recommended CTree leaf fill factor (1.0 when not applicable).
        pub fill_factor: f64,
        /// Recommended LSM growth factor (0 when not applicable).
        pub growth_factor: usize,
        /// Human-readable decision path, one line per decision taken.
        pub rationale: Vec<String>,
    }
}

/// Walks the decision tree for `scenario` and returns the recommendation.
pub fn recommend(scenario: &Scenario) -> Recommendation {
    let mut rationale = Vec::new();
    let raw = scenario.raw_bytes();

    // Materialization: pay the extra construction and storage cost only when
    // enough queries amortize it, and only when the storage budget allows
    // roughly twice the raw data size.
    let storage_allows_materialization =
        scenario.storage_budget_bytes == 0 || scenario.storage_budget_bytes >= 2 * raw;
    let queries_amortize_materialization = scenario.expected_queries >= 200;
    let materialized = storage_allows_materialization && queries_amortize_materialization;
    if materialized {
        rationale.push(format!(
            "{} expected queries amortize the extra build/storage cost of a materialized index",
            scenario.expected_queries
        ));
    } else if !queries_amortize_materialization {
        rationale.push(format!(
            "only {} expected queries: a non-materialized index builds faster and the occasional \
             raw-data fetch stays cheaper overall",
            scenario.expected_queries
        ));
    } else {
        rationale.push("storage budget too tight for a materialized copy of the data".into());
    }

    match scenario.arrival {
        DataArrival::Streaming => {
            rationale.insert(
                0,
                "data arrives as a stream: log-structured ingestion (CoconutLSM) keeps writes \
                 sequential while remaining queryable"
                    .into(),
            );
            let scheme = if scenario.small_windows {
                rationale.push(
                    "queries use temporal windows: Bounded Temporal Partitioning skips old \
                     partitions while keeping their number logarithmic"
                        .into(),
                );
                SchemeKind::BoundedTemporalPartitioning
            } else {
                rationale.push(
                    "queries span most of the history: post-processing the timestamps of a single \
                     index avoids partitioning overhead"
                        .into(),
                );
                SchemeKind::PostProcessing
            };
            // Growth factor: favour reads when queries dominate updates.
            let growth_factor = if scenario.expected_queries > scenario.expected_updates {
                rationale.push(
                    "query-heavy stream: small growth factor merges eagerly to keep few runs"
                        .into(),
                );
                2
            } else {
                rationale.push(
                    "ingest-heavy stream: larger growth factor defers merging to favour writes"
                        .into(),
                );
                4
            };
            Recommendation {
                structure: StructureKind::Clsm,
                materialized: true,
                scheme,
                fill_factor: 1.0,
                growth_factor,
                rationale,
            }
        }
        DataArrival::Static => {
            rationale.insert(
                0,
                "static archive: bulk loading by external sorting (CoconutTree) is compact, \
                 contiguous and sequential regardless of the memory budget"
                    .into(),
            );
            if scenario.memory_budget_bytes < raw / 4 {
                rationale.push(format!(
                    "memory budget ({} MiB) is far below the data size ({} MiB): two-pass external \
                     sorting degrades gracefully where insertion buffering would thrash",
                    scenario.memory_budget_bytes >> 20,
                    raw >> 20
                ));
            }
            let (structure, fill_factor, growth_factor) = if scenario.expected_updates
                > scenario.collection_size / 2
            {
                rationale.push(
                    "update volume rivals the initial collection: switch to CoconutLSM so updates \
                     stay log-structured"
                        .into(),
                );
                (StructureKind::Clsm, 1.0, 4)
            } else if scenario.expected_updates > 0 {
                rationale.push(
                    "moderate update volume: keep CoconutTree but leave leaf slack (fill factor \
                     0.8) to absorb inserts between merges"
                        .into(),
                );
                (StructureKind::CTree, 0.8, 0)
            } else {
                rationale.push("no updates expected: pack leaves full (fill factor 1.0)".into());
                (StructureKind::CTree, 1.0, 0)
            };
            Recommendation {
                structure,
                materialized,
                scheme: SchemeKind::None,
                fill_factor,
                growth_factor,
                rationale,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_json::{FromJson, Json, ToJson};

    #[test]
    fn scenario_1_static_few_queries_gets_non_materialized_ctree() {
        // Scenario 1 of the paper starts with a big static archive and a
        // modest exploration workload: the recommender picks a
        // non-materialized CTree.
        let scenario = Scenario {
            expected_queries: 20,
            ..Scenario::static_archive(1_000_000, 256)
        };
        let rec = recommend(&scenario);
        assert_eq!(rec.structure, StructureKind::CTree);
        assert!(!rec.materialized);
        assert_eq!(rec.scheme, SchemeKind::None);
        assert!(!rec.rationale.is_empty());
    }

    #[test]
    fn scenario_1_flips_to_materialized_as_queries_grow() {
        // "as we increase the projected number of queries in the workload,
        // our recommender changes its choice to using a materialized CTree".
        let few = recommend(&Scenario {
            expected_queries: 50,
            ..Scenario::static_archive(100_000, 256)
        });
        let many = recommend(&Scenario {
            expected_queries: 100_000,
            ..Scenario::static_archive(100_000, 256)
        });
        assert!(!few.materialized);
        assert!(many.materialized);
        assert_eq!(few.structure, many.structure);
    }

    #[test]
    fn scenario_2_streaming_small_windows_gets_clsm_btp() {
        let scenario = Scenario::streaming(1_000_000, 256);
        let rec = recommend(&scenario);
        assert_eq!(rec.structure, StructureKind::Clsm);
        assert_eq!(rec.scheme, SchemeKind::BoundedTemporalPartitioning);
        assert!(rec.growth_factor >= 2);
    }

    #[test]
    fn streaming_with_whole_history_queries_uses_pp() {
        let scenario = Scenario {
            small_windows: false,
            ..Scenario::streaming(500_000, 128)
        };
        let rec = recommend(&scenario);
        assert_eq!(rec.scheme, SchemeKind::PostProcessing);
    }

    #[test]
    fn heavy_updates_on_static_data_switch_to_clsm() {
        let scenario = Scenario {
            expected_updates: 900_000,
            ..Scenario::static_archive(1_000_000, 256)
        };
        let rec = recommend(&scenario);
        assert_eq!(rec.structure, StructureKind::Clsm);
    }

    #[test]
    fn moderate_updates_lower_the_fill_factor() {
        let none = recommend(&Scenario::static_archive(100_000, 128));
        let some = recommend(&Scenario {
            expected_updates: 10_000,
            ..Scenario::static_archive(100_000, 128)
        });
        assert_eq!(none.fill_factor, 1.0);
        assert!(some.fill_factor < 1.0);
        assert_eq!(some.structure, StructureKind::CTree);
    }

    #[test]
    fn tight_storage_budget_blocks_materialization() {
        let scenario = Scenario {
            expected_queries: 1_000_000,
            storage_budget_bytes: 100_000 * 128 * 4 + 1024, // barely above raw size
            ..Scenario::static_archive(100_000, 128)
        };
        let rec = recommend(&scenario);
        assert!(!rec.materialized);
        assert!(rec.rationale.iter().any(|r| r.contains("storage budget")));
    }

    #[test]
    fn rationale_mentions_memory_pressure_when_budget_is_tiny() {
        let scenario = Scenario {
            memory_budget_bytes: 1 << 20,
            ..Scenario::static_archive(10_000_000, 256)
        };
        let rec = recommend(&scenario);
        assert!(rec.rationale.iter().any(|r| r.contains("memory budget")));
    }

    #[test]
    fn recommendation_serializes_to_json() {
        let rec = recommend(&Scenario::streaming(1000, 64));
        let json = rec.to_json().to_string();
        assert!(json.contains("Clsm"));
        let back = Recommendation::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let scenario = Scenario::streaming(123_456, 96);
        let json = scenario.to_json().to_string();
        let back = Scenario::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, scenario);
    }
}
