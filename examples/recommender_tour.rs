//! A tour of the recommender and the palm (algorithms-server) JSON protocol.
//!
//! ```bash
//! cargo run --release -p coconut-core --example recommender_tour
//! ```

use coconut_core::palm::{PalmRequest, PalmServer};
use coconut_core::{Dataset, Scenario, ScratchDir, VariantKind};
use coconut_json::ToJson;
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};

fn main() {
    let dir = ScratchDir::new("palm-tour").expect("scratch dir");
    let mut gen = RandomWalkGenerator::new(128, 3);
    let series = gen.generate(2_000);
    let dataset_path = dir.file("data.bin");
    Dataset::create_from_series(&dataset_path, &series).expect("dataset");

    let server = PalmServer::new(dir.file("work"));

    // 1. Ask the recommender about two very different scenarios.
    for scenario in [
        Scenario {
            expected_queries: 10,
            ..Scenario::static_archive(2_000, 128)
        },
        Scenario::streaming(2_000, 128),
    ] {
        let response = server.handle(PalmRequest::Recommend { scenario });
        println!("{}\n", response.to_json().to_string_pretty());
    }

    // 2. Build an index through the JSON protocol, exactly as the GUI would.
    let build = PalmRequest::build_index(
        "demo",
        dataset_path.to_string_lossy(),
        VariantKind::CTree,
        true,
        16 << 20,
    );
    let response = server.handle_json(&build.to_json().to_string());
    println!("{response}\n");

    // 3. Draw a query (here: a perturbed member) and issue it.
    let query: Vec<f32> = series[42].values.iter().map(|v| v + 0.02).collect();
    let response = server.handle(PalmRequest::Query {
        name: "demo".into(),
        query,
        k: 3,
        exact: true,
    });
    println!("{}", response.to_json().to_string_pretty());
}
