//! The contract of `FromJson::from_json`, which reads a tree's printed
//! text: on every frame of the golden wire corpus (`wire_codec.rs`),
//! requests and responses, accepted and refused, it answers what
//! `from_text` answers on the frame itself.

use coconut_core::palm::{PalmRequest, PalmResponse};
use coconut_json::{FromJson, Json};

const SCENARIO: &str = r#"{"arrival":"Streaming","collection_size":1000,"series_len":256,"memory_budget_bytes":268435456,"storage_budget_bytes":0,"expected_queries":1000,"expected_updates":1000,"small_windows":true}"#;

const COST: &str = r#"{"entries_examined":10,"entries_refined":4,"raw_fetches":2,"blocks_read":3,"blocks_skipped":5}"#;

/// The `explain` member of a computed reply from before the planner went.
const EXPLAIN: &str = r#"{"inputs":{"footprint_bytes":1048576,"cache_budget_bytes":2097152,"random_read_permille":250},"decision":{"read_ahead":false,"prefetch_min_bytes":65536}}"#;

const IO: &str = r#"{"sequential_reads":1,"random_reads":2,"sequential_writes":3,"random_writes":4,"bytes_read":5,"bytes_written":6,"physical_bytes_read":7,"physical_bytes_written":8}"#;

const QUERY_RESULT: &str = r#"{"type":"query_result","name":"a","ids":[17,3],"distances":[0.5,1.5],"squared_distances":[0.25,2.25],"timestamps":[0,9],"elapsed_ms":0.75,"cost":"#;

/// Every request frame of the corpus: each variant, the accepted
/// spellings, and the malformed frames.
fn request_frames() -> Vec<String> {
    let build_index = |tail: &str| {
        format!(
            r#"{{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"parallelism":1,"query_parallelism":2,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"{tail}}}"#
        )
    };
    let query = |tail: &str| format!(r#"{{"type":"query","name":"a","query":[1,2]{tail}}}"#);
    let insert = |tail: &str| format!(r#"{{"type":"insert","name":"a","series":[[1]]{tail}}}"#);
    let scenario = |arrival: &str| {
        format!(
            r#"{{"type":"recommend","scenario":{}}}"#,
            SCENARIO.replace(r#""Streaming""#, arrival)
        )
    };
    let wire_query = r#"{"type":"query","name":"a","query":[0.5,-1,2.25],"k":3,"exact":true}"#;
    let mut frames: Vec<String> = [
        r#"{"type":"build_index","name":"b","dataset_path":"x","variant":"Clsm","materialized":false,"memory_budget_bytes":0,"parallelism":0,"query_parallelism":0,"shard_count":4,"io_overlap":false,"io_backend":"mmap","planner":"adaptive","compression":"off","range_lo":60,"range_hi":120}"#,
        r#"{"type":"build_index","name":"c","dataset_path":"x","variant":"Ads","materialized":true,"memory_budget_bytes":1,"parallelism":1,"query_parallelism":1,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"}"#,
        wire_query,
        r#"{"type":"query","name":"","query":[],"k":1,"exact":false}"#,
        r#"{"type":"batch","requests":[]}"#,
        r#"{"type":"insert","name":"a","series":[[1,2],[3,4.5]],"timestamp":7}"#,
        r#"{"type":"insert","name":"a","series":[],"timestamp":0,"base_id":100}"#,
        r#"{"type":"metrics","name":"a"}"#,
        r#"{"type":"recommend","scenario":{"arrival":"Static","collection_size":0,"series_len":1,"memory_budget_bytes":1,"storage_budget_bytes":2,"expected_queries":3,"expected_updates":4,"small_windows":false}}"#,
        r#"{"type":"list_indexes"}"#,
        r#"{"type":"stats"}"#,
        r#"{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"query_parallelism":2,"compression":"off"}"#,
        r#"{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"parallelism":null,"query_parallelism":2,"shard_count":null,"io_overlap":null,"io_backend":null,"planner":null,"compression":"off"}"#,
        r#"{"compression":" OFF ","range_hi":60,"planner":"fixed","io_backend":"PREAD","type":"build_index","range_lo":0,"variant":"CTree","name":"a","memory_budget_bytes":8388608,"dataset_path":"/data/raw.bin","query_parallelism":2,"materialized":true,"deadline_ms":5}"#,
        r#"{"type":"insert","name":"a","series":[[1]]}"#,
        r#"{"type":"insert","name":"a","series":[[1]],"timestamp":null}"#,
        r#"{"exact":false,"k":2.0,"query":[1e0],"name":"q","type":"query","extra":[null]}"#,
        r#"{"type":"list_indexes","name":"ignored"}"#,
        r#"{"name":"a"}"#,
        r#"{"type":"query","query":[1],"k":1,"exact":true}"#,
        r#"{"type":"insert","name":"a"}"#,
        r#"{"type":"metrics"}"#,
        r#"{"type":"batch"}"#,
        r#"{"type":"recommend"}"#,
        r#"{"type":"build_index","name":"a","dataset_path":"x","variant":"CTree","materialized":true,"compression":"off"}"#,
        r#"{"type":"batch","requests":[{"type":"stats"},{"type":"query"}]}"#,
        r#"{"type":7}"#,
        r#"{"type":"query","name":7,"query":[1],"k":1,"exact":true}"#,
        r#"{"type":"query","name":"a","query":[1,"x"],"k":1,"exact":true}"#,
        r#"{"type":"insert","name":"a","series":{}}"#,
        r#"{"type":"batch","requests":{"type":"stats"}}"#,
        r#"{"type":"frobnicate"}"#,
        r#"{"type":"query_result"}"#,
    ]
    .map(String::from)
    .to_vec();
    frames.push(format!(r#"{{"type":"batch","requests":[{wire_query},{{"type":"stats"}},{{"type":"batch","requests":[]}}]}}"#));
    frames.push(format!(r#"{{"type":"recommend","scenario":{SCENARIO}}}"#));
    for tail in [
        "",
        r#","range_lo":0,"range_hi":60"#,
        r#","range_lo":0"#,
        r#","range_hi":60"#,
        r#","range_lo":-1,"range_hi":60"#,
        r#","range_lo":0,"range_hi":"60""#,
    ] {
        frames.push(build_index(tail));
    }
    for (from, to) in [
        (r#""off""#, r#""Off""#),
        (r#""materialized":true"#, r#""materialized":"yes""#),
        (r#""CTree""#, r#""BTree""#),
        (r#""CTree""#, "3"),
        (r#""compression":"off""#, r#""compression":"prefx""#),
        (r#""compression":"off""#, r#""compression":"prefix""#),
        (r#""compression":"off""#, r#""compression":false"#),
        (r#""pread""#, r#""aio""#),
        (r#""pread""#, "[]"),
        (r#""fixed""#, r#""Adaptive""#),
        (r#""fixed""#, "1"),
        (r#""parallelism":1"#, r#""parallelism":"1""#),
        (r#""shard_count":1"#, r#""shard_count":0.5"#),
    ] {
        frames.push(build_index("").replace(from, to));
    }
    for tail in [
        r#","k":1"#,
        r#","k":"3","exact":true"#,
        r#","k":3,"exact":1"#,
        r#","k":1.5,"exact":true"#,
        r#","k":-1,"exact":true"#,
    ] {
        frames.push(query(tail));
    }
    for tail in [
        r#","timestamp":1,"base_id":null"#,
        r#","base_id":"7""#,
        r#","timestamp":"now""#,
        r#","timestamp":10000000000000000"#,
        r#","timestamp":-2"#,
    ] {
        frames.push(insert(tail));
    }
    for (from, to) in [
        (r#","small_windows":true"#, ""),
        (r#""small_windows":true"#, r#""small_windows":0"#),
        (r#""series_len":256"#, r#""series_len":-256"#),
    ] {
        frames.push(scenario(r#""Static""#).replace(from, to));
    }
    frames.push(scenario(r#""Batch""#));
    frames.push(scenario("null"));
    frames
}

/// Every response frame of the corpus: each variant, the accepted
/// spelling, and the malformed frames.
fn response_frames() -> Vec<String> {
    let built = |report: &str| {
        format!(r#"{{"type":"built","name":"a","variant":"CTreeFull","report":{report}}}"#)
    };
    let report = |io: &str| {
        format!(r#"{{"elapsed_ms":12.5,"io":{io},"footprint_bytes":4096,"entries":200}}"#)
    };
    let query_result = |tail: &str| format!("{QUERY_RESULT}{COST}{tail}}}");
    let legacy_io = r#"{"sequential_reads":1,"random_reads":2,"sequential_writes":3,"random_writes":4,"bytes_read":5,"bytes_written":6}"#;
    let mut frames: Vec<String> = [
        r#"{"type":"batch_result","responses":[]}"#,
        r#"{"type":"inserted","name":"a","inserted":2,"total":202}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"Clsm","materialized":true,"scheme":"BoundedTemporalPartitioning","fill_factor":1,"growth_factor":4,"rationale":["streams need BTP","x"]}}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"CTree","materialized":false,"scheme":"None","fill_factor":0.75,"growth_factor":0,"rationale":[]}}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"Ads","materialized":false,"scheme":"PostProcessing","fill_factor":1,"growth_factor":0,"rationale":[]}}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"Clsm","materialized":false,"scheme":"TemporalPartitioning","fill_factor":1,"growth_factor":2,"rationale":[]}}"#,
        r#"{"type":"indexes","names":["a","b"]}"#,
        r#"{"type":"stats","requests":1,"cache_hits":2,"cache_misses":3,"cache_entries":4,"shed":5,"deadline_exceeded":6,"indexes":7}"#,
        r#"{"type":"error","kind":"config","message":"bad"}"#,
        r#"{"type":"error","kind":"overloaded","message":"busy","retry_after_ms":25}"#,
        r#"{"kind":"config"}"#,
        r#"{"type":"query"}"#,
        r#"{"type":"stats","requests":1,"cache_hits":2,"cache_misses":3,"shed":5,"deadline_exceeded":6,"indexes":7}"#,
        r#"{"type":"inserted","name":"a","inserted":2.5,"total":3}"#,
        r#"{"type":"error","kind":"deadline_exceeded","message":"late","partial_cost":null}"#,
        r#"{"type":"error","kind":"overloaded","message":"busy","retry_after_ms":null}"#,
        r#"{"type":"error","kind":"x","message":"m","shard_costs":[{"shard":0,"cost":null}]}"#,
        r#"{"type":"error","kind":"x","message":"m","shard_costs":[{"cost":{}}]}"#,
        r#"{"type":"error","kind":"x","message":"m","shard_costs":null}"#,
        r#"{"type":"error","kind":"x"}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"BTree","materialized":true,"scheme":"None","fill_factor":1,"growth_factor":0,"rationale":[]}}"#,
        r#"{"type":"recommendation","recommendation":{"structure":"Ads","materialized":true,"scheme":"Windows","fill_factor":1,"growth_factor":0,"rationale":[]}}"#,
        r#"{"type":"recommendation","recommendation":{"structure":0,"materialized":true,"scheme":"None","fill_factor":1,"growth_factor":0,"rationale":[]}}"#,
        r#"{"type":"batch_result","responses":[{"type":"indexes","names":[1]}]}"#,
    ]
    .map(String::from)
    .to_vec();
    let good = built(&report(IO));
    frames.extend([
        good.clone(),
        query_result(""),
        query_result(&format!(",\"explain\":{EXPLAIN}")),
        format!(r#"{{"type":"batch_result","responses":[{},{good},{{"type":"indexes","names":[]}}]}}"#, query_result("")),
        format!(r#"{{"type":"metrics","name":"a","report":{},"footprint_bytes":8192}}"#, report(IO)),
        format!(r#"{{"type":"error","kind":"deadline_exceeded","message":"late","partial_cost":{COST}}}"#),
        format!(r#"{{"type":"error","kind":"shard_unavailable","message":"gone","shard_costs":[{{"shard":0,"cost":{COST}}},{{"shard":1}}]}}"#),
        format!(r#"{{"type":"error","kind":"shard_unavailable","message":"m","partial_cost":{COST},"retry_after_ms":0,"shard_costs":[]}}"#),
        built(&report(legacy_io)),
        built(r#"{"elapsed_ms":1,"footprint_bytes":0,"entries":0}"#),
        built(&report(&IO.replace(r#""bytes_read":5"#, r#""bytes_read":true"#))),
        built(&report(&IO.replace(r#""physical_bytes_read":7"#, r#""physical_bytes_read":-7"#))),
        built(&report(IO).replace(r#""elapsed_ms":12.5"#, r#""elapsed_ms":"1""#)),
        format!("{QUERY_RESULT}{}}}", COST.replace(r#""raw_fetches":2,"#, "")),
        // A reply from before the planner went: its `explain` member, well
        // formed or not, is skipped.
        query_result(r#","explain":null"#),
        query_result(&format!(",\"explain\":{}", EXPLAIN.replace(r#","decision":{"read_ahead":false,"prefetch_min_bytes":65536}"#, ""))),
        query_result(&format!(",\"explain\":{}", EXPLAIN.replace(r#""read_ahead":false"#, r#""read_ahead":0"#))),
        query_result(&format!(",\"explain\":{}", EXPLAIN.replace(r#""random_read_permille":250"#, r#""random_read_permille":2.5"#))),
    ]);
    frames
}

/// What a decode answered, for comparing: the value's `Debug`, or the
/// refusal.
fn shown<T: std::fmt::Debug>(decoded: Result<T, coconut_json::JsonError>) -> String {
    format!("{decoded:?}")
}

#[test]
fn from_json_of_the_parsed_frame_equals_from_text() {
    let mut refused = 0;
    for frame in request_frames() {
        let tree = Json::parse(&frame).unwrap();
        let text = PalmRequest::from_text(&frame);
        refused += usize::from(text.is_err());
        assert_eq!(shown(PalmRequest::from_json(&tree)), shown(text), "{frame}");
    }
    for frame in response_frames() {
        let tree = Json::parse(&frame).unwrap();
        let text = PalmResponse::from_text(&frame);
        refused += usize::from(text.is_err());
        assert_eq!(
            shown(PalmResponse::from_json(&tree)),
            shown(text),
            "{frame}"
        );
    }
    // The corpus's malformed frames: 46 requests and 19 responses.
    assert_eq!(refused, 46 + 19);
}
