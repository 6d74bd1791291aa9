//! Golden wire corpus for the palm protocol: every request and response
//! variant as the encoder writes it, with each optional member present and
//! absent, must decode and re-encode byte for byte; the inputs the decoder
//! accepts in another spelling must come back in the canonical one; and each
//! malformed frame must be refused with its exact error text.
//!
//! The corpus uses nothing but `Json::parse`, `from_json` and
//! `to_json().to_string()`, so it pins the wire whatever the codec behind
//! those three looks like.

use coconut_core::palm::{PalmRequest, PalmResponse};
use coconut_json::{FromJson, Json, ToJson};

const SCENARIO: &str = r#"{"arrival":"Streaming","collection_size":1000,"series_len":256,"memory_budget_bytes":268435456,"storage_budget_bytes":0,"expected_queries":1000,"expected_updates":1000,"small_windows":true}"#;

const COST: &str = r#"{"entries_examined":10,"entries_refined":4,"raw_fetches":2,"blocks_read":3,"blocks_skipped":5}"#;

/// The `explain` member of a computed reply from before the planner went.
const EXPLAIN: &str = r#"{"inputs":{"footprint_bytes":1048576,"cache_budget_bytes":2097152,"random_read_permille":250},"decision":{"read_ahead":false,"prefetch_min_bytes":65536}}"#;

const IO: &str = r#"{"sequential_reads":1,"random_reads":2,"sequential_writes":3,"random_writes":4,"bytes_read":5,"bytes_written":6,"physical_bytes_read":7,"physical_bytes_written":8}"#;

const QUERY_RESULT: &str = r#"{"type":"query_result","name":"a","ids":[17,3],"distances":[0.5,1.5],"squared_distances":[0.25,2.25],"timestamps":[0,9],"elapsed_ms":0.75,"cost":"#;

fn request(frame: &str) -> Result<PalmRequest, String> {
    let json = Json::parse(frame).expect("the corpus frame is JSON");
    PalmRequest::from_json(&json).map_err(|e| e.to_string())
}

fn response(frame: &str) -> Result<PalmResponse, String> {
    let json = Json::parse(frame).expect("the corpus frame is JSON");
    PalmResponse::from_json(&json).map_err(|e| e.to_string())
}

fn build_index(tail: &str) -> String {
    format!(
        r#"{{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"parallelism":1,"query_parallelism":2,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"{tail}}}"#
    )
}

fn requests() -> Vec<String> {
    let query = r#"{"type":"query","name":"a","query":[0.5,-1,2.25],"k":3,"exact":true}"#;
    vec![
        build_index(""),
        build_index(r#","range_lo":0,"range_hi":60"#),
        r#"{"type":"build_index","name":"b","dataset_path":"x","variant":"Clsm","materialized":false,"memory_budget_bytes":0,"parallelism":0,"query_parallelism":0,"shard_count":4,"io_overlap":false,"io_backend":"mmap","planner":"adaptive","compression":"off","range_lo":60,"range_hi":120}"#.to_string(),
        r#"{"type":"build_index","name":"c","dataset_path":"x","variant":"Ads","materialized":true,"memory_budget_bytes":1,"parallelism":1,"query_parallelism":1,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"}"#.to_string(),
        query.to_string(),
        r#"{"type":"query","name":"","query":[],"k":1,"exact":false}"#.to_string(),
        format!(r#"{{"type":"batch","requests":[{query},{{"type":"stats"}},{{"type":"batch","requests":[]}}]}}"#),
        r#"{"type":"batch","requests":[]}"#.to_string(),
        r#"{"type":"insert","name":"a","series":[[1,2],[3,4.5]],"timestamp":7}"#.to_string(),
        r#"{"type":"insert","name":"a","series":[],"timestamp":0,"base_id":100}"#.to_string(),
        r#"{"type":"metrics","name":"a"}"#.to_string(),
        format!(r#"{{"type":"recommend","scenario":{SCENARIO}}}"#),
        r#"{"type":"recommend","scenario":{"arrival":"Static","collection_size":0,"series_len":1,"memory_budget_bytes":1,"storage_budget_bytes":2,"expected_queries":3,"expected_updates":4,"small_windows":false}}"#.to_string(),
        r#"{"type":"list_indexes"}"#.to_string(),
        r#"{"type":"stats"}"#.to_string(),
    ]
}

fn responses() -> Vec<String> {
    let built = format!(
        r#"{{"type":"built","name":"a","variant":"CTreeFull","report":{{"elapsed_ms":12.5,"io":{IO},"footprint_bytes":4096,"entries":200}}}}"#
    );
    let query_result = format!("{QUERY_RESULT}{COST}}}");
    vec![
        built.clone(),
        query_result.clone(),
        format!(r#"{{"type":"batch_result","responses":[{query_result},{built},{{"type":"indexes","names":[]}}]}}"#),
        r#"{"type":"batch_result","responses":[]}"#.to_string(),
        r#"{"type":"inserted","name":"a","inserted":2,"total":202}"#.to_string(),
        format!(
            r#"{{"type":"metrics","name":"a","report":{{"elapsed_ms":0,"io":{IO},"footprint_bytes":1,"entries":2}},"footprint_bytes":8192}}"#
        ),
        r#"{"type":"recommendation","recommendation":{"structure":"Clsm","materialized":true,"scheme":"BoundedTemporalPartitioning","fill_factor":1,"growth_factor":4,"rationale":["streams need BTP","x"]}}"#.to_string(),
        r#"{"type":"recommendation","recommendation":{"structure":"CTree","materialized":false,"scheme":"None","fill_factor":0.75,"growth_factor":0,"rationale":[]}}"#.to_string(),
        r#"{"type":"recommendation","recommendation":{"structure":"Ads","materialized":false,"scheme":"PostProcessing","fill_factor":1,"growth_factor":0,"rationale":[]}}"#.to_string(),
        r#"{"type":"recommendation","recommendation":{"structure":"Clsm","materialized":false,"scheme":"TemporalPartitioning","fill_factor":1,"growth_factor":2,"rationale":[]}}"#.to_string(),
        r#"{"type":"indexes","names":["a","b"]}"#.to_string(),
        r#"{"type":"stats","requests":1,"cache_hits":2,"cache_misses":3,"cache_entries":4,"shed":5,"deadline_exceeded":6,"indexes":7}"#.to_string(),
        r#"{"type":"error","kind":"config","message":"bad"}"#.to_string(),
        format!(r#"{{"type":"error","kind":"deadline_exceeded","message":"late","partial_cost":{COST}}}"#),
        r#"{"type":"error","kind":"overloaded","message":"busy","retry_after_ms":25}"#.to_string(),
        format!(
            r#"{{"type":"error","kind":"shard_unavailable","message":"gone","shard_costs":[{{"shard":0,"cost":{COST}}},{{"shard":1}}]}}"#
        ),
        format!(
            r#"{{"type":"error","kind":"shard_unavailable","message":"m","partial_cost":{COST},"retry_after_ms":0,"shard_costs":[]}}"#
        ),
    ]
}

#[test]
fn every_request_variant_reencodes_byte_for_byte() {
    for frame in requests() {
        let decoded = request(&frame).unwrap_or_else(|e| panic!("{frame}: {e}"));
        assert_eq!(decoded.to_json().to_string(), frame);
    }
}

#[test]
fn every_response_variant_reencodes_byte_for_byte() {
    for frame in responses() {
        let decoded = response(&frame).unwrap_or_else(|e| panic!("{frame}: {e}"));
        assert_eq!(decoded.to_json().to_string(), frame);
    }
}

/// Inputs accepted in another spelling, and the canonical frame each comes
/// back as: defaulted members absent or `null`, another member order, name
/// enums in another case where the decoder allows it, and an I/O report
/// from before the logical/physical split.
#[test]
fn accepted_spellings_come_back_canonical() {
    let minimal_build = r#"{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"query_parallelism":2,"compression":"off"}"#;
    let nulls_build = r#"{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"parallelism":null,"query_parallelism":2,"shard_count":null,"io_overlap":null,"io_backend":null,"planner":null,"compression":"off"}"#;
    let reordered_build = r#"{"compression":" OFF ","range_hi":60,"planner":"fixed","io_backend":"PREAD","type":"build_index","range_lo":0,"variant":"CTree","name":"a","memory_budget_bytes":8388608,"dataset_path":"/data/raw.bin","query_parallelism":2,"materialized":true,"deadline_ms":5}"#;
    let cases = [
        (minimal_build.to_string(), build_index("")),
        (nulls_build.to_string(), build_index("")),
        (
            reordered_build.to_string(),
            build_index(r#","range_lo":0,"range_hi":60"#),
        ),
        (
            build_index("").replace("\"off\"", "\"Off\""),
            build_index(""),
        ),
        (
            r#"{"type":"insert","name":"a","series":[[1]]}"#.to_string(),
            r#"{"type":"insert","name":"a","series":[[1]],"timestamp":0}"#.to_string(),
        ),
        (
            r#"{"type":"insert","name":"a","series":[[1]],"timestamp":null}"#.to_string(),
            r#"{"type":"insert","name":"a","series":[[1]],"timestamp":0}"#.to_string(),
        ),
        (
            r#"{"exact":false,"k":2.0,"query":[1e0],"name":"q","type":"query","extra":[null]}"#
                .to_string(),
            r#"{"type":"query","name":"q","query":[1],"k":2,"exact":false}"#.to_string(),
        ),
        (
            r#"{"type":"list_indexes","name":"ignored"}"#.to_string(),
            r#"{"type":"list_indexes"}"#.to_string(),
        ),
    ];
    for (input, canonical) in cases {
        let decoded = request(&input).unwrap_or_else(|e| panic!("{input}: {e}"));
        assert_eq!(decoded.to_json().to_string(), canonical, "{input}");
    }
    let legacy_io = r#"{"sequential_reads":1,"random_reads":2,"sequential_writes":3,"random_writes":4,"bytes_read":5,"bytes_written":6}"#;
    let full_io = r#"{"sequential_reads":1,"random_reads":2,"sequential_writes":3,"random_writes":4,"bytes_read":5,"bytes_written":6,"physical_bytes_read":5,"physical_bytes_written":6}"#;
    let built = |io: &str| {
        format!(
            r#"{{"type":"built","name":"a","variant":"AdsFull","report":{{"elapsed_ms":1,"io":{io},"footprint_bytes":0,"entries":0}}}}"#
        )
    };
    let decoded = response(&built(legacy_io)).unwrap();
    assert_eq!(decoded.to_json().to_string(), built(full_io));
    // A reply from before the planner went: its `explain` member, well
    // formed or not, is skipped.
    let plain = format!("{QUERY_RESULT}{COST}}}");
    for explain in [
        EXPLAIN.to_string(),
        "null".to_string(),
        EXPLAIN.replace(
            r#","decision":{"read_ahead":false,"prefetch_min_bytes":65536}"#,
            "",
        ),
        EXPLAIN.replace(r#""read_ahead":false"#, r#""read_ahead":0"#),
        EXPLAIN.replace(
            r#""random_read_permille":250"#,
            r#""random_read_permille":2.5"#,
        ),
    ] {
        let old = format!("{QUERY_RESULT}{COST},\"explain\":{explain}}}");
        let decoded = response(&old).unwrap_or_else(|e| panic!("{old}: {e}"));
        assert_eq!(decoded.to_json().to_string(), plain);
    }
}

#[test]
fn malformed_requests_give_their_exact_errors() {
    let query = |tail: &str| format!(r#"{{"type":"query","name":"a","query":[1,2]{tail}}}"#);
    let insert = |tail: &str| format!(r#"{{"type":"insert","name":"a","series":[[1]]{tail}}}"#);
    let scenario = |arrival: &str| {
        format!(
            r#"{{"type":"recommend","scenario":{}}}"#,
            SCENARIO.replace(r#""Streaming""#, arrival)
        )
    };
    let cases: Vec<(String, &str)> = vec![
        // Missing members.
        (r#"{"name":"a"}"#.into(), "missing field 'type'"),
        (query(r#","k":1"#), "missing field 'exact'"),
        (
            r#"{"type":"query","query":[1],"k":1,"exact":true}"#.into(),
            "missing field 'name'",
        ),
        (r#"{"type":"insert","name":"a"}"#.into(), "missing field 'series'"),
        (r#"{"type":"metrics"}"#.into(), "missing field 'name'"),
        (r#"{"type":"batch"}"#.into(), "missing field 'requests'"),
        (r#"{"type":"recommend"}"#.into(), "missing field 'scenario'"),
        (
            r#"{"type":"build_index","name":"a","dataset_path":"x","variant":"CTree","materialized":true,"compression":"off"}"#.into(),
            "missing field 'memory_budget_bytes'",
        ),
        (
            scenario(r#""Static""#).replace(r#","small_windows":true"#, ""),
            "field 'scenario': missing field 'small_windows'",
        ),
        (
            r#"{"type":"batch","requests":[{"type":"stats"},{"type":"query"}]}"#.into(),
            "field 'requests': missing field 'name'",
        ),
        // Wrong types.
        (r#"{"type":7}"#.into(), "field 'type': expected a string"),
        (
            r#"{"type":"query","name":7,"query":[1],"k":1,"exact":true}"#.into(),
            "field 'name': expected a string",
        ),
        (query(r#","k":"3","exact":true"#), "field 'k': expected a number"),
        (query(r#","k":3,"exact":1"#), "field 'exact': expected a boolean"),
        (
            r#"{"type":"query","name":"a","query":[1,"x"],"k":1,"exact":true}"#.into(),
            "field 'query': expected a number",
        ),
        (
            r#"{"type":"insert","name":"a","series":{}}"#.into(),
            "field 'series': expected an array",
        ),
        (
            r#"{"type":"batch","requests":{"type":"stats"}}"#.into(),
            "field 'requests': expected an array",
        ),
        (
            build_index("").replace(r#""materialized":true"#, r#""materialized":"yes""#),
            "field 'materialized': expected a boolean",
        ),
        (
            scenario(r#""Static""#).replace(r#""small_windows":true"#, r#""small_windows":0"#),
            "field 'scenario': field 'small_windows': expected a boolean",
        ),
        // Unknown types.
        (
            r#"{"type":"frobnicate"}"#.into(),
            "unknown request type 'frobnicate'",
        ),
        (
            r#"{"type":"query_result"}"#.into(),
            "unknown request type 'query_result'",
        ),
        // A range half.
        (
            build_index(r#","range_lo":0"#),
            "range_lo and range_hi must be given together",
        ),
        (
            build_index(r#","range_hi":60"#),
            "range_lo and range_hi must be given together",
        ),
        (
            build_index(r#","range_lo":-1,"range_hi":60"#),
            "field 'range_lo': -1 out of range for u64",
        ),
        (
            build_index(r#","range_lo":0,"range_hi":"60""#),
            "field 'range_hi': expected a number",
        ),
        // A bad name for each name enum.
        (
            build_index("").replace(r#""CTree""#, r#""BTree""#),
            "field 'variant': unknown variant 'BTree'",
        ),
        (
            build_index("").replace(r#""CTree""#, "3"),
            "field 'variant': expected a string for the index variant",
        ),
        (
            build_index("").replace(r#""compression":"off""#, r#""compression":"prefx""#),
            "field 'compression': unknown compression 'prefx' (expected 'off')",
        ),
        (
            build_index("").replace(r#""compression":"off""#, r#""compression":"prefix""#),
            "field 'compression': unknown compression 'prefix' (expected 'off')",
        ),
        (
            build_index("").replace(r#""compression":"off""#, r#""compression":false"#),
            "field 'compression': expected a string for the compression scheme",
        ),
        (
            build_index("").replace(r#""pread""#, r#""aio""#),
            "field 'io_backend': unknown io backend 'aio' (pread|mmap)",
        ),
        (
            build_index("").replace(r#""pread""#, "[]"),
            "field 'io_backend': expected a string for the io backend",
        ),
        (
            build_index("").replace(r#""fixed""#, r#""Adaptive""#),
            "field 'planner': unknown planner mode 'Adaptive' (expected \"fixed\" or \"adaptive\")",
        ),
        (
            build_index("").replace(r#""fixed""#, "1"),
            "field 'planner': expected a string for the planner mode",
        ),
        (
            scenario(r#""Batch""#),
            "field 'scenario': field 'arrival': unknown DataArrival variant 'Batch'",
        ),
        (
            scenario("null"),
            "field 'scenario': field 'arrival': expected a string for DataArrival",
        ),
        // `null` for an optional member is refused; for a defaulted one it
        // is the default (see `accepted_spellings_come_back_canonical`).
        (
            insert(r#","timestamp":1,"base_id":null"#),
            "field 'base_id': expected a number",
        ),
        (
            insert(r#","base_id":"7""#),
            "field 'base_id': expected a number",
        ),
        (
            insert(r#","timestamp":"now""#),
            "field 'timestamp': expected a number",
        ),
        (
            build_index("").replace(r#""parallelism":1"#, r#""parallelism":"1""#),
            "field 'parallelism': expected a number",
        ),
        // Non-integral and out-of-range integers.
        (query(r#","k":1.5,"exact":true"#), "field 'k': expected an integer, got 1.5"),
        (query(r#","k":-1,"exact":true"#), "field 'k': -1 out of range for usize"),
        (
            insert(r#","timestamp":10000000000000000"#),
            "field 'timestamp': integer 10000000000000000 exceeds the exactly representable range",
        ),
        (
            insert(r#","timestamp":-2"#),
            "field 'timestamp': -2 out of range for u64",
        ),
        (
            build_index("").replace(r#""shard_count":1"#, r#""shard_count":0.5"#),
            "field 'shard_count': expected an integer, got 0.5",
        ),
        (
            scenario(r#""Static""#).replace(r#""series_len":256"#, r#""series_len":-256"#),
            "field 'scenario': field 'series_len': -256 out of range for usize",
        ),
    ];
    for (frame, expected) in cases {
        match request(&frame) {
            Ok(decoded) => panic!("{frame} decoded as {decoded:?}"),
            Err(e) => assert_eq!(e, expected, "{frame}"),
        }
    }
    // A frame nested past `coconut_json::MAX_DEPTH` is refused by the
    // parse itself, before its recursion can exhaust the parsing thread's
    // stack.
    let flood = format!(
        r#"{{"type":"insert","name":"a","series":{}}}"#,
        "[".repeat(100_000)
    );
    let refused = Json::parse(&flood).expect_err("a 100k-deep frame");
    assert_eq!(refused.to_string(), "nesting deeper than 64 levels");
}

#[test]
fn malformed_responses_give_their_exact_errors() {
    let built =
        |report: &str| format!(r#"{{"type":"built","name":"a","variant":"x","report":{report}}}"#);
    let cases: Vec<(String, &str)> = vec![
        (r#"{"kind":"config"}"#.into(), "missing field 'type'"),
        (
            r#"{"type":"query"}"#.into(),
            "unknown response type 'query'",
        ),
        (
            r#"{"type":"stats","requests":1,"cache_hits":2,"cache_misses":3,"shed":5,"deadline_exceeded":6,"indexes":7}"#.into(),
            "missing field 'cache_entries'",
        ),
        (
            r#"{"type":"inserted","name":"a","inserted":2.5,"total":3}"#.into(),
            "field 'inserted': expected an integer, got 2.5",
        ),
        (
            built(r#"{"elapsed_ms":1,"footprint_bytes":0,"entries":0}"#),
            "field 'report': missing field 'io'",
        ),
        (
            built(&format!(
                r#"{{"elapsed_ms":1,"io":{},"footprint_bytes":0,"entries":0}}"#,
                IO.replace(r#""bytes_read":5"#, r#""bytes_read":true"#)
            )),
            "field 'report': field 'bytes_read': expected a number",
        ),
        (
            built(&format!(
                r#"{{"elapsed_ms":1,"io":{},"footprint_bytes":0,"entries":0}}"#,
                IO.replace(r#""physical_bytes_read":7"#, r#""physical_bytes_read":-7"#)
            )),
            "field 'report': field 'physical_bytes_read': -7 out of range for u64",
        ),
        (
            built(&format!(
                r#"{{"elapsed_ms":"1","io":{IO},"footprint_bytes":0,"entries":0}}"#
            )),
            "field 'report': field 'elapsed_ms': expected a number",
        ),
        (
            format!("{QUERY_RESULT}{}}}", COST.replace(r#""raw_fetches":2,"#, "")),
            "field 'cost': missing field 'raw_fetches'",
        ),
        (
            r#"{"type":"error","kind":"deadline_exceeded","message":"late","partial_cost":null}"#.into(),
            "missing field 'entries_examined'",
        ),
        (
            r#"{"type":"error","kind":"overloaded","message":"busy","retry_after_ms":null}"#.into(),
            "field 'retry_after_ms': expected a number",
        ),
        (
            r#"{"type":"error","kind":"x","message":"m","shard_costs":[{"shard":0,"cost":null}]}"#.into(),
            "field 'shard_costs': missing field 'entries_examined'",
        ),
        (
            r#"{"type":"error","kind":"x","message":"m","shard_costs":[{"cost":{}}]}"#.into(),
            "field 'shard_costs': missing field 'shard'",
        ),
        (
            r#"{"type":"error","kind":"x","message":"m","shard_costs":null}"#.into(),
            "field 'shard_costs': expected an array",
        ),
        (
            r#"{"type":"error","kind":"x"}"#.into(),
            "missing field 'message'",
        ),
        (
            r#"{"type":"recommendation","recommendation":{"structure":"BTree","materialized":true,"scheme":"None","fill_factor":1,"growth_factor":0,"rationale":[]}}"#.into(),
            "field 'recommendation': field 'structure': unknown StructureKind variant 'BTree'",
        ),
        (
            r#"{"type":"recommendation","recommendation":{"structure":"Ads","materialized":true,"scheme":"Windows","fill_factor":1,"growth_factor":0,"rationale":[]}}"#.into(),
            "field 'recommendation': field 'scheme': unknown SchemeKind variant 'Windows'",
        ),
        (
            r#"{"type":"recommendation","recommendation":{"structure":0,"materialized":true,"scheme":"None","fill_factor":1,"growth_factor":0,"rationale":[]}}"#.into(),
            "field 'recommendation': field 'structure': expected a string for StructureKind",
        ),
        (
            r#"{"type":"batch_result","responses":[{"type":"indexes","names":[1]}]}"#.into(),
            "field 'responses': field 'names': expected a string",
        ),
    ];
    for (frame, expected) in cases {
        match response(&frame) {
            Ok(decoded) => panic!("{frame} decoded as {decoded:?}"),
            Err(e) => assert_eq!(e, expected, "{frame}"),
        }
    }
}
