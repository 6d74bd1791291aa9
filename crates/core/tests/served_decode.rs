//! The golden served-decode corpus: every frame below, sent through
//! `PalmServer::handle_json` or through a `Coordinator`, gets the reply
//! recorded in `served_decode.golden`, byte for byte apart from
//! `elapsed_ms`, refusals included.
//!
//! The replies were recorded from the reference decode (`Json::parse`, the
//! frame's `deadline_ms` folded into the token, `PalmRequest::from_json`,
//! `handle`) and from the coordinator, in the commit before requests were
//! read in one walk of the frame.  The frames probe what that walk must
//! keep: float payloads of every shape, members in any order, duplicates,
//! and which refusal wins when a frame has several faults.

use std::collections::BTreeMap;
use std::sync::Arc;

use coconut_core::backend::{ExecutionBackend, LocalBackend};
use coconut_core::palm::{PalmRequest, PalmResponse, PalmServer};
use coconut_core::{CancelToken, Dataset, VariantKind};
use coconut_json::{Json, ToJson, SPLIT_MIN_BYTES};
use coconut_net::{Coordinator, RequestHandler};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;

const SERIES_LEN: usize = 16;

const GOLDEN: &str = include_str!("served_decode.golden");

/// The recorded replies of `section`: one line each, the FNV-1a digest of
/// the frame (16 hex digits), a space, the reply.  No reply carries an
/// `explain` member.
fn golden(section: &str) -> Vec<(&'static str, &'static str)> {
    assert!(!GOLDEN.contains("\"explain\""), "a recorded reply explains");
    let header = format!("# {section}\n");
    let start = GOLDEN.find(&header).expect("the section is recorded") + header.len();
    GOLDEN[start..]
        .lines()
        .take_while(|line| !line.starts_with("# "))
        .map(|line| line.split_at(16))
        .map(|(digest, reply)| (digest, &reply[1..]))
        .collect()
}

fn digest(frame: &str) -> String {
    let hash = frame.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Sends every frame through `reply` and checks each reply, `elapsed_ms`
/// blanked, against the recording of `section`; frames for which `skip`
/// holds are sent but not checked.  The reply kinds, counted.
fn assert_golden(
    section: &str,
    frames: &[String],
    skip: impl Fn(&str) -> bool,
    mut reply: impl FnMut(&str) -> String,
) -> BTreeMap<String, usize> {
    let recorded = golden(section);
    assert_eq!(recorded.len(), frames.len(), "{section}");
    let mut kinds = BTreeMap::new();
    for (frame, (frame_digest, expected)) in frames.iter().zip(recorded) {
        let shown = &frame[..frame.len().min(300)];
        assert_eq!(digest(frame), frame_digest, "{section}: {shown}");
        let got = blank_elapsed(&reply(frame));
        if skip(frame) {
            continue;
        }
        assert_eq!(got, expected, "{section}: {shown}");
        let got = Json::parse(&got).unwrap();
        let kind = got.get("kind").or(got.get("type")).and_then(Json::as_str);
        *kinds.entry(kind.unwrap().to_string()).or_insert(0) += 1;
    }
    kinds
}

/// `reply` with the value of every `elapsed_ms` member replaced by `0`.
fn blank_elapsed(reply: &str) -> String {
    const KEY: &str = "\"elapsed_ms\":";
    let mut out = String::with_capacity(reply.len());
    let mut rest = reply;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The dataset of 120 series of `len` points in `dir`, written once.
fn dataset(dir: &ScratchDir, len: usize) -> String {
    let path = dir.file(&format!("raw-{len}.bin"));
    if !path.exists() {
        let series = RandomWalkGenerator::new(len, 5).generate(120);
        Dataset::create_from_series(&path, &series).unwrap();
    }
    path.to_string_lossy().into_owned()
}

fn build_a(path: &str) -> PalmRequest {
    PalmRequest::build_index("a", path, VariantKind::Clsm, true, 4 << 20)
}

/// A server with index `a` (materialized CLSM, which takes inserts) built
/// over the dataset of series of `len` points, in `dir`.
fn server(dir: &ScratchDir, tag: &str, cache: bool, len: usize) -> PalmServer {
    let mut server = PalmServer::new(dir.file(tag));
    if cache {
        server = server.with_result_cache(64);
    }
    let built = server.handle(build_a(&dataset(dir, len)));
    assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
    server
}

/// A row of `SERIES_LEN` values: `head` as spelled, then filler numbers.
fn row(head: &[&str]) -> String {
    let filler = (head.len()..SERIES_LEN).map(|i| format!("{}.{}", i % 7, i));
    let values: Vec<String> = head.iter().map(|v| v.to_string()).chain(filler).collect();
    format!("[{}]", values.join(","))
}

fn insert(series: &str) -> String {
    format!(r#"{{"type":"insert","name":"a","series":{series},"timestamp":3}}"#)
}

fn query(values: &str) -> String {
    format!(r#"{{"type":"query","name":"a","query":{values},"k":3,"exact":true}}"#)
}

/// The request frames and malformed cases of the golden wire corpus.
fn corpus() -> Vec<String> {
    let build_index = |tail: &str| {
        format!(
            r#"{{"type":"build_index","name":"a","dataset_path":"/data/raw.bin","variant":"CTree","materialized":true,"memory_budget_bytes":8388608,"parallelism":1,"query_parallelism":2,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"{tail}}}"#
        )
    };
    let scenario = r#"{"arrival":"Streaming","collection_size":1000,"series_len":256,"memory_budget_bytes":268435456,"storage_budget_bytes":0,"expected_queries":1000,"expected_updates":1000,"small_windows":true}"#;
    let scenario_with = |arrival: &str| {
        format!(
            r#"{{"type":"recommend","scenario":{}}}"#,
            scenario.replace(r#""Streaming""#, arrival)
        )
    };
    let wire_query = r#"{"type":"query","name":"a","query":[0.5,-1,2.25],"k":3,"exact":true}"#;
    let short_query = |tail: &str| format!(r#"{{"type":"query","name":"a","query":[1,2]{tail}}}"#);
    let short_insert =
        |tail: &str| format!(r#"{{"type":"insert","name":"a","series":[[1]]{tail}}}"#);
    let mut frames = vec![
        build_index(""),
        build_index(r#","range_lo":0,"range_hi":60"#),
        r#"{"type":"build_index","name":"b","dataset_path":"x","variant":"Clsm","materialized":false,"memory_budget_bytes":0,"parallelism":0,"query_parallelism":0,"shard_count":4,"io_overlap":false,"io_backend":"mmap","planner":"adaptive","compression":"off","range_lo":60,"range_hi":120}"#.to_string(),
        wire_query.to_string(),
        r#"{"type":"query","name":"","query":[],"k":1,"exact":false}"#.to_string(),
        format!(r#"{{"type":"batch","requests":[{wire_query},{{"type":"stats"}},{{"type":"batch","requests":[]}}]}}"#),
        r#"{"type":"batch","requests":[]}"#.to_string(),
        r#"{"type":"insert","name":"a","series":[[1,2],[3,4.5]],"timestamp":7}"#.to_string(),
        r#"{"type":"insert","name":"a","series":[],"timestamp":0,"base_id":100}"#.to_string(),
        r#"{"type":"metrics","name":"a"}"#.to_string(),
        format!(r#"{{"type":"recommend","scenario":{scenario}}}"#),
        r#"{"type":"recommend","scenario":{"arrival":"Static","collection_size":0,"series_len":1,"memory_budget_bytes":1,"storage_budget_bytes":2,"expected_queries":3,"expected_updates":4,"small_windows":false}}"#.to_string(),
        r#"{"type":"build_index","name":"c","dataset_path":"x","variant":"Ads","materialized":true,"memory_budget_bytes":1,"parallelism":1,"query_parallelism":1,"shard_count":1,"io_overlap":true,"io_backend":"pread","planner":"fixed","compression":"off"}"#.to_string(),
        r#"{"type":"list_indexes"}"#.to_string(),
        r#"{"type":"stats"}"#.to_string(),
        // Accepted in another spelling.
        r#"{"type":"insert","name":"a","series":[[1]]}"#.to_string(),
        r#"{"type":"insert","name":"a","series":[[1]],"timestamp":null}"#.to_string(),
        r#"{"exact":false,"k":2.0,"query":[1e0],"name":"q","type":"query","extra":[null]}"#
            .to_string(),
        r#"{"type":"list_indexes","name":"ignored"}"#.to_string(),
        // Malformed.
        r#"{"name":"a"}"#.to_string(),
        short_query(r#","k":1"#),
        r#"{"type":"query","query":[1],"k":1,"exact":true}"#.to_string(),
        r#"{"type":"insert","name":"a"}"#.to_string(),
        r#"{"type":"metrics"}"#.to_string(),
        r#"{"type":"batch"}"#.to_string(),
        r#"{"type":"recommend"}"#.to_string(),
        r#"{"type":"batch","requests":[{"type":"stats"},{"type":"query"}]}"#.to_string(),
        r#"{"type":7}"#.to_string(),
        r#"{"type":"query","name":7,"query":[1],"k":1,"exact":true}"#.to_string(),
        short_query(r#","k":"3","exact":true"#),
        short_query(r#","k":3,"exact":1"#),
        r#"{"type":"query","name":"a","query":[1,"x"],"k":1,"exact":true}"#.to_string(),
        r#"{"type":"insert","name":"a","series":{}}"#.to_string(),
        r#"{"type":"batch","requests":{"type":"stats"}}"#.to_string(),
        build_index("").replace(r#""materialized":true"#, r#""materialized":"yes""#),
        r#"{"type":"frobnicate"}"#.to_string(),
        r#"{"type":"query_result"}"#.to_string(),
        build_index(r#","range_lo":0"#),
        build_index(r#","range_lo":-1,"range_hi":60"#),
        build_index("").replace(r#""CTree""#, r#""BTree""#),
        build_index("").replace(r#""compression":"off""#, r#""compression":"prefx""#),
        short_insert(r#","timestamp":1,"base_id":null"#),
        short_insert(r#","base_id":"7""#),
        short_insert(r#","timestamp":"now""#),
        short_query(r#","k":1.5,"exact":true"#),
        short_query(r#","k":-1,"exact":true"#),
        short_insert(r#","timestamp":10000000000000000"#),
        short_insert(r#","timestamp":-2"#),
        r#"{"type":"build_index","name":"a","dataset_path":"x","variant":"CTree","materialized":true,"compression":"off"}"#.to_string(),
        scenario_with(r#""Static""#).replace(r#","small_windows":true"#, ""),
        scenario_with(r#""Static""#).replace(r#""small_windows":true"#, r#""small_windows":0"#),
        scenario_with(r#""Static""#).replace(r#""series_len":256"#, r#""series_len":-256"#),
        scenario_with(r#""Batch""#),
        scenario_with("null"),
        build_index(r#","range_hi":60"#),
        build_index(r#","range_lo":0,"range_hi":"60""#),
        build_index("").replace(r#""CTree""#, "3"),
        build_index("").replace(r#""compression":"off""#, r#""compression":false"#),
        build_index("").replace(r#""pread""#, r#""aio""#),
        build_index("").replace(r#""pread""#, "[]"),
        build_index("").replace(r#""fixed""#, r#""Adaptive""#),
        build_index("").replace(r#""fixed""#, "1"),
        build_index("").replace(r#""parallelism":1"#, r#""parallelism":"1""#),
        build_index("").replace(r#""shard_count":1"#, r#""shard_count":0.5"#),
    ];
    frames.extend(["", "{{{", "not json", "[]", "7", "{}"].map(String::from));
    frames
}

/// Float payloads of every shape, spelled for `insert` (`series`, rows) or
/// for `query` (`query`, values).
fn payload_frames(rows: bool) -> Vec<String> {
    let good = row(&["1", "2.5"]);
    let frame = if rows { insert } else { query };
    let wrap = |r: &str| {
        if rows {
            format!("[{r}]")
        } else {
            r.to_string()
        }
    };
    let mut frames: Vec<String> = [
        r#"[[1,"x"]]"#,
        "[[1],2]",
        "[[1,[2]]]",
        "[[1,null]]",
        "[{}]",
        "[[]]",
        "[]",
        r#"[1,"x"]"#,
        "[1,[2]]",
        "[null]",
        "[.5]",
        "[-]",
        "\"x\"",
        "{}",
        "null",
    ]
    .iter()
    .map(|payload| frame(payload))
    .collect();
    // Special numbers, each in a row of the right length.
    for special in [
        "1e39",
        "-1e39",
        "-0",
        "4.9e-324",
        "1234567890123456789012345",
        "0.1234567890123456789012345e2",
        "9007199254740993",
        "1E+2",
    ] {
        frames.push(frame(&wrap(&row(&[special]))));
    }
    let good_frame = frame(&wrap(&good));
    let key = if rows { "series" } else { "query" };
    let spelled = format!("\"{key}\":{}", wrap(&good));
    // The member twice: first bad then good, first good then bad.
    frames.push(good_frame.replace(&spelled, &format!("\"{key}\":[[1,\"x\"]],{spelled}")));
    frames.push(good_frame.replace(&spelled, &format!("{spelled},\"{key}\":[[1,\"x\"]]")));
    frames.push(good_frame.replace(
        &spelled,
        &format!("{spelled},\"{key}\":{}", wrap(&row(&["7"]))),
    ));
    // A syntax error after a well-formed payload.
    for broken in [",}", "}}", " x}", ",\"z\":[1,]}", ",\"z\":tru}"] {
        frames.push(format!("{}{broken}", good_frame.trim_end_matches('}')));
    }
    frames.push(format!("{good_frame}x"));
    // Whitespace around every token: from the payload on, keeping the
    // opening the encoders write, and throughout.
    let spaced = |text: &str| {
        let mut out = String::new();
        for c in text.chars() {
            if "[]{},:".contains(c) {
                out.push_str(" \t");
                out.push(c);
                out.push_str("\r\n ");
            } else {
                out.push(c);
            }
        }
        out
    };
    let opening = if rows {
        r#"{"type":"insert","#
    } else {
        r#"{"type":"query","#
    };
    frames.push(format!(
        "{opening}{}",
        spaced(good_frame.strip_prefix(opening).unwrap())
    ));
    frames.push(spaced(&good_frame));
    frames.push(good_frame.clone());
    // A deadline, well-formed and not, around a good and a bad payload.
    for deadline in ["60000", "-1", "\"soon\""] {
        let tail = format!(",\"deadline_ms\":{deadline}}}");
        frames.push(format!("{}{tail}", good_frame.trim_end_matches('}')));
        let bad = frame("[[1,\"x\"]]");
        frames.push(format!("{}{tail}", bad.trim_end_matches('}')));
    }
    frames
}

/// Frames that pin which refusal a frame with several faults gets, and
/// where members may stand: a syntax error anywhere wins; then a bad
/// `deadline_ms`; then the request's members in declaration order, the
/// first of a duplicated key read and the rest only checked; `type` may
/// come anywhere.
fn order_frames() -> Vec<String> {
    let values = row(&["0.5"]);
    let rows = format!("[{}]", row(&["2"]));
    let mut frames: Vec<String> = [
        // A bad member, then a syntax error.
        r#"{"type":"query","name":7,"query":[1],"k":1,"exact":tru}"#,
        r#"{"type":"insert","name":"a","series":[[1,"x"]],"timestamp":[1,]}"#,
        r#"{"type":"frobnicate","name":[}"#,
        // Two bad members, in reverse declaration order; a missing member
        // declared before a bad one, and after.
        r#"{"type":"query","exact":1,"k":"3","query":[1,"x"],"name":7}"#,
        r#"{"type":"insert","timestamp":"now","series":{},"name":7}"#,
        r#"{"type":"build_index","compression":"prefx","variant":"BTree","name":"a","dataset_path":"x","materialized":true,"memory_budget_bytes":1}"#,
        r#"{"type":"build_index","name":"a","dataset_path":"x","variant":"CTree","materialized":true,"memory_budget_bytes":1,"range_hi":"60","range_lo":-1}"#,
        r#"{"type":"query","k":"3","query":[1],"exact":true}"#,
        r#"{"type":"query","name":7,"query":[1],"k":1}"#,
        r#"{"type":"batch","requests":[{"type":"query","exact":1,"name":7},{"type":"nope"}]}"#,
        r#"{"type":"recommend","scenario":{"small_windows":0,"arrival":"Batch"}}"#,
        // Duplicates: the first copy is read, a later one only checked.
        r#"{"type":"stats","type":7}"#,
        r#"{"type":"insert","name":"a","series":[],"timestamp":null,"timestamp":"x"}"#,
        r#"{"type":"query","name":"a","query":[1],"k":1,"k":[1,],"exact":true}"#,
        r#"{"type":"build_index","name":"a","dataset_path":"x","variant":"CTree","materialized":true,"memory_budget_bytes":1,"range_lo":0,"range_hi":9,"range_lo":"x"}"#,
        // `type` last, or not first, or bad there.
        r#"{"requests":[{"k":1,"type":"stats"}],"type":"batch"}"#,
        r#"{"name":7,"query":[1],"k":1,"exact":true,"type":"query"}"#,
        r#"{"name":"a","query":[1,],"type":"query"}"#,
        r#"{"name":"a","type":"nope"}"#,
        r#"{"name":"a","type":null}"#,
        r#"{"name":"a","type":"stats","type":"nope"}"#,
        // A bad `deadline_ms`: after a syntax error, before anything else.
        r#"{"type":"frobnicate","deadline_ms":-1}"#,
        r#"{"deadline_ms":null}"#,
        r#"{"type":"query","name":7,"deadline_ms":"soon","k":[1,]}"#,
        r#"{"type":"stats","deadline_ms":5,"deadline_ms":-1}"#,
        r#"{"type":"stats","deadline_ms":1e400}"#,
        r#"{"type":"batch","requests":[],"deadline_ms":-1}"#,
        r#"{"type":"batch","requests":[{"type":"stats","deadline_ms":-1}]}"#,
        // Values where `series` rows belong, and rows where values belong.
        r#"{"type":"insert","name":"a","series":[1,2,3]}"#,
        r#"{"type":"insert","name":"a","series":[[1,2],3]}"#,
    ]
    .map(String::from)
    .to_vec();
    frames.extend([
        format!(r#"{{"type":"query","name":"a","query":{values},"k":3,"k":"x","exact":true,"exact":null}}"#),
        format!(r#"{{"type":"insert","name":"a","name":7,"series":{rows},"series":[[1,"x"]],"timestamp":4,"timestamp":-1}}"#),
        format!(r#"{{"name":"a","query":{values},"k":3,"exact":true,"type":"query"}}"#),
        format!(r#"{{"name":"a","series":{rows},"timestamp":5,"type":"insert"}}"#),
        format!(r#"{{"name":"a","type":"query","query":{values},"k":2,"exact":false}}"#),
        format!(r#"{{"type":"batch","requests":[{{"name":"a","query":{values},"k":2,"exact":true,"type":"query"}}]}}"#),
        format!(r#"{{"type":"query","name":"a","query":{values},"k":"x","exact":true,"deadline_ms":-1}}"#),
        format!(r#"{{"deadline_ms":"soon","type":"query","name":"a","query":{values},"k":-1,"exact":true}}"#),
        format!(r#"{{"type":"query","name":"a","query":{values},"k":"x","exact":true,"deadline_ms":-1,"z":[1,]}}"#),
        format!(r#"{{"type":"query","name":"a","query":[{values}],"k":3,"exact":true}}"#),
        // Out-of-range numbers inside the payload.
        query(&row(&["1e400"])),
        query(&row(&["1", "-1e400"])),
        insert(&format!("[{}]", row(&["1e400"]))),
        // Nesting past the parser's limit inside the payload.
        insert(&"[".repeat(100_000)),
        query(&"[".repeat(100_000)),
        format!(r#"{{"name":"a","series":{},"type":"insert"}}"#, "[".repeat(100)),
    ]);
    frames
}

fn every_frame() -> Vec<String> {
    let mut frames = corpus();
    // Every truncation of a three-row insert frame, then the frame itself.
    let three = insert(&format!(
        "[{},{},{}]",
        row(&["1"]),
        row(&["-2e0", "3"]),
        row(&[])
    ));
    frames.extend((0..=three.len()).map(|cut| three[..cut].to_string()));
    frames.extend(payload_frames(true));
    frames.extend(payload_frames(false));
    // Queries of the right length, approximate too, and a repeat (a result
    // cache hit where one is on).
    let good = query(&row(&["0.25"]));
    frames.push(good.replace("\"exact\":true", "\"exact\":false"));
    frames.push(good.clone());
    frames.push(good);
    // Batches of inserts and queries: each element is decoded on its own.
    frames.push(format!(
        r#"{{"type":"batch","requests":[{},{},{},{}]}}"#,
        insert(&format!("[{}]", row(&["5"]))),
        query(&row(&["1e39"])),
        query(&row(&["-0", "4.9e-324"])),
        query(r#"[1,"x"]"#)
    ));
    frames.push(format!(
        r#"{{"type":"batch","requests":[{},{}]}}"#,
        insert(&format!("[{}]", row(&["6"]))),
        query(&row(&["-0", "4.9e-324"]))
    ));
    frames.extend(order_frames());
    frames
}

#[test]
fn served_replies_equal_the_reference_decode() {
    let dir = ScratchDir::new("served-decode").unwrap();
    let served = server(&dir, "served", false, SERIES_LEN);
    let kinds = assert_golden(
        "served",
        &every_frame(),
        |_| false,
        |frame| served.handle_json(frame),
    );
    // The corpus reaches the engine, not only the refusals.
    for (kind, at_least) in [
        ("inserted", 5),
        ("query_result", 10),
        ("config", 10),
        ("malformed_request", 100),
    ] {
        assert!(kinds.get(kind).is_some_and(|&n| n >= at_least), "{kinds:?}");
    }
}

/// With the result cache on, a `batch` frame's misses are decoded element
/// by element on their own path; every reply but the counters of `stats`
/// (which count cache traffic) is still the recorded one.
#[test]
fn cached_served_replies_equal_the_reference_decode() {
    let dir = ScratchDir::new("served-decode-cached").unwrap();
    let served = server(&dir, "served", true, SERIES_LEN);
    let stats = |frame: &str| frame.contains(r#""type":"stats""#);
    assert_golden("served", &every_frame(), stats, |frame| {
        served.handle_json(frame)
    });
}

/// An old client's `"planner":"adaptive"` build frame builds an index that
/// answers every query as the `"planner":"fixed"` one, byte for byte; any
/// other planner name is still refused.
#[test]
fn old_planner_frames_build_and_answer_as_fixed() {
    let dir = ScratchDir::new("served-decode-planner").unwrap();
    let build = build_a(&dataset(&dir, SERIES_LEN)).to_json().to_string();
    assert!(build.contains(r#""planner":"fixed""#), "{build}");
    let servers = ["fixed", "adaptive"].map(|planner| {
        let server = PalmServer::new(dir.file(planner));
        let frame = build.replace(r#""planner":"fixed""#, &format!(r#""planner":"{planner}""#));
        let built = server.handle_json(&frame);
        assert!(built.starts_with(r#"{"type":"built""#), "{built}");
        server
    });
    let good = query(&row(&["0.25"]));
    for frame in [
        good.replace("\"exact\":true", "\"exact\":false"),
        good.clone(),
        good,
        query(&row(&["-0", "4.9e-324"])),
        query("[1]"),
        r#"{"type":"stats"}"#.to_string(),
    ] {
        let [fixed, adaptive] = [0, 1].map(|i| blank_elapsed(&servers[i].handle_json(&frame)));
        assert_eq!(adaptive, fixed, "{frame}");
    }
    let greedy =
        servers[0].handle_json(&build.replace(r#""planner":"fixed""#, r#""planner":"greedy""#));
    assert_eq!(
        greedy,
        r#"{"type":"error","kind":"malformed_request","message":"malformed request: field 'planner': unknown planner mode 'greedy' (expected \"fixed\" or \"adaptive\")"}"#
    );
}

/// An insert frame as the benchmark client writes one: 128 random walks of
/// 256 points, each value rounded to 1/1024 (about 354 KB).
fn wide_insert() -> String {
    let rows: Vec<String> = RandomWalkGenerator::new(256, 0x4A_50)
        .generate(128)
        .iter()
        .map(|series| {
            let values: Vec<String> = series
                .values
                .iter()
                .map(|v| format!("{}", (v * 1024.0).round() / 1024.0))
                .collect();
            format!("[{}]", values.join(","))
        })
        .collect();
    insert(&format!("[{}]", rows.join(",")))
}

/// Past [`SPLIT_MIN_BYTES`] the server decodes `series` on several threads,
/// split at row boundaries: the frame and its mutants, on a cut (the
/// middle of the array, where two and four parts cut) and past it, reply
/// as recorded.
#[test]
fn large_insert_frames_reply_as_the_reference_decode() {
    let dir = ScratchDir::new("served-decode-large").unwrap();
    let served = server(&dir, "served", false, 256);
    let whole = wide_insert();
    assert!(whole.len() > 5 * SPLIT_MIN_BYTES, "{}", whole.len());
    let open = whole.find("\"series\":").unwrap() + 9;
    let middle = open + (whole.len() - open) / 2;
    // The first element to start past `at`, replaced by `by`.
    let replaced = |at: usize, by: &str| {
        let start = at + whole[at..].find(',').unwrap() + 1;
        let end = start + whole[start..].find([',', ']']).unwrap();
        format!("{}{by}{}", &whole[..start], &whole[end..])
    };
    let cut = middle + whole[middle..].find("],[").unwrap();
    let frames = [
        whole.clone(),
        replaced(middle + 1000, "1e+"),
        replaced(middle, "\"],[\""),
        replaced(middle, "[[1],[2]]"),
        format!("{}] , [{}", &whole[..cut], &whole[cut + 3..]),
        whole[..whole.len() - 5000].to_string(),
        // `type` last: the rows come before the variant is known.
        format!(
            r#"{{"name":"a","series":{},"type":"insert"}}"#,
            &whole[open..whole.len() - 15]
        ),
        replaced(whole.len() - 3000, "1e400"),
    ];
    let kinds = assert_golden(
        "large",
        &frames,
        |_| false,
        |frame| served.handle_json(frame),
    );
    assert_eq!(kinds.get("inserted"), Some(&3), "{kinds:?}");
}

/// The coordinator checks a `query` is all finite numbers before any shard
/// hears of it, and refuses one that is not in the words the codec's decode
/// of the member gives.
#[test]
fn coordinator_refuses_bad_query_values_as_the_codec_does() {
    let dir = ScratchDir::new("served-decode-coord").unwrap();
    let shard = server(&dir, "shard", false, SERIES_LEN);
    let coordinator = Coordinator::new(vec![
        Arc::new(LocalBackend::new(Arc::new(shard))) as Arc<dyn ExecutionBackend>
    ]);
    let frames: Vec<String> = [
        r#"[1,"x"]"#.to_string(),
        "[[1,2]]".to_string(),
        "[1,[2]]".to_string(),
        "[null]".to_string(),
        "[{}]".to_string(),
        "{}".to_string(),
        row(&["1e39"]),
        row(&["-2", "-1e39"]),
        row(&["1", "1e400"]),
        row(&["-0", "4.9e-324"]),
        "[]".to_string(),
    ]
    .iter()
    .map(|values| query(values))
    .collect();
    assert_golden(
        "coordinator-query",
        &frames,
        |_| false,
        |frame| coordinator.handle_json_bytes(frame.as_bytes().to_vec(), &CancelToken::never()),
    );
    // Refused before any shard heard of them: no shard's cost attached.
    let refused = golden("coordinator-query")
        .iter()
        .filter(|(_, reply)| reply.contains(r#""type":"error""#) && !reply.contains("shard_costs"))
        .count();
    assert_eq!(refused, 9);
}

/// Every frame through a coordinator over two shards that built `a`
/// through it, so that inserts are routed: the verbs it forwards unparsed
/// (`insert`, `query`) and the ones it decodes reply as recorded.
#[test]
fn coordinator_replies_equal_the_recorded_corpus() {
    let dir = ScratchDir::new("served-decode-fleet").unwrap();
    let shards = ["shard-0", "shard-1"].map(|tag| {
        Arc::new(LocalBackend::new(Arc::new(PalmServer::new(dir.file(tag)))))
            as Arc<dyn ExecutionBackend>
    });
    let coordinator = Coordinator::new(shards.to_vec());
    let reply = |frame: &str| {
        coordinator.handle_json_bytes(frame.as_bytes().to_vec(), &CancelToken::never())
    };
    let built = reply(&build_a(&dataset(&dir, SERIES_LEN)).to_json().to_string());
    assert!(built.starts_with(r#"{"type":"built""#), "{built}");
    let kinds = assert_golden("coordinator", &every_frame(), |_| false, reply);
    assert!(kinds.get("inserted").is_some_and(|&n| n >= 5), "{kinds:?}");
}
