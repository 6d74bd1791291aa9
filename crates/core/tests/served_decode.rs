//! The served decode is the reference decode: every frame sent through
//! `PalmServer::handle_json` gets the reply, byte for byte apart from
//! `elapsed_ms`, that `Json::parse` -> `PalmRequest::from_json` -> `handle`
//! gives on an identically built server, refusals included.  The server
//! lifts an `insert`'s `series` and a `query`'s `query` out of the frame in
//! one pass; these frames probe where that pass must agree with the tree
//! and where it must decline.
//!
//! The coordinator's check of a `query` before it is broadcast is held to
//! the refusal text the codec's own decode of the member gives.

use std::sync::Arc;
use std::time::{Duration, Instant};

use coconut_core::backend::{ExecutionBackend, LocalBackend};
use coconut_core::palm::{
    PalmRequest, PalmResponse, PalmServer, ERROR_KIND_CONFIG, ERROR_KIND_MALFORMED,
};
use coconut_core::{check_finite, CancelToken, Dataset, VariantKind};
use coconut_json::{
    require_member, scan_object, FromJson, Json, JsonError, ToJson, SPLIT_MIN_BYTES,
};
use coconut_net::{Coordinator, RequestHandler};
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;

const SERIES_LEN: usize = 16;

/// The reply of the reference path: parse, fold `deadline_ms`, decode,
/// handle; a parse or decode failure worded as the server words it.
fn reference(server: &PalmServer, frame: &str) -> String {
    let malformed = |e: JsonError| {
        PalmResponse::error(ERROR_KIND_MALFORMED, format!("malformed request: {e}"))
            .to_json()
            .to_string()
    };
    let json = match Json::parse(frame) {
        Ok(json) => json,
        Err(e) => return malformed(e),
    };
    let cancel = match json.get("deadline_ms").map(Json::as_f64) {
        None => CancelToken::never(),
        Some(Some(ms)) if ms >= 0.0 => {
            CancelToken::at(Instant::now() + Duration::from_millis(ms as u64))
        }
        Some(_) => {
            return PalmResponse::error(
                ERROR_KIND_MALFORMED,
                "deadline_ms must be a non-negative number",
            )
            .to_json()
            .to_string()
        }
    };
    match PalmRequest::from_json(&json) {
        Ok(request) => server.handle_with(request, &cancel).to_json().to_string(),
        Err(e) => malformed(e),
    }
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

/// Servers with index `a` (materialized CLSM, which takes inserts) built
/// over the same dataset of series of `SERIES_LEN` points, in `dir`.
fn servers(dir: &ScratchDir, tags: &[&str], cache: bool) -> Vec<PalmServer> {
    servers_of(dir, tags, cache, SERIES_LEN)
}

/// [`servers`] over series of `len` points.
fn servers_of(dir: &ScratchDir, tags: &[&str], cache: bool, len: usize) -> Vec<PalmServer> {
    let path = dir.file(&format!("raw-{len}.bin"));
    if !path.exists() {
        let series = RandomWalkGenerator::new(len, 5).generate(120);
        Dataset::create_from_series(&path, &series).unwrap();
    }
    let path = path.to_string_lossy().into_owned();
    tags.iter()
        .map(|tag| {
            let mut server = PalmServer::new(dir.file(tag));
            if cache {
                server = server.with_result_cache(64);
            }
            let built = server.handle(PalmRequest::build_index(
                "a",
                path.clone(),
                VariantKind::Clsm,
                true,
                4 << 20,
            ));
            assert!(matches!(built, PalmResponse::Built { .. }), "{built:?}");
            server
        })
        .collect()
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
        r#"{"type":"build_index","name":"b","dataset_path":"x","variant":"Clsm","materialized":false,"memory_budget_bytes":0,"parallelism":0,"query_parallelism":0,"shard_count":4,"io_overlap":false,"io_backend":"mmap","planner":"adaptive","compression":"prefix","range_lo":60,"range_hi":120}"#.to_string(),
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

/// The frames that probe the one-pass decode of a float payload, spelled
/// for `insert` (`series`, rows) or for `query` (`query`, values).
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
    frames
}

#[test]
fn served_replies_equal_the_reference_decode() {
    let dir = ScratchDir::new("served-decode").unwrap();
    let pair = servers(&dir, &["served", "reference"], false);
    let (served, expected) = (&pair[0], &pair[1]);
    let mut kinds = std::collections::BTreeMap::new();
    for frame in every_frame() {
        let reply = served.handle_json(&frame);
        assert_eq!(
            blank_elapsed(&reply),
            blank_elapsed(&reference(expected, &frame)),
            "{frame}"
        );
        let reply = Json::parse(&reply).unwrap();
        let kind = reply
            .get("kind")
            .or(reply.get("type"))
            .and_then(Json::as_str);
        *kinds.entry(kind.unwrap().to_string()).or_insert(0) += 1;
    }
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
/// as the one-thread reference decode does.
#[test]
fn large_insert_frames_reply_as_the_reference_decode() {
    let dir = ScratchDir::new("served-decode-large").unwrap();
    let pair = servers_of(&dir, &["served", "reference"], false, 256);
    let (served, expected) = (&pair[0], &pair[1]);
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
    ];
    let mut kinds = Vec::new();
    for frame in &frames {
        let reply = served.handle_json(frame);
        assert_eq!(
            blank_elapsed(&reply),
            blank_elapsed(&reference(expected, frame)),
            "{}",
            &frame[..200]
        );
        let reply = Json::parse(&reply).unwrap();
        let kind = reply
            .get("kind")
            .or(reply.get("type"))
            .and_then(Json::as_str);
        kinds.push(kind.unwrap().to_string());
    }
    assert_eq!(
        kinds,
        [
            "inserted",
            "malformed_request",
            "malformed_request",
            "malformed_request",
            "inserted",
            "malformed_request"
        ]
    );
}

/// With the result cache on, a `batch` frame's misses are decoded element
/// by element on their own path; every reply but the counters of `stats`
/// (which count cache traffic) is still the reference's.
#[test]
fn cached_served_replies_equal_the_reference_decode() {
    let dir = ScratchDir::new("served-decode-cached").unwrap();
    let served = servers(&dir, &["served"], true).remove(0);
    let expected = servers(&dir, &["reference"], false).remove(0);
    for frame in every_frame() {
        let got = served.handle_json(&frame);
        let want = reference(&expected, &frame);
        if frame.contains(r#"{"type":"stats"}"#) {
            continue;
        }
        assert_eq!(blank_elapsed(&got), blank_elapsed(&want), "{frame}");
    }
}

/// The coordinator checks a `query` is all finite numbers before any shard
/// hears of it, and refuses one that is not in the words the codec's decode
/// of the member gives.
#[test]
fn coordinator_refuses_bad_query_values_as_the_codec_does() {
    let dir = ScratchDir::new("served-decode-coord").unwrap();
    let shard = servers(&dir, &["shard"], false).remove(0);
    let coordinator = Coordinator::new(vec![
        Arc::new(LocalBackend::new(Arc::new(shard))) as Arc<dyn ExecutionBackend>
    ]);
    let mut refused = 0;
    for values in [
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
    ] {
        let frame = query(&values);
        let members = scan_object(&frame).unwrap();
        let decoded = require_member(&members, "query")
            .unwrap()
            .field::<Vec<f32>>();
        let expected = match decoded {
            Err(e) => PalmResponse::error(ERROR_KIND_MALFORMED, format!("malformed request: {e}")),
            Ok(values) => match check_finite("query", &values) {
                Err(e) => PalmResponse::error(ERROR_KIND_CONFIG, e.to_string()),
                Ok(()) => {
                    // Finite values go to the shard, which judges the length.
                    let reply =
                        coordinator.handle_json_bytes(frame.into_bytes(), &CancelToken::never());
                    let reply = PalmResponse::from_json(&Json::parse(&reply).unwrap()).unwrap();
                    assert!(
                        matches!(
                            &reply,
                            PalmResponse::QueryResult { .. } | PalmResponse::Error { .. }
                        ),
                        "{reply:?}"
                    );
                    continue;
                }
            },
        };
        refused += 1;
        let reply =
            coordinator.handle_json_bytes(frame.clone().into_bytes(), &CancelToken::never());
        assert_eq!(reply, expected.to_json().to_string(), "{frame}");
    }
    assert_eq!(refused, 9);
}
