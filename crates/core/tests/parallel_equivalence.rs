//! The `parallelism` and `query_parallelism` members of `build_index` are
//! kept only because palmbench names them (ROADMAP 14(b)): every build and
//! every query runs on its caller's thread whatever they say.  A frame that
//! sets them to `0` (once "every core") or `8` writes the index files of the
//! frame that leaves them out, byte for byte, and every query against it
//! gets the same reply, `QueryCost` included, apart from `elapsed_ms`.

use coconut_core::palm::{PalmRequest, PalmServer};
use coconut_core::Dataset;
use coconut_json::ToJson;
use coconut_series::generator::{RandomWalkGenerator, SeriesGenerator};
use coconut_storage::ScratchDir;

const LEN: usize = 256;

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

/// `(relative path, bytes)` of every file under `dir`, in path order.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().to_string_lossy();
                out.push((name.into_owned(), std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

/// Builds index `a` from a `build_index` frame ending in `members` on a
/// fresh server in `dir/tag`, sends `queries`, and returns the index files
/// and the replies (build reply first), `elapsed_ms` blanked.
fn serve(
    dir: &ScratchDir,
    tag: &str,
    head: &str,
    members: &str,
    queries: &[String],
) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let work = dir.file(tag);
    let server = PalmServer::new(&work);
    let mut replies = vec![server.handle_json(&format!("{head}{members}}}"))];
    assert!(replies[0].contains("\"type\":\"built\""), "{}", replies[0]);
    replies.extend(queries.iter().map(|q| server.handle_json(q)));
    server.sync_all().unwrap();
    let replies = replies.iter().map(|r| blank_elapsed(r)).collect();
    (files(&work), replies)
}

/// A frame naming both members, at `0` and at `8`, builds and answers
/// exactly as the frame that names neither, whose index holds a file named
/// with `marker`.
fn check(variant: &str, extra: &str, marker: &str) {
    let dir = ScratchDir::new(&format!("worker-members-{variant}")).unwrap();
    let series = RandomWalkGenerator::new(LEN, 17).generate(4000);
    let path = dir.file("raw.bin");
    Dataset::create_from_series(&path, &series).unwrap();
    let head = format!(
        r#"{{"type":"build_index","name":"a","dataset_path":"{}","variant":"{variant}","materialized":true,"memory_budget_bytes":1048576{extra}"#,
        path.display()
    );
    let mut gen = RandomWalkGenerator::new(LEN, 99);
    let queries: Vec<String> = (0..6)
        .map(|i| {
            let request = PalmRequest::Query {
                name: "a".into(),
                query: gen.next_series().values,
                k: 5,
                exact: i % 3 != 2,
            };
            request.to_json().to_string()
        })
        .collect();
    let (default_files, default_replies) = serve(&dir, "default", &head, "", &queries);
    assert!(
        default_files.iter().any(|(name, _)| name.contains(marker)),
        "{variant}: no {marker} file"
    );
    for reply in &default_replies[1..] {
        assert!(reply.contains("\"cost\":"), "{reply}");
    }
    for workers in [0, 8] {
        let members = format!(r#","parallelism":{workers},"query_parallelism":{workers}"#);
        let (got_files, got_replies) =
            serve(&dir, &format!("w{workers}"), &head, &members, &queries);
        let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&got_files),
            names(&default_files),
            "{variant} at {workers}"
        );
        for ((name, got), (_, want)) in got_files.iter().zip(&default_files) {
            assert!(got == want, "{variant} at {workers}: file {name} differs");
        }
        assert_eq!(got_replies, default_replies, "{variant} at {workers}");
    }
}

/// A spilling CTree build: the sort writes and merges several runs before
/// the leaves are packed.
#[test]
fn ctree_parallel_build_is_byte_identical_and_answers_match() {
    check("CTree", "", "ctree-leaves");
}

/// A CLSM build whose compaction splits a level into 4 key-range shards.
#[test]
fn clsm_parallel_build_answers_match() {
    check("Clsm", r#","shard_count":4"#, "-s003.run");
}
