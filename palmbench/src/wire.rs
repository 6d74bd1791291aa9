//! The outside of the system: real `palm-server` / `palm-coord` children and
//! a bench-owned client for their newline-delimited JSON protocol.
//!
//! Requests are formatted by hand and sent as one pre-encoded line, replies
//! are kept as raw lines and parsed after the clock has stopped, so a timed
//! call is one `write` and the `read`s that bring the reply back — nothing of
//! the bench's own encoding or checking is inside a latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use coconut_json::Json;

use crate::oracle::Hit;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// Directory the bench's own executable was built into; the server binaries
/// are built beside it, so one `CARGO_TARGET_DIR` (or the default
/// `palmbench/target`) holds everything a run executes.
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the bench knows its own executable");
    exe.parent()
        .expect("an executable lives in a directory")
        .to_path_buf()
}

/// Builds the real `palm-server` and `palm-coord` (a no-op when fresh) and
/// returns their directory.  Runs before any clock starts.
pub fn build_servers(bench_root: &Path) -> Result<PathBuf, String> {
    let profile = profile_dir();
    let target = profile.parent().expect("target/<profile>/ has a parent");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "coconut-net", "--bins", "--manifest-path"])
        .arg(bench_root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building palm-server/palm-coord failed: {status}"));
    }
    let dir = target.join("release");
    for bin in ["palm-server", "palm-coord"] {
        if !dir.join(bin).is_file() {
            return Err(format!("{} was not built", dir.join(bin).display()));
        }
    }
    Ok(dir)
}

/// A server child.  Killed on drop, so a panic or an early return never
/// leaves a process behind; [`Child::stop`] is the graceful path.
pub struct Child {
    name: &'static str,
    process: std::process::Child,
    stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
}

impl Child {
    /// Starts `bin` with `env`, port 0, and waits for its `listening on`
    /// banner.
    pub fn spawn(
        bin_dir: &Path,
        name: &'static str,
        work_dir: &Path,
        env: &[(&str, String)],
    ) -> Result<Child, String> {
        let mut command = Command::new(bin_dir.join(name));
        command
            .env("PALM_ADDR", "127.0.0.1:0")
            .env("PALM_WORK_DIR", work_dir)
            .env("TMPDIR", work_dir)
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: the closure runs in the forked child before exec and makes
        // one async-signal-safe syscall; it asks the kernel to SIGKILL the
        // child should the bench die without running its destructors.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                Ok(())
            });
        }
        let mut process = command
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let mut stdout = BufReader::new(process.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            _ => None,
        };
        let mut child = Child {
            name,
            process,
            stdout,
            addr: String::new(),
        };
        match addr {
            Some(addr) => {
                child.addr = addr;
                Ok(child)
            }
            None => {
                child.kill();
                Err(format!("{name} printed no banner: {banner:?}"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = format!("/proc/{}/status", self.process.id());
        crate::host::proc_kib(&status, "VmHWM:") as f64 / 1024.0
    }

    /// SIGTERM, then wait: the servers drain, sync every index and exit 0.
    /// Anything else — a non-zero code, a child that has to be killed — is
    /// an unclean exit.
    pub fn stop(mut self) -> Result<(), String> {
        // SAFETY: plain syscall on a pid this process spawned and still owns
        // (it has not been waited on).
        unsafe { kill(self.process.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.process.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} exited with {status}: {}",
                            self.name,
                            rest.trim()
                        ))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!("{} ignored SIGTERM for 20 s", self.name));
                }
                Err(e) => return Err(format!("waiting for {}: {e}", self.name)),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One connection, one request in flight: the closed-loop client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one pre-encoded request line (it ends in `\n`) and reads the
    /// reply line into `reply` (cleared first, newline stripped).  Returns
    /// the client-side wall time in seconds.
    pub fn call(&mut self, request: &str, reply: &mut Vec<u8>) -> Result<f64, String> {
        debug_assert!(request.ends_with('\n'));
        reply.clear();
        let start = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_until(b'\n', reply)
            .map_err(|e| format!("receive: {e}"))?;
        let elapsed = start.elapsed().as_secs_f64();
        if n == 0 || reply.pop() != Some(b'\n') {
            return Err("server closed the connection".to_string());
        }
        Ok(elapsed)
    }

    /// [`Client::call`] for untimed control requests: the parsed reply.
    pub fn ask(&mut self, request: &str) -> Result<Json, String> {
        let mut reply = Vec::new();
        self.call(request, &mut reply)?;
        parse_reply(&reply)
    }
}

pub fn parse_reply(reply: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if json.get("type").and_then(Json::as_str) == Some("error") {
        return Err(format!("error reply: {text}"));
    }
    Ok(json)
}

fn push_values(out: &mut String, values: &[f32]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// A `query` request as a JSON object, without the line terminator.
pub fn query_object(name: &str, query: &[f32], k: usize, exact: bool) -> String {
    let mut out = format!("{{\"type\":\"query\",\"name\":\"{name}\",\"query\":");
    push_values(&mut out, query);
    out.push_str(&format!(",\"k\":{k},\"exact\":{exact}}}"));
    out
}

pub fn query_request(name: &str, query: &[f32], k: usize, exact: bool) -> String {
    query_object(name, query, k, exact) + "\n"
}

/// One `batch` frame around already encoded [`query_object`]s.
pub fn batch_request(objects: &[&str]) -> String {
    format!(
        "{{\"type\":\"batch\",\"requests\":[{}]}}\n",
        objects.join(",")
    )
}

pub fn insert_request(name: &str, series: &[f32], len: usize, timestamp: u64) -> String {
    let mut out = format!("{{\"type\":\"insert\",\"name\":\"{name}\",\"series\":[");
    for (i, one) in series.chunks(len).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_values(&mut out, one);
    }
    out.push_str(&format!("],\"timestamp\":{timestamp}}}\n"));
    out
}

/// `build_index` with every optional knob left to the wire default.
pub fn build_request(
    name: &str,
    dataset: &Path,
    variant: &str,
    materialized: bool,
    memory_budget_bytes: usize,
) -> String {
    format!(
        "{{\"type\":\"build_index\",\"name\":\"{name}\",\"dataset_path\":\"{}\",\"variant\":\"{variant}\",\"materialized\":{materialized},\"memory_budget_bytes\":{memory_budget_bytes}}}\n",
        dataset.display()
    )
}

/// A `recommend` for a static archive of `collection_size` series.
pub fn recommend_request(collection_size: u64, len: usize) -> String {
    format!(
        "{{\"type\":\"recommend\",\"scenario\":{{\"arrival\":\"Static\",\"collection_size\":{collection_size},\"series_len\":{len},\"memory_budget_bytes\":1073741824,\"storage_budget_bytes\":0,\"expected_queries\":100,\"expected_updates\":0,\"small_windows\":false}}}}\n"
    )
}

pub const LIST_REQUEST: &str = "{\"type\":\"list_indexes\"}\n";
pub const STATS_REQUEST: &str = "{\"type\":\"stats\"}\n";

fn numbers(json: &Json, key: &str) -> Result<Vec<f64>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .ok_or_else(|| format!("reply has no '{key}' array"))
}

/// The neighbours of a `query_result`, in reply order.
pub fn hits(reply: &Json) -> Result<Vec<Hit>, String> {
    if reply.get("type").and_then(Json::as_str) != Some("query_result") {
        return Err(format!("not a query_result: {}", reply.to_string()));
    }
    let ids = numbers(reply, "ids")?;
    let d2 = numbers(reply, "squared_distances")?;
    let ts = numbers(reply, "timestamps")?;
    if ids.len() != d2.len() || ids.len() != ts.len() {
        return Err("ids, squared_distances and timestamps differ in length".to_string());
    }
    Ok((0..ids.len())
        .map(|i| Hit {
            d2: d2[i],
            id: ids[i] as u64,
            ts: ts[i] as u64,
        })
        .collect())
}

/// The five `QueryCost` counters of a `query_result`, in declaration order:
/// examined, refined, raw fetches, blocks read, blocks skipped.
pub fn cost(reply: &Json) -> Result<[f64; 5], String> {
    let cost = reply.get("cost").ok_or("reply has no 'cost'")?;
    let mut out = [0.0; 5];
    for (slot, key) in out.iter_mut().zip([
        "entries_examined",
        "entries_refined",
        "raw_fetches",
        "blocks_read",
        "blocks_skipped",
    ]) {
        *slot = number(cost, key)?;
    }
    Ok(out)
}

pub fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply has no number '{key}'"))
}

/// The sub-replies of a `batch_result`.
pub fn batch_replies(reply: &Json) -> Result<&[Json], String> {
    reply
        .get("responses")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a batch_result".to_string())
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
