//! A minimal blocking client for the newline-delimited JSON protocol,
//! used by the coordinator's `RemoteBackend` and the integration tests.
//!
//! [`PalmClient::call_with_retry`] is the admission-aware entry point:
//! when the server sheds a request with an `overloaded` error carrying
//! `retry_after_ms`, the client honors the hint with bounded, jittered
//! retries under a single-flight time budget, and gives up with the
//! typed [`CallError::RetriesExhausted`] instead of looping forever.

use std::io::{Error, ErrorKind, Result};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use coconut_core::palm::{PalmResponse, ERROR_KIND_OVERLOADED};
use coconut_json::FromJson;

use crate::frame::{write_frame, FrameOutcome, FrameReader, DEFAULT_MAX_FRAME_BYTES};

/// How [`PalmClient::call_with_retry`] behaves when the server sheds.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Single-flight wall-clock budget across every attempt and backoff
    /// sleep; once spent, the call gives up even with attempts left.
    pub budget: Duration,
    /// Fallback wait when a shed carries no `retry_after_ms`.
    pub default_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            budget: Duration::from_secs(1),
            default_backoff: Duration::from_millis(25),
        }
    }
}

/// Why an admission-aware call did not produce a response.
#[derive(Debug)]
pub enum CallError {
    /// The transport failed (connect, write, read, malformed frame).
    Io(Error),
    /// The server answered, but with bytes that are not a reply.
    Protocol(String),
    /// Every attempt was shed with `overloaded`; the caller should back
    /// off at its own level (or surface the overload to *its* caller).
    RetriesExhausted {
        /// Attempts actually made before giving up.
        attempts: u32,
        /// Total time spent waiting between attempts.
        waited: Duration,
        /// The server's last `retry_after_ms` hint, if any.
        last_retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Io(e) => write!(f, "transport error: {e}"),
            CallError::Protocol(why) => write!(f, "protocol error: {why}"),
            CallError::RetriesExhausted {
                attempts,
                waited,
                last_retry_after_ms,
            } => write!(
                f,
                "gave up after {attempts} overloaded attempts ({waited:?} waited, last hint {last_retry_after_ms:?})"
            ),
        }
    }
}

impl std::error::Error for CallError {}

impl From<Error> for CallError {
    fn from(e: Error) -> Self {
        CallError::Io(e)
    }
}

/// One connection to a Palm TCP server; issues one request at a time.
pub struct PalmClient {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Deterministic jitter state (an LCG seeded from the local port):
    /// retries from a fleet of clients must not re-arrive in lockstep,
    /// but tests need reproducible bounds, so no clock-derived entropy.
    jitter_state: u64,
}

impl PalmClient {
    /// Connects with a generous read timeout (30 s) so a dead server
    /// surfaces as an error instead of a hang.
    pub fn connect(addr: &str) -> Result<PalmClient> {
        Self::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// [`PalmClient::connect`] with an explicit read timeout — the
    /// coordinator sets this to the per-shard deadline plus grace so a
    /// killed worker surfaces within the deadline, not after 30 s.
    pub fn connect_with_timeout(addr: &str, read_timeout: Duration) -> Result<PalmClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let read_half = stream.try_clone()?;
        let jitter_state = u64::from(stream.local_addr()?.port()) | 1;
        Ok(PalmClient {
            writer: stream,
            reader: FrameReader::new(read_half, DEFAULT_MAX_FRAME_BYTES),
            jitter_state,
        })
    }

    /// Adjusts the read timeout of the live connection.  The reader is a
    /// dup of the writer, so setting it on either half applies to both.
    pub fn set_read_timeout(&self, read_timeout: Duration) -> Result<()> {
        self.writer.set_read_timeout(Some(read_timeout))
    }

    /// Sends one raw JSON request line and returns the raw response line.
    pub fn call(&mut self, request: &str) -> Result<String> {
        self.send(request)?;
        self.receive()
    }

    /// Writes one raw JSON request line; [`PalmClient::receive`] reads its
    /// reply.
    pub fn send(&mut self, request: &str) -> Result<()> {
        write_frame(&mut self.writer, request.as_bytes())
    }

    /// Reads the next raw response line.
    pub fn receive(&mut self) -> Result<String> {
        match self.reader.read_frame() {
            FrameOutcome::Frame(frame) => String::from_utf8(frame)
                .map_err(|_| Error::new(ErrorKind::InvalidData, "response is not UTF-8")),
            FrameOutcome::Timeout => Err(Error::new(ErrorKind::TimedOut, "response timed out")),
            FrameOutcome::Eof { .. } => Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            FrameOutcome::TooLarge { limit } => Err(Error::new(
                ErrorKind::InvalidData,
                format!("response exceeded {limit} bytes"),
            )),
            FrameOutcome::Io(e) => Err(e),
        }
    }

    /// Next jitter factor in `[0.5, 1.0)` — a multiplicative spread that
    /// desynchronizes retry herds without ever *exceeding* the server's
    /// hint (retrying early is wasteful, retrying late is merely polite).
    fn jitter(&mut self) -> f64 {
        // Numerical Recipes' LCG constants; period 2^64 over the state.
        self.jitter_state = self
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.5 + (self.jitter_state >> 11) as f64 / (1u64 << 53) as f64 / 2.0
    }

    /// Sends the request, honoring `overloaded` sheds: waits the server's
    /// jittered `retry_after_ms` hint and tries again, within the
    /// policy's attempt and time budget.  Any *other* response — success
    /// or a different error kind — returns immediately; only overload is
    /// retryable by construction (the request never executed).
    pub fn call_with_retry(
        &mut self,
        request: &str,
        policy: &RetryPolicy,
    ) -> std::result::Result<PalmResponse, CallError> {
        self.send(request)?;
        self.receive_with_retry(request, policy)
    }

    /// The second half of [`PalmClient::call_with_retry`], for a `request`
    /// already sent: reads its reply and, while the server sheds it, sends
    /// it again as the policy allows.  The policy's budget runs from here.
    pub fn receive_with_retry(
        &mut self,
        request: &str,
        policy: &RetryPolicy,
    ) -> std::result::Result<PalmResponse, CallError> {
        let started = Instant::now();
        let mut waited = Duration::ZERO;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let response = PalmResponse::from_text(&self.receive()?)
                .map_err(|e| CallError::Protocol(format!("bad response: {e}")))?;
            let last_hint = match &response {
                PalmResponse::Error {
                    kind,
                    retry_after_ms,
                    ..
                } if kind == ERROR_KIND_OVERLOADED => *retry_after_ms,
                _ => return Ok(response),
            };
            let backoff = last_hint
                .map(Duration::from_millis)
                .unwrap_or(policy.default_backoff)
                .mul_f64(self.jitter());
            let spent = started.elapsed();
            if attempts >= policy.max_attempts.max(1) || spent + backoff > policy.budget {
                return Err(CallError::RetriesExhausted {
                    attempts,
                    waited,
                    last_retry_after_ms: last_hint,
                });
            }
            std::thread::sleep(backoff);
            waited += backoff;
            self.send(request)?;
        }
    }
}
