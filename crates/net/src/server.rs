//! The TCP front-end: acceptor, per-connection loops, admission control
//! and graceful shutdown.  See DESIGN.md, "Palm over the wire".

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coconut_core::palm::{
    PalmResponse, PalmServer, ERROR_KIND_MALFORMED, ERROR_KIND_OVERLOADED, ERROR_KIND_SHUTTING_DOWN,
};
use coconut_json::ToJson;
use coconut_parallel::CancelToken;
use parking_lot::Mutex;

use crate::frame::{
    write_frame, write_frame_while, FrameOutcome, FrameReader, DEFAULT_MAX_FRAME_BYTES,
};

/// What the front-end needs from the thing it serves.  [`PalmServer`]
/// is the original implementation; the coordinator implements it too, so
/// one acceptor/admission/shutdown machine fronts both a worker and a
/// whole shard fleet.
pub trait RequestHandler: Send + Sync + 'static {
    /// Handles one request frame (UTF-8 JSON bytes) to a JSON response
    /// string, under the given cancellation token.
    fn handle_json_bytes(&self, request: Vec<u8>, cancel: &CancelToken) -> String;

    /// Notes a request shed by admission control (for the `stats` verb).
    fn note_shed(&self);

    /// Persists whatever the handler owns during graceful shutdown;
    /// returns how many indexes were synced.
    fn sync_all(&self) -> Result<usize, String>;
}

impl RequestHandler for PalmServer {
    fn handle_json_bytes(&self, request: Vec<u8>, cancel: &CancelToken) -> String {
        PalmServer::handle_json_bytes(self, request, cancel)
    }

    fn note_shed(&self) {
        PalmServer::note_shed(self);
    }

    fn sync_all(&self) -> Result<usize, String> {
        PalmServer::sync_all(self)
    }
}

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Admission bound on concurrently executing requests; the excess is
    /// shed with an `overloaded` error.
    pub max_in_flight: usize,
    /// Admission bound on the total payload bytes of admitted requests.
    pub max_queued_bytes: usize,
    /// Per-frame size cap; an oversized frame gets a `malformed_request`
    /// error and its connection is closed (the stream cannot resync).
    pub max_frame_bytes: usize,
    /// Deadline applied to every request that does not carry its own
    /// `deadline_ms` (which can only tighten, never extend, this bound).
    pub default_deadline_ms: Option<u64>,
    /// Retry hint attached to `overloaded` errors.
    pub retry_after_ms: u64,
    /// How long [`NetServer::shutdown`] waits for in-flight requests
    /// before cancelling them.
    pub drain_deadline: Duration,
    /// Socket read and write timeout: the granularity at which idle
    /// connections, and connections whose client stopped reading their
    /// replies, notice a shutdown.
    pub read_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_in_flight: 64,
            max_queued_bytes: 64 << 20,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline_ms: None,
            retry_after_ms: 25,
            drain_deadline: Duration::from_millis(5000),
            read_poll: Duration::from_millis(50),
        }
    }
}

/// What [`NetServer::shutdown`] observed; lets callers (and the CI bench)
/// assert a clean exit.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Whether every in-flight request finished within the drain deadline
    /// (when `false`, the stragglers were cancelled via the kill token).
    pub drained: bool,
    /// Requests still executing when the drain deadline expired.
    pub cancelled_in_flight: usize,
    /// Connection threads that failed to exit within the join grace
    /// period.  Always `0` on a healthy shutdown.
    pub leaked_threads: usize,
    /// Indexes synced to durable storage after the last request.
    pub synced_indexes: usize,
    /// Error from [`PalmServer::sync_all`], if syncing failed.
    pub sync_error: Option<String>,
}

impl ShutdownReport {
    /// A shutdown is clean when nothing leaked and every index synced.
    pub fn is_clean(&self) -> bool {
        self.leaked_threads == 0 && self.sync_error.is_none()
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

struct Shared<H: RequestHandler> {
    handler: Arc<H>,
    config: ServerConfig,
    state: AtomicU8,
    in_flight: AtomicUsize,
    queued_bytes: AtomicUsize,
    /// Shared kill flag: every request token derives from it, so tripping
    /// it cancels all in-flight engine work at the next phase boundary.
    kill: CancelToken,
}

impl<H: RequestHandler> Shared<H> {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// Admission control: reserves an in-flight slot and the request's
    /// bytes, or returns `None` (shed).  The reservation is released when
    /// the returned guard drops — after the response has been computed.
    fn try_admit(&self, bytes: usize) -> Option<Admit<'_, H>> {
        let in_flight = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if in_flight >= self.config.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        let queued = self.queued_bytes.fetch_add(bytes, Ordering::AcqRel);
        if queued + bytes > self.config.max_queued_bytes {
            self.queued_bytes.fetch_sub(bytes, Ordering::AcqRel);
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Admit {
            shared: self,
            bytes,
        })
    }
}

/// RAII release of an admission reservation.
struct Admit<'a, H: RequestHandler> {
    shared: &'a Shared<H>,
    bytes: usize,
}

impl<H: RequestHandler> Drop for Admit<'_, H> {
    fn drop(&mut self) {
        self.shared
            .queued_bytes
            .fetch_sub(self.bytes, Ordering::AcqRel);
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running TCP front-end over a shared [`RequestHandler`] — a
/// [`PalmServer`] by default, or a coordinator fronting a shard fleet.
///
/// The acceptor and every connection run on their own threads;
/// [`NetServer::shutdown`] drains, cancels, joins and syncs (see
/// [`ShutdownReport`]).
pub struct NetServer<H: RequestHandler = PalmServer> {
    shared: Arc<Shared<H>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<H: RequestHandler> NetServer<H> {
    /// Binds `config.addr` and starts accepting connections, serving
    /// requests through `handler`.
    pub fn spawn(handler: Arc<H>, config: ServerConfig) -> std::io::Result<NetServer<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            config,
            state: AtomicU8::new(STATE_RUNNING),
            in_flight: AtomicUsize::new(0),
            queued_bytes: AtomicUsize::new(0),
            kill: CancelToken::new(),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served handler (e.g. to read its stats in-process).
    pub fn handler(&self) -> &Arc<H> {
        &self.shared.handler
    }

    /// Requests currently admitted and executing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Gracefully shuts the server down:
    ///
    /// 1. stop admitting — new connections are told `shutting_down`;
    /// 2. wait for in-flight requests up to the drain deadline;
    /// 3. cancel stragglers through the shared kill token (they answer
    ///    `deadline_exceeded` with partial cost);
    /// 4. join the acceptor and every connection thread;
    /// 5. sync all registered indexes to durable storage.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.state.store(STATE_DRAINING, Ordering::SeqCst);
        let drain_until = Instant::now() + self.shared.config.drain_deadline;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(2));
        }
        let cancelled_in_flight = self.shared.in_flight.load(Ordering::SeqCst);
        let drained = cancelled_in_flight == 0;
        self.shared.kill.cancel();
        self.shared.state.store(STATE_STOPPED, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads notice `STATE_STOPPED` within one read poll
        // (and cancelled engine work unwinds at its next phase boundary),
        // so a healthy thread exits quickly; anything still running after
        // the grace period is reported as leaked rather than waited on
        // forever.
        let grace = self.shared.config.read_poll * 4 + Duration::from_millis(2000);
        let grace_until = Instant::now() + grace;
        let handles = std::mem::take(&mut *self.connections.lock());
        while Instant::now() < grace_until && handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut leaked_threads = 0;
        for handle in handles {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                leaked_threads += 1;
            }
        }
        let (synced_indexes, sync_error) = match self.shared.handler.sync_all() {
            Ok(n) => (n, None),
            Err(e) => (0, Some(e)),
        };
        ShutdownReport {
            drained,
            cancelled_in_flight,
            leaked_threads,
            synced_indexes,
            sync_error,
        }
    }
}

impl NetServer<PalmServer> {
    /// The served [`PalmServer`] (kept for callers that predate the
    /// [`RequestHandler`] seam).
    pub fn palm(&self) -> &Arc<PalmServer> {
        self.handler()
    }
}

fn error_payload(kind: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    PalmResponse::Error {
        kind: kind.to_string(),
        message: message.to_string(),
        partial_cost: None,
        retry_after_ms,
        shard_costs: None,
    }
    .to_json()
    .to_string()
}

fn accept_loop<H: RequestHandler>(
    listener: &TcpListener,
    shared: &Arc<Shared<H>>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match shared.state() {
            STATE_STOPPED => return,
            state => match listener.accept() {
                Ok((mut stream, _peer)) => {
                    if state == STATE_DRAINING {
                        // Refuse politely: a structured reply, not a
                        // silent RST, so clients can tell load shedding
                        // from shutdown.
                        let payload = error_payload(
                            ERROR_KIND_SHUTTING_DOWN,
                            "server is shutting down",
                            None,
                        );
                        let _ = write_frame(&mut stream, payload.as_bytes());
                        continue;
                    }
                    let handle = {
                        let shared = Arc::clone(shared);
                        std::thread::spawn(move || serve_connection(&shared, stream))
                    };
                    let mut handles = connections.lock();
                    handles.retain(|h| !h.is_finished());
                    handles.push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            },
        }
    }
}

fn serve_connection<H: RequestHandler>(shared: &Shared<H>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_poll));
    // A reply to a client that stopped reading blocks once the socket
    // buffers fill; the timeout lets the writer see a shutdown.
    let _ = stream.set_write_timeout(Some(shared.config.read_poll));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = FrameReader::new(read_half, shared.config.max_frame_bytes);
    loop {
        match reader.read_frame() {
            FrameOutcome::Timeout => {
                // No frame in flight: poll the shutdown state.  Idle
                // connections close during drain so shutdown never waits
                // on a silent client.
                if shared.state() != STATE_RUNNING {
                    return;
                }
            }
            FrameOutcome::Eof { .. } => return,
            FrameOutcome::Io(_) => return,
            FrameOutcome::TooLarge { limit } => {
                // The rest of the oversized line is unread: the stream
                // cannot be resynchronized, so reply and close.
                let payload = error_payload(
                    ERROR_KIND_MALFORMED,
                    &format!("frame exceeds the {limit}-byte limit"),
                    None,
                );
                let _ = write_frame(&mut writer, payload.as_bytes());
                return;
            }
            FrameOutcome::Frame(frame) => {
                if shared.state() != STATE_RUNNING {
                    let payload =
                        error_payload(ERROR_KIND_SHUTTING_DOWN, "server is shutting down", None);
                    let _ = write_frame(&mut writer, payload.as_bytes());
                    return;
                }
                let response = match shared.try_admit(frame.len()) {
                    None => {
                        shared.handler.note_shed();
                        error_payload(
                            ERROR_KIND_OVERLOADED,
                            "request shed by admission control",
                            Some(shared.config.retry_after_ms),
                        )
                    }
                    Some(admit) => {
                        let cancel = match shared.config.default_deadline_ms {
                            Some(ms) => shared
                                .kill
                                .with_deadline(Instant::now() + Duration::from_millis(ms)),
                            None => shared.kill.clone(),
                        };
                        let response = shared.handler.handle_json_bytes(frame, &cancel);
                        drop(admit);
                        response
                    }
                };
                // Still delivered while draining; dropped once stopped.
                let delivering = || shared.state() != STATE_STOPPED;
                if write_frame_while(&mut writer, response.as_bytes(), delivering).is_err() {
                    return;
                }
            }
        }
    }
}

impl<H: RequestHandler> Drop for NetServer<H> {
    fn drop(&mut self) {
        // A dropped (not shut down) server still stops its threads so
        // tests cannot leak acceptors; `shutdown` is the orderly path.
        self.shared.kill.cancel();
        self.shared.state.store(STATE_STOPPED, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in std::mem::take(&mut *self.connections.lock()) {
            let _ = handle.join();
        }
    }
}
