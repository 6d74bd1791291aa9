//! [`RemoteBackend`]: the wire-protocol implementation of
//! [`ExecutionBackend`] — a Palm worker behind a TCP socket.
//!
//! The backend speaks exactly the `palm-server` frame protocol: one
//! newline-delimited JSON request, one response.  A deadline is conveyed
//! twice, deliberately: as the protocol's `deadline_ms` member, which the
//! frame already carries when it gets here (so the *worker* stops
//! computing and answers `deadline_exceeded` with partial cost), and as a
//! socket read timeout that runs out a small grace after the deadline's
//! instant, however late the read starts (so a worker that died mid-request
//! surfaces as [`BackendError::Unavailable`] shortly after the deadline
//! instead of hanging the coordinator).
//!
//! A call is split in two ([`ExecutionBackend::start_frame`]): the frame is
//! written at once and the reply read when the caller asks for it, so a
//! coordinator that writes to every shard before it reads from any has them
//! compute at once from its one thread.
//!
//! Overload sheds are absorbed here through the client's
//! `retry_after_ms`-honoring retry loop; only when the retry budget is
//! exhausted does the shed propagate — as the worker's own structured
//! `overloaded` response, because a shed is a service condition, not a
//! transport failure.

use std::time::{Duration, Instant};

use coconut_core::backend::{BackendError, ExecutionBackend, Finish};
use coconut_core::palm::{PalmResponse, ERROR_KIND_OVERLOADED};
use parking_lot::Mutex;

use crate::client::{CallError, PalmClient, RetryPolicy};

/// Extra read-timeout slack past the protocol deadline: enough for the
/// worker's deadline reply to cross the wire, far less than a hang.
const DEADLINE_GRACE: Duration = Duration::from_millis(250);

/// Read timeout for calls without a deadline.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Shortest read timeout a call is given: a reply that arrived while the
/// caller was busy elsewhere is still read once the deadline has passed.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);

/// A Palm worker reached over TCP.  Reconnects lazily: a transport
/// failure poisons the cached connection, and the next call dials anew —
/// so one crashed request does not permanently fail the shard.
pub struct RemoteBackend {
    addr: String,
    policy: RetryPolicy,
    connection: Mutex<Option<PalmClient>>,
}

impl RemoteBackend {
    /// A backend for the worker at `addr` with the default retry policy.
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// A backend with an explicit overload retry policy.
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        RemoteBackend {
            addr: addr.into(),
            policy,
            connection: Mutex::new(None),
        }
    }

    /// The worker address this backend dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Reads the reply to `frame`, already sent on `client`, retrying sheds.
    /// After an `Err` the connection may be out of step (its next frame
    /// need not answer the next request), so only an `Ok` keeps it.
    fn receive(
        &self,
        client: &mut PalmClient,
        frame: &str,
        deadline: Option<Instant>,
    ) -> Result<PalmResponse, BackendError> {
        let read_timeout = match deadline.and_then(|at| at.checked_add(DEADLINE_GRACE)) {
            Some(give_up) => give_up
                .saturating_duration_since(Instant::now())
                .max(MIN_READ_TIMEOUT),
            None => IDLE_READ_TIMEOUT,
        };
        if client.set_read_timeout(read_timeout).is_err() {
            return Err(BackendError::Unavailable(format!(
                "worker {}: stale connection",
                self.addr
            )));
        }
        match client.receive_with_retry(frame, &self.policy) {
            Ok(response) => Ok(response),
            Err(CallError::RetriesExhausted {
                last_retry_after_ms,
                attempts,
                ..
            }) => {
                // The worker is alive but shedding; report its overload as
                // the structured service answer the caller would have seen
                // without the retry layer.
                Ok(PalmResponse::Error {
                    kind: ERROR_KIND_OVERLOADED.to_string(),
                    message: format!(
                        "worker {} still overloaded after {attempts} attempts",
                        self.addr
                    ),
                    partial_cost: None,
                    retry_after_ms: last_retry_after_ms,
                    shard_costs: None,
                })
            }
            Err(CallError::Protocol(why)) => Err(BackendError::Protocol(format!(
                "worker {}: {why}",
                self.addr
            ))),
            Err(CallError::Io(e)) => Err(BackendError::Unavailable(format!(
                "worker {}: {e}",
                self.addr
            ))),
        }
    }
}

impl ExecutionBackend for RemoteBackend {
    fn describe(&self) -> String {
        format!("worker {}", self.addr)
    }

    fn execute_frame(
        &self,
        frame: &str,
        deadline: Option<Duration>,
    ) -> Result<PalmResponse, BackendError> {
        let deadline = deadline.and_then(|limit| Instant::now().checked_add(limit));
        self.start_frame(frame, deadline)()
    }

    /// Locks the connection, writes `frame` and returns the read of its
    /// reply, which holds the lock until it is done.  In flight, the
    /// connection belongs to the call rather than to the backend: a call
    /// dropped unfinished closes it, and so does any failed one; the next
    /// call dials anew instead of reading a reply meant for another.
    fn start_frame<'a>(&'a self, frame: &'a str, deadline: Option<Instant>) -> Finish<'a> {
        let mut slot = self.connection.lock();
        let sent = match slot.take() {
            Some(client) => Ok(client),
            None => PalmClient::connect(&self.addr)
                .map_err(|e| BackendError::Unavailable(format!("connect {}: {e}", self.addr))),
        }
        .and_then(|mut client| {
            client
                .send(frame)
                .map(|()| client)
                .map_err(|e| BackendError::Unavailable(format!("worker {}: {e}", self.addr)))
        });
        Box::new(move || {
            let mut client = sent?;
            let outcome = self.receive(&mut client, frame, deadline);
            if outcome.is_ok() {
                *slot = Some(client);
            }
            outcome
        })
    }
}
