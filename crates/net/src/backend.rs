//! [`RemoteBackend`]: the wire-protocol implementation of
//! [`ExecutionBackend`] — a Palm worker behind a TCP socket.
//!
//! The backend speaks exactly the `palm-server` frame protocol: one
//! newline-delimited JSON request, one response.  A deadline is conveyed
//! twice, deliberately: as the protocol's `deadline_ms` member, which the
//! frame already carries when it gets here (so the *worker* stops
//! computing and answers `deadline_exceeded` with partial cost), and as a
//! socket read timeout with a small grace on top (so a worker that died
//! mid-request surfaces as [`BackendError::Unavailable`] shortly after the
//! deadline instead of hanging the coordinator).
//!
//! Overload sheds are absorbed here through the client's
//! `retry_after_ms`-honoring retry loop; only when the retry budget is
//! exhausted does the shed propagate — as the worker's own structured
//! `overloaded` response, because a shed is a service condition, not a
//! transport failure.

use std::time::Duration;

use coconut_core::backend::{BackendError, ExecutionBackend};
use coconut_core::palm::{PalmResponse, ERROR_KIND_OVERLOADED};
use coconut_json::FromJson;
use parking_lot::Mutex;

use crate::client::{CallError, PalmClient, RetryPolicy};

/// Extra read-timeout slack past the protocol deadline: enough for the
/// worker's deadline reply to cross the wire, far less than a hang.
const DEADLINE_GRACE: Duration = Duration::from_millis(250);

/// Read timeout for calls without a deadline.
const IDLE_READ_TIMEOUT: Duration = Duration::from_secs(30);

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

    fn read_timeout(deadline: Option<Duration>) -> Duration {
        match deadline {
            Some(limit) => limit + DEADLINE_GRACE,
            None => IDLE_READ_TIMEOUT,
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
        let mut slot = self.connection.lock();
        if slot.is_none() {
            let client = PalmClient::connect_with_timeout(&self.addr, Self::read_timeout(deadline))
                .map_err(|e| BackendError::Unavailable(format!("connect {}: {e}", self.addr)))?;
            *slot = Some(client);
        }
        let client = slot.as_mut().expect("connection was just ensured");
        if client
            .set_read_timeout(Self::read_timeout(deadline))
            .is_err()
        {
            // The socket is already dead; drop it and let the next call
            // redial rather than failing every future request.
            *slot = None;
            return Err(BackendError::Unavailable(format!(
                "worker {}: stale connection",
                self.addr
            )));
        }
        let outcome = client.call_with_retry(frame, &self.policy);
        match outcome {
            Ok(response_json) => PalmResponse::from_json(&response_json).map_err(|e| {
                BackendError::Protocol(format!("worker {}: bad response: {e}", self.addr))
            }),
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
            Err(CallError::Protocol(why)) => {
                *slot = None;
                Err(BackendError::Protocol(format!(
                    "worker {}: {why}",
                    self.addr
                )))
            }
            Err(CallError::Io(e)) => {
                *slot = None;
                Err(BackendError::Unavailable(format!(
                    "worker {}: {e}",
                    self.addr
                )))
            }
        }
    }
}
