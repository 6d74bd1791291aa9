//! Palm over the wire: a TCP front-end for the algorithms server.
//!
//! The paper's demo serves its GUI over REST (Section 4); this crate is
//! the reproduction's network boundary.  Requests are newline-delimited
//! JSON frames — exactly the [`coconut_core::palm`] protocol, one object
//! per line — dispatched onto a shared
//! [`PalmServer`](coconut_core::palm::PalmServer).  Four robustness
//! layers sit between the socket and the index:
//!
//! * **admission control** — bounded in-flight requests and queued
//!   payload bytes; the excess is shed with a structured `overloaded`
//!   error carrying a `retry_after_ms` hint, *before* the JSON is parsed;
//! * **deadlines** — a per-request `deadline_ms` (or a server-wide
//!   default) propagates as a cooperative
//!   [`CancelToken`](coconut_parallel::CancelToken) polled by the query
//!   engine at phase boundaries, answering `deadline_exceeded` with the
//!   partial query cost;
//! * **graceful shutdown** — [`NetServer::shutdown`] drains in-flight
//!   work up to a deadline, refuses new connections with
//!   `shutting_down`, cancels stragglers through the shared kill token,
//!   joins every thread and syncs all registered indexes;
//! * **result cache** — enabled on the `PalmServer` itself
//!   (`with_result_cache`), replaying recorded query replies for repeated
//!   request bytes until the write side invalidates them; the net layer
//!   reports hits/misses/shed through the `stats` verb.
//!
//! Malformed input — oversized frames, invalid UTF-8, half-closed
//! sockets, non-JSON lines — never panics and never leaks a worker: each
//! case answers a structured `malformed_request` error or closes the
//! connection cleanly (see the crate's integration tests).

pub mod backend;
pub mod client;
pub mod config;
pub mod coordinator;
pub mod frame;
pub mod server;

pub use backend::RemoteBackend;
pub use client::{CallError, PalmClient, RetryPolicy};
pub use config::{coord_env, server_env, ConfigError, CoordEnv, ServerEnv};
pub use coordinator::Coordinator;
pub use frame::{write_frame, FrameOutcome, FrameReader, DEFAULT_MAX_FRAME_BYTES};
pub use server::{NetServer, RequestHandler, ServerConfig, ShutdownReport};
