//! # xfraud-netserve — the network-facing scoring service
//!
//! Everything between a TCP socket and the
//! [`ScoringEngine`](xfraud_serve::ScoringEngine): a hand-rolled HTTP/1.1 +
//! JSON front end (the workspace builds offline — no async runtime, no
//! serde), the admission-control stack that keeps it standing under
//! overload, and the blocking client. Load against it is generated by the
//! repo's benchmark (`perf/run.sh`, workloads `wire_cold` and `wire_hot`).
//!
//! The layering, bottom up:
//!
//! - [`json`] — a robust, limit-checked JSON reader/writer whose number
//!   handling preserves `f32` bits across the wire (the foundation of the
//!   network-equivalence guarantee);
//! - [`http`] — incremental HTTP/1.1 request/response framing with typed
//!   errors for every way network bytes can be malformed;
//! - [`proto`] — the `/score` request/response schema and error bodies;
//! - [`quota`] — per-tenant token buckets (the `429` arm of admission);
//! - [`server`] — [`NetServer`]: acceptor + nonblocking workers + blocking
//!   scorer crew, in-flight permits (the `503` arm), deadline reaping,
//!   graceful drain, and detector hot-swap via the shared engine handle;
//!   its threads block in `poll(2)` plus a wake socket (the private
//!   `ready` module) rather than sleeping between sweeps;
//! - [`client`] — [`ScoreClient`], a blocking keep-alive client;
//! - [`metrics`] — the counters `GET /metrics` serves.
//!
//! The contract the test suite pins down: scores fetched over the network
//! are **bit-identical** to `ScoringEngine::score` in-process; malformed
//! bytes cost one typed 4xx response, never a worker or a panic; and no
//! client behaviour — slow-loris drips, half-closed sockets, mid-request
//! disconnects — can leak an in-flight permit.
//!
//! The crate is unix-only: the event loops wait with `poll(2)` on socket
//! descriptors, and there is no portable fallback.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::allow_attributes_without_reason
    )
)]

#[cfg(not(unix))]
compile_error!("xfraud-netserve waits on sockets with poll(2) and builds only on unix targets");

pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod quota;
mod ready;
pub mod server;

pub use client::{ScoreClient, ScoreOutcome};
pub use error::{ClientError, NetServeError};
pub use metrics::{NetMetrics, NetMetricsSnapshot};
pub use proto::{ScoreRequest, ScoreResponse, DEFAULT_TENANT, MAX_IDS_PER_REQUEST};
pub use quota::{QuotaConfig, QuotaSet};
pub use server::{NetServer, ServerConfig};
