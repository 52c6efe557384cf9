//! Serial graph kernels over a flat CSR.
//!
//! PageRank, k-core peeling and the shortest-path pass behind every
//! centrality the explainer computes ([`ShortestPaths`], with Brandes
//! [`betweenness`] on top), implemented against [`FlatCsr`], a 32-bit
//! target arena built either from any `hetgraph::GraphView` (live snapshots
//! included) or from an edge list (the explainer's communities and their
//! line graphs).
//!
//! Two properties hold for every kernel:
//!
//! * **Determinism.** Every sum runs in a fixed order set by the CSR (node
//!   order, then neighbour order). No threads, no clocks, no entropy, no
//!   hash-map iteration anywhere in the crate.
//! * **No panics on bad input.** Oversized graphs, out-of-range endpoints
//!   and invalid configurations come back as [`KernelError`] /
//!   [`ConfigError`] values.
//!
//! Configuration goes through [`KernelConfig::builder`] — a validating
//! builder whose `build()` is the only path to a non-default config.

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

mod bc;
mod config;
mod error;
mod flat;
mod kcore;
mod pr;

pub use bc::{betweenness, ShortestPaths, UNREACHED};
pub use config::{ConfigError, KernelConfig, KernelConfigBuilder};
pub use error::KernelError;
pub use flat::FlatCsr;
pub use kcore::core_numbers;
pub use pr::pagerank;
