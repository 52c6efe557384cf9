//! Streaming graph ingestion (the live-graph half of the paper's Appendix
//! H.5 scenario: week-T transactions arriving against a week-T−1 model).
//!
//! The subsystem is event-sourced. A transaction stream is a sequence of
//! [`GraphEvent`]s (new transaction, new entity, link, late label); the live
//! graph is a [`xfraud_hetgraph::DeltaGraph`] — an append-only overlay over
//! a frozen CSR base — built by applying events in order. Durability comes
//! from [`ShardedWal`], a sharded write-ahead log using the same record
//! framing as [`xfraud_kvstore::LogStore`]:
//!
//! * every event is appended to the WAL *before* it is applied;
//! * [`replay_dir`] rebuilds the exact event sequence after a crash,
//!   dropping a torn final record per shard and stopping at the first
//!   sequence gap (an event is durable only if all its predecessors are);
//! * replay-to-offset (`replay_dir(dir, Some(seq))`) supports partial
//!   recovery and point-in-time reconstruction.
//!
//! Because event application is deterministic (ids assigned by arrival
//! order) and `DeltaGraph::compact()` is bit-identical to a from-scratch
//! build, *replaying a full log reproduces the graph exactly* — the
//! property `tests/ingest_replay.rs` pins down.

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

mod codec;
mod error;
mod wal;

pub use codec::{decode_event, encode_event};
pub use error::IngestError;
pub use wal::{replay_dir, ShardedWal, WalReplay};

// Re-exported so WAL producers/consumers need only this crate.
pub use xfraud_hetgraph::{DeltaGraph, GraphEvent};
