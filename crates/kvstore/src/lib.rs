//! The KV-store data-loading substrate (§3.3.3, Appendix C, Fig. 12/13).
//!
//! The paper stores "all graph-related information" in a lightweight KV
//! store and found the choice decisive: LevelDB's effectively
//! single-threaded access pattern made loading the bottleneck (45 min/epoch
//! on eBay-large), while LMDB's multi-reader design brought it to ~1
//! min/epoch. We reproduce the *contention profile* of that finding with
//! three stores behind one trait:
//!
//! * [`SingleLockStore`] — one global mutex around a `BTreeMap`; every
//!   reader serialises (the LevelDB-like "single threaded KVStore" of
//!   Fig. 12);
//! * [`ShardedStore`] — lock-striped shards with `RwLock`s, so concurrent
//!   readers proceed in parallel (the LMDB-like "multi threaded KVStore" of
//!   Fig. 13);
//! * [`LogStore`] — an append-only file log with an in-memory sharded
//!   index and positional reads, for durability-shaped workloads.
//!
//! [`FeatureStore`] layers the GNN-specific API on top: node features in,
//! dense batch matrices out, with a multi-threaded loader
//! ([`FeatureStore::load_parallel`]) that is what the distributed workers
//! use per §3.3.3 ("each worker has its own data loader").

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

mod feature;
pub mod framing;
mod log_store;
mod stores;

pub use feature::FeatureStore;
pub use log_store::LogStore;
pub use stores::{KvStore, ShardedStore, SingleLockStore};
