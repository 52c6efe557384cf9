//! Out-of-core storage for paper-scale graphs (§3.3.3, Fig. 12/13).
//!
//! The paper's decisive systems finding is that KV-store architecture
//! dominates epoch time: LevelDB's single-writer lock made feature loading
//! the bottleneck (45 min/epoch on eBay-large) while LMDB's multi-reader
//! `mmap` design cut it to about a minute. The in-RAM stores in
//! `xfraud-kvstore` reproduce that contrast as a lock-contention profile;
//! this crate reproduces it **on real files**:
//!
//! * [`Segment`]/[`SegmentBuilder`] — the immutable block-structured
//!   on-disk format: sorted checked-frame records packed into fixed-target
//!   blocks, a sparse per-block index, and a checksummed footer.
//! * [`Mmap`] — a thin hand-rolled read-only `mmap` wrapper (with an
//!   owned-buffer fallback); see its module docs for the safety argument.
//! * [`DiskStore`] — an LSM-lite store behind the [`BlockStore`] trait
//!   (which extends the [`xfraud_kvstore::KvStore`] contract): WAL +
//!   memtable writes, zero-copy multi-reader gets from mapped segment
//!   pages, crash recovery that drops torn tails but never an acknowledged
//!   write, and deterministic compaction whose output is bit-identical to
//!   a from-scratch build of the same live set.
//!
//! Layer [`xfraud_kvstore::FeatureStore`] over a [`DiskStore`] to serve
//! dense feature batches straight from disk — the out-of-core loader path
//! used by the streaming dataset in `xfraud-datagen`.

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

mod error;
mod mmap;
mod segment;
mod store;

pub use error::StoreError;
pub use mmap::Mmap;
pub use segment::{Segment, SegmentBuilder, FOOTER_LEN};
pub use store::{BlockStore, DiskStore, DiskStoreOptions, RecoveryStats, StorageStats};

pub type Result<T> = std::result::Result<T, StoreError>;
