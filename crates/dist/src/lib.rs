//! The distributed xFraud detector+ (§3.3, Fig. 5), simulated with threads.
//!
//! The pipeline is exactly the paper's, with "machine" → "worker thread":
//!
//! 1. [`pic_partition`] splits the graph into `n_parts` subgraphs with
//!    Power Iteration Clustering (Lin & Cohen, ICML'10) — §3.3.1;
//! 2. [`group_partitions`] bin-packs the partitions into κ groups of
//!    roughly `⌈|V|/κ⌉` nodes each (footnote 3);
//! 3. [`DdpTrainer`] runs one model replica per worker on its group's
//!    *induced subgraph* (the paper's "restrained field of neighbors" — the
//!    very thing that costs AUC at 16 machines), with synchronous
//!    gradient averaging per step and identical AdamW updates, i.e. the
//!    observable semantics of PyTorch DDP.
//!
//! After every step all replicas hold bit-identical parameters; the unit
//! tests assert it, and [`DdpTrainer::fit`] debug-asserts it each epoch.

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

mod ddp;
mod partition;
mod pic;

pub use ddp::{DdpConfig, DdpEpoch, DdpTrainer};
pub use partition::{
    group_fraud_counts, group_partitions, group_partitions_ratio_aware, partition_sizes,
};
pub use pic::{kmeans_1d, pic_embedding, pic_partition};
