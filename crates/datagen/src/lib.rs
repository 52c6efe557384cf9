//! Synthetic transaction-log generator — the stand-in for eBay's proprietary
//! datasets (Table 2: eBay-small/large/xlarge).
//!
//! The generator is a small world model of an e-commerce platform:
//!
//! * **Buyers** own payment tokens, emails and shipping addresses, and
//!   execute mostly-benign transactions against their own entities.
//! * **Fraud mechanisms** are *planted* on top (§1 and §5.2 of the paper
//!   motivate each): stolen payment tokens, shared warehouse drop addresses,
//!   cultivated fraud rings, and anonymous guest checkouts.
//! * **Transaction features** mimic the upstream "risk identification
//!   system": a handful of dimensions carry a noisy view of the latent risk,
//!   the rest are noise — so features alone are informative but the *graph*
//!   (shared risky entities) adds real signal, which is exactly the premise
//!   of the paper.
//!
//! [`build_dataset`] then applies the Appendix-B construction protocol
//! (entity sharing → links, label sampling with benign down-sampling to the
//! published ≈4.3 % fraud share, small-neighbourhood filtering) and returns a
//! [`Dataset`]: the [`xfraud_hetgraph::HetGraph`] plus per-node ground-truth
//! risk involvement, which the explainer experiments use to simulate human
//! annotators.
//!
//! Presets [`DatasetPreset::EbaySmallSim`] / `EbayLargeSim` / `EbayXlargeSim`
//! reproduce the published node-type mix, sparsity and fraud rate at laptop
//! scale.

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

mod config;
mod construct;
mod dataset;
mod features;
mod generator;
mod ondisk;
mod records;
mod stream;
mod streamgen;

pub use config::{DatasetPreset, WorldConfig};
pub use construct::build_dataset;
pub use dataset::Dataset;
pub use features::gaussian;
pub use generator::generate_log;
pub use ondisk::{open_feature_store, stream_dataset_to_dir, BuildStats, OnDiskDataset};
pub use records::{FraudMechanism, TxnRecord};
pub use stream::{event_stream, flatten_events, TxnArrival};
pub use streamgen::{
    pool_sizes, record_features, record_label, scaled_large_config, stream_records, PoolSizes,
    StreamRecord,
};
