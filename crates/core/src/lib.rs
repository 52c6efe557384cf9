//! # xFraud — explainable fraud transaction detection (Rust reproduction)
//!
//! A from-scratch reproduction of *"xFraud: Explainable Fraud Transaction
//! Detection"* (Rao et al., PVLDB 15(3), VLDB 2021): a heterogeneous-GNN
//! **detector** scoring transactions for fraud, and a hybrid **explainer**
//! combining GNNExplainer masks with graph centrality measures.
//!
//! This crate is the front door: it re-exports every subsystem and offers
//! the end-to-end [`Pipeline`] of the paper's Fig. 2 plus the
//! community-annotation [`study`] used by the explainer evaluation (§5).
//!
//! ```no_run
//! use xfraud::{Pipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), xfraud::Error> {
//! let cfg = PipelineConfig::builder().epochs(8).build()?;
//! let pipeline = Pipeline::run(cfg)?;
//! let (auc, ap, acc) = pipeline.test_metrics();
//! println!("test AUC = {auc:.4}, AP = {ap:.4}, accuracy = {acc:.4}");
//!
//! // Freeze the detector behind the online scoring engine (micro-batching
//! // + subgraph/score caches; bit-identical to `score_transaction`).
//! let engine = pipeline.serving_engine().build()?;
//! let scores = engine.score(&pipeline.test_nodes[..4])?;
//! # let _ = scores; Ok(()) }
//! ```
//!
//! Subsystem map (one crate per substrate the paper depends on):
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`tensor`] | `xfraud-tensor` | autodiff substrate |
//! | [`hetgraph`] | `xfraud-hetgraph` | §3.1 graph construction |
//! | [`datagen`] | `xfraud-datagen` | Table 2 datasets (simulated) |
//! | [`nn`] | `xfraud-nn` | layers/AdamW (Appendix C) |
//! | [`gnn`] | `xfraud-gnn` | §3.2 detector(+), baselines, samplers |
//! | [`explain`] | `xfraud-explain` | §3.4/§5 explainers |
//! | [`kvstore`] | `xfraud-kvstore` | §3.3.3 data loading |
//! | [`diskstore`] | `xfraud-diskstore` | §3.3.3 out-of-core storage (mmap block store) |
//! | [`ingest`] | `xfraud-ingest` | streaming ingestion + WAL replay |
//! | [`dist`] | `xfraud-dist` | §3.3 distributed training |
//! | [`metrics`] | `xfraud-metrics` | §4 evaluation |
//! | [`serve`] | `xfraud-serve` | §3.3 online near-real-time scoring |

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

pub use xfraud_datagen as datagen;
pub use xfraud_diskstore as diskstore;
pub use xfraud_dist as dist;
pub use xfraud_explain as explain;
pub use xfraud_gnn as gnn;
pub use xfraud_hetgraph as hetgraph;
pub use xfraud_ingest as ingest;
pub use xfraud_kernels as kernels;
pub use xfraud_kvstore as kvstore;
pub use xfraud_metrics as metrics;
pub use xfraud_netserve as netserve;
pub use xfraud_nn as nn;
pub use xfraud_rules as rules;
pub use xfraud_serve as serve;
pub use xfraud_tensor as tensor;

mod error;
mod pipeline;
pub mod study;

pub use error::{ConfigError, Error};
pub use pipeline::{Pipeline, PipelineConfig, PipelineConfigBuilder};
