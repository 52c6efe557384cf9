//! The xFraud detector (§3.2), its efficient variant detector+ (§3.2.3), the
//! GAT and GEM baselines (§4), and the two neighbourhood samplers whose
//! trade-off the paper's Fig. 10 ablates.
//!
//! Model inventory:
//!
//! * [`XFraudDetector`] — L self-attentive heterogeneous convolution layers
//!   ([`HetConvLayer`], eq. 1–10) followed by the tanh→concat→FFN prediction
//!   head of §3.2.1. *detector* vs *detector+* is purely a sampler choice:
//!   [`HgSampler`] (HGT's type-balancing HGSampling) vs [`SageSampler`]
//!   (GraphSAGE uniform k-hop).
//! * [`GatModel`] — homogeneous multi-head additive attention (type-blind).
//! * [`GemModel`] — per-type mean aggregation without attention (the
//!   "vanilla GCN on a heterogeneous graph" the paper uses GEM to stand for);
//!   its cheap convolution is why it wins the inference-latency column of
//!   Table 3.
//!
//! All models implement [`Model`], exposing the mask hooks
//! ([`Masks`]) the GNNExplainer needs: a per-edge mask multiplying messages
//! before aggregation and a node-feature mask multiplying the input features.

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

mod batch;
mod detector;
mod engine;
mod field;
mod gat;
mod gem;
mod hetconv;
mod incremental;
mod infer;
mod model;
mod sampler;
mod train;

pub use batch::SubgraphBatch;
pub use detector::{DetectorConfig, XFraudDetector};
pub use engine::{batch_rng, default_num_workers, mix_seed, streams, BatchEngine};
pub use field::{Field, Fields};
pub use gat::GatModel;
pub use gem::GemModel;
pub use hetconv::HetConvLayer;
pub use incremental::{incremental_study, time_windows, IncrementalConfig, WindowReport};
pub use model::{average_grads, grad_step, predict_scores, train_step, Masks, Model};
pub use sampler::{
    shape_key_of, CommunitySampler, FullGraphSampler, HgSampler, SageSampler, Sampler,
};
pub use train::{train_test_split, EpochStats, TrainConfig, Trainer};
