//! The xFraud explainer (§3.4, §5, Appendices D–G).
//!
//! Three families of edge-importance estimators, plus the machinery to
//! compare them against (simulated) human annotations:
//!
//! * [`GnnExplainer`] — the task-aware learner of Appendix D: optimises a
//!   per-edge mask and a per-node feature mask against the *frozen* detector
//!   with size and entropy regularisers (eq. 11–13).
//! * [`centrality`] — the task-agnostic measures of Table 1: edge
//!   betweenness and edge load on the community graph, and eleven node
//!   centralities computed on its line graph (Appendix F).
//! * [`HybridExplainer`] — the learned combination `A·w(c) + B·w(e)` via
//!   ridge regression or grid search (§3.4.2, Appendix F).
//!
//! Evaluation plumbing:
//!
//! * [`annotate`] — five simulated expert annotators producing node
//!   importance in {0,1,2}, calibrated to the paper's inter-annotator
//!   agreement (~0.53 vs ~0.0 for random), plus the avg/sum/min node→edge
//!   aggregations of Appendix E;
//! * [`topk_hit_rate`] — the agreement metric, with ties broken by
//!   averaging 100 random draws exactly as Appendix E prescribes;
//! * [`viz`] — Graphviz DOT renderings of communities with edge weights
//!   (the Fig. 6/11/16/17 case-study pictures).

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

pub mod annotate;
pub mod centrality;
mod featmask;
mod gnnexplainer;
mod hitrate;
mod hybrid;
pub(crate) mod linalg;
pub mod viz;

pub use featmask::FeatureImportance;
pub use gnnexplainer::{EdgeWeights, ExplainerConfig, Explanation, GnnExplainer};
pub use hitrate::{topk_hit_rate, topk_hit_rate_expected};
pub use hybrid::{best_polynomial_degree, minmax, CommunityWeights, HybridExplainer, HybridFit};
