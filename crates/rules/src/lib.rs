//! Rule mining on tabular transaction features — the production stage that
//! runs *before* the GNN.
//!
//! The paper's pipeline (Appendix B/H) filters the raw stream with "simple
//! rules ... already implemented in the eBay transaction platforms" (fraud
//! rate 0.016 % → 0.043 %), and the business unit consumes explanations
//! through a rule system (footnote 6: skope-rules). This crate implements a
//! small skope-rules-style miner:
//!
//! 1. candidate generation — axis-aligned threshold literals
//!    (`feature_j ≥ t` / `feature_j ≤ t`) scored at quantile cut-points;
//! 2. conjunction growth — the best literals are combined into depth-≤2
//!    AND-rules;
//! 3. selection — rules are kept if they reach a precision and support
//!    floor on the training split, then deduplicated by greedy cover.
//!
//! [`RuleSet::filter`] reproduces the paper's pre-filtering semantics:
//! transactions matched by *no* rule are "low-risk" and can be dropped
//! before the expensive GNN stage, trading a bounded recall loss for a much
//! smaller candidate stream (the Appendix-H.4 arithmetic).

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

mod miner;
mod rule;

pub use miner::{MinerConfig, RuleMiner};
pub use rule::{Literal, Op, Rule, RuleSet};
