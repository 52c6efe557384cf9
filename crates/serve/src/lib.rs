//! # xfraud-serve — the online scoring engine
//!
//! The serving half of xFraud's production story: a trained
//! [`XFraudDetector`](xfraud_gnn::XFraudDetector) frozen behind a
//! [`ScoringEngine`] that answers concurrent `score(txn_ids)` calls with
//! micro-batching, duplicate-id coalescing and a two-tier sharded LRU cache
//! (sampled ego-subgraphs + memoised scores), while staying **bit-identical**
//! to the sequential reference [`score_one`] — and therefore to
//! `Pipeline::score_transaction` — for any concurrency, batch size or cache
//! configuration.
//!
//! ```no_run
//! use xfraud_serve::ScoringEngine;
//! use xfraud_gnn::{CommunitySampler, DetectorConfig, XFraudDetector};
//! use xfraud_hetgraph::{GraphBuilder, NodeType};
//!
//! // Two transactions sharing a payment token — the smallest graph with
//! // something to score. Production graphs come from `datagen` or ingest.
//! let mut b = GraphBuilder::new(4);
//! let t0 = b.add_txn([0.4, 0.1, 0.0, 0.2], Some(false));
//! let t1 = b.add_txn([0.9, 0.8, 0.1, 0.7], None);
//! let pmt = b.add_entity(NodeType::Pmt);
//! b.link(t0, pmt).unwrap();
//! b.link(t1, pmt).unwrap();
//! let graph = b.finish().unwrap();
//!
//! let detector = XFraudDetector::new(DetectorConfig::small(graph.feature_dim(), 0));
//! let engine = ScoringEngine::builder(detector, graph, Box::new(CommunitySampler::new(4000)))
//!     .max_batch(64)
//!     .seed(7)
//!     .build()?;
//! let scores = engine.score(&[t0, t1])?;
//! println!("{scores:?}\n{}", engine.metrics());
//! # Ok::<(), xfraud_serve::ServeError>(())
//! ```
//!
//! Operational hooks for the incremental path:
//! [`ScoringEngine::swap_detector`] (weights refreshed, subgraph cache
//! survives), [`ScoringEngine::invalidate_transaction`] (one neighbourhood
//! changed) and [`ScoringEngine::bump_graph_version`] (new graph snapshot).
//! For live traffic, [`ScoringEngine::apply_events`] appends streamed
//! [`GraphEvent`](xfraud_hetgraph::GraphEvent)s to a delta overlay over the
//! frozen base (newly arrived transactions are scoreable immediately) and
//! [`ScoringEngine::compact`] folds the overlay back into an immutable CSR
//! base without perturbing scores.

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

mod cache;
mod engine;
mod error;
mod metrics;

pub use cache::{CacheKey, ShardedLru};
pub use engine::{preload_features, score_one, ScoringEngine, ScoringEngineBuilder, ServeConfig};
pub use error::ServeError;
pub use metrics::{MetricsSnapshot, ServeMetrics};
