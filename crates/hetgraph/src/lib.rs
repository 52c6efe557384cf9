//! Heterogeneous transaction graphs (§3.1 of the xFraud paper).
//!
//! A transaction log is abstracted as a typed graph: transactions (`txn`) are
//! linked to the entities they share — payment tokens (`pmt`), emails
//! (`email`), shipping addresses (`addr`) and buyers (`buyer`). Only `txn`
//! nodes carry input features (computed upstream by a risk identifier) and a
//! fraud/legit label; entity nodes start featureless and acquire
//! representations through message passing.
//!
//! The central type is [`HetGraph`], an immutable CSR-indexed typed graph
//! produced by [`GraphBuilder`]. Supporting types cover what the paper's
//! pipeline needs downstream:
//!
//! * [`Community`] — the connected neighbourhood around a seed transaction,
//!   used by the explainer experiments (§5.1: "a community is formed around a
//!   transaction seed node, where all connected nodes and edges are taken").
//! * [`line_graph`] — the line-graph transform used to turn node centralities
//!   into edge weights (Appendix F).
//! * [`GraphStats`] — the Table 2/5/6 statistics.

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

mod builder;
mod community;
mod csr;
mod delta;
mod epoch;
mod error;
mod external;
mod graph;
mod line;
mod stats;
mod types;
mod view;

pub use builder::GraphBuilder;
pub use community::{community_of, khop_neighborhood, Community};
pub use csr::{Csr, FeatureIndex};
pub use delta::{DeltaGraph, GraphEvent};
pub use epoch::{EpochCell, Pinned};
pub use error::GraphError;
pub use external::{ExternalFeatureGraph, FeatureSource};
pub use graph::{EdgeRef, HetGraph};
pub use line::{line_graph, LineGraph};
pub use stats::GraphStats;
pub use types::{EdgeType, NodeId, NodeType, ALL_EDGE_TYPES, ALL_NODE_TYPES};
pub use view::{EdgesOf, GraphSnapshot, GraphView, GraphViewExt, Neighbors};

pub type Result<T> = std::result::Result<T, GraphError>;
