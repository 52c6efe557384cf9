use std::fmt;

use crate::types::NodeType;

/// Errors from graph construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    UnknownNode(usize),
    /// An edge was requested between two types the schema forbids
    /// (both endpoints entities, or both transactions).
    InvalidRelation(NodeType, NodeType),
    /// The feature matrix row count disagrees with the number of txn nodes.
    FeatureRowMismatch {
        txn_nodes: usize,
        feature_rows: usize,
    },
    /// A label was supplied for a non-transaction node.
    LabelOnEntity(usize),
    /// A streamed-in feature row had the wrong width for this graph.
    FeatureDimMismatch { expected: usize, got: usize },
    /// A streamed-in feature row held NaN or ±Inf at `index`.
    NonFiniteFeature { index: usize },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            GraphError::InvalidRelation(a, b) => {
                write!(f, "no relation allowed between node types {a} and {b}")
            }
            GraphError::FeatureRowMismatch {
                txn_nodes,
                feature_rows,
            } => write!(
                f,
                "feature matrix has {feature_rows} rows but the graph has {txn_nodes} txn nodes"
            ),
            GraphError::LabelOnEntity(id) => {
                write!(f, "node {id} is not a transaction and cannot carry a label")
            }
            GraphError::FeatureDimMismatch { expected, got } => {
                write!(
                    f,
                    "feature row has {got} values but the graph expects {expected}"
                )
            }
            GraphError::NonFiniteFeature { index } => {
                write!(f, "feature {index} of the row is not finite")
            }
        }
    }
}

impl std::error::Error for GraphError {}
