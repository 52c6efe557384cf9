//! Typed kernel failures. Kernels never panic on bad input — oversized
//! graphs and out-of-range endpoints come back as values.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The graph has more nodes than the 32-bit target arena can address.
    TooLarge { n_nodes: usize },
    /// An edge references a node id outside the graph.
    NodeOutOfRange { node: usize, n_nodes: usize },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::TooLarge { n_nodes } => {
                write!(f, "graph with {n_nodes} nodes exceeds the u32 arena limit")
            }
            KernelError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "edge endpoint {node} out of range for {n_nodes} nodes")
            }
        }
    }
}

impl std::error::Error for KernelError {}
