use xfraud_tensor::Tensor;

use crate::csr::{Csr, FeatureIndex};
use crate::graph::HetGraph;
use crate::types::{EdgeType, NodeId, NodeType};
use crate::{GraphError, Result};

/// Incremental constructor for [`HetGraph`] (the "graph constructor" stage of
/// the xFraud pipeline, Fig. 2).
///
/// Nodes are appended with [`GraphBuilder::add_txn`] /
/// [`GraphBuilder::add_entity`]; transaction↔entity links with
/// [`GraphBuilder::link`], which stores both directed edges so downstream
/// message passing reaches both endpoints. [`GraphBuilder::finish`] freezes
/// everything into CSR form.
pub struct GraphBuilder {
    feature_dim: usize,
    node_types: Vec<NodeType>,
    labels: Vec<Option<bool>>,
    feature_rows: Vec<f32>,
    txn_row: Vec<Option<usize>>,
    txn_nodes: Vec<NodeId>,
    edge_src: Vec<NodeId>,
    edge_dst: Vec<NodeId>,
    edge_types: Vec<EdgeType>,
}

impl GraphBuilder {
    /// Starts a builder for graphs whose transactions carry `feature_dim`
    /// features (480 for eBay-large/xlarge, 114 for eBay-small).
    pub fn new(feature_dim: usize) -> Self {
        GraphBuilder {
            feature_dim,
            node_types: Vec::new(),
            labels: Vec::new(),
            feature_rows: Vec::new(),
            txn_row: Vec::new(),
            txn_nodes: Vec::new(),
            edge_src: Vec::new(),
            edge_dst: Vec::new(),
            edge_types: Vec::new(),
        }
    }

    /// Pre-allocates for an expected size (keeps big builds realloc-free).
    pub fn with_capacity(feature_dim: usize, nodes: usize, links: usize) -> Self {
        let mut b = GraphBuilder::new(feature_dim);
        b.node_types.reserve(nodes);
        b.labels.reserve(nodes);
        b.txn_row.reserve(nodes);
        b.edge_src.reserve(links * 2);
        b.edge_dst.reserve(links * 2);
        b.edge_types.reserve(links * 2);
        b
    }

    /// Pre-allocates room for `txns` more transactions and their feature
    /// rows. The feature matrix is the graph's largest array and becomes
    /// the graph's own without a copy, so growing it by doubling would both
    /// copy it and keep up to twice its size for the graph's lifetime.
    pub fn reserve_txns(&mut self, txns: usize) {
        self.txn_nodes.reserve(txns);
        self.feature_rows.reserve(txns * self.feature_dim);
    }

    pub fn n_nodes(&self) -> usize {
        self.node_types.len()
    }

    pub fn n_links(&self) -> usize {
        self.edge_src.len() / 2
    }

    /// Adds a transaction node with its risk-identifier features and an
    /// optional supervision label (`None` = in the graph but unlabelled,
    /// like the non-sampled benign transactions of Appendix B).
    ///
    /// # Panics
    /// Panics if the feature slice length differs from the builder's
    /// `feature_dim` — that is a programming error in the generator.
    pub fn add_txn(&mut self, features: impl AsRef<[f32]>, label: Option<bool>) -> NodeId {
        let features = features.as_ref();
        assert_eq!(
            features.len(),
            self.feature_dim,
            "transaction feature length must equal the builder feature_dim"
        );
        let id = self.node_types.len();
        self.node_types.push(NodeType::Txn);
        self.labels.push(label);
        self.txn_row.push(Some(self.txn_nodes.len()));
        self.txn_nodes.push(id);
        self.feature_rows.extend_from_slice(features);
        id
    }

    /// Adds an entity node (payment token, email, address or buyer).
    ///
    /// # Panics
    /// Panics if called with [`NodeType::Txn`]; use [`Self::add_txn`].
    pub fn add_entity(&mut self, ty: NodeType) -> NodeId {
        assert!(ty.is_entity(), "use add_txn for transaction nodes");
        let id = self.node_types.len();
        self.node_types.push(ty);
        self.labels.push(None);
        self.txn_row.push(None);
        id
    }

    /// Links a transaction and an entity (order-insensitive), adding both
    /// directed edges with their relation types.
    ///
    /// The relation of §3.1 is binary ("if a transaction has relation with
    /// another node, we put an edge"), so callers must not link the same
    /// pair twice — the builder does not dedupe, and downstream consumers
    /// (notably the line-graph transform) assume a simple graph.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        let ta = *self.node_types.get(a).ok_or(GraphError::UnknownNode(a))?;
        let tb = *self.node_types.get(b).ok_or(GraphError::UnknownNode(b))?;
        let fwd = EdgeType::between(ta, tb).ok_or(GraphError::InvalidRelation(ta, tb))?;
        self.edge_src.push(a);
        self.edge_dst.push(b);
        self.edge_types.push(fwd);
        self.edge_src.push(b);
        self.edge_dst.push(a);
        self.edge_types.push(fwd.reverse());
        Ok(())
    }

    /// Freezes the builder into an immutable CSR graph.
    pub fn finish(self) -> Result<HetGraph> {
        let n = self.node_types.len();
        let n_txn = self.txn_nodes.len();
        let features =
            Tensor::from_vec(n_txn, self.feature_dim, self.feature_rows).map_err(|_| {
                GraphError::FeatureRowMismatch {
                    txn_nodes: n_txn,
                    feature_rows: usize::MAX,
                }
            })?;
        let outgoing = Csr::build(n, &self.edge_src, &self.edge_dst);
        let mut feature_row = FeatureIndex::with_capacity(n);
        for row in &self.txn_row {
            feature_row.push(*row);
        }
        let g = HetGraph {
            node_types: self.node_types,
            edge_src: self.edge_src,
            edge_dst: self.edge_dst,
            edge_types: self.edge_types,
            outgoing,
            features,
            feature_row,
            txn_nodes: self.txn_nodes,
            labels: self.labels,
        };
        debug_assert!(g.validate(), "builder produced an inconsistent graph");
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_rejects_entity_entity() {
        let mut b = GraphBuilder::new(2);
        let p = b.add_entity(NodeType::Pmt);
        let e = b.add_entity(NodeType::Email);
        assert!(matches!(
            b.link(p, e),
            Err(GraphError::InvalidRelation(_, _))
        ));
    }

    #[test]
    fn link_rejects_unknown_node() {
        let mut b = GraphBuilder::new(2);
        let t = b.add_txn([0.0, 0.0], None);
        assert!(matches!(b.link(t, 99), Err(GraphError::UnknownNode(99))));
    }

    #[test]
    fn link_is_order_insensitive() {
        let mut b = GraphBuilder::new(1);
        let t = b.add_txn([1.0], None);
        let p = b.add_entity(NodeType::Pmt);
        b.link(p, t).unwrap();
        let g = b.finish().unwrap();
        let tys: Vec<_> = g.edges().map(|e| e.ty).collect();
        assert!(tys.contains(&EdgeType::PmtTxn));
        assert!(tys.contains(&EdgeType::TxnPmt));
    }

    #[test]
    #[should_panic(expected = "feature length")]
    fn wrong_feature_length_panics() {
        let mut b = GraphBuilder::new(3);
        b.add_txn([1.0], None);
    }
}
