use xfraud_tensor::Tensor;

use crate::csr::{Csr, FeatureIndex};
use crate::types::{EdgeType, NodeId, NodeType};

/// One directed edge, resolved for convenient pattern matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    pub id: usize,
    pub src: NodeId,
    pub dst: NodeId,
    pub ty: EdgeType,
}

/// An immutable heterogeneous transaction graph.
///
/// Storage is a flat CSR/arena layout (no per-node allocations and no
/// pointer chasing on hot paths):
///
/// * `edge_src/edge_dst/edge_types` — one entry per *directed* edge. Links
///   are stored in both directions so message passing can aggregate into
///   either endpoint. The builder appends links as consecutive
///   `(forward, reverse)` pairs, so forward edges always carry even ids —
///   an invariant `induced_subgraph` and `DeltaGraph::compact` exploit.
/// * `outgoing` — [`Csr`] over outgoing edges; its target arena is the
///   allocation-free neighbour slice samplers and kernels iterate. Every
///   link is stored both ways, so a node's in-edges are its out-edges'
///   reverses (`e ^ 1`) and need no index of their own.
///
/// Only `txn` nodes have feature rows; the [`FeatureIndex`] maps a node to
/// its row in the `[n_txn, d]` feature matrix. Labels are `Option<bool>`:
/// the construction protocol leaves most benign transactions unlabelled
/// after down-sampling (Appendix B step 3), exactly like the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct HetGraph {
    pub(crate) node_types: Vec<NodeType>,
    pub(crate) edge_src: Vec<NodeId>,
    pub(crate) edge_dst: Vec<NodeId>,
    pub(crate) edge_types: Vec<EdgeType>,
    pub(crate) outgoing: Csr,
    pub(crate) features: Tensor,
    pub(crate) feature_row: FeatureIndex,
    pub(crate) txn_nodes: Vec<NodeId>,
    pub(crate) labels: Vec<Option<bool>>,
}

impl HetGraph {
    /// The empty graph of the given feature width — infallible, unlike
    /// freezing an empty [`crate::GraphBuilder`], so callers that need a
    /// blank base (event-sourced overlays) have a total construction path.
    pub fn empty(feature_dim: usize) -> HetGraph {
        HetGraph {
            node_types: Vec::new(),
            edge_src: Vec::new(),
            edge_dst: Vec::new(),
            edge_types: Vec::new(),
            outgoing: Csr::build(0, &[], &[]),
            features: Tensor::zeros(0, feature_dim),
            feature_row: FeatureIndex::with_capacity(0),
            txn_nodes: Vec::new(),
            labels: Vec::new(),
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of *directed* edges (twice the number of links).
    pub fn n_directed_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of undirected links, as reported in the paper's Table 2.
    pub fn n_links(&self) -> usize {
        self.edge_src.len() / 2
    }

    pub fn node_type(&self, v: NodeId) -> NodeType {
        self.node_types[v]
    }

    pub fn node_types(&self) -> &[NodeType] {
        &self.node_types
    }

    pub fn edge(&self, id: usize) -> EdgeRef {
        EdgeRef {
            id,
            src: self.edge_src[id],
            dst: self.edge_dst[id],
            ty: self.edge_types[id],
        }
    }

    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.edge_src.len()).map(move |id| self.edge(id))
    }

    pub fn edge_sources(&self) -> &[NodeId] {
        &self.edge_src
    }

    pub fn edge_targets(&self) -> &[NodeId] {
        &self.edge_dst
    }

    pub fn edge_types(&self) -> &[EdgeType] {
        &self.edge_types
    }

    /// Outgoing CSR (edge ids + target arena) — the sampler/kernel index.
    #[inline]
    pub fn outgoing(&self) -> &Csr {
        &self.outgoing
    }

    /// Undirected neighbours of `v` as one contiguous arena slice — the
    /// allocation-free fast path behind [`HetGraph::neighbors`].
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[NodeId] {
        self.outgoing.targets(v)
    }

    /// Undirected neighbours of `v` (successors; the graph stores both
    /// directions so this covers every link).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_slice(v).iter().copied()
    }

    /// Undirected degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.outgoing.degree(v)
    }

    /// The `[n_txn, d]` transaction feature matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Feature row of a node, if it is a transaction.
    pub fn feature_row_of(&self, v: NodeId) -> Option<usize> {
        self.feature_row.get(v)
    }

    /// Node ids of all transactions, in feature-row order.
    pub fn txn_nodes(&self) -> &[NodeId] {
        &self.txn_nodes
    }

    /// Fraud label of a node (`None` for entities and unlabelled txns).
    pub fn label(&self, v: NodeId) -> Option<bool> {
        self.labels[v]
    }

    /// All labelled transactions as `(node, is_fraud)` pairs.
    pub fn labeled_txns(&self) -> Vec<(NodeId, bool)> {
        self.txn_nodes
            .iter()
            .filter_map(|&v| self.labels[v].map(|y| (v, y)))
            .collect()
    }

    /// Unique undirected links as `(min_endpoint, max_endpoint)` pairs, in
    /// the id order of their forward directed edge.
    pub fn undirected_links(&self) -> Vec<(NodeId, NodeId)> {
        let mut links = Vec::with_capacity(self.n_links());
        for e in self.edges() {
            if e.src < e.dst {
                links.push((e.src, e.dst));
            }
        }
        links
    }

    /// Induced subgraph over `keep` (need not be sorted; duplicates are a
    /// programmer error). Returns the subgraph and the old→new id mapping as
    /// a `Vec<Option<usize>>` over original ids.
    ///
    /// Cost is `O(keep + incident edges)` — kept nodes' adjacency lists are
    /// walked through the CSR and feature rows resolved through the
    /// [`FeatureIndex`]; the full edge list and `txn_nodes` are never
    /// scanned, so extracting a small community from a huge graph no longer
    /// pays `O(E_total)`.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (HetGraph, Vec<Option<NodeId>>) {
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; self.n_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            debug_assert!(old_to_new[old].is_none(), "duplicate node in subgraph set");
            old_to_new[old] = Some(new);
        }

        let node_types: Vec<NodeType> = keep.iter().map(|&v| self.node_types[v]).collect();
        let labels: Vec<Option<bool>> = keep.iter().map(|&v| self.labels[v]).collect();

        // Candidate links: forward edge ids incident to any kept node.
        // Links are stored as consecutive (forward, reverse) pairs, so the
        // forward id of any incident directed edge is `e & !1`. Sorting +
        // deduping restores global edge-id order, which makes the emitted
        // directed-edge sequence bit-identical to a full edge-list scan.
        let mut fwd_candidates: Vec<usize> = Vec::new();
        for &old in keep {
            for &e in self.outgoing.edge_ids(old) {
                fwd_candidates.push(e & !1);
            }
        }
        fwd_candidates.sort_unstable();
        fwd_candidates.dedup();

        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_types = Vec::new();
        for f in fwd_candidates {
            for e in [f, f + 1] {
                if let (Some(s), Some(d)) =
                    (old_to_new[self.edge_src[e]], old_to_new[self.edge_dst[e]])
                {
                    edge_src.push(s);
                    edge_dst.push(d);
                    edge_types.push(self.edge_types[e]);
                }
            }
        }

        // Gather feature rows for retained transactions via the row index.
        let mut feature_row = FeatureIndex::with_capacity(keep.len());
        let mut txn_nodes = Vec::new();
        let mut rows: Vec<usize> = Vec::new();
        for (new, &old) in keep.iter().enumerate() {
            match self.feature_row.get(old) {
                Some(r) => {
                    feature_row.push(Some(rows.len()));
                    txn_nodes.push(new);
                    rows.push(r);
                }
                None => feature_row.push(None),
            }
        }
        let mut features = Tensor::zeros(rows.len(), self.features.cols());
        for (dst, &src) in rows.iter().enumerate() {
            features
                .row_mut(dst)
                .copy_from_slice(self.features.row(src));
        }

        let outgoing = Csr::build(keep.len(), &edge_src, &edge_dst);

        let sub = HetGraph {
            node_types,
            edge_src,
            edge_dst,
            edge_types,
            outgoing,
            features,
            feature_row,
            txn_nodes,
            labels,
        };
        (sub, old_to_new)
    }

    /// Checks the structural invariants (CSR/arena consistency, paired
    /// directed edges, features only on txns). Used by tests and
    /// `debug_assert`ed by the builder.
    pub fn validate(&self) -> bool {
        let n = self.n_nodes();
        if !self.outgoing.is_consistent(n, &self.edge_dst) {
            return false;
        }
        for v in 0..n {
            for (&e, &t) in self
                .outgoing
                .edge_ids(v)
                .iter()
                .zip(self.outgoing.targets(v))
            {
                if self.edge_src[e] != v || self.edge_dst[e] != t {
                    return false;
                }
            }
        }
        for v in 0..n {
            match (self.node_types[v], self.feature_row.get(v)) {
                (NodeType::Txn, Some(_)) => {}
                (NodeType::Txn, None) => return false,
                (_, Some(_)) => return false,
                (_, None) => {}
            }
        }
        self.feature_row.len() == n && self.features.rows() == self.txn_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::types::NodeType;
    use xfraud_tensor::Tensor;

    fn toy() -> crate::HetGraph {
        // txn0 - pmt, txn0 - buyer, txn1 - pmt (shared token), txn1 - addr
        let mut b = GraphBuilder::new(3);
        let t0 = b.add_txn([1.0, 0.0, 0.0], Some(true));
        let t1 = b.add_txn([0.0, 1.0, 0.0], Some(false));
        let pmt = b.add_entity(NodeType::Pmt);
        let buyer = b.add_entity(NodeType::Buyer);
        let addr = b.add_entity(NodeType::Addr);
        b.link(t0, pmt).unwrap();
        b.link(t0, buyer).unwrap();
        b.link(t1, pmt).unwrap();
        b.link(t1, addr).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn toy_graph_counts() {
        let g = toy();
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.n_links(), 4);
        assert_eq!(g.n_directed_edges(), 8);
        assert!(g.validate());
    }

    #[test]
    fn csr_in_and_out_edges_agree_with_edge_list() {
        let g = toy();
        for v in 0..g.n_nodes() {
            for &e in g.outgoing().edge_ids(v) {
                assert_eq!(g.edge(e).src, v);
                // The reverse of each out-edge is an in-edge.
                assert_eq!(g.edge(e ^ 1).dst, v);
            }
            // The arena slice is the edge-id walk's endpoints, in order.
            let via_edges: Vec<_> = g
                .outgoing()
                .edge_ids(v)
                .iter()
                .map(|&e| g.edge(e).dst)
                .collect();
            assert_eq!(g.neighbor_slice(v), &via_edges[..]);
        }
        // Shared payment token has two txn links.
        let pmt = 2;
        assert_eq!(g.node_type(pmt), NodeType::Pmt);
        assert_eq!(g.outgoing().degree(pmt), 2);
    }

    #[test]
    fn features_only_on_txns() {
        let g = toy();
        assert_eq!(g.features().shape(), (2, 3));
        assert_eq!(g.feature_row_of(0), Some(0));
        assert_eq!(g.feature_row_of(2), None);
        assert_eq!(g.label(0), Some(true));
        assert_eq!(g.label(2), None);
    }

    #[test]
    fn induced_subgraph_remaps_everything() {
        let g = toy();
        // Keep txn0, pmt, txn1: drops buyer and addr plus their links.
        let (sub, map) = g.induced_subgraph(&[0, 2, 1]);
        assert!(sub.validate());
        assert_eq!(sub.n_nodes(), 3);
        assert_eq!(sub.n_links(), 2);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[2], Some(1));
        assert_eq!(map[3], None);
        // txn1 became node 2 and kept its feature row + label.
        assert_eq!(sub.node_type(2), NodeType::Txn);
        assert_eq!(sub.label(2), Some(false));
        let row = sub.feature_row_of(2).unwrap();
        assert_eq!(sub.features().row(row), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn induced_subgraph_matches_full_scan_reference() {
        // Regression for the O(E_total) edge scan: the incident-edge walk
        // must emit exactly what filtering the whole edge list does, on a
        // graph big enough to have plenty of non-incident edges.
        let mut b = GraphBuilder::new(1);
        let mut txns = Vec::new();
        let mut pmts = Vec::new();
        for i in 0..40 {
            txns.push(b.add_txn([i as f32], if i % 3 == 0 { Some(i % 2 == 0) } else { None }));
        }
        for _ in 0..10 {
            pmts.push(b.add_entity(NodeType::Pmt));
        }
        for (i, &t) in txns.iter().enumerate() {
            b.link(t, pmts[i % pmts.len()]).unwrap();
            b.link(t, pmts[(i * 7 + 3) % pmts.len()]).unwrap();
        }
        let g = b.finish().unwrap();

        let keep: Vec<usize> = vec![txns[0], txns[3], pmts[0], pmts[3], txns[9], pmts[1]];
        let (sub, map) = g.induced_subgraph(&keep);
        assert!(sub.validate());

        // Reference: scan every directed edge in id order.
        let mut want_src = Vec::new();
        let mut want_dst = Vec::new();
        let mut want_ty = Vec::new();
        for e in g.edges() {
            if let (Some(s), Some(d)) = (map[e.src], map[e.dst]) {
                want_src.push(s);
                want_dst.push(d);
                want_ty.push(e.ty);
            }
        }
        assert_eq!(sub.edge_sources(), &want_src[..]);
        assert_eq!(sub.edge_targets(), &want_dst[..]);
        assert_eq!(sub.edge_types(), &want_ty[..]);
        assert!(sub.n_links() >= 3, "kept nodes share links");
    }

    #[test]
    fn undirected_links_unique() {
        let g = toy();
        let links = g.undirected_links();
        assert_eq!(links.len(), 4);
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn labeled_txns_lists_only_labeled() {
        let mut b = GraphBuilder::new(1);
        let t0 = b.add_txn([0.5], Some(true));
        let _t1 = b.add_txn([0.5], None);
        let p = b.add_entity(NodeType::Pmt);
        b.link(t0, p).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.labeled_txns(), vec![(t0, true)]);
    }

    #[test]
    fn empty_feature_graph_is_valid() {
        let b = GraphBuilder::new(4);
        let g = b.finish().unwrap();
        assert!(g.validate());
        assert_eq!(g.features(), &Tensor::zeros(0, 4));
    }
}
