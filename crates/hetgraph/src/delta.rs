use std::collections::HashMap;
use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::graph::{EdgeRef, HetGraph};
use crate::types::{EdgeType, NodeId, NodeType};
use crate::view::{sealed, GraphSnapshot, GraphView};
use crate::{GraphError, Result};

/// One append-only mutation of the live transaction graph — the unit both
/// the streaming write-ahead log records and [`DeltaGraph::apply`] consumes.
///
/// Events are *event-sourced* construction: replaying a stream of events
/// through a [`DeltaGraph`] (or a [`GraphBuilder`]) always reproduces the
/// same graph, because node ids are assigned by arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphEvent {
    /// A new transaction arrives with its risk-identifier features and an
    /// optional supervision label. Assigned the next node id.
    AddTxn {
        features: Vec<f32>,
        label: Option<bool>,
    },
    /// A new entity (payment token, email, address or buyer) is first seen.
    /// Assigned the next node id.
    AddEntity { ty: NodeType },
    /// A transaction↔entity relation is observed (order-insensitive; both
    /// directed edges are stored, like [`GraphBuilder::link`]).
    Link { a: NodeId, b: NodeId },
    /// A label lands late (chargeback confirmed, investigation closed) or is
    /// retracted (`None`). Only transactions carry labels.
    Label { node: NodeId, label: Option<bool> },
}

impl GraphEvent {
    /// `true` for events that change the graph *structure* (nodes or edges)
    /// rather than only supervision labels. Serving caches keyed on
    /// neighbourhoods must be invalidated on structural events only.
    pub fn is_structural(&self) -> bool {
        !matches!(self, GraphEvent::Label { .. })
    }
}

/// An append-only overlay over an immutable CSR [`HetGraph`] base — the
/// *live* graph of the streaming ingestion path.
///
/// New transactions, entities, links and late labels are appended without
/// touching the frozen base; reads go through [`GraphView`], which presents
/// base + overlay as one graph. Node ids continue the base's id space
/// (`base.n_nodes()..`), directed edge ids continue the base's edge-id space,
/// and adjacency order is *base CSR slice then overlay appends* — which is
/// exactly the edge-id order a from-scratch rebuild produces. That makes
/// [`DeltaGraph::compact`] a pure representation change: the compacted
/// [`HetGraph`] is bit-identical to building every record from scratch, and
/// any sampler walking the view sees identical neighbourhoods before and
/// after compaction.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<HetGraph>,
    /// Type of each overlay node (id = `base.n_nodes() + index`).
    new_node_types: Vec<NodeType>,
    /// Label of each overlay node.
    new_labels: Vec<Option<bool>>,
    /// Late labels applied to *base* transactions.
    base_label_overrides: HashMap<NodeId, Option<bool>>,
    /// Feature rows of overlay transactions, row-major `[n_new_txn, d]`.
    new_features: Vec<f32>,
    /// Overlay node index → row in `new_features` (txns only).
    new_txn_row: Vec<Option<usize>>,
    /// Overlay directed edges (edge id = `base.n_directed_edges() + index`).
    new_edge_src: Vec<NodeId>,
    new_edge_dst: Vec<NodeId>,
    new_edge_types: Vec<EdgeType>,
    /// Per-node overlay adjacency: overlay out-edge ids in append order
    /// (ascending, and all greater than any base edge id), plus the aligned
    /// endpoint arena so neighbour reads stay slice-backed like the base
    /// CSR's.
    overlay_out: HashMap<NodeId, OverlayAdj>,
}

/// One node's overlay adjacency: edge ids and their opposite endpoints,
/// aligned index-for-index (the overlay twin of the base [`crate::Csr`]
/// arenas).
#[derive(Debug, Clone, Default)]
struct OverlayAdj {
    edge_ids: Vec<usize>,
    targets: Vec<NodeId>,
}

impl DeltaGraph {
    /// Starts an empty overlay over `base`. With no events applied the view
    /// is indistinguishable from the base itself.
    pub fn new(base: Arc<HetGraph>) -> Self {
        DeltaGraph {
            base,
            new_node_types: Vec::new(),
            new_labels: Vec::new(),
            base_label_overrides: HashMap::new(),
            new_features: Vec::new(),
            new_txn_row: Vec::new(),
            new_edge_src: Vec::new(),
            new_edge_dst: Vec::new(),
            new_edge_types: Vec::new(),
            overlay_out: HashMap::new(),
        }
    }

    /// Starts an overlay over an empty graph of the given feature width —
    /// event-sourced construction from nothing.
    pub fn empty(feature_dim: usize) -> Self {
        DeltaGraph::new(Arc::new(HetGraph::empty(feature_dim)))
    }

    /// The frozen CSR base under the overlay.
    pub fn base(&self) -> &Arc<HetGraph> {
        &self.base
    }

    /// Nodes appended since the base was frozen.
    pub fn n_overlay_nodes(&self) -> usize {
        self.new_node_types.len()
    }

    /// Directed edges appended since the base was frozen.
    pub fn n_overlay_edges(&self) -> usize {
        self.new_edge_src.len()
    }

    /// `true` iff nothing has been appended (the view equals the base).
    pub fn is_compact(&self) -> bool {
        self.n_overlay_nodes() == 0
            && self.n_overlay_edges() == 0
            && self.base_label_overrides.is_empty()
    }

    fn resolve_type(&self, v: NodeId) -> Result<NodeType> {
        if v < self.base.n_nodes() {
            Ok(self.base.node_type(v))
        } else {
            self.new_node_types
                .get(v - self.base.n_nodes())
                .copied()
                .ok_or(GraphError::UnknownNode(v))
        }
    }

    /// Appends a transaction node; returns its id. Features must have the
    /// graph's width and be finite (NaN/±Inf would break the scorer's
    /// fast-path ≡ tape contract).
    pub fn add_txn(&mut self, features: &[f32], label: Option<bool>) -> Result<NodeId> {
        if features.len() != self.feature_dim() {
            return Err(GraphError::FeatureDimMismatch {
                expected: self.feature_dim(),
                got: features.len(),
            });
        }
        if let Some(index) = features.iter().position(|x| !x.is_finite()) {
            return Err(GraphError::NonFiniteFeature { index });
        }
        let id = self.n_nodes();
        self.new_node_types.push(NodeType::Txn);
        self.new_labels.push(label);
        self.new_txn_row
            .push(Some(self.new_features.len() / self.feature_dim().max(1)));
        self.new_features.extend_from_slice(features);
        Ok(id)
    }

    /// Appends an entity node; returns its id.
    pub fn add_entity(&mut self, ty: NodeType) -> Result<NodeId> {
        if !ty.is_entity() {
            return Err(GraphError::InvalidRelation(ty, ty));
        }
        let id = self.n_nodes();
        self.new_node_types.push(ty);
        self.new_labels.push(None);
        self.new_txn_row.push(None);
        Ok(id)
    }

    /// Links a transaction and an entity (order-insensitive), appending both
    /// directed edges — the overlay analogue of [`GraphBuilder::link`].
    /// Either endpoint may live in the base or the overlay.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        let ta = self.resolve_type(a)?;
        let tb = self.resolve_type(b)?;
        let fwd = EdgeType::between(ta, tb).ok_or(GraphError::InvalidRelation(ta, tb))?;
        let first_id = self.base.n_directed_edges() + self.new_edge_src.len();
        self.new_edge_src.push(a);
        self.new_edge_dst.push(b);
        self.new_edge_types.push(fwd);
        self.new_edge_src.push(b);
        self.new_edge_dst.push(a);
        self.new_edge_types.push(fwd.reverse());
        let adj_a = self.overlay_out.entry(a).or_default();
        adj_a.edge_ids.push(first_id);
        adj_a.targets.push(b);
        let adj_b = self.overlay_out.entry(b).or_default();
        adj_b.edge_ids.push(first_id + 1);
        adj_b.targets.push(a);
        Ok(())
    }

    /// Applies (or retracts, with `None`) a transaction label.
    pub fn set_label(&mut self, node: NodeId, label: Option<bool>) -> Result<()> {
        if self.resolve_type(node)? != NodeType::Txn {
            return Err(GraphError::LabelOnEntity(node));
        }
        if node < self.base.n_nodes() {
            self.base_label_overrides.insert(node, label);
        } else {
            self.new_labels[node - self.base.n_nodes()] = label;
        }
        Ok(())
    }

    /// Applies one event; returns the assigned node id for `AddTxn` /
    /// `AddEntity` events. Failed events leave the overlay untouched.
    pub fn apply(&mut self, event: &GraphEvent) -> Result<Option<NodeId>> {
        match event {
            GraphEvent::AddTxn { features, label } => self.add_txn(features, *label).map(Some),
            GraphEvent::AddEntity { ty } => self.add_entity(*ty).map(Some),
            GraphEvent::Link { a, b } => self.link(*a, *b).map(|()| None),
            GraphEvent::Label { node, label } => self.set_label(*node, *label).map(|()| None),
        }
    }

    /// Folds the overlay into a fresh frozen [`HetGraph`].
    ///
    /// The result is **bit-identical** to building the same records from
    /// scratch through [`GraphBuilder`]: nodes are replayed in id order,
    /// links in edge-id order, so ids, CSR arrays, feature rows and labels
    /// all coincide — and because [`GraphView`] adjacency order matches,
    /// sampling over the compacted graph matches sampling over the overlay.
    pub fn compact(&self) -> Result<HetGraph> {
        let n = self.n_nodes();
        let mut b = GraphBuilder::with_capacity(self.feature_dim(), n, self.n_directed_edges() / 2);
        b.reserve_txns(
            self.base.txn_nodes().len() + self.new_features.len() / self.feature_dim().max(1),
        );
        let mut row = vec![0.0f32; self.feature_dim()];
        for v in 0..n {
            match GraphView::node_type(self, v) {
                NodeType::Txn => {
                    self.copy_features_into(v, &mut row);
                    b.add_txn(&row, GraphView::label(self, v));
                }
                ty => {
                    b.add_entity(ty);
                }
            }
        }
        // Links are stored as (forward, reverse) pairs; replaying every
        // forward edge in id order reproduces the original link sequence.
        for e in (0..self.n_directed_edges()).step_by(2) {
            let edge = GraphView::edge(self, e);
            b.link(edge.src, edge.dst)?;
        }
        b.finish()
    }
}

impl GraphView for DeltaGraph {
    fn n_nodes(&self) -> usize {
        self.base.n_nodes() + self.new_node_types.len()
    }

    fn n_directed_edges(&self) -> usize {
        self.base.n_directed_edges() + self.new_edge_src.len()
    }

    fn node_type(&self, v: NodeId) -> NodeType {
        if v < self.base.n_nodes() {
            self.base.node_type(v)
        } else {
            self.new_node_types[v - self.base.n_nodes()]
        }
    }

    fn label(&self, v: NodeId) -> Option<bool> {
        if v < self.base.n_nodes() {
            match self.base_label_overrides.get(&v) {
                Some(&label) => label,
                None => self.base.label(v),
            }
        } else {
            self.new_labels[v - self.base.n_nodes()]
        }
    }

    fn feature_dim(&self) -> usize {
        self.base.feature_dim()
    }

    fn copy_features_into(&self, v: NodeId, out: &mut [f32]) -> bool {
        if v < self.base.n_nodes() {
            return self.base.copy_features_into(v, out);
        }
        match self.new_txn_row[v - self.base.n_nodes()] {
            Some(r) => {
                let d = self.feature_dim();
                out.copy_from_slice(&self.new_features[r * d..(r + 1) * d]);
                true
            }
            None => {
                out.fill(0.0);
                false
            }
        }
    }

    fn edge(&self, id: usize) -> EdgeRef {
        if id < self.base.n_directed_edges() {
            self.base.edge(id)
        } else {
            let i = id - self.base.n_directed_edges();
            EdgeRef {
                id,
                src: self.new_edge_src[i],
                dst: self.new_edge_dst[i],
                ty: self.new_edge_types[i],
            }
        }
    }

    fn out_edge_parts(&self, v: NodeId) -> (&[usize], &[usize]) {
        let base = if v < self.base.n_nodes() {
            self.base.outgoing().edge_ids(v)
        } else {
            &[]
        };
        let overlay = self
            .overlay_out
            .get(&v)
            .map(|adj| adj.edge_ids.as_slice())
            .unwrap_or(&[]);
        (base, overlay)
    }

    fn neighbor_parts(&self, v: NodeId) -> (&[NodeId], &[NodeId]) {
        let base = if v < self.base.n_nodes() {
            self.base.neighbor_slice(v)
        } else {
            &[]
        };
        let overlay = self
            .overlay_out
            .get(&v)
            .map(|adj| adj.targets.as_slice())
            .unwrap_or(&[]);
        (base, overlay)
    }

    fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::new(Arc::new(self.clone()), 0)
    }
}

impl sealed::Sealed for DeltaGraph {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::GraphViewExt;

    fn base_graph() -> Arc<HetGraph> {
        let mut b = GraphBuilder::new(2);
        let t0 = b.add_txn([1.0, 0.0], Some(true));
        let t1 = b.add_txn([0.0, 1.0], None);
        let p = b.add_entity(NodeType::Pmt);
        let a = b.add_entity(NodeType::Addr);
        b.link(t0, p).unwrap();
        b.link(t1, p).unwrap();
        b.link(t1, a).unwrap();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn empty_overlay_equals_base() {
        let base = base_graph();
        let d = DeltaGraph::new(Arc::clone(&base));
        assert!(d.is_compact());
        assert_eq!(GraphView::n_nodes(&d), base.n_nodes());
        let compacted = d.compact().unwrap();
        assert!(compacted.validate());
        assert_eq!(&compacted, base.as_ref());
    }

    #[test]
    fn overlay_appends_continue_the_id_spaces() {
        let base = base_graph();
        let mut d = DeltaGraph::new(Arc::clone(&base));
        let t = d.add_txn(&[0.5, 0.5], None).unwrap();
        assert_eq!(t, base.n_nodes());
        let e = d.add_entity(NodeType::Email).unwrap();
        assert_eq!(e, base.n_nodes() + 1);
        d.link(t, e).unwrap();
        d.link(t, 2).unwrap(); // reuse the base pmt entity
        assert_eq!(GraphView::n_directed_edges(&d), base.n_directed_edges() + 4);

        // New txn sees both its links, in append order.
        let nbrs: Vec<NodeId> = d.neighbors(t).collect();
        assert_eq!(nbrs, vec![e, 2]);
        // The base pmt keeps its CSR neighbours first, then the new txn.
        let nbrs: Vec<NodeId> = d.neighbors(2).collect();
        assert_eq!(nbrs, vec![0, 1, t]);
    }

    #[test]
    fn compact_matches_from_scratch_build() {
        let base = base_graph();
        let mut d = DeltaGraph::new(base);
        let t = d.add_txn(&[0.3, 0.7], Some(false)).unwrap();
        let buyer = d.add_entity(NodeType::Buyer).unwrap();
        d.link(t, buyer).unwrap();
        d.link(t, 3).unwrap();
        d.set_label(1, Some(true)).unwrap();

        let compacted = d.compact().unwrap();
        assert!(compacted.validate());

        // The same records through a fresh builder, in the same order.
        let mut b = GraphBuilder::new(2);
        b.add_txn([1.0, 0.0], Some(true));
        b.add_txn([0.0, 1.0], Some(true)); // late label applied
        b.add_entity(NodeType::Pmt);
        b.add_entity(NodeType::Addr);
        b.link(0, 2).unwrap();
        b.link(1, 2).unwrap();
        b.link(1, 3).unwrap();
        b.add_txn([0.3, 0.7], Some(false));
        b.add_entity(NodeType::Buyer);
        b.link(4, 5).unwrap();
        b.link(4, 3).unwrap();
        let scratch = b.finish().unwrap();
        assert_eq!(compacted, scratch);
    }

    #[test]
    fn overlay_view_matches_compacted_view() {
        let base = base_graph();
        let mut d = DeltaGraph::new(base);
        let t = d.add_txn(&[0.2, 0.8], None).unwrap();
        d.link(t, 2).unwrap();
        d.link(0, 3).unwrap(); // new link between two base nodes
        let c = d.compact().unwrap();
        assert_eq!(GraphView::n_nodes(&d), c.n_nodes());
        assert_eq!(GraphView::n_directed_edges(&d), c.n_directed_edges());
        for v in 0..c.n_nodes() {
            assert_eq!(GraphView::node_type(&d, v), c.node_type(v));
            assert_eq!(GraphView::label(&d, v), c.label(v));
            assert_eq!(
                d.neighbors(v).collect::<Vec<_>>(),
                c.neighbors(v).collect::<Vec<_>>(),
                "adjacency order must survive compaction (node {v})"
            );
            let mut dr = vec![0.0; 2];
            let mut cr = vec![0.0; 2];
            d.copy_features_into(v, &mut dr);
            c.copy_features_into(v, &mut cr);
            assert_eq!(dr, cr);
        }
        for e in 0..c.n_directed_edges() {
            assert_eq!(GraphView::edge(&d, e), c.edge(e));
        }
    }

    #[test]
    fn events_route_to_the_right_mutations() {
        let mut d = DeltaGraph::empty(1);
        let t = d
            .apply(&GraphEvent::AddTxn {
                features: vec![0.9],
                label: None,
            })
            .unwrap()
            .unwrap();
        let p = d
            .apply(&GraphEvent::AddEntity { ty: NodeType::Pmt })
            .unwrap()
            .unwrap();
        assert_eq!(d.apply(&GraphEvent::Link { a: t, b: p }).unwrap(), None);
        d.apply(&GraphEvent::Label {
            node: t,
            label: Some(true),
        })
        .unwrap();
        assert_eq!(GraphView::label(&d, t), Some(true));
        assert_eq!(d.degree(t), 1);
        assert!(GraphEvent::AddEntity { ty: NodeType::Pmt }.is_structural());
        assert!(!GraphEvent::Label {
            node: 0,
            label: None
        }
        .is_structural());
    }

    #[test]
    fn invalid_events_are_rejected_and_leave_the_overlay_untouched() {
        let mut d = DeltaGraph::empty(2);
        assert!(matches!(
            d.add_txn(&[1.0], None),
            Err(GraphError::FeatureDimMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            d.add_entity(NodeType::Txn),
            Err(GraphError::InvalidRelation(_, _))
        ));
        let t = d.add_txn(&[0.0, 0.0], None).unwrap();
        assert!(matches!(d.link(t, 99), Err(GraphError::UnknownNode(99))));
        let u = d.add_txn(&[1.0, 1.0], None).unwrap();
        assert!(matches!(
            d.link(t, u),
            Err(GraphError::InvalidRelation(NodeType::Txn, NodeType::Txn))
        ));
        let p = d.add_entity(NodeType::Pmt).unwrap();
        assert!(matches!(
            d.set_label(p, Some(true)),
            Err(GraphError::LabelOnEntity(_))
        ));
        assert_eq!(d.n_overlay_edges(), 0);
        assert!(d.compact().unwrap().validate());
    }

    #[test]
    fn non_finite_features_are_rejected_before_the_node_lands() {
        let mut d = DeltaGraph::empty(3);
        for (bad, index) in [
            ([0.0, f32::NAN, 1.0], 1),
            ([f32::INFINITY, 0.0, 0.0], 0),
            ([0.0, 0.0, f32::NEG_INFINITY], 2),
        ] {
            assert_eq!(
                d.add_txn(&bad, Some(true)),
                Err(GraphError::NonFiniteFeature { index })
            );
        }
        assert_eq!(d.n_overlay_nodes(), 0);
        let t = d
            .add_txn(&[f32::MAX, -0.0, f32::MIN_POSITIVE], None)
            .unwrap();
        assert_eq!(t, 0);
        assert_eq!(d.n_overlay_nodes(), 1);
    }
}
