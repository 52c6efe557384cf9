use xfraud_hetgraph::{EdgeType, GraphView, GraphViewExt, NodeId, NodeType};
use xfraud_tensor::Tensor;

/// The unit of computation all models consume: a sampled subgraph with local
/// ids, dense features (zero rows for entity nodes — "the initial node
/// features are empty", §3.2.1), edge lists and the prediction targets.
#[derive(Debug, Clone)]
pub struct SubgraphBatch {
    /// Node type per local id.
    pub node_types: Vec<NodeType>,
    /// `[n_local, F]` input features; entity rows are zero.
    pub features: Tensor,
    /// Directed edges in local ids.
    pub edge_src: Vec<usize>,
    pub edge_dst: Vec<usize>,
    pub edge_ty: Vec<EdgeType>,
    /// Local ids of the transactions to score.
    pub targets: Vec<usize>,
    /// Class per target (`1` = fraud). Empty at pure inference time.
    pub labels: Vec<usize>,
    /// For each local id, the node id in the originating graph.
    pub global_ids: Vec<NodeId>,
}

/// Global → local id map of one batch. Small batches over huge graphs
/// (the million-node regime) would pay `O(n_nodes)` per batch for a dense
/// table, so tiny batches switch to a sorted-pair map; dense stays for the
/// common case where the batch covers a meaningful fraction of the graph.
/// Lookup-only (never iterated), so both variants are determinism-safe.
enum LocalIndex {
    Dense(Vec<Option<u32>>),
    Sparse(Vec<(NodeId, u32)>),
}

impl LocalIndex {
    /// Dense costs `n_graph` option-slots; sparse costs `n_batch log
    /// n_batch`. The crossover: go sparse when the batch is under ~1/64th
    /// of the graph (and the graph is big enough for the table to matter).
    fn build(n_graph: usize, nodes: &[NodeId]) -> LocalIndex {
        if n_graph <= 1 << 16 || nodes.len() >= n_graph / 64 {
            let mut local: Vec<Option<u32>> = vec![None; n_graph];
            for (i, &v) in nodes.iter().enumerate() {
                debug_assert!(local[v].is_none(), "duplicate node in batch");
                local[v] = Some(i as u32);
            }
            LocalIndex::Dense(local)
        } else {
            let mut pairs: Vec<(NodeId, u32)> = nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect();
            pairs.sort_unstable();
            debug_assert!(
                pairs.windows(2).all(|w| w[0].0 != w[1].0),
                "duplicate node in batch"
            );
            LocalIndex::Sparse(pairs)
        }
    }

    fn get(&self, v: NodeId) -> Option<usize> {
        match self {
            LocalIndex::Dense(t) => t[v].map(|i| i as usize),
            LocalIndex::Sparse(pairs) => pairs
                .binary_search_by_key(&v, |&(g, _)| g)
                .ok()
                .map(|idx| pairs[idx].1 as usize),
        }
    }
}

impl SubgraphBatch {
    pub fn n_nodes(&self) -> usize {
        self.node_types.len()
    }

    pub fn n_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Builds a batch over an explicit local node set (seed targets first is
    /// not required; `targets` lists seeds by *global* id).
    ///
    /// `nodes` must be duplicate-free. Edges are the induced directed edges.
    pub fn from_nodes(g: &dyn GraphView, nodes: &[NodeId], targets: &[NodeId]) -> SubgraphBatch {
        let local = LocalIndex::build(g.n_nodes(), nodes);
        let node_types: Vec<NodeType> = nodes.iter().map(|&v| g.node_type(v)).collect();

        let mut features = Tensor::zeros(nodes.len(), g.feature_dim());
        for (i, &v) in nodes.iter().enumerate() {
            g.copy_features_into(v, features.row_mut(i));
        }

        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_ty = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            for edge in g.edges_of(v) {
                if let Some(j) = local.get(edge.dst) {
                    edge_src.push(i);
                    edge_dst.push(j);
                    edge_ty.push(edge.ty);
                }
            }
        }

        let mut tgt_local = Vec::with_capacity(targets.len());
        let mut labels = Vec::with_capacity(targets.len());
        for &t in targets {
            // A sampler that omits its own target is a bug; debug builds
            // assert, release builds drop the row instead of panicking.
            let Some(l) = local.get(t) else {
                debug_assert!(false, "target {t} missing from the sampled node set");
                continue;
            };
            tgt_local.push(l);
            labels.push(usize::from(g.label(t) == Some(true)));
        }

        SubgraphBatch {
            node_types,
            features,
            edge_src,
            edge_dst,
            edge_ty,
            targets: tgt_local,
            labels,
            global_ids: nodes.to_vec(),
        }
    }

    /// Structural sanity check used by tests and samplers.
    pub fn validate(&self) -> bool {
        let n = self.n_nodes();
        if self.features.rows() != n || self.global_ids.len() != n {
            return false;
        }
        if self.edge_src.len() != self.edge_dst.len() || self.edge_src.len() != self.edge_ty.len() {
            return false;
        }
        if self.edge_src.iter().any(|&v| v >= n) || self.edge_dst.iter().any(|&v| v >= n) {
            return false;
        }
        self.targets
            .iter()
            .all(|&t| t < n && self.node_types[t] == NodeType::Txn)
            && self.labels.len() == self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_hetgraph::{GraphBuilder, HetGraph};

    fn toy() -> HetGraph {
        let mut b = GraphBuilder::new(2);
        let t0 = b.add_txn([1.0, 2.0], Some(true));
        let t1 = b.add_txn([3.0, 4.0], Some(false));
        let p = b.add_entity(NodeType::Pmt);
        b.link(t0, p).unwrap();
        b.link(t1, p).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn from_nodes_builds_consistent_local_view() {
        let g = toy();
        let batch = SubgraphBatch::from_nodes(&g, &[0, 2, 1], &[0, 1]);
        assert!(batch.validate());
        assert_eq!(batch.n_nodes(), 3);
        assert_eq!(batch.n_edges(), 4);
        assert_eq!(batch.features.row(0), &[1.0, 2.0]);
        assert_eq!(batch.features.row(1), &[0.0, 0.0], "entity rows are zero");
        assert_eq!(batch.targets, vec![0, 2]);
        assert_eq!(batch.labels, vec![1, 0]);
    }

    #[test]
    fn edges_outside_the_node_set_are_dropped() {
        let g = toy();
        let batch = SubgraphBatch::from_nodes(&g, &[0, 1], &[0]);
        assert!(batch.validate());
        assert_eq!(
            batch.n_edges(),
            0,
            "both links go through the excluded pmt node"
        );
    }

    // Release builds compile the `debug_assert!` out and drop the row.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "missing from the sampled node set")]
    fn target_outside_node_set_asserts_in_debug_builds() {
        let g = toy();
        let _ = SubgraphBatch::from_nodes(&g, &[0, 2], &[1]);
    }
}
