//! Receptive fields: which rows and edges each detector layer computes.
//!
//! A target's score depends only on its `L`-hop in-neighbourhood, so a
//! layer need not produce every node of the batch — only the rows the next
//! layer (or, for the last layer, the head) reads. Walking back from the
//! targets: the last layer outputs the targets; each earlier layer outputs
//! the next layer's rows plus their in-neighbours; layer 0 reads all rows of
//! the input projection. DESIGN §4.5 explains why the pruned stack keeps the
//! all-rows stack's bits.

use std::rc::Rc;

use crate::batch::SubgraphBatch;

/// One layer's receptive field over a [`SubgraphBatch`], built by
/// [`Field::layers`] (or [`Field::all`]) and read by
/// [`crate::HetConvLayer::forward`].
///
/// Rows come in two numberings: *input rows* index the layer's input
/// matrix, *output rows* index its output (and `nodes`).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Batch-local node id of each output row, ascending.
    pub(crate) nodes: Vec<usize>,
    /// The input row holding each output row's node.
    pub(crate) out_rows: Rc<Vec<usize>>,
    /// Batch ids of the edges whose target is an output row, in edge order.
    pub(crate) edges: Rc<Vec<usize>>,
    /// Each such edge's source, as an input row.
    pub(crate) edge_src: Rc<Vec<usize>>,
    /// Each such edge's target, as an output row.
    pub(crate) edge_dst: Rc<Vec<usize>>,
}

impl Field {
    /// Every node and edge of `batch`, input rows = output rows = nodes:
    /// the layer without pruning.
    pub fn all(batch: &SubgraphBatch) -> Field {
        let rows: Vec<usize> = (0..batch.n_nodes()).collect();
        Field {
            out_rows: Rc::new(rows.clone()),
            nodes: rows,
            edges: Rc::new((0..batch.n_edges()).collect()),
            edge_src: Rc::new(batch.edge_src.clone()),
            edge_dst: Rc::new(batch.edge_dst.clone()),
        }
    }

    /// The fields of an `n_layers` stack that feeds `batch.targets`, first
    /// layer first. Layer 0 reads all `n` input rows; layer `l > 0` reads
    /// layer `l - 1`'s output.
    pub fn layers(batch: &SubgraphBatch, n_layers: usize) -> Vec<Field> {
        let n = batch.n_nodes();
        let mut out = batch.targets.clone();
        out.sort_unstable();
        out.dedup();
        let mut marked = vec![false; n];
        let (mut in_row, mut out_row) = (vec![0; n], vec![0; n]);
        let mut fields = Vec::with_capacity(n_layers);
        for l in (0..n_layers).rev() {
            marked.fill(false);
            for &v in &out {
                marked[v] = true;
            }
            let edges: Vec<usize> = (0..batch.n_edges())
                .filter(|&e| marked[batch.edge_dst[e]])
                .collect();
            // This layer's input: everything on layer 0, else its output
            // rows plus their in-neighbours.
            if l == 0 {
                marked.fill(true);
            }
            for &e in &edges {
                marked[batch.edge_src[e]] = true;
            }
            let input: Vec<usize> = (0..n).filter(|&v| marked[v]).collect();
            for (i, &v) in input.iter().enumerate() {
                in_row[v] = i;
            }
            for (i, &v) in out.iter().enumerate() {
                out_row[v] = i;
            }
            fields.push(Field {
                out_rows: Rc::new(out.iter().map(|&v| in_row[v]).collect()),
                edge_src: Rc::new(edges.iter().map(|&e| in_row[batch.edge_src[e]]).collect()),
                edge_dst: Rc::new(edges.iter().map(|&e| out_row[batch.edge_dst[e]]).collect()),
                edges: Rc::new(edges),
                nodes: std::mem::replace(&mut out, input),
            });
        }
        fields.reverse();
        fields
    }

    /// The output row of each of `nodes`, which must all be in the field.
    pub fn rows_of(&self, nodes: &[usize]) -> Vec<usize> {
        nodes
            .iter()
            .map(|v| {
                let row = self.nodes.binary_search(v);
                debug_assert!(row.is_ok(), "node {v} outside the field");
                row.unwrap_or_default()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{SageSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xfraud_hetgraph::{GraphBuilder, NodeType, ALL_EDGE_TYPES};
    use xfraud_tensor::Tensor;

    /// `n` transactions and the given directed edges.
    fn batch(n: usize, edges: &[(usize, usize)], targets: &[usize]) -> SubgraphBatch {
        SubgraphBatch {
            node_types: vec![NodeType::Txn; n],
            features: Tensor::zeros(n, 1),
            edge_src: edges.iter().map(|e| e.0).collect(),
            edge_dst: edges.iter().map(|e| e.1).collect(),
            edge_ty: vec![ALL_EDGE_TYPES[0]; edges.len()],
            targets: targets.to_vec(),
            labels: vec![0; targets.len()],
            global_ids: (0..n).collect(),
        }
    }

    /// A chain 0 → 1 → 2 → 3 plus a side edge 5 → 2 and a far edge 4 → 0.
    fn chain() -> SubgraphBatch {
        batch(6, &[(4, 0), (0, 1), (1, 2), (5, 2), (2, 3)], &[3])
    }

    #[test]
    fn last_layer_outputs_the_deduplicated_targets() {
        let b = batch(6, &[(0, 1), (2, 3)], &[3, 1, 3, 5]);
        let fields = Field::layers(&b, 2);
        assert_eq!(fields[1].nodes, vec![1, 3, 5]);
        assert_eq!(*fields[1].edges, vec![0, 1]);
    }

    #[test]
    fn each_earlier_layer_adds_the_in_neighbours() {
        let b = chain();
        let fields = Field::layers(&b, 3);
        // Layer 2 outputs the target; it reads 2 → 3.
        assert_eq!(fields[2].nodes, vec![3]);
        assert_eq!(*fields[2].edges, vec![4]);
        // Layer 1 outputs {3} ∪ {2}; it reads 1 → 2, 5 → 2, 2 → 3.
        assert_eq!(fields[1].nodes, vec![2, 3]);
        assert_eq!(*fields[1].edges, vec![2, 3, 4]);
        // Layer 0 outputs {2, 3} ∪ {1, 5} and reads all six input rows.
        assert_eq!(fields[0].nodes, vec![1, 2, 3, 5]);
        assert_eq!(*fields[0].edges, vec![1, 2, 3, 4]);
        // Each layer's input rows are the previous layer's output rows.
        for l in 1..3 {
            let prev = &fields[l - 1].nodes;
            let f = &fields[l];
            let in_nodes: Vec<usize> = f.out_rows.iter().map(|&r| prev[r]).collect();
            assert_eq!(in_nodes, f.nodes, "layer {l} output rows");
            for (i, &e) in f.edges.iter().enumerate() {
                assert_eq!(
                    prev[f.edge_src[i]], b.edge_src[e],
                    "layer {l} edge {e} source"
                );
                assert_eq!(
                    f.nodes[f.edge_dst[i]], b.edge_dst[e],
                    "layer {l} edge {e} target"
                );
            }
        }
        // Layer 0's input rows are the batch nodes themselves.
        assert_eq!(*fields[0].out_rows, fields[0].nodes);
        assert_eq!(*fields[0].edge_src, vec![0, 1, 5, 2]);
    }

    #[test]
    fn a_target_without_in_edges_gets_a_row_and_no_edges() {
        let b = batch(3, &[(0, 1)], &[2, 1]);
        let fields = Field::layers(&b, 2);
        assert_eq!(fields[1].nodes, vec![1, 2]);
        assert_eq!(*fields[1].edge_dst, vec![0]);
        assert_eq!(fields[1].rows_of(&[2]), vec![1]);
        assert_eq!(fields[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn a_duplicated_target_reads_one_row() {
        let b = batch(4, &[(0, 2), (1, 2)], &[2, 3, 2]);
        let fields = Field::layers(&b, 1);
        assert_eq!(fields[0].nodes, vec![2, 3]);
        assert_eq!(fields[0].rows_of(&b.targets), vec![0, 1, 0]);
    }

    #[test]
    fn a_sampled_batch_is_pruned_on_both_layers() {
        let mut b = GraphBuilder::new(1);
        let txns: Vec<usize> = (0..40).map(|_| b.add_txn([1.0], None)).collect();
        let pmts: Vec<usize> = (0..12).map(|_| b.add_entity(NodeType::Pmt)).collect();
        for (i, &t) in txns.iter().enumerate() {
            b.link(t, pmts[i % 12]).unwrap();
            b.link(t, pmts[(i * 7 + 3) % 12]).unwrap();
        }
        let g = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let batch = SageSampler::new(2, 4).sample(&g, &[0, 1], &mut rng);
        let fields = Field::layers(&batch, 2);
        assert!(fields[1].edges.len() < fields[0].edges.len());
        assert!(fields[0].edges.len() < batch.n_edges());
        assert!(fields[1].nodes.len() < fields[0].nodes.len());
        assert!(fields[0].nodes.len() < batch.n_nodes());
    }

    #[test]
    fn all_covers_every_node_and_edge() {
        let b = chain();
        let f = Field::all(&b);
        assert_eq!(f.nodes, (0..6).collect::<Vec<_>>());
        assert_eq!(*f.edges, (0..5).collect::<Vec<_>>());
        assert_eq!(*f.edge_src, b.edge_src);
        assert_eq!(*f.edge_dst, b.edge_dst);
    }
}
