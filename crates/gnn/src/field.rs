//! Receptive fields: which rows and edges each detector layer computes.
//!
//! A target's score depends only on its `L`-hop in-neighbourhood, so a
//! layer need not produce every node of the batch — only the rows the next
//! layer (or, for the last layer, the head) reads. Walking back from the
//! targets: the last layer outputs the targets; each earlier layer outputs
//! the next layer's rows plus their in-neighbours. The tape's layer 0 reads
//! all rows of the input projection; the tape-free forward computes only
//! the rows layer 0 reads. DESIGN §4.5 explains why the pruned stack keeps
//! the all-rows stack's bits.

use std::rc::Rc;

use crate::batch::SubgraphBatch;
use crate::infer::at_least;

/// One layer's receptive field over a [`SubgraphBatch`], built by
/// [`Field::layers`] (or [`Field::all`]) and read by
/// [`crate::HetConvLayer::forward`].
///
/// Rows come in two numberings: *input rows* index the layer's input
/// matrix, *output rows* index its output (and `nodes`).
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The fields of a layer stack that feeds `batch.targets`, built once per
/// forward. The index lists are `Rc` so the tape shares them without a
/// copy; `Fields::rebuild` refills them in place, so a `Fields` kept
/// across calls stops allocating once it has grown to the batch.
#[derive(Debug, Clone, Default)]
pub struct Fields {
    /// One per layer, first layer first.
    layers: Vec<Field>,
    /// Batch-local node id of each of layer 0's input rows, ascending:
    /// the rows of the input projection.
    pub(crate) inputs: Vec<usize>,
    /// The row of each `batch.targets` entry in the last layer's output
    /// (in `inputs` for a stack without layers).
    pub(crate) target_rows: Rc<Vec<usize>>,
    /// Work areas, indexed by batch-local node id.
    marked: Vec<bool>,
    in_row: Vec<usize>,
    out_row: Vec<usize>,
}

/// Refills a list the tape may hold a clone of (copy-on-write) or, in a
/// reused `Fields`, only this one (in place).
fn refill(list: &mut Rc<Vec<usize>>, items: impl Iterator<Item = usize>) {
    let list = Rc::make_mut(list);
    list.clear();
    list.extend(items);
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

    /// The fields of an `n_layers` stack that feeds `batch.targets`, as the
    /// tape computes them: layer 0 reads all `n` input rows; layer `l > 0`
    /// reads layer `l - 1`'s output.
    pub fn layers(batch: &SubgraphBatch, n_layers: usize) -> Fields {
        let mut fields = Fields::default();
        fields.rebuild(batch, n_layers, true);
        fields
    }
}

impl Fields {
    /// `n_layers` copies of [`Field::all`] over all `n` input rows: the
    /// stack without pruning.
    pub fn all(batch: &SubgraphBatch, n_layers: usize) -> Fields {
        Fields {
            layers: vec![Field::all(batch); n_layers],
            inputs: (0..batch.n_nodes()).collect(),
            target_rows: Rc::new(batch.targets.clone()),
            ..Fields::default()
        }
    }

    /// The per-layer fields, first layer first.
    pub fn layers(&self) -> &[Field] {
        &self.layers
    }

    /// The row of each `batch.targets` entry in the stack's output.
    pub fn target_rows(&self) -> &[usize] {
        &self.target_rows
    }

    /// Rebuilds, in place, the fields of an `n_layers` stack that feeds
    /// `batch.targets`, back to front. Layer 0 reads every input row if
    /// `every_input` (the tape, which runs the type embedding and
    /// `input_proj` over all rows); otherwise only its output rows and its
    /// edges' sources.
    pub(crate) fn rebuild(&mut self, batch: &SubgraphBatch, n_layers: usize, every_input: bool) {
        let n = batch.n_nodes();
        at_least(&mut self.in_row, n);
        at_least(&mut self.out_row, n);
        let marked = at_least(&mut self.marked, n);
        self.layers.truncate(n_layers);
        self.layers.resize_with(n_layers, Field::default);

        // The stack's output: the deduplicated targets, or with no layers
        // the input rows themselves.
        let top = match self.layers.last_mut() {
            Some(last) => &mut last.nodes,
            None => &mut self.inputs,
        };
        top.clear();
        if n_layers == 0 && every_input {
            top.extend(0..n);
        } else {
            top.extend(&batch.targets);
            top.sort_unstable();
            top.dedup();
        }
        for (i, &v) in top.iter().enumerate() {
            self.out_row[v] = i;
        }
        refill(
            &mut self.target_rows,
            batch.targets.iter().map(|&v| self.out_row[v]),
        );

        for l in (0..n_layers).rev() {
            let (below, rest) = self.layers.split_at_mut(l);
            let field = &mut rest[0];
            marked.fill(false);
            for (i, &v) in field.nodes.iter().enumerate() {
                marked[v] = true;
                self.out_row[v] = i;
            }
            refill(
                &mut field.edges,
                (0..batch.n_edges()).filter(|&e| marked[batch.edge_dst[e]]),
            );
            // This layer's input: its output rows plus their in-neighbours,
            // or everything for the tape's layer 0.
            if l == 0 && every_input {
                marked.fill(true);
            }
            for &e in field.edges.iter() {
                marked[batch.edge_src[e]] = true;
            }
            let input = match below.last_mut() {
                Some(prev) => &mut prev.nodes,
                None => &mut self.inputs,
            };
            input.clear();
            input.extend((0..n).filter(|&v| marked[v]));
            for (i, &v) in input.iter().enumerate() {
                self.in_row[v] = i;
            }
            refill(
                &mut field.out_rows,
                field.nodes.iter().map(|&v| self.in_row[v]),
            );
            refill(
                &mut field.edge_src,
                field.edges.iter().map(|&e| self.in_row[batch.edge_src[e]]),
            );
            refill(
                &mut field.edge_dst,
                field.edges.iter().map(|&e| self.out_row[batch.edge_dst[e]]),
            );
        }
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
        assert_eq!(fields.layers()[1].nodes, vec![1, 3, 5]);
        assert_eq!(*fields.layers()[1].edges, vec![0, 1]);
        assert_eq!(fields.target_rows(), [1, 0, 1, 2]);
    }

    #[test]
    fn each_earlier_layer_adds_the_in_neighbours() {
        let b = chain();
        let fields = Field::layers(&b, 3);
        let fields = fields.layers();
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
        assert_eq!(fields.target_rows(), [1, 0]);
        let fields = fields.layers();
        assert_eq!(fields[1].nodes, vec![1, 2]);
        assert_eq!(*fields[1].edge_dst, vec![0]);
        assert_eq!(fields[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn a_duplicated_target_reads_one_row() {
        let b = batch(4, &[(0, 2), (1, 2)], &[2, 3, 2]);
        let fields = Field::layers(&b, 1);
        assert_eq!(fields.layers()[0].nodes, vec![2, 3]);
        assert_eq!(fields.target_rows(), [0, 1, 0]);
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
        let fields = fields.layers();
        assert!(fields[1].edges.len() < fields[0].edges.len());
        assert!(fields[0].edges.len() < batch.n_edges());
        assert!(fields[1].nodes.len() < fields[0].nodes.len());
        assert!(fields[0].nodes.len() < batch.n_nodes());
    }

    /// Without the tape's every-row input, layer 0 reads only its output
    /// rows and their in-neighbours, renumbered.
    #[test]
    fn pruned_inputs_are_the_rows_layer_0_reads() {
        let b = chain();
        let mut fields = Field::layers(&b, 2);
        fields.rebuild(&b, 2, false);
        // Layer 1 outputs {3} and reads {2, 3}; layer 0 outputs {2, 3} and
        // reads {1, 5} ∪ {2, 3}. Node 0 and node 4 feed nothing.
        assert_eq!(fields.inputs, vec![1, 2, 3, 5]);
        let f0 = &fields.layers()[0];
        assert_eq!(f0.nodes, vec![2, 3]);
        assert_eq!(*f0.out_rows, vec![1, 2]);
        assert_eq!(*f0.edges, vec![2, 3, 4]);
        assert_eq!(*f0.edge_src, vec![0, 3, 1]);
        assert_eq!(*f0.edge_dst, vec![0, 0, 1]);
        assert_eq!(fields.target_rows(), [0]);
        // Rebuilt in place, the tape's fields come back.
        fields.rebuild(&b, 2, true);
        let fresh = Field::layers(&b, 2);
        assert_eq!(fields.layers(), fresh.layers());
        assert_eq!(fields.inputs, fresh.inputs);
        assert_eq!(fields.target_rows(), fresh.target_rows());
    }

    /// A stack without layers reads the targets' own input rows.
    #[test]
    fn no_layers_reads_the_targets() {
        let b = chain();
        let fields = Field::layers(&b, 0);
        assert_eq!(fields.inputs, (0..6).collect::<Vec<_>>());
        let mut pruned = fields.clone();
        pruned.rebuild(&batch(6, &[], &[4, 1, 4]), 0, false);
        assert_eq!(pruned.inputs, vec![1, 4]);
        assert_eq!(pruned.target_rows(), [1, 0, 1]);
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
