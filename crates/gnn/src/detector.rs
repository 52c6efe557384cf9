use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xfraud_hetgraph::ALL_NODE_TYPES;
use xfraud_nn::{Embedding, Ffn, Layer, Linear, ParamStore, Session};
use xfraud_tensor::{kernels, Var};

use crate::batch::SubgraphBatch;
use crate::field::{Field, Fields};
use crate::hetconv::HetConvLayer;
use crate::infer::{at_least, with_arena, Work};
use crate::model::{predict_on_tape, Masks, Model};

/// Hyper-parameters of the detector. The paper trains with
/// `n_hid=400, n_heads=8, n_layers=6, dropout=0.2` (Appendix C); the default
/// here is a proportionally smaller configuration suited to the simulated
/// datasets — pass your own for the full-size model.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    pub feature_dim: usize,
    pub hidden: usize,
    pub heads: usize,
    pub layers: usize,
    pub dropout: f32,
    /// HGT-style per-node-type K/Q/V projections instead of the paper's
    /// shared ones — kept for the §3.2.1 ablation ("we see a better
    /// performance ... when shared weights among different types of nodes
    /// are used").
    pub per_type_projections: bool,
    pub seed: u64,
}

impl DetectorConfig {
    pub fn small(feature_dim: usize, seed: u64) -> Self {
        DetectorConfig {
            feature_dim,
            hidden: 64,
            heads: 4,
            layers: 2,
            dropout: 0.2,
            per_type_projections: false,
            seed,
        }
    }

    /// The paper's Appendix-C configuration.
    pub fn paper(feature_dim: usize, seed: u64) -> Self {
        DetectorConfig {
            feature_dim,
            hidden: 400,
            heads: 8,
            layers: 6,
            dropout: 0.2,
            per_type_projections: false,
            seed,
        }
    }
}

/// The xFraud detector (§3.2.1, Fig. 4 left).
///
/// Architecture, following the paper step by step:
///
/// 1. input = transaction features (zero for entities) + **node-type
///    embeddings** (zero-initialised, eq. 2/4/6), linearly projected to the
///    hidden width;
/// 2. `L` heterogeneous convolution layers ([`HetConvLayer`]) with
///    per-target softmax attention, attention dropout and ReLU between
///    layers; edge-type embeddings enter at layer 1 only;
/// 3. a `tanh` over the final GNN representation of each target transaction,
///    **concatenated with its original features**, into a feed-forward head
///    with two hidden layers (dropout → layer norm → ReLU) emitting class
///    logits; the loss is softmax cross-entropy (eq. 11).
///
/// Whether this instance behaves as *detector* (HGT) or *detector+* depends
/// only on which [`crate::Sampler`] feeds it (§3.2.3).
#[derive(Clone)]
pub struct XFraudDetector {
    pub cfg: DetectorConfig,
    store: ParamStore,
    type_emb: Embedding,
    input_proj: Linear,
    convs: Vec<HetConvLayer>,
    head: Ffn,
}

impl XFraudDetector {
    pub fn new(cfg: DetectorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        // "(1) the node type embeddings ... with zero weights" (§3.2.2).
        let type_emb = Embedding::zeros(
            &mut store,
            "type_emb",
            ALL_NODE_TYPES.len(),
            cfg.feature_dim,
        );
        let input_proj = Linear::new(
            &mut store,
            "input_proj",
            cfg.feature_dim,
            cfg.hidden,
            true,
            &mut rng,
        );
        let convs = (0..cfg.layers)
            .map(|l| {
                HetConvLayer::with_projections(
                    &mut store,
                    &format!("conv{l}"),
                    cfg.hidden,
                    cfg.hidden,
                    cfg.heads,
                    cfg.dropout,
                    l == 0,
                    cfg.per_type_projections,
                    &mut rng,
                )
            })
            .collect();
        let head = Ffn::new(
            &mut store,
            "head",
            cfg.hidden + cfg.feature_dim,
            cfg.hidden,
            2, // "two hidden layers" (§3.2.1 step 3)
            2,
            cfg.dropout,
            &mut rng,
        );
        XFraudDetector {
            cfg,
            store,
            type_emb,
            input_proj,
            convs,
            head,
        }
    }

    /// The scores of [`Model::predict`], computed over the given fields
    /// instead of the targets' own: over [`Fields::all`] every layer
    /// computes every row, the unpruned reference the pruned scores are
    /// tested against. Scores on the tape (which ignores `fields`) where
    /// `predict` does.
    pub fn predict_over(&self, batch: &SubgraphBatch, fields: &Fields) -> Vec<f32> {
        if !self.convs.iter().all(HetConvLayer::can_infer) {
            return predict_on_tape(self, batch, &mut StdRng::seed_from_u64(0));
        }
        with_arena(|arena| self.infer(batch, fields, &mut arena.work))
    }

    /// The tape-free eval-mode forward over `fields`, which must hold one
    /// field per layer.
    fn infer(&self, batch: &SubgraphBatch, fields: &Fields, work: &mut Work) -> Vec<f32> {
        let (f, d) = (self.cfg.feature_dim, self.cfg.hidden);
        let n_in = fields.inputs.len();
        let x = at_least(&mut work.x, n_in * f);
        let mut h = at_least(&mut work.h, n_in * d);
        let mut h_next = at_least(&mut work.h_next, n_in * d);

        // eq. 2: X + τ(v)^emb, on the input projection's rows only.
        let type_emb = self.store.value(self.type_emb.table);
        let embed = |v: usize, out: &mut [f32]| {
            let feat = &batch.features.data()[v * f..(v + 1) * f];
            let emb = type_emb.row(batch.node_types[v].index());
            for ((o, &a), &b) in out.iter_mut().zip(feat).zip(emb) {
                *o = a + b;
            }
        };
        for (row, &v) in x.chunks_exact_mut(f).zip(&fields.inputs) {
            embed(v, row);
        }

        // Every layer's output rows are a subset of layer 0's input rows,
        // so `h` and `h_next` are sized once and used by prefix.
        self.input_proj.apply_into(&self.store, x, h);
        let mut rows = n_in;
        for (conv, field) in self.convs.iter().zip(fields.layers()) {
            let n_out = field.nodes.len();
            conv.infer(
                &self.store,
                &h[..rows * d],
                batch,
                field,
                &mut work.conv,
                &mut h_next[..n_out * d],
            );
            std::mem::swap(&mut h, &mut h_next);
            rows = n_out;
        }

        // §3.2.1 step 3: tanh(GNN repr) ++ original features → FFN head.
        let t = batch.targets.len();
        let cat = at_least(&mut work.cat, t * (d + f));
        for ((row, &tgt), &r) in cat
            .chunks_exact_mut(d + f)
            .zip(&batch.targets)
            .zip(fields.target_rows())
        {
            let (h_t, x_t) = row.split_at_mut(d);
            for (o, &a) in h_t.iter_mut().zip(&h[r * d..(r + 1) * d]) {
                *o = a.tanh();
            }
            embed(tgt, x_t);
        }
        let logits = at_least(&mut work.logits, t * 2);
        let probs = at_least(&mut work.probs, t * 2);
        let [tmp0, tmp1] = &mut work.head_tmp;
        let tmp = [at_least(tmp0, t * d), at_least(tmp1, t * d)];
        self.head.apply_into(&self.store, cat, tmp, logits);
        kernels::softmax_rows_into(logits, 2, probs);
        probs.chunks_exact(2).map(|p| p[1]).collect()
    }
}

impl Model for XFraudDetector {
    fn forward(
        &self,
        sess: &mut Session,
        batch: &SubgraphBatch,
        train: bool,
        rng: &mut StdRng,
        masks: &Masks,
    ) -> Var {
        let mut x = sess.constant(batch.features.clone());
        if let Some(fmask) = masks.feature_mask {
            x = sess.tape.mul(x, fmask);
        }
        // eq. 2: X + τ(v)^emb.
        let type_ids: Vec<usize> = batch.node_types.iter().map(|t| t.index()).collect();
        let temb = self.type_emb.forward_ids(sess, &self.store, &type_ids);
        let x = sess.tape.add(x, temb);

        // Each layer computes only the rows the next one reads (DESIGN §4.5).
        let fields = Field::layers(batch, self.convs.len());
        let mut h = self.input_proj.forward(sess, &self.store, x);
        for (conv, field) in self.convs.iter().zip(fields.layers()) {
            h = conv.forward(
                sess,
                &self.store,
                h,
                batch,
                field,
                masks.edge_mask,
                train,
                rng,
            );
        }

        // §3.2.1 step 3: tanh(GNN repr) ++ original features → FFN head.
        let tgt = Rc::new(batch.targets.clone());
        let h_t = sess.tape.gather_rows(h, Rc::clone(&fields.target_rows));
        let h_t = sess.tape.tanh(h_t);
        let x_t = sess.tape.gather_rows(x, tgt);
        let cat = sess.tape.concat_cols(&[h_t, x_t]);
        self.head.forward(sess, &self.store, cat, train, rng)
    }

    /// Tape-free scoring: the same arithmetic as `forward` in eval mode
    /// (same kernels, same operation order, hence the same bits) over a
    /// per-thread scratch arena, with weights read from the store in place
    /// — a swapped or retrained store is picked up by the next call. Only
    /// the targets' receptive fields are computed, down to the rows of the
    /// input projection (DESIGN §4.5). The per-type-projection ablation has
    /// no fast path and scores on the tape.
    fn predict(&self, batch: &SubgraphBatch, rng: &mut StdRng) -> Vec<f32> {
        if !self.convs.iter().all(HetConvLayer::can_infer) {
            return predict_on_tape(self, batch, rng);
        }
        with_arena(|arena| {
            arena.fields.rebuild(batch, self.convs.len(), false);
            self.infer(batch, &arena.fields, &mut arena.work)
        })
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn name(&self) -> &'static str {
        "xfraud-detector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{predict_scores, train_step};
    use crate::sampler::{FullGraphSampler, Sampler};
    use xfraud_hetgraph::{GraphBuilder, NodeType};
    use xfraud_nn::AdamW;

    fn toy_batch() -> SubgraphBatch {
        let mut b = GraphBuilder::new(4);
        // Frauds share a payment token with strong feature signal.
        let f0 = b.add_txn([2.0, -2.0, 0.1, 0.0], Some(true));
        let f1 = b.add_txn([1.8, -1.6, 0.0, 0.2], Some(true));
        let b0 = b.add_txn([-2.0, 2.0, 0.1, 0.0], Some(false));
        let b1 = b.add_txn([-1.7, 1.9, 0.2, 0.1], Some(false));
        let bad_pmt = b.add_entity(NodeType::Pmt);
        let good_addr = b.add_entity(NodeType::Addr);
        b.link(f0, bad_pmt).unwrap();
        b.link(f1, bad_pmt).unwrap();
        b.link(b0, good_addr).unwrap();
        b.link(b1, good_addr).unwrap();
        let g = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        FullGraphSampler.sample(&g, &[0, 1, 2, 3], &mut rng)
    }

    #[test]
    fn detector_output_shape() {
        let det = XFraudDetector::new(DetectorConfig::small(4, 1));
        let batch = toy_batch();
        let mut rng = StdRng::seed_from_u64(1);
        let scores = predict_scores(&det, &batch, &mut rng);
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn detector_overfits_a_separable_toy() {
        let mut det = XFraudDetector::new(DetectorConfig::small(4, 2));
        let batch = toy_batch();
        let mut opt = AdamW::new(5e-3);
        let mut rng = StdRng::seed_from_u64(2);
        let first_loss = train_step(&mut det, &batch, &mut opt, &mut rng);
        let mut last = first_loss;
        for _ in 0..80 {
            last = train_step(&mut det, &batch, &mut opt, &mut rng);
        }
        assert!(
            last < first_loss * 0.5,
            "loss should at least halve: {first_loss} → {last}"
        );
        let scores = predict_scores(&det, &batch, &mut rng);
        assert!(
            scores[0] > scores[2],
            "fraud must outscore benign: {scores:?}"
        );
        assert!(scores[1] > scores[3]);
    }

    #[test]
    fn per_type_projection_variant_trains_and_costs_more_params() {
        let shared = XFraudDetector::new(DetectorConfig::small(4, 2));
        let mut per_type = XFraudDetector::new(DetectorConfig {
            per_type_projections: true,
            ..DetectorConfig::small(4, 2)
        });
        assert!(
            per_type.store().n_scalars() > shared.store().n_scalars(),
            "per-type K/Q/V must add parameters"
        );
        let batch = toy_batch();
        let mut opt = AdamW::new(5e-3);
        let mut rng = StdRng::seed_from_u64(2);
        let first = train_step(&mut per_type, &batch, &mut opt, &mut rng);
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut per_type, &batch, &mut opt, &mut rng);
        }
        assert!(
            last < first * 0.6,
            "per-type variant failed to train: {first} → {last}"
        );
    }

    #[test]
    fn detector_is_seed_deterministic() {
        let a = XFraudDetector::new(DetectorConfig::small(4, 5));
        let b = XFraudDetector::new(DetectorConfig::small(4, 5));
        assert_eq!(a.store().max_param_diff(b.store()), 0.0);
        let c = XFraudDetector::new(DetectorConfig::small(4, 6));
        assert!(a.store().max_param_diff(c.store()) > 0.0);
    }
}
