use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xfraud_nn::{Ffn, Layer, Linear, ParamId, ParamStore, Session};
use xfraud_tensor::{Tensor, Var};

use crate::batch::SubgraphBatch;
use crate::detector::DetectorConfig;
use crate::model::{Masks, Model};

/// The GAT baseline of Table 3: homogeneous multi-head additive attention.
///
/// Identical plumbing to the detector but **type-blind** — one shared
/// attention vector pair per layer instead of per-node-type tables, no type
/// or edge-type embeddings, and the classic GAT LeakyReLU(0.2) on the raw
/// scores. The prediction head is the same FFN so the comparison isolates
/// the convolution.
pub struct GatModel {
    pub cfg: DetectorConfig,
    store: ParamStore,
    input_proj: Linear,
    layers: Vec<GatLayer>,
    head: Ffn,
}

struct GatLayer {
    w: Linear,
    att_src: ParamId,
    att_dst: ParamId,
    heads: usize,
    d_out: usize,
}

impl GatModel {
    pub fn new(cfg: DetectorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let input_proj = Linear::new(
            &mut store,
            "input_proj",
            cfg.feature_dim,
            cfg.hidden,
            true,
            &mut rng,
        );
        let layers = (0..cfg.layers)
            .map(|l| GatLayer {
                w: Linear::new(
                    &mut store,
                    &format!("gat{l}.w"),
                    cfg.hidden,
                    cfg.hidden,
                    false,
                    &mut rng,
                ),
                att_src: store.register(
                    format!("gat{l}.att_src"),
                    Tensor::rand_uniform(1, cfg.hidden, -0.1, 0.1, &mut rng),
                ),
                att_dst: store.register(
                    format!("gat{l}.att_dst"),
                    Tensor::rand_uniform(1, cfg.hidden, -0.1, 0.1, &mut rng),
                ),
                heads: cfg.heads,
                d_out: cfg.hidden,
            })
            .collect();
        let head = Ffn::new(
            &mut store,
            "head",
            cfg.hidden + cfg.feature_dim,
            cfg.hidden,
            2,
            2,
            cfg.dropout,
            &mut rng,
        );
        GatModel {
            cfg,
            store,
            input_proj,
            layers,
            head,
        }
    }
}

impl GatLayer {
    fn head_indicator(&self) -> Tensor {
        let d_k = self.d_out / self.heads;
        let mut ind = Tensor::zeros(self.d_out, self.heads);
        for i in 0..self.heads {
            for j in 0..d_k {
                ind.set(i * d_k + j, i, 1.0);
            }
        }
        ind
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "a layer forward takes the session, weights, batch, edge mask, dropout, mode and RNG as separate per-call inputs"
    )]
    fn forward(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        h: Var,
        batch: &SubgraphBatch,
        edge_mask: Option<Var>,
        dropout: f32,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let n = batch.n_nodes();
        let src = Rc::new(batch.edge_src.clone());
        let dst = Rc::new(batch.edge_dst.clone());
        let e = batch.n_edges();

        let wh = self.w.forward(sess, store, h); // [n, d]
        let wh_src = sess.tape.gather_rows(wh, Rc::clone(&src));
        let wh_dst = sess.tape.gather_rows(wh, Rc::clone(&dst));

        // Shared attention vectors broadcast to every edge via a zero-index
        // gather (the table has a single row).
        let zero_ids = Rc::new(vec![0usize; e]);
        let a_src_table = sess.param(store, self.att_src);
        let a_dst_table = sess.param(store, self.att_dst);
        let a_src = sess.tape.gather_rows(a_src_table, Rc::clone(&zero_ids));
        let a_dst = sess.tape.gather_rows(a_dst_table, zero_ids);

        let ss = sess.tape.mul(wh_src, a_src);
        let sd = sess.tape.mul(wh_dst, a_dst);
        let s = sess.tape.add(ss, sd);
        let ind = sess.constant(self.head_indicator());
        let scores = sess.tape.matmul(s, ind); // [E, h]
        let mut scores = sess.tape.leaky_relu(scores, 0.2);

        // GNNExplainer log-mask on attention (see HetConvLayer).
        if let Some(mask) = edge_mask {
            let lm = sess.tape.log_eps(mask, 1e-6);
            let ones = sess.constant(Tensor::full(1, self.heads, 1.0));
            let lm_b = sess.tape.matmul(lm, ones);
            scores = sess.tape.add(scores, lm_b);
        }

        let alpha = sess.tape.segment_softmax(scores, Rc::clone(&dst), n);
        let alpha = if train && dropout > 0.0 {
            sess.tape.dropout(alpha, dropout, rng)
        } else {
            alpha
        };
        let ind_t = sess.constant(self.head_indicator().transpose());
        let alpha_blocks = sess.tape.matmul(alpha, ind_t);
        let mut msg = sess.tape.mul(wh_src, alpha_blocks);
        if let Some(mask) = edge_mask {
            msg = sess.tape.mul_col(msg, mask);
        }
        let agg = sess.tape.segment_sum(msg, dst, n);
        let out = sess.tape.add(agg, h); // residual
        sess.tape.relu(out)
    }
}

impl Model for GatModel {
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
        let mut h = self.input_proj.forward(sess, &self.store, x);
        for layer in &self.layers {
            h = layer.forward(
                sess,
                &self.store,
                h,
                batch,
                masks.edge_mask,
                self.cfg.dropout,
                train,
                rng,
            );
        }
        let tgt = Rc::new(batch.targets.clone());
        let h_t = sess.tape.gather_rows(h, Rc::clone(&tgt));
        let h_t = sess.tape.tanh(h_t);
        let x_t = sess.tape.gather_rows(x, tgt);
        let cat = sess.tape.concat_cols(&[h_t, x_t]);
        self.head.forward(sess, &self.store, cat, train, rng)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn name(&self) -> &'static str {
        "gat"
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
        let f0 = b.add_txn([2.0, -2.0, 0.1, 0.0], Some(true));
        let b0 = b.add_txn([-2.0, 2.0, 0.1, 0.0], Some(false));
        let p = b.add_entity(NodeType::Pmt);
        b.link(f0, p).unwrap();
        b.link(b0, p).unwrap();
        let g = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        FullGraphSampler.sample(&g, &[0, 1], &mut rng)
    }

    #[test]
    fn gat_trains_on_separable_toy() {
        let mut model = GatModel::new(DetectorConfig::small(4, 3));
        let batch = toy_batch();
        let mut opt = AdamW::new(5e-3);
        let mut rng = StdRng::seed_from_u64(1);
        let first = train_step(&mut model, &batch, &mut opt, &mut rng);
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut model, &batch, &mut opt, &mut rng);
        }
        assert!(last < first * 0.6, "{first} → {last}");
        let s = predict_scores(&model, &batch, &mut rng);
        assert!(s[0] > s[1]);
    }
}
