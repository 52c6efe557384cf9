use std::rc::Rc;

use rand::rngs::StdRng;

use xfraud_nn::{AdamW, ParamStore, Session};
use xfraud_tensor::{softmax_rows, Var};

use crate::batch::SubgraphBatch;

/// Explainer hooks threaded through every model's forward pass.
///
/// * `edge_mask` — `[n_edges, 1]`, already squashed to `(0,1)`; multiplies
///   each edge's message before aggregation (how GNNExplainer soft-removes
///   edges).
/// * `feature_mask` — `[n_nodes, F]`, already squashed; multiplies the input
///   features (the extended per-node feature masks of Appendix D).
#[derive(Default, Clone, Copy)]
pub struct Masks {
    pub edge_mask: Option<Var>,
    pub feature_mask: Option<Var>,
}

impl Masks {
    pub fn none() -> Self {
        Masks::default()
    }
}

/// A trainable node-classification model over [`SubgraphBatch`]es.
pub trait Model {
    /// Builds the forward computation and returns target logits `[n_targets, 2]`.
    fn forward(
        &self,
        sess: &mut Session,
        batch: &SubgraphBatch,
        train: bool,
        rng: &mut StdRng,
        masks: &Masks,
    ) -> Var;

    /// Fraud probabilities for the batch targets (softmax column 1), eval
    /// mode. The default runs [`Model::forward`] on a fresh tape; a model
    /// may override it with a cheaper evaluation of the same function.
    fn predict(&self, batch: &SubgraphBatch, rng: &mut StdRng) -> Vec<f32> {
        predict_on_tape(self, batch, rng)
    }

    fn store(&self) -> &ParamStore;

    fn store_mut(&mut self) -> &mut ParamStore;

    fn name(&self) -> &'static str;
}

/// Eval-mode scores through the autodiff tape — the reference every
/// [`Model::predict`] override must match to the bit.
pub(crate) fn predict_on_tape<M: Model + ?Sized>(
    model: &M,
    batch: &SubgraphBatch,
    rng: &mut StdRng,
) -> Vec<f32> {
    let mut sess = Session::new();
    let logits = model.forward(&mut sess, batch, false, rng, &Masks::none());
    let probs = softmax_rows(sess.tape.value(logits));
    (0..probs.rows()).map(|r| probs.get(r, 1)).collect()
}

/// One optimisation step: forward → cross-entropy on the batch targets →
/// backward → AdamW. Returns the scalar loss.
pub fn train_step<M: Model>(
    model: &mut M,
    batch: &SubgraphBatch,
    opt: &mut AdamW,
    rng: &mut StdRng,
) -> f32 {
    debug_assert!(!batch.targets.is_empty(), "train_step on an empty batch");
    let mut sess = Session::new();
    let logits = model.forward(&mut sess, batch, true, rng, &Masks::none());
    let loss = sess
        .tape
        .softmax_cross_entropy(logits, Rc::new(batch.labels.clone()));
    let loss_value = sess.tape.value(loss).item();
    let grads = sess.backward(loss);
    opt.step(model.store_mut(), &grads);
    loss_value
}

/// Computes gradients for one batch *without* applying them — the DDP
/// simulator averages these across workers before stepping.
pub fn grad_step<M: Model>(
    model: &M,
    batch: &SubgraphBatch,
    rng: &mut StdRng,
) -> (f32, Vec<(xfraud_nn::ParamId, xfraud_tensor::Tensor)>) {
    let mut sess = Session::new();
    let logits = model.forward(&mut sess, batch, true, rng, &Masks::none());
    let loss = sess
        .tape
        .softmax_cross_entropy(logits, Rc::new(batch.labels.clone()));
    let loss_value = sess.tape.value(loss).item();
    let grads = sess.backward(loss);
    (loss_value, grads)
}

/// All-reduce of synchronous data parallelism: element-wise average of the
/// per-worker gradient sets, keyed by parameter index. Parameters missing
/// from some workers (inactive replicas) are averaged over the *active*
/// count, matching the behaviour of averaging only over workers that
/// produced a gradient this step. The map is a `BTreeMap` so the in-place
/// scaling pass (and any future iteration) runs in parameter-index order —
/// hash-order iteration here would not change values today, but the
/// determinism contract (D1) forbids relying on that.
pub fn average_grads(
    sets: &[Vec<(xfraud_nn::ParamId, xfraud_tensor::Tensor)>],
) -> std::collections::BTreeMap<usize, xfraud_tensor::Tensor> {
    let n = sets.len().max(1) as f32;
    let mut avg: std::collections::BTreeMap<usize, xfraud_tensor::Tensor> =
        std::collections::BTreeMap::new();
    for set in sets {
        for (id, gt) in set {
            avg.entry(id.index())
                .and_modify(|t| {
                    #[expect(clippy::expect_used, reason = "all workers run the same model, so per-id grad shapes match by construction")]
                    t.add_assign(gt).expect("same shape");
                })
                .or_insert_with(|| gt.clone());
        }
    }
    for t in avg.values_mut() {
        t.scale_assign(1.0 / n);
    }
    avg
}

/// Fraud probabilities for the batch targets (softmax column 1), eval mode.
pub fn predict_scores<M: Model>(model: &M, batch: &SubgraphBatch, rng: &mut StdRng) -> Vec<f32> {
    model.predict(batch, rng)
}
