use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::kernels;
use crate::ops::{self, Op};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
///
/// `Var`s are only meaningful for the tape that produced them; mixing handles
/// across tapes is a programmer error caught by `debug_assert`s on indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
    /// Whether a gradient of this node can reach a `requires_grad` leaf:
    /// a leaf's own flag, an op's OR over its inputs.
    pub needs_grad: bool,
}

/// A reverse-mode autodiff tape (Wengert list).
///
/// One tape is built per forward pass; [`Tape::backward`] then walks the list
/// once in reverse, accumulating gradients into every node that leads to a
/// `requires_grad` leaf and doing no work for the rest. Parameters live
/// *outside* the tape (see `xfraud-nn`) and are re-inserted as leaves each
/// step, so the tape can simply be dropped after the optimizer update.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = op.needs_grad(|v| self.nodes[v.0].needs_grad);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Inserts a leaf tensor. Only leaves inserted with `requires_grad` get
    /// a gradient from [`Tape::backward`]; a `false` leaf is a constant, and
    /// an op whose inputs are all constants is one too, so backward computes
    /// nothing into or through them.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf(requires_grad))
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient the last [`Tape::backward`] accumulated into a
    /// `requires_grad` leaf. `None` for constants, for leaves the loss does
    /// not depend on, and for every op node: backward consumes their
    /// gradients as it propagates them.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    pub(crate) fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    // ---- differentiable ops -------------------------------------------------

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        debug_assert_eq!(va.cols(), vb.rows(), "matmul shape mismatch");
        let out = va.matmul_unchecked(vb);
        self.push(out, Op::MatMul(a, b))
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0]
            .value
            .zip_map(&self.nodes[b.0].value, |x, y| x + y);
        self.push(out, Op::Add(a, b))
    }

    /// `a [n,d] + b [1,d]`, broadcasting `b` over rows (bias add).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        debug_assert_eq!(vb.rows(), 1);
        debug_assert_eq!(va.cols(), vb.cols());
        let mut out = va.clone();
        for r in 0..out.rows() {
            for (o, &x) in out.row_mut(r).iter_mut().zip(vb.row(0)) {
                *o += x;
            }
        }
        self.push(out, Op::AddRowBroadcast(a, b))
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0]
            .value
            .zip_map(&self.nodes[b.0].value, |x, y| x - y);
        self.push(out, Op::Sub(a, b))
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0]
            .value
            .zip_map(&self.nodes[b.0].value, |x, y| x * y);
        self.push(out, Op::Mul(a, b))
    }

    /// `a [n,d] * b [n,1]`, broadcasting `b` over columns.
    ///
    /// This is how per-edge attention scalars and explainer edge masks are
    /// applied to per-edge message rows.
    pub fn mul_col(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        debug_assert_eq!(vb.cols(), 1);
        debug_assert_eq!(va.rows(), vb.rows());
        let mut out = va.clone();
        for r in 0..out.rows() {
            let s = vb.get(r, 0);
            for o in out.row_mut(r) {
                *o *= s;
            }
        }
        self.push(out, Op::MulColBroadcast(a, b))
    }

    /// `a * s` for a scalar constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let out = self.nodes[a.0].value.map(|x| x * s);
        self.push(out, Op::Scale(a, s))
    }

    /// `a + c` for a scalar constant.
    pub fn add_const(&mut self, a: Var, c: f32) -> Var {
        let out = self.nodes[a.0].value.map(|x| x + c);
        self.push(out, Op::AddConst(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.map(kernels::relu);
        self.push(out, Op::Relu(a))
    }

    /// Leaky ReLU with the given negative slope (GAT uses 0.2).
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let out = self.nodes[a.0]
            .value
            .map(|x| if x > 0.0 { x } else { slope * x });
        self.push(out, Op::LeakyRelu(a, slope))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.map(f32::tanh);
        self.push(out, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.map(ops::sigmoid);
        self.push(out, Op::Sigmoid(a))
    }

    /// `ln(a + eps)` — used by the explainer's entropy regularisers.
    pub fn log_eps(&mut self, a: Var, eps: f32) -> Var {
        let out = self.nodes[a.0].value.map(|x| (x + eps).ln());
        self.push(out, Op::LogEps(a, eps))
    }

    /// Inverted dropout: each element is zeroed with probability `p` and the
    /// survivors are scaled by `1/(1-p)`. The mask is sampled here so the
    /// backward pass reuses it exactly. The all-rows case of
    /// [`Tape::dropout_rows`].
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut StdRng) -> Var {
        let n = self.nodes[a.0].value.rows();
        let all: Vec<usize> = (0..n).collect();
        self.dropout_rows(a, p, &all, n, rng)
    }

    /// Dropout on a row subset: `a` holds rows `rows` (strictly ascending)
    /// of an `[n_rows, cols]` input. The mask is drawn for the whole input,
    /// row-major, and only the kept rows' entries are applied, so `a` gets
    /// exactly the entries a full-input dropout would give those rows and
    /// `rng` ends in the same state.
    pub fn dropout_rows(
        &mut self,
        a: Var,
        p: f32,
        rows: &[usize],
        n_rows: usize,
        rng: &mut StdRng,
    ) -> Var {
        debug_assert!((0.0..1.0).contains(&p));
        if p == 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let va = &self.nodes[a.0].value;
        debug_assert_eq!(va.rows(), rows.len());
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]) && rows.iter().all(|&r| r < n_rows));
        let mut mask = Vec::with_capacity(va.len());
        let mut kept = rows.iter().peekable();
        for r in 0..n_rows {
            let is_kept = kept.next_if_eq(&&r).is_some();
            for _ in 0..va.cols() {
                let m = if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
                if is_kept {
                    mask.push(m);
                }
            }
        }
        let mask = Rc::new(mask);
        let mut out = va.clone();
        for (o, &m) in out.data_mut().iter_mut().zip(mask.iter()) {
            *o *= m;
        }
        self.push(out, Op::Dropout(a, mask))
    }

    /// Column-wise concatenation of several matrices with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|v| self.nodes[v.0].value.cols()).sum();
        let mut out = Tensor::zeros(rows, total);
        let mut off = 0;
        for v in parts {
            let t = &self.nodes[v.0].value;
            debug_assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            for r in 0..rows {
                let src = t.row(r);
                out.row_mut(r)[off..off + src.len()].copy_from_slice(src);
            }
            off += t.cols();
        }
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Row gather: `out[i] = a[idx[i]]`. Backward scatter-adds.
    ///
    /// This is the edge-endpoint lookup of message passing: `idx` holds the
    /// source (or target) node id of every edge.
    pub fn gather_rows(&mut self, a: Var, idx: Rc<Vec<usize>>) -> Var {
        let va = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(idx.len(), va.cols());
        for (r, &i) in idx.iter().enumerate() {
            debug_assert!(i < va.rows(), "gather index out of bounds");
            out.row_mut(r).copy_from_slice(va.row(i));
        }
        self.push(out, Op::GatherRows(a, idx))
    }

    /// Segment sum: `out[s] = Σ_{i: seg[i]==s} a[i]` with `n_segments` output
    /// rows. This is the `Aggregate` of eq. 1 — summing messages into their
    /// target nodes.
    pub fn segment_sum(&mut self, a: Var, seg: Rc<Vec<usize>>, n_segments: usize) -> Var {
        let va = &self.nodes[a.0].value;
        debug_assert_eq!(va.rows(), seg.len());
        let mut out = Tensor::zeros(n_segments, va.cols());
        kernels::segment_sum_into(va.data(), &seg, va.cols(), out.data_mut());
        self.push(out, Op::SegmentSum(a, seg))
    }

    /// Per-segment, per-column softmax (eq. 9): within each segment `s`, each
    /// column of `a` is normalised as `exp(x - max) / Σ exp`. Rows whose
    /// segment has a single member become exactly 1.
    pub fn segment_softmax(&mut self, a: Var, seg: Rc<Vec<usize>>, n_segments: usize) -> Var {
        let va = &self.nodes[a.0].value;
        debug_assert_eq!(va.rows(), seg.len());
        let out = ops::segment_softmax_forward(va, &seg, n_segments);
        self.push(out, Op::SegmentSoftmax(a, seg, n_segments))
    }

    /// Row-wise layer normalisation with learnable gain `[1,d]` and bias
    /// `[1,d]`: `y = gain * (x - μ)/σ + bias`.
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let vx = &self.nodes[x.0].value;
        let vg = &self.nodes[gain.0].value;
        let vb = &self.nodes[bias.0].value;
        let out = ops::layer_norm_forward(vx, vg, vb, eps);
        self.push(out, Op::LayerNorm(x, gain, bias, eps))
    }

    /// Sum of all elements, as a `[1,1]` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        self.push(Tensor::scalar(s), Op::SumAll(a))
    }

    /// Mean of all elements, as a `[1,1]` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = self.nodes[a.0].value.mean();
        self.push(Tensor::scalar(m), Op::MeanAll(a))
    }

    /// Mean softmax cross-entropy of row logits against integer labels.
    ///
    /// `logits` is `[n, k]`; `labels[i] ∈ 0..k`. Output is a `[1,1]` scalar.
    /// This is the detector loss (eq. 11 of the appendix).
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: Rc<Vec<usize>>) -> Var {
        let vl = &self.nodes[logits.0].value;
        debug_assert_eq!(vl.rows(), labels.len());
        let loss = ops::cross_entropy_forward(vl, &labels);
        self.push(
            Tensor::scalar(loss),
            Op::SoftmaxCrossEntropy(logits, labels),
        )
    }

    // ---- backward -----------------------------------------------------------

    /// Runs reverse-mode accumulation from a scalar `[1,1]` node.
    ///
    /// Only nodes with a path to a `requires_grad` leaf are visited, and an
    /// op propagates only into the inputs that have one. A node that needs
    /// a gradient receives it only from consumers that need one too, in the
    /// same reverse order as a full sweep, so its bits do not depend on the
    /// work skipped elsewhere.
    ///
    /// # Panics
    /// Panics if `seed` is not a scalar.
    pub fn backward(&mut self, seed: Var) {
        assert_eq!(
            self.nodes[seed.0].value.shape(),
            (1, 1),
            "backward seed must be a scalar loss"
        );
        for node in &mut self.nodes {
            node.grad = None;
        }
        self.accumulate_grad(seed, Tensor::scalar(1.0));
        for i in (0..self.nodes.len()).rev() {
            let node = &mut self.nodes[i];
            if matches!(node.op, Op::Leaf(_)) {
                continue;
            }
            let Some(g) = node.grad.take() else {
                continue;
            };
            ops::backward_step(self, i, g);
        }
    }

    /// Adds `delta` into `v`'s gradient; dropped if `v` needs none.
    pub(crate) fn accumulate_grad(&mut self, v: Var, delta: Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign_unchecked(&delta),
            slot @ None => *slot = Some(delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_grad_is_the_or_of_the_inputs() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0), true);
        let c = tape.leaf(Tensor::scalar(5.0), false);
        let d = tape.leaf(Tensor::scalar(7.0), false);
        let cd = tape.matmul(c, d);
        let cd = tape.relu(cd);
        let both = tape.concat_cols(&[cd, x]);
        let xc = tape.add(x, cd);
        assert!(tape.needs_grad(x));
        assert!(!tape.needs_grad(c));
        assert!(!tape.needs_grad(cd));
        assert!(tape.needs_grad(both));
        assert!(tape.needs_grad(xc));
    }
}
