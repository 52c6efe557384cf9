//! Operation records and their backward rules.
//!
//! Every differentiable op stores just enough (input handles plus small
//! constants/masks) to replay its vector-Jacobian product. Input *values*
//! are read back from the tape, so nothing is cached twice.

use std::rc::Rc;

use crate::kernels;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

pub(crate) enum Op {
    /// A leaf; the flag is its `requires_grad`.
    Leaf(bool),
    MatMul(Var, Var),
    Add(Var, Var),
    AddRowBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    AddConst(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Tanh(Var),
    Sigmoid(Var),
    LogEps(Var, f32),
    Dropout(Var, Rc<Vec<f32>>),
    ConcatCols(Vec<Var>),
    GatherRows(Var, Rc<Vec<usize>>),
    SegmentSum(Var, Rc<Vec<usize>>),
    SegmentSoftmax(Var, Rc<Vec<usize>>, usize),
    LayerNorm(Var, Var, Var, f32),
    SumAll(Var),
    MeanAll(Var),
    SoftmaxCrossEntropy(Var, Rc<Vec<usize>>),
}

impl Op {
    /// The `needs_grad` bit of the node this op produces, given its inputs'
    /// bits: a leaf's flag, otherwise whether any input needs a gradient.
    pub(crate) fn needs_grad(&self, input: impl Fn(Var) -> bool) -> bool {
        match self {
            Op::Leaf(requires_grad) => *requires_grad,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulColBroadcast(a, b) => input(*a) || input(*b),
            Op::Scale(a, _)
            | Op::AddConst(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::LogEps(a, _)
            | Op::Dropout(a, _)
            | Op::GatherRows(a, _)
            | Op::SegmentSum(a, _)
            | Op::SegmentSoftmax(a, _, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SoftmaxCrossEntropy(a, _) => input(*a),
            Op::ConcatCols(parts) => parts.iter().any(|&v| input(v)),
            Op::LayerNorm(x, gain, bias, _) => input(*x) || input(*gain) || input(*bias),
        }
    }
}

#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

pub(crate) fn segment_softmax_forward(a: &Tensor, seg: &[usize], n_segments: usize) -> Tensor {
    let cols = a.cols();
    let mut out = Tensor::zeros(a.rows(), cols);
    let mut seg_max = vec![0.0; n_segments * cols];
    let mut seg_sum = vec![0.0; n_segments * cols];
    kernels::segment_softmax_into(
        a.data(),
        seg,
        cols,
        &mut seg_max,
        &mut seg_sum,
        out.data_mut(),
    );
    out
}

pub(crate) fn layer_norm_forward(x: &Tensor, gain: &Tensor, bias: &Tensor, eps: f32) -> Tensor {
    debug_assert_eq!(gain.shape(), (1, x.cols()));
    debug_assert_eq!(bias.shape(), (1, x.cols()));
    let mut out = Tensor::zeros(x.rows(), x.cols());
    kernels::layer_norm_into(x.data(), gain.data(), bias.data(), eps, out.data_mut());
    out
}

pub(crate) fn cross_entropy_forward(logits: &Tensor, labels: &[usize]) -> f32 {
    let n = logits.rows();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for (r, &y) in labels.iter().enumerate() {
        let row = logits.row(r);
        debug_assert!(y < row.len(), "label out of range");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        total += lse - row[y];
    }
    total / n as f32
}

/// Softmax of each row (non-differentiable helper used by both the forward
/// pass here and prediction code elsewhere).
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(logits.rows(), logits.cols());
    kernels::softmax_rows_into(logits.data(), logits.cols(), out.data_mut());
    out
}

/// Propagates `g`, the gradient of node `i`, into those of its inputs that
/// need one. A single-input op needs no check: its node needs a gradient
/// only if its input does. Multi-input ops compute each input's branch only
/// if it is read, and always accumulate in input order, so an input passed
/// twice (`x * x`) sums its two deltas in the same order as ever.
pub(crate) fn backward_step(tape: &mut Tape, i: usize, g: Tensor) {
    // Ops are matched by moving small copies of their metadata out to keep the
    // borrow checker happy; input values are re-borrowed immutably per branch.
    match &tape.nodes[i].op {
        Op::Leaf(_) => {}
        Op::MatMul(a, b) => {
            let (a, b) = (*a, *b);
            // `Tape::matmul` required `a.cols == b.rows` and `g` has the
            // product's shape, so both products are shape-correct.
            if tape.needs_grad(a) {
                let da = g.matmul_unchecked(&tape.nodes[b.0].value.transpose());
                tape.accumulate_grad(a, da);
            }
            if tape.needs_grad(b) {
                let db = tape.nodes[a.0].value.matmul_tn_unchecked(&g);
                tape.accumulate_grad(b, db);
            }
        }
        Op::Add(a, b) => {
            let (a, b) = (*a, *b);
            if tape.needs_grad(a) && tape.needs_grad(b) {
                tape.accumulate_grad(a, g.clone());
                tape.accumulate_grad(b, g);
            } else {
                let live = if tape.needs_grad(a) { a } else { b };
                tape.accumulate_grad(live, g);
            }
        }
        Op::AddRowBroadcast(a, b) => {
            let (a, b) = (*a, *b);
            let db = tape.needs_grad(b).then(|| {
                let mut db = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                db
            });
            tape.accumulate_grad(a, g);
            if let Some(db) = db {
                tape.accumulate_grad(b, db);
            }
        }
        Op::Sub(a, b) => {
            let (a, b) = (*a, *b);
            let db = tape.needs_grad(b).then(|| g.map(|x| -x));
            tape.accumulate_grad(a, g);
            if let Some(db) = db {
                tape.accumulate_grad(b, db);
            }
        }
        Op::Mul(a, b) => {
            let (a, b) = (*a, *b);
            if tape.needs_grad(a) {
                let da = g.zip_map(&tape.nodes[b.0].value, |gg, y| gg * y);
                tape.accumulate_grad(a, da);
            }
            if tape.needs_grad(b) {
                let db = g.zip_map(&tape.nodes[a.0].value, |gg, x| gg * x);
                tape.accumulate_grad(b, db);
            }
        }
        Op::MulColBroadcast(a, b) => {
            let (a, b) = (*a, *b);
            let va = &tape.nodes[a.0].value;
            let vb = &tape.nodes[b.0].value;
            // `db` reads `g` before `da` scales it in place.
            let db = tape.needs_grad(b).then(|| {
                let mut db = Tensor::zeros(vb.rows(), 1);
                for r in 0..g.rows() {
                    let mut acc = 0.0;
                    for (&gg, &x) in g.row(r).iter().zip(va.row(r)) {
                        acc += gg * x;
                    }
                    db.set(r, 0, acc);
                }
                db
            });
            let da = tape.needs_grad(a).then(|| {
                let mut da = g;
                for r in 0..da.rows() {
                    let s = vb.get(r, 0);
                    for o in da.row_mut(r) {
                        *o *= s;
                    }
                }
                da
            });
            if let Some(da) = da {
                tape.accumulate_grad(a, da);
            }
            if let Some(db) = db {
                tape.accumulate_grad(b, db);
            }
        }
        Op::Scale(a, s) => {
            let (a, s) = (*a, *s);
            tape.accumulate_grad(a, g.map(|x| x * s));
        }
        Op::AddConst(a) => {
            let a = *a;
            tape.accumulate_grad(a, g);
        }
        Op::Relu(a) => {
            let a = *a;
            let da = g.zip_map(
                &tape.nodes[a.0].value,
                |gg, x| if x > 0.0 { gg } else { 0.0 },
            );
            tape.accumulate_grad(a, da);
        }
        Op::LeakyRelu(a, slope) => {
            let (a, slope) = (*a, *slope);
            let da = g.zip_map(&tape.nodes[a.0].value, |gg, x| {
                if x > 0.0 {
                    gg
                } else {
                    slope * gg
                }
            });
            tape.accumulate_grad(a, da);
        }
        Op::Tanh(a) => {
            let a = *a;
            let da = g.zip_map(&tape.nodes[i].value, |gg, y| gg * (1.0 - y * y));
            tape.accumulate_grad(a, da);
        }
        Op::Sigmoid(a) => {
            let a = *a;
            let da = g.zip_map(&tape.nodes[i].value, |gg, y| gg * y * (1.0 - y));
            tape.accumulate_grad(a, da);
        }
        Op::LogEps(a, eps) => {
            let (a, eps) = (*a, *eps);
            let da = g.zip_map(&tape.nodes[a.0].value, |gg, x| gg / (x + eps));
            tape.accumulate_grad(a, da);
        }
        Op::Dropout(a, mask) => {
            let (a, mask) = (*a, Rc::clone(mask));
            let mut da = g;
            for (o, &m) in da.data_mut().iter_mut().zip(mask.iter()) {
                *o *= m;
            }
            tape.accumulate_grad(a, da);
        }
        Op::ConcatCols(parts) => {
            let parts = parts.clone();
            let mut off = 0;
            for v in parts {
                let cols = tape.nodes[v.0].value.cols();
                if !tape.needs_grad(v) {
                    off += cols;
                    continue;
                }
                let mut dv = Tensor::zeros(g.rows(), cols);
                for r in 0..g.rows() {
                    dv.row_mut(r).copy_from_slice(&g.row(r)[off..off + cols]);
                }
                off += cols;
                tape.accumulate_grad(v, dv);
            }
        }
        Op::GatherRows(a, idx) => {
            let (a, idx) = (*a, Rc::clone(idx));
            let va_rows = tape.nodes[a.0].value.rows();
            let mut da = Tensor::zeros(va_rows, g.cols());
            for (r, &src) in idx.iter().enumerate() {
                for (o, &x) in da.row_mut(src).iter_mut().zip(g.row(r)) {
                    *o += x;
                }
            }
            tape.accumulate_grad(a, da);
        }
        Op::SegmentSum(a, seg) => {
            let (a, seg) = (*a, Rc::clone(seg));
            let mut da = Tensor::zeros(seg.len(), g.cols());
            for (r, &s) in seg.iter().enumerate() {
                da.row_mut(r).copy_from_slice(g.row(s));
            }
            tape.accumulate_grad(a, da);
        }
        Op::SegmentSoftmax(a, seg, n_segments) => {
            let (a, seg, n_segments) = (*a, Rc::clone(seg), *n_segments);
            let y = &tape.nodes[i].value;
            // dx = y * (g - Σ_seg(g ⊙ y)), per segment per column.
            let mut seg_dot = Tensor::zeros(n_segments, g.cols());
            for (r, &s) in seg.iter().enumerate() {
                for ((acc, &gg), &yy) in seg_dot.row_mut(s).iter_mut().zip(g.row(r)).zip(y.row(r)) {
                    *acc += gg * yy;
                }
            }
            let mut da = Tensor::zeros(g.rows(), g.cols());
            for (r, &s) in seg.iter().enumerate() {
                for (c, &dot) in seg_dot.row(s).iter().enumerate() {
                    da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                }
            }
            tape.accumulate_grad(a, da);
        }
        Op::LayerNorm(x, gain, bias, eps) => {
            let (x, gain, bias, eps) = (*x, *gain, *bias, *eps);
            let vx = &tape.nodes[x.0].value;
            let vg = &tape.nodes[gain.0].value;
            let d = vx.cols() as f32;
            let mut dx = Tensor::zeros(vx.rows(), vx.cols());
            let mut dgain = Tensor::zeros(1, vx.cols());
            let mut dbias = Tensor::zeros(1, vx.cols());
            for r in 0..vx.rows() {
                let row = vx.row(r);
                let mu = row.iter().sum::<f32>() / d;
                let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d;
                let inv_std = 1.0 / (var + eps).sqrt();
                // xhat and dxhat for this row.
                let xhat: Vec<f32> = row.iter().map(|&v| (v - mu) * inv_std).collect();
                let dxhat: Vec<f32> = (0..row.len()).map(|c| g.get(r, c) * vg.get(0, c)).collect();
                let sum_dxhat: f32 = dxhat.iter().sum();
                let sum_dxhat_xhat: f32 = dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum();
                for c in 0..row.len() {
                    let v = inv_std * (dxhat[c] - sum_dxhat / d - xhat[c] * sum_dxhat_xhat / d);
                    dx.set(r, c, v);
                    dgain.set(0, c, dgain.get(0, c) + g.get(r, c) * xhat[c]);
                    dbias.set(0, c, dbias.get(0, c) + g.get(r, c));
                }
            }
            tape.accumulate_grad(x, dx);
            tape.accumulate_grad(gain, dgain);
            tape.accumulate_grad(bias, dbias);
        }
        Op::SumAll(a) => {
            let a = *a;
            let shape = tape.nodes[a.0].value.shape();
            let da = Tensor::full(shape.0, shape.1, g.item());
            tape.accumulate_grad(a, da);
        }
        Op::MeanAll(a) => {
            let a = *a;
            let shape = tape.nodes[a.0].value.shape();
            let n = (shape.0 * shape.1) as f32;
            let da = Tensor::full(shape.0, shape.1, g.item() / n.max(1.0));
            tape.accumulate_grad(a, da);
        }
        Op::SoftmaxCrossEntropy(logits, labels) => {
            let (logits, labels) = (*logits, Rc::clone(labels));
            let vl = &tape.nodes[logits.0].value;
            let n = vl.rows() as f32;
            let mut da = softmax_rows(vl);
            for (r, &y) in labels.iter().enumerate() {
                da.set(r, y, da.get(r, y) - 1.0);
            }
            da.scale_assign(g.item() / n.max(1.0));
            tape.accumulate_grad(logits, da);
        }
    }
}
