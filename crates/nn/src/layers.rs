use rand::rngs::StdRng;

use xfraud_tensor::{kernels, Tensor, Var};

use crate::param::{ParamId, ParamStore, Session};

/// A layer that maps one tape variable to another.
pub trait Layer {
    fn forward(&self, sess: &mut Session, store: &ParamStore, x: Var) -> Var;
}

/// Fully-connected layer `y = x W (+ b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
}

impl Linear {
    /// Glorot-uniform weight, zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            Tensor::glorot_uniform(d_in, d_out, rng),
        );
        let b = bias.then(|| store.register(format!("{name}.b"), Tensor::zeros(1, d_out)));
        Linear { w, b }
    }

    /// Tape-free `out = x W (+ b)` over row-major slices (`x` is
    /// `[rows, d_in]`, `out` is `[rows, d_out]`), reading the weights in
    /// place. Same kernel and operation order as [`Layer::forward`], so the
    /// result is the same bits.
    pub fn apply_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let w = store.value(self.w);
        let (d_in, d_out) = w.shape();
        kernels::matmul_into(x, w.data(), out, x.len() / d_in.max(1), d_in, d_out);
        if let Some(b) = self.b {
            for row in out.chunks_exact_mut(d_out.max(1)) {
                for (o, &bias) in row.iter_mut().zip(store.value(b).data()) {
                    *o += bias;
                }
            }
        }
    }
}

impl Layer for Linear {
    fn forward(&self, sess: &mut Session, store: &ParamStore, x: Var) -> Var {
        let w = sess.param(store, self.w);
        let y = sess.tape.matmul(x, w);
        match self.b {
            Some(b) => {
                let b = sess.param(store, b);
                sess.tape.add_row(y, b)
            }
            None => y,
        }
    }
}

/// Row-wise layer normalisation with learnable gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gain: ParamId,
    pub bias: ParamId,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        LayerNorm {
            gain: store.register(format!("{name}.gain"), Tensor::full(1, dim, 1.0)),
            bias: store.register(format!("{name}.bias"), Tensor::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Tape-free counterpart of [`Layer::forward`]; same kernel, same bits.
    pub fn apply_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let (gain, bias) = (store.value(self.gain), store.value(self.bias));
        kernels::layer_norm_into(x, gain.data(), bias.data(), self.eps, out);
    }
}

impl Layer for LayerNorm {
    fn forward(&self, sess: &mut Session, store: &ParamStore, x: Var) -> Var {
        let gain = sess.param(store, self.gain);
        let bias = sess.param(store, self.bias);
        sess.tape.layer_norm(x, gain, bias, self.eps)
    }
}

/// A lookup table of `n` rows; `forward_ids` gathers rows by index.
///
/// Node-type and edge-type embeddings use this. Per §3.2.2 the type
/// embeddings are initialised *with zero weights* — the paper's own detail —
/// so [`Embedding::zeros`] is the constructor the detector uses.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: ParamId,
}

impl Embedding {
    /// Zero-initialised table (the paper's choice for type embeddings).
    pub fn zeros(store: &mut ParamStore, name: &str, n: usize, dim: usize) -> Self {
        Embedding {
            table: store.register(name, Tensor::zeros(n, dim)),
        }
    }

    /// Glorot-initialised table (for ablations).
    pub fn glorot(
        store: &mut ParamStore,
        name: &str,
        n: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        Embedding {
            table: store.register(name, Tensor::glorot_uniform(n, dim, rng)),
        }
    }

    /// Gathers embedding rows for the given indices.
    pub fn forward_ids(&self, sess: &mut Session, store: &ParamStore, ids: &[usize]) -> Var {
        let table = sess.param(store, self.table);
        sess.tape.gather_rows(table, std::rc::Rc::new(ids.to_vec()))
    }
}

/// The detector's prediction head (§3.2.1 step 3): a feed-forward network
/// with two hidden layers, each followed by dropout, layer norm and ReLU,
/// then a final projection to class logits.
#[derive(Debug, Clone)]
pub struct Ffn {
    hidden: Vec<(Linear, LayerNorm)>,
    out: Linear,
    pub dropout: f32,
}

impl Ffn {
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per FFN hyper-parameter (widths, depth, dropout), plus the param store and RNG it is built from"
    )]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_hidden: usize,
        n_hidden: usize,
        d_out: usize,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        let mut hidden = Vec::with_capacity(n_hidden);
        let mut d = d_in;
        for i in 0..n_hidden {
            let lin = Linear::new(store, &format!("{name}.h{i}"), d, d_hidden, true, rng);
            let ln = LayerNorm::new(store, &format!("{name}.ln{i}"), d_hidden);
            hidden.push((lin, ln));
            d = d_hidden;
        }
        let out = Linear::new(store, &format!("{name}.out"), d, d_out, true, rng);
        Ffn {
            hidden,
            out,
            dropout,
        }
    }

    /// Forward pass; `rng`/`train` control dropout.
    pub fn forward(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        mut x: Var,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        for (lin, ln) in &self.hidden {
            x = lin.forward(sess, store, x);
            if train && self.dropout > 0.0 {
                x = sess.tape.dropout(x, self.dropout, rng);
            }
            x = ln.forward(sess, store, x);
            x = sess.tape.relu(x);
        }
        self.out.forward(sess, store, x)
    }

    /// Tape-free eval-mode forward: `x` is `[rows, d_in]`, `out` is
    /// `[rows, d_out]`, `tmp` two caller-owned `[rows, d_hidden]` work
    /// areas. Bit-identical to [`Ffn::forward`] with `train = false`.
    pub fn apply_into(&self, store: &ParamStore, x: &[f32], tmp: [&mut [f32]; 2], out: &mut [f32]) {
        let [act, lin_out] = tmp;
        let mut cur = x;
        for (lin, ln) in &self.hidden {
            lin.apply_into(store, cur, lin_out);
            ln.apply_into(store, lin_out, act);
            for v in act.iter_mut() {
                *v = kernels::relu(*v);
            }
            cur = act;
        }
        self.out.apply_into(store, cur, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::rc::Rc;

    #[test]
    fn linear_matches_manual_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, true, &mut rng);
        // Overwrite with known weights.
        *store.value_mut(lin.w) = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        *store.value_mut(lin.b.unwrap()) = Tensor::from_rows(&[&[0.5, -0.5]]);
        let mut sess = Session::new();
        let x = sess.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = lin.forward(&mut sess, &store, x);
        assert_eq!(sess.tape.value(y).row(0), &[4.5, 4.5]);
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut sess = Session::new();
        let x = sess.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut sess, &store, x);
        let row = sess.tape.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn embedding_gathers_rows_and_trains() {
        let mut store = ParamStore::new();
        let emb = Embedding::zeros(&mut store, "emb", 3, 2);
        *store.value_mut(emb.table) = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let mut sess = Session::new();
        let y = emb.forward_ids(&mut sess, &store, &[2, 0, 2]);
        assert_eq!(sess.tape.value(y).row(0), &[3.0, 3.0]);
        let loss = sess.tape.sum_all(y);
        let grads = sess.backward(loss);
        let g = &grads[0].1;
        // Row 2 gathered twice → grad 2; row 1 never → grad 0.
        assert_eq!(g.row(2), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        drop(Rc::new(())); // silence unused-import lint paranoia
    }

    #[test]
    fn ffn_shapes_and_eval_determinism() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let ffn = Ffn::new(&mut store, "head", 6, 8, 2, 2, 0.5, &mut rng);
        let x0 = Tensor::rand_uniform(5, 6, -1.0, 1.0, &mut rng);
        let run = |rng: &mut StdRng, train: bool| {
            let mut sess = Session::new();
            let x = sess.constant(x0.clone());
            let y = ffn.forward(&mut sess, &store, x, train, rng);
            sess.tape.value(y).clone()
        };
        let a = run(&mut rng, false);
        let b = run(&mut rng, false);
        assert_eq!(a.shape(), (5, 2));
        assert!(a.max_abs_diff(&b) < 1e-7, "eval mode must be deterministic");
    }
}
