use std::rc::Rc;

use rand::rngs::StdRng;

use xfraud_hetgraph::{NodeType, ALL_EDGE_TYPES, ALL_NODE_TYPES};
use xfraud_nn::{Embedding, Layer, Linear, ParamId, ParamStore, Session};
use xfraud_tensor::{kernels, Tensor, Var};

use crate::batch::SubgraphBatch;
use crate::field::Field;
use crate::infer::{at_least, SourcePairs};

/// One self-attentive heterogeneous convolution layer (§3.2.2, eq. 1–10).
///
/// Per edge `e = (v_s, v_t)` with `h` heads of width `d_k = d_out / h`:
///
/// * key/value vectors come from the source (plus the edge-type embedding on
///   the first layer, eq. 4/6), the query from the target (eq. 2);
/// * the per-head score is additive with **per-node-type** attention
///   vectors — `α-head^i = (K^i(v_s)·w^att_{τ(v_s)} + Q^i(v_t)·w^att_{τ(v_t)})
///   / √d_k` (eq. 8). The K/Q/V projections themselves are *shared across
///   types*, the paper's deliberate deviation from HGT ("we do not allow
///   target-specific aggregation ... shared weights among different types of
///   nodes are used");
/// * scores are softmax-normalised over each target's in-neighbours per head
///   (eq. 9), dropout is applied to the attention (eq. 10), messages
///   `V^i(v_s) · α-head^i` are concatenated over heads and summed into the
///   target (eq. 1), followed by a shared output projection, a residual
///   connection and ReLU.
///
/// The per-head block arithmetic is expressed with two constant indicator
/// matrices (`[d, h]` and `[h, d]`), keeping everything inside the autodiff
/// tape without bespoke ops. The crate-private `infer` method is the same
/// layer without a tape, for eval-mode scoring.
#[derive(Debug, Clone)]
pub struct HetConvLayer {
    /// Shared K/Q/V projections (the paper's choice), or one per node type
    /// (HGT's, kept for the §3.2.1 ablation). `forward` picks per edge.
    k_lin: Projection,
    q_lin: Projection,
    v_lin: Projection,
    a_lin: Linear,
    /// `[n_node_types, d_out]` attention vector per source type.
    w_att_src: ParamId,
    /// `[n_node_types, d_out]` attention vector per target type.
    w_att_tgt: ParamId,
    /// Edge-type embeddings `φ(e)^emb`, added to the source input on the
    /// first layer only (`None` on deeper layers).
    edge_emb: Option<Embedding>,
    /// The `[d, h]` head-block indicator (column `i` is 1 on head `i`'s
    /// coordinate block) and its `[h, d]` transpose.
    head_ind: Tensor,
    head_ind_t: Tensor,
    pub heads: usize,
    pub d_out: usize,
    pub dropout: f32,
    residual: bool,
}

/// Grow-only work areas of [`HetConvLayer::infer`], reused across layers
/// and calls (see [`crate::infer::Work`]).
#[derive(Default)]
pub(crate) struct ConvBufs {
    ids: Vec<usize>,
    src_in: Vec<f32>,
    h_out: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    q: Vec<f32>,
    agg: Vec<f32>,
    scores: Vec<f32>,
    alpha: Vec<f32>,
    seg_max: Vec<f32>,
    seg_sum: Vec<f32>,
}

/// One projection role (K, Q or V): shared across node types, or one
/// linear per type as in HGT.
#[derive(Debug, Clone)]
enum Projection {
    Shared(Linear),
    PerType(Vec<Linear>),
}

impl Projection {
    fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        per_type: bool,
        rng: &mut StdRng,
    ) -> Self {
        if per_type {
            Projection::PerType(
                ALL_NODE_TYPES
                    .iter()
                    .map(|t| {
                        Linear::new(
                            store,
                            &format!("{name}.{}", t.label()),
                            d_in,
                            d_out,
                            false,
                            rng,
                        )
                    })
                    .collect(),
            )
        } else {
            Projection::Shared(Linear::new(store, name, d_in, d_out, false, rng))
        }
    }

    /// Applies the projection node-wise over `h` (`[n, d_in]`).
    ///
    /// The per-type variant computes each type's projection over all rows
    /// and zero-masks the rows of other types — 5 small matmuls instead of
    /// a scatter, which keeps everything on the existing tape ops.
    fn forward(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        h: Var,
        node_types: &[NodeType],
    ) -> Var {
        match self {
            Projection::Shared(lin) => lin.forward(sess, store, h),
            Projection::PerType(lins) => {
                let n = node_types.len();
                let mask_of = |ti: usize| -> Vec<f32> {
                    node_types
                        .iter()
                        .map(|t| if t.index() == ti { 1.0 } else { 0.0 })
                        .collect()
                };
                let Some((first, rest)) = lins.split_first() else {
                    // Unreachable via the constructors (every schema has at
                    // least one node type), but stay total: with no per-type
                    // projections, every row is masked away.
                    let zeros = sess.constant(Tensor::column(vec![0.0; n]));
                    return sess.tape.mul_col(h, zeros);
                };
                let mask = sess.constant(Tensor::column(mask_of(0)));
                let projected = first.forward(sess, store, h);
                let mut acc = sess.tape.mul_col(projected, mask);
                for (ti, lin) in rest.iter().enumerate() {
                    let mask = sess.constant(Tensor::column(mask_of(ti + 1)));
                    let projected = lin.forward(sess, store, h);
                    let masked = sess.tape.mul_col(projected, mask);
                    acc = sess.tape.add(acc, masked);
                }
                acc
            }
        }
    }
}

impl HetConvLayer {
    /// `first_layer` controls the edge-type embedding (eq. 4/6 add `φ(e)` on
    /// layer 1 only) and whether a residual is possible (`d_in == d_out`).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per hyper-parameter of the layer in eqs. 4-6, plus the param store and RNG it is built from"
    )]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        heads: usize,
        dropout: f32,
        first_layer: bool,
        rng: &mut StdRng,
    ) -> Self {
        Self::with_projections(
            store,
            name,
            d_in,
            d_out,
            heads,
            dropout,
            first_layer,
            false,
            rng,
        )
    }

    /// Like [`HetConvLayer::new`] but optionally with HGT-style per-node-
    /// type K/Q/V projections — the configuration the paper ablated away
    /// ("we do not allow target-specific aggregation ... shared weights").
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per hyper-parameter of the layer in eqs. 4-6 and the per-type ablation flag, plus the param store and RNG"
    )]
    pub fn with_projections(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        heads: usize,
        dropout: f32,
        first_layer: bool,
        per_type: bool,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(d_out % heads, 0, "d_out must be divisible by heads");
        let n_nt = ALL_NODE_TYPES.len();
        let n_et = ALL_EDGE_TYPES.len();
        let mut head_ind = Tensor::zeros(d_out, heads);
        for j in 0..d_out {
            head_ind.set(j, j / (d_out / heads), 1.0);
        }
        HetConvLayer {
            k_lin: Projection::new(store, &format!("{name}.k"), d_in, d_out, per_type, rng),
            q_lin: Projection::new(store, &format!("{name}.q"), d_in, d_out, per_type, rng),
            v_lin: Projection::new(store, &format!("{name}.v"), d_in, d_out, per_type, rng),
            a_lin: Linear::new(store, &format!("{name}.a"), d_out, d_out, false, rng),
            // eq. 8's attention weights: "random weights subject to uniform
            // distributions".
            w_att_src: store.register(
                format!("{name}.att_src"),
                Tensor::rand_uniform(n_nt, d_out, -0.1, 0.1, rng),
            ),
            w_att_tgt: store.register(
                format!("{name}.att_tgt"),
                Tensor::rand_uniform(n_nt, d_out, -0.1, 0.1, rng),
            ),
            edge_emb: first_layer
                .then(|| Embedding::zeros(store, &format!("{name}.edge_emb"), n_et, d_in)),
            head_ind_t: head_ind.transpose(),
            head_ind,
            heads,
            d_out,
            dropout,
            residual: d_in == d_out,
        }
    }

    /// Forward pass over one receptive field: `h` holds the field's input
    /// rows (`[n_in, d_in]`); returns its `n'` output rows (`[n', d_out]`).
    /// Only the field's `E'` edges are projected, attended and aggregated.
    /// `edge_mask` is over all `E` batch edges (`[E, 1]`).
    #[allow(
        clippy::too_many_arguments,
        reason = "a layer forward takes the session, weights, batch, field, edge mask, mode and RNG as separate per-call inputs"
    )]
    pub fn forward(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        h: Var,
        batch: &SubgraphBatch,
        field: &Field,
        edge_mask: Option<Var>,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let n_out = field.nodes.len();
        let dst = Rc::clone(&field.edge_dst);

        // Source-side input, with φ(e) on the first layer (eq. 4/6).
        let mut h_src = sess.tape.gather_rows(h, Rc::clone(&field.edge_src));
        if let Some(edge_emb) = &self.edge_emb {
            let ety: Vec<usize> = field
                .edges
                .iter()
                .map(|&e| batch.edge_ty[e].index())
                .collect();
            let e_rows = edge_emb.forward_ids(sess, store, &ety);
            h_src = sess.tape.add(h_src, e_rows);
        }

        let src_types: Vec<NodeType> = field
            .edges
            .iter()
            .map(|&e| batch.node_types[batch.edge_src[e]])
            .collect();
        let out_types: Vec<NodeType> = field.nodes.iter().map(|&v| batch.node_types[v]).collect();
        let k = self.k_lin.forward(sess, store, h_src, &src_types); // [E', d]
        let v = self.v_lin.forward(sess, store, h_src, &src_types); // [E', d]
        let h_out = sess.tape.gather_rows(h, Rc::clone(&field.out_rows)); // [n', d_in]
        let q_nodes = self.q_lin.forward(sess, store, h_out, &out_types); // [n', d]
        let q = sess.tape.gather_rows(q_nodes, Rc::clone(&dst)); // [E', d]

        // Per-type attention vectors, one row per edge (eq. 8).
        let src_ty: Vec<usize> = src_types.iter().map(|t| t.index()).collect();
        let dst_ty: Vec<usize> = field
            .edge_dst
            .iter()
            .map(|&r| out_types[r].index())
            .collect();
        let att_src_table = sess.param(store, self.w_att_src);
        let att_tgt_table = sess.param(store, self.w_att_tgt);
        let att_src = sess.tape.gather_rows(att_src_table, Rc::new(src_ty));
        let att_tgt = sess.tape.gather_rows(att_tgt_table, Rc::new(dst_ty));

        let sk = sess.tape.mul(k, att_src);
        let sq = sess.tape.mul(q, att_tgt);
        let s = sess.tape.add(sk, sq); // [E', d]
        let ind = sess.constant(self.head_ind.clone()); // [d, h]
        let scores = sess.tape.matmul(s, ind); // [E', h]
        let d_k = (self.d_out / self.heads) as f32;
        let mut scores = sess.tape.scale(scores, 1.0 / d_k.sqrt());

        // GNNExplainer hook, part 1: a log-mask on the attention scores.
        // Masked-down edges lose the softmax competition to their siblings,
        // which removes the degenerate "inflate every mask" optimum that a
        // purely multiplicative mask admits. The log and its broadcast run
        // over all `E` edges, so the mask has the same consumers whatever
        // the field (DESIGN §4.5).
        if let Some(mask) = edge_mask {
            let lm = sess.tape.log_eps(mask, 1e-6); // [E, 1]
            let ones = sess.constant(Tensor::full(1, self.heads, 1.0));
            let lm_b = sess.tape.matmul(lm, ones); // [E, h]
            let lm_b = sess.tape.gather_rows(lm_b, Rc::clone(&field.edges)); // [E', h]
            scores = sess.tape.add(scores, lm_b);
        }

        // eq. 9: softmax over each target's in-neighbours, per head.
        let alpha = sess.tape.segment_softmax(scores, Rc::clone(&dst), n_out);
        // eq. 10: dropout on the attention heads, drawn for all `E` edges so
        // the RNG stream does not depend on the field.
        let alpha = if train && self.dropout > 0.0 {
            sess.tape
                .dropout_rows(alpha, self.dropout, &field.edges, batch.n_edges(), rng)
        } else {
            alpha
        };

        // Broadcast each head's α over its value block and weight V.
        let ind_t = sess.constant(self.head_ind_t.clone()); // [h, d]
        let alpha_blocks = sess.tape.matmul(alpha, ind_t); // [E', d]
        let mut msg = sess.tape.mul(v, alpha_blocks);

        // GNNExplainer hook, part 2: multiplicative damping keeps the
        // edge-deletion semantics (a fully masked target aggregates ~0).
        if let Some(mask) = edge_mask {
            let mask = sess.tape.gather_rows(mask, Rc::clone(&field.edges));
            msg = sess.tape.mul_col(msg, mask);
        }

        // eq. 1: aggregate into targets; output projection + residual + ReLU.
        let agg = sess.tape.segment_sum(msg, dst, n_out);
        let mut out = self.a_lin.forward(sess, store, agg);
        if self.residual {
            out = sess.tape.add(out, h_out);
        }
        sess.tape.relu(out)
    }

    /// The K/Q/V linears when they are shared across node types — what
    /// [`HetConvLayer::infer`] covers; the per-type ablation stays on the
    /// tape.
    fn shared_projections(&self) -> Option<[&Linear; 3]> {
        match (&self.k_lin, &self.q_lin, &self.v_lin) {
            (Projection::Shared(k), Projection::Shared(q), Projection::Shared(v)) => {
                Some([k, q, v])
            }
            _ => None,
        }
    }

    /// `true` if [`HetConvLayer::infer`] covers this layer.
    pub(crate) fn can_infer(&self) -> bool {
        self.shared_projections().is_some()
    }

    /// Eval-mode forward without a tape over one receptive field: `h` holds
    /// the field's input rows, `out` receives its output rows (one per
    /// `field.nodes`). Bit-identical to [`HetConvLayer::forward`] over the
    /// same field with `train = false` and no edge mask, for finite weights
    /// and activations. Requires [`HetConvLayer::can_infer`].
    ///
    /// Where the tape gathers `h` to one row per edge and projects `E'`
    /// rows, this projects each *source row* once and lets the edges index
    /// the result: row `r` of `X·W` depends on row `r` of `X` alone and
    /// sums `k` in the same order wherever the row sits, so `gather(h)·W`
    /// and `gather(h·W)` agree to the bit. A source row is a node on deeper
    /// layers and a `(node, edge_type)` pair on the first ([`SourcePairs`]).
    /// The same holds for the per-type attention products, which become one
    /// multiply per source/output row instead of per edge.
    pub(crate) fn infer(
        &self,
        store: &ParamStore,
        h: &[f32],
        batch: &SubgraphBatch,
        field: &Field,
        bufs: &mut ConvBufs,
        out: &mut [f32],
    ) {
        let Some([k_lin, q_lin, v_lin]) = self.shared_projections() else {
            debug_assert!(false, "infer() on a per-type layer");
            return;
        };
        let (d, heads) = (self.d_out, self.heads);
        let (n_out, e) = (field.nodes.len(), field.edges.len());
        let d_k = d / heads;
        let d_in = store.value(k_lin.w).rows();
        let type_of = |v: usize| batch.node_types[v].index();
        let edge_emb = self.edge_emb.as_ref().map(|emb| store.value(emb.table));

        // Source rows and the row each edge reads (eq. 4/6: φ(e) joins the
        // source input on the first layer, before the projection).
        let sources = SourcePairs::of(
            batch,
            field,
            h.len() / d_in.max(1),
            edge_emb.is_some(),
            &mut bufs.ids,
        );
        let src_in = at_least(&mut bufs.src_in, sources.len() * d_in);
        for (row, &i) in src_in.chunks_exact_mut(d_in).zip(sources.first_edge) {
            let s = field.edge_src[i];
            let h_row = &h[s * d_in..(s + 1) * d_in];
            match edge_emb {
                Some(table) => {
                    let emb = table.row(batch.edge_ty[field.edges[i]].index());
                    for ((o, &x), &y) in row.iter_mut().zip(h_row).zip(emb) {
                        *o = x + y;
                    }
                }
                None => row.copy_from_slice(h_row),
            }
        }
        // The output rows' inputs: Q and the residual read them.
        let h_out = at_least(&mut bufs.h_out, n_out * d_in);
        for (row, &r) in h_out.chunks_exact_mut(d_in).zip(field.out_rows.iter()) {
            row.copy_from_slice(&h[r * d_in..(r + 1) * d_in]);
        }

        // K·w_att[τ(src)] and V per source row, Q·w_att[τ(tgt)] per output
        // row.
        let k = at_least(&mut bufs.k, sources.len() * d);
        let v = at_least(&mut bufs.v, sources.len() * d);
        let q = at_least(&mut bufs.q, n_out * d);
        k_lin.apply_into(store, src_in, k);
        v_lin.apply_into(store, src_in, v);
        q_lin.apply_into(store, h_out, q);
        let (att_src, att_tgt) = (store.value(self.w_att_src), store.value(self.w_att_tgt));
        for (row, &i) in k.chunks_exact_mut(d).zip(sources.first_edge) {
            let src_type = type_of(batch.edge_src[field.edges[i]]);
            for (x, &w) in row.iter_mut().zip(att_src.row(src_type)) {
                *x *= w;
            }
        }
        for (row, &t) in q.chunks_exact_mut(d).zip(&field.nodes) {
            for (x, &w) in row.iter_mut().zip(att_tgt.row(type_of(t))) {
                *x *= w;
            }
        }

        // eq. 8: per-head score = in-order sum of the head's block of
        // `K·w + Q·w`, scaled. This is what the `[d, h]` indicator matmul
        // computes: the other heads' terms are exact zeros.
        let scale = 1.0 / (d_k as f32).sqrt();
        let scores = at_least(&mut bufs.scores, e * heads);
        for ((score, &r), &t) in scores
            .chunks_exact_mut(heads)
            .zip(sources.edge_row)
            .zip(field.edge_dst.iter())
        {
            let (k_row, q_row) = (&k[r * d..(r + 1) * d], &q[t * d..(t + 1) * d]);
            for ((s, k_blk), q_blk) in score
                .iter_mut()
                .zip(k_row.chunks_exact(d_k))
                .zip(q_row.chunks_exact(d_k))
            {
                let mut acc = 0.0f32;
                for (&a, &b) in k_blk.iter().zip(q_blk) {
                    acc += a + b;
                }
                *s = acc * scale;
            }
        }

        // eq. 9: softmax over each target's in-neighbours, per head.
        let alpha = at_least(&mut bufs.alpha, e * heads);
        kernels::segment_softmax_into(
            scores,
            &field.edge_dst,
            heads,
            at_least(&mut bufs.seg_max, n_out * heads),
            at_least(&mut bufs.seg_sum, n_out * heads),
            alpha,
        );

        // eq. 1: each head's α scales its block of V (what the `[h, d]`
        // indicator matmul broadcasts), summed into the target in edge order.
        let agg = at_least(&mut bufs.agg, n_out * d);
        agg.fill(0.0);
        for ((alpha, &r), &t) in alpha
            .chunks_exact(heads)
            .zip(sources.edge_row)
            .zip(field.edge_dst.iter())
        {
            let (v_row, agg_row) = (&v[r * d..(r + 1) * d], &mut agg[t * d..(t + 1) * d]);
            for ((&a, v_blk), agg_blk) in alpha
                .iter()
                .zip(v_row.chunks_exact(d_k))
                .zip(agg_row.chunks_exact_mut(d_k))
            {
                for (o, &x) in agg_blk.iter_mut().zip(v_blk) {
                    *o += x * a;
                }
            }
        }

        // Output projection + residual + ReLU.
        self.a_lin.apply_into(store, agg, out);
        if self.residual {
            for (o, &x) in out.iter_mut().zip(h_out.iter()) {
                *o = kernels::relu(*o + x);
            }
        } else {
            for o in out.iter_mut() {
                *o = kernels::relu(*o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xfraud_hetgraph::GraphBuilder;

    fn toy_batch() -> SubgraphBatch {
        let mut b = GraphBuilder::new(4);
        let t0 = b.add_txn([1.0, 0.0, 0.0, 0.0], Some(true));
        let t1 = b.add_txn([0.0, 1.0, 0.0, 0.0], Some(false));
        let p = b.add_entity(NodeType::Pmt);
        let u = b.add_entity(NodeType::Buyer);
        b.link(t0, p).unwrap();
        b.link(t1, p).unwrap();
        b.link(t0, u).unwrap();
        let g = b.finish().unwrap();
        SubgraphBatch::from_nodes(&g, &[0, 1, 2, 3], &[0, 1])
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = HetConvLayer::new(&mut store, "c0", 4, 8, 2, 0.2, true, &mut rng);
        let batch = toy_batch();
        let run = |rng: &mut StdRng| {
            let mut sess = Session::new();
            let h = sess.constant(batch.features.clone());
            let out = layer.forward(
                &mut sess,
                &store,
                h,
                &batch,
                &Field::all(&batch),
                None,
                false,
                rng,
            );
            sess.tape.value(out).clone()
        };
        let a = run(&mut rng);
        let b = run(&mut rng);
        assert_eq!(a.shape(), (4, 8));
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn head_indicator_partitions_dimensions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = HetConvLayer::new(&mut store, "c0", 4, 8, 4, 0.0, false, &mut rng);
        let ind = &layer.head_ind;
        assert_eq!(layer.head_ind_t, ind.transpose());
        // Every row has exactly one 1 (each dim belongs to one head).
        for r in 0..8 {
            let s: f32 = ind.row(r).iter().sum();
            assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn zero_edge_mask_blocks_all_messages() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = HetConvLayer::new(&mut store, "c0", 4, 8, 2, 0.0, true, &mut rng);
        let batch = toy_batch();
        let mut sess = Session::new();
        let h = sess.constant(batch.features.clone());
        let mask = sess.constant(Tensor::zeros(batch.n_edges(), 1));
        let out = layer.forward(
            &mut sess,
            &store,
            h,
            &batch,
            &Field::all(&batch),
            Some(mask),
            false,
            &mut rng,
        );
        // With all messages dead the aggregation is zero; output = relu(residual-free proj of 0) = 0.
        assert!(sess.tape.value(out).norm_sq() < 1e-10);
    }

    /// `infer` ≡ eval-mode `forward`, bit for bit — with and without the
    /// edge-type embedding, with and without the residual, over all rows
    /// and over the targets' field.
    #[test]
    fn infer_matches_forward_bits() {
        let batch = toy_batch();
        let pruned = Field::layers(&batch, 1).layers()[0].clone();
        assert!(pruned.nodes.len() < batch.n_nodes());
        for (d_out, first_layer) in [(8, true), (4, true), (8, false), (4, false)] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut store = ParamStore::new();
            let layer =
                HetConvLayer::new(&mut store, "c0", 4, d_out, 2, 0.2, first_layer, &mut rng);
            if let Some(edge_emb) = &layer.edge_emb {
                *store.value_mut(edge_emb.table) =
                    Tensor::rand_uniform(ALL_EDGE_TYPES.len(), 4, -1.0, 1.0, &mut rng);
            }
            // Used throughout: later calls read buffers earlier ones left dirty.
            let mut bufs = ConvBufs::default();
            for field in [Field::all(&batch), pruned.clone()] {
                let mut sess = Session::new();
                let h = sess.constant(batch.features.clone());
                let want =
                    layer.forward(&mut sess, &store, h, &batch, &field, None, false, &mut rng);
                let mut out = vec![f32::NAN; field.nodes.len() * d_out];
                for _ in 0..2 {
                    layer.infer(
                        &store,
                        batch.features.data(),
                        &batch,
                        &field,
                        &mut bufs,
                        &mut out,
                    );
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(sess.tape.value(want).data()),
                        "d_out {d_out}, first_layer {first_layer}, {} rows",
                        field.nodes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_layer_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let layer = HetConvLayer::new(&mut store, "c0", 4, 8, 2, 0.0, true, &mut rng);
        let batch = toy_batch();
        let mut sess = Session::new();
        let h = sess.constant(batch.features.clone());
        let out = layer.forward(
            &mut sess,
            &store,
            h,
            &batch,
            &Field::all(&batch),
            None,
            true,
            &mut rng,
        );
        let sq = sess.tape.mul(out, out);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.backward(loss);
        // k/q/v/a linears + two attention tables + edge emb = 7 params.
        assert_eq!(
            grads.len(),
            7,
            "params missing gradients: got {}",
            grads.len()
        );
    }
}
