use std::sync::atomic::{AtomicU64, Ordering};

use xfraud_tensor::{Tape, Tensor, Var};

static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Handle to a parameter inside a specific [`ParamStore`].
///
/// The id carries its store's identity so that a [`Session`] can safely bind
/// parameters from *several* stores at once (the GNNExplainer optimises its
/// mask store against a frozen detector store in the same forward pass);
/// using an id against the wrong store panics instead of silently aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId {
    store: u64,
    index: usize,
}

impl ParamId {
    /// Position within the owning store's registration order.
    pub fn index(self) -> usize {
        self.index
    }
}

#[derive(Clone)]
struct Entry {
    name: String,
    value: Tensor,
    /// First Adam moment.
    m: Tensor,
    /// Second Adam moment.
    v: Tensor,
}

/// Owns all trainable tensors of a model plus their optimizer state.
///
/// Parameters persist across steps; each step re-binds them onto a fresh
/// tape through a [`Session`]. This is the "parameters live outside the
/// tape" design the tensor crate documents.
///
/// A clone keeps the original's `uid`, so [`ParamId`]s minted by the
/// original resolve against the clone — cloning a model yields an
/// independent, fully functional replica (the serving path freezes such a
/// replica).
#[derive(Clone)]
pub struct ParamStore {
    uid: u64,
    entries: Vec<Entry>,
}

impl Default for ParamStore {
    fn default() -> Self {
        ParamStore::new()
    }
}

impl ParamStore {
    pub fn new() -> Self {
        ParamStore {
            uid: STORE_COUNTER.fetch_add(1, Ordering::Relaxed),
            entries: Vec::new(),
        }
    }

    /// `true` if `id` was issued by this store.
    pub fn owns(&self, id: ParamId) -> bool {
        id.store == self.uid
    }

    fn check(&self, id: ParamId) -> usize {
        assert!(
            self.owns(id),
            "ParamId used against a store that did not issue it"
        );
        id.index
    }

    /// Registers a parameter tensor under a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            value,
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        ParamId {
            store: self.uid,
            index: self.entries.len() - 1,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[self.check(id)].name
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[self.check(id)].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        let i = self.check(id);
        &mut self.entries[i].value
    }

    pub(crate) fn moments_mut(&mut self, id: ParamId) -> (&mut Tensor, &mut Tensor, &mut Tensor) {
        let i = self.check(id);
        let e = &mut self.entries[i];
        (&mut e.value, &mut e.m, &mut e.v)
    }

    /// Total number of scalar weights (for model-size reporting).
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        let uid = self.uid;
        (0..self.entries.len()).map(move |index| ParamId { store: uid, index })
    }

    /// Copies every parameter value from another store (shapes must match).
    /// Used by the DDP simulator to broadcast initial weights to workers.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.len(), other.len(), "param stores differ in layout");
        for (dst, src) in self.entries.iter_mut().zip(&other.entries) {
            assert_eq!(dst.value.shape(), src.value.shape(), "param shape mismatch");
            dst.value = src.value.clone();
        }
    }

    /// Maximum absolute difference across all parameters of two stores.
    pub fn max_param_diff(&self, other: &ParamStore) -> f32 {
        assert_eq!(self.len(), other.len());
        self.entries
            .iter()
            .zip(&other.entries)
            .map(|(a, b)| a.value.max_abs_diff(&b.value))
            .fold(0.0, f32::max)
    }
}

/// One forward/backward pass: a fresh tape plus the parameter→leaf bindings
/// made during the forward pass.
pub struct Session {
    pub tape: Tape,
    bound: Vec<(ParamId, Var)>,
    /// Uid of the store whose parameters bind as constants, if any.
    frozen: Option<u64>,
}

impl Session {
    pub fn new() -> Self {
        Session {
            tape: Tape::new(),
            bound: Vec::new(),
            frozen: None,
        }
    }

    /// A session in which `store`'s parameters bind as constants: backward
    /// computes no gradient for them or for anything only they feed. The
    /// GNNExplainer runs its frozen detector this way.
    pub fn freezing(store: &ParamStore) -> Self {
        Session {
            frozen: Some(store.uid),
            ..Session::new()
        }
    }

    /// Binds a parameter onto the tape (idempotent per session: repeated
    /// binds of the same id return the same leaf, so weight sharing across
    /// layers/heads Just Works).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&(_, var)) = self.bound.iter().find(|(pid, _)| *pid == id) {
            return var;
        }
        let live = self.frozen != Some(id.store);
        let var = self.tape.leaf(store.value(id).clone(), live);
        self.bound.push((id, var));
        var
    }

    /// Inserts a non-trainable tensor (features, type one-hots, ...).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.tape.leaf(value, false)
    }

    /// Runs backward from `loss` and returns `(param, gradient)` pairs for
    /// every live bound parameter that received a gradient.
    pub fn backward(&mut self, loss: Var) -> Vec<(ParamId, Tensor)> {
        self.tape.backward(loss);
        self.bound
            .iter()
            .filter_map(|&(id, var)| self.tape.grad(var).map(|g| (id, g.clone())))
            .collect()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebinding_returns_the_same_leaf() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(2, 2, 1.0));
        let mut sess = Session::new();
        let a = sess.param(&store, id);
        let b = sess.param(&store, id);
        assert_eq!(a, b);
        assert_eq!(sess.tape.len(), 1);
    }

    #[test]
    fn backward_collects_grads_for_bound_params() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::full(1, 3, 2.0));
        let unused = store.register("unused", Tensor::full(1, 1, 0.0));
        let mut sess = Session::new();
        let wv = sess.param(&store, w);
        let sq = sess.tape.mul(wv, wv);
        let loss = sess.tape.sum_all(sq);
        let grads = sess.backward(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
        assert_eq!(grads[0].1.row(0), &[4.0, 4.0, 4.0]);
        assert_eq!(store.name(unused), "unused");
    }

    #[test]
    fn weight_sharing_accumulates_gradients() {
        // y = w + w → dw = 2
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(3.0));
        let mut sess = Session::new();
        let a = sess.param(&store, w);
        let b = sess.param(&store, w);
        let s = sess.tape.add(a, b);
        let loss = sess.tape.sum_all(s);
        let grads = sess.backward(loss);
        assert_eq!(grads[0].1.item(), 2.0);
    }

    #[test]
    fn freezing_backward_returns_only_the_other_stores_ids() {
        // loss = Σ (w_frozen ⊙ m), with the frozen weight bound twice.
        let mut frozen = ParamStore::new();
        let w = frozen.register("w", Tensor::full(1, 2, 3.0));
        let mut live = ParamStore::new();
        let m = live.register("m", Tensor::full(1, 2, 0.5));
        let mut sess = Session::freezing(&frozen);
        let wv = sess.param(&frozen, w);
        let mv = sess.param(&live, m);
        assert_eq!(sess.param(&frozen, w), wv);
        let prod = sess.tape.mul(wv, mv);
        let loss = sess.tape.sum_all(prod);
        let grads = sess.backward(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, m);
        assert_eq!(grads[0].1.row(0), &[3.0, 3.0]);
        assert!(sess.tape.grad(wv).is_none());
    }

    #[test]
    fn copy_values_from_makes_stores_identical() {
        let mut a = ParamStore::new();
        let mut b = ParamStore::new();
        a.register("w", Tensor::full(2, 2, 1.0));
        b.register("w", Tensor::full(2, 2, 9.0));
        b.copy_values_from(&a);
        assert_eq!(a.max_param_diff(&b), 0.0);
    }
}
