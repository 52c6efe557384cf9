//! Scratch memory and edge bookkeeping for the detector's tape-free
//! eval-mode forward ([`crate::XFraudDetector`]'s `Model::predict`).
//!
//! A tape forward allocates one tensor per op (~90 per score) and clones
//! every weight onto the tape. The fast path instead keeps all of its work
//! areas in one grow-only arena per scoring thread, so a warmed-up call
//! allocates nothing but the `Vec` of scores it returns.

use std::cell::RefCell;

use xfraud_hetgraph::ALL_EDGE_TYPES;

use crate::batch::SubgraphBatch;
use crate::hetconv::ConvBufs;

/// One scoring thread's reusable buffers. Each only ever grows; contents
/// are garbage between calls — every user overwrites what it reads.
#[derive(Default)]
pub(crate) struct Arena {
    pub ids: Vec<usize>,
    pub conv: ConvBufs,
    pub x: Vec<f32>,
    pub h: Vec<f32>,
    pub h_next: Vec<f32>,
    pub cat: Vec<f32>,
    pub head_tmp: [Vec<f32>; 2],
    pub logits: Vec<f32>,
    pub probs: Vec<f32>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::default();
}

/// Runs `f` with this thread's arena.
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
    ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// Grows `buf` to at least `len` (never shrinks) and lends out the front.
pub(crate) fn at_least<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Which projected source row each edge reads on the first layer.
///
/// Layer 0 adds the edge-type embedding `φ(e)` to the source *before* the
/// K/V projection (eq. 4/6), so the projected row depends on the pair
/// `(src, edge_type)` — not on the edge: parallel edges and every edge of
/// one type leaving one node share it. `pair_src`/`pair_ety` list the
/// distinct pairs in first-appearance order; `edge_row[e]` indexes them.
pub(crate) struct SourcePairs<'a> {
    pub edge_row: &'a [usize],
    pub pair_src: &'a [usize],
    pub pair_ety: &'a [usize],
}

impl<'a> SourcePairs<'a> {
    /// The batch's pairs, laid out in `ids` (a dense `n × n_edge_types`
    /// first-seen table, then the three lists — no hashing, no allocation
    /// once `ids` has grown).
    pub fn of(batch: &SubgraphBatch, ids: &'a mut Vec<usize>) -> Self {
        let (n, e, n_et) = (batch.n_nodes(), batch.n_edges(), ALL_EDGE_TYPES.len());
        let (pair_of, lists) = at_least(ids, n * n_et + 3 * e).split_at_mut(n * n_et);
        let (edge_row, lists) = lists.split_at_mut(e);
        let (pair_src, pair_ety) = lists.split_at_mut(e);
        pair_of.fill(usize::MAX);
        let mut n_pairs = 0;
        for ((row, &s), ty) in edge_row.iter_mut().zip(&batch.edge_src).zip(&batch.edge_ty) {
            let slot = &mut pair_of[s * n_et + ty.index()];
            if *slot == usize::MAX {
                *slot = n_pairs;
                pair_src[n_pairs] = s;
                pair_ety[n_pairs] = ty.index();
                n_pairs += 1;
            }
            *row = *slot;
        }
        SourcePairs {
            edge_row,
            pair_src: &pair_src[..n_pairs],
            pair_ety: &pair_ety[..n_pairs],
        }
    }

    pub fn len(&self) -> usize {
        self.pair_src.len()
    }
}
