//! Scratch memory and edge bookkeeping for the detector's tape-free
//! eval-mode forward ([`crate::XFraudDetector`]'s `Model::predict`).
//!
//! A tape forward allocates one tensor per op (~90 per score) and clones
//! every weight onto the tape. The fast path instead keeps its receptive
//! fields and all of its work areas in one grow-only arena per scoring
//! thread, so a warmed-up call allocates nothing but the `Vec` of scores it
//! returns.

use std::cell::RefCell;

use xfraud_hetgraph::ALL_EDGE_TYPES;

use crate::batch::SubgraphBatch;
use crate::field::{Field, Fields};
use crate::hetconv::ConvBufs;

/// One scoring thread's reusable state: the receptive fields of the batch
/// being scored and the work areas of the forward over them.
#[derive(Default)]
pub(crate) struct Arena {
    pub fields: Fields,
    pub work: Work,
}

/// The forward's work areas. Each only ever grows; contents are garbage
/// between calls — every user overwrites what it reads.
#[derive(Default)]
pub(crate) struct Work {
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

/// Which projected source row each edge of a field reads.
///
/// Layer 0 adds the edge-type embedding `φ(e)` to the source *before* the
/// K/V projection (eq. 4/6), so there the projected row depends on the
/// pair `(src, edge_type)` — not on the edge: parallel edges and every edge
/// of one type leaving one node share it. Deeper layers project each
/// source once. `first_edge` lists, in first-appearance order, the field
/// position of each distinct source's first edge; `edge_row[i]` indexes
/// that list for the field's edge `i`.
pub(crate) struct SourcePairs<'a> {
    pub edge_row: &'a [usize],
    pub first_edge: &'a [usize],
}

impl<'a> SourcePairs<'a> {
    /// The sources of `field`'s edges, keyed by input row (of `n_in`) and,
    /// if `by_type`, edge type, laid out in `ids`: a dense first-seen table,
    /// then the two lists — no hashing, no allocation once `ids` has grown.
    pub fn of(
        batch: &SubgraphBatch,
        field: &Field,
        n_in: usize,
        by_type: bool,
        ids: &'a mut Vec<usize>,
    ) -> Self {
        let n_et = if by_type { ALL_EDGE_TYPES.len() } else { 1 };
        let e = field.edges.len();
        let (pair_of, lists) = at_least(ids, n_in * n_et + 2 * e).split_at_mut(n_in * n_et);
        let (edge_row, first_edge) = lists.split_at_mut(e);
        pair_of.fill(usize::MAX);
        let mut n_pairs = 0;
        for (i, (row, (&s, &be))) in edge_row
            .iter_mut()
            .zip(field.edge_src.iter().zip(field.edges.iter()))
            .enumerate()
        {
            let ty = if by_type {
                batch.edge_ty[be].index()
            } else {
                0
            };
            let slot = &mut pair_of[s * n_et + ty];
            if *slot == usize::MAX {
                *slot = n_pairs;
                first_edge[n_pairs] = i;
                n_pairs += 1;
            }
            *row = *slot;
        }
        SourcePairs {
            edge_row,
            first_edge: &first_edge[..n_pairs],
        }
    }

    pub fn len(&self) -> usize {
        self.first_edge.len()
    }
}
