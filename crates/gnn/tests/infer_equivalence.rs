//! The tape-free scoring path's contract: **`predict_scores` returns exactly
//! the bits of an eval-mode `Model::forward` + `softmax_rows`** — for any
//! subgraph shape, any trained weights and any detector size — and a
//! warmed-up call allocates nothing but the `Vec` it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xfraud_gnn::{
    predict_scores, train_step, DetectorConfig, Masks, Model, SubgraphBatch, XFraudDetector,
};
use xfraud_hetgraph::{ALL_EDGE_TYPES, ALL_NODE_TYPES};
use xfraud_nn::{AdamW, Session};
use xfraud_tensor::{softmax_rows, Tensor};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts this thread's allocations (tests run on parallel threads).
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FEATURE_DIM: usize = 6;

/// A random batch built field by field (no graph behind it): `n_targets`
/// transaction rows first, then `extra` nodes of any type; `n_edges` edges
/// with arbitrary endpoints and types — parallel duplicates included —
/// except that the first target never receives one and the last node is
/// isolated (`extra >= 1`). About a third of the feature entries are exactly `0.0`.
fn random_batch(rng: &mut StdRng, n_targets: usize, extra: usize, n_edges: usize) -> SubgraphBatch {
    let n = n_targets + extra + 1;
    let mut node_types = vec![ALL_NODE_TYPES[0]; n_targets];
    node_types.extend((n_targets..n).map(|_| ALL_NODE_TYPES[rng.gen_range(0..5usize)]));
    let features = (0..n * FEATURE_DIM)
        .map(|_| {
            if rng.gen_range(0..3usize) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    let (mut edge_src, mut edge_dst, mut edge_ty) = (Vec::new(), Vec::new(), Vec::new());
    while edge_src.len() < n_edges {
        let (s, t) = (rng.gen_range(0..n - 1), rng.gen_range(1..n - 1));
        let ty = ALL_EDGE_TYPES[rng.gen_range(0..8usize)];
        // Every other edge is laid down twice.
        for _ in 0..1 + edge_src.len() % 2 {
            edge_src.push(s);
            edge_dst.push(t);
            edge_ty.push(ty);
        }
    }
    let batch = SubgraphBatch {
        node_types,
        features: Tensor::from_vec(n, FEATURE_DIM, features).unwrap(),
        edge_src,
        edge_dst,
        edge_ty,
        targets: (0..n_targets).collect(),
        labels: (0..n_targets).map(|i| i % 2).collect(),
        global_ids: (0..n).collect(),
    };
    assert!(batch.validate());
    batch
}

/// A detector trained a few steps, so type and edge-type embeddings (zero
/// at initialisation) and every other weight carry gradient updates.
fn trained(cfg: DetectorConfig, rng: &mut StdRng) -> XFraudDetector {
    let mut det = XFraudDetector::new(cfg);
    let mut opt = AdamW::new(1e-2);
    for _ in 0..3 {
        let batch = random_batch(rng, 8, 12, 60);
        train_step(&mut det, &batch, &mut opt, rng);
    }
    det
}

fn cfg(hidden: usize, heads: usize, layers: usize, seed: u64) -> DetectorConfig {
    DetectorConfig {
        hidden,
        heads,
        layers,
        ..DetectorConfig::small(FEATURE_DIM, seed)
    }
}

/// The reference: eval-mode forward on a tape, then `softmax_rows`.
fn tape_scores(det: &XFraudDetector, batch: &SubgraphBatch) -> Vec<u32> {
    let mut sess = Session::new();
    let mut rng = StdRng::seed_from_u64(0);
    let logits = det.forward(&mut sess, batch, false, &mut rng, &Masks::none());
    let probs = softmax_rows(sess.tape.value(logits));
    (0..probs.rows())
        .map(|r| probs.get(r, 1).to_bits())
        .collect()
}

fn fast_scores(det: &XFraudDetector, batch: &SubgraphBatch) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(0);
    let scores = predict_scores(det, batch, &mut rng);
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cases run back to back on one thread, so each also reuses an arena
    /// still holding the previous (differently shaped) case's values.
    #[test]
    fn predict_scores_equals_the_tape_bit_for_bit(
        seed in any::<u64>(),
        n_targets in prop_oneof![Just(1usize), Just(8usize), Just(64usize)],
        extra in 1usize..40,
        n_edges in 0usize..400,
        shape in prop_oneof![Just((8usize, 2usize)), Just((16, 4)), Just((24, 3)), Just((64, 4))],
        layers in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (hidden, heads) = shape;
        let det = trained(cfg(hidden, heads, layers, seed), &mut rng);
        let embeddings_moved = det
            .store()
            .ids()
            .filter(|&id| det.store().name(id).ends_with("emb"))
            .all(|id| det.store().value(id).norm_sq() > 0.0);
        prop_assert!(embeddings_moved, "training left an embedding table at zero");
        let batch = random_batch(&mut rng, n_targets, extra, n_edges);
        prop_assert_eq!(fast_scores(&det, &batch), tape_scores(&det, &batch));
    }
}

/// The per-type-projection ablation has no fast path: `predict_scores` must
/// still answer, through the tape.
#[test]
fn per_type_projections_fall_back_to_the_tape() {
    let mut rng = StdRng::seed_from_u64(3);
    let det = trained(
        DetectorConfig {
            per_type_projections: true,
            ..cfg(16, 4, 2, 3)
        },
        &mut rng,
    );
    let batch = random_batch(&mut rng, 8, 20, 120);
    assert_eq!(fast_scores(&det, &batch), tape_scores(&det, &batch));
}

/// Retraining in place must be visible to the next score: weights are read
/// from the store, not from a packed copy made earlier.
#[test]
fn scores_follow_the_store_through_training() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut det = trained(cfg(16, 4, 2, 4), &mut rng);
    let batch = random_batch(&mut rng, 8, 20, 120);
    let before = fast_scores(&det, &batch);
    train_step(&mut det, &batch, &mut AdamW::new(1e-2), &mut rng);
    let after = fast_scores(&det, &batch);
    assert_ne!(before, after);
    assert_eq!(after, tape_scores(&det, &batch));
}

/// `a` followed by a disjoint copy-shaped `b` whose nodes are no target's
/// neighbours: `a`'s targets' receptive fields are a strict subset of the
/// rows.
fn with_unread_rows(a: SubgraphBatch, b: &SubgraphBatch) -> SubgraphBatch {
    let n = a.n_nodes();
    let mut out = a;
    out.node_types.extend(&b.node_types);
    let features = [out.features.data(), b.features.data()].concat();
    out.features = Tensor::from_vec(n + b.n_nodes(), FEATURE_DIM, features).unwrap();
    out.edge_src.extend(b.edge_src.iter().map(|s| s + n));
    out.edge_dst.extend(b.edge_dst.iter().map(|t| t + n));
    out.edge_ty.extend(&b.edge_ty);
    out.global_ids = (0..out.node_types.len()).collect();
    assert!(out.validate());
    out
}

/// Once the thread's arena has grown to a batch's size, scoring it again
/// allocates only the returned `Vec` — however many edges or layers, and
/// whether or not the targets' fields cover every row.
#[test]
fn a_warmed_up_call_allocates_only_its_result() {
    let mut rng = StdRng::seed_from_u64(5);
    for layers in [1, 3] {
        let det = trained(cfg(32, 4, layers, 5), &mut rng);
        for n_edges in [0, 50, 2000] {
            let batch = random_batch(&mut rng, 8, 30, n_edges);
            let unread = random_batch(&mut rng, 8, 30, n_edges);
            let pruned = with_unread_rows(batch.clone(), &unread);
            let mut results = Vec::new();
            for batch in [batch, pruned] {
                let warm = predict_scores(&det, &batch, &mut rng);
                let before = ALLOCATIONS.with(Cell::get);
                let scores = predict_scores(&det, &batch, &mut rng);
                let allocated = ALLOCATIONS.with(Cell::get) - before;
                assert_eq!(scores, warm);
                assert!(
                    allocated <= 1,
                    "{allocated} allocations with {layers} layers, {n_edges} edges, {} rows",
                    batch.n_nodes()
                );
                results.push(scores);
            }
            assert_eq!(results[0], results[1], "unread rows changed a score");
        }
    }
}
