//! Receptive-field pruning's contract: a `HetConvLayer` stack run over the
//! pruned fields of `Field::layers` gives **the bits of the same stack run
//! over all rows** — target logits, every parameter gradient, both mask
//! gradients, and the RNG state after train-mode dropout. The tape-free
//! `predict`, which prunes down to the input projection's rows, gives the
//! bits of `predict` over all rows and of the eval-mode tape, and a
//! target's score is the score of the batch cut down to its field.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xfraud_gnn::{
    predict_scores, train_step, CommunitySampler, DetectorConfig, Field, Fields, HetConvLayer,
    Masks, Model, SageSampler, Sampler, SubgraphBatch, XFraudDetector,
};
use xfraud_hetgraph::{GraphBuilder, HetGraph, NodeType, ALL_EDGE_TYPES, ALL_NODE_TYPES};
use xfraud_nn::{AdamW, Layer, Linear, ParamStore, Session};
use xfraud_tensor::{softmax_rows, Tensor};

const FEATURE_DIM: usize = 5;
const HIDDEN: usize = 8;

/// `n_txn` transactions (about a third of feature entries exactly `0.0`)
/// and `n_ent` entities of random types, joined by `n_links` random links.
fn random_graph(rng: &mut StdRng, n_txn: usize, n_ent: usize, n_links: usize) -> HetGraph {
    let mut b = GraphBuilder::new(FEATURE_DIM);
    let txns: Vec<_> = (0..n_txn)
        .map(|i| {
            let f: Vec<f32> = (0..FEATURE_DIM)
                .map(|_| {
                    if rng.gen_range(0..3usize) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            b.add_txn(f, Some(i % 3 == 0))
        })
        .collect();
    let ents: Vec<_> = (0..n_ent)
        .map(|_| b.add_entity(ALL_NODE_TYPES[rng.gen_range(1..ALL_NODE_TYPES.len())]))
        .collect();
    for _ in 0..n_links {
        let (t, e) = (rng.gen_range(0..n_txn), rng.gen_range(0..n_ent));
        b.link(txns[t], ents[e]).expect("txn-entity link");
    }
    b.finish().expect("valid graph")
}

/// A 2-layer stack plus a head over the targets, with every parameter —
/// the zero-initialised edge-type embedding included — random.
struct Stack {
    store: ParamStore,
    input: Linear,
    convs: [HetConvLayer; 2],
    head: Linear,
}

impl Stack {
    fn new(rng: &mut StdRng) -> Stack {
        let mut store = ParamStore::new();
        let input = Linear::new(&mut store, "in", FEATURE_DIM, HIDDEN, true, rng);
        let convs = [
            HetConvLayer::new(&mut store, "c0", HIDDEN, HIDDEN, 2, 0.3, true, rng),
            HetConvLayer::new(&mut store, "c1", HIDDEN, HIDDEN, 2, 0.3, false, rng),
        ];
        let head = Linear::new(&mut store, "head", HIDDEN, 2, true, rng);
        for id in store.ids().collect::<Vec<_>>() {
            let (r, c) = store.value(id).shape();
            *store.value_mut(id) = Tensor::rand_uniform(r, c, -0.5, 0.5, rng);
        }
        Stack {
            store,
            input,
            convs,
            head,
        }
    }
}

/// Everything the comparison reads, as bits.
#[derive(Debug, PartialEq)]
struct Run {
    logits: Vec<u32>,
    param_grads: Vec<(usize, Vec<u32>)>,
    edge_mask_grad: Option<Vec<u32>>,
    feature_mask_grad: Option<Vec<u32>>,
    next_draw: u64,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs the stack over `fields` (one per layer) and backpropagates a
/// cross-entropy loss on the targets.
fn run(stack: &Stack, batch: &SubgraphBatch, fields: &Fields, train: bool, masked: bool) -> Run {
    let mut rng = StdRng::seed_from_u64(7);
    let mut mask_rng = StdRng::seed_from_u64(8);
    let mut sess = Session::new();
    let (n, e) = (batch.n_nodes(), batch.n_edges());
    let masks = masked.then(|| {
        let edge = Tensor::rand_uniform(e, 1, 0.05, 0.95, &mut mask_rng);
        let feat = Tensor::rand_uniform(n, FEATURE_DIM, 0.05, 0.95, &mut mask_rng);
        (sess.tape.leaf(edge, true), sess.tape.leaf(feat, true))
    });

    let mut x = sess.constant(batch.features.clone());
    if let Some((_, feat)) = masks {
        x = sess.tape.mul(x, feat);
    }
    let mut h = stack.input.forward(&mut sess, &stack.store, x);
    for (conv, field) in stack.convs.iter().zip(fields.layers()) {
        let edge_mask = masks.map(|m| m.0);
        h = conv.forward(
            &mut sess,
            &stack.store,
            h,
            batch,
            field,
            edge_mask,
            train,
            &mut rng,
        );
    }
    let rows = fields.target_rows().to_vec();
    let h_t = sess.tape.gather_rows(h, rows.into());
    let h_t = sess.tape.tanh(h_t);
    let logits = stack.head.forward(&mut sess, &stack.store, h_t);
    let loss = sess
        .tape
        .softmax_cross_entropy(logits, batch.labels.clone().into());
    let logits = bits(sess.tape.value(logits));
    let param_grads = sess
        .backward(loss)
        .iter()
        .map(|(id, g)| (id.index(), bits(g)))
        .collect();
    let grad_bits = |v| sess.tape.grad(v).map(bits);
    Run {
        logits,
        param_grads,
        edge_mask_grad: masks.and_then(|m| grad_bits(m.0)),
        feature_mask_grad: masks.and_then(|m| grad_bits(m.1)),
        next_draw: rng.gen(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pruned_fields_keep_every_bit(
        seed in any::<u64>(),
        n_txn in 4usize..30,
        n_ent in 2usize..12,
        n_links in 1usize..60,
        n_seeds in 1usize..6,
        k_hops in 1usize..4,
        per_hop in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n_txn, n_ent, n_links);
        // Seeds may repeat: a duplicated target must read one row.
        let seeds: Vec<usize> = (0..n_seeds).map(|_| rng.gen_range(0..n_txn)).collect();
        let batch = SageSampler::new(k_hops, per_hop).sample(&g, &seeds, &mut rng);
        let stack = Stack::new(&mut rng);

        let all = Fields::all(&batch, 2);
        let pruned = Field::layers(&batch, 2);
        for (train, masked) in [(true, false), (false, true), (true, true)] {
            let want = run(&stack, &batch, &all, train, masked);
            let got = run(&stack, &batch, &pruned, train, masked);
            prop_assert_eq!(want.param_grads.len(), 17, "every parameter gets a gradient");
            prop_assert_eq!(want.edge_mask_grad.is_some(), masked);
            prop_assert_eq!(got, want, "train {} masked {}", train, masked);
        }
    }
}

/// A batch built field by field: `n_txn` transaction rows, then `n_ent`
/// entities of any type, and `n_edges` random edges — every third one laid
/// down twice (parallel edges). Node 0 receives no edge. The targets are
/// node 0, `n_targets - 1` random transactions and the first of those
/// again, so one target is duplicated and one has no in-edges. About a
/// third of the feature entries are exactly `0.0`.
fn random_batch(
    rng: &mut StdRng,
    n_txn: usize,
    n_ent: usize,
    n_edges: usize,
    n_targets: usize,
) -> SubgraphBatch {
    let n = n_txn + n_ent;
    let mut node_types = vec![NodeType::Txn; n_txn];
    node_types.extend((0..n_ent).map(|_| ALL_NODE_TYPES[rng.gen_range(1..ALL_NODE_TYPES.len())]));
    let features = (0..n * FEATURE_DIM)
        .map(|i| {
            if i / FEATURE_DIM >= n_txn || rng.gen_range(0..3usize) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    let (mut edge_src, mut edge_dst, mut edge_ty) = (Vec::new(), Vec::new(), Vec::new());
    while edge_src.len() < n_edges {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(1..n));
        let ty = ALL_EDGE_TYPES[rng.gen_range(0..ALL_EDGE_TYPES.len())];
        for _ in 0..1 + usize::from(edge_src.len() % 3 == 0) {
            edge_src.push(s);
            edge_dst.push(t);
            edge_ty.push(ty);
        }
    }
    let mut targets = vec![0];
    targets.extend((1..n_targets).map(|_| rng.gen_range(0..n_txn)));
    targets.push(targets[targets.len() - 1]);
    let batch = SubgraphBatch {
        node_types,
        features: Tensor::from_vec(n, FEATURE_DIM, features).expect("n × F features"),
        edge_src,
        edge_dst,
        edge_ty,
        labels: targets.iter().map(|t| t % 2).collect(),
        targets,
        global_ids: (0..n).collect(),
    };
    assert!(batch.validate());
    batch
}

/// A detector trained a few steps, so the type and edge-type embeddings
/// (zero at initialisation) and every other weight carry updates.
fn trained(layers: usize, seed: u64, rng: &mut StdRng) -> XFraudDetector {
    let mut det = XFraudDetector::new(DetectorConfig {
        hidden: 16,
        heads: 4,
        layers,
        ..DetectorConfig::small(FEATURE_DIM, seed)
    });
    let mut opt = AdamW::new(1e-2);
    for _ in 0..3 {
        let batch = random_batch(rng, 10, 6, 40, 4);
        train_step(&mut det, &batch, &mut opt, rng);
    }
    det
}

fn score_bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Eval-mode forward on a tape, then `softmax_rows`.
fn tape_bits(det: &XFraudDetector, batch: &SubgraphBatch) -> Vec<u32> {
    let mut sess = Session::new();
    let mut rng = StdRng::seed_from_u64(0);
    let logits = det.forward(&mut sess, batch, false, &mut rng, &Masks::none());
    let probs = softmax_rows(sess.tape.value(logits));
    (0..probs.rows())
        .map(|r| probs.get(r, 1).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pruned `predict` (its own fields, input rows included) ≡ `predict`
    /// over every row of every layer ≡ over the tape's fields ≡ the tape.
    #[test]
    fn pruned_predict_keeps_every_bit(
        seed in any::<u64>(),
        layers in 1usize..4,
        n_txn in 2usize..30,
        n_ent in 1usize..15,
        n_edges in 0usize..50,
        n_targets in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let det = trained(layers, seed, &mut rng);
        let embeddings_moved = det
            .store()
            .ids()
            .filter(|&id| det.store().name(id).ends_with("emb"))
            .all(|id| det.store().value(id).norm_sq() > 0.0);
        prop_assert!(embeddings_moved, "training left an embedding table at zero");
        let batch = random_batch(&mut rng, n_txn, n_ent, n_edges, n_targets);

        let pruned = score_bits(&predict_scores(&det, &batch, &mut rng));
        let all = score_bits(&det.predict_over(&batch, &Fields::all(&batch, layers)));
        let tape_fields = score_bits(&det.predict_over(&batch, &Field::layers(&batch, layers)));
        prop_assert_eq!(&pruned, &all);
        prop_assert_eq!(&pruned, &tape_fields);
        prop_assert_eq!(pruned, tape_bits(&det, &batch));
    }
}

/// `batch` cut down to the receptive field of its `target`'s score under
/// an `n_layers` stack, found by walking in-edges back from the target:
/// the nodes that feed it, and the edges into the first layer's output
/// rows, both in batch order.
fn cut_to_field(batch: &SubgraphBatch, target: usize, n_layers: usize) -> SubgraphBatch {
    let n = batch.n_nodes();
    let mut reach = vec![false; n];
    reach[target] = true;
    let mut first_out = reach.clone();
    for _ in 0..n_layers {
        first_out.clone_from(&reach);
        for (&s, &t) in batch.edge_src.iter().zip(&batch.edge_dst) {
            if first_out[t] {
                reach[s] = true;
            }
        }
    }
    let kept: Vec<usize> = (0..n).filter(|&v| reach[v]).collect();
    let mut local = vec![usize::MAX; n];
    for (i, &v) in kept.iter().enumerate() {
        local[v] = i;
    }
    let edges: Vec<usize> = (0..batch.n_edges())
        .filter(|&e| first_out[batch.edge_dst[e]])
        .collect();
    let features = kept
        .iter()
        .flat_map(|&v| batch.features.row(v).to_vec())
        .collect();
    SubgraphBatch {
        node_types: kept.iter().map(|&v| batch.node_types[v]).collect(),
        features: Tensor::from_vec(kept.len(), batch.features.cols(), features)
            .expect("kept rows × F"),
        edge_src: edges.iter().map(|&e| local[batch.edge_src[e]]).collect(),
        edge_dst: edges.iter().map(|&e| local[batch.edge_dst[e]]).collect(),
        edge_ty: edges.iter().map(|&e| batch.edge_ty[e]).collect(),
        targets: vec![local[target]],
        labels: vec![0],
        global_ids: kept.iter().map(|&v| batch.global_ids[v]).collect(),
    }
}

/// A serving batch holding a community of more than 200 nodes: each
/// target's score is, to the bit, its score on the batch cut down to its
/// receptive field.
#[test]
fn scores_depend_only_on_the_field() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut b = GraphBuilder::new(FEATURE_DIM);
    // One big community: 240 transactions, each linked to two of 30 shared
    // entities; and a small one beside it.
    let mut community = |n_txn: usize, n_ent: usize, b: &mut GraphBuilder| -> Vec<usize> {
        let ents: Vec<_> = (0..n_ent)
            .map(|_| b.add_entity(ALL_NODE_TYPES[rng.gen_range(1..ALL_NODE_TYPES.len())]))
            .collect();
        (0..n_txn)
            .map(|i| {
                let f: Vec<f32> = (0..FEATURE_DIM)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                let t = b.add_txn(f, Some(i % 5 == 0));
                for _ in 0..2 {
                    b.link(t, ents[rng.gen_range(0..n_ent)])
                        .expect("txn-entity link");
                }
                t
            })
            .collect()
    };
    let big = community(240, 30, &mut b);
    let small = community(12, 3, &mut b);
    let g = b.finish().expect("valid graph");

    let det = {
        let mut rng = StdRng::seed_from_u64(12);
        trained(2, 12, &mut rng)
    };
    let seeds = [big[0], big[7], big[7], big[200], small[3]];
    let batch = CommunitySampler::new(4000).sample(&g, &seeds, &mut rng);
    assert!(batch.n_nodes() > 250, "{} nodes", batch.n_nodes());

    let scores = score_bits(&predict_scores(&det, &batch, &mut rng));
    assert_eq!(scores, tape_bits(&det, &batch));
    for (&target, &score) in batch.targets.iter().zip(&scores) {
        let cut = cut_to_field(&batch, target, 2);
        assert!(cut.validate());
        assert!(cut.n_nodes() < batch.n_nodes());
        let cut_score = score_bits(&predict_scores(&det, &cut, &mut rng));
        assert_eq!(
            cut_score,
            vec![score],
            "target {target}, field of {} nodes",
            cut.n_nodes()
        );
    }
}
