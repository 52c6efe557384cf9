//! Receptive-field pruning's contract: a `HetConvLayer` stack run over the
//! pruned fields of `Field::layers` gives **the bits of the same stack run
//! over all rows** — target logits, every parameter gradient, both mask
//! gradients, and the RNG state after train-mode dropout.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xfraud_gnn::{Field, HetConvLayer, SageSampler, Sampler, SubgraphBatch};
use xfraud_hetgraph::{GraphBuilder, HetGraph, ALL_NODE_TYPES};
use xfraud_nn::{Layer, Linear, ParamStore, Session};
use xfraud_tensor::Tensor;

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
fn run(stack: &Stack, batch: &SubgraphBatch, fields: &[Field], train: bool, masked: bool) -> Run {
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
    for (conv, field) in stack.convs.iter().zip(fields) {
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
    let rows = fields[1].rows_of(&batch.targets);
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

        let all = [Field::all(&batch), Field::all(&batch)];
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
