//! Pins GNNExplainer's outputs: a checksum over the bits of the directed edge
//! mask, the feature mask, the predicted score and the aligned link weights
//! that `explain_community` returns with the default (100-epoch) config, on
//! six fixed communities against a briefly trained detector. The values were
//! taken before the tape learned to skip gradients nobody reads, so a change
//! that moves a mask gradient, reorders an accumulation or draws the RNG
//! differently fails here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xfraud_datagen::{Dataset, DatasetPreset};
use xfraud_explain::{ExplainerConfig, GnnExplainer};
use xfraud_gnn::{train_step, DetectorConfig, SageSampler, Sampler, XFraudDetector};
use xfraud_hetgraph::{community_of, Community, HetGraph};
use xfraud_nn::AdamW;

/// A small-config detector after four `train_step`s on 2-hop SAGE batches.
fn detector(g: &HetGraph) -> XFraudDetector {
    let fd = g.features().cols();
    let mut det = XFraudDetector::new(DetectorConfig::small(fd, 5));
    let labeled: Vec<usize> = g.labeled_txns().iter().map(|&(v, _)| v).collect();
    let mut opt = AdamW::new(3e-3);
    let mut rng = StdRng::seed_from_u64(7);
    for seeds in labeled.chunks(32).take(4) {
        let batch = SageSampler::new(2, 8).sample(g, seeds, &mut rng);
        assert!(train_step(&mut det, &batch, &mut opt, &mut rng).is_finite());
    }
    det
}

/// Six communities of 5–120 links and pairwise different sizes around the
/// labelled transactions, in label order.
fn communities(g: &HetGraph) -> Vec<Community> {
    let mut out: Vec<Community> = Vec::new();
    for (t, _) in g.labeled_txns() {
        let c = community_of(g, t, 160).expect("labelled txn is a node");
        if (5..=120).contains(&c.n_links()) && out.iter().all(|o| o.n_links() != c.n_links()) {
            out.push(c);
        }
        if out.len() == 6 {
            break;
        }
    }
    out
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn default_explanations_keep_their_pinned_bits() {
    let g = Dataset::generate(DatasetPreset::EbaySmallSim, 3).graph;
    let det = detector(&g);
    let communities = communities(&g);
    assert_eq!(communities.len(), 6);
    let explainer = GnnExplainer::new(&det, ExplainerConfig::default());
    let got: Vec<(usize, u64)> = communities
        .iter()
        .map(|c| {
            let (expl, aligned) = explainer.explain_community(c);
            assert_eq!(aligned.len(), c.n_links());
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for x in &expl.directed_edge_mask {
                fnv(&mut h, &x.to_bits().to_le_bytes());
            }
            for x in expl.feature_mask.data() {
                fnv(&mut h, &x.to_bits().to_le_bytes());
            }
            fnv(&mut h, &expl.predicted_score.to_bits().to_le_bytes());
            for x in &aligned {
                fnv(&mut h, &x.to_bits().to_le_bytes());
            }
            (c.n_links(), h)
        })
        .collect();
    let want: [(usize, u64); 6] = [
        (28, 0xff1eaf2cdf4760a7),
        (20, 0xcc4c505e29911f84),
        (92, 0x61b6dfd3f54c238f),
        (48, 0x10e9bd9f876b2bec),
        (40, 0xda40eec3c1d294be),
        (56, 0x50140bed1300f3d0),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
