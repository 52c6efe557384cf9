use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use xfraud_gnn::{Masks, Model, SubgraphBatch};
use xfraud_hetgraph::Community;
use xfraud_nn::{AdamW, ParamStore, Session};
use xfraud_tensor::{Tensor, Var};

/// Undirected edge weights aligned with a community's
/// [`xfraud_hetgraph::HetGraph::undirected_links`] order.
pub type EdgeWeights = Vec<f64>;

/// GNNExplainer hyper-parameters (Appendix D): `epochs = 100, lr = 0.01,
/// β_edge_size = 0.005, β_edge_entropy = 1, β_node_feature_size = 1,
/// β_node_feature_entropy = 0.1`. (The appendix lists
/// "β_node_feature_size" twice — a typo; we follow the reference
/// GNNExplainer defaults it mirrors, reading the second as the entropy
/// coefficient.)
#[derive(Debug, Clone)]
pub struct ExplainerConfig {
    pub epochs: usize,
    pub lr: f32,
    pub beta_edge_size: f32,
    pub beta_edge_entropy: f32,
    pub beta_feat_size: f32,
    pub beta_feat_entropy: f32,
    /// Explanation is restricted to the seed's `hops`-hop computation
    /// subgraph (the detector's receptive field): edges beyond it provably
    /// cannot influence the prediction, so their masks would be pure noise.
    /// Set to the detector's layer count.
    pub hops: usize,
    pub seed: u64,
}

impl Default for ExplainerConfig {
    fn default() -> Self {
        ExplainerConfig {
            epochs: 100,
            lr: 0.01,
            beta_edge_size: 0.005,
            beta_edge_entropy: 1.0,
            beta_feat_size: 1.0,
            beta_feat_entropy: 0.1,
            hops: 2,
            seed: 23,
        }
    }
}

/// The output of one explanation run.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Sigmoid edge-mask value per *directed* batch edge.
    pub directed_edge_mask: Vec<f32>,
    /// Unique undirected links (local min/max id pairs) of the batch.
    pub links: Vec<(usize, usize)>,
    /// Per-link weight: the larger of the two directions' masks (footnote 4
    /// of the paper — annotators can't judge direction, so we collapse).
    pub edge_weights: EdgeWeights,
    /// `[n_nodes, F]` sigmoid node-feature mask (the paper's extension: one
    /// feature mask per node, not one global mask).
    pub feature_mask: Tensor,
    /// The detector's (unmasked) predicted class for the explained node.
    pub predicted_label: usize,
    /// The detector's fraud probability for the explained node.
    pub predicted_score: f32,
}

/// The learner of Appendix D: optimises a sigmoid edge mask and a per-node
/// feature mask so that the *frozen* detector, run on the masked graph,
/// still reproduces its prediction — while the size and entropy penalties
/// push both masks to be small and crisp. "The xFraud detector is not
/// retrained during the explanation process": only the masks receive
/// optimizer steps, the detector store is read-only here.
pub struct GnnExplainer<'m, M: Model> {
    model: &'m M,
    pub cfg: ExplainerConfig,
}

impl<'m, M: Model> GnnExplainer<'m, M> {
    pub fn new(model: &'m M, cfg: ExplainerConfig) -> Self {
        GnnExplainer { model, cfg }
    }

    /// Explains the (single-target) `batch`.
    pub fn explain(&self, batch: &SubgraphBatch) -> Explanation {
        assert_eq!(batch.targets.len(), 1, "explain one node at a time");
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        // 1. The detector's own prediction is the explanation target (the
        //    mutual-information view of GNNExplainer).
        let predicted_score = self.model.predict(batch, &mut rng)[0];
        let predicted_label = usize::from(predicted_score >= 0.5);
        let labels = Rc::new(vec![predicted_label]);

        // 2. Mask parameters, random-initialised (Appendix D: "initialized
        //    with a random edge mask 1×|E| and a random node feature mask
        //    |V|×F").
        let e = batch.n_edges();
        let n = batch.n_nodes();
        let f = batch.features.cols();
        // Small random init: ±0.1 keeps the pre-training ranking noise floor
        // well below the learned signal (±0.5 drowned low-gradient edges).
        let mut masks = ParamStore::new();
        let edge_logits = masks.register(
            "edge_mask",
            Tensor::rand_uniform(e.max(1), 1, -0.1, 0.1, &mut rng),
        );
        let feat_logits =
            masks.register("feat_mask", Tensor::rand_uniform(n, f, -0.1, 0.1, &mut rng));
        let mut opt = AdamW::new(self.cfg.lr)
            .with_weight_decay(0.0)
            .with_clip(None);

        for _ in 0..self.cfg.epochs {
            // The detector binds frozen: only the two mask logits are live.
            let mut sess = Session::freezing(self.model.store());
            let el = sess.param(&masks, edge_logits);
            let fl = sess.param(&masks, feat_logits);
            let edge_mask = sess.tape.sigmoid(el);
            let feat_mask = sess.tape.sigmoid(fl);

            let logits = self.model.forward(
                &mut sess,
                batch,
                false,
                &mut rng,
                &Masks {
                    edge_mask: Some(edge_mask),
                    feature_mask: Some(feat_mask),
                },
            );
            // eq. 11: detector loss on the explained node.
            let pred_loss = sess.tape.softmax_cross_entropy(logits, Rc::clone(&labels));

            // eq. 12: edge size + edge entropy.
            let edge_size = sess.tape.sum_all(edge_mask);
            let edge_size = sess.tape.scale(edge_size, self.cfg.beta_edge_size);
            let edge_ent = mean_binary_entropy(&mut sess, edge_mask);
            let edge_ent = sess.tape.scale(edge_ent, self.cfg.beta_edge_entropy);

            // eq. 13: feature size + feature entropy (both mean-normalised).
            let feat_size = sess.tape.mean_all(feat_mask);
            let feat_size = sess.tape.scale(feat_size, self.cfg.beta_feat_size);
            let feat_ent = mean_binary_entropy(&mut sess, feat_mask);
            let feat_ent = sess.tape.scale(feat_ent, self.cfg.beta_feat_entropy);

            let l1 = sess.tape.add(pred_loss, edge_size);
            let l2 = sess.tape.add(l1, edge_ent);
            let l3 = sess.tape.add(l2, feat_size);
            let loss = sess.tape.add(l3, feat_ent);

            let grads = sess.backward(loss);
            opt.step(&mut masks, &grads);
        }

        // 3. Read out the masks.
        let directed_edge_mask: Vec<f32> = masks
            .value(edge_logits)
            .data()
            .iter()
            .map(|&x| sigmoid(x))
            .collect();
        let feature_mask = masks.value(feat_logits).map(sigmoid);

        // Collapse directions by max (footnote 4). BTreeMap keeps the link
        // list in key order without a separate sort (determinism rule D1).
        let mut link_weight: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for (i, (&s, &d)) in batch.edge_src.iter().zip(&batch.edge_dst).enumerate() {
            let key = (s.min(d), s.max(d));
            let w = directed_edge_mask[i] as f64;
            let slot = link_weight.entry(key).or_insert(f64::NEG_INFINITY);
            if w > *slot {
                *slot = w;
            }
        }
        let links: Vec<(usize, usize)> = link_weight.keys().copied().collect();
        let edge_weights = links.iter().map(|k| link_weight[k]).collect();

        Explanation {
            directed_edge_mask,
            links,
            edge_weights,
            feature_mask,
            predicted_label,
            predicted_score,
        }
    }

    /// Explains a community seed, returning weights aligned with
    /// `community.graph.undirected_links()` — the alignment the hit-rate
    /// pipeline and the hybrid explainer rely on. Only the seed's
    /// `cfg.hops`-hop computation subgraph is masked/optimised; links
    /// outside the receptive field get weight 0.
    pub fn explain_community(&self, community: &Community) -> (Explanation, EdgeWeights) {
        let g = &community.graph;
        let hood = xfraud_hetgraph::khop_neighborhood(g, community.seed, self.cfg.hops, usize::MAX);
        let batch = SubgraphBatch::from_nodes(g, &hood, &[community.seed]);
        let explanation = self.explain(&batch);
        // Map batch-local link weights back to community node ids.
        let map: HashMap<(usize, usize), f64> = explanation
            .links
            .iter()
            .zip(&explanation.edge_weights)
            .map(|(&(a, b), &w)| {
                let (u, v) = (batch.global_ids[a], batch.global_ids[b]);
                ((u.min(v), u.max(v)), w)
            })
            .collect();
        let aligned = g
            .undirected_links()
            .iter()
            .map(|&(u, v)| map.get(&(u.min(v), u.max(v))).copied().unwrap_or(0.0))
            .collect();
        (explanation, aligned)
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `mean( -m·ln(m) - (1-m)·ln(1-m) )` over all mask entries.
fn mean_binary_entropy(sess: &mut Session, mask: Var) -> Var {
    let eps = 1e-6;
    let log_m = sess.tape.log_eps(mask, eps);
    let neg_m = sess.tape.scale(mask, -1.0);
    let one_minus = sess.tape.add_const(neg_m, 1.0);
    let log_1m = sess.tape.log_eps(one_minus, eps);
    let t1 = sess.tape.mul(mask, log_m);
    let t2 = sess.tape.mul(one_minus, log_1m);
    let s = sess.tape.add(t1, t2);
    let s = sess.tape.scale(s, -1.0);
    sess.tape.mean_all(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use xfraud_gnn::{
        predict_scores, train_step, DetectorConfig, FullGraphSampler, Sampler, XFraudDetector,
    };
    use xfraud_hetgraph::{community_of, GraphBuilder, NodeType};
    use xfraud_nn::AdamW as Opt;

    /// A graph where fraud is *entirely* decided by being linked to a bad
    /// payment token — features carry no signal. The explainer must then
    /// put high weight on the seed→bad-pmt edge.
    fn planted_graph() -> xfraud_hetgraph::HetGraph {
        let mut b = GraphBuilder::new(2);
        let mut rng = StdRng::seed_from_u64(11);
        let bad_pmt = b.add_entity(NodeType::Pmt);
        let good_pmt = b.add_entity(NodeType::Pmt);
        let addr = b.add_entity(NodeType::Addr);
        for _ in 0..12 {
            let noise = [rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)];
            let t = b.add_txn(noise, Some(true));
            b.link(t, bad_pmt).unwrap();
            b.link(t, addr).unwrap();
        }
        for _ in 0..12 {
            let noise = [rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)];
            let t = b.add_txn(noise, Some(false));
            b.link(t, good_pmt).unwrap();
            b.link(t, addr).unwrap();
        }
        b.finish().unwrap()
    }

    fn trained_detector(g: &xfraud_hetgraph::HetGraph) -> XFraudDetector {
        let mut det = XFraudDetector::new(DetectorConfig::small(2, 7));
        let mut rng = StdRng::seed_from_u64(1);
        let targets: Vec<usize> = g.labeled_txns().iter().map(|&(v, _)| v).collect();
        let batch = FullGraphSampler.sample(g, &targets, &mut rng);
        let mut opt = Opt::new(5e-3);
        for _ in 0..60 {
            train_step(&mut det, &batch, &mut opt, &mut rng);
        }
        det
    }

    #[test]
    fn explainer_runs_and_emits_weights_in_range() {
        let g = planted_graph();
        let det = trained_detector(&g);
        let community = community_of(&g, 3, usize::MAX).unwrap();
        let explainer = GnnExplainer::new(
            &det,
            ExplainerConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        let (expl, aligned) = explainer.explain_community(&community);
        assert_eq!(aligned.len(), community.graph.n_links());
        assert!(expl.edge_weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        // The feature mask covers the seed's receptive-field subgraph.
        assert!(expl.feature_mask.rows() <= community.graph.n_nodes());
        assert!(expl.feature_mask.rows() > 0);
        assert_eq!(expl.feature_mask.cols(), 2);
    }

    #[test]
    fn explainer_upweights_the_risk_carrying_edge() {
        let g = planted_graph();
        let det = trained_detector(&g);
        // Sanity: the detector actually uses the graph.
        let mut rng = StdRng::seed_from_u64(2);
        let targets: Vec<usize> = g.labeled_txns().iter().map(|&(v, _)| v).collect();
        let batch = FullGraphSampler.sample(&g, &targets, &mut rng);
        let scores = predict_scores(&det, &batch, &mut rng);
        let (mut f_avg, mut b_avg, mut nf, mut nb) = (0.0, 0.0, 0, 0);
        for (s, &(_, y)) in scores.iter().zip(&g.labeled_txns()) {
            if y {
                f_avg += s;
                nf += 1;
            } else {
                b_avg += s;
                nb += 1;
            }
        }
        assert!(
            f_avg / nf as f32 > b_avg / nb as f32 + 0.2,
            "detector failed to learn"
        );

        // Explain a fraud seed; its edge to the bad pmt should outweigh its
        // edge to the shared (uninformative) address.
        let seed = 3; // first fraud txn node id
        let community = community_of(&g, seed, usize::MAX).unwrap();
        let explainer = GnnExplainer::new(
            &det,
            ExplainerConfig {
                epochs: 120,
                ..Default::default()
            },
        );
        let (_, weights) = explainer.explain_community(&community);
        let links = community.graph.undirected_links();
        let local_seed = community.seed;
        let bad_pmt_local = (0..community.graph.n_nodes())
            .find(|&v| {
                community.graph.node_type(v) == NodeType::Pmt
                    && community.graph.neighbors(local_seed).any(|u| u == v)
            })
            .unwrap();
        let addr_local = (0..community.graph.n_nodes())
            .find(|&v| community.graph.node_type(v) == NodeType::Addr)
            .unwrap();
        let w_of = |a: usize, b: usize| {
            links
                .iter()
                .zip(&weights)
                .find(|(&(u, v), _)| (u, v) == (a.min(b), a.max(b)))
                .map(|(_, &w)| w)
                .expect("link exists")
        };
        let w_pmt = w_of(local_seed, bad_pmt_local);
        let w_addr = w_of(local_seed, addr_local);
        assert!(
            w_pmt > w_addr,
            "risk edge ({w_pmt:.3}) should outweigh neutral edge ({w_addr:.3})"
        );
    }

    #[test]
    fn explainer_is_deterministic_per_seed() {
        let g = planted_graph();
        let det = trained_detector(&g);
        let community = community_of(&g, 3, usize::MAX).unwrap();
        let cfg = ExplainerConfig {
            epochs: 10,
            ..Default::default()
        };
        let a = GnnExplainer::new(&det, cfg.clone())
            .explain_community(&community)
            .1;
        let b = GnnExplainer::new(&det, cfg).explain_community(&community).1;
        assert_eq!(a, b);
    }
}
