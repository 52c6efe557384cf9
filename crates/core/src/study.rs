//! The §5.1 community annotation study, end to end: sample communities →
//! simulate expert annotators → run GNNExplainer → compute centrality
//! weights → hand everything to the hit-rate / hybrid machinery.
//!
//! The paper's sample: 41 communities (18 fraud seeds, 23 legit), 1 591
//! nodes, 3 344 edges, 81.56 edges/community on average; the first 21 are
//! the hybrid's training set, the last 20 its test set.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xfraud_explain::annotate::{
    edge_scores, node_scores, simulate_annotations, true_importance_for_seed, AnnotationConfig,
    EdgeAgg,
};
use xfraud_explain::centrality::{community_edge_weights, Measure};
use xfraud_explain::{CommunityWeights, ExplainerConfig, GnnExplainer};
use xfraud_hetgraph::Community;

use crate::pipeline::Pipeline;

/// Study settings.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Number of communities to sample (41 in the paper).
    pub n_communities: usize,
    /// Minimum links per community (keeps top-25 meaningful).
    pub min_links: usize,
    /// Community node cap.
    pub max_nodes: usize,
    pub annotation: AnnotationConfig,
    pub explainer: ExplainerConfig,
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            n_communities: 41,
            min_links: 6,
            // The paper's sample averages ~39 nodes / 81.6 edges per
            // community (1,591 nodes, 3,344 edges over 41 communities).
            max_nodes: 48,
            annotation: AnnotationConfig::default(),
            // The Appendix-D betas target the paper's 6-layer/400-hidden
            // detector; at our 2-layer/64-hidden scale the per-edge
            // confidence gradient is larger, so the edge-size penalty is
            // raised proportionally to keep the mask sparse and
            // discriminative instead of saturating.
            explainer: ExplainerConfig {
                beta_edge_size: 0.05,
                ..ExplainerConfig::default()
            },
            seed: 3,
        }
    }
}

/// One community's collected study data.
pub struct StudyCommunity {
    pub community: Community,
    /// Simulated-annotator edge importance (avg aggregation), aligned with
    /// `community.graph.undirected_links()`.
    pub human: Vec<f64>,
    /// Same, under all three aggregations (avg, sum, min).
    pub human_by_agg: [Vec<f64>; 3],
    /// GNNExplainer edge weights (directions collapsed by max).
    pub explainer: Vec<f64>,
    /// Per-annotator node scores, for IAA reporting.
    pub annotations: Vec<Vec<u8>>,
}

/// The full study sample.
pub struct CommunityStudy {
    pub communities: Vec<StudyCommunity>,
    pub cfg: StudyConfig,
}

impl CommunityStudy {
    /// Builds the study from a trained pipeline: samples communities,
    /// simulates annotators from the generator's ground-truth risk, and
    /// runs the GNNExplainer per community against the frozen detector.
    pub fn build(pipeline: &Pipeline, cfg: StudyConfig) -> CommunityStudy {
        #[expect(
            clippy::expect_used,
            reason = "the pipeline validated these bounds when it trained; re-sampling its own split cannot fail"
        )]
        let sampled = pipeline
            .sample_communities(cfg.n_communities, cfg.min_links, cfg.max_nodes, cfg.seed)
            .expect("study samples from the pipeline's own test split");
        let explainer = GnnExplainer::new(&pipeline.detector, cfg.explainer.clone());
        let mut communities = Vec::with_capacity(sampled.len());
        for (i, community) in sampled.into_iter().enumerate() {
            let risk = pipeline.community_risk(&community);
            let truth = true_importance_for_seed(&risk, &community.graph, community.seed);
            let ann_cfg = AnnotationConfig {
                seed: cfg.annotation.seed ^ (i as u64).wrapping_mul(0x9e37_79b9),
                ..cfg.annotation.clone()
            };
            let annotations = simulate_annotations(&truth, &ann_cfg);
            let nodes = node_scores(&annotations);
            let links = community.graph.undirected_links();
            let human_by_agg = [
                edge_scores(&nodes, &links, EdgeAgg::Avg),
                edge_scores(&nodes, &links, EdgeAgg::Sum),
                edge_scores(&nodes, &links, EdgeAgg::Min),
            ];
            let (_, explainer_w) = explainer.explain_community(&community);
            communities.push(StudyCommunity {
                community,
                human: human_by_agg[0].clone(),
                human_by_agg,
                explainer: explainer_w,
                annotations,
            });
        }
        CommunityStudy { communities, cfg }
    }

    /// Centrality edge weights per community for one measure.
    pub fn centrality_weights(&self, measure: Measure) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xce17);
        self.communities
            .iter()
            .map(|sc| community_edge_weights(&sc.community.graph, measure, &mut rng))
            .collect()
    }

    /// Packs the study into the hybrid learner's input, using `measure` as
    /// `w(c)`.
    pub fn to_community_weights(&self, measure: Measure) -> Vec<CommunityWeights> {
        let centrality = self.centrality_weights(measure);
        self.communities
            .iter()
            .zip(centrality)
            .map(|(sc, c)| CommunityWeights {
                human: sc.human.clone(),
                centrality: c,
                explainer: sc.explainer.clone(),
            })
            .collect()
    }

    /// Split into the paper's train (first 21) / test (last 20) scheme,
    /// proportionally when fewer communities are available.
    pub fn train_test_split(
        &self,
        weights: &[CommunityWeights],
    ) -> (Vec<CommunityWeights>, Vec<CommunityWeights>) {
        let n = weights.len();
        let n_train = (n * 21 + 20) / 41; // ≈ 21/41 of the sample
        let (a, b) = weights.split_at(n_train.clamp(1, n.saturating_sub(1).max(1)));
        (a.to_vec(), b.to_vec())
    }

    /// Counts of fraud- vs legit-seeded communities (paper: 18 vs 23).
    pub fn seed_label_counts(&self) -> (usize, usize) {
        let fraud = self
            .communities
            .iter()
            .filter(|sc| sc.community.seed_label == Some(true))
            .count();
        (fraud, self.communities.len() - fraud)
    }

    /// Mean links per community (paper: 81.56).
    pub fn mean_links(&self) -> f64 {
        let total: usize = self
            .communities
            .iter()
            .map(|sc| sc.community.n_links())
            .sum();
        total as f64 / self.communities.len().max(1) as f64
    }
}
