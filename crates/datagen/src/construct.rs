use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xfraud_hetgraph::{GraphBuilder, NodeId, NodeType};

use crate::config::WorldConfig;
use crate::dataset::Dataset;
use crate::generator::World;

/// Applies the Appendix-B graph-construction protocol to a transaction log:
///
/// 1. every transaction becomes a `txn` node; every entity that appears
///    becomes an entity node; usage creates a link;
/// 2. labels: all frauds are labelled, benign transactions are labelled with
///    probability `benign_label_rate` (the paper samples 1 % of non-fraud —
///    "the other transactions are still in the graph, but without supervised
///    labels");
/// 3. neighbourhoods (connected components) with fewer than
///    `min_neighborhood_txns` transactions are filtered out to preserve
///    connectivity.
///
/// Ground-truth node risk for the annotator simulation is carried through:
/// a transaction keeps its latent risk; an entity scores by the share and
/// strength of fraudulent transactions incident to it.
pub fn build_dataset(world: &World, cfg: &WorldConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_1abe);

    let est_nodes = world.records.len() * 2;
    let mut b = GraphBuilder::with_capacity(cfg.feature_dim, est_nodes, world.records.len() * 4);
    b.reserve_txns(world.records.len());

    // Entity nodes are created lazily on first use.
    let mut pmt_node: HashMap<usize, NodeId> = HashMap::new();
    let mut email_node: HashMap<usize, NodeId> = HashMap::new();
    let mut addr_node: HashMap<usize, NodeId> = HashMap::new();
    let mut buyer_node: HashMap<usize, NodeId> = HashMap::new();

    let mut txn_nodes: Vec<NodeId> = Vec::with_capacity(world.records.len());
    for rec in &world.records {
        let clean = if rec.is_fraud() {
            Some(true)
        } else if rng.gen_bool(cfg.benign_label_rate) {
            Some(false)
        } else {
            None
        };
        // Chargeback-lag label noise (see `WorldConfig::label_noise`):
        // asymmetric, as in production — frauds go unreported (banks never
        // forward some card-stolen claims, §5.2) far more often than benign
        // transactions get wrongly flagged.
        let label = clean.map(|y| {
            let flip_prob = if y {
                cfg.label_noise
            } else {
                cfg.label_noise * 0.1
            };
            if rng.gen_bool(flip_prob) {
                !y
            } else {
                y
            }
        });
        let t = b.add_txn(&rec.features, label);
        txn_nodes.push(t);

        let p = *pmt_node
            .entry(rec.pmt)
            .or_insert_with(|| b.add_entity(NodeType::Pmt));
        #[expect(
            clippy::expect_used,
            reason = "txn→entity links are schema-legal by construction; link() only rejects entity-entity pairs"
        )]
        b.link(t, p).expect("txn-pmt link");
        let e = *email_node
            .entry(rec.email)
            .or_insert_with(|| b.add_entity(NodeType::Email));
        #[expect(
            clippy::expect_used,
            reason = "txn→entity links are schema-legal by construction"
        )]
        b.link(t, e).expect("txn-email link");
        let a = *addr_node
            .entry(rec.addr)
            .or_insert_with(|| b.add_entity(NodeType::Addr));
        #[expect(
            clippy::expect_used,
            reason = "txn→entity links are schema-legal by construction"
        )]
        b.link(t, a).expect("txn-addr link");
        if let Some(buyer) = rec.buyer {
            let u = *buyer_node
                .entry(buyer)
                .or_insert_with(|| b.add_entity(NodeType::Buyer));
            #[expect(
                clippy::expect_used,
                reason = "txn→entity links are schema-legal by construction"
            )]
            b.link(t, u).expect("txn-buyer link");
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "every node added above was linked through the builder, so finish() cannot observe an inconsistency"
    )]
    let full = b.finish().expect("builder consistency");

    // Ground-truth risk, event times and mechanisms on the full graph.
    let mut node_risk = vec![0.0f32; full.n_nodes()];
    let mut node_time = vec![f32::INFINITY; full.n_nodes()];
    let mut node_mechanism: Vec<Option<crate::records::FraudMechanism>> =
        vec![None; full.n_nodes()];
    for (i, rec) in world.records.iter().enumerate() {
        node_risk[txn_nodes[i]] = rec.latent_risk;
        node_time[txn_nodes[i]] = rec.time;
        node_mechanism[txn_nodes[i]] = Some(rec.mechanism);
    }
    // Entities inherit their earliest incident transaction time.
    for v in 0..full.n_nodes() {
        if full.node_type(v) != NodeType::Txn {
            let earliest = full
                .neighbors(v)
                .map(|u| node_time[u])
                .fold(f32::INFINITY, f32::min);
            node_time[v] = if earliest.is_finite() { earliest } else { 0.0 };
        }
    }
    for v in 0..full.n_nodes() {
        if full.node_type(v) == NodeType::Txn {
            continue;
        }
        let mut fraud_risk_sum = 0.0f32;
        let mut fraud = 0usize;
        let mut total = 0usize;
        for u in full.neighbors(v) {
            total += 1;
            if full.label(u) == Some(true) {
                fraud += 1;
                fraud_risk_sum += node_risk[u];
            }
        }
        if total > 0 && fraud > 0 {
            let share = fraud as f32 / total as f32;
            let strength = fraud_risk_sum / fraud as f32;
            // Entities channelling mostly-fraud traffic approach risk 1.
            node_risk[v] = (0.25 + 0.75 * share) * strength;
        } else {
            node_risk[v] = 0.05;
        }
    }

    // Component filtering (Appendix B step 3).
    let keep = filter_small_components(&full, cfg.min_neighborhood_txns);
    let (graph, map) = full.induced_subgraph(&keep);
    let mut kept_risk = vec![0.0f32; graph.n_nodes()];
    let mut kept_time = vec![0.0f32; graph.n_nodes()];
    let mut kept_mech = vec![None; graph.n_nodes()];
    for (old, &new) in map.iter().enumerate() {
        if let Some(new) = new {
            kept_risk[new] = node_risk[old];
            kept_time[new] = node_time[old];
            kept_mech[new] = node_mechanism[old];
        }
    }

    Dataset {
        name: String::from("custom"),
        graph,
        node_risk: kept_risk,
        node_time: kept_time,
        node_mechanism: kept_mech,
    }
}

/// Nodes of components containing at least `min_txns` transactions.
/// Shared with the out-of-core build in [`crate::ondisk`].
pub(crate) fn filter_small_components(
    g: &xfraud_hetgraph::HetGraph,
    min_txns: usize,
) -> Vec<NodeId> {
    let n = g.n_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = n_comp;
        n_comp += 1;
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(v) = stack.pop() {
            for u in g.neighbors(v) {
                if comp[u] == usize::MAX {
                    comp[u] = id;
                    stack.push(u);
                }
            }
        }
    }
    let mut txns_per_comp = vec![0usize; n_comp];
    for v in 0..n {
        if g.node_type(v) == NodeType::Txn {
            txns_per_comp[comp[v]] += 1;
        }
    }
    (0..n)
        .filter(|&v| txns_per_comp[comp[v]] >= min_txns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetPreset, WorldConfig};
    use crate::generator::generate_log;
    use xfraud_hetgraph::GraphStats;

    #[test]
    fn small_preset_matches_paper_shape() {
        let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 7);
        let s = GraphStats::of(&ds.graph);
        assert!(ds.graph.validate());
        assert!(s.n_nodes > 1_000, "too small: {}", s.n_nodes);
        // Sparsity near the published 1.5–3.4 links/node band.
        let spn = s.links_per_node();
        assert!((1.0..4.0).contains(&spn), "links/node {spn}");
        // txn share dominates the node mix (Table 6: 42–77 %).
        assert!(
            s.type_share(NodeType::Txn) > 0.35,
            "txn share {}",
            s.type_share(NodeType::Txn)
        );
        // Labelled fraud rate in a broad band around the paper's ~4 %.
        let fr = s.fraud_rate();
        assert!((0.01..0.25).contains(&fr), "fraud rate {fr}");
    }

    #[test]
    fn every_component_has_min_txns() {
        let cfg = WorldConfig {
            min_neighborhood_txns: 5,
            ..WorldConfig::default()
        };
        let world = generate_log(&cfg);
        let ds = build_dataset(&world, &cfg);
        let g = &ds.graph;
        // Recompute components on the filtered graph and check the floor.
        let keep = filter_small_components(g, 5);
        assert_eq!(
            keep.len(),
            g.n_nodes(),
            "a small component survived filtering"
        );
    }

    #[test]
    fn risk_ground_truth_is_higher_for_fraud_nodes() {
        let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 11);
        let g = &ds.graph;
        let (mut fr, mut bn) = (Vec::new(), Vec::new());
        for (v, y) in g.labeled_txns() {
            if y {
                fr.push(ds.node_risk[v]);
            } else {
                bn.push(ds.node_risk[v]);
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        // Risk bands overlap by design and 4% of labels are noise-flipped,
        // so the mean gap is moderate but must stay clearly positive.
        assert!(
            mean(&fr) > mean(&bn) + 0.12,
            "fraud {} vs benign {}",
            mean(&fr),
            mean(&bn)
        );
    }

    #[test]
    fn node_mechanisms_align_with_labels_and_types() {
        let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 7);
        let g = &ds.graph;
        assert_eq!(ds.node_mechanism.len(), g.n_nodes());
        for v in 0..g.n_nodes() {
            match ds.node_mechanism[v] {
                Some(m) => {
                    assert_eq!(g.node_type(v), NodeType::Txn, "mechanism on entity {v}");
                    // Label noise flips a few, but mechanism fraud-ness and
                    // the label must agree for the overwhelming majority.
                    let _ = m;
                }
                None => assert_ne!(g.node_type(v), NodeType::Txn, "txn {v} lost its mechanism"),
            }
        }
        let labeled = g.labeled_txns();
        let agree = labeled
            .iter()
            .filter(|&&(v, y)| ds.node_mechanism[v].is_some_and(|m| m.is_fraud() == y))
            .count();
        assert!(
            agree as f64 / labeled.len() as f64 > 0.9,
            "labels and mechanisms diverged beyond the configured noise"
        );
    }

    #[test]
    fn unlabeled_benign_txns_exist() {
        let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 7);
        let g = &ds.graph;
        let unlabeled = g
            .txn_nodes()
            .iter()
            .filter(|&&v| g.label(v).is_none())
            .count();
        assert!(
            unlabeled > 0,
            "benign down-sampling should leave unlabelled txns in the graph"
        );
    }

    #[test]
    fn presets_scale_up() {
        let small = Dataset::generate(DatasetPreset::EbaySmallSim, 7)
            .stats()
            .n_nodes;
        let large = Dataset::generate(DatasetPreset::EbayLargeSim, 7)
            .stats()
            .n_nodes;
        assert!(
            large > small * 4,
            "large ({large}) must dwarf small ({small})"
        );
    }
}
