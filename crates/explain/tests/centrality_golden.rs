//! Pins the centrality explainer's outputs: for each of the fifteen
//! `EXTENDED_MEASURES`, a checksum over the `f64::to_bits` of
//! `community_edge_weights` on a fixed set of small communities. The values
//! were taken before any refactor of `explain::centrality`, so a rewrite that
//! reorders a sum, changes a tie-break or draws the sampling RNG differently
//! fails here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xfraud_datagen::{Dataset, DatasetPreset};
use xfraud_explain::centrality::{community_edge_weights, Measure, EXTENDED_MEASURES};
use xfraud_hetgraph::{community_of, Community};

/// Up to six communities of 4–40 links around the small preset's labelled
/// transactions, in label order (small enough for the dev profile).
fn communities() -> Vec<Community> {
    let g = Dataset::generate(DatasetPreset::EbaySmallSim, 3).graph;
    let mut out: Vec<Community> = Vec::new();
    for (t, _) in g.labeled_txns() {
        let c = community_of(&g, t, 24).expect("labelled txn is a node");
        if (4..=40).contains(&c.n_links()) && out.iter().all(|o| o.original_ids != c.original_ids) {
            out.push(c);
        }
        if out.len() == 6 {
            break;
        }
    }
    out
}

/// FNV-1a over every weight's `f64::to_bits`, community by community.
fn weight_checksum(communities: &[Community], measure: Measure) -> u64 {
    let mut rng = StdRng::seed_from_u64(17);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in communities {
        let w = community_edge_weights(&c.graph, measure, &mut rng);
        assert_eq!(w.len(), c.n_links(), "{}", measure.name());
        for x in w {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn every_extended_measure_keeps_its_pinned_weight_bits() {
    let communities = communities();
    assert_eq!(communities.len(), 6);
    let got: Vec<(&str, u64)> = EXTENDED_MEASURES
        .iter()
        .map(|&m| (m.name(), weight_checksum(&communities, m)))
        .collect();
    let want: [(&str, u64); 15] = [
        ("edge betweenness", 0xe5e2067337f753fd),
        ("edge load", 0xa7548e38d4e93495),
        ("approximate current flow betweenness", 0x384d914724cd527f),
        ("betweenness", 0x711904f6ed3e57e5),
        ("closeness", 0xd8c7d1e62d3210a5),
        ("communicability betweenness", 0x59f7f81f178e20e9),
        ("current flow betweenness", 0xcab4748b1850c2f5),
        ("current flow closeness", 0x60f945c9eaa23bc5),
        ("degree", 0xa8f7b9d2adc57325),
        ("eigenvector", 0x96641a9e930f6915),
        ("harmonic", 0x0ded97254c3f0425),
        ("load", 0x711904f6ed3e57e5),
        ("subgraph", 0xabedaed0a69249fd),
        ("pagerank (kernel)", 0x5d94bf4d428e9dc5),
        ("k-core (kernel)", 0xfb45169a6bfd2c25),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
