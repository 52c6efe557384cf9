//! Table 1: top-k hit rate of every explainability source against the
//! (simulated) human annotations, on all sampled communities — the 13
//! centrality measures of the paper plus the two kernel-backed extras
//! (kernel PageRank / k-core on the line graph), GNNExplainer weights, and
//! random weights.
//!
//! Published shape: all informative measures land close together (≈0.45 @
//! top5 rising to ≈0.92 @ top25) while random weights trail far behind
//! (0.127 @ top5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xfraud::explain::centrality::EXTENDED_MEASURES;
use xfraud::explain::topk_hit_rate_expected;
use xfraud_bench::{fmt_row, scale_from_args, section, trained_study, TOPKS};

fn main() {
    let scale = scale_from_args();
    section(&format!(
        "Table 1 — top-k hit rate per explainability source ({}-sim)",
        scale.name()
    ));
    let (_pipeline, study) = trained_study(scale);
    let (fraud, legit) = study.seed_label_counts();
    println!(
        "communities: {} ({} fraud-seeded, {} legit-seeded), mean links/community {:.2}",
        study.communities.len(),
        fraud,
        legit,
        study.mean_links()
    );
    println!("(paper: 41 communities — 18 fraud, 23 legit — 81.56 edges/community)\n");

    let header: Vec<String> = TOPKS.iter().map(|k| format!("H@{k}")).collect();
    println!("{:<42} {}", "measure", header.join("   "));

    let mut rng = StdRng::seed_from_u64(1234);
    for m in EXTENDED_MEASURES {
        let weights = study.centrality_weights(m);
        let row: Vec<f64> = TOPKS
            .iter()
            .map(|&k| {
                let mut total = 0.0;
                for (sc, w) in study.communities.iter().zip(&weights) {
                    total += topk_hit_rate_expected(&sc.human, w, k, 100, &mut rng);
                }
                total / study.communities.len() as f64
            })
            .collect();
        println!("{}", fmt_row(m.name(), &row));
    }

    // GNNExplainer weights.
    let row: Vec<f64> = TOPKS
        .iter()
        .map(|&k| {
            let mut total = 0.0;
            for sc in &study.communities {
                total += topk_hit_rate_expected(&sc.human, &sc.explainer, k, 100, &mut rng);
            }
            total / study.communities.len() as f64
        })
        .collect();
    println!("{}", fmt_row("GNNExplainer weights", &row));

    // Random weights, averaged over 10 independent draws (Appendix E).
    let row: Vec<f64> = TOPKS
        .iter()
        .map(|&k| {
            let mut total = 0.0;
            for _ in 0..10 {
                for sc in &study.communities {
                    let w: Vec<f64> = (0..sc.human.len()).map(|_| rng.gen::<f64>()).collect();
                    total += topk_hit_rate_expected(&sc.human, &w, k, 100, &mut rng);
                }
            }
            total / (10 * study.communities.len()) as f64
        })
        .collect();
    println!("{}", fmt_row("random weights", &row));

    println!("\npaper row 1  (edge betweenness): 0.469 0.718 0.812 0.903 0.923");
    println!("paper row 14 (GNNExplainer):     0.445 0.692 0.821 0.898 0.921");
    println!("paper row 15 (random):           0.127 0.454 0.602 0.695 0.791");
}
