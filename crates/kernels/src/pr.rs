//! Pull-based PageRank.
//!
//! Each sweep pulls `rank[u] / deg(u)` from every in-neighbor (the graph is
//! stored symmetrically, so out-adjacency doubles as in-adjacency), summing
//! in CSR order. The L1 residual that decides convergence is summed within
//! fixed blocks of [`RESIDUAL_BLOCK`] nodes and then across blocks, so its
//! rounding — and hence the sweep PageRank stops at — is a function of the
//! graph alone.

use crate::config::KernelConfig;
use crate::flat::FlatCsr;

/// Nodes per partial sum of the L1 residual.
const RESIDUAL_BLOCK: usize = 4096;

/// PageRank scores (summing to ~1). Runs until the L1 residual drops to
/// `cfg.tolerance()` or `cfg.max_iters()` sweeps, whichever first.
pub fn pagerank(g: &FlatCsr, cfg: &KernelConfig) -> Vec<f64> {
    let n = g.n_nodes();
    if n == 0 {
        return Vec::new();
    }
    let d = cfg.damping();
    let inv_n = 1.0 / n as f64;

    let mut rank = vec![inv_n; n];
    let mut contrib = vec![0.0f64; n];

    for _ in 0..cfg.max_iters() {
        // Per-node contribution and dangling mass, in node order.
        let mut dangling = 0.0f64;
        for v in 0..n {
            let deg = g.degree(v);
            if deg == 0 {
                dangling += rank[v];
                contrib[v] = 0.0;
            } else {
                contrib[v] = rank[v] / deg as f64;
            }
        }
        let base = (1.0 - d) * inv_n + d * dangling * inv_n;

        // The pull reads only `contrib`, so ranks update in place.
        let mut delta = 0.0f64;
        for (b, block) in rank.chunks_mut(RESIDUAL_BLOCK).enumerate() {
            let mut block_delta = 0.0f64;
            for (i, r) in block.iter_mut().enumerate() {
                let mut sum = 0.0f64;
                for &u in g.neighbors(b * RESIDUAL_BLOCK + i) {
                    sum += contrib[u as usize];
                }
                let nr = base + d * sum;
                block_delta += (nr - *r).abs();
                *r = nr;
            }
            delta += block_delta;
        }
        if delta <= cfg.tolerance() {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cycle_has_uniform_rank() {
        let g = FlatCsr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let r = pagerank(&g, &KernelConfig::default());
        for &x in &r {
            assert!(
                (x - 0.25).abs() < 1e-12,
                "cycle rank should be uniform: {r:?}"
            );
        }
    }

    #[test]
    fn star_center_outranks_leaves_and_mass_is_conserved() {
        let g = FlatCsr::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let r = pagerank(&g, &KernelConfig::default());
        assert!(r[0] > r[1] && r[1] == r[2] && r[2] == r[3]);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved, got {total}");
    }
}
