//! k-core decomposition via Batagelj–Zaveršnik bin-sort peeling.
//!
//! Serial O(V + E): nodes are bucketed by degree and repeatedly peeled in
//! ascending current-degree order; a node's core number is its degree at the
//! moment it is peeled. The peel order within a bucket is ascending node id
//! (bin sort is stable over ids), so the output is fully deterministic.

use crate::flat::FlatCsr;

/// Core numbers: `cores[v]` is the largest `k` such that `v` belongs to a
/// subgraph where every node has degree ≥ `k`.
pub fn core_numbers(g: &FlatCsr) -> Vec<u32> {
    let n = g.n_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);

    // bin[d] = start offset of the degree-d block inside `vert`.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &deg {
        bin[d + 1] += 1;
    }
    for d in 1..bin.len() {
        bin[d] += bin[d - 1];
    }
    let mut vert = vec![0usize; n];
    let mut pos = vec![0usize; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            pos[v] = cursor[deg[v]];
            vert[pos[v]] = v;
            cursor[deg[v]] += 1;
        }
    }

    for i in 0..n {
        let v = vert[i];
        let dv = deg[v];
        for &u in g.neighbors(v) {
            let u = u as usize;
            if deg[u] > dv {
                // Move u one bucket down: swap it with the first node of its
                // current bucket, then advance that bucket's start.
                let du = deg[u];
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    deg.into_iter().map(|d| d as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, edges: &[(usize, usize)]) -> FlatCsr {
        FlatCsr::from_edges(n, edges).unwrap()
    }

    #[test]
    fn triangle_with_a_tail_peels_correctly() {
        // 0-1-2 triangle, tail 2-3-4.
        let g = sym(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        assert_eq!(core_numbers(&g), vec![2, 2, 2, 1, 1]);
    }

    #[test]
    fn clique_core_is_size_minus_one() {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b));
            }
        }
        let g = sym(6, &edges); // node 5 isolated
        assert_eq!(core_numbers(&g), vec![4, 4, 4, 4, 4, 0]);
    }
}
