//! The workspace's one shortest-path pass, and Brandes betweenness on it.
//!
//! [`ShortestPaths::run`] is a plain FIFO BFS from one source that records
//! hop distances, shortest-path counts `sigma` and the visit order. Every
//! shortest-path measure (here and in `explain::centrality`) is a sweep over
//! that order; none keeps predecessor lists, because a neighbour `u` of a
//! reached node `w` is a predecessor iff `dist[u] + 1 == dist[w]`
//! ([`ShortestPaths::preds`]).
//!
//! Betweenness counts ordered pairs: on a symmetric graph every unordered
//! pair `{s, t}` contributes twice (once per direction), matching the
//! convention of running Brandes over all sources of a directed graph.

use crate::flat::FlatCsr;

/// `dist` of a node the pass did not reach.
pub const UNREACHED: usize = usize::MAX;

/// Buffers of one single-source pass. Owned by the caller so a loop over
/// sources reuses one allocation; each [`ShortestPaths::run`] overwrites
/// them.
#[derive(Debug, Clone, Default)]
pub struct ShortestPaths {
    dist: Vec<usize>,
    sigma: Vec<f64>,
    order: Vec<usize>,
}

impl ShortestPaths {
    /// Hop distance from the source, [`UNREACHED`] if none.
    pub fn dist(&self) -> &[usize] {
        &self.dist
    }

    /// Number of shortest paths from the source (`0.0` if unreached).
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Reached nodes in visit order (non-decreasing `dist`), source first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// BFS from node `s` of `g`. Neighbours are visited in CSR order, which
    /// fixes the visit order and the order `sigma` sums in.
    pub fn run(&mut self, g: &FlatCsr, s: usize) {
        let n = g.n_nodes();
        self.dist.clear();
        self.dist.resize(n, UNREACHED);
        self.sigma.clear();
        self.sigma.resize(n, 0.0);
        self.order.clear();
        self.dist[s] = 0;
        self.sigma[s] = 1.0;
        self.order.push(s);
        let mut head = 0;
        while let Some(&v) = self.order.get(head) {
            head += 1;
            let next = self.dist[v] + 1;
            for &w in g.neighbors(v) {
                let w = w as usize;
                if self.dist[w] == UNREACHED {
                    self.dist[w] = next;
                    self.order.push(w);
                }
                if self.dist[w] == next {
                    self.sigma[w] += self.sigma[v];
                }
            }
        }
    }

    /// The predecessors of a reached node `w` on shortest paths from the
    /// source, in `w`'s CSR order. `g` is the graph the pass ran on.
    pub fn preds<'a>(&'a self, g: &'a FlatCsr, w: usize) -> impl Iterator<Item = usize> + 'a {
        // Every neighbour of a reached node is reached, so `dist[u] + 1`
        // cannot overflow.
        let dw = self.dist[w];
        g.neighbors(w)
            .iter()
            .map(|&u| u as usize)
            .filter(move |&u| self.dist[u] + 1 == dw)
    }
}

/// Betweenness of every node over all-pairs shortest paths (unweighted,
/// ordered pairs, endpoints excluded, unnormalised).
pub fn betweenness(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    let mut bc = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut sp = ShortestPaths::default();
    for s in 0..n {
        sp.run(g, s);
        delta.fill(0.0);
        let sigma = sp.sigma();
        for &w in sp.order().iter().rev() {
            for v in sp.preds(g, w) {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, edges: &[(usize, usize)]) -> FlatCsr {
        FlatCsr::from_edges(n, edges).unwrap()
    }

    #[test]
    fn path_middle_node_carries_all_pairs() {
        // Path 0-1-2: the only shortest path between 0 and 2 runs through 1,
        // counted in both directions.
        let g = sym(3, &[(0, 1), (1, 2)]);
        assert_eq!(betweenness(&g), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn star_center_carries_every_leaf_pair() {
        // Star with 4 leaves: 4*3 ordered leaf pairs all route via the hub.
        let g = sym(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = betweenness(&g);
        assert_eq!(bc[0], 12.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn square_splits_dependency_between_two_paths() {
        // Cycle 0-1-2-3: opposite corners are linked by two equal paths, so
        // each intermediate node gets 1/2 per direction = 1.0 total.
        let g = sym(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(betweenness(&g), vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pass_records_distances_counts_and_order_on_a_split_graph() {
        // Square 0-1-2-3 plus the isolated node 4.
        let g = sym(5, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut sp = ShortestPaths::default();
        sp.run(&g, 0);
        assert_eq!(sp.dist(), &[0, 1, 2, 1, UNREACHED]);
        assert_eq!(sp.sigma(), &[1.0, 1.0, 2.0, 1.0, 0.0]);
        assert_eq!(sp.order(), &[0, 1, 3, 2]);
        assert_eq!(sp.preds(&g, 2).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(sp.preds(&g, 0).count(), 0);
    }
}
