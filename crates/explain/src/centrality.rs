//! The thirteen centrality measures of Table 1, implemented from scratch.
//!
//! Per Appendix F the paper computes edge weights two ways:
//!
//! 1. **edge centralities** on the community graph itself — edge
//!    betweenness and edge load;
//! 2. **node centralities on the line graph** — betweenness, closeness,
//!    degree, eigenvector, harmonic, load, subgraph, communicability
//!    betweenness, current-flow betweenness (exact + approximate) and
//!    current-flow closeness — so each line-graph node score becomes the
//!    weight of its underlying edge.
//!
//! All functions take a [`SimpleGraph`] (undirected adjacency lists) and are
//! validated against hand-computed / networkx values on canonical graphs in
//! the tests.

use rand::rngs::StdRng;
use rand::Rng;

use xfraud_hetgraph::{line_graph, HetGraph};
use xfraud_tensor::Tensor;

use crate::linalg::{laplacian_pinv, matrix_exp};

/// A plain undirected graph for centrality computation.
#[derive(Debug, Clone)]
pub struct SimpleGraph {
    pub adj: Vec<Vec<usize>>,
}

impl SimpleGraph {
    pub fn new(n: usize) -> Self {
        SimpleGraph {
            adj: vec![Vec::new(); n],
        }
    }

    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.adj[u].push(v);
        self.adj[v].push(u);
    }

    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Unique undirected edges `(min, max)`, sorted.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The undirected view of a heterogeneous community graph.
    pub fn from_het(g: &HetGraph) -> (SimpleGraph, Vec<(usize, usize)>) {
        let mut sg = SimpleGraph::new(g.n_nodes());
        let links = g.undirected_links();
        for &(u, v) in &links {
            sg.add_edge(u, v);
        }
        (sg, links)
    }

    /// The line graph as a [`SimpleGraph`] plus the link each line-node
    /// represents.
    pub fn line_graph_of(g: &HetGraph) -> (SimpleGraph, Vec<(usize, usize)>) {
        let lg = line_graph(g);
        let mut sg = SimpleGraph::new(lg.n_nodes());
        for (u, nbrs) in lg.adj.iter().enumerate() {
            for &v in nbrs {
                if u < v {
                    sg.add_edge(u, v);
                }
            }
        }
        (sg, lg.endpoints)
    }

    fn adjacency_matrix(&self) -> Tensor {
        let n = self.n();
        let mut a = Tensor::zeros(n, n);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                a.set(u, v, 1.0);
            }
        }
        a
    }

    fn laplacian(&self) -> Tensor {
        let n = self.n();
        let mut l = Tensor::zeros(n, n);
        for (u, nbrs) in self.adj.iter().enumerate() {
            l.set(u, u, nbrs.len() as f32);
            for &v in nbrs {
                l.set(u, v, -1.0);
            }
        }
        l
    }

    fn bfs(&self, s: usize) -> Bfs {
        let n = self.n();
        let mut dist = vec![usize::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        dist[s] = 0;
        sigma[s] = 1.0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        Bfs {
            dist,
            sigma,
            preds,
            order,
        }
    }
}

struct Bfs {
    dist: Vec<usize>,
    sigma: Vec<f64>,
    preds: Vec<Vec<usize>>,
    order: Vec<usize>,
}

/// networkx's normalisation for undirected node betweenness/load applied to
/// the Brandes raw sums (which count each unordered pair from both
/// endpoints): `1/((n-1)(n-2))`.
fn node_pair_scale(n: usize) -> f64 {
    if n > 2 {
        1.0 / ((n - 1) as f64 * (n - 2) as f64)
    } else {
        1.0
    }
}

/// networkx's normalisation for undirected *edge* betweenness/load applied
/// to double-counted raw sums: `1/(n(n-1))`.
fn edge_pair_scale(n: usize) -> f64 {
    if n > 1 {
        1.0 / (n as f64 * (n - 1) as f64)
    } else {
        1.0
    }
}

/// Degree centrality `deg / (n-1)`.
pub fn degree(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    let denom = (n.max(2) - 1) as f64;
    g.adj.iter().map(|nb| nb.len() as f64 / denom).collect()
}

/// Closeness with networkx's reachable-fraction scaling:
/// `C(u) = (r-1)/Σd · (r-1)/(n-1)` where `r` counts reachable nodes.
pub fn closeness(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    (0..n)
        .map(|u| {
            let bfs = g.bfs(u);
            let reach: Vec<usize> = (0..n)
                .filter(|&v| v != u && bfs.dist[v] != usize::MAX)
                .collect();
            let total: usize = reach.iter().map(|&v| bfs.dist[v]).sum();
            if reach.is_empty() || total == 0 {
                0.0
            } else {
                let r = reach.len() as f64;
                (r / total as f64) * (r / (n - 1) as f64)
            }
        })
        .collect()
}

/// Harmonic centrality `Σ 1/d(u,v)`.
pub fn harmonic(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    (0..n)
        .map(|u| {
            let bfs = g.bfs(u);
            (0..n)
                .filter(|&v| v != u && bfs.dist[v] != usize::MAX)
                .map(|v| 1.0 / bfs.dist[v] as f64)
                .sum()
        })
        .collect()
}

/// Node betweenness via Brandes, normalised.
pub fn betweenness(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    let mut bc = vec![0.0f64; n];
    for s in 0..n {
        let bfs = g.bfs(s);
        let mut delta = vec![0.0f64; n];
        for &w in bfs.order.iter().rev() {
            for &v in &bfs.preds[w] {
                delta[v] += bfs.sigma[v] / bfs.sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                bc[w] += delta[w];
            }
        }
    }
    let scale = node_pair_scale(n);
    bc.iter_mut().for_each(|b| *b *= scale);
    bc
}

/// Edge betweenness via Brandes' edge accumulation, normalised by
/// `2/(n(n-1))` as networkx does for undirected graphs.
pub fn edge_betweenness(g: &SimpleGraph) -> Vec<((usize, usize), f64)> {
    let n = g.n();
    let edges = g.edges();
    let index: std::collections::HashMap<(usize, usize), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut eb = vec![0.0f64; edges.len()];
    for s in 0..n {
        let bfs = g.bfs(s);
        let mut delta = vec![0.0f64; n];
        for &w in bfs.order.iter().rev() {
            for &v in &bfs.preds[w] {
                let c = bfs.sigma[v] / bfs.sigma[w] * (1.0 + delta[w]);
                let key = (v.min(w), v.max(w));
                eb[index[&key]] += c;
                delta[v] += c;
            }
        }
    }
    let scale = edge_pair_scale(n);
    edges
        .into_iter()
        .zip(eb)
        .map(|(e, b)| (e, b * scale))
        .collect()
}

/// Goh-style load centrality: a unit of "flow" from every source to every
/// other node splits *equally among predecessors* at each branch (this is
/// what distinguishes load from betweenness). Normalised like betweenness.
pub fn load(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    let mut lc = vec![0.0f64; n];
    for s in 0..n {
        let bfs = g.bfs(s);
        let mut b = vec![1.0f64; n];
        for &w in bfs.order.iter().rev() {
            if w == s {
                continue;
            }
            let np = bfs.preds[w].len() as f64;
            if np == 0.0 {
                continue;
            }
            let share = b[w] / np;
            for &v in &bfs.preds[w] {
                b[v] += share;
            }
        }
        for v in 0..n {
            if v != s && bfs.dist[v] != usize::MAX {
                lc[v] += b[v] - 1.0;
            }
        }
    }
    let scale = node_pair_scale(n);
    lc.iter_mut().for_each(|x| *x *= scale);
    lc
}

/// Edge load: the per-edge flow of the same splitting process.
pub fn edge_load(g: &SimpleGraph) -> Vec<((usize, usize), f64)> {
    let n = g.n();
    let edges = g.edges();
    let index: std::collections::HashMap<(usize, usize), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut el = vec![0.0f64; edges.len()];
    for s in 0..n {
        let bfs = g.bfs(s);
        let mut b = vec![1.0f64; n];
        for &w in bfs.order.iter().rev() {
            if w == s {
                continue;
            }
            let np = bfs.preds[w].len() as f64;
            if np == 0.0 {
                continue;
            }
            let share = b[w] / np;
            for &v in &bfs.preds[w] {
                b[v] += share;
                let key = (v.min(w), v.max(w));
                el[index[&key]] += share;
            }
        }
    }
    let scale = edge_pair_scale(n);
    edges
        .into_iter()
        .zip(el)
        .map(|(e, l)| (e, l * scale))
        .collect()
}

/// Eigenvector centrality by power iteration on the adjacency matrix.
pub fn eigenvector(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut x = vec![1.0f64 / (n as f64).sqrt(); n];
    for _ in 0..200 {
        // Iterate on A + I: same eigenvectors, but the +I shift breaks the
        // period-2 oscillation power iteration hits on bipartite graphs.
        let mut next = x.clone();
        for (u, nbrs) in g.adj.iter().enumerate() {
            for &v in nbrs {
                next[u] += x[v];
            }
        }
        let norm: f64 = next.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return x; // edgeless graph: stay uniform
        }
        next.iter_mut().for_each(|v| *v /= norm);
        x = next;
    }
    x
}

/// Subgraph centrality: `diag(e^A)` (Estrada & Rodríguez-Velázquez).
pub fn subgraph(g: &SimpleGraph) -> Vec<f64> {
    let e = matrix_exp(&g.adjacency_matrix());
    (0..g.n()).map(|i| e.get(i, i) as f64).collect()
}

/// Communicability betweenness (Estrada et al.): how much total
/// communicability drops when a node's edges are removed.
pub fn communicability_betweenness(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    if n < 3 {
        return vec![0.0; n];
    }
    let a = g.adjacency_matrix();
    let ea = matrix_exp(&a);
    let denom = ((n - 1) * (n - 1) - (n - 1)) as f64;
    (0..n)
        .map(|r| {
            // Remove r's edges.
            let mut ar = a.clone();
            for c in 0..n {
                ar.set(r, c, 0.0);
                ar.set(c, r, 0.0);
            }
            let er = matrix_exp(&ar);
            let mut total = 0.0f64;
            for p in 0..n {
                for q in 0..n {
                    if p == q || p == r || q == r {
                        continue;
                    }
                    let gpq = ea.get(p, q) as f64;
                    if gpq.abs() < 1e-12 {
                        continue;
                    }
                    total += (gpq - er.get(p, q) as f64) / gpq;
                }
            }
            total / denom
        })
        .collect()
}

/// Exact current-flow betweenness via the Laplacian pseudo-inverse
/// (Newman's random-walk betweenness). Falls back to zeros on disconnected
/// graphs, which the community extraction rules out in practice.
pub fn current_flow_betweenness(g: &SimpleGraph) -> Vec<f64> {
    cfb_impl(g, None)
}

/// Sampling approximation of current-flow betweenness over `k` random
/// source-target pairs (the "approximate current flow betweenness" row of
/// Table 1).
pub fn approx_current_flow_betweenness(g: &SimpleGraph, k: usize, rng: &mut StdRng) -> Vec<f64> {
    cfb_impl(g, Some((k, rng)))
}

/// `sample = Some((k, rng))` draws `k` random pairs; `None` sums all pairs.
fn cfb_impl(g: &SimpleGraph, sample: Option<(usize, &mut StdRng)>) -> Vec<f64> {
    let n = g.n();
    if n < 3 {
        return vec![0.0; n];
    }
    let Some(gamma) = laplacian_pinv(&g.laplacian()) else {
        return vec![0.0; n];
    };
    let edges = g.edges();
    let pairs: Vec<(usize, usize)> = match sample {
        Some((k, rng)) => (0..k)
            .map(|_| {
                let s = rng.gen_range(0..n);
                let mut t = rng.gen_range(0..n - 1);
                if t >= s {
                    t += 1;
                }
                (s.min(t), s.max(t))
            })
            .collect(),
        None => {
            let mut v = Vec::with_capacity(n * (n - 1) / 2);
            for s in 0..n {
                for t in s + 1..n {
                    v.push((s, t));
                }
            }
            v
        }
    };
    let total_pairs = (n * (n - 1) / 2) as f64;
    let scale = total_pairs / pairs.len() as f64;
    let mut cfb = vec![0.0f64; n];
    for &(s, t) in &pairs {
        for &(u, v) in &edges {
            // Current through edge (u,v) for unit injection at s, removal at t.
            let i = (gamma.get(u, s) - gamma.get(u, t)) - (gamma.get(v, s) - gamma.get(v, t));
            let flow = (i as f64).abs() / 2.0;
            cfb[u] += flow;
            cfb[v] += flow;
        }
        // Endpoints carry the full unit by convention; networkx then
        // subtracts it via the (·−1) in its closed form — we simply skip
        // adding it, matching rankings.
    }
    let rescale = node_pair_scale(n) * 2.0; // CFB sums unordered pairs once
    cfb.iter_mut().for_each(|x| *x *= rescale * scale);
    cfb
}

/// Current-flow closeness = information centrality:
/// `C(v) = (n-1) / Σ_u (Γ_vv + Γ_uu − 2Γ_uv)`.
pub fn current_flow_closeness(g: &SimpleGraph) -> Vec<f64> {
    let n = g.n();
    if n < 2 {
        return vec![0.0; n];
    }
    let Some(gamma) = laplacian_pinv(&g.laplacian()) else {
        return vec![0.0; n];
    };
    (0..n)
        .map(|v| {
            let total: f64 = (0..n)
                .filter(|&u| u != v)
                .map(|u| (gamma.get(v, v) + gamma.get(u, u) - 2.0 * gamma.get(u, v)) as f64)
                .sum();
            if total <= 0.0 {
                0.0
            } else {
                (n - 1) as f64 / total
            }
        })
        .collect()
}

/// PageRank of the line-graph nodes, computed by the parallel GAP kernel
/// (`xfraud_kernels::pagerank`). Not a Table-1 row — an additional feature
/// source layered on the paper's thirteen.
pub fn kernel_pagerank(g: &SimpleGraph) -> Vec<f64> {
    match xfraud_kernels::FlatCsr::from_adj(&g.adj) {
        Ok(flat) => xfraud_kernels::pagerank(&flat, &xfraud_kernels::KernelConfig::default()),
        Err(_) => vec![0.0; g.n()],
    }
}

/// k-core numbers of the line-graph nodes via the Batagelj–Zaveršnik kernel
/// (`xfraud_kernels::core_numbers`). Not a Table-1 row.
pub fn kernel_kcore(g: &SimpleGraph) -> Vec<f64> {
    match xfraud_kernels::FlatCsr::from_adj(&g.adj) {
        Ok(flat) => xfraud_kernels::core_numbers(&flat)
            .into_iter()
            .map(f64::from)
            .collect(),
        Err(_) => vec![0.0; g.n()],
    }
}

/// The thirteen Table-1 centrality rows, plus two kernel-backed extras
/// ([`Measure::KernelPageRank`], [`Measure::KernelKCore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    EdgeBetweenness,
    EdgeLoad,
    ApproxCurrentFlowBetweenness,
    Betweenness,
    Closeness,
    CommunicabilityBetweenness,
    CurrentFlowBetweenness,
    CurrentFlowCloseness,
    Degree,
    Eigenvector,
    Harmonic,
    Load,
    Subgraph,
    /// GAP-kernel PageRank on the line graph (extra feature source).
    KernelPageRank,
    /// GAP-kernel k-core numbers on the line graph (extra feature source).
    KernelKCore,
}

/// All measures in the row order of Table 1.
pub const ALL_MEASURES: [Measure; 13] = [
    Measure::EdgeBetweenness,
    Measure::EdgeLoad,
    Measure::ApproxCurrentFlowBetweenness,
    Measure::Betweenness,
    Measure::Closeness,
    Measure::CommunicabilityBetweenness,
    Measure::CurrentFlowBetweenness,
    Measure::CurrentFlowCloseness,
    Measure::Degree,
    Measure::Eigenvector,
    Measure::Harmonic,
    Measure::Load,
    Measure::Subgraph,
];

/// Table 1 plus the kernel-backed extras — the full feature-source sweep the
/// hit-rate harness reports.
pub const EXTENDED_MEASURES: [Measure; 15] = [
    Measure::EdgeBetweenness,
    Measure::EdgeLoad,
    Measure::ApproxCurrentFlowBetweenness,
    Measure::Betweenness,
    Measure::Closeness,
    Measure::CommunicabilityBetweenness,
    Measure::CurrentFlowBetweenness,
    Measure::CurrentFlowCloseness,
    Measure::Degree,
    Measure::Eigenvector,
    Measure::Harmonic,
    Measure::Load,
    Measure::Subgraph,
    Measure::KernelPageRank,
    Measure::KernelKCore,
];

impl Measure {
    pub fn name(self) -> &'static str {
        match self {
            Measure::EdgeBetweenness => "edge betweenness",
            Measure::EdgeLoad => "edge load",
            Measure::ApproxCurrentFlowBetweenness => "approximate current flow betweenness",
            Measure::Betweenness => "betweenness",
            Measure::Closeness => "closeness",
            Measure::CommunicabilityBetweenness => "communicability betweenness",
            Measure::CurrentFlowBetweenness => "current flow betweenness",
            Measure::CurrentFlowCloseness => "current flow closeness",
            Measure::Degree => "degree",
            Measure::Eigenvector => "eigenvector",
            Measure::Harmonic => "harmonic",
            Measure::Load => "load",
            Measure::Subgraph => "subgraph",
            Measure::KernelPageRank => "pagerank (kernel)",
            Measure::KernelKCore => "k-core (kernel)",
        }
    }
}

/// Edge weights of a community under one measure: edge centralities run on
/// the community graph; node centralities run on its line graph (Appendix
/// F). Returned aligned with `g.undirected_links()`.
pub fn community_edge_weights(g: &HetGraph, measure: Measure, rng: &mut StdRng) -> Vec<f64> {
    match measure {
        Measure::EdgeBetweenness => {
            let (sg, links) = SimpleGraph::from_het(g);
            align_to_links(&links, edge_betweenness(&sg))
        }
        Measure::EdgeLoad => {
            let (sg, links) = SimpleGraph::from_het(g);
            align_to_links(&links, edge_load(&sg))
        }
        Measure::ApproxCurrentFlowBetweenness => line_graph_weights(g, |lg| {
            approx_current_flow_betweenness(lg, (lg.n() * 2).max(8), rng)
        }),
        Measure::Betweenness => line_graph_weights(g, betweenness),
        Measure::Closeness => line_graph_weights(g, closeness),
        Measure::CommunicabilityBetweenness => line_graph_weights(g, communicability_betweenness),
        Measure::CurrentFlowBetweenness => line_graph_weights(g, current_flow_betweenness),
        Measure::CurrentFlowCloseness => line_graph_weights(g, current_flow_closeness),
        Measure::Degree => line_graph_weights(g, degree),
        Measure::Eigenvector => line_graph_weights(g, eigenvector),
        Measure::Harmonic => line_graph_weights(g, harmonic),
        Measure::Load => line_graph_weights(g, load),
        Measure::Subgraph => line_graph_weights(g, subgraph),
        Measure::KernelPageRank => line_graph_weights(g, kernel_pagerank),
        Measure::KernelKCore => line_graph_weights(g, kernel_kcore),
    }
}

/// A node centrality run on the community's line graph.
fn line_graph_weights(g: &HetGraph, measure: impl FnOnce(&SimpleGraph) -> Vec<f64>) -> Vec<f64> {
    let (lg, endpoints) = SimpleGraph::line_graph_of(g);
    let scores = measure(&lg);
    align_to_links(&g.undirected_links(), endpoints.into_iter().zip(scores))
}

/// Scores keyed by link endpoints, in `links` order (0.0 for unscored links).
fn align_to_links(
    links: &[(usize, usize)],
    scored: impl IntoIterator<Item = ((usize, usize), f64)>,
) -> Vec<f64> {
    let map: std::collections::HashMap<(usize, usize), f64> = scored
        .into_iter()
        .map(|((u, v), s)| ((u.min(v), u.max(v)), s))
        .collect();
    links
        .iter()
        .map(|&(u, v)| map.get(&(u.min(v), u.max(v))).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Path 0-1-2-3.
    fn path4() -> SimpleGraph {
        let mut g = SimpleGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g
    }

    /// Star with centre 0 and leaves 1..=4.
    fn star5() -> SimpleGraph {
        let mut g = SimpleGraph::new(5);
        for v in 1..5 {
            g.add_edge(0, v);
        }
        g
    }

    #[test]
    fn degree_matches_networkx() {
        let d = degree(&star5());
        assert!((d[0] - 1.0).abs() < 1e-12);
        assert!((d[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn betweenness_path4_matches_networkx() {
        // networkx: [0, 2/3, 2/3, 0]
        let b = betweenness(&path4());
        assert!(b[0].abs() < 1e-9);
        assert!((b[1] - 2.0 / 3.0).abs() < 1e-9, "b1 = {}", b[1]);
        assert!((b[2] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_star_centre_is_one() {
        let b = betweenness(&star5());
        assert!((b[0] - 1.0).abs() < 1e-9);
        assert!(b[1].abs() < 1e-9);
    }

    #[test]
    fn load_equals_betweenness_on_trees() {
        // With unique shortest paths the split never branches.
        let b = betweenness(&path4());
        let l = load(&path4());
        for (x, y) in b.iter().zip(&l) {
            assert!((x - y).abs() < 1e-9, "{b:?} vs {l:?}");
        }
    }

    #[test]
    fn load_differs_from_betweenness_when_predecessor_counts_are_unequal() {
        // Betweenness weights predecessors by shortest-path counts σ; load
        // splits equally. They diverge when a node's predecessors carry
        // unequal σ: here node 6 is reached via node 3 (σ=2: through 1 or
        // 2) and via node 5 (σ=1), so betweenness gives node 3 weight 2/3
        // of the (0,6) pair while load gives it 1/2.
        let mut g = SimpleGraph::new(7);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(3, 6);
        g.add_edge(0, 4);
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        let b = betweenness(&g);
        let l = load(&g);
        let same = b.iter().zip(&l).all(|(x, y)| (x - y).abs() < 1e-9);
        assert!(
            !same,
            "load must differ from betweenness here: {b:?} vs {l:?}"
        );
    }

    #[test]
    fn closeness_path4_matches_networkx() {
        // networkx: [0.5, 0.75, 0.75, 0.5]
        let c = closeness(&path4());
        assert!((c[0] - 0.5).abs() < 1e-9);
        assert!((c[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn harmonic_path4_matches_networkx() {
        // node0: 1 + 1/2 + 1/3 = 1.8333
        let h = harmonic(&path4());
        assert!((h[0] - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_star_centre_dominates() {
        let e = eigenvector(&star5());
        assert!(e[0] > e[1]);
        // networkx: centre ≈ 1/√2, leaves ≈ 0.3536.
        assert!((e[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((e[1] - 0.3536).abs() < 1e-3);
    }

    #[test]
    fn edge_betweenness_path4_matches_networkx() {
        // networkx edge_betweenness_centrality(path_graph(4)):
        // {(0,1): 0.5, (1,2): 2/3, (2,3): 0.5}.
        let eb = edge_betweenness(&path4());
        let get = |u, v| eb.iter().find(|&&(e, _)| e == (u, v)).unwrap().1;
        assert!((get(0, 1) - 0.5).abs() < 1e-9, "{}", get(0, 1));
        assert!((get(1, 2) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn edge_load_on_tree_equals_edge_betweenness() {
        let eb = edge_betweenness(&path4());
        let el = edge_load(&path4());
        for (a, b) in eb.iter().zip(&el) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn subgraph_centrality_ranks_star_centre_highest() {
        let s = subgraph(&star5());
        assert!(s[0] > s[1]);
        assert!((s[1] - s[4]).abs() < 1e-6, "leaves are symmetric");
    }

    #[test]
    fn current_flow_closeness_ranks_path_centre_highest() {
        let c = current_flow_closeness(&path4());
        assert!(c[1] > c[0]);
        assert!((c[1] - c[2]).abs() < 1e-5);
    }

    #[test]
    fn current_flow_betweenness_path_equals_shortest_path_case() {
        // On trees all current flows along the unique path, so rankings
        // match betweenness.
        let cfb = current_flow_betweenness(&path4());
        assert!(cfb[1] > cfb[0]);
        assert!((cfb[1] - cfb[2]).abs() < 1e-5);
    }

    #[test]
    fn approx_cfb_converges_to_exact() {
        let g = star5();
        let exact = current_flow_betweenness(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let approx = approx_current_flow_betweenness(&g, 4000, &mut rng);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.1, "exact {exact:?} vs approx {approx:?}");
        }
    }

    #[test]
    fn kernel_measures_rank_hubs_like_their_classic_cousins() {
        // PageRank should agree with degree on who the star hub is, and
        // k-core must put the triangle above the tail.
        let pr = kernel_pagerank(&star5());
        assert!(pr[0] > pr[1] && (pr[1] - pr[4]).abs() < 1e-12);

        let mut tri = SimpleGraph::new(5);
        tri.add_edge(0, 1);
        tri.add_edge(1, 2);
        tri.add_edge(2, 0);
        tri.add_edge(2, 3);
        tri.add_edge(3, 4);
        let kc = kernel_kcore(&tri);
        assert_eq!(kc, vec![2.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn communicability_betweenness_star_centre_dominates() {
        let cb = communicability_betweenness(&star5());
        assert!(cb[0] > cb[1] * 2.0, "{cb:?}");
    }

    #[test]
    fn all_measures_run_on_a_community_shaped_graph() {
        use xfraud_hetgraph::{GraphBuilder, NodeType};
        let mut b = GraphBuilder::new(1);
        let p = b.add_entity(NodeType::Pmt);
        let a = b.add_entity(NodeType::Addr);
        for i in 0..4 {
            let t = b.add_txn([i as f32], Some(i % 2 == 0));
            b.link(t, p).unwrap();
            b.link(t, a).unwrap();
        }
        let g = b.finish().unwrap();
        let n_links = g.n_links();
        let mut rng = StdRng::seed_from_u64(2);
        for m in EXTENDED_MEASURES {
            let w = community_edge_weights(&g, m, &mut rng);
            assert_eq!(w.len(), n_links, "{} returned wrong arity", m.name());
            assert!(
                w.iter().all(|x| x.is_finite()),
                "{} emitted non-finite weight",
                m.name()
            );
        }
    }
}
