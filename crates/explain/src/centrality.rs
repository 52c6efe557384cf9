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
//! Every measure takes a [`FlatCsr`] built by [`FlatCsr::from_edges`], the
//! graph type the kernels run on. The shortest-path measures (closeness,
//! harmonic, betweenness, load and the two edge measures) are sweeps over
//! the kernels' single-source pass, [`ShortestPaths`]; node betweenness is
//! [`xfraud_kernels::betweenness`] normalised. The dense measures build an
//! adjacency or Laplacian matrix from the same CSR. All are validated
//! against hand-computed / networkx values on canonical graphs in the tests.

use rand::rngs::StdRng;
use rand::Rng;

use xfraud_hetgraph::{line_graph, HetGraph};
use xfraud_kernels::{FlatCsr, KernelConfig, ShortestPaths, UNREACHED};
use xfraud_tensor::Tensor;

use crate::linalg::{laplacian_pinv, matrix_exp};

/// Undirected edges `(u, v)` with `u < v`, sorted.
fn edge_list(g: &FlatCsr) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = (0..g.n_nodes())
        .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v as usize)))
        .filter(|&(u, v)| u < v)
        .collect();
    out.sort_unstable();
    out
}

/// Adds `x` to the weight of edge `{v, w}`, indexed by the sorted `edges`.
fn add_to_edge(edges: &[(usize, usize)], weights: &mut [f64], v: usize, w: usize, x: f64) {
    if let Ok(i) = edges.binary_search(&(v.min(w), v.max(w))) {
        weights[i] += x;
    }
}

fn adjacency_matrix(g: &FlatCsr) -> Tensor {
    let n = g.n_nodes();
    let mut a = Tensor::zeros(n, n);
    for u in 0..n {
        for &v in g.neighbors(u) {
            a.set(u, v as usize, 1.0);
        }
    }
    a
}

fn laplacian(g: &FlatCsr) -> Tensor {
    let n = g.n_nodes();
    let mut l = Tensor::zeros(n, n);
    for u in 0..n {
        l.set(u, u, g.degree(u) as f32);
        for &v in g.neighbors(u) {
            l.set(u, v as usize, -1.0);
        }
    }
    l
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
pub fn degree(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    let denom = (n.max(2) - 1) as f64;
    (0..n).map(|v| g.degree(v) as f64 / denom).collect()
}

/// Closeness with networkx's reachable-fraction scaling:
/// `C(u) = (r-1)/Σd · (r-1)/(n-1)` where `r` counts reachable nodes.
pub fn closeness(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    let mut sp = ShortestPaths::default();
    (0..n)
        .map(|u| {
            sp.run(g, u);
            // The visit order is `u` followed by every node it reaches.
            let (reach, dist) = (&sp.order()[1..], sp.dist());
            let total: usize = reach.iter().map(|&v| dist[v]).sum();
            if reach.is_empty() || total == 0 {
                0.0
            } else {
                let r = reach.len() as f64;
                (r / total as f64) * (r / (n - 1) as f64)
            }
        })
        .collect()
}

/// Harmonic centrality `Σ 1/d(u,v)`, summed in node order.
pub fn harmonic(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    let mut sp = ShortestPaths::default();
    (0..n)
        .map(|u| {
            sp.run(g, u);
            let dist = sp.dist();
            (0..n)
                .filter(|&v| v != u && dist[v] != UNREACHED)
                .map(|v| 1.0 / dist[v] as f64)
                .sum()
        })
        .collect()
}

/// Node betweenness: the kernels' Brandes sums, normalised.
pub fn betweenness(g: &FlatCsr) -> Vec<f64> {
    let scale = node_pair_scale(g.n_nodes());
    xfraud_kernels::betweenness(g)
        .into_iter()
        .map(|b| b * scale)
        .collect()
}

/// Edge betweenness via Brandes' edge accumulation, normalised by
/// `2/(n(n-1))` as networkx does for undirected graphs.
pub fn edge_betweenness(g: &FlatCsr) -> Vec<((usize, usize), f64)> {
    let n = g.n_nodes();
    let edges = edge_list(g);
    let mut eb = vec![0.0f64; edges.len()];
    let mut delta = vec![0.0f64; n];
    let mut sp = ShortestPaths::default();
    for s in 0..n {
        sp.run(g, s);
        delta.fill(0.0);
        let sigma = sp.sigma();
        for &w in sp.order().iter().rev() {
            for v in sp.preds(g, w) {
                let c = sigma[v] / sigma[w] * (1.0 + delta[w]);
                add_to_edge(&edges, &mut eb, v, w, c);
                delta[v] += c;
            }
        }
    }
    scaled_edges(edges, eb, edge_pair_scale(n))
}

/// Goh's load process from every source: a unit of flow from `s` to each
/// node it reaches splits *equally among predecessors* on the way back
/// (this is what distinguishes load from betweenness). Calls
/// `on_share(v, w, share)` for every predecessor `v` of `w` and returns the
/// flow through each node, endpoints excluded, unnormalised.
fn load_process(g: &FlatCsr, mut on_share: impl FnMut(usize, usize, f64)) -> Vec<f64> {
    let n = g.n_nodes();
    let mut lc = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut sp = ShortestPaths::default();
    for s in 0..n {
        sp.run(g, s);
        b.fill(1.0);
        // Everything after the source in visit order, farthest first.
        let reached = &sp.order()[1..];
        for &w in reached.iter().rev() {
            let share = b[w] / sp.preds(g, w).count() as f64;
            for v in sp.preds(g, w) {
                b[v] += share;
                on_share(v, w, share);
            }
        }
        for &v in reached {
            lc[v] += b[v] - 1.0;
        }
    }
    lc
}

/// Load centrality, normalised like betweenness.
pub fn load(g: &FlatCsr) -> Vec<f64> {
    let scale = node_pair_scale(g.n_nodes());
    load_process(g, |_, _, _| {})
        .into_iter()
        .map(|x| x * scale)
        .collect()
}

/// Edge load: the per-edge flow of the same splitting process.
pub fn edge_load(g: &FlatCsr) -> Vec<((usize, usize), f64)> {
    let edges = edge_list(g);
    let mut el = vec![0.0f64; edges.len()];
    load_process(g, |v, w, share| add_to_edge(&edges, &mut el, v, w, share));
    scaled_edges(edges, el, edge_pair_scale(g.n_nodes()))
}

fn scaled_edges(
    edges: Vec<(usize, usize)>,
    raw: Vec<f64>,
    scale: f64,
) -> Vec<((usize, usize), f64)> {
    edges
        .into_iter()
        .zip(raw)
        .map(|(e, x)| (e, x * scale))
        .collect()
}

/// Eigenvector centrality by power iteration on the adjacency matrix.
pub fn eigenvector(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut x = vec![1.0f64 / (n as f64).sqrt(); n];
    for _ in 0..200 {
        // Iterate on A + I: same eigenvectors, but the +I shift breaks the
        // period-2 oscillation power iteration hits on bipartite graphs.
        let mut next = x.clone();
        for (u, nu) in next.iter_mut().enumerate() {
            for &v in g.neighbors(u) {
                *nu += x[v as usize];
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
pub fn subgraph(g: &FlatCsr) -> Vec<f64> {
    let e = matrix_exp(&adjacency_matrix(g));
    (0..g.n_nodes()).map(|i| e.get(i, i) as f64).collect()
}

/// Communicability betweenness (Estrada et al.): how much total
/// communicability drops when a node's edges are removed.
pub fn communicability_betweenness(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    if n < 3 {
        return vec![0.0; n];
    }
    let a = adjacency_matrix(g);
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
pub fn current_flow_betweenness(g: &FlatCsr) -> Vec<f64> {
    cfb_impl(g, None)
}

/// Sampling approximation of current-flow betweenness over `k` random
/// source-target pairs (the "approximate current flow betweenness" row of
/// Table 1). Zeros when `k == 0`: with no pairs there is nothing to scale.
pub fn approx_current_flow_betweenness(g: &FlatCsr, k: usize, rng: &mut StdRng) -> Vec<f64> {
    if k == 0 {
        return vec![0.0; g.n_nodes()];
    }
    cfb_impl(g, Some((k, rng)))
}

/// `sample = Some((k, rng))` draws `k` random pairs; `None` sums all pairs.
fn cfb_impl(g: &FlatCsr, sample: Option<(usize, &mut StdRng)>) -> Vec<f64> {
    let n = g.n_nodes();
    if n < 3 {
        return vec![0.0; n];
    }
    let Some(gamma) = laplacian_pinv(&laplacian(g)) else {
        return vec![0.0; n];
    };
    let edges = edge_list(g);
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
pub fn current_flow_closeness(g: &FlatCsr) -> Vec<f64> {
    let n = g.n_nodes();
    if n < 2 {
        return vec![0.0; n];
    }
    let Some(gamma) = laplacian_pinv(&laplacian(g)) else {
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

/// PageRank of the line-graph nodes, computed by the pull-PageRank kernel
/// (`xfraud_kernels::pagerank`). Not a Table-1 row — an additional feature
/// source layered on the paper's thirteen.
pub fn kernel_pagerank(g: &FlatCsr) -> Vec<f64> {
    xfraud_kernels::pagerank(g, &KernelConfig::default())
}

/// k-core numbers of the line-graph nodes via the Batagelj–Zaveršnik kernel
/// (`xfraud_kernels::core_numbers`). Not a Table-1 row.
pub fn kernel_kcore(g: &FlatCsr) -> Vec<f64> {
    xfraud_kernels::core_numbers(g)
        .into_iter()
        .map(f64::from)
        .collect()
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
    /// Kernel PageRank on the line graph (extra feature source).
    KernelPageRank,
    /// Kernel k-core numbers on the line graph (extra feature source).
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
        Measure::EdgeBetweenness => edge_weights(g, edge_betweenness),
        Measure::EdgeLoad => edge_weights(g, edge_load),
        Measure::ApproxCurrentFlowBetweenness => line_graph_weights(g, |lg| {
            approx_current_flow_betweenness(lg, (lg.n_nodes() * 2).max(8), rng)
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

/// An edge centrality: weights keyed by sorted endpoints, in sorted order.
type EdgeMeasure = fn(&FlatCsr) -> Vec<((usize, usize), f64)>;

/// An edge centrality run on the community graph, moved from its sorted
/// edge order into link order.
fn edge_weights(g: &HetGraph, measure: EdgeMeasure) -> Vec<f64> {
    let links = g.undirected_links();
    let scored = FlatCsr::from_edges(g.n_nodes(), &links)
        .map(|cg| measure(&cg))
        .unwrap_or_default();
    links
        .iter()
        .map(|&(u, v)| {
            scored
                .binary_search_by_key(&(u.min(v), u.max(v)), |&(e, _)| e)
                .map_or(0.0, |i| scored[i].1)
        })
        .collect()
}

/// A node centrality run on the community's line graph. Line node `i`
/// stands for link `i` of `g.undirected_links()`, so the scores come out in
/// link order.
fn line_graph_weights(g: &HetGraph, measure: impl FnOnce(&FlatCsr) -> Vec<f64>) -> Vec<f64> {
    let lg = line_graph(g);
    let edges: Vec<(usize, usize)> = lg
        .adj
        .iter()
        .enumerate()
        .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
        .collect();
    match FlatCsr::from_edges(lg.n_nodes(), &edges) {
        Ok(flat) => measure(&flat),
        Err(_) => vec![0.0; lg.n_nodes()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `n` nodes joined by `edges`, in order.
    fn graph(n: usize, edges: &[(usize, usize)]) -> FlatCsr {
        FlatCsr::from_edges(n, edges).unwrap()
    }

    /// Path 0-1-2-3.
    fn path4() -> FlatCsr {
        graph(4, &[(0, 1), (1, 2), (2, 3)])
    }

    /// Star with centre 0 and leaves 1..=4.
    fn star5() -> FlatCsr {
        graph(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    /// Not connected: path 0-1-2, edge 3-4 and the isolated node 5.
    fn split6() -> FlatCsr {
        graph(6, &[(0, 1), (1, 2), (3, 4)])
    }

    /// 4×4 grid, row-major ids: corner-to-corner pairs have σ up to 20, so
    /// the Brandes ratios round.
    fn grid16() -> FlatCsr {
        let mut edges = Vec::new();
        for v in 0..16 {
            if v % 4 < 3 {
                edges.push((v, v + 1));
            }
            if v < 12 {
                edges.push((v, v + 4));
            }
        }
        graph(16, &edges)
    }

    /// FNV-1a over the `to_bits` of `xs`.
    fn bits(xs: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Checksums of the shortest-path measures, taken before they moved onto
    /// the kernels' single-source pass.
    fn shortest_path_bits(g: &FlatCsr) -> Vec<(&'static str, u64)> {
        let edge = |w: Vec<((usize, usize), f64)>| bits(w.into_iter().map(|(_, x)| x));
        vec![
            ("degree", bits(degree(g))),
            ("closeness", bits(closeness(g))),
            ("harmonic", bits(harmonic(g))),
            ("betweenness", bits(betweenness(g))),
            ("load", bits(load(g))),
            ("edge betweenness", edge(edge_betweenness(g))),
            ("edge load", edge(edge_load(g))),
        ]
    }

    #[test]
    fn shortest_path_measures_match_networkx_on_a_split_graph() {
        let g = split6();
        let close = |got: &[f64], want: &[f64]| {
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(want) {
                assert!((a - b).abs() < 1e-12, "{got:?} vs {want:?}");
            }
        };
        close(
            &closeness(&g),
            &[4.0 / 15.0, 0.4, 4.0 / 15.0, 0.2, 0.2, 0.0],
        );
        close(&harmonic(&g), &[1.5, 2.0, 1.5, 1.0, 1.0, 0.0]);
        close(&betweenness(&g), &[0.0, 0.1, 0.0, 0.0, 0.0, 0.0]);
        close(&load(&g), &[0.0, 0.1, 0.0, 0.0, 0.0, 0.0]);
        let eb = edge_betweenness(&g);
        let keys: Vec<(usize, usize)> = eb.iter().map(|&(e, _)| e).collect();
        assert_eq!(keys, vec![(0, 1), (1, 2), (3, 4)]);
        let vals: Vec<f64> = eb.iter().map(|&(_, x)| x).collect();
        close(&vals, &[2.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0]);
    }

    #[test]
    fn shortest_path_measures_keep_their_pinned_bits() {
        assert_eq!(
            shortest_path_bits(&split6()),
            vec![
                ("degree", 0x4b1f80d1f01e8f2c),
                ("closeness", 0xb0a15ae8e0486d94),
                ("harmonic", 0x6f13a5a1cc492255),
                ("betweenness", 0xd56617beacea9664),
                ("load", 0xd56617beacea9664),
                ("edge betweenness", 0x595386e77a602fc3),
                ("edge load", 0x595386e77a602fc3),
            ],
            "split graph: {:#x?}",
            shortest_path_bits(&split6())
        );
        assert_eq!(
            shortest_path_bits(&grid16()),
            vec![
                ("degree", 0x12f9d210ad9f6c15),
                ("closeness", 0xc985344493160d9d),
                ("harmonic", 0x0918e825034d345f),
                ("betweenness", 0x4e70a31fe14fe62d),
                ("load", 0xfcbb52fbab2411c5),
                ("edge betweenness", 0x9b39cbbb0ddfb171),
                ("edge load", 0xb81b07ef47ac3305),
            ],
            "grid: {:#x?}",
            shortest_path_bits(&grid16())
        );
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
        let g = graph(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 6),
                (0, 4),
                (4, 5),
                (5, 6),
            ],
        );
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
    fn approx_cfb_with_no_samples_is_zero_not_nan() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfb = approx_current_flow_betweenness(&star5(), 0, &mut rng);
        assert_eq!(cfb, vec![0.0; 5]);
    }

    #[test]
    fn kernel_measures_rank_hubs_like_their_classic_cousins() {
        // PageRank should agree with degree on who the star hub is, and
        // k-core must put the triangle above the tail.
        let pr = kernel_pagerank(&star5());
        assert!(pr[0] > pr[1] && (pr[1] - pr[4]).abs() < 1e-12);

        let tri = graph(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
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
