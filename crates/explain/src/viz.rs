//! Graphviz DOT rendering of communities with explainer edge weights — the
//! tool behind the paper's case-study figures (6, 11, 16, 17): "the thicker
//! an edge is, the stronger the connection".

use std::fmt::Write as _;

use xfraud_hetgraph::{Community, NodeType};

/// Renders a community as a Graphviz `graph` (undirected, per the paper's
/// footnote 4). Node styling encodes type and ground-truth label:
/// transactions are boxes (red = fraud, green = legit, grey = unlabelled),
/// entities are ellipses labelled by type. Edge pen width scales with the
/// supplied weight (aligned with `community.graph.undirected_links()`).
#[expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write for String never returns Err"
)]
pub fn community_dot(community: &Community, edge_weights: &[f64], title: &str) -> String {
    let g = &community.graph;
    let links = g.undirected_links();
    assert_eq!(
        links.len(),
        edge_weights.len(),
        "weights must align with undirected links"
    );

    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &w in edge_weights {
        lo = lo.min(w);
        hi = hi.max(w);
    }
    let span = if (hi - lo) > 1e-12 { hi - lo } else { 1.0 };

    let mut out = String::new();
    let _ = writeln!(out, "graph community {{");
    let _ = writeln!(out, "  label=\"{title}\";");
    let _ = writeln!(out, "  layout=neato; overlap=false;");
    for v in 0..g.n_nodes() {
        let ty = g.node_type(v);
        let seed_mark = if v == community.seed {
            ", peripheries=2"
        } else {
            ""
        };
        match ty {
            NodeType::Txn => {
                let color = match g.label(v) {
                    Some(true) => "#d62728",
                    Some(false) => "#2ca02c",
                    None => "#aaaaaa",
                };
                let _ = writeln!(
                    out,
                    "  n{v} [shape=box, style=filled, fillcolor=\"{color}\", label=\"txn {v}\"{seed_mark}];"
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  n{v} [shape=ellipse, label=\"{} {v}\"{seed_mark}];",
                    ty.label()
                );
            }
        }
    }
    for (&(u, v), &w) in links.iter().zip(edge_weights) {
        let width = 0.5 + 4.0 * (w - lo) / span;
        let _ = writeln!(out, "  n{u} -- n{v} [penwidth={width:.2}];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_hetgraph::{community_of, GraphBuilder};

    fn community() -> Community {
        let mut b = GraphBuilder::new(1);
        let t0 = b.add_txn([0.0], Some(true));
        let t1 = b.add_txn([0.0], None);
        let p = b.add_entity(NodeType::Pmt);
        b.link(t0, p).unwrap();
        b.link(t1, p).unwrap();
        let g = b.finish().unwrap();
        community_of(&g, t0, usize::MAX).unwrap()
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let c = community();
        let dot = community_dot(&c, &[0.9, 0.1], "tp case");
        assert!(dot.starts_with("graph community {"));
        assert!(dot.contains("tp case"));
        assert!(dot.matches("shape=box").count() == 2);
        assert!(dot.matches(" -- ").count() == 2);
        // Fraud seed is red and double-ringed.
        assert!(dot.contains("#d62728"));
        assert!(dot.contains("peripheries=2"));
        // Unlabelled txn is grey.
        assert!(dot.contains("#aaaaaa"));
    }

    #[test]
    fn heavier_edges_get_wider_pens() {
        let c = community();
        let dot = community_dot(&c, &[1.0, 0.0], "w");
        let heavy = dot.lines().find(|l| l.contains("penwidth=4.50")).is_some();
        let light = dot.lines().find(|l| l.contains("penwidth=0.50")).is_some();
        assert!(heavy && light, "{dot}");
    }

    #[test]
    #[should_panic(expected = "weights must align")]
    fn misaligned_weights_panic() {
        let c = community();
        let _ = community_dot(&c, &[1.0], "bad");
    }
}
