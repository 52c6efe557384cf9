//! The lock-acquisition-order graph: nodes are canonical lock
//! identities (see [`crate::parser::LockSite`]), and an edge `A → B`
//! means some execution path acquires `B` while holding `A`. A cycle in
//! this graph is a potential deadlock: two threads entering the cycle at
//! different points can each hold the lock the other wants.
//!
//! Edges come from two places:
//!
//! * **direct** — one function acquires `B` while its own guard on `A`
//!   is still live;
//! * **interprocedural** — a function calls `g(…)` while holding `A`,
//!   and `g` (transitively, through any number of calls) acquires `B`.
//!   The transitive lock set of every function is a fixpoint over the
//!   call graph, so the edge exists even when the two acquisitions are
//!   crates apart — exactly the case the per-file rule L1 cannot see.
//!
//! Cycle reporting is SCC-based: every strongly connected component
//! with at least one internal edge yields one witness cycle (smallest
//! lock id first, shortest rotation), so a tangle of N overlapping
//! cycles reports once per knot rather than N! times.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::callgraph::CallGraph;

/// One lock-order edge with its witness.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// Function whose body creates the edge.
    pub fn_idx: usize,
    pub file: String,
    pub line: u32,
    /// For interprocedural edges: the callee whose transitive lock set
    /// contributed `to`.
    pub via: Option<usize>,
}

#[derive(Debug, Default)]
pub struct LockGraph {
    /// Sorted, deduplicated lock identities.
    pub nodes: Vec<String>,
    /// Deduplicated edges, deterministic order; at most one edge per
    /// `(from, to)` pair (first witness in fn-index order wins).
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Builds the lock graph over a call graph.
    pub fn build(cg: &CallGraph) -> LockGraph {
        // Transitive lock sets: LA(f) = direct(f) ∪ ⋃ LA(callees).
        // Fixpoint by repeated passes (the workspace graph is small and
        // shallow; passes are capped defensively).
        let n = cg.fns.len();
        let mut acquired: Vec<Vec<String>> = (0..n)
            .map(|i| {
                let mut v: Vec<String> = cg.fns[i].locks.iter().map(|l| l.id.clone()).collect();
                v.sort();
                v.dedup();
                v
            })
            .collect();
        for _pass in 0..64 {
            let mut changed = false;
            for i in 0..n {
                for e in &cg.edges[i] {
                    if e.callee == i {
                        continue;
                    }
                    // Merge callee's set into caller's.
                    let callee_set = acquired[e.callee].clone();
                    let mine = &mut acquired[i];
                    for id in callee_set {
                        if let Err(at) = mine.binary_search(&id) {
                            mine.insert(at, id);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Edges.
        let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut edges: Vec<LockEdge> = Vec::new();
        let push = |edges: &mut Vec<LockEdge>,
                    seen: &mut BTreeMap<(String, String), usize>,
                    e: LockEdge| {
            if e.from == e.to {
                return; // re-acquisition of the same lock is L1's business
            }
            let key = (e.from.clone(), e.to.clone());
            if let std::collections::btree_map::Entry::Vacant(slot) = seen.entry(key) {
                slot.insert(edges.len());
                edges.push(e);
            }
        };
        for (i, f) in cg.fns.iter().enumerate() {
            // Direct nesting inside one body.
            for l in &f.locks {
                for &held in &l.under_locks {
                    push(
                        &mut edges,
                        &mut seen,
                        LockEdge {
                            from: f.locks[held].id.clone(),
                            to: l.id.clone(),
                            fn_idx: i,
                            file: f.file.clone(),
                            line: l.line,
                            via: None,
                        },
                    );
                }
            }
            // Calls under a guard: every lock the callee transitively
            // acquires is ordered after every lock held here.
            for e in &cg.edges[i] {
                let call = &f.calls[e.site];
                if call.under_locks.is_empty() {
                    continue;
                }
                for to_id in &acquired[e.callee] {
                    for &held in &call.under_locks {
                        push(
                            &mut edges,
                            &mut seen,
                            LockEdge {
                                from: f.locks[held].id.clone(),
                                to: to_id.clone(),
                                fn_idx: i,
                                file: f.file.clone(),
                                line: call.line,
                                via: Some(e.callee),
                            },
                        );
                    }
                }
            }
        }

        let mut nodes: Vec<String> = edges
            .iter()
            .flat_map(|e| [e.from.clone(), e.to.clone()])
            .collect();
        // Locks that never nest still appear as isolated nodes so the
        // DOT rendering shows the full lock inventory.
        for f in &cg.fns {
            nodes.extend(f.locks.iter().map(|l| l.id.clone()));
        }
        nodes.sort();
        nodes.dedup();
        LockGraph { nodes, edges }
    }

    /// One witness cycle per strongly connected component that contains
    /// an edge. Each cycle is a closed edge sequence
    /// `A → B → … → A`, starting from the smallest lock id in the SCC.
    pub fn cycles(&self) -> Vec<Vec<&LockEdge>> {
        let index: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let n = self.nodes.len();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (to, edge idx)
        for (ei, e) in self.edges.iter().enumerate() {
            adj[index[e.from.as_str()]].push((index[e.to.as_str()], ei));
        }

        let scc = tarjan_scc(n, &adj);
        // Group nodes by component.
        let mut comps: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (node, c) in scc.iter().enumerate() {
            comps.entry(*c).or_default().push(node);
        }
        let mut out = Vec::new();
        for nodes in comps.values() {
            if nodes.len() < 2 {
                continue; // self-loops were dropped at build time
            }
            // Witness: BFS from the smallest node back to itself, using
            // only intra-component edges.
            let start = *nodes
                .iter()
                .min_by_key(|&&i| &self.nodes[i])
                .expect("non-empty");
            if let Some(cycle) = self.cycle_from(start, &adj, &scc) {
                out.push(cycle);
            }
        }
        out
    }

    /// Shortest closed walk from `start` back to itself inside its SCC.
    fn cycle_from(
        &self,
        start: usize,
        adj: &[Vec<(usize, usize)>],
        scc: &[usize],
    ) -> Option<Vec<&LockEdge>> {
        let comp = scc[start];
        let mut prev: Vec<Option<usize>> = vec![None; adj.len()]; // edge idx into node
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut visited = vec![false; adj.len()];
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            for &(v, ei) in &adj[u] {
                if scc[v] != comp {
                    continue;
                }
                if v == start {
                    // Close the walk: reconstruct edges back to start.
                    let mut rev = vec![ei];
                    let mut cur = u;
                    while cur != start {
                        let pe = prev[cur].expect("BFS predecessor exists");
                        rev.push(pe);
                        let pnode = &self.edges[pe].from;
                        cur = self
                            .nodes
                            .iter()
                            .position(|n| n == pnode)
                            .expect("edge endpoints are nodes");
                    }
                    rev.reverse();
                    return Some(rev.into_iter().map(|ei| &self.edges[ei]).collect());
                }
                if !visited[v] {
                    visited[v] = true;
                    prev[v] = Some(ei);
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Graphviz DOT rendering; cycle edges are highlighted. Deterministic.
    pub fn to_dot(&self) -> String {
        let cycle_edges: Vec<*const LockEdge> = self
            .cycles()
            .into_iter()
            .flatten()
            .map(|e| e as *const LockEdge)
            .collect();
        let mut out = String::new();
        out.push_str("digraph lockgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        let index: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  l{i} [label=\"{n}\"];");
        }
        for e in &self.edges {
            let label = format!("{}:{}", e.file, e.line);
            let hot = cycle_edges.contains(&(e as *const LockEdge));
            let style = if hot { ", color=red, penwidth=2" } else { "" };
            let _ = writeln!(
                out,
                "  l{} -> l{} [label=\"{label}\", fontsize=8{style}];",
                index[e.from.as_str()],
                index[e.to.as_str()]
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Iterative Tarjan SCC; returns the component id per node (ids are
/// arbitrary but deterministic).
fn tarjan_scc(n: usize, adj: &[Vec<(usize, usize)>]) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct Frame {
        node: usize,
        edge: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames = vec![Frame {
            node: root,
            edge: 0,
        }];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(f) = frames.last_mut() {
            let u = f.node;
            if f.edge < adj[u].len() {
                let (v, _) = adj[u][f.edge];
                f.edge += 1;
                if index[v] == usize::MAX {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    frames.push(Frame { node: v, edge: 0 });
                } else if on_stack[v] {
                    low[u] = low[u].min(index[v]);
                }
            } else {
                if low[u] == index[u] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == u {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.node;
                    low[p] = low[p].min(low[u]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::source::SourceFile;
    use std::path::Path;

    /// `(path, crate lib name, source)`, as in the call-graph tests.
    fn lockgraph(files: &[(&str, &str, &str)]) -> LockGraph {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| {
                let sf = SourceFile::from_source(Path::new(path), src);
                assert_eq!(sf.crate_name, *krate);
                sf
            })
            .collect();
        LockGraph::build(&CallGraph::build(&files))
    }

    #[test]
    fn direct_nesting_creates_an_edge() {
        let g = lockgraph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl E {\n  fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    use_both(a, b);\n  }\n}",
        )]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, "xfraud_a::self.alpha");
        assert_eq!(g.edges[0].to, "xfraud_a::self.beta");
        assert!(g.cycles().is_empty(), "one edge is acyclic");
    }

    #[test]
    fn interprocedural_edges_cross_functions_and_crates() {
        let g = lockgraph(&[
            (
                "crates/a/src/lib.rs",
                "xfraud_a",
                "impl E {\n  fn f(&self) {\n    let a = self.alpha.lock();\n    xfraud_b::helper();\n    drop(a);\n  }\n}",
            ),
            (
                "crates/b/src/lib.rs",
                "xfraud_b",
                "pub fn helper() { inner(); }\nfn inner() { GLOBAL.lock().bump(); }",
            ),
        ]);
        assert!(
            g.edges.iter().any(|e| e.from == "xfraud_a::self.alpha"
                && e.to.contains("GLOBAL")
                && e.via.is_some()),
            "{:#?}",
            g.edges
        );
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let g = lockgraph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl E {\n  fn ab(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    go(a, b);\n  }\n  fn ba(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n    go(a, b);\n  }\n}",
        )]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{:#?}", g.edges);
        let ids: Vec<&str> = cycles[0].iter().map(|e| e.from.as_str()).collect();
        assert!(ids.contains(&"xfraud_a::self.alpha"));
        assert!(ids.contains(&"xfraud_a::self.beta"));
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let g = lockgraph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl E {\n  fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    go(a, b);\n  }\n  fn g(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    go(a, b);\n  }\n}",
        )]);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn dropped_guard_creates_no_edge() {
        let g = lockgraph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl E {\n  fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n    go(b);\n  }\n}",
        )]);
        assert!(g.edges.is_empty(), "{:#?}", g.edges);
    }

    #[test]
    fn dot_is_deterministic() {
        let files = [(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl E { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); go(a, b); } }",
        )];
        assert_eq!(lockgraph(&files).to_dot(), lockgraph(&files).to_dot());
    }
}
