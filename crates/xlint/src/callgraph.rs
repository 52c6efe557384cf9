//! The workspace call graph: every parsed `fn` item as a node, resolved
//! call edges between them, and the reachability queries the
//! interprocedural rules (L2/D3/F1) ask.
//!
//! ## Resolution model (and its approximations)
//!
//! The workspace has no `syn` and no type information, so resolution is
//! name-based over a **flat per-crate namespace** (module paths inside a
//! crate are ignored — the repo's crates are small and re-export their
//! public items at the crate root anyway). The direction of every
//! approximation is chosen per consumer:
//!
//! * **Plain calls** (`helper()`) resolve to every same-crate fn of that
//!   name, falling back to the file's workspace imports. Over-approximate
//!   (two private `helper`s in one crate both match) — safe for
//!   reachability rules, which only ever *add* paths.
//! * **Path calls** (`xfraud_gnn::predict_scores(…)`,
//!   `Type::assoc(…)`, `Self::helper(…)`, `crate::…`) resolve through
//!   the named crate, the file's `use` map, and each crate's `pub use`
//!   re-export table — the re-export hop is what lets determinism taint
//!   cross a façade crate.
//! * **Method calls** (`.score(…)`) resolve by name to impl methods in
//!   the caller's crate and in crates the file imports from, except
//!   names on a denylist of std-alike methods (`.get`, `.len`, …) that
//!   would otherwise glue the graph into one blob. Under-approximate:
//!   trait-object dispatch through a std-alike name produces no edge.
//!
//! `#[cfg(test)]` items are parsed but excluded from nodes — test code
//! may panic and read clocks freely, and edges from tests would poison
//! every reachability query.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::parser::{CallSite, FnItem, ParsedFile};
use crate::source::SourceFile;

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
    /// Index of the call site in the caller's `calls` vec (carries the
    /// under-lock set for the lock graph).
    pub site: usize,
}

/// The workspace call graph. Nodes are indices into `fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Outgoing resolved edges per fn, deterministic order.
    pub edges: Vec<Vec<Edge>>,
    /// Incoming edges per fn (callers), for reverse reachability.
    pub reverse: Vec<Vec<usize>>,
    /// `(crate, name)` → free-fn indices.
    free_index: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, impl_type, name)` → method indices.
    assoc_index: BTreeMap<(String, String, String), Vec<usize>>,
    /// `name` → method indices (for `.name(…)` resolution), per crate.
    method_index: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate, exported leaf)` → `(source crate, original name)` from
    /// `pub use` declarations.
    reexports: BTreeMap<(String, String), (String, String)>,
}

/// Per-file context the resolver needs: which crate the file belongs to
/// and what its `use` declarations import.
struct FileCtx {
    crate_name: String,
    /// leaf name → (source crate, original name).
    imports: BTreeMap<String, (String, String)>,
    /// Crates this file imports *anything* from (method resolution
    /// fans out to these).
    import_crates: Vec<String>,
}

impl CallGraph {
    /// Builds the graph from each file's parse. File order defines node
    /// numbering, so callers pass a sorted collection.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut g = CallGraph::default();

        // Collect nodes and indices.
        for sf in files {
            for u in &sf.parsed.uses {
                if u.is_reexport && u.leaf != "*" {
                    g.reexports.insert(
                        (sf.crate_name.clone(), u.leaf.clone()),
                        (u.crate_name.clone(), u.original.clone()),
                    );
                }
            }
            for f in &sf.parsed.fns {
                if f.is_test {
                    continue;
                }
                let idx = g.fns.len();
                g.fns.push(f.clone());
                match &f.impl_type {
                    Some(ty) => {
                        g.assoc_index
                            .entry((f.crate_name.clone(), ty.clone(), f.name.clone()))
                            .or_default()
                            .push(idx);
                        g.method_index
                            .entry((f.crate_name.clone(), f.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                    None => {
                        g.free_index
                            .entry((f.crate_name.clone(), f.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                }
            }
        }
        g.edges = vec![Vec::new(); g.fns.len()];
        g.reverse = vec![Vec::new(); g.fns.len()];

        // Resolve edges. Walk files again in the same order so node
        // indices line up with the per-file fn sequence.
        let mut node = 0usize;
        for sf in files {
            let ctx = FileCtx::new(&sf.crate_name, &sf.parsed);
            for f in &sf.parsed.fns {
                if f.is_test {
                    continue;
                }
                for (site, call) in f.calls.iter().enumerate() {
                    let mut targets = g.resolve(call, &ctx, f.impl_type.as_deref());
                    targets.sort_unstable();
                    targets.dedup();
                    for callee in targets {
                        if callee == node {
                            continue; // self-recursion adds nothing to reachability
                        }
                        g.edges[node].push(Edge {
                            callee,
                            line: call.line,
                            site,
                        });
                    }
                }
                node += 1;
            }
        }
        for (caller, outs) in g.edges.iter().enumerate() {
            for e in outs {
                g.reverse[e.callee].push(caller);
            }
        }
        for callers in &mut g.reverse {
            callers.sort_unstable();
            callers.dedup();
        }
        g
    }

    /// Resolves one call site to node indices (possibly empty — calls
    /// into std or shims have no workspace target).
    fn resolve(&self, call: &CallSite, ctx: &FileCtx, impl_type: Option<&str>) -> Vec<usize> {
        if call.is_method {
            let name = &call.path[0];
            let mut out = self.methods_in(&ctx.crate_name, name);
            for k in &ctx.import_crates {
                out.extend(self.methods_in(k, name));
            }
            return out;
        }
        match call.path.as_slice() {
            [name] => {
                let mut out = self.free_in(&ctx.crate_name, name);
                if out.is_empty() {
                    if let Some((k, orig)) = ctx.imports.get(name) {
                        out = self.item_in(k, None, orig);
                    }
                }
                out
            }
            [first, rest @ ..] => {
                let last = rest.last().expect("path has >= 2 segments");
                let qualifier = if rest.len() >= 2 {
                    Some(rest[rest.len() - 2].as_str())
                } else {
                    None
                };
                if first == "self" || first == "crate" {
                    return self.item_in(&ctx.crate_name, qualifier, last);
                }
                if first == "Self" {
                    if let Some(ty) = impl_type {
                        return self.assoc_in(&ctx.crate_name, ty, last);
                    }
                    return Vec::new();
                }
                // `xfraud_foo::…` — an explicit workspace crate path.
                if first.starts_with("xfraud") || first == "xlint" {
                    return self.item_in(first, qualifier, last);
                }
                // `Type::assoc(…)` / `module::fn(…)` through an import.
                if let Some((k, orig)) = ctx.imports.get(first) {
                    let qual = qualifier.or(Some(orig.as_str()));
                    let mut out = self.item_in(k, qual, last);
                    if out.is_empty() {
                        out = self.item_in(k, None, last);
                    }
                    return out;
                }
                // A type defined in this crate (`Engine::new(…)`).
                let mut out = self.assoc_in(&ctx.crate_name, first, last);
                if out.is_empty() && qualifier.is_some() {
                    out = self.item_in(&ctx.crate_name, qualifier, last);
                }
                out
            }
            [] => Vec::new(),
        }
    }

    /// Free fn or assoc fn `name` in `crate_name`, following one
    /// re-export hop when the crate itself has no such item.
    fn item_in(&self, crate_name: &str, qualifier: Option<&str>, name: &str) -> Vec<usize> {
        if let Some(q) = qualifier {
            let out = self.assoc_in(crate_name, q, name);
            if !out.is_empty() {
                return out;
            }
        }
        let out = self.free_in(crate_name, name);
        if !out.is_empty() {
            return out;
        }
        // Any impl's method of that name in the crate (path written
        // through a module we flattened away).
        let out = self.methods_in(crate_name, name);
        if !out.is_empty() {
            return out;
        }
        // Re-export hop: `pub use other_crate::name` in `crate_name`.
        if let Some((src, orig)) = self
            .reexports
            .get(&(crate_name.to_string(), name.to_string()))
        {
            if src != crate_name {
                return self.item_in(src, None, orig);
            }
        }
        Vec::new()
    }

    fn free_in(&self, crate_name: &str, name: &str) -> Vec<usize> {
        self.free_index
            .get(&(crate_name.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn assoc_in(&self, crate_name: &str, ty: &str, name: &str) -> Vec<usize> {
        self.assoc_index
            .get(&(crate_name.to_string(), ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn methods_in(&self, crate_name: &str, name: &str) -> Vec<usize> {
        self.method_index
            .get(&(crate_name.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// `reached[i]` — fn `i` can transitively reach one of `roots`
    /// (roots themselves included) following call edges forward.
    pub fn reaches(&self, roots: &[usize]) -> Vec<bool> {
        let mut reached = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &r in roots {
            if !reached[r] {
                reached[r] = true;
                stack.push(r);
            }
        }
        // Walk *callers*: f reaches a root iff f calls something that
        // does.
        while let Some(n) = stack.pop() {
            for &caller in &self.reverse[n] {
                if !reached[caller] {
                    reached[caller] = true;
                    stack.push(caller);
                }
            }
        }
        reached
    }

    /// Shortest call path (BFS, deterministic) from `from` to any fn
    /// with `target[i] == true`; returns node indices including both
    /// endpoints, or an empty vec when unreachable.
    pub fn path_to(&self, from: usize, target: &[bool]) -> Vec<usize> {
        if target[from] {
            return vec![from];
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        prev[from] = Some(from);
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if prev[e.callee].is_none() {
                    prev[e.callee] = Some(n);
                    if target[e.callee] {
                        // Reconstruct.
                        let mut path = vec![e.callee];
                        let mut cur = n;
                        while cur != from {
                            path.push(cur);
                            cur = prev[cur].expect("visited nodes have predecessors");
                        }
                        path.push(from);
                        path.reverse();
                        return path;
                    }
                    queue.push_back(e.callee);
                }
            }
        }
        Vec::new()
    }

    /// Human-readable label for node `i`: `crate::Type::name` or
    /// `crate::name`.
    pub fn label(&self, i: usize) -> String {
        let f = &self.fns[i];
        match &f.impl_type {
            Some(ty) => format!("{}::{}::{}", f.crate_name, ty, f.name),
            None => format!("{}::{}", f.crate_name, f.name),
        }
    }

    /// Graphviz DOT rendering, one cluster per crate. Deterministic.
    pub fn to_dot(&self) -> String {
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_crate.entry(f.crate_name.as_str()).or_default().push(i);
        }
        let mut out = String::new();
        out.push_str("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (krate, nodes) in &by_crate {
            let _ = writeln!(out, "  subgraph \"cluster_{krate}\" {{");
            let _ = writeln!(out, "    label=\"{krate}\";");
            for &i in nodes {
                let f = &self.fns[i];
                let name = match &f.impl_type {
                    Some(ty) => format!("{ty}::{}", f.name),
                    None => f.name.clone(),
                };
                let shape = if f.is_pub { "" } else { ", style=dashed" };
                let _ = writeln!(out, "    n{i} [label=\"{name}\"{shape}];");
            }
            out.push_str("  }\n");
        }
        for (i, outs) in self.edges.iter().enumerate() {
            let mut seen: Vec<usize> = Vec::new();
            for e in outs {
                if !seen.contains(&e.callee) {
                    seen.push(e.callee);
                    let _ = writeln!(out, "  n{i} -> n{};", e.callee);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

impl FileCtx {
    fn new(crate_name: &str, parsed: &ParsedFile) -> FileCtx {
        let mut imports = BTreeMap::new();
        let mut import_crates: Vec<String> = Vec::new();
        for u in &parsed.uses {
            if u.leaf != "*" {
                imports.insert(u.leaf.clone(), (u.crate_name.clone(), u.original.clone()));
            }
            if u.crate_name != crate_name && !import_crates.iter().any(|c| c == &u.crate_name) {
                import_crates.push(u.crate_name.clone());
            }
        }
        FileCtx {
            crate_name: crate_name.to_string(),
            imports,
            import_crates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// `(path, crate lib name, source)` — the name is derived from the
    /// path; listing it keeps each fixture readable.
    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, krate, src)| {
                let sf = SourceFile::from_source(Path::new(path), src);
                assert_eq!(sf.crate_name, *krate);
                sf
            })
            .collect();
        CallGraph::build(&files)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = idx(g, from);
        let t = idx(g, to);
        g.edges[f].iter().any(|e| e.callee == t)
    }

    #[test]
    fn same_crate_and_cross_crate_paths_resolve() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "xfraud_a",
                "pub fn api() { helper(); xfraud_b::remote(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "xfraud_b", "pub fn remote() {}"),
        ]);
        assert!(has_edge(&g, "api", "helper"));
        assert!(has_edge(&g, "api", "remote"));
    }

    #[test]
    fn imported_and_renamed_calls_resolve() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "xfraud_a",
                "use xfraud_b::{remote, other as o};\npub fn api() { remote(); o(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "xfraud_b",
                "pub fn remote() {}\npub fn other() {}",
            ),
        ]);
        assert!(has_edge(&g, "api", "remote"));
        assert!(has_edge(&g, "api", "other"));
    }

    #[test]
    fn assoc_and_self_calls_resolve() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "impl Engine {\n  pub fn run(&self) { Self::step(); Engine::halt(); }\n  fn step() {}\n  fn halt() {}\n}",
        )]);
        assert!(has_edge(&g, "run", "step"));
        assert!(has_edge(&g, "run", "halt"));
    }

    #[test]
    fn reexports_bridge_crates() {
        let g = graph(&[
            (
                "crates/det/src/lib.rs",
                "xfraud_det",
                "pub fn sample() { xfraud_mid::now_ms(); }",
            ),
            (
                "crates/mid/src/lib.rs",
                "xfraud_mid",
                "pub use xfraud_entropy::now_ms;",
            ),
            (
                "crates/entropy/src/lib.rs",
                "xfraud_entropy",
                "pub fn now_ms() -> u64 { 0 }",
            ),
        ]);
        assert!(has_edge(&g, "sample", "now_ms"));
    }

    #[test]
    fn method_calls_resolve_within_import_closure_only() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "xfraud_a",
                "use xfraud_b::Engine;\npub fn api(e: &Engine) { e.score(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "xfraud_b",
                "impl Engine { pub fn score(&self) {} }",
            ),
            (
                "crates/c/src/lib.rs",
                "xfraud_c",
                "impl Other { pub fn score(&self) {} }",
            ),
        ]);
        let api = idx(&g, "api");
        let callees: Vec<String> = g.edges[api]
            .iter()
            .map(|e| g.fns[e.callee].crate_name.clone())
            .collect();
        assert!(callees.contains(&"xfraud_b".to_string()));
        assert!(
            !callees.contains(&"xfraud_c".to_string()),
            "crate c is not imported by the caller's file"
        );
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "pub fn lib() {}\n#[cfg(test)]\nmod t { fn helper() { super::lib(); } }",
        )]);
        assert_eq!(g.fns.len(), 1);
    }

    #[test]
    fn reachability_and_witness_paths() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "xfraud_a",
            "pub fn api() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn unrelated() {}",
        )]);
        let leaf = idx(&g, "leaf");
        let reached = g.reaches(&[leaf]);
        assert!(reached[idx(&g, "api")]);
        assert!(reached[idx(&g, "mid")]);
        assert!(!reached[idx(&g, "unrelated")]);
        let mut target = vec![false; g.fns.len()];
        target[leaf] = true;
        let path = g.path_to(idx(&g, "api"), &target);
        let names: Vec<_> = path.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(names, ["api", "mid", "leaf"]);
    }

    #[test]
    fn dot_output_is_deterministic_and_clustered() {
        let files = [
            (
                "crates/a/src/lib.rs",
                "xfraud_a",
                "pub fn api() { xfraud_b::remote(); }",
            ),
            ("crates/b/src/lib.rs", "xfraud_b", "pub fn remote() {}"),
        ];
        let d1 = graph(&files).to_dot();
        let d2 = graph(&files).to_dot();
        assert_eq!(d1, d2);
        assert!(d1.contains("cluster_xfraud_a"));
        assert!(d1.contains("->"));
    }
}
