//! L2 — lock-order cycle detection.
//!
//! L1 sees one body at a time: it catches a guard held across a
//! workspace call, but not the *global* property that makes that
//! dangerous — two code paths acquiring the same pair of locks in
//! opposite order. L2 builds the workspace lock graph (direct nesting
//! plus interprocedural acquisition through the call graph) and flags
//! every strongly connected component as a potential deadlock, reporting
//! one witness cycle per knot: the exact `A held while acquiring B`
//! chain, with the file, line and function of each hop.
//!
//! Over-approximation direction: call resolution may connect more
//! callees than runtime dispatch would, so a reported cycle can be a
//! false positive (suppress with `// xlint: allow(l2, reason = "…")` on
//! the witness line); a *missing* cycle edge would be the dangerous
//! direction, and the resolver errs against it.

use crate::callgraph::CallGraph;
use crate::config::RuleScope;
use crate::lockgraph::LockGraph;
use crate::rules::Violation;

pub fn check_l2(cg: &CallGraph, lg: &LockGraph, scope: &RuleScope) -> Vec<Violation> {
    let mut out = Vec::new();
    for cycle in lg.cycles() {
        // Attribute the cycle to its first in-scope edge (smallest
        // file/line), so the finding lands where a fix or allow can go.
        let mut anchor: Option<&&crate::lockgraph::LockEdge> = None;
        for e in &cycle {
            if !scope.covers(&cg.fns[e.fn_idx].file) {
                continue;
            }
            if anchor.is_none_or(|a| (e.file.as_str(), e.line) < (a.file.as_str(), a.line)) {
                anchor = Some(e);
            }
        }
        let Some(anchor) = anchor else { continue };
        let hops: Vec<String> = cycle
            .iter()
            .map(|e| {
                let via = match e.via {
                    Some(callee) => format!(" via call to `{}`", cg.label(callee)),
                    None => String::new(),
                };
                format!(
                    "`{}` held while acquiring `{}` at {}:{} in `{}`{}",
                    e.from,
                    e.to,
                    e.file,
                    e.line,
                    cg.label(e.fn_idx),
                    via
                )
            })
            .collect();
        out.push(Violation {
            rule: "L2",
            file: anchor.file.clone(),
            line: anchor.line,
            message: format!(
                "lock-order cycle over {} lock(s) — potential deadlock: {}",
                cycle.len(),
                hops.join("; then ")
            ),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}
