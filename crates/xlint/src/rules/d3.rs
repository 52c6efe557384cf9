//! D3 — determinism taint.
//!
//! D2 bans *direct* ambient nondeterminism (entropy RNGs, clocks, env)
//! in determinism-critical crates, but the scoping has a blind spot: a
//! scoped crate can launder entropy through a call into an unscoped one
//! (`metrics`, `bench`, a CLI helper) or through a function whose own D2
//! hit was inline-allowed for a documented local reason. D3 closes it:
//! every function that transitively calls a D2 nondeterminism source —
//! in *any* crate, allowed or not — is tainted, and a call from an
//! in-scope function to a tainted out-of-scope callee is a violation at
//! the call site.
//!
//! Violations fire only on that **frontier edge** (in-scope caller →
//! tainted out-of-scope callee). Calls to in-scope tainted functions are
//! deliberately not flagged: the taint entered scope somewhere, and that
//! entry point is either a D2 finding or another frontier edge — flagging
//! every transitive caller would duplicate one root cause across dozens
//! of lines and bury the signal.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::config::RuleScope;
use crate::parser::enclosing_fn;
use crate::rules::{check_d2, Violation};
use crate::source::SourceFile;

pub fn check_d3(cg: &CallGraph, files: &[SourceFile], scope: &RuleScope) -> Vec<Violation> {
    // Taint roots: every D2 pattern site in the workspace, including
    // allow-suppressed sites and crates outside d2's scope.
    let mut root_site: BTreeMap<usize, (String, u32)> = BTreeMap::new(); // fn -> earliest site
    for sf in files {
        for v in check_d2(sf) {
            if let Some(i) = enclosing_fn(&cg.fns, &v.file, v.line) {
                let entry = root_site.entry(i).or_insert((v.file.clone(), v.line));
                if v.line < entry.1 {
                    *entry = (v.file.clone(), v.line);
                }
            }
        }
    }
    if root_site.is_empty() {
        return Vec::new();
    }
    let roots: Vec<usize> = root_site.keys().copied().collect();
    let tainted = cg.reaches(&roots);
    let mut target = vec![false; cg.fns.len()];
    for &r in &roots {
        target[r] = true;
    }

    let mut out: Vec<Violation> = Vec::new();
    let mut seen: Vec<(String, u32)> = Vec::new();
    for (i, f) in cg.fns.iter().enumerate() {
        if !scope.covers(&f.file) {
            continue;
        }
        for e in &cg.edges[i] {
            let callee = &cg.fns[e.callee];
            if !tainted[e.callee] || scope.lists_crate_of(&callee.file) {
                continue;
            }
            let key = (f.file.clone(), e.line);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let path = cg.path_to(e.callee, &target);
            let site = path
                .last()
                .and_then(|r| root_site.get(r))
                .cloned()
                .unwrap_or_else(|| (callee.file.clone(), callee.line));
            let chain: Vec<String> = path.iter().map(|&n| cg.label(n)).collect();
            out.push(Violation {
                rule: "D3",
                file: f.file.clone(),
                line: e.line,
                message: format!(
                    "`{}` calls `{}`, which transitively reaches ambient nondeterminism \
                     at {}:{} (taint path: {}) — thread the value in as a parameter or \
                     move the call behind the bench/metrics boundary",
                    cg.label(i),
                    cg.label(e.callee),
                    site.0,
                    site.1,
                    chain.join(" -> ")
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}
