//! Rule F1 — durability protocol: every `rename` that publishes a file
//! must be dominated by an `fsync` on the same path.
//!
//! DESIGN §4.2 states the invariant (write temp → `sync_all` → `rename`
//! → sync dir) but nothing enforced it: a rename whose bytes were never
//! synced publishes a name that can point at a torn file after power
//! loss — exactly the corruption the WAL-replay bit-identity tests
//! cannot catch, because the test filesystem never loses power.
//!
//! The check is interprocedural over the call graph's fs-event streams
//! (see [`crate::parser::FsEvent`] — syncs and renames share one
//! token-sequence timeline with call sites):
//!
//! * a rename is **locally dominated** when the same body has a
//!   `sync_all`/`sync_data` earlier in the timeline, or an earlier call
//!   whose callee *may* transitively sync;
//! * otherwise the obligation escalates to the callers: every call path
//!   from an entry point (a fn with no workspace callers, or any `pub`
//!   fn — external callers are invisible and cannot be assumed to have
//!   synced) must sync before the call that leads to the rename.
//!
//! Approximation directions: "callee may sync" treats a fn that syncs on
//! *any* path as syncing (optimistic — misses renames whose sync is
//! conditional), while `pub` fns counting as entries is pessimistic (a
//! pub helper documented as "caller must fsync first" needs an audited
//! allow — which is exactly the review point the rule wants). Cycles in
//! the caller walk resolve optimistically.

use super::Violation;
use crate::callgraph::CallGraph;
use crate::config::RuleScope;
use crate::parser::FsEventKind;

pub fn check_f1(g: &CallGraph, scope: &RuleScope) -> Vec<Violation> {
    // Fns that may force bytes to stable storage, directly or through a
    // callee.
    let sync_roots: Vec<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.fs_events.iter().any(|e| e.kind == FsEventKind::Sync))
        .map(|(i, _)| i)
        .collect();
    let may_sync = g.reaches(&sync_roots);

    let mut out = Vec::new();
    for (fi, f) in g.fns.iter().enumerate() {
        if !scope.covers(&f.file) {
            continue;
        }
        for ev in f.fs_events.iter().filter(|e| e.kind == FsEventKind::Rename) {
            if synced_before(g, &may_sync, fi, ev.seq) {
                continue;
            }
            let mut visited = vec![false; g.fns.len()];
            if let Some(entry) = unsynced_entry(g, &may_sync, fi, &mut visited) {
                let via = if entry == fi {
                    String::new()
                } else {
                    format!(" (unsynced entry: `{}`)", g.label(entry))
                };
                out.push(Violation {
                    rule: "F1",
                    file: f.file.clone(),
                    line: ev.line,
                    message: format!(
                        "`rename` publishes a file with no dominating `sync_all`/`sync_data` \
                         on this path{via} — write-temp→fsync→rename (DESIGN §4.2)"
                    ),
                });
            }
        }
    }
    out
}

/// Does `fi`'s body sync before timeline position `seq` — an own
/// `sync_all`/`sync_data` event, or a call into a fn that may sync?
fn synced_before(g: &CallGraph, may_sync: &[bool], fi: usize, seq: u32) -> bool {
    let f = &g.fns[fi];
    if f.fs_events
        .iter()
        .any(|e| e.kind == FsEventKind::Sync && e.seq < seq)
    {
        return true;
    }
    g.edges[fi]
        .iter()
        .any(|e| may_sync[e.callee] && f.calls[e.site].seq < seq)
}

/// Walks callers of `target` looking for a path from an entry point with
/// no sync before the call chain. Returns the entry node of a witness
/// path, or `None` when every path is dominated. `visited` cuts cycles
/// (optimistically — a recursive path is assumed dominated).
fn unsynced_entry(
    g: &CallGraph,
    may_sync: &[bool],
    target: usize,
    visited: &mut [bool],
) -> Option<usize> {
    if g.reverse[target].is_empty() || g.fns[target].is_pub {
        return Some(target);
    }
    if visited[target] {
        return None;
    }
    visited[target] = true;
    for &c in &g.reverse[target] {
        for e in g.edges[c].iter().filter(|e| e.callee == target) {
            let call_seq = g.fns[c].calls[e.site].seq;
            if synced_before(g, may_sync, c, call_seq) {
                continue;
            }
            if let Some(entry) = unsynced_entry(g, may_sync, c, visited) {
                return Some(entry);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::Path;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&[SourceFile::from_source(
            Path::new("crates/d/src/lib.rs"),
            src,
        )])
    }

    fn scope() -> RuleScope {
        RuleScope {
            crates: vec!["d".to_string()],
            skip_bins: false,
        }
    }

    #[test]
    fn local_fsync_before_rename_passes() {
        let g = graph(
            "pub fn persist(f: &File) {\n\
             f.sync_all().ok();\n\
             fs::rename(&tmp, &dst).ok();\n\
             }\n",
        );
        assert!(check_f1(&g, &scope()).is_empty());
    }

    #[test]
    fn bare_rename_in_pub_fn_is_flagged() {
        let g = graph("pub fn publish() { fs::rename(&tmp, &dst).ok(); }");
        let v = check_f1(&g, &scope());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "F1");
    }

    #[test]
    fn sync_in_helper_called_earlier_dominates() {
        let g = graph(
            "fn flush_bytes(f: &File) { f.sync_all().ok(); }\n\
             pub fn persist(f: &File) {\n\
             flush_bytes(f);\n\
             fs::rename(&tmp, &dst).ok();\n\
             }\n",
        );
        assert!(check_f1(&g, &scope()).is_empty());
    }

    #[test]
    fn caller_sync_dominates_a_rename_in_a_private_helper() {
        let g = graph(
            "fn publish(p: &Path) { fs::rename(p, &dst).ok(); }\n\
             pub fn persist(f: &File, p: &Path) {\n\
             f.sync_all().ok();\n\
             publish(p);\n\
             }\n",
        );
        assert!(check_f1(&g, &scope()).is_empty(), "caller synced first");
    }

    #[test]
    fn unsynced_caller_path_is_flagged_with_witness() {
        let g = graph(
            "fn publish(p: &Path) { fs::rename(p, &dst).ok(); }\n\
             fn persist(f: &File, p: &Path) { f.sync_all().ok(); publish(p); }\n\
             pub fn hasty(p: &Path) { publish(p); }\n",
        );
        let v = check_f1(&g, &scope());
        assert_eq!(v.len(), 1, "one dominated path, one unsynced: {v:?}");
        assert!(
            v[0].message.contains("unsynced entry: `xfraud_d::hasty`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn out_of_scope_renames_are_not_attributed() {
        let g = graph("pub fn publish() { fs::rename(&tmp, &dst).ok(); }");
        let other = RuleScope {
            crates: vec!["other".to_string()],
            skip_bins: false,
        };
        assert!(check_f1(&g, &other).is_empty());
    }
}
