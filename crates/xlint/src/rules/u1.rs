//! Rules U1/U2 — unsafe discipline.
//!
//! **U1** (per file): every `unsafe` block / fn / impl in library code
//! carries an *adjacent* `// SAFETY:` comment with a non-empty
//! justification (trailing on the same line, or the comment run ending on
//! the line directly above — see [`crate::unsafe_scan`] for the exact
//! adjacency contract). Exact: the scan sees every `unsafe` keyword
//! outside `#[cfg(test)]`; only the *quality* of the justification is
//! left to review.
//!
//! **U2** (workspace): every `unsafe` site is recorded in the committed
//! `docs/unsafe_audit.md` (regenerated via `--graph unsafe`), keyed by
//! `file · kind · enclosing fn` so pure line shifts don't churn the
//! audit. This is the ratchet: new unsafe cannot land without the audit
//! doc — and therefore a reviewed justification — landing with it.

use super::Violation;
use crate::config::RuleScope;
use crate::source::SourceFile;
use crate::unsafe_scan::{collect_unsafe, inventory, keys_in_markdown};
use crate::Workspace;

pub fn check_u1(sf: &SourceFile) -> Vec<Violation> {
    collect_unsafe(sf)
        .into_iter()
        .filter(|s| s.safety.is_none())
        .map(|s| {
            Violation::new(
                "U1",
                sf,
                s.line,
                format!(
                    "`unsafe` {} in `{}` has no adjacent `// SAFETY:` justification — \
                     state the contract and why it holds on the line(s) directly above",
                    s.kind.label(),
                    s.fn_label
                ),
            )
        })
        .collect()
}

/// Compares the live workspace unsafe inventory against the committed
/// audit doc. A site whose key appears more times in the tree than in
/// the doc is un-audited; the fix is `--graph unsafe >
/// docs/unsafe_audit.md` *after* writing the SAFETY comment (U1 makes
/// sure the regenerated doc then carries a real justification).
pub fn check_u2(ws: &Workspace, scope: &RuleScope) -> Vec<Violation> {
    let doc = std::fs::read_to_string(ws.root.join("docs/unsafe_audit.md")).unwrap_or_default();
    let mut doc_keys = keys_in_markdown(&doc);
    let mut out = Vec::new();
    for s in &inventory(&ws.files) {
        if !scope.covers(&s.file) {
            continue;
        }
        let key = s.key();
        // Consume one doc entry per live site; sites beyond the doc's
        // count for the same key are the un-audited ones.
        if let Some(pos) = doc_keys.iter().position(|k| *k == key) {
            doc_keys.swap_remove(pos);
            continue;
        }
        out.push(Violation {
            rule: "U2",
            file: s.file.clone(),
            line: s.line,
            message: format!(
                "unsafe {} in `{}` is not recorded in docs/unsafe_audit.md — \
                 regenerate it with `cargo run -p xlint -- --graph unsafe > docs/unsafe_audit.md`",
                s.kind.label(),
                s.fn_label
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path as P;

    fn check(src: &str) -> Vec<Violation> {
        check_u1(&SourceFile::from_source(P::new("crates/d/src/lib.rs"), src))
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let v = check("fn f() { unsafe { go() } }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "U1");
        assert!(v[0].message.contains("`f`"), "{}", v[0].message);
    }

    #[test]
    fn adjacent_safety_comment_passes() {
        let v = check("fn f() {\n    // SAFETY: index checked by caller\n    unsafe { go() }\n}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn blank_line_breaks_adjacency() {
        let v = check("fn f() {\n    // SAFETY: stale justification\n\n    unsafe { go() }\n}");
        assert_eq!(v.len(), 1, "a blank line detaches the justification");
    }
}
