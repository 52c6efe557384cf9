//! L1 — lock discipline.
//!
//! Two hazards, both live ones in this workspace's serving path:
//!
//! 1. **Poison propagation** — `.lock().unwrap()` / `.read().expect(…)` on
//!    a `std::sync` primitive re-raises a panic from whichever thread
//!    poisoned the lock, tearing down the batcher (and with it the engine)
//!    for a failure that already happened elsewhere. Recover the guard
//!    (`unwrap_or_else(PoisonError::into_inner)`) when the protected state
//!    tolerates it, or surface a typed error.
//! 2. **Guard held across a workspace-crate call** — `let g = x.lock();`
//!    followed by a call into another `xfraud_*` crate before `g` dies
//!    stretches the critical section over code with unknown latency and
//!    locking behaviour (the deadlock/latency hazard in the batcher). Drop
//!    the guard first, or justify with `// xlint: allow(l1, reason = "…")`.
//!
//! The poison check is a token scan over all non-test code, `static`
//! initialisers included. The guard check reads the file's parsed lock
//! sites and the parser's guard liveness (shared with L2's lock graph): a
//! `let`-bound guard is live from its acquisition to `drop(guard)` or the
//! end of its block, and a guard consumed by a chained call
//! (`let n = m.lock().len();`) is a temporary that dies with its
//! statement.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::parser::is_lock_call;
use crate::source::SourceFile;

use super::{is_punct, Violation};

pub fn check_l1(sf: &SourceFile) -> Vec<Violation> {
    let toks = &sf.tokens;
    // Parsed lock sites by token index, with the function holding each.
    let sites: BTreeMap<usize, (_, usize)> = sf
        .parsed
        .fns
        .iter()
        .flat_map(|f| (0..f.locks.len()).map(move |li| (f.locks[li].seq as usize, (f, li))))
        .collect();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if sf.test_mask[i] || !is_lock_call(toks, i) {
            continue;
        }
        // (1) `.lock().unwrap()` / `.expect(` directly chained.
        let after = i + 3; // past `lock ( )`
        if let Some(chained) = toks.get(after + 1).filter(|t| {
            is_punct(toks, after, ".")
                && t.kind == TokenKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
        }) {
            out.push(Violation::new(
                "L1",
                sf,
                toks[i].line,
                format!(
                    "`.{}().{}()` propagates lock poison as a panic — recover the guard \
                     (`unwrap_or_else(PoisonError::into_inner)`) or surface a typed error",
                    toks[i].text, chained.text
                ),
            ));
        }
        // (2) The first path call into a workspace crate while a
        // `let`-bound guard is live.
        let Some(&(f, li)) = sites.get(&i) else {
            continue;
        };
        let Some(guard) = &f.locks[li].guard else {
            continue;
        };
        if let Some(call) = f.calls.iter().find(|c| {
            !c.is_method && c.under_locks.contains(&li) && sf.workspace_imports.contains(&c.path[0])
        }) {
            out.push(Violation::new(
                "L1",
                sf,
                call.line,
                format!(
                    "guard `{guard}` is still live across a call into `{}` — a cross-crate \
                     call under a lock is a deadlock/latency hazard; drop the guard first \
                     or justify with `// xlint: allow(l1, reason = \"…\")`",
                    call.path[0]
                ),
            ));
        }
    }
    out
}
