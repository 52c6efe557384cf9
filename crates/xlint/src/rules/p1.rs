//! P1 — no panicking escape hatches in library code.
//!
//! `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!` and
//! `unimplemented!` outside `#[cfg(test)]` turn recoverable failures into
//! process aborts — and in this workspace a panic on the batcher or a DDP
//! worker thread takes the whole serving/training process down. Library
//! crates carry typed error enums (`ServeError`, `IngestError`,
//! `GraphError`, `ConfigError`); new code must use them. Invariants that
//! genuinely cannot fail are documented in place with
//! `// xlint: allow(p1, reason = "…")`.
//!
//! Slice indexing (`xs[i]`) is the same hazard but is not flagged: tensor
//! math indexes in every inner loop, so banning it would bury the findings
//! that matter under justified allows.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::{is_punct, Violation};

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn check_p1(sf: &SourceFile) -> Vec<Violation> {
    let toks = &sf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if sf.test_mask[i] {
            continue;
        }
        // `. unwrap (` / `. expect (`
        if toks[i].kind == TokenKind::Ident
            && (toks[i].text == "unwrap" || toks[i].text == "expect")
            && i >= 1
            && is_punct(toks, i - 1, ".")
            && is_punct(toks, i + 1, "(")
        {
            out.push(Violation::new(
                "P1",
                sf,
                toks[i].line,
                format!(
                    "`.{}()` in library code panics on failure — return a typed error, or \
                     justify the invariant with `// xlint: allow(p1, reason = \"…\")`",
                    toks[i].text
                ),
            ));
        }
        // `panic ! (` and friends.
        if toks[i].kind == TokenKind::Ident
            && PANIC_MACROS.contains(&toks[i].text.as_str())
            && is_punct(toks, i + 1, "!")
        {
            out.push(Violation::new(
                "P1",
                sf,
                toks[i].line,
                format!(
                    "`{}!` in library code aborts the thread — return a typed error, or \
                     justify with `// xlint: allow(p1, reason = \"…\")`",
                    toks[i].text
                ),
            ));
        }
    }
    out
}
