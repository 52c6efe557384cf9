//! The rule set. Each rule is a pure function from one [`SourceFile`] or
//! the whole [`Workspace`] model to violations; allow-directive filtering
//! happens in `lint_workspace` so rules stay trivially fixture-testable.
//! One table, `RULES`, maps each `xlint.toml` id to its check.
//!
//! | id | invariant |
//! |----|-----------|
//! | D1 | no `HashMap`/`HashSet` *iteration* in determinism-critical crates — iteration order is nondeterministic and must never reach scores, samples or serialized artefacts |
//! | D2 | no ambient nondeterminism (`thread_rng`, `rand::random`, `SystemTime::now`, `Instant::now`, `std::env`) outside the bench/metrics/CLI timing allowlist |
//! | L1 | no lock acquisition whose poison is unwrapped without recovery, and no lock guard held across a call into another workspace crate |
//!
//! The interprocedural family (PR 6) consumes the workspace call and lock
//! graphs instead of a single file:
//!
//! | id | invariant |
//! |----|-----------|
//! | L2 | the workspace lock graph is acyclic — no two code paths acquire the same locks in opposite order, even across crates |
//! | D3 | in-scope functions do not call out-of-scope functions tainted by ambient nondeterminism |
//!
//! The soundness family (PR 10) covers memory safety, memory ordering
//! and durability — the static counterpart of the Miri/TSan CI matrix:
//!
//! | id | invariant |
//! |----|-----------|
//! | U1 | every `unsafe` block/fn/impl carries an adjacent `// SAFETY:` comment with a non-empty justification |
//! | U2 | every `unsafe` site is recorded in the committed `docs/unsafe_audit.md` (regenerate with `--graph unsafe`) |
//! | A1 | no `Relaxed` store-side atomic op on a field touched by more than one function — publishes need Release/AcqRel or an audited allow |
//! | A2 | no asymmetric store/load ordering pair on one atomic field (Release store + Relaxed load, or Relaxed store + Acquire load) |
//! | F1 | every `rename` reachable from library code is dominated by `sync_all`/`sync_data` on the same call path (write-temp→fsync→rename) |

mod a1;
mod d1;
mod d2;
mod d3;
mod f1;
mod l1;
mod l2;
mod u1;

pub use a1::{check_a1, check_a2};
pub use d1::check_d1;
pub use d2::check_d2;
pub use d3::check_d3;
pub use f1::check_f1;
pub use l1::check_l1;
pub use l2::check_l2;
pub use u1::{check_u1, check_u2};

use crate::config::RuleScope;
use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::Workspace;

/// How a rule reads the workspace model.
#[derive(Clone, Copy)]
pub(crate) enum Check {
    /// Runs on each in-scope file.
    File(fn(&SourceFile) -> Vec<Violation>),
    /// Runs once over the workspace; the scope says where findings land.
    Workspace(fn(&Workspace, &RuleScope) -> Vec<Violation>),
}

/// Every rule by its `xlint.toml` id, in the order `lint_workspace` runs
/// them (and so the order of the audit table).
pub(crate) const RULES: &[(&str, Check)] = &[
    ("a1", Check::File(check_a1)),
    ("a2", Check::File(check_a2)),
    ("d1", Check::File(check_d1)),
    ("d2", Check::File(check_d2)),
    ("l1", Check::File(check_l1)),
    ("u1", Check::File(check_u1)),
    (
        "d3",
        Check::Workspace(|ws, s| check_d3(&ws.graph, &ws.files, s)),
    ),
    ("f1", Check::Workspace(|ws, s| check_f1(&ws.graph, s))),
    (
        "l2",
        Check::Workspace(|ws, s| check_l2(&ws.graph, &ws.locks, s)),
    ),
    ("u2", Check::Workspace(check_u2)),
];

/// One rule hit, before allow filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule id, upper case (`"D1"`, `"L1"`, `"L2"`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Violation {
    pub fn new(rule: &'static str, sf: &SourceFile, line: u32, message: String) -> Violation {
        Violation {
            rule,
            file: sf.path.clone(),
            line,
            message,
        }
    }
}

/// Is token `i` an identifier with this exact text?
pub(crate) fn is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

pub(crate) fn is_punct(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Does `tokens[i..]` match a `::` path separator (two `:` puncts)?
pub(crate) fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    is_punct(tokens, i, ":") && is_punct(tokens, i + 1, ":")
}

/// Matches `recv :: name` ending at `i` (i.e. `tokens[i]` is `name` and it
/// is reached through a path from `recv`).
pub(crate) fn is_assoc_call(tokens: &[Token], i: usize, recv: &str, name: &str) -> bool {
    i >= 3
        && is_ident(tokens, i, name)
        && is_path_sep(tokens, i - 2)
        && is_ident(tokens, i - 3, recv)
}
