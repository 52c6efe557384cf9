//! Golden findings: the exact `file:line: [RULE] message` strings every
//! per-file rule reports on every fixture, and what `lint_workspace`
//! reports on the `ws_interproc` mini-workspace. Live and allow-suppressed
//! findings are pinned separately. Any change to a rule's matching,
//! ordering or wording shows up here as a string diff.

use std::path::Path;

use xlint::config::Config;
use xlint::lint_workspace;
use xlint::rules::{check_a1, check_a2, check_d1, check_d2, check_l1, check_u1, Violation};
use xlint::source::SourceFile;

/// The per-file rules, in the order their findings are listed below.
const PER_FILE_RULES: [fn(&SourceFile) -> Vec<Violation>; 6] =
    [check_d1, check_d2, check_l1, check_u1, check_a1, check_a2];

type Golden = (
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

/// `(fixture, source, live, suppressed)`.
const FIXTURES: &[Golden] = &[
    (
        "a1_allowed.rs",
        include_str!("fixtures/a1_allowed.rs"),
        A1_ALLOWED_LIVE,
        A1_ALLOWED_SUPPRESSED,
    ),
    (
        "a1_bad.rs",
        include_str!("fixtures/a1_bad.rs"),
        A1_BAD_LIVE,
        A1_BAD_SUPPRESSED,
    ),
    (
        "a2_allowed.rs",
        include_str!("fixtures/a2_allowed.rs"),
        A2_ALLOWED_LIVE,
        A2_ALLOWED_SUPPRESSED,
    ),
    (
        "a2_bad.rs",
        include_str!("fixtures/a2_bad.rs"),
        A2_BAD_LIVE,
        A2_BAD_SUPPRESSED,
    ),
    (
        "d1_allowed.rs",
        include_str!("fixtures/d1_allowed.rs"),
        D1_ALLOWED_LIVE,
        D1_ALLOWED_SUPPRESSED,
    ),
    (
        "d1_bad.rs",
        include_str!("fixtures/d1_bad.rs"),
        D1_BAD_LIVE,
        D1_BAD_SUPPRESSED,
    ),
    (
        "d2_allowed.rs",
        include_str!("fixtures/d2_allowed.rs"),
        D2_ALLOWED_LIVE,
        D2_ALLOWED_SUPPRESSED,
    ),
    (
        "d2_bad.rs",
        include_str!("fixtures/d2_bad.rs"),
        D2_BAD_LIVE,
        D2_BAD_SUPPRESSED,
    ),
    (
        "l1_allowed.rs",
        include_str!("fixtures/l1_allowed.rs"),
        L1_ALLOWED_LIVE,
        L1_ALLOWED_SUPPRESSED,
    ),
    (
        "l1_bad.rs",
        include_str!("fixtures/l1_bad.rs"),
        L1_BAD_LIVE,
        L1_BAD_SUPPRESSED,
    ),
    (
        "u1_allowed.rs",
        include_str!("fixtures/u1_allowed.rs"),
        U1_ALLOWED_LIVE,
        U1_ALLOWED_SUPPRESSED,
    ),
    (
        "u1_bad.rs",
        include_str!("fixtures/u1_bad.rs"),
        U1_BAD_LIVE,
        U1_BAD_SUPPRESSED,
    ),
];

fn render(v: &Violation) -> String {
    format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message)
}

#[test]
fn per_file_rules_report_the_pinned_findings_on_every_fixture() {
    for (name, src, live, suppressed) in FIXTURES {
        let sf = SourceFile::from_source(Path::new(name), src);
        let (mut got_live, mut got_suppressed) = (Vec::new(), Vec::new());
        for rule in PER_FILE_RULES {
            for v in rule(&sf) {
                match sf.allowed(v.rule, v.line) {
                    Some(_) => got_suppressed.push(render(&v)),
                    None => got_live.push(render(&v)),
                }
            }
        }
        assert_eq!(got_live, *live, "live findings on {name}");
        assert_eq!(got_suppressed, *suppressed, "suppressed findings on {name}");
    }
}

#[test]
fn lint_workspace_reports_the_pinned_findings_on_ws_interproc() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_interproc");
    let cfg = Config::load(&root.join("xlint.toml")).expect("fixture xlint.toml parses");
    let report = lint_workspace(&root, &cfg).expect("fixture scan");
    let violations: Vec<String> = report.violations.iter().map(render).collect();
    let suppressed: Vec<String> = report
        .suppressed
        .iter()
        .map(|s| render(&s.violation))
        .collect();
    assert_eq!(violations, WS_VIOLATIONS);
    assert_eq!(suppressed, WS_SUPPRESSED);
}

const A1_ALLOWED_LIVE: &[&str] = &[];
const A1_ALLOWED_SUPPRESSED: &[&str] = &[
    "a1_allowed.rs:22: [A1] Relaxed `store` on atomic `self.generation` (touched by generation, retire) publishes with no release fence — use Release/AcqRel, or add an audited allow for a pure statistics counter",
];
const A1_BAD_LIVE: &[&str] = &[
    "a1_bad.rs:13: [A1] Relaxed `store` on atomic `self.ready` (touched by is_ready, publish) publishes with no release fence — use Release/AcqRel, or add an audited allow for a pure statistics counter",
    "a1_bad.rs:13: [A2] Relaxed store to atomic `self.ready` that is loaded with an acquire ordering elsewhere in this file — the release half of the pairing is missing",
];
const A1_BAD_SUPPRESSED: &[&str] = &[];
const A2_ALLOWED_LIVE: &[&str] = &[];
const A2_ALLOWED_SUPPRESSED: &[&str] = &[
    "a2_allowed.rs:21: [A2] Relaxed load of atomic `self.epoch` that is stored with a release ordering elsewhere in this file — the acquire half of the pairing is missing",
];
const A2_BAD_LIVE: &[&str] = &[
    "a2_bad.rs:23: [A1] Relaxed `store` on atomic `self.tail` (touched by advance_tail, tail) publishes with no release fence — use Release/AcqRel, or add an audited allow for a pure statistics counter",
    "a2_bad.rs:19: [A2] Relaxed load of atomic `self.head` that is stored with a release ordering elsewhere in this file — the acquire half of the pairing is missing",
    "a2_bad.rs:23: [A2] Relaxed store to atomic `self.tail` that is loaded with an acquire ordering elsewhere in this file — the release half of the pairing is missing",
];
const A2_BAD_SUPPRESSED: &[&str] = &[];
const D1_ALLOWED_LIVE: &[&str] = &[];
const D1_ALLOWED_SUPPRESSED: &[&str] = &[
    "d1_allowed.rs:6: [D1] `m.values()` iterates a hash collection — iteration order is nondeterministic; use BTreeMap/BTreeSet, a sorted Vec, or justify with `// xlint: allow(d1, reason = \"…\")`",
    "d1_allowed.rs:10: [D1] `m.values()` iterates a hash collection — iteration order is nondeterministic; use BTreeMap/BTreeSet, a sorted Vec, or justify with `// xlint: allow(d1, reason = \"…\")`",
];
const D1_BAD_LIVE: &[&str] = &[
    "d1_bad.rs:6: [D1] `m.values()` iterates a hash collection — iteration order is nondeterministic; use BTreeMap/BTreeSet, a sorted Vec, or justify with `// xlint: allow(d1, reason = \"…\")`",
    "d1_bad.rs:18: [D1] `index.values()` iterates a hash collection — iteration order is nondeterministic; use BTreeMap/BTreeSet, a sorted Vec, or justify with `// xlint: allow(d1, reason = \"…\")`",
    "d1_bad.rs:23: [D1] `s.drain()` iterates a hash collection — iteration order is nondeterministic; use BTreeMap/BTreeSet, a sorted Vec, or justify with `// xlint: allow(d1, reason = \"…\")`",
];
const D1_BAD_SUPPRESSED: &[&str] = &[];
const D2_ALLOWED_LIVE: &[&str] = &[];
const D2_ALLOWED_SUPPRESSED: &[&str] = &[
    "d2_allowed.rs:5: [D2] `Instant::now()` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
];
const D2_BAD_LIVE: &[&str] = &[
    "d2_bad.rs:4: [D2] `thread_rng()` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
    "d2_bad.rs:5: [D2] `rand::random()` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
    "d2_bad.rs:6: [D2] `SystemTime::now()` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
    "d2_bad.rs:7: [D2] `Instant::now()` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
    "d2_bad.rs:8: [D2] `std::env` is ambient nondeterminism — derive RNGs from explicit seeds (`batch_rng`) and keep clock reads out of determinism-critical crates, or justify with `// xlint: allow(d2, reason = \"…\")`",
];
const D2_BAD_SUPPRESSED: &[&str] = &[];
const L1_ALLOWED_LIVE: &[&str] = &[];
const L1_ALLOWED_SUPPRESSED: &[&str] = &[
    "l1_allowed.rs:22: [L1] guard `g` is still live across a call into `predict_scores` — a cross-crate call under a lock is a deadlock/latency hazard; drop the guard first or justify with `// xlint: allow(l1, reason = \"…\")`",
];
const L1_BAD_LIVE: &[&str] = &[
    "l1_bad.rs:12: [L1] `.lock().unwrap()` propagates lock poison as a panic — recover the guard (`unwrap_or_else(PoisonError::into_inner)`) or surface a typed error",
    "l1_bad.rs:17: [L1] guard `g` is still live across a call into `predict_scores` — a cross-crate call under a lock is a deadlock/latency hazard; drop the guard first or justify with `// xlint: allow(l1, reason = \"…\")`",
    "l1_bad.rs:31: [L1] guard `g` is still live across a call into `predict_scores` — a cross-crate call under a lock is a deadlock/latency hazard; drop the guard first or justify with `// xlint: allow(l1, reason = \"…\")`",
    "l1_bad.rs:36: [L1] `.lock().unwrap()` propagates lock poison as a panic — recover the guard (`unwrap_or_else(PoisonError::into_inner)`) or surface a typed error",
];
const L1_BAD_SUPPRESSED: &[&str] = &[];
const U1_ALLOWED_LIVE: &[&str] = &[];
const U1_ALLOWED_SUPPRESSED: &[&str] = &[
    "u1_allowed.rs:30: [U1] `unsafe` block in `audited` has no adjacent `// SAFETY:` justification — state the contract and why it holds on the line(s) directly above",
];
const U1_BAD_LIVE: &[&str] = &[
    "u1_bad.rs:4: [U1] `unsafe` block in `no_comment` has no adjacent `// SAFETY:` justification — state the contract and why it holds on the line(s) directly above",
    "u1_bad.rs:9: [U1] `unsafe` block in `wrong_comment` has no adjacent `// SAFETY:` justification — state the contract and why it holds on the line(s) directly above",
    "u1_bad.rs:13: [U1] `unsafe` fn in `exported_raw` has no adjacent `// SAFETY:` justification — state the contract and why it holds on the line(s) directly above",
];
const U1_BAD_SUPPRESSED: &[&str] = &[];
const WS_VIOLATIONS: &[&str] = &[
    "crates/det/src/lib.rs:5: [D3] `xfraud_det::tick` calls `xfraud_entropy::now_ms`, which transitively reaches ambient nondeterminism at crates/entropy/src/lib.rs:5 (taint path: xfraud_entropy::now_ms) — thread the value in as a parameter or move the call behind the bench/metrics boundary",
    "crates/durab/src/lib.rs:21: [F1] `rename` publishes a file with no dominating `sync_all`/`sync_data` on this path (unsynced entry: `xfraud_durab::hasty`) — write-temp→fsync→rename (DESIGN §4.2)",
    "crates/locks/src/lib.rs:14: [L2] lock-order cycle over 3 lock(s) — potential deadlock: `xfraud_locks::self.a` held while acquiring `xfraud_locks::self.b` at crates/locks/src/lib.rs:14 in `xfraud_locks::Trio::ab`; then `xfraud_locks::self.b` held while acquiring `xfraud_locks::self.c` at crates/locks/src/lib.rs:20 in `xfraud_locks::Trio::bc`; then `xfraud_locks::self.c` held while acquiring `xfraud_locks::self.a` at crates/locks/src/lib.rs:26 in `xfraud_locks::Trio::ca` via call to `xfraud_locks::Trio::grab_a`",
];
const WS_SUPPRESSED: &[&str] = &[];
