//! The CI contract: `cargo run -p xlint -- --check` is clean against the
//! committed baseline, the baseline is *exact* (no stale entries — burn-down
//! must be recorded), and every inline allow carries a reason.

use std::path::Path;

use xlint::config::Config;
use xlint::lint_workspace;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xlint sits two levels under the workspace root")
}

#[test]
fn xlint_check_is_clean_against_the_committed_baseline() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("xlint.toml")).expect("xlint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace scan");
    assert!(
        report.regressions.is_empty(),
        "new violations above the baseline:\n{:#?}",
        report.regressions
    );
    assert!(
        report.improvements.is_empty(),
        "baseline is stale — run `cargo run -p xlint -- --update-baseline` and commit:\n{:#?}",
        report.improvements
    );
}

/// The ratchet floor: PR 6 burned the grandfathered P1/L1 baseline down
/// from 34 violations to 25, the soundness-rules PR burned it to 17
/// (total constructors for gnn masks/targets, an infallible empty graph,
/// `total_cmp` in the rule miner), PR 21 to 15 (no `expect`/`unreachable!`
/// left in the centrality explainer) and PR 22 to 11 (`total_cmp` pivoting
/// and a shape-free square product in `explain::linalg`). The committed baseline may only shrink
/// from here — regrowing it (grandfathering *new* panic sites or lock-
/// discipline violations instead of fixing them) fails CI.
#[test]
fn p1_l1_baseline_only_shrinks() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("xlint.toml")).expect("xlint.toml parses");
    let grandfathered: usize = cfg
        .baseline
        .iter()
        .filter(|e| e.rule == "P1" || e.rule == "L1")
        .map(|e| e.count)
        .sum();
    assert!(
        grandfathered <= 11,
        "P1/L1 baseline grew to {grandfathered} violations (ceiling 11) — fix new \
         findings instead of grandfathering them, or lower this ceiling after a burn-down"
    );
}

#[test]
fn every_inline_allow_carries_a_reason() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("xlint.toml")).expect("xlint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace scan");
    let missing: Vec<_> = report
        .suppressed
        .iter()
        .filter(|s| s.reason.is_none())
        .map(|s| format!("{}:{}", s.violation.file, s.violation.line))
        .collect();
    assert!(missing.is_empty(), "allows without reasons: {missing:#?}");
}
