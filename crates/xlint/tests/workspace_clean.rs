//! The CI contract: `cargo run -p xlint -- --check` finds no live
//! violation in the workspace, and every inline allow carries a reason.

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
fn xlint_check_finds_no_live_violation() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("xlint.toml")).expect("xlint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace scan");
    assert!(
        report.violations.is_empty(),
        "live violations — fix them or add a justified allow:\n{:#?}",
        report.violations
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
