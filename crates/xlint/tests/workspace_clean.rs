//! The CI contract: `cargo run -p xlint -- --check` finds no live
//! violation in the workspace, every inline allow carries a reason, and
//! every library crate carries the clippy block that enforces P1/E1.

use std::path::Path;

use xlint::config::Config;
use xlint::lint_workspace;

/// The crate-level attribute that enforces P1/E1 (DESIGN App. A) through
/// clippy, with whitespace removed.
const POLICY_BLOCK: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented,\
clippy::let_underscore_must_use,clippy::allow_attributes_without_reason))]";

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

#[test]
fn every_library_crate_carries_the_clippy_policy_block() {
    let mut checked = Vec::new();
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir
            .file_name()
            .expect("named")
            .to_string_lossy()
            .into_owned();
        let lib = dir.join("src/lib.rs");
        if name == "xlint" || name == "bench" || !lib.is_file() {
            continue;
        }
        let src = std::fs::read_to_string(&lib).expect("lib.rs reads");
        let flat: String = src.chars().filter(|c| !c.is_whitespace()).collect();
        if !flat.contains(POLICY_BLOCK) {
            missing.push(name.clone());
        }
        checked.push(name);
    }
    assert!(checked.len() >= 16, "library crates found: {checked:?}");
    assert!(
        missing.is_empty(),
        "lib.rs without the P1/E1 clippy block: {missing:?}"
    );
}
