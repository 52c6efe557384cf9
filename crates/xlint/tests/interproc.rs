//! Integration tests for the interprocedural rules (L2/D3/F1) over the
//! fixture mini-workspace in `tests/fixtures/ws_interproc/`, scope and
//! directive validation, and the whole-workspace graph-construction test.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use xlint::config::Config;
use xlint::{lint_workspace, LintReport, Workspace};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_interproc")
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xlint sits two levels under the workspace root")
}

fn fixture_report() -> LintReport {
    let root = fixture_root();
    let cfg = Config::load(&root.join("xlint.toml")).expect("fixture xlint.toml parses");
    lint_workspace(&root, &cfg).expect("fixture scan")
}

#[test]
fn l2_flags_the_three_lock_cycle_with_a_witness_path() {
    let report = fixture_report();
    let l2: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "L2")
        .collect();
    assert_eq!(l2.len(), 1, "exactly one cycle (one SCC): {l2:#?}");
    let v = l2[0];
    assert!(
        v.file.starts_with("crates/locks/"),
        "anchored in the cyclic crate: {v:#?}"
    );
    for lock in ["self.a", "self.b", "self.c"] {
        assert!(
            v.message.contains(lock),
            "witness names {lock}: {}",
            v.message
        );
    }
    // The c -> a leg only exists through the `grab_a` call.
    assert!(
        v.message.contains("via call to"),
        "cycle includes the interprocedural edge: {}",
        v.message
    );
}

#[test]
fn l2_does_not_flag_the_consistently_ordered_crate() {
    let report = fixture_report();
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.rule == "L2" && v.file.starts_with("crates/locks_ok/")),
        "acyclic lock order must stay clean"
    );
}

#[test]
fn d3_flags_the_frontier_call_through_the_reexport() {
    let report = fixture_report();
    let d3: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D3")
        .collect();
    assert_eq!(d3.len(), 1, "one frontier edge, no cascade: {d3:#?}");
    let v = d3[0];
    assert_eq!(v.file, "crates/det/src/lib.rs");
    assert!(v.message.contains("xfraud_det::tick"), "{}", v.message);
    assert!(
        v.message.contains("xfraud_entropy::now_ms"),
        "resolution followed the `pub use` bridge: {}",
        v.message
    );
    assert!(
        v.message.contains("crates/entropy/src/lib.rs:5"),
        "cites the SystemTime::now site: {}",
        v.message
    );
}

#[test]
fn f1_flags_the_unsynced_rename_path_but_not_the_synced_one() {
    let report = fixture_report();
    let f1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "F1")
        .collect();
    assert_eq!(f1.len(), 1, "one unsynced publish path: {f1:#?}");
    let v = f1[0];
    assert_eq!(v.file, "crates/durab/src/lib.rs");
    assert!(
        v.message.contains("unsynced entry: `xfraud_durab::hasty`"),
        "blames the pub entry with no sync anywhere on the path: {}",
        v.message
    );
    // `persist` syncs before renaming and must stay clean — the single
    // finding above anchors on `publish`'s rename, not `persist`'s.
    assert!(
        !v.message.contains("persist"),
        "the synced path is clean: {}",
        v.message
    );
}

#[test]
fn a_missing_crate_in_any_rule_scope_is_an_error() {
    // L2 is interprocedural; its scope is validated like every other.
    let cfg = Config::parse("[rules.l2]\ncrates = [\"nope\"]\n").expect("config parses");
    let err = lint_workspace(&fixture_root(), &cfg).expect_err("`nope` is not a crate");
    assert_eq!(err.kind(), ErrorKind::NotFound, "{err}");
    assert!(
        err.to_string().contains("rule l2 to missing crate `nope`"),
        "{err}"
    );
}

#[test]
fn a_directive_naming_no_rule_is_an_error() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_stale_allow");
    let err = lint_workspace(&root, &Config::default()).expect_err("`p1` is not an xlint rule");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
    assert!(
        err.to_string()
            .starts_with("crates/stale/src/lib.rs:4: `xlint: allow(p1)`"),
        "{err}"
    );
}

#[test]
fn whole_workspace_graphs_are_deterministic_and_sane() {
    let root = workspace_root();
    let ws1 = Workspace::load(root).expect("first load");
    let ws2 = Workspace::load(root).expect("second load");
    assert_eq!(
        ws1.graph.to_dot(),
        ws2.graph.to_dot(),
        "call graph DOT must be deterministic"
    );
    assert_eq!(
        ws1.locks.to_dot(),
        ws2.locks.to_dot(),
        "lock graph DOT must be deterministic"
    );

    assert!(
        ws1.graph.fns.len() > 400,
        "the workspace has hundreds of fns, got {}",
        ws1.graph.fns.len()
    );
    let n_edges: usize = ws1.graph.edges.iter().map(|e| e.len()).sum();
    assert!(
        n_edges > 200,
        "expected a dense call graph, got {n_edges} edges"
    );
    assert!(
        ws1.locks.nodes.len() >= 10,
        "serve/ingest/kvstore locks should all be modelled, got {:?}",
        ws1.locks.nodes
    );
    assert!(
        ws1.locks.cycles().is_empty(),
        "the real workspace lock graph must stay acyclic:\n{}",
        ws1.locks.to_dot()
    );
}
