//! Fixture-based rule tests: one positive and one allow-suppressed negative
//! fixture per rule. Each positive fixture would pass if its rule were
//! deleted — these tests are what "the rule exists" means.

use std::path::Path;

use xlint::rules::{check_a1, check_a2, check_d1, check_d2, check_l1, check_u1, Violation};
use xlint::source::SourceFile;

fn parse(name: &str, src: &str) -> SourceFile {
    SourceFile::from_source(Path::new(name), src)
}

/// The driver's allow-filtering, reproduced for direct rule tests: returns
/// `(live, suppressed)` violation counts.
fn split_allows(sf: &SourceFile, violations: Vec<Violation>) -> (Vec<Violation>, usize) {
    let mut live = Vec::new();
    let mut suppressed = 0usize;
    for v in violations {
        if sf.allowed(v.rule, v.line).is_some() {
            suppressed += 1;
        } else {
            live.push(v);
        }
    }
    (live, suppressed)
}

#[test]
fn d1_flags_hash_iteration_but_not_lookup() {
    let sf = parse("d1_bad.rs", include_str!("fixtures/d1_bad.rs"));
    let v = check_d1(&sf);
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "D1"));
    assert!(v[0].message.contains("m.values()"), "{}", v[0].message);
    assert!(v.iter().any(|v| v.message.contains("index.values()")));
    assert!(v.iter().any(|v| v.message.contains("s.drain()")));
}

#[test]
fn d1_allow_directives_suppress_with_reasons() {
    let sf = parse("d1_allowed.rs", include_str!("fixtures/d1_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_d1(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 2);
    assert!(sf.allows.iter().all(|a| a.reason.is_some()));
}

#[test]
fn d2_flags_ambient_nondeterminism_outside_tests() {
    let sf = parse("d2_bad.rs", include_str!("fixtures/d2_bad.rs"));
    let v = check_d2(&sf);
    assert_eq!(v.len(), 5, "{v:#?}");
    let text = v
        .iter()
        .map(|v| v.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for what in [
        "thread_rng()",
        "rand::random()",
        "SystemTime::now()",
        "Instant::now()",
        "std::env",
    ] {
        assert!(text.contains(what), "missing {what} in:\n{text}");
    }
}

#[test]
fn d2_allow_covers_the_next_line() {
    let sf = parse("d2_allowed.rs", include_str!("fixtures/d2_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_d2(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn l1_flags_poison_unwrap_and_guard_across_workspace_call() {
    let sf = parse("l1_bad.rs", include_str!("fixtures/l1_bad.rs"));
    let v = check_l1(&sf);
    assert_eq!(v.len(), 4, "{v:#?}");
    assert!(
        v.iter()
            .any(|v| v.line == 36 && v.message.contains("propagates lock poison")),
        "a poison unwrap in a `static` initialiser is flagged: {v:#?}"
    );
    assert!(
        v.iter().any(|v| v.line == 31),
        "a guard recovered with `unwrap_or_else` is still a guard: {v:#?}"
    );
    assert!(v.iter().any(|v| v.message.contains("predict_scores")));
}

#[test]
fn l1_recovery_and_justified_calls_are_clean() {
    let sf = parse("l1_allowed.rs", include_str!("fixtures/l1_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_l1(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 1, "the justified cross-crate call is audited");
}

#[test]
fn u1_flags_unjustified_unsafe_outside_tests() {
    let sf = parse("u1_bad.rs", include_str!("fixtures/u1_bad.rs"));
    let v = check_u1(&sf);
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "U1"));
    // A comment that is not a safety argument does not count as one.
    assert!(v.iter().any(|v| v.line == 9), "{v:#?}");
}

#[test]
fn u1_accepts_safety_comments_doc_sections_and_allows() {
    let sf = parse("u1_allowed.rs", include_str!("fixtures/u1_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_u1(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 1, "exactly one site leans on an audited allow");
}

#[test]
fn a1_flags_relaxed_publish_but_exempts_pure_counters() {
    let sf = parse("a1_bad.rs", include_str!("fixtures/a1_bad.rs"));
    let v = check_a1(&sf);
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].rule, "A1");
    assert!(v[0].message.contains("self.ready"), "{}", v[0].message);
}

#[test]
fn a1_sync_orderings_and_audited_relaxed_are_clean() {
    let sf = parse("a1_allowed.rs", include_str!("fixtures/a1_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_a1(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn a2_flags_asymmetric_store_load_pairs_on_both_sides() {
    let sf = parse("a2_bad.rs", include_str!("fixtures/a2_bad.rs"));
    let v = check_a2(&sf);
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "A2"));
    let text = v
        .iter()
        .map(|v| v.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("acquire half"), "{text}");
    assert!(text.contains("release half"), "{text}");
}

#[test]
fn a2_symmetric_pairs_and_audited_hints_are_clean() {
    let sf = parse("a2_allowed.rs", include_str!("fixtures/a2_allowed.rs"));
    let (live, suppressed) = split_allows(&sf, check_a2(&sf));
    assert!(live.is_empty(), "{live:#?}");
    assert_eq!(suppressed, 1);
}
