//! Workspace `unsafe` inventory: every `unsafe` block / fn / impl site,
//! with the adjacent `// SAFETY:` justification (when present) and the
//! enclosing function, shared by rule U1 (per-site SAFETY discipline),
//! rule U2 (the audit-doc ratchet) and the `--graph unsafe` markdown
//! renderer.
//!
//! A site's justification is the comment run *directly adjacent* to the
//! `unsafe` keyword: a trailing comment on the same line, or a run of
//! line comments ending on the line immediately above (walked upwards
//! across consecutive comment lines, so multi-line SAFETY paragraphs
//! count as one justification). The run must contain `SAFETY:` followed
//! by non-empty text. Doc comments (`/// # Safety`) on an `unsafe fn`
//! count too — they are the std convention for caller-facing contracts.

use crate::lexer::{Comment, TokenKind};
use crate::parser::enclosing_fn;
use crate::source::SourceFile;

/// What kind of `unsafe` occurrence a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnsafeKind {
    Block,
    Fn,
    Impl,
    Trait,
}

impl UnsafeKind {
    pub fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::Trait => "trait",
        }
    }
}

/// One `unsafe` site in library code.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    pub kind: UnsafeKind,
    /// `Type::name` / `name` of the innermost enclosing fn, or
    /// `<module scope>` for item-level sites (`unsafe impl Send …`).
    pub fn_label: String,
    /// The adjacent SAFETY justification, single-line-normalised, or
    /// `None` when absent or empty.
    pub safety: Option<String>,
}

impl UnsafeSite {
    /// Line-independent identity used by the U2 audit ratchet: stable
    /// across pure line shifts, changes when a site moves between
    /// functions or changes kind.
    pub fn key(&self) -> String {
        format!("{} · {} · {}", self.file, self.kind.label(), self.fn_label)
    }
}

/// Collects every non-test `unsafe` site in `sf`.
pub fn collect_unsafe(sf: &SourceFile) -> Vec<UnsafeSite> {
    let toks = &sf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if sf.test_mask[i] || toks[i].kind != TokenKind::Ident || toks[i].text != "unsafe" {
            continue;
        }
        let Some(kind) = classify(toks, i) else {
            continue;
        };
        let line = toks[i].line;
        let fns = &sf.parsed.fns;
        let fn_label = match enclosing_fn(fns, &sf.path, line).map(|f| &fns[f]) {
            Some(f) => match &f.impl_type {
                Some(ty) => format!("{ty}::{}", f.name),
                None => f.name.clone(),
            },
            None => "<module scope>".into(),
        };
        out.push(UnsafeSite {
            file: sf.path.clone(),
            line,
            kind,
            fn_label,
            safety: safety_justification(&sf.comments, line),
        });
    }
    out
}

/// Classifies the `unsafe` keyword at token `i`; `None` for occurrences
/// that are types, not sites (`unsafe fn(…)` fn-pointer types, `unsafe`
/// inside a trait-bound position).
fn classify(toks: &[crate::lexer::Token], i: usize) -> Option<UnsafeKind> {
    // Walk forward over the qualifier run (`unsafe extern "C" fn …`).
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "{" => return Some(UnsafeKind::Block),
            "impl" => return Some(UnsafeKind::Impl),
            "trait" => return Some(UnsafeKind::Trait),
            "fn" => {
                // `unsafe fn name(…)` is a declaration site; a bare
                // `unsafe fn(…)`/`unsafe fn(…) -> T` is a pointer type.
                return if toks.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
                    Some(UnsafeKind::Fn)
                } else {
                    None
                };
            }
            "extern" | "async" | "const" => j += 1,
            _ if t.kind == TokenKind::Literal => j += 1, // extern "C"
            _ => return None,
        }
    }
    None
}

/// The SAFETY justification adjacent to an `unsafe` keyword on `line`:
/// the trailing comment on the same line, or the contiguous comment run
/// ending on `line - 1`. Returns the normalised justification text, or
/// `None` when the run has no `SAFETY:` (or `# Safety` doc heading) with
/// non-empty text after it.
pub fn safety_justification(comments: &[Comment], line: u32) -> Option<String> {
    let mut run: Vec<&Comment> = Vec::new();
    if let Some(c) = comments.iter().find(|c| c.line == line) {
        run.push(c);
    } else {
        let mut l = line.checked_sub(1)?;
        while let Some(c) = comments.iter().find(|c| c.end_line == l) {
            run.push(c);
            if c.line == 0 {
                break;
            }
            l = c.line - 1;
            if l == 0 {
                break;
            }
        }
        run.reverse(); // top-to-bottom reading order
    }
    let joined = run
        .iter()
        .map(|c| strip_comment_markers(&c.text))
        .collect::<Vec<_>>()
        .join(" ");
    let at = joined
        .find("SAFETY:")
        .map(|p| p + "SAFETY:".len())
        .or_else(|| joined.find("# Safety").map(|p| p + "# Safety".len()))?;
    let text = joined[at..]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    if text.is_empty() {
        None
    } else {
        Some(text)
    }
}

fn strip_comment_markers(text: &str) -> String {
    text.lines()
        .map(|l| {
            l.trim()
                .trim_start_matches("//!")
                .trim_start_matches("///")
                .trim_start_matches("//")
                .trim_start_matches("/*")
                .trim_end_matches("*/")
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every `unsafe` site in `files`, ordered by (file, line).
pub fn inventory(files: &[SourceFile]) -> Vec<UnsafeSite> {
    let mut out: Vec<UnsafeSite> = files.iter().flat_map(collect_unsafe).collect();
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Renders the audit markdown committed as `docs/unsafe_audit.md`.
/// Deterministic: regeneration over an unchanged tree is byte-identical,
/// so CI's drift check can `diff` it.
pub fn render_markdown(sites: &[UnsafeSite]) -> String {
    let mut out = String::from(
        "# Unsafe audit\n\n\
         Every `unsafe` site in workspace library code, with the adjacent\n\
         `// SAFETY:` justification. Generated by\n\
         `cargo run -p xlint -- --graph unsafe > docs/unsafe_audit.md`;\n\
         rule U2 fails `--check` when a site exists that this file does not\n\
         record (key: `file · kind · enclosing fn`), and the per-PR `xlint`\n\
         CI job diffs the regenerated inventory against this committed copy.\n",
    );
    let mut current_file = "";
    for s in sites {
        if s.file != current_file {
            current_file = &s.file;
            out.push_str(&format!("\n## {}\n\n", s.file));
        }
        let safety = s.safety.as_deref().unwrap_or("(MISSING SAFETY COMMENT)");
        out.push_str(&format!(
            "- `{}` in `{}` (line {}) — {}\n",
            s.kind.label(),
            s.fn_label,
            s.line,
            safety
        ));
    }
    if sites.is_empty() {
        out.push_str("\nNo unsafe sites.\n");
    }
    out
}

/// Parses the committed audit markdown back into site keys
/// (`file · kind · enclosing fn`), one entry per bullet. Tolerant of
/// hand-edits to justification text — only the key part is read.
pub fn keys_in_markdown(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut file = String::new();
    for line in text.lines() {
        if let Some(f) = line.strip_prefix("## ") {
            file = f.trim().to_string();
            continue;
        }
        let Some(rest) = line.strip_prefix("- `") else {
            continue;
        };
        // `- `<kind>` in `<fn>` (line N) — …`
        let Some((kind, rest)) = rest.split_once('`') else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(" in `") else {
            continue;
        };
        let Some((fn_label, _)) = rest.split_once('`') else {
            continue;
        };
        out.push(format!("{file} · {kind} · {fn_label}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn sites(src: &str) -> Vec<UnsafeSite> {
        collect_unsafe(&SourceFile::from_source(
            Path::new("crates/demo/src/lib.rs"),
            src,
        ))
    }

    #[test]
    fn blocks_fns_and_impls_are_classified() {
        let s = sites(
            "pub unsafe fn raw(p: *const u8) {}\n\
             unsafe impl Send for T {}\n\
             fn f() {\n    // SAFETY: bounds checked above\n    unsafe { go() };\n}\n",
        );
        let kinds: Vec<_> = s.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [UnsafeKind::Fn, UnsafeKind::Impl, UnsafeKind::Block]);
        assert_eq!(s[2].fn_label, "f");
        assert_eq!(s[2].safety.as_deref(), Some("bounds checked above"));
        assert!(s[0].safety.is_none());
    }

    #[test]
    fn fn_pointer_types_are_not_sites() {
        assert!(sites("type Raw = unsafe fn(*const u8) -> u8;").is_empty());
    }

    #[test]
    fn multiline_safety_runs_join() {
        let s = sites(
            "fn f() {\n\
             // SAFETY: the region is mapped for the life of self\n\
             // and never written after seal().\n\
             unsafe { read(p) };\n}\n",
        );
        assert_eq!(s.len(), 1);
        let just = s[0].safety.as_deref().unwrap();
        assert!(just.contains("never written after seal()"), "{just}");
    }

    #[test]
    fn empty_safety_text_counts_as_missing() {
        let s = sites("fn f() {\n    // SAFETY:\n    unsafe { go() };\n}\n");
        assert!(s[0].safety.is_none());
    }

    #[test]
    fn test_gated_unsafe_is_invisible() {
        let s = sites("#[cfg(test)]\nmod t {\n    fn f() { unsafe { go() } }\n}\n");
        assert!(s.is_empty());
    }

    #[test]
    fn markdown_roundtrips_keys() {
        let s = sites(
            "fn f() {\n    // SAFETY: justified\n    unsafe { go() };\n}\n\
             unsafe impl Send for T {}\n",
        );
        let md = render_markdown(&s);
        let keys = keys_in_markdown(&md);
        let expect: Vec<String> = s.iter().map(|s| s.key()).collect();
        assert_eq!(keys, expect);
    }
}
