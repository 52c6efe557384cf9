//! A source file, lexed and parsed once, plus the derived facts every rule
//! needs: which lines are test-only code, which lines carry
//! `xlint: allow` directives, and which workspace-crate names the file
//! imports.

use std::collections::BTreeSet;
use std::path::Path;

use crate::config::crate_dir;
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::parser::{parse_file, ParsedFile};

/// An inline suppression: `// xlint: allow(d2, reason = "…")`.
///
/// A directive suppresses matching violations on its own line and on the
/// next source line (so it can trail the offending expression or sit on the
/// line above it, whichever rustfmt prefers).
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule id, upper-cased (`"D1"`, `"D2"`, …).
    pub rule: String,
    pub reason: Option<String>,
    pub line: u32,
}

/// One lexed and parsed source file, ready for the rule visitors.
pub struct SourceFile {
    /// Path relative to the workspace root (`crates/gnn/src/model.rs`).
    pub path: String,
    /// Lib name of the owning crate (`xfraud_gnn`), from the path; `crate`
    /// for a file outside `crates/` (a rule fixture).
    pub crate_name: String,
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
    /// `test_mask[i]` — token `i` sits inside `#[cfg(test)]` / `#[test]`
    /// gated code and is invisible to every rule.
    pub test_mask: Vec<bool>,
    /// Leaf names this file imports from workspace crates
    /// (`use xfraud_gnn::{predict_scores, Sampler}` → both names), plus
    /// every `xfraud*` identifier in the file (`xfraud_gnn::…` calls).
    pub workspace_imports: BTreeSet<String>,
    /// Every comment with its line span — rule U1 reads `// SAFETY:`
    /// justifications adjacent to `unsafe` sites out of these.
    pub comments: Vec<Comment>,
    /// The file's items, calls, locks and atomics; built once, here.
    pub parsed: ParsedFile,
}

impl SourceFile {
    /// Lexes and parses `src` as the file at workspace-relative
    /// `rel_path`.
    pub fn from_source(rel_path: &Path, src: &str) -> SourceFile {
        let lexed = lex(src);
        let path = rel_path.display().to_string();
        // Files outside `crates/` are rule fixtures.
        let crate_name = if path.starts_with("crates/") {
            crate::lib_name(crate_dir(&path))
        } else {
            "crate".to_string()
        };
        let mut sf = SourceFile {
            path,
            crate_name,
            test_mask: compute_test_mask(&lexed.tokens),
            allows: collect_allows(&lexed.comments),
            tokens: lexed.tokens,
            workspace_imports: BTreeSet::new(),
            comments: lexed.comments,
            parsed: ParsedFile::default(),
        };
        sf.parsed = parse_file(&sf);
        let uses = sf
            .parsed
            .uses
            .iter()
            .filter(|u| !u.is_local && u.leaf != "*");
        sf.workspace_imports = sf
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text.starts_with("xfraud"))
            .map(|t| t.text.clone())
            .chain(uses.map(|u| u.leaf.clone()))
            .collect();
        sf
    }

    /// Is a violation of `rule` at `line` suppressed by an allow directive?
    pub fn allowed(&self, rule: &str, line: u32) -> Option<&AllowDirective> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Marks tokens inside `#[cfg(test)]`- or `#[test]`-gated items. The scan
/// finds the attribute, then masks up to the end of the item's brace block
/// (or, for `#[cfg(test)] use …;`, the terminating semicolon).
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attribute(tokens, i) {
            // Find the item body: the first `{` before a `;` ends the item.
            let mut j = after_attr;
            let mut item_end = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    ";" => {
                        item_end = Some(j);
                        break;
                    }
                    "{" => {
                        let open_depth = tokens[j].brace_depth;
                        let mut k = j + 1;
                        while k < tokens.len() {
                            if tokens[k].text == "}" && tokens[k].brace_depth == open_depth {
                                break;
                            }
                            k += 1;
                        }
                        item_end = Some(k.min(tokens.len() - 1));
                        break;
                    }
                    _ => j += 1,
                }
            }
            let end = item_end.unwrap_or(tokens.len() - 1);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` start `#[test]`, `#[cfg(test)]` or a `cfg(test, …)` /
/// `cfg(any(test, …))` variant, returns the index just past the closing `]`.
fn match_test_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    // Collect tokens to the matching `]` (attributes never nest brackets
    // deeply in this workspace; track bracket depth anyway).
    let mut j = i + 2;
    let mut depth = 1u32;
    let mut words: Vec<&str> = Vec::new();
    while j < tokens.len() && depth > 0 {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {
                if tokens[j].kind == TokenKind::Ident {
                    words.push(&tokens[j].text);
                }
            }
        }
        j += 1;
    }
    let is_test = match words.as_slice() {
        ["test"] => true,
        [first, rest @ ..] if *first == "cfg" => rest.contains(&"test"),
        _ => false,
    };
    is_test.then_some(j)
}

/// Extracts `xlint: allow` directives (a rule id, then an optional
/// `reason = "…"`) from comments.
/// Multi-line block comments attribute the directive to their *last* line,
/// matching the "directive covers the next line" convention.
fn collect_allows(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("xlint: allow(") {
            let args_start = at + "xlint: allow(".len();
            let tail = &rest[args_start..];
            // The rule id runs to the first `,` (a reason follows) or `)`.
            let Some(rule_end) = tail.find([',', ')']) else {
                break;
            };
            let rule = tail[..rule_end].trim();
            let mut consumed = rule_end + 1;
            let mut reason = None;
            if tail[rule_end..].starts_with(',') {
                // `reason = "…"` — the reason is the quoted span, so a `)`
                // inside it (e.g. "link() rejects …") does not end the
                // directive early.
                let after = &tail[rule_end + 1..];
                if let Some(q1) = after.find('"') {
                    if let Some(q2) = after[q1 + 1..].find('"') {
                        let r = &after[q1 + 1..q1 + 1 + q2];
                        if !r.is_empty() {
                            reason = Some(r.to_string());
                        }
                        consumed = rule_end + 1 + q1 + 1 + q2 + 1;
                    }
                }
            }
            out.push(AllowDirective {
                rule: rule.to_ascii_uppercase(),
                reason,
                line: c.end_line,
            });
            rest = &rest[args_start + consumed..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(Path::new("fixture.rs"), src)
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = r#"
            fn library_code() { risky(); }
            #[cfg(test)]
            mod tests {
                fn helper() { also_risky(); }
            }
        "#;
        let f = file(src);
        let risky = f.tokens.iter().position(|t| t.text == "risky").unwrap();
        let also = f
            .tokens
            .iter()
            .position(|t| t.text == "also_risky")
            .unwrap();
        assert!(!f.test_mask[risky]);
        assert!(f.test_mask[also]);
    }

    #[test]
    fn test_fns_are_masked_individually() {
        let src = r#"
            #[test]
            fn a_test() { in_test(); }
            fn library_code() { in_lib(); }
        "#;
        let f = file(src);
        let t = f.tokens.iter().position(|t| t.text == "in_test").unwrap();
        let l = f.tokens.iter().position(|t| t.text == "in_lib").unwrap();
        assert!(f.test_mask[t]);
        assert!(!f.test_mask[l]);
    }

    #[test]
    fn allow_directives_parse_rule_and_reason() {
        let src = "let x = 1; // xlint: allow(d2, reason = \"bounded by construction\")\n";
        let f = file(src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "D2");
        assert_eq!(
            f.allows[0].reason.as_deref(),
            Some("bounded by construction")
        );
        assert!(f.allowed("D2", 1).is_some());
        assert!(f.allowed("D2", 2).is_some(), "covers the next line too");
        assert!(f.allowed("D1", 1).is_none());
    }

    #[test]
    fn workspace_imports_are_collected() {
        let src = "use xfraud_gnn::{predict_scores, Sampler as S};\nuse std::fmt;\nfn f() { xfraud_hetgraph::community_of(); }\n";
        let f = file(src);
        assert!(f.workspace_imports.iter().any(|n| n == "xfraud_gnn"));
        assert!(f.workspace_imports.iter().any(|n| n == "predict_scores"));
        assert!(f.workspace_imports.iter().any(|n| n == "S"));
        assert!(f.workspace_imports.iter().any(|n| n == "xfraud_hetgraph"));
        assert!(!f.workspace_imports.iter().any(|n| n == "fmt"));
        assert!(
            !f.workspace_imports.iter().any(|n| n == "Sampler"),
            "renamed import keeps the rename only"
        );
    }
}
