//! `xlint` — the workspace's own static-analysis pass.
//!
//! Clippy knows Rust; it does not know *this repo's* contracts: bit-identical
//! scores for any worker count, serving equivalence under any
//! concurrency/batching, WAL-replay bit-identity. Those invariants are
//! enforced by tests, which only catch regressions the generators happen to
//! hit. `xlint` makes the underlying coding rules mechanical — per-file
//! rules (D1/D2/P1/L1/U1/A1/A2/E1) and interprocedural ones over the
//! workspace call and lock graphs (L2/D3/F1/U2); [`rules`] lists what each
//! one encodes.
//!
//! Each finding is either fixed or suppressed inline with
//! `// xlint: allow(<rule>, reason = "…")` (collected into an audit table).
//! Nothing is grandfathered: `--check` fails on any live violation.
//!
//! There is no `syn` in the offline build image, so the tool lexes Rust
//! itself ([`lexer`]) — string/comment-accurate tokens with line numbers and
//! brace depths, which is exactly enough structure for these rules.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod lockgraph;
pub mod parser;
pub mod rules;
pub mod source;
pub mod unsafe_scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use lockgraph::LockGraph;
use parser::parse_file;
use rules::{
    check_a1, check_a2, check_d1, check_d2, check_d3, check_e1, check_f1, check_l1, check_l2,
    check_p1, check_u1, check_u2, InterprocScope, Violation,
};
use source::SourceFile;

/// A violation that an inline allow directive suppressed — kept for the
/// audit table.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub violation: Violation,
    pub reason: Option<String>,
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Live (un-suppressed) violations, every scoped file — a non-empty
    /// list fails `--check`.
    pub violations: Vec<Violation>,
    /// Allow-suppressed findings, for the audit table.
    pub suppressed: Vec<Suppressed>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Runs every configured rule over the workspace at `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    // Parse each file once, share across rules.
    let mut cache: BTreeMap<PathBuf, SourceFile> = BTreeMap::new();

    for rule_id in cfg.rules.keys() {
        if !matches!(
            rule_id.as_str(),
            "d1" | "d2" | "p1" | "l1" | "l2" | "d3" | "u1" | "u2" | "a1" | "a2" | "f1" | "e1"
        ) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown rule `[rules.{rule_id}]` in xlint.toml"),
            ));
        }
    }
    for (rule_id, scope) in &cfg.rules {
        if matches!(rule_id.as_str(), "l2" | "d3" | "f1" | "u2") {
            continue; // interprocedural — dispatched over the workspace model below
        }
        for krate in &scope.crates {
            let src_dir = root.join("crates").join(krate).join("src");
            if !src_dir.is_dir() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("xlint.toml scopes rule {rule_id} to missing crate `{krate}`"),
                ));
            }
            for rel in rust_files(root, &src_dir)? {
                if scope.skip_bins && rel.components().any(|c| c.as_os_str() == "bin") {
                    continue;
                }
                if !cache.contains_key(&rel) {
                    cache.insert(rel.clone(), SourceFile::parse(root, &rel)?);
                }
                let sf = &cache[&rel];
                let raw = run_rule(rule_id, sf);
                for v in raw {
                    match sf.allowed(v.rule, v.line) {
                        Some(allow) => report.suppressed.push(Suppressed {
                            violation: v,
                            reason: allow.reason.clone(),
                        }),
                        None => report.violations.push(v),
                    }
                }
            }
        }
    }
    // Interprocedural phase: build the workspace model once (every crate,
    // including out-of-scope ones — taint sources in `metrics`/`bench`
    // still matter to callers in scoped crates), then dispatch L2/D3/F1/U2
    // over it.
    let interproc: Vec<&String> = cfg
        .rules
        .keys()
        .filter(|r| matches!(r.as_str(), "l2" | "d3" | "f1" | "u2"))
        .collect();
    if !interproc.is_empty() {
        let model = build_model(root, &mut cache)?;
        for rule_id in interproc {
            let scope = &cfg.rules[rule_id];
            let iscope = InterprocScope {
                crates: scope.crates.iter().map(|c| lib_name(c)).collect(),
                skip_bins: scope.skip_bins,
            };
            let raw = match rule_id.as_str() {
                "l2" => check_l2(&model.graph, &model.locks, &iscope),
                "d3" => check_d3(&model.graph, &model.sources, &iscope),
                "f1" => check_f1(&model.graph, &iscope),
                "u2" => check_u2(root, &iscope)?,
                _ => Vec::new(),
            };
            for v in raw {
                let allow = model
                    .sources
                    .get(&v.file)
                    .and_then(|sf| sf.allowed(v.rule, v.line));
                match allow {
                    Some(a) => report.suppressed.push(Suppressed {
                        violation: v,
                        reason: a.reason.clone(),
                    }),
                    None => report.violations.push(v),
                }
            }
        }
    }
    report.files_scanned = cache.len();
    Ok(report)
}

/// The workspace-level model the interprocedural rules consume. Sources
/// are borrowed from the driver's parse cache — one parse per file feeds
/// both the per-file and the interprocedural phases.
struct Model<'a> {
    graph: CallGraph,
    locks: LockGraph,
    /// Workspace-relative path string → parsed source, for allow-directive
    /// lookups and D3 taint-root scanning.
    sources: BTreeMap<String, &'a SourceFile>,
}

/// Maps a crate *directory* name (as used in `xlint.toml` scopes) to the
/// lib name that appears in `use` paths: `core` → `xfraud`, `xlint` →
/// `xlint`, everything else `xfraud_<dir>`.
pub fn lib_name(dir: &str) -> String {
    match dir {
        "core" => "xfraud".to_string(),
        "xlint" => "xlint".to_string(),
        _ => format!("xfraud_{dir}"),
    }
}

fn build_model<'a>(
    root: &Path,
    cache: &'a mut BTreeMap<PathBuf, SourceFile>,
) -> std::io::Result<Model<'a>> {
    let crates_dir = root.join("crates");
    let mut dirs: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let path = entry?.path();
        if path.join("src").is_dir() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                dirs.push(name.to_string());
            }
        }
    }
    dirs.sort();
    let mut rels: Vec<(PathBuf, String)> = Vec::new();
    for dir in &dirs {
        let krate = lib_name(dir);
        for rel in rust_files(root, &crates_dir.join(dir).join("src"))? {
            rels.push((rel, krate.clone()));
        }
    }
    for (rel, _) in &rels {
        if !cache.contains_key(rel) {
            let sf = SourceFile::parse(root, rel)?;
            cache.insert(rel.clone(), sf);
        }
    }
    let cache: &'a BTreeMap<PathBuf, SourceFile> = cache;
    let parsed: Vec<(String, String, parser::ParsedFile)> = rels
        .iter()
        .map(|(rel, krate)| {
            (
                rel.display().to_string(),
                krate.clone(),
                parse_file(&cache[rel], krate),
            )
        })
        .collect();
    let graph = CallGraph::build(&parsed);
    let locks = LockGraph::build(&graph);
    let sources = rels
        .iter()
        .map(|(rel, _)| (rel.display().to_string(), &cache[rel]))
        .collect();
    Ok(Model {
        graph,
        locks,
        sources,
    })
}

/// Builds the whole-workspace call and lock graphs (for `--graph` DOT
/// output and the slow graph-shape tests).
pub fn build_graphs(root: &Path) -> std::io::Result<(CallGraph, LockGraph)> {
    let mut cache = BTreeMap::new();
    let model = build_model(root, &mut cache)?;
    Ok((model.graph, model.locks))
}

fn run_rule(rule_id: &str, sf: &SourceFile) -> Vec<Violation> {
    match rule_id {
        "d1" => check_d1(sf),
        "d2" => check_d2(sf),
        "p1" => check_p1(sf),
        "l1" => check_l1(sf),
        "u1" => check_u1(sf),
        "a1" => check_a1(sf),
        "a2" => check_a2(sf),
        "e1" => check_e1(sf),
        // lint_workspace validated rule ids before dispatching.
        _ => Vec::new(),
    }
}

/// All `.rs` files under `dir`, workspace-relative, sorted for stable
/// output.
pub(crate) fn rust_files(root: &Path, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Locates the workspace root: the nearest ancestor of `start` holding an
/// `xlint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("xlint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
