//! `xlint` — the workspace's own static-analysis pass.
//!
//! Clippy knows Rust; it does not know *this repo's* contracts: bit-identical
//! scores for any worker count, serving equivalence under any
//! concurrency/batching, WAL-replay bit-identity. Those invariants are
//! enforced by tests, which only catch regressions the generators happen to
//! hit. `xlint` makes the underlying coding rules mechanical — per-file
//! rules (D1/D2/L1/U1/A1/A2) and interprocedural ones over the workspace
//! call and lock graphs (L2/D3/F1/U2); [`rules`] lists what each one
//! encodes. Panic-freedom and discarded results (P1/E1) are clippy lints,
//! denied by a block in each library crate's `lib.rs` (DESIGN App. A).
//!
//! Each finding is either fixed or suppressed inline with an
//! `xlint: allow` comment naming the rule and its reason, e.g.
//! `// xlint: allow(d2, reason = "…")` (collected into an audit table).
//! A directive whose id names no rule is an error.
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

use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::{crate_dir, Config};
use lockgraph::LockGraph;
use rules::{Check, Violation, RULES};
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

/// The model every rule reads: each `.rs` file under `crates/*/src`, read,
/// lexed and parsed once, plus the call and lock graphs built from those
/// parses. The graphs span every crate, including ones no rule scopes —
/// taint sources in `metrics`/`bench` still matter to callers in scoped
/// crates.
pub struct Workspace {
    pub(crate) root: PathBuf,
    /// Directory names under `crates/` that hold a `src/`, sorted.
    pub(crate) crates: Vec<String>,
    /// Every source file, by crate directory, then path.
    pub files: Vec<SourceFile>,
    pub graph: CallGraph,
    pub locks: LockGraph,
}

impl Workspace {
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let crates_dir = root.join("crates");
        let mut crates: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.join("src").is_dir() {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    crates.push(name.to_string());
                }
            }
        }
        crates.sort();
        let mut files = Vec::new();
        for dir in &crates {
            for rel in rust_files(root, &crates_dir.join(dir).join("src"))? {
                let src = std::fs::read_to_string(root.join(&rel))?;
                files.push(SourceFile::from_source(&rel, &src));
            }
        }
        let graph = CallGraph::build(&files);
        let locks = LockGraph::build(&graph);
        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
            files,
            graph,
            locks,
        })
    }
}

/// Runs every configured rule over the workspace at `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    if let Some(id) = cfg
        .rules
        .keys()
        .find(|id| !RULES.iter().any(|(r, _)| r == id))
    {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("unknown rule `[rules.{id}]` in xlint.toml"),
        ));
    }
    let ws = Workspace::load(root)?;
    // A directive for an id with no rule would be read by nothing.
    for sf in &ws.files {
        if let Some(a) = sf
            .allows
            .iter()
            .find(|a| !RULES.iter().any(|(r, _)| r.eq_ignore_ascii_case(&a.rule)))
        {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "{}:{}: `xlint: allow({})` names no xlint rule",
                    sf.path,
                    a.line,
                    a.rule.to_ascii_lowercase()
                ),
            ));
        }
    }
    for (id, scope) in &cfg.rules {
        if let Some(krate) = scope.crates.iter().find(|k| !ws.crates.contains(k)) {
            return Err(Error::new(
                ErrorKind::NotFound,
                format!("xlint.toml scopes rule {id} to missing crate `{krate}`"),
            ));
        }
    }
    let mut report = LintReport {
        files_scanned: ws.files.len(),
        ..LintReport::default()
    };
    for (id, check) in RULES {
        let Some(scope) = cfg.rules.get(*id) else {
            continue;
        };
        let raw: Vec<Violation> = match check {
            Check::File(check) => scope
                .crates
                .iter()
                .flat_map(|krate| {
                    ws.files
                        .iter()
                        .filter(move |sf| crate_dir(&sf.path) == krate)
                })
                .filter(|sf| scope.covers(&sf.path))
                .flat_map(check)
                .collect(),
            Check::Workspace(check) => check(&ws, scope),
        };
        for v in raw {
            let sf = ws.files.iter().find(|sf| sf.path == v.file);
            match sf.and_then(|sf| sf.allowed(v.rule, v.line)) {
                Some(allow) => report.suppressed.push(Suppressed {
                    violation: v,
                    reason: allow.reason.clone(),
                }),
                None => report.violations.push(v),
            }
        }
    }
    Ok(report)
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

/// All `.rs` files under `dir`, workspace-relative, sorted for stable
/// output.
fn rust_files(root: &Path, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
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
