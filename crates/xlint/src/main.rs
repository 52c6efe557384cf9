//! CLI driver: `cargo run -p xlint -- [--check|--graph <call|lock|unsafe>]`.

use std::path::PathBuf;
use std::process::ExitCode;

use xlint::config::Config;
use xlint::unsafe_scan::{inventory, render_markdown};
use xlint::{find_root, lint_workspace, Workspace};

const USAGE: &str = "\
xlint — workspace lint pass for determinism, lock discipline and soundness

USAGE:
    cargo run -p xlint -- [OPTIONS]

OPTIONS:
    --check              Print the table of inline `xlint: allow(...)`
                         suppressions with their reasons, then fail (exit 1)
                         on any live violation. This is the CI entry point.
                         (Default behaviour when no mode is given.)
    --graph <call|lock|unsafe>
                         Print the whole-workspace call or lock graph as
                         Graphviz DOT — or, for `unsafe`, the unsafe-audit
                         markdown (redirect to docs/unsafe_audit.md) — on
                         stdout and exit.
    --root <PATH>        Workspace root (default: nearest ancestor with an
                         xlint.toml).
    --help               This text.
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut graph: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--graph" => match args.next() {
                Some(g) if g == "call" || g == "lock" || g == "unsafe" => graph = Some(g),
                _ => return usage_error("--graph needs `call`, `lock` or `unsafe`"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a path"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => return usage_error("no xlint.toml found here or above; pass --root"),
    };

    if let Some(which) = graph {
        let ws = match Workspace::load(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("xlint: {e}");
                return ExitCode::from(2);
            }
        };
        match which.as_str() {
            "call" => print!("{}", ws.graph.to_dot()),
            "lock" => print!("{}", ws.locks.to_dot()),
            _ => print!("{}", render_markdown(&inventory(&ws.files))),
        }
        return ExitCode::SUCCESS;
    }
    let cfg = match Config::load(&root.join("xlint.toml")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };

    if !report.suppressed.is_empty() {
        println!("xlint: inline suppressions (audit):");
        println!("  {:<4} {:<52} reason", "rule", "location");
        for s in &report.suppressed {
            let loc = format!("{}:{}", s.violation.file, s.violation.line);
            println!(
                "  {:<4} {:<52} {}",
                s.violation.rule,
                loc,
                s.reason.as_deref().unwrap_or("(none given)")
            );
        }
    }
    if report.violations.is_empty() {
        println!(
            "xlint: clean — {} file(s), {} inline allow(s)",
            report.files_scanned,
            report.suppressed.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in &report.violations {
        eprintln!("  {}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
    }
    eprintln!(
        "xlint: FAILED — {} violation(s); fix them or add a justified \
         `// xlint: allow(<rule>, reason = \"…\")`",
        report.violations.len()
    );
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("xlint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
