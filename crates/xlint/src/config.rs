//! `xlint.toml` — per-crate rule scoping, in one committed file.
//!
//! The build environment has no registry access, so instead of `toml` +
//! `serde` this module reads the small TOML subset the config actually
//! uses: `[rules.<id>]` tables with string/bool/array values. Anything else
//! — including a `[[baseline]]` table from a config written for an older
//! xlint — is a line-numbered [`ConfigError`].

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Which files one rule applies to. For the interprocedural rules the
/// call and lock graphs still span the whole workspace: the scope limits
/// where findings land, not what the analysis sees.
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// Workspace crate names (directory names under `crates/`).
    pub crates: Vec<String>,
    /// Skip `src/bin/**` (CLI binaries may read env/clock and panic on
    /// usage errors).
    pub skip_bins: bool,
}

impl RuleScope {
    /// Does the scope list the crate owning `file` (a workspace-relative
    /// `crates/<dir>/…` path)?
    pub(crate) fn lists_crate_of(&self, file: &str) -> bool {
        self.crates.iter().any(|c| c == crate_dir(file))
    }

    /// May a finding land in `file`?
    pub(crate) fn covers(&self, file: &str) -> bool {
        self.lists_crate_of(file) && !(self.skip_bins && file.split('/').any(|c| c == "bin"))
    }
}

/// The crate directory of a workspace-relative path
/// (`crates/gnn/src/model.rs` → `gnn`).
pub(crate) fn crate_dir(file: &str) -> &str {
    file.split('/').nth(1).unwrap_or("")
}

#[derive(Debug, Default)]
pub struct Config {
    /// Rule id (lower case) → scope.
    pub rules: BTreeMap<String, RuleScope>,
}

#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xlint.toml line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    pub fn load(path: &Path) -> Result<Config, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Ok(Config::parse(&text)?)
    }

    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((n, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.trim_end_matches(']').trim();
                let Some(rule) = name.strip_prefix("rules.") else {
                    return Err(err(n, format!("unknown section `{line}`")));
                };
                cfg.rules.insert(rule.to_string(), RuleScope::default());
                section = Some(rule.to_string());
                continue;
            }
            let Some((key, mut value)) = line.split_once('=') else {
                return Err(err(n, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            // Multiline arrays: join lines until brackets balance.
            let mut value_buf;
            if value.matches('[').count() > value.matches(']').count() {
                value_buf = value.to_string();
                for (_, cont) in lines.by_ref() {
                    value_buf.push(' ');
                    value_buf.push_str(cont.trim());
                    if value_buf.matches('[').count() <= value_buf.matches(']').count() {
                        break;
                    }
                }
                value = &value_buf;
            }
            let value = strip_comment(value.trim());
            let Some(scope) = section.as_ref().and_then(|r| cfg.rules.get_mut(r)) else {
                return Err(err(n, "key outside any section".into()));
            };
            match key {
                "crates" => scope.crates = parse_array(value, n)?,
                "skip_bins" => scope.skip_bins = parse_bool(value, n)?,
                _ => return Err(err(n, format!("unknown rule key `{key}`"))),
            }
        }
        Ok(cfg)
    }
}

fn err(n: usize, message: String) -> ConfigError {
    ConfigError {
        line: n + 1,
        message,
    }
}

fn strip_comment(value: &str) -> &str {
    // A `#` outside quotes starts a comment; config values never contain
    // `#` inside strings, so a split on the first unquoted `#` suffices.
    let mut in_str = false;
    for (i, c) in value.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return value[..i].trim(),
            _ => {}
        }
    }
    value
}

fn parse_string(value: &str, n: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(err(n, format!("expected a quoted string, got `{v}`")))
    }
}

fn parse_bool(value: &str, n: usize) -> Result<bool, ConfigError> {
    match value.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        v => Err(err(n, format!("expected true/false, got `{v}`"))),
    }
}

fn parse_array(value: &str, n: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(err(n, format!("expected an array, got `{v}`")));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, n)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# scoping
[rules.d1]
crates = ["hetgraph", "gnn"]

[rules.d2]
crates = [
    "serve",
    "ingest",
]
skip_bins = true
"#;

    #[test]
    fn parses_scoping_and_baseline() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.rules["d1"].crates, ["hetgraph", "gnn"]);
        assert!(!cfg.rules["d1"].skip_bins);
        assert_eq!(cfg.rules["d2"].crates, ["serve", "ingest"]);
        assert!(cfg.rules["d2"].skip_bins);
    }

    #[test]
    fn a_stale_baseline_table_is_rejected_with_its_line() {
        let text = "[rules.d2]\ncrates = [\"dist\"]\n\n[[baseline]]\nrule = \"D2\"\n";
        let e = Config::parse(text).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("[[baseline]]"), "{e}");
    }

    #[test]
    fn bad_syntax_reports_the_line() {
        let e = Config::parse("[rules.d1]\ncrates = oops\n").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
