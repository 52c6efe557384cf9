//! What a run produces and what is done with it: the per-workload outcome,
//! its JSON forms (the driver's result line, the ledger file), the
//! `BENCHMARK.json` contract, and `compare` / `noise` / `--smoke` on top.

use std::collections::BTreeMap;
use std::path::Path;

use xfraud::netserve::json::{self, Json};

use crate::stats;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// What the slot means on this workload, sample counts, percentile used.
    pub note: String,
}

pub fn metric(
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

/// Operation counts of one phase of a workload.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

pub fn phase(name: &'static str, sent: u64, failed: u64) -> Phase {
    Phase {
        name,
        sent,
        ok: sent - failed.min(sent),
        failed,
    }
}

/// One correctness gate: what was checked, how many checks were made and
/// how many of them failed.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub made: u64,
    pub failed: u64,
}

pub fn check(what: impl Into<String>, made: u64, failed: u64) -> Check {
    Check {
        what: what.into(),
        made,
        failed,
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    pub phases: Vec<Phase>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum::<u64>()
            + self.checks.iter().map(|c| c.made).sum::<u64>()
    }

    /// Failed operations plus every correctness-check mismatch.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>()
            + self.checks.iter().map(|c| c.failed).sum::<u64>()
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.failed == 0)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::num_f64(m.value)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num_u64(self.attempted().max(1))),
            ("failed".into(), Json::num_u64(self.failed())),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    pub fn print(&self) {
        println!("== {} ==", self.workload);
        for p in &self.phases {
            println!(
                "  phase {:<10} sent {:>8}  ok {:>8}  failed {:>4}",
                p.name, p.sent, p.ok, p.failed
            );
        }
        for c in &self.checks {
            println!(
                "  check {}: {} made, {} failed{}",
                c.what,
                c.made,
                c.failed,
                if c.failed == 0 { "" } else { "  <-- FAILED" }
            );
        }
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.4} {:<9} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<34} {:>16.6} {:<9} {} failed of {} attempted",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed(),
            self.attempted()
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}

/// A declared metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound relative to the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness checks itself against.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

fn metric_specs(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            let better = field("better")?;
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: bad `better` value `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: `workloads` must be an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: a workload lacks `name`".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metric_specs(&doc, "end_to_end")?,
            per_layer: metric_specs(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a whole number")?,
        })
    }
}

/// Checks one result object against the declared names: none missing, none
/// undeclared, units as declared, every value finite, no operation failed.
/// Returns the faults.
pub fn conformance(workload: &str, result: &Json, declared: &[MetricSpec]) -> Vec<String> {
    let w = workload;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return vec![format!("{w}: result has no `metrics` object")];
    };
    let mut faults = Vec::new();
    for spec in declared {
        let Some((_, m)) = metrics.iter().find(|(name, _)| *name == spec.name) else {
            faults.push(format!(
                "{w}: declared metric `{}` was not emitted",
                spec.name
            ));
            continue;
        };
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
        if unit != spec.unit {
            faults.push(format!(
                "{w}: `{}` emitted in `{unit}`, declared in `{}`",
                spec.name, spec.unit
            ));
        }
        // A non-finite value has no JSON number and was written as `null`.
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            faults.push(format!("{w}: `{}` is not finite", spec.name));
        }
    }
    for (name, _) in metrics {
        if !declared.iter().any(|s| s.name == *name) {
            faults.push(format!("{w}: emitted metric `{name}` is not declared"));
        }
    }
    let failed = result.get("failed").and_then(Json::as_u64);
    if failed != Some(0) || result.get("correct") != Some(&Json::Bool(true)) {
        faults.push(format!(
            "{w}: {failed:?} operations failed or an output check did"
        ));
    }
    faults
}

/// Indented JSON (the ledger is read by people as well as by `compare`).
pub fn pretty(doc: &Json) -> String {
    fn go(doc: &Json, depth: usize, out: &mut String) {
        let pad = |d: usize, out: &mut String| out.push_str(&"  ".repeat(d));
        match doc {
            // Leaf objects (`{"value":…,"unit":…}`, phase rows) stay on one line.
            Json::Obj(fields)
                if fields
                    .iter()
                    .any(|(_, v)| matches!(v, Json::Obj(_) | Json::Arr(_))) =>
            {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(depth + 1, out);
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(depth, out);
                out.push('}');
            }
            Json::Arr(items)
                if items
                    .iter()
                    .any(|v| matches!(v, Json::Obj(_) | Json::Arr(_))) =>
            {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(depth + 1, out);
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(depth, out);
                out.push(']');
            }
            other => other.write(out),
        }
    }
    let mut out = String::new();
    go(doc, 0, &mut out);
    out.push('\n');
    out
}

/// One workload's sets in a ledger file: every end-to-end metric's value in
/// each set, and the operation counts over all of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadSets {
    pub metrics: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Sets whose output checks did not all pass.
    pub incorrect: u64,
}

impl WorkloadSets {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub type Sets = BTreeMap<String, WorkloadSets>;

/// Reads the end-to-end results of every set in a file written by `run` or
/// `noise`.
pub fn load_sets(path: &Path) -> Result<Sets, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let sets = doc
        .get("sets")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no `sets` array", path.display()))?;
    let mut out = Sets::new();
    for set in sets {
        let Some(Json::Obj(workloads)) = set.get("end_to_end") else {
            return Err(format!("{}: a set lacks `end_to_end`", path.display()));
        };
        for (w, result) in workloads {
            let count = |key: &str| {
                result.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    format!("{}: `{w}` lacks a whole-number `{key}`", path.display())
                })
            };
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("{}: `{w}` lacks `metrics`", path.display()));
            };
            let entry = out.entry(w.clone()).or_default();
            entry.attempted += count("attempted")?;
            entry.failed += count("failed")?;
            entry.incorrect += u64::from(result.get("correct") != Some(&Json::Bool(true)));
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).ok_or_else(|| {
                    format!("{}: `{w}.{name}` has no numeric value", path.display())
                })?;
                entry.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// `failed ÷ attempted` may rise by this much, absolute, before B is worse.
const FAILED_FRAC_BOUND: f64 = 0.001;

/// How far `b` moved from `a`, as a share of `a`, positive = better.
fn gain(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if spec.higher_is_better {
        rel
    } else {
        -rel
    }
}

/// `(max − min) / median` of one metric's sets (`None` with one set).
fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| {
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        (hi - lo) / stats::median(values).abs().max(f64::MIN_POSITIVE)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The sets of one side disagree by more than the bound, so a move of
    /// that size cannot be told from noise.
    Unresolved,
}

pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    let g = gain(spec, stats::median(a), stats::median(b));
    let noisy = [a, b].into_iter().filter_map(spread).any(|s| s > bound);
    let v = if noisy {
        Verdict::Unresolved
    } else if g < -bound {
        Verdict::Worse
    } else if g > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (g, v)
}

fn verdict_word(v: Verdict) -> &'static str {
    match v {
        Verdict::Better => "better",
        Verdict::Worse => "WORSE",
        Verdict::WithinBound => "within-bound",
        Verdict::Unresolved => "UNRESOLVED",
    }
}

/// B's operations against A's: worse when an output check failed in B or
/// B's failed fraction exceeds A's by more than [`FAILED_FRAC_BOUND`] — a
/// change that fails requests has less to do and so looks faster.
pub fn failed_verdict(a: &WorkloadSets, b: &WorkloadSets) -> Verdict {
    if b.incorrect > 0 || b.failed_frac() > a.failed_frac() + FAILED_FRAC_BOUND {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// Prints the per workload × metric comparison of B against the baseline A;
/// returns how many rows are worse and how many unresolved. An unresolved
/// row proves nothing either way — a regression of any size hides in it —
/// so the caller must not pass it off as clean.
pub fn compare(spec: &Spec, a: &Sets, b: &Sets) -> (usize, usize) {
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8}  verdict (bound)",
        "workload", "metric", "A median", "B median", "move"
    );
    let (mut worse, mut unresolved) = (0, 0);
    let mut tally = |v: Verdict| {
        worse += usize::from(v == Verdict::Worse);
        unresolved += usize::from(v == Verdict::Unresolved);
    };
    for w in &spec.workloads {
        let (Some(wa), Some(wb)) = (a.get(w), b.get(w)) else {
            println!("{w:<14} missing from one side");
            tally(Verdict::Worse);
            continue;
        };
        let v = failed_verdict(wa, wb);
        tally(v);
        println!(
            "{w:<14} {:<20} {:>14.6} {:>14.6} {:>8}  {} ({FAILED_FRAC_BOUND} absolute{})",
            "failed_frac",
            wa.failed_frac(),
            wb.failed_frac(),
            "",
            verdict_word(v),
            if wb.incorrect > 0 {
                "; an output check failed in B"
            } else {
                ""
            }
        );
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (wa.metrics.get(&m.name), wb.metrics.get(&m.name)) else {
                println!("{w:<14} {:<20} missing from one side", m.name);
                tally(Verdict::Worse);
                continue;
            };
            let (g, v) = verdict(m, va, vb);
            tally(v);
            println!(
                "{w:<14} {:<20} {:>14.4} {:>14.4} {:>+7.1}%  {} ({:.2})",
                m.name,
                stats::median(va),
                stats::median(vb),
                100.0 * g,
                verdict_word(v),
                m.bound.unwrap_or(0.0)
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    if unresolved > 0 {
        println!("unresolved: a side's own sets range over more than the bound, so nothing is shown either way — measure again on a quieter machine");
    }
    (worse, unresolved)
}

/// Prints per-metric median, quartiles and spreads over the sets of one
/// file; `true` iff every `(max − min)/median` is within its bound.
pub fn noise_table(spec: &Spec, sets: &Sets) -> bool {
    println!(
        "{:<14} {:<20} {:>3} {:>12} {:>12} {:>12} {:>8} {:>9}  bound",
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med", "range/med"
    );
    let mut steady = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let Some(v) = sets.get(w).and_then(|x| x.metrics.get(&m.name)) else {
                continue;
            };
            let (q1, q2, q3) = stats::quartiles(v);
            let range = spread(v).unwrap_or(0.0);
            let bound = m.bound.unwrap_or(0.0);
            steady &= range <= bound;
            println!(
                "{w:<14} {:<20} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>8.2}%  {:.2}{}",
                m.name,
                v.len(),
                q1,
                q2,
                q3,
                100.0 * (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE),
                100.0 * range,
                bound,
                if range <= bound {
                    ""
                } else {
                    "  <-- wider than bound"
                }
            );
        }
    }
    steady
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = spec(false);
        assert_eq!(verdict(&lower, &[10.0], &[10.5]).1, Verdict::WithinBound);
        assert_eq!(verdict(&lower, &[10.0], &[12.0]).1, Verdict::Worse);
        assert_eq!(verdict(&lower, &[10.0], &[8.0]).1, Verdict::Better);
        let higher = spec(true);
        assert_eq!(verdict(&higher, &[10.0], &[8.0]).1, Verdict::Worse);
        assert_eq!(verdict(&higher, &[10.0], &[12.0]).1, Verdict::Better);
        // A side whose own sets range over more than the bound resolves nothing.
        assert_eq!(
            verdict(&lower, &[9.0, 10.0, 11.5], &[20.0, 20.1, 20.2]).1,
            Verdict::Unresolved
        );
        let (g, _) = verdict(&lower, &[10.0], &[12.0]);
        assert!((g + 0.2).abs() < 1e-12);
    }

    #[test]
    fn more_failures_or_a_failed_check_make_b_worse() {
        let sets = |attempted, failed, incorrect| WorkloadSets {
            attempted,
            failed,
            incorrect,
            ..WorkloadSets::default()
        };
        let a = sets(10_000, 2, 0);
        assert_eq!(
            failed_verdict(&a, &sets(10_000, 11, 0)),
            Verdict::WithinBound
        );
        assert_eq!(failed_verdict(&a, &sets(10_000, 13, 0)), Verdict::Worse);
        assert_eq!(failed_verdict(&a, &sets(10_000, 0, 1)), Verdict::Worse);
    }

    fn outcome() -> Outcome {
        Outcome {
            workload: "w",
            metrics: vec![
                metric("latency_p50_ms", "ms", 1.25, ""),
                metric("setup_s", "s", 0.5, ""),
            ],
            phases: vec![phase("open", 10, 1)],
            checks: vec![check("bits", 4, 0)],
            notes: vec![],
        }
    }

    #[test]
    fn driver_json_round_trips_with_exactly_the_contract_keys() {
        let o = outcome();
        let mut text = String::new();
        o.driver_json().write(&mut text);
        let doc = json::parse(text.as_bytes()).expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(14));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        // The pretty form parses back to the same document.
        assert_eq!(json::parse(pretty(&doc).as_bytes()), Ok(doc));
    }

    #[test]
    fn conformance_flags_missing_undeclared_non_finite_and_failed() {
        let mut declared = vec![spec(false)];
        declared[0].name = "latency_p50_ms".into();
        let mut o = outcome();
        o.phases[0].failed = 0;
        let faults = conformance("w", &o.driver_json(), &declared);
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(faults[0].contains("setup_s") && faults[0].contains("not declared"));

        declared.push(MetricSpec {
            name: "peak_rss_mib".into(),
            unit: "MiB".into(),
            higher_is_better: false,
            bound: Some(0.1),
        });
        o.metrics[0].value = f64::NAN;
        o.phases[0].failed = 1;
        let faults = conformance("w", &o.driver_json(), &declared).join("\n");
        assert!(
            faults.contains("`peak_rss_mib` was not emitted"),
            "{faults}"
        );
        assert!(
            faults.contains("`latency_p50_ms` is not finite"),
            "{faults}"
        );
        assert!(faults.contains("operations failed"), "{faults}");
    }
}
