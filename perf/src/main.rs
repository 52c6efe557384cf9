//! The repo's benchmark. See `perf/README.md` for the layer map, the four
//! workloads and how the metrics interact; `BENCHMARK.json` at the repo root
//! is the contract this binary is checked against.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result JSON
//! perf [run] [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
//! perf noise --sets K [--seed N] [--seconds S] [--trace] [--out FILE]
//! perf compare A.json B.json
//! ```

mod load;
mod offline;
mod probes;
mod report;
mod setup;
mod stats;
mod stream;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use xfraud::netserve::json::{self, Json};

use report::{Outcome, Spec};
use trace::Span;

const WORKLOADS: [&str; 4] = [wire::COLD.name, wire::HOT.name, stream::NAME, offline::NAME];

/// Seconds per workload of `--smoke`: every phase still runs, for ≈ 2 s.
const SMOKE_SECONDS: f64 = 4.0;

/// What one run of one workload is asked to do.
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds (set-up comes on top).
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// `frac` of the measured time.
    pub fn share(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }
}

fn run_workload(name: &str, args: &RunArgs) -> Result<(Outcome, Vec<Span>), String> {
    match name {
        n if n == wire::COLD.name => Ok(wire::run(wire::COLD, args)),
        n if n == wire::HOT.name => Ok(wire::run(wire::HOT, args)),
        stream::NAME => Ok(stream::run(args)),
        offline::NAME => Ok(offline::run(args)),
        other => Err(format!(
            "unknown workload `{other}` (have: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Writes `perf/out/trace_<workload>.json` and prints the layer table.
fn emit_trace(workload: &str, seed: u64, spans: &[Span]) -> Result<(), String> {
    let path = PathBuf::from(format!("perf/out/trace_{workload}.json"));
    let mut text = String::new();
    trace::spans_to_json(workload, seed, spans).write(&mut text);
    write_file(&path, &text)?;
    trace::print_layer_table(workload, spans);
    println!("spans written to {}", path.display());
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Command-line flags, all optional.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: Option<usize>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => f.workload = Some(value(a)?),
            "--seed" => f.seed = Some(value(a)?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                f.seconds = Some(s);
            }
            "--sets" => f.sets = Some(value(a)?.parse().map_err(|e| format!("--sets: {e}"))?),
            "--out" => f.out = Some(PathBuf::from(value(a)?)),
            "--smoke" => f.smoke = true,
            // `--trace` alone for people, `--trace 0|1` for the driver.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    f.trace = true;
                }
                _ => f.trace = true,
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

/// Driver mode: one workload, the result object as the last stdout line.
fn single(spec: &Spec, flags: &Flags, workload: &str) -> Result<ExitCode, String> {
    let args = RunArgs {
        seed: flags.seed.unwrap_or(1),
        seconds: flags.seconds.unwrap_or(spec.run_seconds as f64),
        trace: flags.trace,
    };
    // Counts the CPUs (for the sender threads) before giving all but one up.
    println!("{}", setup::pinned_line());
    if !setup::confine_to_current_cpu() {
        println!("WARNING: could not confine the process to one CPU; runs may differ by their thread placement");
    }
    let (outcome, spans) = run_workload(workload, &args)?;
    outcome.print();
    if args.trace {
        emit_trace(workload, args.seed, &spans)?;
    }
    let mut line = String::new();
    outcome.driver_json().write(&mut line);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process of this binary — the driver's own
/// invocation, so `peak_rss_mib` and the allocator's state belong to that
/// workload alone — echoes its output and returns its result object.
fn run_child(workload: &str, args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = text.lines().last().unwrap_or_default();
    json::parse(last.as_bytes()).map_err(|e| format!("{workload}: result line: {e}"))
}

/// One full set: every workload untraced, and traced too when asked.
/// Returns the set's ledger object and every conformance fault found.
fn one_set(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Json, Vec<String>), String> {
    let mut faults = Vec::new();
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for w in &spec.workloads {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let result = run_child(
                w,
                &RunArgs {
                    seed,
                    seconds,
                    trace,
                },
            )?;
            let (declared, into) = if trace {
                (&spec.per_layer, &mut per_layer)
            } else {
                (&spec.end_to_end, &mut end_to_end)
            };
            faults.extend(report::conformance(w, &result, declared));
            into.push((w.clone(), result));
        }
    }
    let mut set = vec![("end_to_end".to_string(), Json::Obj(end_to_end))];
    if traced {
        set.push(("per_layer".to_string(), Json::Obj(per_layer)));
    }
    Ok((Json::Obj(set), faults))
}

fn ledger(seed: u64, seconds: f64, sets: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("xfraud-perf/1".into())),
        ("seed".into(), Json::num_u64(seed)),
        ("seconds".into(), Json::num_f64(seconds)),
        ("nproc".into(), Json::num_u64(load::n_senders() as u64)),
        ("pinned".into(), Json::Str(setup::pinned_line())),
        ("sets".into(), Json::Arr(sets)),
    ])
}

/// `run`: all workloads once; with `--smoke`, briefly and checked against
/// the declared names.
fn run_all(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.seed.unwrap_or(1);
    let seconds = match (flags.smoke, flags.seconds) {
        (_, Some(s)) => s,
        (true, None) => SMOKE_SECONDS,
        (false, None) => spec.run_seconds as f64,
    };
    println!("{}", setup::pinned_line());
    let missing: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| !spec.workloads.iter().any(|s| s == w))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "BENCHMARK.json does not declare workloads {missing:?}"
        ));
    }
    let (set, faults) = one_set(spec, seed, seconds, flags.trace || flags.smoke)?;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("perf/out/run.json"));
    write_file(&out, &report::pretty(&ledger(seed, seconds, vec![set])))?;
    println!("results written to {}", out.display());
    for f in &faults {
        eprintln!("FAULT: {f}");
    }
    if flags.smoke {
        println!("smoke: {}", if faults.is_empty() { "PASS" } else { "FAIL" });
    }
    Ok(if faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `noise --sets K`: K full untraced sets back to back, each on its own
/// seed, then the spread of every metric across them. With `--trace` the
/// first set also carries the traced run, so one file holds the end-to-end
/// baseline and the per-layer one.
fn noise(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    let k = flags.sets.ok_or("noise needs --sets K")?;
    let seed = flags.seed.unwrap_or(1);
    let seconds = flags.seconds.unwrap_or(spec.run_seconds as f64);
    println!("{}", setup::pinned_line());
    let mut sets = Vec::with_capacity(k);
    let mut faults = Vec::new();
    for i in 0..k {
        println!("--- set {} of {k} (seed {}) ---", i + 1, seed + i as u64);
        let (set, f) = one_set(spec, seed + i as u64, seconds, flags.trace && i == 0)?;
        sets.push(set);
        faults.extend(f);
    }
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("perf/out/noise.json"));
    write_file(&out, &report::pretty(&ledger(seed, seconds, sets)))?;
    println!("results written to {}", out.display());
    let steady = report::noise_table(spec, &report::load_sets(&out)?);
    for f in &faults {
        eprintln!("FAULT: {f}");
    }
    Ok(if steady && faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(spec: &Spec, flags: &Flags) -> Result<ExitCode, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("usage: perf compare A.json B.json".into());
    };
    let (worse, unresolved) = report::compare(
        spec,
        &report::load_sets(Path::new(a))?,
        &report::load_sets(Path::new(b))?,
    );
    Ok(if worse + unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args)?;
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    match (
        flags.positional.first().map(String::as_str),
        &flags.workload,
    ) {
        (None, Some(w)) => single(&spec, &flags, w),
        (None | Some("run"), None) => run_all(&spec, &flags),
        (Some("noise"), None) => noise(&spec, &flags),
        (Some("compare"), None) => compare(&spec, &flags),
        (Some(other), _) => Err(format!(
            "unknown command `{other}` (have: run, noise, compare)"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
