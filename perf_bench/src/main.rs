//! perf_bench — the suite's end-to-end and per-layer performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf_bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--smoke] [--repeat N] [--out DIR]
//! ```
//!
//! With `--workload` it runs that workload in this process: one client,
//! one unit at a time (a closed loop), for at least `--seconds` and at
//! least the workload's checked units. It prints one line per metric and,
//! last, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones.
//! Without `--workload` it runs every workload in turn, each in a child
//! process of its own, so set-up time and peak memory belong to one
//! workload. `--repeat N` makes N such rounds, alternating the workload
//! order, and prints each metric's median and quartiles against its bound.
//! See README.md beside this file.

mod bench;
mod host;
mod metrics;
mod stats;
mod traced;
mod workloads;

use bench::{Options, Results};
use embodied_profiler::JsonValue;
use metrics::{Metric, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Default measuring time of one run, in seconds (`run_seconds` in
/// BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf_bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--repeat N] [--out DIR]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
        out: None,
    };
    let mut pending = args.next();
    while let Some(flag) = pending.take() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in [0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => a.trace = v == "1",
                next => {
                    a.trace = true;
                    pending = next;
                    continue;
                }
            },
            "--smoke" => a.smoke = true,
            "--repeat" => {
                let n: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--repeat must lie in [1, 100]".into());
                }
                a.repeat = Some(n);
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        pending = args.next();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.repeat) {
        (Some(workload), None) => run_one(&args, workload),
        (_, repeat) => run_rounds(&args, repeat.unwrap_or(1)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metadata stamped into every output.
fn meta(args: &Args, r: &Results, seconds: f64, checked: usize) -> JsonValue {
    let s = |v: &str| JsonValue::Str(v.to_string());
    JsonValue::Object(vec![
        ("workload".into(), s(r.workload)),
        ("seed".into(), s(&args.seed.to_string())),
        ("seconds".into(), JsonValue::Num(seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
        ("smoke".into(), JsonValue::Bool(args.smoke)),
        ("checked_units".into(), JsonValue::Num(checked as f64)),
        ("units".into(), JsonValue::Num(r.pass.attempted as f64)),
        ("episodes".into(), JsonValue::Num(r.pass.episodes as f64)),
        ("nproc".into(), JsonValue::Num(host::nproc() as f64)),
        ("cpu".into(), s(&host::cpu_model())),
        ("git_rev".into(), s(&host::git_rev())),
        ("profile".into(), s(host::build_profile())),
    ])
}

/// Renders a JSON tree on one line.
fn one_line(v: &JsonValue) -> String {
    v.render_pretty().lines().map(str::trim_start).collect()
}

fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS });
    let opts = Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        keep_spans: args.out.is_some(),
    };
    let r = bench::run(&opts)?;
    let checked = r.pass.model.episodes / r.episodes_per_unit;
    let meta = meta(args, &r, seconds, checked);
    println!("# meta {}", one_line(&meta));

    let table: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for m in table {
        let value = (m.value)(&r);
        let shown = value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        println!(
            "{:<14} {:<32} {:>18} {:<10} {} is better",
            r.workload,
            m.name,
            shown,
            m.unit,
            m.better.as_str()
        );
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("{}: non-finite value {v}", m.name)),
            // A per-layer metric of a layer the workload does not drive.
            None if args.trace => 0.0,
            None if args.smoke => continue,
            None => return Err(format!("{}: no value (too few samples?)", m.name)),
        };
        metrics.push((
            m.name.to_string(),
            JsonValue::Object(vec![
                ("value".into(), JsonValue::Num(value)),
                ("unit".into(), JsonValue::Str(m.unit.into())),
            ]),
        ));
    }
    let digest = format!("{:016x}", r.pass.digest);
    let error_rate = r.failed() as f64 / r.attempted() as f64;
    println!(
        "{:<14} {:<32} {:>18} fraction",
        r.workload, "error_rate", error_rate
    );
    println!("# checks report_digest={digest} {}", r.checks.join(" "));

    let result = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(r.correct)),
        ("attempted".into(), JsonValue::Num(r.attempted() as f64)),
        ("failed".into(), JsonValue::Num(r.failed() as f64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    if let Some(out) = &args.out {
        write_outputs(out, &r, &meta, &result, &digest)?;
    }
    println!("{}", one_line(&result));
    Ok(r.correct)
}

/// Writes `<out>/<workload>.json` and, when traced, the Chrome trace.
fn write_outputs(
    out: &Path,
    r: &Results,
    meta: &JsonValue,
    result: &JsonValue,
    digest: &str,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write under {}: {e}", out.display());
    std::fs::create_dir_all(out).map_err(io)?;
    let doc = JsonValue::Object(vec![
        ("meta".into(), meta.clone()),
        ("report_digest".into(), JsonValue::Str(digest.into())),
        (
            "checks".into(),
            JsonValue::Array(r.checks.iter().map(|c| JsonValue::Str(c.clone())).collect()),
        ),
        ("result".into(), result.clone()),
    ]);
    let suffix = if r.traced.is_some() { ".traced" } else { "" };
    std::fs::write(
        out.join(format!("{}{suffix}.json", r.workload)),
        doc.render_pretty(),
    )
    .map_err(io)?;
    if let Some(rec) = r.recorder() {
        std::fs::write(
            out.join(format!("{}.trace.json", r.workload)),
            traced::chrome_json(&rec.spans),
        )
        .map_err(io)?;
    }
    Ok(())
}

/// One child run's parsed result.
struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64)>,
    digest: String,
}

fn run_child(args: &Args, workload: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    let json = JsonValue::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let metrics = match json.field("metrics").map_err(|e| e.to_string())? {
        JsonValue::Object(fields) => fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.f64_field("value").map_err(|e| e.to_string())?)))
            .collect::<Result<_, String>>()?,
        _ => return Err(format!("{workload}: metrics is not an object")),
    };
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix("# checks report_digest="))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("missing")
        .to_string();
    Ok(ChildRun {
        correct: json.bool_field("correct").map_err(|e| e.to_string())? && output.status.success(),
        metrics,
        digest,
    })
}

/// `rounds` rounds over the selected workloads, each run in a child
/// process, alternating the order; with more than one round, prints each
/// metric's median, quartiles and spread against its bound.
fn run_rounds(args: &Args, rounds: usize) -> Result<bool, String> {
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut runs: Vec<(&str, ChildRun)> = Vec::new();
    for round in 0..rounds {
        let mut order = selected.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            runs.push((w, run_child(args, w)?));
        }
    }
    let mut ok = runs.iter().all(|(_, r)| r.correct);
    if rounds > 1 {
        ok &= summarize(args, &selected, &runs);
    }
    println!(
        "# {} runs over {} round(s): {}",
        runs.len(),
        rounds,
        if ok {
            "all correct and within bounds"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn summarize(args: &Args, selected: &[&str], runs: &[(&str, ChildRun)]) -> bool {
    let table: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    println!(
        "{:<14} {:<32} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for &w in selected {
        let of_w: Vec<&ChildRun> = runs
            .iter()
            .filter(|(n, _)| *n == w)
            .map(|(_, r)| r)
            .collect();
        for m in table {
            let values: Vec<f64> = of_w
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            let Some([q1, _, q3]) = stats::quartiles(&values) else {
                continue;
            };
            let med = stats::median(&values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let verdict = if m.modelled {
                let same = values.iter().all(|v| *v == values[0]);
                ok &= same;
                if same {
                    "identical"
                } else {
                    "DIFFERS"
                }
            } else {
                // Set-up is a few milliseconds and jittery run to run: only
                // its median is held to the bound, not its spread.
                match m.bound {
                    Some(b) if m.name != "setup_s" && spread > b => {
                        ok = false;
                        "WIDE"
                    }
                    Some(_) => "within bound",
                    None => "-",
                }
            };
            let bound = m.bound.map_or("-".into(), |b| format!("{b}"));
            println!(
                "{w:<14} {:<32} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}  {verdict}",
                m.name
            );
        }
        let digests: Vec<&str> = of_w.iter().map(|r| r.digest.as_str()).collect();
        let same = digests.iter().all(|d| *d == digests[0]);
        ok &= same;
        println!(
            "{w:<14} {:<32} {:>14}  {}",
            "report_digest",
            digests[0],
            if same { "identical" } else { "DIFFERS" }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_valued_and_bare_trace_flags() {
        let a = parse(&[
            "--workload",
            "suite_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("suite_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        let a = parse(&["--trace", "0"]).unwrap();
        assert!(!a.trace);
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--repeat", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
