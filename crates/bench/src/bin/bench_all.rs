//! Sequential-vs-parallel timing driver for the whole experiment suite.
//!
//! Runs every experiment binary twice — once with `EMBODIED_JOBS=1` and
//! once with `EMBODIED_JOBS=<n>` — measuring wall-clock time for each and
//! byte-comparing the `results/<name>.md` artifacts between the two runs
//! to demonstrate that parallel execution is bit-identical to sequential.
//! A summary table goes to stdout and machine-readable timings to
//! `results/bench_timings.json`. It exits 1 when any experiment
//! binary is missing, exits non-zero or leaves no artifact, and when any
//! parallel artifact differs from its sequential one.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin bench_all [-- --smoke] [--jobs N]
//! ```
//!
//! * `--smoke` — run with `EMBODIED_EPISODES=1` for a fast correctness pass;
//! * `--jobs N` — worker count for the parallel run (default: available
//!   hardware parallelism).
//!
//! Speedup on a single-core host is expectedly ~1.0×; the pool shows its
//! worth on multicore machines where episodes fan out across cores.

use embodied_bench::{episodes, jobs};
use embodied_profiler::Table;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every experiment target in the suite, in roadmap order. `scenario_evolve`
/// is left out: at about 3.5 s a run it would dominate the smoke gate, and
/// `crates/bench/tests/scenario_evolution.rs` already checks that its output
/// does not depend on the worker count.
const EXPERIMENTS: [&str; 20] = [
    "table1_paradigms",
    "table2_suite",
    "fig1_paradigms",
    "fig2_latency",
    "fig3_sensitivity",
    "fig4_local_models",
    "fig5_memory",
    "fig6_tokens",
    "fig7_scalability",
    "boxworld_grid",
    "fault_sweep",
    "resilience_scalability",
    "rec_ablations",
    "design_ablations",
    "endtoend_analysis",
    "serving_sweep",
    "slo_sweep",
    "guardrail_sweep",
    "embodied_fault_sweep",
    "contention_sweep",
];

struct Timing {
    name: &'static str,
    sequential_s: f64,
    parallel_s: f64,
    outputs_identical: bool,
}

impl Timing {
    fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.sequential_s / self.parallel_s
        } else {
            0.0
        }
    }
}

/// Runs one experiment binary with the given worker count inside the
/// `sandbox` working directory (so timing runs never overwrite the
/// canonical `results/*.md` artifacts), returning the elapsed wall-clock
/// seconds and the bytes of the `results/<name>.md` it wrote there, or why
/// the run failed.
fn run_once(
    bin: &Path,
    name: &str,
    workers: usize,
    smoke: bool,
    sandbox: &Path,
) -> Result<(f64, Vec<u8>), String> {
    let mut cmd = Command::new(bin);
    cmd.env("EMBODIED_JOBS", workers.to_string())
        .current_dir(sandbox)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.env("EMBODIED_EPISODES", "1");
    }
    let start = Instant::now();
    let status = cmd
        .status()
        .map_err(|err| format!("{name} did not start ({err})"))?;
    let elapsed = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("{name} at {workers} jobs exited with {status}"));
    }
    let artifact = sandbox.join(format!("results/{name}.md"));
    let bytes = std::fs::read(&artifact)
        .map_err(|err| format!("{name} wrote no {} ({err})", artifact.display()))?;
    Ok((elapsed, bytes))
}

fn write_json(
    path: &Path,
    timings: &[Timing],
    par_jobs: usize,
    smoke: bool,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Reproducibility metadata: what the machine looked like, how the
    // worker count was chosen, and which commit produced the numbers.
    let jobs_env = std::env::var("EMBODIED_JOBS")
        .map(|v| format!("\"{v}\""))
        .unwrap_or_else(|_| "null".to_string());
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| format!("\"{}\"", String::from_utf8_lossy(&o.stdout).trim()))
        .unwrap_or_else(|| "null".to_string());
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    writeln!(f, "{{")?;
    writeln!(f, "  \"host_parallelism\": {host},")?;
    writeln!(f, "  \"host_os\": \"{}\",", std::env::consts::OS)?;
    writeln!(f, "  \"started_unix\": {started_unix},")?;
    writeln!(f, "  \"embodied_jobs_env\": {jobs_env},")?;
    writeln!(f, "  \"git_rev\": {git_rev},")?;
    writeln!(f, "  \"jobs\": {par_jobs},")?;
    // An honest speedup needs at least `jobs` cores to run on: when the
    // host is oversubscribed the parallel pass measures time-slicing, so
    // every speedup in this file is stamped untrusted.
    writeln!(f, "  \"speedup_trusted\": {},", host >= par_jobs)?;
    writeln!(f, "  \"episodes\": {},", if smoke { 1 } else { episodes() })?;
    writeln!(f, "  \"smoke\": {smoke},")?;
    writeln!(f, "  \"experiments\": [")?;
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"name\": \"{}\", \"sequential_s\": {:.3}, \"parallel_s\": {:.3}, \
             \"speedup\": {:.2}, \"outputs_identical\": {}}}{comma}",
            t.name,
            t.sequential_s,
            t.parallel_s,
            t.speedup(),
            t.outputs_identical
        )?;
    }
    writeln!(f, "  ],")?;
    let seq: f64 = timings.iter().map(|t| t.sequential_s).sum();
    let par: f64 = timings.iter().map(|t| t.parallel_s).sum();
    let speedup = if par > 0.0 { seq / par } else { 0.0 };
    writeln!(
        f,
        "  \"totals\": {{\"sequential_s\": {seq:.3}, \"parallel_s\": {par:.3}, \
         \"speedup\": {speedup:.2}}}"
    )?;
    writeln!(f, "}}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let par_jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(jobs)
        .max(1);

    // Sibling binaries in the same target directory as bench_all itself.
    let bin_dir: PathBuf = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let ext = std::env::consts::EXE_SUFFIX;

    // Timed runs write their artifacts into a scratch directory so the
    // canonical results/*.md (regenerated by scripts/regenerate_results.sh)
    // are never overwritten by a timing pass.
    let sandbox = Path::new("target").join("bench_all");
    if let Err(err) = std::fs::create_dir_all(sandbox.join("results")) {
        eprintln!("bench_all: cannot create {} ({err})", sandbox.display());
        std::process::exit(1);
    }

    println!("# bench_all — sequential vs. parallel ({par_jobs} jobs)");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trusted = host >= par_jobs;
    if !trusted {
        println!();
        println!(
            "WARNING: host parallelism ({host}) < jobs ({par_jobs}). The parallel pass \
             time-slices workers on too few cores, so every speedup below is stamped \
             untrusted — byte-identity of outputs is still checked and meaningful."
        );
    }
    println!();

    let mut timings = Vec::new();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        let bin = bin_dir.join(format!("{name}{ext}"));
        if !bin.exists() {
            failures.push(format!(
                "{} not found (build with `cargo build --release -p embodied-bench --bins`)",
                bin.display()
            ));
            continue;
        }
        let runs = run_once(&bin, name, 1, smoke, &sandbox)
            .and_then(|seq| run_once(&bin, name, par_jobs, smoke, &sandbox).map(|par| (seq, par)));
        let ((sequential_s, seq_out), (parallel_s, par_out)) = match runs {
            Ok(runs) => runs,
            Err(err) => {
                failures.push(err);
                continue;
            }
        };
        let t = Timing {
            name,
            sequential_s,
            parallel_s,
            outputs_identical: seq_out == par_out,
        };
        println!(
            "  {name}: {:.2}s -> {:.2}s ({:.2}x{}, outputs {})",
            t.sequential_s,
            t.parallel_s,
            t.speedup(),
            if trusted { "" } else { " untrusted" },
            if t.outputs_identical {
                "identical"
            } else {
                "DIFFER"
            }
        );
        timings.push(t);
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("bench_all: {failure}");
        }
        eprintln!(
            "bench_all: {} of {} experiments failed",
            failures.len(),
            EXPERIMENTS.len()
        );
        std::process::exit(1);
    }

    println!();
    let mut table = Table::new(["experiment", "jobs=1", "jobs=N", "speedup", "identical"]);
    for t in &timings {
        table.row([
            t.name.to_owned(),
            format!("{:.2}s", t.sequential_s),
            format!("{:.2}s", t.parallel_s),
            format!(
                "{:.2}x{}",
                t.speedup(),
                if trusted { "" } else { " (untrusted)" }
            ),
            t.outputs_identical.to_string(),
        ]);
    }
    println!("{}", table.render());

    let seq: f64 = timings.iter().map(|t| t.sequential_s).sum();
    let par: f64 = timings.iter().map(|t| t.parallel_s).sum();
    println!(
        "total: {seq:.2}s sequential, {par:.2}s at {par_jobs} jobs ({:.2}x{})",
        if par > 0.0 { seq / par } else { 0.0 },
        if trusted { "" } else { ", untrusted" }
    );

    // A smoke pass is a correctness gate, not a measurement: keep its
    // timings in the scratch directory so the recorded full-run artifact
    // is never overwritten by scripts/verify.sh.
    let json = if smoke {
        sandbox.join("bench_timings.json")
    } else {
        Path::new("results").join("bench_timings.json")
    };
    let _ = std::fs::create_dir_all("results");
    match write_json(&json, &timings, par_jobs, smoke) {
        Ok(()) => println!("wrote {}", json.display()),
        Err(err) => eprintln!("bench_all: cannot write {} ({err})", json.display()),
    }

    if timings.iter().any(|t| !t.outputs_identical) {
        eprintln!("bench_all: parallel outputs differ from sequential — determinism violated");
        std::process::exit(1);
    }
}
