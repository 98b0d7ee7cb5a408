//! The experiments binary: runs registry rows and writes, prints or checks
//! every file they own: each row's `results/<name>.md`, and the scenario
//! fixtures `scenario_evolve` pins.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- [--check] [--jobs N] (all | NAME...)
//! ```
//!
//! Without `--check` each row's files are written under the current
//! directory and its report is printed. With it nothing is written: every
//! file is byte-compared against the committed copy, and the run exits 1
//! naming each differing, missing or orphan file. A malformed command line
//! exits 2 with the usage message.

use embodied_bench::experiments::{self, usage};
use embodied_bench::Invocation;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

fn main() {
    let inv = Invocation::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("experiments: {msg}\n\n{}", usage());
        exit(2);
    });
    let root = Path::new(".");
    let mut outputs = Vec::new();
    for exp in &inv.selected {
        let ctx = inv.ctx(exp);
        let start = Instant::now();
        let files = exp.files(&ctx);
        let elapsed = start.elapsed().as_secs_f64();
        if inv.check {
            outputs.extend(files);
            continue;
        }
        for (path, text) in &files {
            if let Err(err) = experiments::write(root, path, text) {
                eprintln!("experiments: {err}");
                exit(1);
            }
            eprintln!("{}: {elapsed:.2}s, wrote {}", exp.name, path.display());
        }
        print!("{}", files[0].1);
    }
    if inv.check {
        let failures = experiments::check(root, &outputs);
        for failure in &failures {
            eprintln!("{failure}");
        }
        let jobs = inv.jobs;
        if !failures.is_empty() {
            eprintln!(
                "experiments: {} file(s) failed at --jobs {jobs}",
                failures.len()
            );
            exit(1);
        }
        eprintln!(
            "experiments: {} file(s) identical at --jobs {jobs}",
            outputs.len()
        );
    }
}
