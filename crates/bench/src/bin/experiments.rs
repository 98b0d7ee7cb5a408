//! The experiments binary: runs registry rows and writes, prints or checks
//! their `results/<name>.md`.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- [--check] [--jobs N] (all | NAME...)
//! ```
//!
//! Without `--check` each report goes to `results/<name>.md` and stdout.
//! With it nothing is written: every report is byte-compared against the
//! committed file, and the run exits 1 naming each differing, missing or
//! orphan file. A malformed command line exits 2 with the usage message.

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
    let dir = Path::new("results");
    let mut outputs = Vec::new();
    for exp in &inv.selected {
        let ctx = inv.ctx(exp);
        let start = Instant::now();
        let text = (exp.run)(&ctx);
        let elapsed = start.elapsed().as_secs_f64();
        if inv.check {
            outputs.push((exp.name, text));
            continue;
        }
        match experiments::write(dir, exp.name, &text) {
            Ok(path) => eprintln!("{}: {elapsed:.2}s, wrote {}", exp.name, path.display()),
            Err(err) => {
                eprintln!("experiments: {err}");
                exit(1);
            }
        }
        print!("{text}");
    }
    if inv.check {
        let failures = experiments::check(dir, &outputs);
        for failure in &failures {
            eprintln!("{failure}");
        }
        let jobs = inv.jobs;
        if !failures.is_empty() {
            eprintln!(
                "experiments: {} result file(s) failed at --jobs {jobs}",
                failures.len()
            );
            exit(1);
        }
        eprintln!(
            "experiments: {} result file(s) identical at --jobs {jobs}",
            outputs.len()
        );
    }
}
