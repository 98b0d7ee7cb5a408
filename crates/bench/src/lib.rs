//! # embodied-bench
//!
//! Experiment harness regenerating every table and figure of the paper.
//! [`EXPERIMENTS`] registers one row per table, figure or sweep; the one
//! `experiments` binary runs rows and writes, prints or checks every file
//! they own: each `results/<name>.md`, and the scenario fixtures
//! `scenario_evolve` pins:
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- [--check] [--jobs N] (all | NAME...)
//! ```
//!
//! Knobs (environment variables):
//! * `EMBODIED_EPISODES` — episodes per configuration (default: each row's
//!   own, listed by the `experiments` usage message);
//! * `EMBODIED_SEED` — base seed (default 42);
//! * `EMBODIED_JOBS` — worker threads when `--jobs` is not given (default:
//!   available hardware parallelism; results are bit-identical at any value).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod evolve;
pub mod experiments;
pub mod fixture;
pub mod genotype;
pub mod parallel;

pub use evolve::{evolve, EvolveOutcome, EvolveParams, GenerationSummary, ScoredScenario};
pub(crate) use experiments::Markdown;
pub use experiments::{Ctx, Experiment, Invocation, Output, EXPERIMENTS};
pub use genotype::{systems_of, RetryPreset, ScenarioGenotype, ServingPreset};
pub use parallel::{jobs, par_map_with, try_par_map_with, SweepPlan, SweepResults};

/// Base seed (`EMBODIED_SEED`, default 42).
pub fn base_seed() -> u64 {
    std::env::var("EMBODIED_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}
