//! # embodied-profiler
//!
//! Virtual-time profiling substrate for the embodied-agent workload suite.
//!
//! The ISPASS 2025 paper this suite reproduces ("Generative AI in Embodied
//! Systems") is a *measurement* study: every result is a latency breakdown,
//! a success rate, a step count, or a token count. This crate provides the
//! shared measurement vocabulary:
//!
//! * [`SimDuration`] / [`SimInstant`] / [`SimClock`] — analytic (virtual)
//!   time, so 40-minute episodes simulate in milliseconds;
//! * [`ModuleKind`] / [`Phase`] — the six agent building blocks every span
//!   is attributed to;
//! * [`Trace`] / [`Span`] / [`LlmCall`] — the per-episode event log, which
//!   also keeps the episode's per-purpose, per-phase and per-step ledgers;
//! * [`LatencyBreakdown`], [`TokenStats`], [`MessageStats`], [`StepRecord`]
//!   — derived metrics;
//! * [`count_tokens`] / [`ascii_tokens`] / [`digit_tokens`] — the
//!   deterministic subword token rule every simulated model counts prompt
//!   text with, here so that every crate counts the text it makes;
//! * [`EpisodeReport`] / [`Aggregate`] — what experiment binaries print;
//! * [`Table`] / [`ascii_bar`] / [`pct`] — paper-style text rendering.
//!
//! ```
//! use embodied_profiler::{LatencyBreakdown, ModuleKind, Phase, SimDuration, Trace};
//!
//! let mut trace = Trace::new();
//! trace.begin_step(0);
//! trace.record(ModuleKind::Planning, Phase::LlmInference, 0, SimDuration::from_secs(8));
//! trace.record(ModuleKind::Execution, Phase::Actuation, 0, SimDuration::from_secs(2));
//!
//! let breakdown = LatencyBreakdown::from_trace(&trace);
//! assert!((breakdown.fraction(ModuleKind::Planning) - 0.8).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod gantt;
mod json;
mod metrics;
mod module;
mod report;
mod span;
mod stats;
mod table;
mod time;
mod tokenizer;

pub use chrome::chrome_trace_json;
pub use gantt::render_step_gantt;
pub use json::{JsonError, JsonValue};
pub use metrics::{
    AgentFaultStats, ChannelStats, EnvFaultStats, LatencyBreakdown, MessageStats, PurposeLedger,
    PurposeUsage, RecoveryStats, RepairStats, ResilienceStats, ServingFaultStats, ServingStats,
    StepRecord, TokenStats,
};
pub use module::{ModuleKind, Phase};
pub use report::{Aggregate, EpisodeReport, Outcome};
pub use span::{LlmCall, Span, Trace};
pub use stats::{std_normal_cdf, welch_t_test, Sample, WelchTest};
pub use table::{ascii_bar, pct, Table};
pub use time::{SimClock, SimDuration, SimInstant};
pub use tokenizer::{ascii_tokens, count_tokens, digit_tokens};

/// Checks one probability field: not NaN and in `[0, 1]`. Shared by every
/// fault profile's `validated()` constructor.
pub fn check_rate(field: &'static str, value: f64) -> Result<f64, String> {
    if value.is_nan() {
        return Err(format!("{field} is NaN"));
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(format!("{field} = {value} is outside [0, 1]"));
    }
    Ok(value)
}
