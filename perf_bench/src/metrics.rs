//! Every metric the benchmark reports: name, unit, direction, regression
//! bound, and how it is computed. `BENCHMARK.json` mirrors these tables;
//! a test keeps the two in step.
//!
//! Two clocks: host time (`s`, `ms`, `us`) is what the simulator costs to
//! run; virtual time (`sim_s`) is what the simulated agents would take.
//! Virtual-time and count metrics are "modelled": a pure function of the
//! seed, identical on every run of the same code.

use crate::bench::{Pass, Results};
use crate::stats::percentile;
use crate::traced::Label;
use embodied_profiler::ModuleKind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric. `value` returns `None` when the metric does not
/// apply to the workload or has too few samples.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A pure function of the seed.
    pub modelled: bool,
    pub value: fn(&Results) -> Option<f64>,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    value: fn(&Results) -> Option<f64>,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        modelled: false,
        value,
    }
}

const fn model(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    value: fn(&Results) -> Option<f64>,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        modelled: true,
        value,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    host("episodes_per_s", "ep/s", Higher, Some(0.15), |r| {
        percentile(&r.pass.chunk_rates(), 0.5)
    }),
    // For fleet_shared: a fleet's host time over its 64 episodes.
    host("episode_ms_p50", "ms", Lower, Some(0.15), |r| {
        percentile(&r.pass.unit_ms(), 0.5).map(|ms| ms / r.episodes_per_unit as f64)
    }),
    host("setup_s", "s", Lower, Some(0.25), |r| Some(r.setup_s)),
    host("peak_rss_mb", "MiB", Lower, Some(0.2), |r| {
        r.pass.peak_rss_mib
    }),
    model("success_rate", "fraction", Higher, Some(0.2), |r| {
        let m = &r.pass.model;
        Some(m.successes as f64 / m.episodes as f64)
    }),
    // The mean, not the median: a fleet's episodes finish in clusters one
    // batch window apart, and its median jumps between them.
    model("sim_episode_s_mean", "sim_s", Lower, Some(0.1), |r| {
        let m = &r.pass.model;
        Some(m.sim_latency_sum / m.episodes as f64)
    }),
    model("sim_episode_s_p95", "sim_s", Lower, Some(0.15), |r| {
        percentile(&r.pass.model.sim_latency(), 0.95)
    }),
    model("tokens_per_episode", "tokens", Lower, Some(0.1), |r| {
        let m = &r.pass.model;
        Some(m.tokens.total_tokens() as f64 / m.episodes as f64)
    }),
    // Fleets: episodes over the virtual makespan; single episodes:
    // back to back, over their summed virtual latency.
    model(
        "sim_episodes_per_vhour",
        "ep/sim_h",
        Higher,
        Some(0.1),
        |r| {
            let m = &r.pass.model;
            let hours = m.fleet.map_or(m.sim_latency_sum, |f| f.makespan_s) / 3600.0;
            Some(m.episodes as f64 / hours)
        },
    ),
];

/// Measured in the traced pass (`--trace 1`) over the same inputs.
pub const PER_LAYER: &[Metric] = &[
    host("env.build_us", "us", Lower, None, |r| {
        r.layer_us(Label::EnvBuild)
    }),
    host("env.observe_us", "us", Lower, None, |r| {
        r.layer_us(Label::Observe)
    }),
    host("env.candidates_us", "us", Lower, None, |r| {
        r.layer_us(Label::Candidates)
    }),
    host("env.oracle_us", "us", Lower, None, |r| {
        r.layer_us(Label::Oracle)
    }),
    host("env.affordances_us", "us", Lower, None, |r| {
        r.layer_us(Label::Affordances)
    }),
    host("env.execute_us", "us", Lower, None, |r| {
        r.layer_us(Label::Execute)
    }),
    host("env.other_us", "us", Lower, None, |r| {
        r.layer_us(Label::EnvOther)
    }),
    host("env.calls", "count", Lower, None, |r| {
        r.per_traced_episode(r.recorder()?.env_calls() as f64)
    }),
    model("env.sensing_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Sensing)
    }),
    model("env.execution_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Execution)
    }),
    model("env.faults", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.env_faults.faults() as f64)
    }),
    host("agents.build_us", "us", Lower, None, |r| {
        r.layer_us(Label::AgentsBuild)
    }),
    host("agents.step_self_us", "us", Lower, None, |r| {
        r.layer_us(Label::Step)
    }),
    host("agents.step_us_p50", "us", Lower, None, |r| r.step_us(0.5)),
    host("agents.step_us_p99", "us", Lower, None, |r| r.step_us(0.99)),
    model("agents.steps", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.steps as f64)
    }),
    model("agents.planning_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Planning)
    }),
    model("agents.communication_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Communication)
    }),
    model("agents.memory_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Memory)
    }),
    model("agents.reflection_s", "sim_s", Lower, None, |r| {
        r.module_s(ModuleKind::Reflection)
    }),
    model("agents.progress_ratio", "fraction", Higher, None, |r| {
        let m = &r.traced()?.model;
        ratio(m.progress_steps as f64, m.steps as f64)
    }),
    model("agents.message_utility", "fraction", Higher, None, |r| {
        let m = &r.traced()?.model;
        ratio(m.messages.useful as f64, m.messages.generated as f64)
    }),
    model("agents.repair_attempts", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.repairs.repair_attempts as f64)
    }),
    model("agents.rejections", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.repairs.rejections() as f64)
    }),
    model("agents.recovery_interventions", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.recovery.interventions() as f64)
    }),
    model("llm.calls", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.tokens.calls as f64)
    }),
    model("llm.prompt_tokens_per_call", "tokens", Lower, None, |r| {
        let t = &r.traced()?.model.tokens;
        ratio(t.prompt_tokens as f64, t.calls as f64)
    }),
    model(
        "llm.completion_tokens_per_call",
        "tokens",
        Lower,
        None,
        |r| {
            let t = &r.traced()?.model.tokens;
            ratio(t.completion_tokens as f64, t.calls as f64)
        },
    ),
    model("llm.overflows", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.tokens.overflows as f64)
    }),
    model("llm.faults", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.resilience.faults() as f64)
    }),
    model("llm.retries", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.resilience.retries as f64)
    }),
    model("llm.cost_usd", "usd", Lower, None, |r| {
        r.per_episode(r.traced()?.model.tokens.cost_usd)
    }),
    model("serving.queue_delay_s", "sim_s", Lower, None, |r| {
        r.per_episode(r.traced()?.model.serving.queue_delay.as_secs_f64())
    }),
    model("serving.queued", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.serving.queued as f64)
    }),
    model("serving.batch_occupancy", "requests", Higher, None, |r| {
        let s = &r.traced()?.model.serving;
        ratio(s.batched_requests as f64, s.batches as f64)
    }),
    model("serving.prefix_hit_ratio", "fraction", Higher, None, |r| {
        let s = &r.traced()?.model.serving;
        ratio(s.prefix_hits as f64, s.batched_requests as f64)
    }),
    model("serving.hedges", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.serving_faults.hedges() as f64)
    }),
    model("serving.shed", "count", Lower, None, |r| {
        r.per_episode(r.traced()?.model.serving_faults.shed as f64)
    }),
    model("serving.slo_attainment", "fraction", Higher, None, |r| {
        let f = &r.traced()?.model.serving_faults;
        ratio(f.slo_met as f64, f.slo_total as f64)
    }),
    host("sim.fleet_ms_p50", "ms", Lower, None, |r| {
        let rec = r.recorder()?;
        let ms = rec
            .fleet_times
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        percentile(&crate::stats::sorted(ms), 0.5)
    }),
    host("sim.host_us_per_event", "us", Lower, None, |r| {
        let host = r.recorder()?.total_time[Label::Fleet as usize];
        ratio(host.as_secs_f64() * 1e6, r.traced()?.events as f64)
    }),
    model("sim.events", "count", Lower, None, |r| {
        r.per_fleet(|m| m.events as f64)
    }),
    model("sim.decode_events", "count", Lower, None, |r| {
        r.per_fleet(|m| m.decode_events as f64)
    }),
    model("sim.cross_episode_batches", "count", Higher, None, |r| {
        r.per_fleet(|m| m.cross_episode_batches as f64)
    }),
    model("sim.peak_in_flight", "count", Higher, None, |r| {
        r.traced()?.model.fleet.map(|f| f64::from(f.peak_in_flight))
    }),
    host("profiler.report_us", "us", Lower, None, |r| {
        r.layer_us(Label::Report)
    }),
    model("profiler.spans_per_episode", "count", Lower, None, |r| {
        let m = &r.traced()?.model;
        r.per_episode(m.virtual_spans as f64)
    }),
    host("bench.episode_ms_p95", "ms", Lower, None, |r| {
        if r.episodes_per_unit != 1 {
            return None;
        }
        percentile(&r.pass.unit_ms(), 0.95)
    }),
    host("bench.reference_us", "us", Lower, None, |r| {
        percentile(&r.pass.reference_us(), 0.5)
    }),
    host("bench.untracked_pct", "%", Lower, None, |r| {
        let rec = r.recorder()?;
        let unit = Label::Unit as usize;
        ratio(
            100.0 * rec.self_time[unit].as_secs_f64(),
            rec.total_time[unit].as_secs_f64(),
        )
    }),
    host("bench.trace_overhead_pct", "%", Lower, None, |r| {
        let per_episode = |p: &Pass| p.unit_ms().iter().sum::<f64>() / p.episodes as f64;
        Some(100.0 * (per_episode(r.traced()?) / per_episode(&r.pass) - 1.0))
    }),
];

/// `num / den`, or `None` over an empty base.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use embodied_profiler::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(json: &JsonValue, key: &str, table: &[Metric]) {
        let entries = json.field(key).unwrap().as_array().unwrap();
        assert_eq!(entries.len(), table.len(), "{key}");
        for (e, m) in entries.iter().zip(table) {
            assert_eq!(e.str_field("name").unwrap(), m.name);
            assert_eq!(e.str_field("unit").unwrap(), m.unit, "{}", m.name);
            assert_eq!(
                e.str_field("better").unwrap(),
                m.better.as_str(),
                "{}",
                m.name
            );
            assert_eq!(
                e.get("bound").and_then(JsonValue::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let json = benchmark_json();
        check_table(&json, "end_to_end", END_TO_END);
        check_table(&json, "per_layer", PER_LAYER);
        let workloads: Vec<&str> = json
            .field("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(
            json.u64_field("run_seconds").unwrap(),
            crate::DEFAULT_SECONDS as u64
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
