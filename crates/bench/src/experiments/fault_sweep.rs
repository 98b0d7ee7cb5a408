//! Fault & resilience sweep — graceful degradation measured end-to-end.
//!
//! Sweeps injected LLM fault rate × retry policy over one workload per
//! paradigm (DEPS single-agent, MindAgent centralized, CoELA decentralized)
//! and reports how success, steps, latency, fault/retry counts, backoff
//! time, and degraded-step counts move as the substrate gets flakier.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fault_sweep fault_compose
//! ```
//!
//! `fault_compose` composes the planes on the same three workloads. Its
//! first grid crosses LLM fault rate with *agent* fault rate
//! (crashes/stalls/coordinator death, see
//! `embodied_agents::AgentFaultProfile`) under the standard retry policy,
//! showing how substrate-level and process-level failures stack. The
//! second composes **three** planes — transport (timeouts/rate limits),
//! content (semantic corruption, with the re-prompt guardrail on), and
//! agent+channel (crashes + lossy links). The third is the full
//! composition: LLM × agent+channel × semantic × serving × embodied-env
//! faults toggled independently in one 2⁵ grid per system under fixed
//! mitigation policies (standard retries, reprompt(2) guardrail,
//! coordinator failover, 2 replicas, closed-loop recovery).

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{
    workloads, AgentFaultProfile, ChannelProfile, RecoveryPolicy, RepairPolicy, RunOverrides,
};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_llm::{
    FaultProfile, RetryPolicy, SemanticFaultProfile, ServingConfig, ServingFaultProfile,
};
use embodied_profiler::{pct, Table};

type PolicyCtor = fn() -> RetryPolicy;

const SYSTEMS: [&str; 3] = ["DEPS", "MindAgent", "CoELA"];
const FAULT_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];
const POLICIES: [(&str, PolicyCtor); 3] = [
    ("none", RetryPolicy::none),
    ("standard", RetryPolicy::standard),
    ("aggressive", RetryPolicy::aggressive),
];

/// LLM-level rates for the LLM x agent composition grid.
const COMPOSE_LLM_RATES: [f64; 3] = [0.0, 0.05, 0.10];
/// Agent-level rates for the LLM x agent composition grid.
const COMPOSE_AGENT_RATES: [f64; 3] = [0.0, 0.02, 0.05];

/// Transport-plane rates for the three-plane grid.
const TRIPLANE_LLM_RATES: [f64; 2] = [0.0, 0.05];
/// Content-plane rates for the three-plane grid.
const TRIPLANE_SEMANTIC_RATES: [f64; 3] = [0.0, 0.10, 0.20];
/// Fixed agent+channel rate for the three-plane grid.
const TRIPLANE_AGENT_RATE: f64 = 0.02;

/// Per-plane "on" rates for the all-planes 2⁵ composition grid:
/// (LLM transport, agent+channel, semantic, serving, embodied env).
const ALL_PLANES_RATES: (f64, f64, f64, f64, f64) = (0.05, 0.02, 0.10, 0.08, 0.08);

/// The 2⁵ on/off corners of the all-planes grid, in render order.
fn all_planes_cells() -> Vec<(bool, bool, bool, bool, bool)> {
    let mut cells = Vec::with_capacity(32);
    for llm in [false, true] {
        for agent in [false, true] {
            for semantic in [false, true] {
                for serving in [false, true] {
                    for env in [false, true] {
                        cells.push((llm, agent, semantic, serving, env));
                    }
                }
            }
        }
    }
    cells
}

/// Overrides for one all-planes cell: each plane toggled at its fixed
/// rate, mitigation policies identical in every cell so the grid isolates
/// the faults, not the policies. The embodied plane's fixed mitigation is
/// the standard closed-loop recovery stack (watchdog + one action retry).
fn all_planes_overrides(cell: (bool, bool, bool, bool, bool)) -> RunOverrides {
    let (llm, agent, semantic, serving, env) = cell;
    let (llm_rate, agent_rate, semantic_rate, serving_rate, env_rate) = ALL_PLANES_RATES;
    RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        fault_profile: Some(if llm {
            FaultProfile::uniform(llm_rate)
        } else {
            FaultProfile::none()
        }),
        retry_policy: Some(RetryPolicy::standard()),
        agent_faults: Some(if agent {
            AgentFaultProfile::uniform_with_failover(agent_rate)
        } else {
            AgentFaultProfile::none()
        }),
        channel: Some(if agent {
            ChannelProfile::lossy(agent_rate)
        } else {
            ChannelProfile::none()
        }),
        semantic_faults: Some(if semantic {
            SemanticFaultProfile::uniform(semantic_rate)
        } else {
            SemanticFaultProfile::none()
        }),
        repair_policy: Some(RepairPolicy::Reprompt { max_attempts: 2 }),
        serving: Some(ServingConfig::limited(2).with_replicas(2)),
        serving_faults: Some(if serving {
            ServingFaultProfile::stressed(serving_rate)
        } else {
            ServingFaultProfile::none()
        }),
        env_faults: Some(if env {
            EnvFaultProfile::uniform(env_rate)
        } else {
            EnvFaultProfile::none()
        }),
        recovery_policy: Some(RecoveryPolicy::standard()),
        ..Default::default()
    }
}

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fault & resilience sweep",
        "Injected LLM fault rate x retry policy, one workload per paradigm",
    );

    // Plan pass: the full system × policy × fault-rate grid in one fan-out.
    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for (_, policy) in POLICIES {
            for rate in FAULT_RATES {
                let overrides = RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    fault_profile: Some(FaultProfile::uniform(rate)),
                    retry_policy: Some(policy()),
                    ..Default::default()
                };
                plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
            }
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!("{name} ({})", spec.paradigm));
        let mut table = Table::new([
            "policy",
            "fault rate",
            "success",
            "Δ success",
            "steps",
            "end-to-end",
            "faults/ep",
            "retries/ep",
            "gave up",
            "backoff/ep",
            "degraded/ep",
        ]);
        for (policy_name, _) in POLICIES {
            let mut clean_success = None;
            for rate in FAULT_RATES {
                let agg = results.take_agg(name);
                let baseline = *clean_success.get_or_insert(agg.success_rate);
                table.row([
                    policy_name.to_owned(),
                    format!("{:.0}%", rate * 100.0),
                    pct(agg.success_rate),
                    format!("{:+.1}pp", (agg.success_rate - baseline) * 100.0),
                    format!("{:.1}", agg.mean_steps),
                    agg.mean_latency.to_string(),
                    format!("{:.1}", agg.faults_per_episode()),
                    format!("{:.1}", agg.retries_per_episode()),
                    agg.resilience.gave_up.to_string(),
                    agg.backoff_per_episode().to_string(),
                    format!("{:.1}", agg.degraded_per_episode()),
                ]);
            }
        }
        out.line(table.render());
    }

    out.line(
        "Reading: with no retries every fault surfaces as a degraded step \
         and success decays with the fault rate; the standard policy masks \
         most faults at the cost of backoff latency, and the aggressive \
         policy trades even more waiting for the last points of success. \
         At rate 0 every policy column is identical to the fault-free \
         baseline — the resilience layer is pay-for-use.",
    );

    out.finish()
}

/// The fault-plane compositions: LLM x agent, three planes, all five.
pub(super) fn run_compose(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fault-plane composition sweep",
        "LLM x agent, three-plane and all-five-plane fault compositions, one workload per paradigm",
    );

    let mut plan = SweepPlan::new();
    // Plan pass: all three grids in one fan-out. LLM x agent first:
    // centralized/hybrid systems keep coordinator failover on so the axis
    // isolates *stacking*, not the failover cliff (that contrast lives in
    // resilience_scalability).
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for llm_rate in COMPOSE_LLM_RATES {
            for agent_rate in COMPOSE_AGENT_RATES {
                let overrides = RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    fault_profile: Some(FaultProfile::uniform(llm_rate)),
                    retry_policy: Some(RetryPolicy::standard()),
                    agent_faults: Some(AgentFaultProfile::uniform_with_failover(agent_rate)),
                    ..Default::default()
                };
                plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
            }
        }
    }
    // Three-plane composition: transport faults, content corruption
    // (guarded by the re-prompt policy), and a fixed agent+channel fault
    // floor, stacked in one grid.
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for llm_rate in TRIPLANE_LLM_RATES {
            for semantic_rate in TRIPLANE_SEMANTIC_RATES {
                let overrides = RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    fault_profile: Some(FaultProfile::uniform(llm_rate)),
                    retry_policy: Some(RetryPolicy::standard()),
                    agent_faults: Some(AgentFaultProfile::uniform_with_failover(
                        TRIPLANE_AGENT_RATE,
                    )),
                    channel: Some(ChannelProfile::lossy(TRIPLANE_AGENT_RATE)),
                    semantic_faults: Some(SemanticFaultProfile::uniform(semantic_rate)),
                    repair_policy: Some(RepairPolicy::Reprompt { max_attempts: 2 }),
                    ..Default::default()
                };
                plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
            }
        }
    }
    // Full five-plane composition: every on/off corner of LLM ×
    // agent+channel × semantic × serving × embodied-env fault injection,
    // one grid per system.
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for cell in all_planes_cells() {
            plan.add(&spec, &all_planes_overrides(cell), ctx.episodes, ctx.seed);
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!(
            "{name} ({}) — LLM x agent fault composition, standard retries",
            spec.paradigm
        ));
        let mut table = Table::new([
            "LLM rate",
            "agent rate",
            "success",
            "steps",
            "end-to-end",
            "LLM faults/ep",
            "agent faults/ep",
            "downtime/ep",
            "degraded/ep",
        ]);
        for llm_rate in COMPOSE_LLM_RATES {
            for agent_rate in COMPOSE_AGENT_RATES {
                let agg = results.take_agg(name);
                table.row([
                    format!("{:.0}%", llm_rate * 100.0),
                    format!("{:.0}%", agent_rate * 100.0),
                    pct(agg.success_rate),
                    format!("{:.1}", agg.mean_steps),
                    agg.mean_latency.to_string(),
                    format!("{:.1}", agg.faults_per_episode()),
                    format!("{:.1}", agg.agent_faults_per_episode()),
                    format!("{:.1}", agg.downtime_per_episode()),
                    format!("{:.1}", agg.degraded_per_episode()),
                ]);
            }
        }
        out.line(table.render());
    }
    out.line(
        "Composition reading: the two fault planes are independent — \
         retries absorb substrate faults while downtime from crashed \
         agents passes straight through, so the combined cell is roughly \
         the product of its margins, not a new failure mode.",
    );

    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!(
            "{name} ({}) — three-plane composition: transport x content x \
             agent+channel ({:.0}%), reprompt(2) guardrail",
            spec.paradigm,
            TRIPLANE_AGENT_RATE * 100.0
        ));
        let mut table = Table::new([
            "LLM rate",
            "semantic rate",
            "success",
            "steps",
            "end-to-end",
            "LLM faults/ep",
            "rejections/ep",
            "repair tok/ep",
            "residual rate",
            "downtime/ep",
        ]);
        for llm_rate in TRIPLANE_LLM_RATES {
            for semantic_rate in TRIPLANE_SEMANTIC_RATES {
                let agg = results.take_agg(name);
                table.row([
                    format!("{:.0}%", llm_rate * 100.0),
                    format!("{:.0}%", semantic_rate * 100.0),
                    pct(agg.success_rate),
                    format!("{:.1}", agg.mean_steps),
                    agg.mean_latency.to_string(),
                    format!("{:.1}", agg.faults_per_episode()),
                    format!("{:.1}", agg.rejections_per_episode()),
                    format!("{:.0}", agg.repair_tokens_per_episode()),
                    pct(agg.residual_invalid_rate()),
                    format!("{:.1}", agg.downtime_per_episode()),
                ]);
            }
        }
        out.line(table.render());
    }
    out.line(
        "Three-plane reading: transport faults cost latency (retries), \
         content faults cost tokens (guardrail re-prompts), and agent \
         faults cost steps (downtime) — each plane drains a different \
         budget, and the guardrail keeps the content plane from leaking \
         into failed actuations even while the other two planes fire.",
    );

    let (llm_rate, agent_rate, semantic_rate, serving_rate, env_rate) = ALL_PLANES_RATES;
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!(
            "{name} ({}) — all five planes: LLM {:.0}% x agent {:.0}% x \
             semantic {:.0}% x serving {:.0}% x env {:.0}%, fixed \
             mitigations",
            spec.paradigm,
            llm_rate * 100.0,
            agent_rate * 100.0,
            semantic_rate * 100.0,
            serving_rate * 100.0,
            env_rate * 100.0
        ));
        let mut table = Table::new([
            "LLM",
            "agent",
            "semantic",
            "serving",
            "env",
            "success",
            "steps",
            "end-to-end",
            "LLM faults/ep",
            "downtime/ep",
            "rejections/ep",
            "serving faults/ep",
            "env faults/ep",
            "recoveries/ep",
            "degraded/ep",
        ]);
        let onoff = |flag: bool| if flag { "on" } else { "-" }.to_owned();
        for cell in all_planes_cells() {
            let agg = results.take_agg(name);
            table.row([
                onoff(cell.0),
                onoff(cell.1),
                onoff(cell.2),
                onoff(cell.3),
                onoff(cell.4),
                pct(agg.success_rate),
                format!("{:.1}", agg.mean_steps),
                agg.mean_latency.to_string(),
                format!("{:.1}", agg.faults_per_episode()),
                format!("{:.1}", agg.downtime_per_episode()),
                format!("{:.1}", agg.rejections_per_episode()),
                format!("{:.1}", agg.serving_faults_per_episode()),
                format!("{:.1}", agg.env_faults_per_episode()),
                format!("{:.1}", agg.recoveries_per_episode()),
                format!("{:.1}", agg.degraded_per_episode()),
            ]);
        }
        out.line(table.render());
    }
    out.line(
        "All-planes reading: the five planes drain five different \
         budgets — latency (retried transport faults), steps (agent \
         downtime), tokens (guardrail re-prompts), queue time \
         (serving failover/brownouts) and recovery work (embodied \
         perception/actuation faults absorbed by the closed loop) — \
         so the all-on corner degrades roughly multiplicatively, and \
         any single-plane column can be read off against the all-off \
         corner as its marginal cost. The adversarial counterpart to \
         this uniform grid is scenario_evolve, which searches \
         *between* these corners for the paradigm's weakest \
         composition.",
    );
    out.finish()
}
