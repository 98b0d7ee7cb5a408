//! Statistical shape tests: the paper's headline findings must hold in the
//! simulation (who wins, direction of effects, rough factors) — these are
//! the claims the figure binaries print, verified cheaply in CI.

use embodied_suite::prelude::*;

const EPISODES: usize = 5;

fn agg(name: &str, overrides: &RunOverrides, label: &str) -> Aggregate {
    let spec = workloads::find(name).expect("suite member");
    run_many(&spec, overrides, EPISODES, 42, label)
}

fn easy() -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        ..Default::default()
    }
}

/// Fig. 2a: LLM-backed modules dominate latency on LLM-planning workloads.
#[test]
fn llm_modules_dominate_latency() {
    for name in ["JARVIS-1", "DEPS", "CoELA"] {
        let a = agg(name, &RunOverrides::default(), name);
        let llm = a.breakdown.llm_fraction();
        assert!(
            llm > 0.5,
            "{name}: LLM share {llm:.2} should dominate (paper ≈ 0.70)"
        );
    }
}

/// Fig. 2a: execution is a notable bottleneck for RoCo and DaDu-E.
#[test]
fn execution_heavy_workloads_show_it() {
    for name in ["RoCo", "DaDu-E"] {
        let a = agg(name, &RunOverrides::default(), name);
        let exec = a.module_fraction(ModuleKind::Execution);
        assert!(
            exec > 0.2,
            "{name}: execution share {exec:.2} should be substantial (paper 0.49/0.38)"
        );
    }
}

/// Fig. 2b: per-step latency sits in the paper's 5–40 s band.
#[test]
fn per_step_latency_band() {
    for name in ["JARVIS-1", "MindAgent", "CoELA", "RoCo"] {
        let a = agg(name, &RunOverrides::default(), name);
        let secs = a.mean_step_latency.as_secs_f64();
        assert!(
            (4.0..45.0).contains(&secs),
            "{name}: step latency {secs:.1}s outside the plausible band"
        );
    }
}

/// Fig. 3: disabling memory hurts success; disabling communication does not
/// change it much.
#[test]
fn memory_matters_communication_barely() {
    let base = agg("CoELA", &RunOverrides::default(), "base");
    let no_mem = agg(
        "CoELA",
        &RunOverrides {
            toggles: Some(ModuleToggles::without_memory()),
            ..Default::default()
        },
        "no-mem",
    );
    let no_comm = agg(
        "CoELA",
        &RunOverrides {
            toggles: Some(ModuleToggles::without_communication()),
            ..Default::default()
        },
        "no-comm",
    );
    assert!(
        base.success_rate - no_mem.success_rate > 0.15,
        "memory off should cost success ({:.2} -> {:.2})",
        base.success_rate,
        no_mem.success_rate
    );
    assert!(
        (base.success_rate - no_comm.success_rate).abs() <= 0.45,
        "communication off should not collapse success"
    );
}

/// Fig. 4: the local 8B planner loses success and gains end-to-end latency.
#[test]
fn local_model_tradeoff() {
    let gpt4 = agg("DEPS", &RunOverrides::default(), "gpt4");
    let llama = agg(
        "DEPS",
        &RunOverrides {
            planner: Some(ModelProfile::llama3_8b()),
            ..Default::default()
        },
        "llama",
    );
    assert!(
        gpt4.success_rate > llama.success_rate + 0.2,
        "GPT-4 {:.2} vs Llama {:.2}",
        gpt4.success_rate,
        llama.success_rate
    );
    assert!(
        llama.mean_latency > gpt4.mean_latency,
        "end-to-end should lengthen despite faster inference ({} vs {})",
        llama.mean_latency,
        gpt4.mean_latency
    );
}

/// Fig. 5: bigger memory windows help on memory-sensitive tasks; retrieval
/// cost grows with stored history.
#[test]
fn memory_capacity_tradeoff() {
    let none = agg(
        "DaDu-E",
        &RunOverrides {
            memory_capacity: Some(MemoryCapacity::None),
            ..Default::default()
        },
        "none",
    );
    let window = agg(
        "DaDu-E",
        &RunOverrides {
            memory_capacity: Some(MemoryCapacity::Steps(8)),
            ..Default::default()
        },
        "window",
    );
    assert!(
        window.success_rate > none.success_rate,
        "an 8-step window must beat no memory on transport ({:.2} vs {:.2})",
        window.success_rate,
        none.success_rate
    );
    let full = agg(
        "DaDu-E",
        &RunOverrides {
            memory_capacity: Some(MemoryCapacity::Full),
            ..Default::default()
        },
        "full",
    );
    let per_step_retrieval = |a: &Aggregate| {
        a.breakdown.module(ModuleKind::Memory).as_secs_f64() / (a.mean_steps * a.episodes as f64)
    };
    assert!(
        per_step_retrieval(&full) > per_step_retrieval(&none),
        "full history must cost more retrieval time per step"
    );
}

/// Fig. 6: prompts grow over the course of an episode under full memory.
#[test]
fn prompt_tokens_grow_over_time() {
    let spec = workloads::find("CoELA").expect("suite member");
    let overrides = RunOverrides {
        memory_capacity: Some(MemoryCapacity::Full),
        ..Default::default()
    };
    let report = run_episode(&spec, &overrides, 5);
    let records = &report.step_records;
    assert!(records.len() >= 6, "need a long enough episode");
    let early: u64 = records[..3].iter().map(|r| r.max_prompt_tokens).sum();
    let late: u64 = records[records.len() - 3..]
        .iter()
        .map(|r| r.max_prompt_tokens)
        .sum();
    assert!(
        late as f64 > early as f64 * 1.3,
        "late prompts ({late}) should clearly exceed early prompts ({early})"
    );
}

/// Fig. 7: decentralized tokens scale super-linearly with the team, and
/// centralized latency scales far more gently than decentralized.
#[test]
fn scalability_contrast() {
    let at = |name: &str, agents: usize| {
        agg(
            name,
            &RunOverrides {
                difficulty: Some(TaskDifficulty::Easy),
                num_agents: Some(agents),
                ..Default::default()
            },
            name,
        )
    };
    let coela2 = at("CoELA", 2);
    let coela6 = at("CoELA", 6);
    let tokens_growth = coela6.tokens_per_episode() / coela2.tokens_per_episode();
    assert!(
        tokens_growth > 3.0,
        "decentralized token growth 2→6 agents was only ×{tokens_growth:.1}"
    );

    let mind2 = at("MindAgent", 2);
    let mind6 = at("MindAgent", 6);
    let central_latency_growth =
        mind6.mean_latency.as_secs_f64() / mind2.mean_latency.as_secs_f64();
    let decentral_latency_growth =
        coela6.mean_latency.as_secs_f64() / coela2.mean_latency.as_secs_f64();
    assert!(
        decentral_latency_growth > central_latency_growth,
        "decentralized latency must scale worse (×{decentral_latency_growth:.2} vs ×{central_latency_growth:.2})"
    );
}

/// Rec. 7: multi-step plans cut LLM calls without hurting success.
#[test]
fn multi_step_execution_cuts_llm_calls() {
    let base = agg("JARVIS-1", &RunOverrides::default(), "h1");
    let multi = agg(
        "JARVIS-1",
        &RunOverrides {
            opts: Some(Optimizations {
                plan_horizon: 3,
                ..Default::default()
            }),
            ..Default::default()
        },
        "h3",
    );
    assert!(
        multi.calls_per_episode() < base.calls_per_episode() * 0.7,
        "plan horizon 3 should cut calls by >30% ({:.1} vs {:.1})",
        multi.calls_per_episode(),
        base.calls_per_episode()
    );
    assert!(multi.success_rate + 0.15 >= base.success_rate);
}

/// Rec. 8: gating messages on plan need slashes message volume and raises
/// the utility of what remains.
#[test]
fn plan_then_communicate_cuts_messages() {
    let base = agg("CoELA", &RunOverrides::default(), "chatty");
    let gated = agg(
        "CoELA",
        &RunOverrides {
            opts: Some(Optimizations {
                plan_then_communicate: true,
                ..Default::default()
            }),
            ..Default::default()
        },
        "gated",
    );
    assert!(
        (gated.messages.generated as f64) < base.messages.generated as f64 * 0.5,
        "gating should halve messages ({} vs {})",
        gated.messages.generated,
        base.messages.generated
    );
    assert!(gated.messages.utility() > base.messages.utility());
    assert!(gated.success_rate + 0.15 >= base.success_rate);
}

/// The skill library pays off: repeated skill kinds accumulate familiarity
/// that nudges later planning quality (action memory, §II-A).
#[test]
fn skill_library_records_practiced_patterns() {
    use embodied_suite::agents::modules::{MemoryModule, RecordKind};
    use embodied_suite::env::SubgoalKind;
    let mut m = MemoryModule::new(
        true,
        MemoryCapacity::Steps(8),
        false,
        false,
        vec!["room_0".into()],
    );
    m.store(RecordKind::Action, "picked something", Vec::new());
    for _ in 0..6 {
        m.record_skill(SubgoalKind::Pick);
    }
    assert!(m.skill_bonus(SubgoalKind::Pick) > 0.0);
    assert!(m.skill_bonus(SubgoalKind::Pick) <= 0.04);
}

/// In-text §V-D: most of CoELA's generated messages are not useful.
#[test]
fn most_messages_are_redundant() {
    let a = agg("CoELA", &easy(), "coela");
    let utility = a.messages.utility();
    assert!(
        utility < 0.5,
        "message utility {utility:.2} should be well below half (paper ≈ 0.2)"
    );
    assert!(a.messages.generated > 0);
}
