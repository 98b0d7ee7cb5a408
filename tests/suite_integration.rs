//! Cross-crate integration: every suite member runs end-to-end, reports are
//! internally consistent, and episodes replay deterministically.

use embodied_suite::prelude::*;

fn easy() -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        ..Default::default()
    }
}

#[test]
fn all_fourteen_workloads_run_end_to_end() {
    for spec in workloads::registry() {
        let report = run_episode(&spec, &easy(), 5);
        assert!(report.steps > 0, "{}: no steps ran", spec.name);
        assert!(
            report.latency.as_secs_f64() > 1.0,
            "{}: implausibly fast episode",
            spec.name
        );
        assert!(report.tokens.calls > 0, "{}: no LLM calls", spec.name);
        assert_eq!(report.workload, spec.name);
    }
}

/// perf_bench's `faulted_mix` overrides: all five fault planes with every
/// mitigation on.
fn faulted() -> RunOverrides {
    use embodied_suite::{agents, env, llm};
    RunOverrides {
        fault_profile: Some(llm::FaultProfile::uniform(0.1)),
        retry_policy: Some(llm::RetryPolicy::standard()),
        agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
        channel: Some(ChannelProfile::lossy(0.1)),
        semantic_faults: Some(llm::SemanticFaultProfile::uniform(0.2)),
        repair_policy: Some(agents::RepairPolicy::Reprompt { max_attempts: 2 }),
        serving: Some(
            llm::ServingConfig::limited(1)
                .with_replicas(2)
                .with_hedging(SimDuration::from_secs(2))
                .with_deadline(SimDuration::from_secs(240)),
        ),
        serving_faults: Some(llm::ServingFaultProfile::stressed(0.2)),
        env_faults: Some(env::EnvFaultProfile::uniform(0.15)),
        recovery_policy: Some(agents::RecoveryPolicy::standard()),
        ..Default::default()
    }
}

#[test]
fn reports_are_internally_consistent() {
    let batched = RunOverrides {
        serving: Some(embodied_suite::llm::ServingConfig::batched()),
        ..Default::default()
    };
    // perf_bench's `team_dialogue`: six talking agents on batched serving.
    let team_dialogue = RunOverrides {
        num_agents: Some(6),
        ..batched.clone()
    };
    // (spec, overrides, whether the run is free of LLM and serving faults)
    let mut runs = Vec::new();
    for spec in workloads::registry() {
        runs.push((spec.clone(), RunOverrides::default(), true));
        runs.push((spec, batched.clone(), true));
    }
    // Rec. 1d: each dialogue round is one batched call (CoELA @4 agents).
    let batched_dialogue = RunOverrides {
        num_agents: Some(4),
        opts: Some(Optimizations {
            batching: true,
            ..Default::default()
        }),
        ..Default::default()
    };
    let coela = workloads::find("CoELA").expect("suite member");
    runs.push((coela.clone(), team_dialogue, true));
    runs.push((coela, batched_dialogue, true));
    for name in ["DEPS", "MindAgent", "CoELA", "HMAS"] {
        let spec = workloads::find(name).expect("suite member");
        runs.push((spec, faulted(), false));
    }
    for (spec, overrides, fault_free) in runs {
        let report = run_episode(&spec, &overrides, 42);
        let label = format!("{} {overrides:?}", spec.name);
        // Breakdown total equals the trace-elapsed episode latency.
        assert_eq!(
            report.breakdown.total(),
            report.latency,
            "{label}: all simulated time must be attributed to a module"
        );
        // Step records cover every step and sum to the total.
        assert_eq!(report.step_records.len(), report.steps, "{label}");
        let steps_sum: SimDuration = report.step_records.iter().map(|r| r.latency).sum();
        assert_eq!(steps_sum, report.latency, "{label}");
        // Message utility is a fraction.
        assert!((0.0..=1.0).contains(&report.messages.utility()), "{label}");
        // Every LLM call is billed exactly once: the purpose ledger and
        // the step records count the same calls.
        let ledger = report.by_purpose.entries();
        let ledger_calls: u64 = ledger.iter().map(|e| e.calls).sum();
        let step_calls: u64 = report.step_records.iter().map(|r| r.llm_calls).sum();
        assert_eq!(ledger_calls, step_calls, "{label}");
        // Without retries or hedges, it also matches the service ledger.
        if fault_free {
            let prompt_tokens: u64 = ledger.iter().map(|e| e.prompt_tokens).sum();
            assert_eq!(ledger_calls, report.tokens.calls, "{label}");
            assert_eq!(prompt_tokens, report.tokens.prompt_tokens, "{label}");
        }
    }
}

#[test]
fn episodes_replay_bit_identically() {
    for name in ["DEPS", "MindAgent", "CoELA", "HMAS"] {
        let spec = workloads::find(name).expect("suite member");
        let a = run_episode(&spec, &easy(), 77);
        let b = run_episode(&spec, &easy(), 77);
        assert_eq!(a.steps, b.steps, "{name}");
        assert_eq!(a.latency, b.latency, "{name}");
        assert_eq!(a.tokens, b.tokens, "{name}");
        assert_eq!(a.outcome.is_success(), b.outcome.is_success(), "{name}");
    }
}

#[test]
fn different_seeds_differ() {
    let spec = workloads::find("CoELA").expect("suite member");
    let a = run_episode(&spec, &easy(), 1);
    let b = run_episode(&spec, &easy(), 2);
    assert!(
        a.latency != b.latency || a.steps != b.steps || a.tokens != b.tokens,
        "distinct seeds should not produce identical episodes"
    );
}

#[test]
fn multi_agent_override_scales_team() {
    let spec = workloads::find("COMBO").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        num_agents: Some(4),
        ..Default::default()
    };
    let report = run_episode(&spec, &overrides, 3);
    assert_eq!(report.agents, 4);
}

#[test]
fn single_agent_systems_ignore_team_override() {
    let spec = workloads::find("JARVIS-1").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        num_agents: Some(4),
        ..Default::default()
    };
    let report = run_episode(&spec, &overrides, 3);
    assert_eq!(report.agents, 1);
}

#[test]
fn gpt4_workloads_report_api_cost_and_local_ones_do_not() {
    let deps = run_episode(&workloads::find("DEPS").unwrap(), &easy(), 5);
    assert!(deps.tokens.cost_usd > 0.0, "GPT-4 planning costs dollars");
    let combo = run_episode(&workloads::find("COMBO").unwrap(), &easy(), 5);
    assert_eq!(combo.tokens.cost_usd, 0.0, "local LLaVA costs nothing");
}

#[test]
fn execution_disabled_is_catastrophic_across_paradigms() {
    let mut failures = 0;
    let mut total = 0;
    for name in ["JARVIS-1", "CoELA", "MindAgent"] {
        let spec = workloads::find(name).unwrap();
        for seed in 0..3 {
            let overrides = RunOverrides {
                difficulty: Some(TaskDifficulty::Easy),
                toggles: Some(ModuleToggles::without_execution()),
                ..Default::default()
            };
            let report = run_episode(&spec, &overrides, seed);
            total += 1;
            if !report.outcome.is_success() {
                failures += 1;
            }
        }
    }
    assert!(
        failures * 3 >= total * 2,
        "execution-off should fail in at least ~2/3 of runs ({failures}/{total})"
    );
}

#[test]
fn heterogeneous_teams_run() {
    use embodied_suite::agents::{EmbodiedSystem, Paradigm};
    use embodied_suite::llm::ModelProfile;

    let spec = workloads::find("CoELA").expect("suite member");
    let env = spec.build_env(TaskDifficulty::Easy, 2, 9);
    let mut gpt4 = spec.config.clone();
    gpt4.planner = ModelProfile::gpt4_api();
    let mut llama = spec.config.clone();
    llama.planner = ModelProfile::llama3_8b();

    let mut system = EmbodiedSystem::with_agent_configs(
        "CoELA-hetero",
        env,
        &[gpt4, llama],
        Paradigm::Decentralized,
        9,
    );
    let report = system.run();
    assert_eq!(report.agents, 2);
    assert!(report.steps > 0);
    // Local half of the team incurs zero cost; API half bills dollars.
    assert!(report.tokens.cost_usd > 0.0);
}

#[test]
#[should_panic(expected = "one config per environment agent")]
fn heterogeneous_config_count_must_match() {
    use embodied_suite::agents::{AgentConfig, EmbodiedSystem, Paradigm};
    let spec = workloads::find("CoELA").expect("suite member");
    let env = spec.build_env(TaskDifficulty::Easy, 3, 9);
    let _ = EmbodiedSystem::with_agent_configs(
        "bad",
        env,
        &[AgentConfig::gpt4_modular()],
        Paradigm::Decentralized,
        9,
    );
}

#[test]
fn aggregates_roll_up_reports() {
    let spec = workloads::find("DEPS").expect("suite member");
    let agg = run_many(&spec, &easy(), 4, 0, "DEPS-easy");
    assert_eq!(agg.episodes, 4);
    assert!(agg.mean_steps > 0.0);
    assert!((0.0..=1.0).contains(&agg.success_rate));
    assert!(agg.breakdown.llm_fraction() > 0.3);
}
