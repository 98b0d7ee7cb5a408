//! Differential test of the two forms of prompt assembly: every episode
//! must come out the same whether its prompts are rendered as text or
//! assembled as token counts alone.

use crate::faults::{AgentFaultProfile, ChannelProfile};
use crate::guardrail::RepairPolicy;
use crate::prompt::set_render_by_default;
use crate::recovery::RecoveryPolicy;
use crate::runner::{run_fleet, RunOverrides};
use crate::workloads::{find, registry, WorkloadSpec};
use embodied_env::EnvFaultProfile;
use embodied_llm::{
    FaultProfile, FleetConfig, RetryPolicy, SemanticFaultProfile, ServingConfig,
    ServingFaultProfile,
};
use embodied_profiler::SimDuration;

/// The benchmark's configurations: every Table II system at its defaults,
/// CoELA with six agents on batched serving, and one system per paradigm
/// with all five fault planes and every mitigation on.
fn configurations() -> Vec<(WorkloadSpec, RunOverrides)> {
    let mut configs: Vec<_> = registry()
        .into_iter()
        .map(|spec| (spec, RunOverrides::default()))
        .collect();
    let team_dialogue = RunOverrides {
        num_agents: Some(6),
        serving: Some(ServingConfig::batched()),
        ..Default::default()
    };
    configs.push((find("CoELA").expect("suite member"), team_dialogue));
    let faulted = RunOverrides {
        fault_profile: Some(FaultProfile::uniform(0.1)),
        retry_policy: Some(RetryPolicy::standard()),
        agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
        channel: Some(ChannelProfile::lossy(0.1)),
        semantic_faults: Some(SemanticFaultProfile::uniform(0.2)),
        repair_policy: Some(RepairPolicy::Reprompt { max_attempts: 2 }),
        serving: Some(
            ServingConfig::limited(1)
                .with_replicas(2)
                .with_hedging(SimDuration::from_secs(2))
                .with_deadline(SimDuration::from_secs(240)),
        ),
        serving_faults: Some(ServingFaultProfile::stressed(0.2)),
        env_faults: Some(EnvFaultProfile::uniform(0.15)),
        recovery_policy: Some(RecoveryPolicy::standard()),
        ..Default::default()
    };
    for name in ["DEPS", "MindAgent", "CoELA", "HMAS"] {
        configs.push((find(name).expect("suite member"), faulted.clone()));
    }
    configs
}

/// What one episode left behind: its report as `Debug` text, whether any
/// memory buffer (an agent's or the central planner's) was ever written,
/// and whether any prompt buffer (an agent's planning, communication or
/// reflection buffer, or the central planner's) was.
struct Episode {
    report: String,
    wrote_memory: bool,
    wrote_prompt: bool,
}

fn episode(spec: &WorkloadSpec, overrides: &RunOverrides, seed: u64, render: bool) -> Episode {
    set_render_by_default(render);
    let mut system = overrides.build_system(spec, seed);
    let report = system.run();
    set_render_by_default(cfg!(debug_assertions));
    let agents = &system.agents;
    let central = system.central.as_ref();
    let memory = agents.iter().map(|a| a.memory_buf.capacity());
    let prompts = agents.iter().flat_map(|a| {
        [
            Some(a.planning.prompt_capacity()),
            a.communication.as_ref().map(|c| c.prompt_capacity()),
            a.reflection.as_ref().map(|r| r.prompt_capacity()),
        ]
        .into_iter()
        .flatten()
    });
    let central_prompts = central.into_iter().flat_map(|c| {
        [
            Some(c.prompt_buf.capacity()),
            Some(c.planning.prompt_capacity()),
            c.communication.as_ref().map(|m| m.prompt_capacity()),
        ]
        .into_iter()
        .flatten()
    });
    Episode {
        report: format!("{report:?}"),
        wrote_memory: memory
            .chain(central.map(|c| c.memory_buf.capacity()))
            .any(|cap| cap > 0),
        wrote_prompt: prompts.chain(central_prompts).any(|cap| cap > 0),
    }
}

#[test]
fn count_only_prompts_reproduce_rendered_reports() {
    let configs = configurations();
    assert_eq!(configs.len(), 14 + 1 + 4);
    let (mut rendered_memory, mut rendered_prompt) = (false, false);
    for (spec, overrides) in &configs {
        for seed in [42, 7] {
            let rendered = episode(spec, overrides, seed, true);
            let counted = episode(spec, overrides, seed, false);
            assert!(
                rendered.report == counted.report,
                "{} at seed {seed}: the count-only report differs from the rendered one",
                spec.name
            );
            assert!(
                !counted.wrote_memory,
                "{}: count-only assembly rendered memory",
                spec.name
            );
            assert!(
                !counted.wrote_prompt,
                "{}: count-only assembly wrote a prompt buffer",
                spec.name
            );
            rendered_memory |= rendered.wrote_memory;
            rendered_prompt |= rendered.wrote_prompt;
        }
    }
    assert!(rendered_memory, "the rendered runs rendered no memory");
    assert!(rendered_prompt, "the rendered runs rendered no prompt");
}

/// Fleet mode runs the same prompt code under fleet windows and
/// cross-episode batching: `fleet_shared`'s configuration (CoELA on a
/// batched 2-slot × 2-replica service, staggered arrivals) over a short
/// fleet must report the same whichever way its prompts are assembled.
#[test]
fn count_only_prompts_reproduce_rendered_fleets() {
    let spec = find("CoELA").expect("suite member");
    let overrides = RunOverrides {
        serving: Some(ServingConfig {
            batching: true,
            ..ServingConfig::limited(2).with_replicas(2)
        }),
        ..Default::default()
    };
    let fleet = FleetConfig::default()
        .with_stagger(SimDuration::from_millis(500))
        .with_batch_window(SimDuration::from_secs(60));
    let run = |render: bool| {
        set_render_by_default(render);
        let out = run_fleet(&spec, &overrides, 8, 42, fleet);
        set_render_by_default(cfg!(debug_assertions));
        format!("{out:?}")
    };
    let rendered = run(true);
    assert!(
        rendered == run(false),
        "the count-only fleet report differs from the rendered one"
    );
}
