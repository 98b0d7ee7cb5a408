//! Differential test of the two forms of prompt assembly: every episode
//! must come out the same whether its prompts are rendered as text or
//! assembled as token counts alone.

use crate::faults::{AgentFaultProfile, ChannelProfile};
use crate::guardrail::RepairPolicy;
use crate::prompt::set_render_by_default;
use crate::recovery::RecoveryPolicy;
use crate::runner::RunOverrides;
use crate::workloads::{find, registry, WorkloadSpec};
use embodied_env::EnvFaultProfile;
use embodied_llm::{
    FaultProfile, RetryPolicy, SemanticFaultProfile, ServingConfig, ServingFaultProfile,
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

/// The report of one episode as `Debug` text, and whether any memory
/// buffer (an agent's or the central planner's) was ever written.
fn episode(
    spec: &WorkloadSpec,
    overrides: &RunOverrides,
    seed: u64,
    render: bool,
) -> (String, bool) {
    set_render_by_default(render);
    let mut system = overrides.build_system(spec, seed);
    let report = system.run();
    set_render_by_default(cfg!(debug_assertions));
    let buffers = system.agents.iter().map(|a| &a.memory_buf);
    let central = system.central.iter().map(|c| &c.memory_buf);
    let wrote = buffers.chain(central).any(|buf| buf.capacity() > 0);
    (format!("{report:?}"), wrote)
}

#[test]
fn count_only_prompts_reproduce_rendered_reports() {
    let configs = configurations();
    assert_eq!(configs.len(), 14 + 1 + 4);
    let mut rendered_any = false;
    for (spec, overrides) in &configs {
        for seed in [42, 7] {
            let (rendered, wrote) = episode(spec, overrides, seed, true);
            let (counted, wrote_counting) = episode(spec, overrides, seed, false);
            assert!(
                rendered == counted,
                "{} at seed {seed}: the count-only report differs from the rendered one",
                spec.name
            );
            assert!(
                !wrote_counting,
                "{}: count-only assembly rendered",
                spec.name
            );
            rendered_any |= wrote;
        }
    }
    assert!(rendered_any, "the rendered runs rendered nothing");
}
