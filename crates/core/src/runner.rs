//! Episode runner: the one entry point experiments use to run a workload
//! under arbitrary overrides and collect reports.

use crate::config::{AgentConfig, MemoryCapacity, ModuleToggles, Optimizations};
use crate::system::EmbodiedSystem;
use crate::workloads::WorkloadSpec;
use embodied_env::TaskDifficulty;
use embodied_llm::{
    FleetConfig, FleetSummary, InferenceService, ModelProfile, SimEvent, WindowShare,
};
use embodied_profiler::{Aggregate, EpisodeReport, SimInstant};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Per-run overrides layered on a workload's defaults.
#[derive(Debug, Clone, Default)]
pub struct RunOverrides {
    /// Task difficulty (default: the suite default, Medium).
    pub difficulty: Option<TaskDifficulty>,
    /// Team size (multi-agent workloads only).
    pub num_agents: Option<usize>,
    /// Module toggles (Fig. 3 ablations).
    pub toggles: Option<ModuleToggles>,
    /// Memory capacity (Fig. 5 sweep).
    pub memory_capacity: Option<MemoryCapacity>,
    /// Planner model replacement (Fig. 4's local-model comparison).
    pub planner: Option<ModelProfile>,
    /// Optimization switches (recommendation ablations).
    pub opts: Option<Optimizations>,
    /// Environment replacement — run a workload on a different dataset,
    /// e.g. DEPS on ALFWorld instead of Minecraft (Table II lists both).
    pub env: Option<crate::workloads::EnvKind>,
    /// Trajectory-planner replacement (design-choice ablation).
    pub trajectory_planner: Option<embodied_env::TrajectoryPlanner>,
    /// Memory retrieval-index replacement (Fig. 5 in-text comparison).
    pub retrieval_mode: Option<crate::modules::RetrievalMode>,
    /// Injected-fault profile for every LLM engine (resilience sweeps).
    pub fault_profile: Option<embodied_llm::FaultProfile>,
    /// Retry/backoff policy for the resilience wrapper.
    pub retry_policy: Option<embodied_llm::RetryPolicy>,
    /// Agent-process fault schedule (crash/stall/recover + coordinator
    /// failover) for the resilience sweeps.
    pub agent_faults: Option<crate::faults::AgentFaultProfile>,
    /// Message-channel fault profile (drop/duplicate/corrupt/delay/
    /// partition) for the resilience sweeps.
    pub channel: Option<crate::faults::ChannelProfile>,
    /// Content-plane (semantic) fault profile for the planning engines —
    /// the third fault plane, swept by the guardrail experiments.
    pub semantic_faults: Option<embodied_llm::SemanticFaultProfile>,
    /// Guardrail repair policy applied to plan decisions before actuation.
    pub repair_policy: Option<crate::guardrail::RepairPolicy>,
    /// Shared-inference-service scheduling (cross-tenant batching and the
    /// backend concurrency limit, swept by the serving experiments).
    pub serving: Option<embodied_llm::ServingConfig>,
    /// Serving fault plane (replica crashes, brownouts, queue overflow) —
    /// the fourth fault plane, swept by the SLO experiments. Applied *on
    /// top of* `serving`, so a sweep can fix the scheduling policy and
    /// vary only the fault rates.
    pub serving_faults: Option<embodied_llm::ServingFaultProfile>,
    /// Embodied fault plane (perception dropout/phantoms/stale frames/
    /// misreads + actuation silent-failures/slips/downtime) — the fifth
    /// fault plane, swept by the embodied fault experiments.
    pub env_faults: Option<embodied_env::EnvFaultProfile>,
    /// Closed-loop recovery stack (watchdog re-observation, bounded action
    /// retry with replan escalation, re-ground-on-phantom).
    pub recovery_policy: Option<crate::recovery::RecoveryPolicy>,
}

impl RunOverrides {
    /// Applies the overrides to a workload's default agent config.
    pub fn apply(&self, spec: &WorkloadSpec) -> AgentConfig {
        let mut config = spec.config.clone();
        if let Some(toggles) = self.toggles {
            config.toggles = toggles;
        }
        if let Some(capacity) = self.memory_capacity {
            config.memory_capacity = capacity;
        }
        if let Some(planner) = &self.planner {
            config.planner = planner.clone();
        }
        if let Some(opts) = self.opts {
            config.opts = opts;
        }
        if let Some(planner) = self.trajectory_planner {
            config.trajectory_planner = planner;
        }
        if let Some(mode) = self.retrieval_mode {
            config.retrieval_mode = mode;
        }
        if let Some(profile) = self.fault_profile {
            config.fault_profile = profile;
        }
        if let Some(policy) = self.retry_policy {
            config.retry_policy = policy;
        }
        if let Some(profile) = self.agent_faults {
            config.agent_fault_profile = profile;
        }
        if let Some(profile) = self.channel {
            config.channel_profile = profile;
        }
        if let Some(profile) = self.semantic_faults {
            config.semantic_fault_profile = profile;
        }
        if let Some(policy) = self.repair_policy {
            config.repair_policy = policy;
        }
        if let Some(serving) = self.serving {
            config.serving = serving;
        }
        if let Some(faults) = self.serving_faults {
            config.serving = config.serving.with_faults(faults);
        }
        if let Some(profile) = self.env_faults {
            config.env_fault_profile = profile;
        }
        if let Some(policy) = self.recovery_policy {
            config.recovery_policy = policy;
        }
        config
    }

    /// Resolves the overrides against `spec` into what every runner builds
    /// its episodes from.
    fn resolve<'a>(&self, spec: &'a WorkloadSpec) -> Setup<'a> {
        Setup {
            config: self.apply(spec),
            difficulty: self.difficulty.unwrap_or_default(),
            num_agents: self.num_agents.unwrap_or(spec.default_agents),
            spec: match self.env {
                Some(env) => Cow::Owned(WorkloadSpec {
                    env,
                    ..spec.clone()
                }),
                None => Cow::Borrowed(spec),
            },
        }
    }

    /// The solo system [`run_episode`] and [`run_episode_traced`] run at
    /// `seed`.
    pub(crate) fn build_system(&self, spec: &WorkloadSpec, seed: u64) -> EmbodiedSystem {
        let setup = self.resolve(spec);
        setup
            .spec
            .build_system(&setup.config, setup.difficulty, setup.num_agents, seed)
    }
}

/// [`RunOverrides`] resolved against a workload: the spec (on the
/// override's environment, if any), its config, difficulty and team size.
struct Setup<'a> {
    spec: Cow<'a, WorkloadSpec>,
    config: AgentConfig,
    difficulty: TaskDifficulty,
    num_agents: usize,
}

impl Setup<'_> {
    /// Builds the episode at `seed`, its engines registered into scope
    /// `scope` of `service`.
    fn build(&self, seed: u64, service: &InferenceService, scope: usize) -> EmbodiedSystem {
        self.spec.build_system_on(
            &self.config,
            self.difficulty,
            self.num_agents,
            seed,
            service,
            scope,
        )
    }
}

/// Stride between consecutive episode seeds. A prime comfortably larger
/// than any per-episode RNG-stream offset, so episode streams never
/// overlap; shared by every sweep path (sequential and parallel) so the
/// two can never drift apart.
pub const EPISODE_SEED_STRIDE: u64 = 7919;

/// The seed of episode `i` in a sweep starting at `base`. Every harness
/// that derives per-episode seeds must go through this helper — it is what
/// makes parallel and sequential sweeps bit-identical.
pub fn episode_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add(i as u64 * EPISODE_SEED_STRIDE)
}

/// Runs one episode of `spec` with `overrides` at `seed`.
pub fn run_episode(spec: &WorkloadSpec, overrides: &RunOverrides, seed: u64) -> EpisodeReport {
    overrides.build_system(spec, seed).run()
}

/// Runs one episode and also returns the Chrome trace-event JSON of its
/// full module timeline (loadable in `chrome://tracing` / Perfetto).
pub fn run_episode_traced(
    spec: &WorkloadSpec,
    overrides: &RunOverrides,
    seed: u64,
) -> (EpisodeReport, String) {
    let mut system = overrides.build_system(spec, seed);
    let report = system.run();
    let json = embodied_profiler::chrome_trace_json(system.trace());
    (report, json)
}

/// Runs `episodes` seeds and aggregates them under `label`.
pub fn run_many(
    spec: &WorkloadSpec,
    overrides: &RunOverrides,
    episodes: usize,
    base_seed: u64,
    label: impl Into<String>,
) -> Aggregate {
    let reports: Vec<EpisodeReport> = (0..episodes)
        .map(|i| run_episode(spec, overrides, episode_seed(base_seed, i)))
        .collect();
    Aggregate::from_reports(label, &reports)
}

/// The outcome of one fleet run: every episode's report (in arrival
/// order) plus the shared substrate's fleet-level counters.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-episode reports, indexed by episode number.
    pub reports: Vec<EpisodeReport>,
    /// What the shared serving substrate saw across all episodes.
    pub summary: FleetSummary,
}

/// One admitted episode in the fleet runner's slot table.
struct FleetSlot {
    system: EmbodiedSystem,
    /// Global instant of admission: episode-local trace time `t` lives at
    /// global `base + t`.
    base: SimInstant,
}

/// Admits `episode` at global instant `at`: anchors its scope base,
/// builds its system as tenants of the shared service, and schedules its
/// first step.
fn admit_episode(
    setup: &Setup,
    base_seed: u64,
    service: &InferenceService,
    slots: &mut [Option<FleetSlot>],
    episode: usize,
    at: SimInstant,
) {
    service.set_scope_base(episode, at);
    let system = setup.build(episode_seed(base_seed, episode), service, episode);
    service.push_fleet_event(at, SimEvent::AgentStepReady { episode });
    slots[episode] = Some(FleetSlot { system, base: at });
}

/// Runs `episodes` staggered episodes of `spec` multiplexed onto **one**
/// shared inference service and **one** virtual clock — the fleet regime,
/// where serving contention (queueing, batching, faults) spans episodes
/// instead of being reset per run.
///
/// The discrete-event loop pops `(virtual-time, sequence-id)`-ordered
/// events: `RequestArrival` admits an episode (or queues it behind
/// [`FleetConfig::max_sessions`]), `AgentStepReady` advances one episode by
/// one step via the `step_once` seam, and `BatchWindowClose` settles a
/// serving window that may span several episodes — the parked episodes
/// receive their amortized shares and resume. Episode seeds come from
/// [`episode_seed`], so per-episode randomness is untouched by scheduling;
/// the same `(spec, overrides, episodes, base_seed, fleet)` tuple replays
/// bit-identically regardless of host parallelism.
pub fn run_fleet(
    spec: &WorkloadSpec,
    overrides: &RunOverrides,
    episodes: usize,
    base_seed: u64,
    fleet: FleetConfig,
) -> FleetReport {
    run_fleet_on(spec, overrides, episodes, base_seed, fleet).0
}

/// [`run_fleet`], also returning the shared service so its ledgers can be
/// audited.
fn run_fleet_on(
    spec: &WorkloadSpec,
    overrides: &RunOverrides,
    episodes: usize,
    base_seed: u64,
    fleet: FleetConfig,
) -> (FleetReport, InferenceService) {
    let fleet = fleet.validated().expect("fleet config must be valid");
    let setup = overrides.resolve(spec);
    let service = InferenceService::with_seed(setup.config.serving, base_seed);
    service.enable_fleet(episodes);
    for i in 0..episodes {
        service.push_fleet_event(
            SimInstant::EPOCH + fleet.stagger * i as u64,
            SimEvent::RequestArrival { episode: i },
        );
    }
    let mut slots: Vec<Option<FleetSlot>> =
        std::iter::repeat_with(|| None).take(episodes).collect();
    let mut reports: Vec<Option<EpisodeReport>> = vec![None; episodes];
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut active = 0usize;
    let mut close_scheduled = false;
    while let Some(ev) = service.pop_fleet_event() {
        match ev.event {
            SimEvent::RequestArrival { episode } => {
                let cap = fleet.max_sessions as usize;
                if cap == 0 || active < cap {
                    active += 1;
                    admit_episode(&setup, base_seed, &service, &mut slots, episode, ev.at);
                } else {
                    waiting.push_back(episode);
                }
            }
            SimEvent::AgentStepReady { episode } => {
                let slot = slots[episode]
                    .as_mut()
                    .expect("step-ready for an unadmitted episode");
                if slot.system.step_once() {
                    if slot.system.accounts.pending() > 0 {
                        // Parked on an open serving window; the close event
                        // settles the shares and reschedules this episode.
                        if !close_scheduled {
                            close_scheduled = true;
                            let gnow = slot.base + slot.system.trace().elapsed();
                            service.push_fleet_event(
                                gnow + fleet.batch_window,
                                SimEvent::BatchWindowClose,
                            );
                        }
                    } else {
                        let gnow = slot.base + slot.system.trace().elapsed();
                        service.push_fleet_event(gnow, SimEvent::AgentStepReady { episode });
                    }
                } else {
                    let slot = slots[episode].take().expect("slot vanished mid-episode");
                    assert!(
                        slot.system.trace().is_start_monotone(),
                        "episode {episode}: span starts rewound on the virtual timeline"
                    );
                    reports[episode] = Some(slot.system.report());
                    active -= 1;
                    if let Some(next) = waiting.pop_front() {
                        service.push_fleet_event(ev.at, SimEvent::RequestArrival { episode: next });
                    }
                }
            }
            SimEvent::BatchWindowClose => {
                close_scheduled = false;
                let shares = service.close_window(ev.at);
                // Settle per episode, preserving submission order within
                // each scope and first-appearance order across scopes — both
                // deterministic, so resume-event sequence ids are too.
                let mut by_scope: Vec<(usize, Vec<WindowShare>)> = Vec::new();
                for share in shares {
                    match by_scope.iter_mut().find(|(s, _)| *s == share.scope) {
                        Some((_, list)) => list.push(share),
                        None => by_scope.push((share.scope, vec![share])),
                    }
                }
                for (scope, scope_shares) in by_scope {
                    let slot = slots[scope]
                        .as_mut()
                        .expect("window share for a retired episode");
                    // No later step of the episode has begun, so its trace
                    // folds the shares into the step that deferred them.
                    slot.system.accounts.apply_window_shares(&scope_shares);
                    let gnow = slot.base + slot.system.trace().elapsed();
                    service.push_fleet_event(gnow, SimEvent::AgentStepReady { episode: scope });
                }
            }
            SimEvent::DecodeFinish { .. } | SimEvent::ReplicaRestart { .. } => {
                unreachable!("substrate events are consumed inside pop_fleet_event")
            }
        }
    }
    let summary = service.fleet_summary();
    let reports = reports
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("episode {i} never completed")))
        .collect();
    (FleetReport { reports, summary }, service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;
    use embodied_profiler::ModuleKind;

    #[test]
    fn jarvis_episode_runs_and_reports() {
        let spec = find("JARVIS-1").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 1);
        assert!(report.steps > 0);
        assert!(report.tokens.calls > 0);
        assert!(report.latency.as_secs_f64() > 10.0);
        // Planning must dominate sensing for an LLM workload.
        assert!(
            report.breakdown.module(ModuleKind::Planning)
                > report.breakdown.module(ModuleKind::Sensing)
        );
    }

    #[test]
    fn coela_multi_agent_episode_communicates() {
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 3);
        assert_eq!(report.agents, 2);
        assert!(report.messages.generated > 0, "decentralized agents talk");
        assert!(
            !report.breakdown.module(ModuleKind::Communication).is_zero(),
            "communication latency must be billed"
        );
    }

    #[test]
    fn centralized_episode_runs() {
        let spec = find("MindAgent").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 5);
        assert!(report.steps > 0);
        assert!(report.tokens.calls > 0);
    }

    #[test]
    fn hybrid_episode_runs() {
        let spec = find("HMAS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 5);
        assert!(report.steps > 0);
        assert!(report.messages.generated > 0);
    }

    #[test]
    fn run_many_aggregates() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let agg = run_many(&spec, &overrides, 3, 0, "DEPS-easy");
        assert_eq!(agg.episodes, 3);
        assert!(agg.mean_steps > 0.0);
    }

    #[test]
    fn env_override_swaps_dataset() {
        // DEPS evaluated on ALFWorld instead of Minecraft (Table II).
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            env: Some(crate::workloads::EnvKind::AlfWorld),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 4);
        assert!(report.steps > 0);
        assert_eq!(report.workload, "DEPS");
    }

    #[test]
    fn traced_episode_exports_chrome_json() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let (report, json) = run_episode_traced(&spec, &overrides, 2);
        assert!(report.steps > 0);
        assert!(json.contains("\"cat\": \"planning\""));
        assert!(json.contains("\"ph\": \"X\""));
        // Every span appears as one event.
        assert!(
            json.matches("\"ph\": \"X\"").count() > report.steps,
            "several spans per step expected"
        );
    }

    #[test]
    fn default_runs_keep_resilience_quiet() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 9);
        assert!(
            report.resilience == Default::default(),
            "no faults configured, none may appear: {:?}",
            report.resilience
        );
        assert!(
            report.repairs == Default::default(),
            "guardrail off by default, nothing may be validated: {:?}",
            report.repairs
        );
        assert!(
            report.serving_faults == Default::default(),
            "serving fault plane off by default, nothing may fire: {:?}",
            report.serving_faults
        );
        assert!(
            report.env_faults == Default::default(),
            "embodied fault plane off by default, nothing may fire: {:?}",
            report.env_faults
        );
        assert!(
            report.recovery == Default::default(),
            "recovery off by default, nothing may intervene: {:?}",
            report.recovery
        );
    }

    #[test]
    fn env_faults_inject_and_replay_deterministically() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            env_faults: Some(embodied_env::EnvFaultProfile::uniform(0.25)),
            ..Default::default()
        };
        let a = run_episode(&spec, &overrides, 7);
        let b = run_episode(&spec, &overrides, 7);
        assert!(a.env_faults.faults() > 0, "{:?}", a.env_faults);
        assert!(
            a.recovery == Default::default(),
            "recovery stays opt-in: {:?}",
            a.recovery
        );
        assert_eq!(a.env_faults, b.env_faults);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn recovery_engages_under_env_faults_and_terminates() {
        // Heavy perception + actuation faults with the full closed loop on:
        // every recovery mechanism must both engage and terminate (bounded
        // retries, watchdog window, one re-ground per rejection), so the
        // episode always reaches its step budget or completes.
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            env_faults: Some(embodied_env::EnvFaultProfile::uniform(0.35)),
            recovery_policy: Some(crate::recovery::RecoveryPolicy::standard()),
            ..Default::default()
        };
        let a = run_episode(&spec, &overrides, 11);
        let b = run_episode(&spec, &overrides, 11);
        assert!(a.env_faults.faults() > 0, "{:?}", a.env_faults);
        assert!(a.recovery.interventions() > 0, "{:?}", a.recovery);
        assert!(a.steps > 0);
        // Retries are bounded by the policy budget per failed action.
        let budget = crate::recovery::RecoveryPolicy::standard().act_retries() as u64;
        assert!(a.recovery.act_retries <= a.steps as u64 * budget.max(1) * 2);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn recovery_engages_in_centralized_paradigm() {
        let spec = find("MindAgent").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            env_faults: Some(embodied_env::EnvFaultProfile::uniform(0.35)),
            recovery_policy: Some(crate::recovery::RecoveryPolicy::standard()),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 13);
        assert!(report.env_faults.faults() > 0, "{:?}", report.env_faults);
        assert!(report.recovery.interventions() > 0, "{:?}", report.recovery);
    }

    #[test]
    fn serving_faults_inject_and_replay_deterministically() {
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(
                embodied_llm::ServingConfig::limited(1)
                    .with_replicas(2)
                    .with_deadline(embodied_profiler::SimDuration::from_secs(240)),
            ),
            serving_faults: Some(embodied_llm::ServingFaultProfile::stressed(0.4)),
            ..Default::default()
        };
        let a = run_episode(&spec, &overrides, 7);
        let b = run_episode(&spec, &overrides, 7);
        assert!(a.serving_faults.faults() > 0, "{:?}", a.serving_faults);
        assert!(a.serving_faults.slo_total > 0, "deadline set: SLO measured");
        assert_eq!(a.serving_faults, b.serving_faults);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn hedging_and_shedding_fire_under_a_stressed_serving_plane() {
        // One saturated replica pair under heavy brownouts: hedges race the
        // slow primary, and the shed threshold rejects low-priority calls
        // while every paradigm path survives on its degradation fallbacks.
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(
                embodied_llm::ServingConfig::limited(1)
                    .with_replicas(2)
                    .with_hedging(embodied_profiler::SimDuration::from_secs(2))
                    .with_shedding(1),
            ),
            serving_faults: Some(embodied_llm::ServingFaultProfile::brownouts(0.8)),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 11);
        assert!(report.steps > 0, "episode survives shed/hedge paths");
        assert!(
            report.serving_faults.hedges() > 0,
            "brownouts past the hedge trigger: {:?}",
            report.serving_faults
        );
        assert!(
            report.serving_faults.shed > 0,
            "depth-1 threshold must shed on a multi-call step: {:?}",
            report.serving_faults
        );
        assert!(
            report.serving_faults.hedge_tokens > 0,
            "hedge duplicates bill their tokens"
        );
        let quiet = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let baseline = run_episode(&spec, &quiet, 11);
        assert!(
            report.tokens.cost_usd < baseline.tokens.cost_usd * 2.0,
            "shedding offsets the hedge premium"
        );
    }

    #[test]
    fn shed_and_late_micro_control_calls_degrade_the_primitive() {
        // With execution off, the planner drives raw primitives through
        // micro-control calls. A micro call that is shed or misses its
        // deadline must degrade that primitive like a transient fault does,
        // not abort the episode.
        let limited = embodied_llm::ServingConfig::limited(1);
        let cases = [
            (
                "DEPS",
                None,
                limited.with_deadline(embodied_profiler::SimDuration::from_secs(1)),
            ),
            ("CoELA", Some(4), limited.with_shedding(1)),
        ];
        for (system, num_agents, serving) in cases {
            let overrides = RunOverrides {
                num_agents,
                toggles: Some(ModuleToggles::without_execution()),
                serving: Some(serving),
                ..Default::default()
            };
            let report = run_episode(&find(system).unwrap(), &overrides, 3);
            assert!(report.steps > 0, "{system}");
            assert!(
                report.resilience.degraded_execution > 0,
                "{system}: failed micro calls degrade primitives: {:?}",
                report.resilience
            );
        }
    }

    #[test]
    fn semantic_faults_inject_and_replay_deterministically() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            semantic_faults: Some(embodied_llm::SemanticFaultProfile::uniform(0.5)),
            repair_policy: Some(crate::guardrail::RepairPolicy::Reprompt { max_attempts: 2 }),
            ..Default::default()
        };
        let a = run_episode(&spec, &overrides, 7);
        let b = run_episode(&spec, &overrides, 7);
        assert!(a.repairs.validations > 0, "{:?}", a.repairs);
        assert!(a.repairs.rejections() > 0, "{:?}", a.repairs);
        assert!(a.repairs.repair_tokens > 0, "re-prompts pay tokens");
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.tokens, b.tokens);
    }

    #[test]
    fn semantic_faults_guard_centralized_paradigm_too() {
        let spec = find("MindAgent").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            semantic_faults: Some(embodied_llm::SemanticFaultProfile::uniform(0.6)),
            repair_policy: Some(crate::guardrail::RepairPolicy::Constrain),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 13);
        assert!(report.repairs.validations > 0, "{:?}", report.repairs);
        assert!(
            report.repairs.constrained > 0,
            "central corruption must be constrained: {:?}",
            report.repairs
        );
    }

    #[test]
    fn skip_policy_burns_steps_without_repair_tokens() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            semantic_faults: Some(embodied_llm::SemanticFaultProfile::uniform(0.5)),
            repair_policy: Some(crate::guardrail::RepairPolicy::Skip),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 7);
        assert!(report.repairs.skipped_steps > 0, "{:?}", report.repairs);
        assert_eq!(report.repairs.repair_tokens, 0);
        assert_eq!(report.repairs.repair_attempts, 0);
    }

    #[test]
    fn faults_slow_episodes_down() {
        let spec = find("DEPS").unwrap();
        let clean = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let faulty = RunOverrides {
            fault_profile: Some(embodied_llm::FaultProfile::uniform(0.3)),
            ..clean.clone()
        };
        let a = run_episode(&spec, &clean, 11);
        let b = run_episode(&spec, &faulty, 11);
        assert!(
            b.resilience.backoff + b.resilience.wasted_latency
                > embodied_profiler::SimDuration::ZERO,
            "faulted run must bill retry time: {:?}",
            b.resilience
        );
        // Per-step latency must not shrink when a third of calls fault.
        assert!(
            b.latency.as_secs_f64() / b.steps.max(1) as f64
                >= a.latency.as_secs_f64() / a.steps.max(1) as f64,
            "faults cannot make steps faster"
        );
    }

    #[test]
    fn fleet_runs_staggered_episodes_and_reports_each() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let out = run_fleet(&spec, &overrides, 3, 5, FleetConfig::default());
        assert_eq!(out.reports.len(), 3);
        assert_eq!(out.summary.sessions, 3);
        assert!(out.summary.events > 0, "{:?}", out.summary);
        for report in &out.reports {
            assert!(report.steps > 0);
            assert!(report.tokens.calls > 0);
        }
        let longest = out.reports.iter().map(|r| r.latency).max().unwrap();
        assert!(
            out.summary.makespan >= longest,
            "the shared clock covers every episode: {} < {longest}",
            out.summary.makespan
        );
    }

    #[test]
    fn fleet_same_seed_replays_bit_identically() {
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(embodied_llm::ServingConfig::limited(1).with_replicas(2)),
            ..Default::default()
        };
        let cfg = FleetConfig::default().with_sessions(2);
        let a = run_fleet(&spec, &overrides, 4, 7, cfg);
        let b = run_fleet(&spec, &overrides, 4, 7, cfg);
        assert_eq!(format!("{:?}", a.reports), format!("{:?}", b.reports));
        assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    }

    #[test]
    fn fleet_batches_across_concurrent_episodes() {
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(embodied_llm::ServingConfig::batched()),
            ..Default::default()
        };
        let cfg = FleetConfig::default()
            .with_stagger(embodied_profiler::SimDuration::from_millis(100))
            .with_batch_window(embodied_profiler::SimDuration::from_secs(60));
        let out = run_fleet(&spec, &overrides, 3, 7, cfg);
        assert!(
            out.summary.cross_episode_batches > 0,
            "near-simultaneous episodes must share at least one batch: {:?}",
            out.summary
        );
        for report in &out.reports {
            // `batches` ledgers to the group lead's scope; membership is the
            // per-episode signal every participant shares.
            assert!(
                report.serving.batched_requests > 0,
                "every episode rides at least one batch: {:?}",
                report.serving
            );
        }
    }

    #[test]
    fn batched_dialogue_rounds_reach_the_serving_tier() {
        // Rec. 1 on a one-slot scheduling tier: each batched dialogue round
        // is placed once, as one cohort request, so it queues like one.
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            num_agents: Some(4),
            serving: Some(embodied_llm::ServingConfig::limited(1)),
            opts: Some(crate::config::Optimizations {
                batching: true,
                ..Default::default()
            }),
            ..Default::default()
        };
        let report = run_episode(&spec, &overrides, 42);
        // All four agents talk in the one round of every step.
        assert_eq!(report.messages.generated, 4 * report.steps as u64);
        // Every planning call here is an independent first plan.
        let planning = report
            .by_purpose
            .entries()
            .iter()
            .find(|e| e.purpose == "planning")
            .map_or(0, |e| e.calls);
        assert_eq!(
            report.serving.cohort_requests,
            planning + report.steps as u64,
            "one cohort request per first plan and per dialogue round"
        );
    }

    #[test]
    fn fleet_session_cap_queues_admissions() {
        let spec = find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let capped = FleetConfig::default().with_sessions(1);
        let out = run_fleet(&spec, &overrides, 3, 5, capped);
        assert_eq!(out.reports.len(), 3, "queued arrivals still complete");
        assert_eq!(out.summary.sessions, 3);
    }

    #[test]
    fn scope_ledgers_partition_the_service() {
        // Every tenant belongs to exactly one scope, so summed over scopes
        // the ledgers cover the whole service: tokens are every tenant's
        // usage plus the hedge premium, and batch membership is the window
        // members (each settles as one `batch` span).
        let spec = find("CoELA").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(embodied_llm::ServingConfig {
                batching: true,
                ..embodied_llm::ServingConfig::limited(1).with_replicas(2)
            }),
            ..Default::default()
        };
        let check = |service: &InferenceService, reports: &[EpisodeReport]| {
            let mut scoped = embodied_profiler::TokenStats::default();
            let (mut hedges, mut hedge_tokens, mut batched) = (0, 0, 0);
            for scope in 0..reports.len() {
                scoped.merge(&service.total_usage(scope));
                let faults = service.fault_stats(scope);
                hedges += faults.hedges();
                hedge_tokens += faults.hedge_tokens;
                batched += service.stats(scope).batched_requests;
            }
            let mut tenants = embodied_profiler::TokenStats::default();
            for tenant in 0..service.tenant_count() {
                tenants.merge(&service.tenant_usage(tenant));
            }
            assert_eq!(scoped.calls, tenants.calls + hedges);
            assert_eq!(scoped.total_tokens(), tenants.total_tokens() + hedge_tokens);
            let members: u64 = reports
                .iter()
                .flat_map(|r| r.by_phase.entries())
                .filter(|e| e.purpose == "batch")
                .map(|e| e.calls)
                .sum();
            assert!(members > 0, "the configuration must batch");
            assert_eq!(batched, members);
        };
        let (fleet, service) = run_fleet_on(&spec, &overrides, 4, 7, FleetConfig::default());
        check(&service, &fleet.reports);
        let mut solo = overrides.build_system(&spec, 7);
        let report = solo.run();
        check(&solo.accounts.service, std::slice::from_ref(&report));
    }

    #[test]
    fn goal_text_is_fixed_for_the_episode() {
        use crate::workloads::{registry, EnvKind};
        use embodied_env::{BoxVariant, EnvFaultProfile};
        // The system counts the goal once at construction; every
        // environment's goal must still read the same after a full episode.
        let kinds = [
            EnvKind::Transport,
            EnvKind::Household,
            EnvKind::Cuisine,
            EnvKind::BoxWorld(BoxVariant::BoxNet1),
            EnvKind::BoxWorld(BoxVariant::BoxNet2),
            EnvKind::BoxWorld(BoxVariant::Warehouse),
            EnvKind::BoxWorld(BoxVariant::BoxLift),
            EnvKind::Craft,
            EnvKind::Manipulation,
            EnvKind::Kitchen,
            EnvKind::AlfWorld,
        ];
        for kind in kinds {
            // A suite member on this environment's family, else DEPS.
            let family = std::mem::discriminant(&kind);
            let spec = registry()
                .into_iter()
                .find(|s| std::mem::discriminant(&s.env) == family)
                .unwrap_or_else(|| find("DEPS").unwrap());
            for env_faults in [EnvFaultProfile::none(), EnvFaultProfile::uniform(0.15)] {
                let overrides = RunOverrides {
                    env: Some(kind),
                    env_faults: Some(env_faults),
                    ..Default::default()
                };
                let mut sys = overrides.build_system(&spec, 11);
                assert_eq!(sys.goal.text(), sys.env.goal_text());
                let report = sys.run();
                assert!(report.steps > 0);
                assert_eq!(
                    sys.goal.text(),
                    sys.env.goal_text(),
                    "{kind:?} ({} steps, {:?})",
                    report.steps,
                    report.outcome
                );
            }
        }
    }

    #[test]
    fn overrides_replace_planner() {
        let spec = find("JARVIS-1").unwrap();
        let overrides = RunOverrides {
            planner: Some(ModelProfile::llama3_8b()),
            ..Default::default()
        };
        let config = overrides.apply(&spec);
        assert_eq!(config.planner.name, "Llama-3-8B (local)");
    }
}
