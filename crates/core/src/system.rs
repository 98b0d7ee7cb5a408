//! The embodied system: an environment plus its agents (and, for
//! centralized paradigms, a central planner), driven step by step while a
//! [`Trace`] accounts every module's simulated latency.

use crate::agent::ModularAgent;
use crate::config::AgentConfig;
use crate::faults::{AgentFaultEvent, AgentFaultState, ChannelState, DelayedMessage, DeliveryFate};
use crate::modules::{
    CommunicationModule, MemoryModule, Percept, PlanContext, PlanningModule, RecordKind,
};
use crate::orchestrator::{self, Paradigm};
use crate::prompt::{count_tokens, system_preamble, Counted};
use crate::recovery::RecoveryPolicy;
use embodied_env::{Environment, ExecOutcome, Subgoal};
use embodied_llm::{
    EngineBuilder, InferenceOpts, InferenceService, LlmEngine, LlmError, LlmRequest, LlmResponse,
    Purpose, ServingConfig, TenantId, TenantOwner, WindowShare,
};
use embodied_profiler::{
    EpisodeReport, LatencyBreakdown, MessageStats, ModuleKind, Outcome, Phase, PurposeLedger,
    RecoveryStats, RepairStats, ResilienceStats, SimDuration, StepRecord, Trace,
};

/// Nominal watchdog + reboot latency billed when a process crashes.
const CRASH_REBOOT: SimDuration = SimDuration::from_secs(5);

/// Latency of the deterministic failover election round.
const FAILOVER_ELECTION: SimDuration = SimDuration::from_secs(2);

/// Client-side dispatch overhead billed when a hedged duplicate is issued
/// to a second serving replica.
const HEDGE_DISPATCH: SimDuration = SimDuration::from_millis(2);

/// Marker span billed when serving admission control fast-fails a request
/// — the rejection round-trip, not real inference time.
const SHED_MARKER: SimDuration = SimDuration::from_millis(2);

/// Dispatch overhead billed per closed-loop action retry — the decision to
/// re-issue the primitive; the retry's real compute/actuation is billed by
/// the execution phase it re-runs.
const ACT_RETRY_DISPATCH: SimDuration = SimDuration::from_millis(2);

/// Per-step counters the orchestrators update through [`EmbodiedSystem`]
/// helpers; they feed the step-record time series (Fig. 6).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StepCounters {
    pub llm_calls: u64,
    pub max_prompt_tokens: u64,
    pub progressed: bool,
}

/// Central planner state for centralized/hybrid paradigms.
#[derive(Debug)]
pub(crate) struct CentralPlanner {
    pub planning: PlanningModule,
    pub communication: Option<CommunicationModule>,
    pub memory: MemoryModule,
    pub preamble: Counted<String>,
    /// Reusable render buffer for the central memory section (same role as
    /// [`ModularAgent::memory_buf`]).
    pub memory_buf: String,
    /// Reusable render buffer for the joint planning prompt.
    pub prompt_buf: String,
}

/// One windowed LLM call awaiting its amortized latency share when the
/// serving window closes.
#[derive(Debug)]
pub(crate) struct PendingCall {
    module: ModuleKind,
    agent: usize,
    response: LlmResponse,
}

/// A fully assembled embodied system ready to run one episode.
pub struct EmbodiedSystem {
    pub(crate) env: Box<dyn Environment>,
    pub(crate) agents: Vec<ModularAgent>,
    pub(crate) central: Option<CentralPlanner>,
    pub(crate) paradigm: Paradigm,
    pub(crate) trace: Trace,
    pub(crate) messages: MessageStats,
    pub(crate) counters: StepCounters,
    pub(crate) step: usize,
    pub(crate) by_purpose: PurposeLedger,
    /// Graceful-degradation events (per-module counters); engine-level
    /// fault/retry tallies are collected from the engines at report time.
    pub(crate) degradations: ResilienceStats,
    /// Agent-process fault state: crash/stall schedules, coordinator
    /// liveness, failover bookkeeping.
    pub(crate) agent_faults: AgentFaultState,
    /// Message-channel fault state: partition window, delayed queue.
    pub(crate) channel: ChannelState,
    /// Guardrail validation/repair accounting (all zero while the repair
    /// policy is `Off`).
    pub(crate) repairs: RepairStats,
    /// Closed-loop recovery policy: watchdog re-observation, bounded action
    /// retry with replan escalation, re-ground-on-phantom. `Off` (the
    /// default) disables every mechanism.
    pub(crate) recovery_policy: RecoveryPolicy,
    /// Recovery accounting (all zero while the recovery policy is `Off`).
    pub(crate) recovery_stats: RecoveryStats,
    /// Last step at which each agent made environment progress — the
    /// stuck-detection watchdog's memory.
    pub(crate) last_progress: Vec<usize>,
    /// The shared inference service every engine in this system is a
    /// tenant of — owns the engine stacks, the per-tenant ledger, and the
    /// per-model scheduling backends.
    pub(crate) service: InferenceService,
    /// The service scope this system's tenants registered under (0 for a
    /// solo episode); the report reads the service's ledgers by it.
    pub(crate) scope: usize,
    /// System-level scheduling knobs (cached from the first agent config;
    /// serving is a property of the shared stack, not of one agent).
    pub(crate) serving: ServingConfig,
    /// Calls deferred into the currently open serving window.
    pub(crate) window_entries: Vec<PendingCall>,
    workload: String,
    step_records: Vec<StepRecord>,
}

impl std::fmt::Debug for EmbodiedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbodiedSystem")
            .field("workload", &self.workload)
            .field("paradigm", &self.paradigm)
            .field("agents", &self.agents.len())
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl EmbodiedSystem {
    /// Assembles a system over `env` with one agent per environment agent,
    /// all sharing `config`.
    pub fn new(
        workload: impl Into<String>,
        env: Box<dyn Environment>,
        config: &AgentConfig,
        paradigm: Paradigm,
        seed: u64,
    ) -> Self {
        // The serving fault plane draws from its own salted stream derived
        // from the episode seed — independent of every engine stream.
        let service = InferenceService::with_seed(config.serving, seed);
        Self::with_shared_service(workload, env, config, paradigm, seed, service, 0)
    }

    /// Assembles a system whose engines register as tenants of `service`
    /// under episode scope `scope` — the fleet path, where N episodes
    /// share one serving stack. The single-episode [`EmbodiedSystem::new`]
    /// passes a private service and scope 0.
    pub(crate) fn with_shared_service(
        workload: impl Into<String>,
        env: Box<dyn Environment>,
        config: &AgentConfig,
        paradigm: Paradigm,
        seed: u64,
        service: InferenceService,
        scope: usize,
    ) -> Self {
        let workload = workload.into();
        let landmarks = env.landmarks();
        // Tenants registered below must carry this episode's scope.
        service.set_scope(scope);
        let agents: Vec<ModularAgent> = (0..env.num_agents())
            .map(|id| {
                ModularAgent::new(
                    id,
                    &workload,
                    config.clone(),
                    landmarks.clone(),
                    seed,
                    &service,
                )
            })
            .collect();
        // The central planner's stack shares the builder layering with the
        // agents but draws from its own fault/backoff stream bases.
        let builder = EngineBuilder::new(
            config.fault_profile,
            config.retry_policy,
            seed ^ 0xfacc00,
            seed ^ 0xb0cc00,
        );
        let central = match paradigm {
            Paradigm::Centralized | Paradigm::Hybrid => Some(CentralPlanner {
                planning: PlanningModule::new(
                    service.register(
                        builder.wrap(
                            LlmEngine::new(config.planner.clone(), seed ^ 0xcc01)
                                .with_semantic_faults(
                                    config.semantic_fault_profile,
                                    seed ^ 0x5ecc01,
                                ),
                            0x01,
                        ),
                        TenantOwner::Central,
                    ),
                ),
                communication: config
                    .communicator
                    .as_ref()
                    .filter(|_| config.toggles.communication)
                    .map(|p| {
                        CommunicationModule::new(service.register(
                            builder.wrap(LlmEngine::new(p.clone(), seed ^ 0xcc02), 0x02),
                            TenantOwner::Central,
                        ))
                    }),
                memory: MemoryModule::new(
                    config.toggles.memory,
                    config.memory_capacity,
                    config.opts.dual_memory,
                    config.opts.summarization,
                    landmarks,
                ),
                preamble: Counted::new(system_preamble(&workload, "central planning")),
                memory_buf: String::new(),
                prompt_buf: String::new(),
            }),
            _ => None,
        };
        let team = agents.len();
        EmbodiedSystem {
            env,
            agents,
            central,
            paradigm,
            trace: Trace::new(),
            messages: MessageStats::default(),
            counters: StepCounters::default(),
            step: 0,
            by_purpose: PurposeLedger::default(),
            degradations: ResilienceStats::default(),
            agent_faults: AgentFaultState::new(config.agent_fault_profile, seed, team),
            channel: ChannelState::new(config.channel_profile, seed),
            repairs: RepairStats::default(),
            recovery_policy: config.recovery_policy,
            recovery_stats: RecoveryStats::default(),
            last_progress: vec![0; team],
            service,
            scope,
            serving: config.serving,
            window_entries: Vec::new(),
            workload,
            step_records: Vec::new(),
        }
    }

    /// Assembles a *heterogeneous* system: one explicit config per agent
    /// (COHERENT-style teams of dissimilar robots). The first config also
    /// parameterizes the central planner for centralized/hybrid paradigms.
    ///
    /// # Panics
    ///
    /// Panics if `configs.len()` does not match the environment's agent
    /// count, or is empty.
    pub fn with_agent_configs(
        workload: impl Into<String>,
        env: Box<dyn Environment>,
        configs: &[AgentConfig],
        paradigm: Paradigm,
        seed: u64,
    ) -> Self {
        assert!(!configs.is_empty(), "need at least one agent config");
        assert_eq!(
            configs.len(),
            env.num_agents(),
            "one config per environment agent"
        );
        let mut system = Self::new(workload, env, &configs[0], paradigm, seed);
        let landmarks = system.env.landmarks();
        let name = system.workload.clone();
        let service = system.service.clone();
        for (id, config) in configs.iter().enumerate().skip(1) {
            // The replaced agent's tenants stay registered but are never
            // driven again: their ledgers hold zero and stay zero.
            system.agents[id] =
                ModularAgent::new(id, &name, config.clone(), landmarks.clone(), seed, &service);
        }
        system
    }

    /// The workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The episode's span timeline (e.g. for [`embodied_profiler::chrome_trace_json`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs the episode to completion or the step budget, returning the
    /// full report.
    pub fn run(&mut self) -> EpisodeReport {
        while self.step_once() {}
        self.report()
    }

    /// Advances the episode by exactly one environment step — fault-plane
    /// bookkeeping, the paradigm's orchestration pass, and the per-step
    /// record — returning `false` (without advancing) once the episode is
    /// over. Benchmarks and throughput harnesses drive this directly;
    /// [`Self::run`] loops it to completion.
    pub fn step_once(&mut self) -> bool {
        if self.episode_over() {
            return false;
        }
        self.trace.begin_step(self.step);
        if self.serving_active() {
            // The step loop is a synchronization barrier: backend
            // queues never carry over into the next step.
            self.service.begin_step(self.trace.now());
        }
        self.counters = StepCounters::default();
        let before = self.trace.elapsed();
        self.begin_fault_step();
        match self.paradigm {
            Paradigm::SingleModular => orchestrator::single::step(self),
            Paradigm::Centralized => orchestrator::centralized::step(self),
            Paradigm::Decentralized => orchestrator::decentralized::step(self),
            Paradigm::Hybrid => orchestrator::hybrid::step(self),
        }
        let latency = self.trace.elapsed().saturating_sub(before);
        self.step_records.push(StepRecord {
            step: self.step,
            latency,
            max_prompt_tokens: self.counters.max_prompt_tokens,
            llm_calls: self.counters.llm_calls,
            progress: self.counters.progressed,
        });
        self.step += 1;
        true
    }

    /// The episode report as of the current step (final when the episode
    /// has ended).
    pub fn report(&self) -> EpisodeReport {
        let outcome = if self.env.is_complete() {
            Outcome::Success
        } else if self.env.progress() == 0.0 {
            Outcome::Stuck
        } else {
            Outcome::StepLimit
        };
        // The service ledger covers every engine in the system — agents
        // and central alike — so accounting cannot drift from wiring. Every
        // query reads this episode's scope: a fleet's shared service hosts
        // N episodes' tenants at once.
        let tokens = self.service.total_usage(self.scope);
        let mut by_phase = PurposeLedger::default();
        for span in self.trace.spans() {
            by_phase.record(&span.phase.to_string(), span.duration, 0, 0);
        }
        let mut resilience = self.degradations;
        resilience.merge(&self.service.total_resilience(self.scope));
        EpisodeReport {
            workload: self.workload.clone(),
            outcome,
            steps: self.step,
            latency: self.trace.elapsed(),
            breakdown: LatencyBreakdown::from_trace(&self.trace),
            tokens,
            by_purpose: self.by_purpose.clone(),
            by_phase,
            messages: self.messages,
            resilience,
            agent_faults: self.agent_faults.stats,
            channel: self.channel.stats,
            repairs: self.repairs,
            serving: self.service.stats(self.scope),
            serving_faults: self.service.fault_stats(self.scope),
            env_faults: self.env.env_fault_stats(),
            recovery: self.recovery_stats,
            step_records: self.step_records.clone(),
            agents: self.agents.len(),
        }
    }

    // ----- shared inference-service scheduling -----

    /// Whether the serving layer schedules anything at all this episode.
    /// While false (the default), every call takes the legacy path.
    pub(crate) fn serving_active(&self) -> bool {
        !self.serving.is_passthrough()
    }

    /// Whether cross-tenant batch windows are enabled.
    pub(crate) fn serving_batching(&self) -> bool {
        self.serving.batching
    }

    /// Opens a batch window over a same-phase fan-out whose prompts all
    /// start with the workload's system preamble, `prefix_tokens` long.
    pub(crate) fn open_serving_window(&mut self, opts: InferenceOpts, prefix_tokens: u64) {
        self.service.open_window(opts, prefix_tokens);
    }

    /// Closes the current window: every deferred call receives its
    /// amortized share and is only now fed into the step counters. In
    /// fleet mode the window lives on the shared virtual clock and only
    /// the runner's `BatchWindowClose` event may close it — possibly
    /// merging this episode's calls with another's — so the deferred
    /// entries stay parked until `settle_fleet_shares`.
    pub(crate) fn close_serving_window(&mut self) {
        if self.service.fleet_enabled() {
            return;
        }
        let shares = self.service.close_window(self.trace.now());
        let (calls, max_prompt) = self.apply_window_shares(&shares);
        self.counters.llm_calls += calls;
        self.counters.max_prompt_tokens = self.counters.max_prompt_tokens.max(max_prompt);
    }

    /// Whether the episode has nothing left to do: the step budget is
    /// spent or the environment reached its goal. `step_once` checks this
    /// before advancing; the fleet runner checks it to tell a parked
    /// episode from a finished one.
    pub(crate) fn episode_over(&self) -> bool {
        self.step >= self.env.max_steps() || self.env.is_complete()
    }

    /// Number of calls parked in the open serving window — nonzero means
    /// the episode is waiting on a fleet `BatchWindowClose` before its
    /// next step can be attributed.
    pub(crate) fn pending_window_entries(&self) -> usize {
        self.window_entries.len()
    }

    /// Applies the fleet runner's window shares to this episode after the
    /// fact: the window closed on the shared virtual clock, outside this
    /// episode's step, so the re-attributed time and call counts fold into
    /// the step record that deferred them.
    pub(crate) fn settle_fleet_shares(&mut self, shares: &[WindowShare]) {
        let before = self.trace.elapsed();
        let (calls, max_prompt) = self.apply_window_shares(shares);
        let delta = self.trace.elapsed().saturating_sub(before);
        if let Some(rec) = self.step_records.last_mut() {
            rec.latency += delta;
            rec.llm_calls += calls;
            rec.max_prompt_tokens = rec.max_prompt_tokens.max(max_prompt);
        }
    }

    /// Gives every deferred call its amortized share: a `Phase::Batch`
    /// span (plus a `Phase::Queue` span on the member that led a queued
    /// batch) and a per-purpose ledger entry at the share's latency.
    /// Returns the number of calls settled and their largest prompt.
    fn apply_window_shares(&mut self, shares: &[WindowShare]) -> (u64, u64) {
        let entries = std::mem::take(&mut self.window_entries);
        debug_assert_eq!(shares.len(), entries.len());
        let mut max_prompt = 0;
        for (entry, share) in entries.iter().zip(shares) {
            if !share.queue.is_zero() {
                self.trace
                    .record(entry.module, Phase::Queue, entry.agent, share.queue);
            }
            self.trace
                .record(entry.module, Phase::Batch, entry.agent, share.share);
            let response = &entry.response;
            max_prompt = max_prompt.max(response.prompt_tokens);
            self.by_purpose.record(
                &response.purpose.to_string(),
                share.share,
                response.prompt_tokens,
                response.output_tokens,
            );
        }
        (entries.len() as u64, max_prompt)
    }

    /// Routes one completed LLM call through the serving layer.
    ///
    /// Pass-through (the default) records the `Phase::LlmInference` span
    /// exactly where and how the legacy per-module path did. With
    /// scheduling active, a cohort call joining an open window is
    /// deferred — its time is re-attributed at [`Self::close_serving_window`]
    /// and the caller must skip its own `note_llm` (returns `true`) —
    /// while any other call is first charged its backend's queueing delay
    /// (`Phase::Queue`): cohort calls reserve a server slot, dependent
    /// follow-ups only wait for one. Static, taking disjoint field
    /// borrows, so call sites holding `&mut self.agents[i]` can use it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_llm_response(
        trace: &mut Trace,
        service: &InferenceService,
        serving: ServingConfig,
        window_entries: &mut Vec<PendingCall>,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        response: &LlmResponse,
        cohort: bool,
    ) -> bool {
        if serving.is_passthrough() {
            trace.record(module, Phase::LlmInference, agent, response.latency);
            return false;
        }
        if cohort && service.window_is_open() {
            service.window_add(tenant, response);
            window_entries.push(PendingCall {
                module,
                agent,
                response: response.clone(),
            });
            return true;
        }
        let now = trace.now();
        if cohort {
            let out = service.submit_cohort(tenant, now, response);
            if !out.failover.is_zero() {
                // Partial service wasted on a replica that crashed
                // mid-request, before the healthy peer took over.
                trace.record(module, Phase::Failover, agent, out.failover);
            }
            if out.hedged.is_some() {
                trace.record(module, Phase::Hedge, agent, HEDGE_DISPATCH);
            }
            // Brownout inflation rides the wait span: the caller observes
            // it as extra time-to-first-token on a degraded replica.
            let wait = out.queue + out.slowdown;
            if !wait.is_zero() {
                trace.record(module, Phase::Queue, agent, wait);
            }
        } else {
            let queue = service.queue_solo(tenant, now);
            if !queue.is_zero() {
                trace.record(module, Phase::Queue, agent, queue);
            }
        }
        trace.record(module, Phase::LlmInference, agent, response.latency);
        false
    }

    /// [`Self::serve_llm_response`] for call sites without live agent
    /// borrows.
    pub(crate) fn serve_response(
        &mut self,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        response: &LlmResponse,
        cohort: bool,
    ) -> bool {
        Self::serve_llm_response(
            &mut self.trace,
            &self.service,
            self.serving,
            &mut self.window_entries,
            module,
            agent,
            tenant,
            response,
            cohort,
        )
    }

    // ----- agent/channel fault plumbing -----

    /// Whether the agent/channel fault layer can do anything this episode
    /// (gates the heartbeat machinery so fault-free runs pay nothing).
    pub(crate) fn faults_active(&self) -> bool {
        !self.agent_faults.profile().is_none() || !self.channel.profile().is_none()
    }

    /// Begin-of-step fault processing: channel partition bookkeeping, agent
    /// crash/stall/recover draws (with `Phase::Crash` spans and state
    /// cleanup for freshly crashed processes), and — for centralized
    /// paradigms — the coordinator failover election plus its re-sync cost.
    /// A no-op performing zero draws when both profiles are `none()`.
    fn begin_fault_step(&mut self) {
        let step = self.step;
        // Embodied fault plane: a `FaultyEnv` wrapper draws this step's
        // perception/actuation faults here; the bare environments' default
        // hook is a no-op.
        self.env.begin_step(step);
        self.channel.begin_step(step);
        let events = self.agent_faults.begin_step(step, self.central.is_some());
        for event in events {
            match event {
                AgentFaultEvent::Crashed(i) => {
                    // The process dies losing its in-flight state: pending
                    // messages and the remaining plan budget are gone.
                    self.agents[i].inbox.clear();
                    self.agents[i].plan_budget = 0;
                    self.trace
                        .record(ModuleKind::Execution, Phase::Crash, i, CRASH_REBOOT);
                }
                AgentFaultEvent::Recovered(_) => {}
                AgentFaultEvent::CoordinatorCrashed => {
                    let host = self.agent_faults.coordinator;
                    self.trace
                        .record(ModuleKind::Planning, Phase::Crash, host, CRASH_REBOOT);
                }
            }
        }
        if self.central.is_some() && self.agent_faults.coordinator_down() {
            if let Some(promoted) = self.agent_faults.maybe_failover(step) {
                self.trace.record(
                    ModuleKind::Planning,
                    Phase::Failover,
                    promoted,
                    FAILOVER_ELECTION,
                );
                self.resync_coordinator(promoted);
            }
        }
    }

    /// A promoted coordinator pays a real re-sync inference: one planning
    /// call that rebuilds the joint picture, billed in tokens, latency, and
    /// a `Phase::Resync` span.
    fn resync_coordinator(&mut self, promoted: usize) {
        let difficulty = self.env.difficulty().scalar();
        let goal = self.env.goal_text();
        let n = self.agents.len();
        let opts = Self::infer_opts_for(&self.agents[0].config, n);
        let Some(central) = self.central.as_mut() else {
            return;
        };
        let prompt = format!(
            "{}\n[failover] agent {promoted} is assuming the coordinator role. \
             Re-synchronize: re-ingest the status of all {n} agents and the \
             task goal ({goal}), then resume joint planning.",
            central.preamble.text()
        );
        let result = central.planning.engine_mut().infer(
            LlmRequest::new(Purpose::Planning, &prompt, 40 + 10 * n as u64)
                .with_difficulty(difficulty)
                .with_opts(opts),
        );
        let stall = central.planning.engine_mut().take_stall();
        Self::note_stall(&mut self.trace, ModuleKind::Planning, promoted, stall);
        match result {
            Ok(response) => {
                self.trace.record(
                    ModuleKind::Planning,
                    Phase::Resync,
                    promoted,
                    response.latency,
                );
                self.agent_faults.stats.resync_tokens +=
                    response.prompt_tokens + response.output_tokens;
                self.note_llm(&response);
            }
            Err(err) => {
                // The re-sync call itself faulted out; the promoted
                // coordinator starts from whatever the central memory holds.
                Self::note_llm_failure(&mut self.trace, ModuleKind::Planning, promoted, &err);
                self.degradations.degraded_planning += 1;
            }
        }
    }

    /// [`EmbodiedSystem::sense_phase`] for fault-aware loops: a crashed or
    /// stalled agent files no report, so the caller gets a placeholder
    /// percept that touches neither the environment nor the agent's memory.
    pub(crate) fn sense_phase_or_placeholder(&mut self, i: usize) -> Percept {
        if self.agent_faults.is_active(i) {
            self.sense_phase(i)
        } else {
            Percept {
                entities: Vec::new(),
                text: format!("agent {i} unresponsive (no report this step)"),
                location: String::new(),
            }
        }
    }

    /// Delivers channel-held messages that have reached their due step into
    /// recipient inboxes/memories (called by the decentralized loop right
    /// after it clears inboxes). Late deliveries never count toward message
    /// usefulness — by the time they land, the knowledge is stale.
    pub(crate) fn flush_delayed(&mut self) {
        if self.channel.delayed.is_empty() {
            return;
        }
        let step = self.step;
        for msg in self.channel.due_messages(step) {
            if self.agent_faults.is_down(msg.to) {
                self.agent_faults.stats.missed_messages += 1;
                continue;
            }
            let agent = &mut self.agents[msg.to];
            for _ in 0..msg.copies {
                agent.memory.store_counted(
                    RecordKind::Dialogue,
                    msg.text.clone(),
                    msg.entities.clone(),
                );
                agent.inbox.push(msg.text.clone());
            }
        }
    }

    // ----- shared phase helpers used by the orchestrators -----

    /// Records a non-zero backoff stall as a `Phase::Backoff` span so retry
    /// waiting extends episode latency end-to-end. Zero stalls are dropped,
    /// keeping no-fault traces byte-identical to pre-resilience runs.
    pub(crate) fn note_stall(
        trace: &mut Trace,
        module: ModuleKind,
        agent: usize,
        stall: SimDuration,
    ) {
        if !stall.is_zero() {
            trace.record(module, Phase::Backoff, agent, stall);
        }
    }

    /// Records the serving tier's fast-fail marker when an inference was
    /// rejected by admission control. Every other failure kind leaves the
    /// trace untouched — its cost is already billed (backoff stall,
    /// deadline stall) or was never incurred.
    pub(crate) fn note_llm_failure(
        trace: &mut Trace,
        module: ModuleKind,
        agent: usize,
        err: &LlmError,
    ) {
        if matches!(err, LlmError::Shed) {
            trace.record(module, Phase::Shed, agent, SHED_MARKER);
        }
    }

    /// Records an LLM response against the step counters and the
    /// per-purpose ledger.
    pub(crate) fn note_llm(&mut self, response: &LlmResponse) {
        self.counters.llm_calls += 1;
        self.counters.max_prompt_tokens =
            self.counters.max_prompt_tokens.max(response.prompt_tokens);
        self.by_purpose.record(
            &response.purpose.to_string(),
            response.latency,
            response.prompt_tokens,
            response.output_tokens,
        );
    }

    /// Inference options shared by every call an agent makes this episode.
    /// `team_size` models local-GPU co-tenancy: a multi-agent team serving
    /// its local model from one box contends for it.
    pub(crate) fn infer_opts_for(config: &AgentConfig, team_size: usize) -> InferenceOpts {
        InferenceOpts {
            quantization: config.opts.quantization,
            kv_reused_tokens: 0,
            multiple_choice: config.opts.multiple_choice,
            server_share: if config.planner.deployment.is_api() {
                1
            } else {
                team_size.max(1) as u32
            },
        }
    }

    // ----- closed-loop recovery -----

    /// Forces a fresh observation for agent `i`: the environment's
    /// perception layer is refreshed (a `FaultyEnv` wrapper thaws frozen
    /// frames and rebuilds a clean view, draw-free), then the agent
    /// re-senses and re-integrates, paying the encoder latency again as a
    /// [`Phase::Reobserve`] span.
    pub(crate) fn forced_reobserve(&mut self, i: usize) {
        self.env.refresh_perception(i);
        let obs = self.env.observe(i);
        let agent = &mut self.agents[i];
        let (percept, latency) = agent.sensing.sense(&obs);
        self.trace
            .record(ModuleKind::Sensing, Phase::Reobserve, i, latency);
        self.recovery_stats.reobserve_latency += latency;
        agent.memory.store(
            RecordKind::Observation,
            percept.text.clone(),
            percept.entities.clone(),
        );
        agent.map.integrate(&percept, self.step);
    }

    /// Retry budget exhausted: the agent escalates to a real
    /// diagnose-and-replan inference — one planning call reasoning about
    /// the repeated actuation failure — billed to the recovery ledger in
    /// tokens and dollars and voiding any multi-step plan budget.
    fn escalate_replan(&mut self, i: usize, subgoal: &Subgoal) {
        let difficulty = self.env.difficulty().scalar();
        let goal = self.env.goal_text();
        let team_size = self.agents.len();
        self.recovery_stats.replan_escalations += 1;
        let agent = &mut self.agents[i];
        let opts = Self::infer_opts_for(&agent.config, team_size);
        let prompt = format!(
            "{}\n[recovery] action {subgoal} keeps failing despite retries. \
             Diagnose the failure against the task goal ({goal}) and produce \
             a fresh plan that routes around the broken actuator or \
             misperceived object.",
            agent.preamble.text()
        );
        let result = agent.planning.engine_mut().infer(
            LlmRequest::new(Purpose::Planning, &prompt, 40)
                .with_difficulty(difficulty)
                .with_opts(opts),
        );
        let stall = agent.planning.engine_mut().take_stall();
        let plan_tenant = agent.planning.engine().tenant();
        agent.plan_budget = 0;
        Self::note_stall(&mut self.trace, ModuleKind::Planning, i, stall);
        match result {
            Ok(response) => {
                self.recovery_stats.recovery_tokens +=
                    response.prompt_tokens + response.output_tokens;
                self.recovery_stats.recovery_cost_usd += response.cost_usd;
                self.serve_response(ModuleKind::Planning, i, plan_tenant, &response, false);
                self.note_llm(&response);
            }
            Err(err) => {
                // The escalation call itself faulted out: the agent replans
                // cold next step from whatever its memory holds.
                Self::note_llm_failure(&mut self.trace, ModuleKind::Planning, i, &err);
                self.degradations.degraded_planning += 1;
            }
        }
    }

    /// Sensing + memory-update phase for one agent. Returns the percept.
    pub(crate) fn sense_phase(&mut self, i: usize) -> Percept {
        // Stuck-detection watchdog: no environment progress over the
        // policy's window forces a re-observation before this step's
        // sensing, so planning runs against a fresh frame instead of a
        // stale or degraded one.
        if let Some(window) = self.recovery_policy.watchdog_window() {
            if self.step >= self.last_progress[i] + window {
                self.recovery_stats.watchdog_reobserves += 1;
                self.forced_reobserve(i);
                self.last_progress[i] = self.step;
            }
        }
        let obs = self.env.observe(i);
        let agent = &mut self.agents[i];
        let (percept, latency) = agent.sensing.sense(&obs);
        self.trace
            .record(ModuleKind::Sensing, Phase::Encoding, i, latency);
        agent.memory.begin_step(self.step);
        agent.memory.store(
            RecordKind::Observation,
            percept.text.clone(),
            percept.entities.clone(),
        );
        agent.map.integrate(&percept, self.step);
        percept
    }

    /// Executes a subgoal through the reflection loop and — when the
    /// recovery policy is closed-loop — the bounded action-retry ladder: a
    /// failed non-idle action is re-executed up to the policy's retry
    /// budget (each attempt marked with a [`Phase::ActRetry`] span and its
    /// real compute/actuation cost), and an exhausted budget escalates to a
    /// diagnose-and-replan inference billed to the recovery ledger.
    /// Resource contention (busy/waiting) is not an actuation fault and is
    /// never retried.
    pub(crate) fn execute_with_reflection(&mut self, i: usize, subgoal: &Subgoal) -> ExecOutcome {
        let mut outcome = self.reflect_and_execute(i, subgoal);
        let budget = self.recovery_policy.act_retries();
        // Retry only *unexplained* failures — the action was afforded yet
        // produced no observable effect at all (the silent-no-op signature).
        // A failure that comes back with a reason is deterministic: the
        // normal plan loop handles it, and re-issuing the same action would
        // burn latency at zero fault rates for nothing.
        if budget == 0 || !Self::looks_transient(&outcome) || subgoal.is_idle() {
            return outcome;
        }
        for _ in 0..budget {
            self.recovery_stats.act_retries += 1;
            self.trace.record(
                ModuleKind::Execution,
                Phase::ActRetry,
                i,
                ACT_RETRY_DISPATCH,
            );
            let retry = self.execute_phase(i, subgoal);
            self.recovery_stats.retry_latency += retry.total_time();
            outcome = retry;
            if outcome.completed || outcome.made_progress {
                self.recovery_stats.retries_recovered += 1;
                return outcome;
            }
            if !Self::looks_transient(&outcome) {
                // The retry surfaced a real precondition failure: the plan
                // itself is wrong, which is the planner's job, not ours.
                return outcome;
            }
        }
        // Repeated no-effect executions of an afforded action: something in
        // the world disagrees with the agent's model of it. Pay for a real
        // diagnostic replan instead of hammering the same actuator.
        self.escalate_replan(i, subgoal);
        outcome
    }

    /// Whether a failed outcome carries the no-observable-effect signature
    /// that closed-loop recovery treats as transient and worth retrying.
    fn looks_transient(outcome: &ExecOutcome) -> bool {
        !outcome.completed && !outcome.made_progress && outcome.note.starts_with("nothing happened")
    }

    /// Executes a subgoal and, on failure, runs the reflection loop: the
    /// reflector verifies the outcome (paper §II-A: "observes the state
    /// before and after"), and a caught *transient* error is retried within
    /// the same step — error correction "with minimal overhead" (Takeaway
    /// 2) — while a caught *category* error is blacklisted so planning
    /// cannot loop on it.
    fn reflect_and_execute(&mut self, i: usize, subgoal: &Subgoal) -> ExecOutcome {
        let team_size = self.agents.len();
        let mut outcome = self.execute_phase(i, subgoal);
        if outcome.completed || outcome.made_progress {
            return outcome;
        }
        if self.agents[i].reflection.is_none() {
            return outcome;
        }
        // Reflection cannot conjure a controller: with execution disabled,
        // diagnosing the failure does not make raw LLM motor commands work.
        let can_retry = self.agents[i].execution.mode() == crate::modules::ExecMode::Controller;
        let difficulty = self.env.difficulty().scalar();
        let step = self.step;
        let agent = &mut self.agents[i];
        let opts = Self::infer_opts_for(&agent.config, team_size);
        let reflection = agent.reflection.as_mut().expect("checked above");
        let refl_tenant = reflection.engine().tenant();
        let result = reflection.reflect(
            agent.preamble.as_deref(),
            subgoal,
            &outcome,
            difficulty,
            opts,
        );
        let stall = reflection.engine_mut().take_stall();
        Self::note_stall(&mut self.trace, ModuleKind::Reflection, i, stall);
        let verdict = match result {
            Ok(v) => v,
            Err(err) => {
                // Degrade: the failure stays undiagnosed this step — no
                // retry, no blacklist, no belief cleanup.
                Self::note_llm_failure(&mut self.trace, ModuleKind::Reflection, i, &err);
                self.degradations.degraded_reflection += 1;
                return outcome;
            }
        };
        self.serve_response(
            ModuleKind::Reflection,
            i,
            refl_tenant,
            &verdict.response,
            false,
        );
        if verdict.caught_error {
            if verdict.category_error {
                // Never retry a wrong-in-kind action; exclude it and let
                // the next step replan from corrected beliefs.
                let agent = &mut self.agents[i];
                agent.blacklist_subgoal(subgoal, step, 5);
                for entity in &verdict.stale_entities {
                    agent.memory.mark_stale(entity);
                }
                agent.last_failure = None;
                agent.failure_streak = 0;
            } else if can_retry {
                // Transient slip: retry once within the same step.
                outcome = self.execute_phase(i, subgoal);
            }
        }
        let response = verdict.response;
        self.note_llm(&response);
        outcome
    }

    /// Planning phase for one agent: knowledge-filter the menus, run the
    /// LLM (or consume the multi-step plan budget), return the decision.
    pub(crate) fn plan_phase(
        &mut self,
        i: usize,
        percept: &Percept,
        dialogue: Counted<&str>,
    ) -> (Subgoal, bool) {
        let team_size = self.agents.len();
        let difficulty = self.env.difficulty().scalar();
        let goal = Counted::new(self.env.goal_text());
        let oracle_raw = self.env.oracle_subgoals(i);
        let candidates_raw = self.env.candidate_subgoals(i);
        let step = self.step;

        let agent = &mut self.agents[i];
        // Point-query knowledge filtering: `memory.knows` answers per
        // entity against the incremental last-seen index, so no per-step
        // `HashSet` of every known entity is materialized. An entity in
        // the current percept is known even if memory marked it stale —
        // fresh observation wins, as in `ModularAgent::knowledge`.
        let knows = |e: &str| agent.memory.knows(e) || percept.entities.iter().any(|p| p == e);
        let mut oracle = agent.filter_subgoals_with(oracle_raw, knows, step);
        let mut candidates = agent.filter_subgoals_with(candidates_raw, knows, step);
        // Re-plan around missing peers: a joint subgoal whose partner has
        // gone silent (heartbeat staleness) cannot succeed, so the planner
        // never considers it. No-op while no peer is suspected.
        if !agent.suspected.is_empty() {
            let partner_missing = |sg: &Subgoal| {
                matches!(sg, Subgoal::LiftTogether { partner, .. }
                    if agent.suspected.contains(partner))
            };
            oracle.retain(|sg| !partner_missing(sg));
            candidates.retain(|sg| !partner_missing(sg));
        }
        if candidates.is_empty() {
            candidates.push(Subgoal::Explore);
        }

        // Rec. 7: a still-valid high-level plan covers this step without a
        // new inference run.
        if agent.plan_budget > 0 && !oracle.is_empty() {
            agent.plan_budget -= 1;
            return (oracle[0].clone(), true);
        }

        // The map summary rides with the retrieved memory: spatial
        // knowledge is part of the context the planner reasons over. Both
        // render into the agent's reusable buffer — same bytes as the old
        // `format!("[map]\n{map_summary}\n{retrieval_text}")` path, no
        // per-step allocation. The map part is counted here; the retrieved
        // lines bring their counts from the store.
        agent.memory_buf.clear();
        if agent.map.coverage() > 0 {
            agent.memory_buf.push_str("[map]\n");
            agent.map.write_summary(&mut agent.memory_buf, 6);
            agent.memory_buf.push('\n');
        }
        let map_tokens = count_tokens(&agent.memory_buf);
        let retrieval = agent.memory.retrieve_write(&mut agent.memory_buf);
        self.trace
            .record(ModuleKind::Memory, Phase::Retrieval, i, retrieval.latency);

        // Unexplained failures (reflection absent or it missed the error)
        // leave the context contaminated: the planner reasons from beliefs
        // the world just contradicted, and the effect compounds while the
        // streak continues (paper: agents "stuck in loops of invalid
        // operations" without reflection).
        let failure_confusion = if agent.last_failure.is_some() {
            (0.2 * agent.failure_streak as f64).min(0.6)
        } else {
            0.0
        };
        // Practiced skills plan more reliably (action memory, §II-A): the
        // bonus keys on the kind of the oracle's preferred next step.
        let skill_bonus = oracle
            .first()
            .map(|sg| agent.memory.skill_bonus(sg.pattern()))
            .unwrap_or(0.0);
        let ctx = PlanContext {
            preamble: agent.preamble.as_deref(),
            goal: goal.as_deref(),
            percept_text: &percept.text,
            memory: Counted::with_tokens(&agent.memory_buf, map_tokens + retrieval.tokens),
            dialogue,
            oracle,
            candidates,
            difficulty,
            opts: Self::infer_opts_for(&agent.config, team_size),
            quality_penalty: (retrieval.inconsistency_penalty + failure_confusion - skill_bonus)
                .max(0.0),
            repeat_bias: agent.last_failure.as_ref().map(|(sg, _)| sg.clone()),
            failure_streak: agent.failure_streak,
        };
        let planned = agent.planning.plan(&ctx);
        let stall = agent.planning.engine_mut().take_stall();
        Self::note_stall(&mut self.trace, ModuleKind::Planning, i, stall);
        let mut decision = match planned {
            Ok(d) => d,
            Err(err) => {
                // Degrade: fall back to the last successfully planned
                // subgoal (stale but coherent), else explore.
                Self::note_llm_failure(&mut self.trace, ModuleKind::Planning, i, &err);
                self.degradations.degraded_planning += 1;
                let fallback = agent.last_plan.clone().unwrap_or(Subgoal::Explore);
                return (fallback, false);
            }
        };
        let plan_tenant = agent.planning.engine().tenant();
        // The first planning response is an independent (cohort) request:
        // under an open window it is deferred and re-attributed at close,
        // in which case it must not re-enter the ledger below.
        let deferred = Self::serve_llm_response(
            &mut self.trace,
            &self.service,
            self.serving,
            &mut self.window_entries,
            ModuleKind::Planning,
            i,
            plan_tenant,
            &decision.response,
            true,
        );
        let mut responses = if deferred {
            Vec::new()
        } else {
            vec![decision.response.clone()]
        };

        if agent.config.separate_action_selection {
            let selected = agent.planning.select_action(&ctx, decision.clone());
            let stall = agent.planning.engine_mut().take_stall();
            Self::note_stall(&mut self.trace, ModuleKind::Planning, i, stall);
            match selected {
                Ok(d) => {
                    decision = d;
                    Self::serve_llm_response(
                        &mut self.trace,
                        &self.service,
                        self.serving,
                        &mut self.window_entries,
                        ModuleKind::Planning,
                        i,
                        plan_tenant,
                        &decision.response,
                        false,
                    );
                    responses.push(decision.response.clone());
                }
                Err(err) => {
                    // Degrade: skip the selection pass, keep the plan.
                    Self::note_llm_failure(&mut self.trace, ModuleKind::Planning, i, &err);
                    self.degradations.degraded_planning += 1;
                }
            }
        }
        // Pre-execution plan verification: reflective systems check every
        // plan before acting (MP5's patroller, DEPS's CLIP check); a wrong
        // plan that is recognized as wrong triggers one replanning pass.
        if let Some(reflection) = agent.reflection.as_mut() {
            let refl_tenant = reflection.engine().tenant();
            let verified = reflection.verify_plan(
                agent.preamble.as_deref(),
                &decision.subgoal,
                !decision.followed_oracle,
                difficulty,
                Self::infer_opts_for(&agent.config, team_size),
            );
            let stall = reflection.engine_mut().take_stall();
            Self::note_stall(&mut self.trace, ModuleKind::Reflection, i, stall);
            match verified {
                Ok((caught, verify_response)) => {
                    Self::serve_llm_response(
                        &mut self.trace,
                        &self.service,
                        self.serving,
                        &mut self.window_entries,
                        ModuleKind::Reflection,
                        i,
                        refl_tenant,
                        &verify_response,
                        false,
                    );
                    responses.push(verify_response);
                    if caught {
                        let replanned = agent.planning.plan(&ctx);
                        let stall = agent.planning.engine_mut().take_stall();
                        Self::note_stall(&mut self.trace, ModuleKind::Planning, i, stall);
                        match replanned {
                            Ok(d) => {
                                decision = d;
                                Self::serve_llm_response(
                                    &mut self.trace,
                                    &self.service,
                                    self.serving,
                                    &mut self.window_entries,
                                    ModuleKind::Planning,
                                    i,
                                    plan_tenant,
                                    &decision.response,
                                    false,
                                );
                                responses.push(decision.response.clone());
                            }
                            Err(err) => {
                                // Degrade: act on the suspect plan rather
                                // than stall the step.
                                Self::note_llm_failure(
                                    &mut self.trace,
                                    ModuleKind::Planning,
                                    i,
                                    &err,
                                );
                                self.degradations.degraded_planning += 1;
                            }
                        }
                    }
                }
                Err(err) => {
                    // Degrade: skip pre-execution verification.
                    Self::note_llm_failure(&mut self.trace, ModuleKind::Reflection, i, &err);
                    self.degradations.degraded_reflection += 1;
                }
            }
        }

        if decision.followed_oracle && agent.config.opts.plan_horizon > 1 {
            agent.plan_budget = agent.config.opts.plan_horizon - 1;
        }
        let flaw = decision.response.flaw;
        let (mut subgoal, mut followed) = (decision.subgoal, decision.followed_oracle);
        // Guardrail: validate the final decision against what the
        // environment currently affords, repairing per policy. Under `Off`
        // a flawed decision still *lands* — materialized and executed
        // unguarded (the baseline the sweep measures) — but a clean
        // decision takes the zero-cost path: no affordance snapshot, no
        // extra draws, no spans.
        let policy = agent.config.repair_policy;
        let mut reground = false;
        if flaw.is_some() || !policy.is_off() {
            let affordances = self.env.affordances(i);
            let mut stats = RepairStats::default();
            let verdict = crate::guardrail::guard_decision(
                agent.planning.engine_mut(),
                policy,
                &subgoal,
                flaw,
                &affordances,
                agent.preamble.as_deref(),
                goal.as_deref(),
                difficulty,
                Self::infer_opts_for(&agent.config, team_size),
                &mut stats,
            );
            let stall = agent.planning.engine_mut().take_stall();
            Self::note_stall(&mut self.trace, ModuleKind::Planning, i, stall);
            if verdict.validate_latency != SimDuration::ZERO {
                self.trace.record(
                    ModuleKind::Planning,
                    Phase::Validate,
                    i,
                    verdict.validate_latency,
                );
            }
            if verdict.repair_latency != SimDuration::ZERO {
                self.trace.record(
                    ModuleKind::Planning,
                    Phase::Repair,
                    i,
                    verdict.repair_latency,
                );
            }
            // Guardrail re-prompts went back through the shared backend:
            // under a concurrency limit they pay real queue time too.
            if !self.serving.is_passthrough() && !verdict.responses.is_empty() {
                let queue = self.service.queue_solo(plan_tenant, self.trace.now());
                if !queue.is_zero() {
                    self.trace
                        .record(ModuleKind::Planning, Phase::Queue, i, queue);
                }
            }
            responses.extend(verdict.responses);
            if verdict.subgoal != subgoal {
                // The decision was rejected and repaired/skipped: whatever
                // multi-step plan it implied is void.
                followed = false;
                agent.plan_budget = 0;
            }
            subgoal = verdict.subgoal;
            // Re-ground on phantom: validation rejected an entity the
            // world does not afford. Under closed-loop recovery the agent
            // answers with a fresh observation instead of replanning
            // against the same degraded frame next step.
            reground = !self.recovery_policy.is_off() && stats.rejected_hallucinated > 0;
            self.repairs.merge(&stats);
        }
        agent.last_plan = Some(subgoal.clone());
        for response in &responses {
            self.note_llm(response);
        }
        if reground {
            self.recovery_stats.phantom_regrounds += 1;
            self.forced_reobserve(i);
        }
        (subgoal, followed)
    }

    /// Execution phase for one agent: drive the environment, bill compute
    /// and actuation, update failure state and memory.
    pub(crate) fn execute_phase(&mut self, i: usize, subgoal: &Subgoal) -> ExecOutcome {
        let team_size = self.agents.len();
        let difficulty = self.env.difficulty().scalar();
        let agent = &mut self.agents[i];
        let opts = Self::infer_opts_for(&agent.config, team_size);
        let report = agent
            .execution
            .execute(
                self.env.as_mut(),
                i,
                subgoal,
                agent.planning.engine_mut(),
                difficulty,
                opts,
            )
            .expect("micro-control prompt is never empty");
        let stall = agent.planning.engine_mut().take_stall();
        Self::note_stall(&mut self.trace, ModuleKind::Execution, i, stall);
        if report.degraded {
            // A micro-control call faulted out even after retries; the
            // primitive ran without that guidance.
            self.degradations.degraded_execution += 1;
        }
        for resp in &report.micro_responses {
            self.trace
                .record(ModuleKind::Planning, Phase::LlmInference, i, resp.latency);
        }
        let outcome = report.outcome;
        self.trace.record(
            ModuleKind::Execution,
            Phase::GeometricPlanning,
            i,
            outcome.compute,
        );
        self.trace.record(
            ModuleKind::Execution,
            Phase::Actuation,
            i,
            outcome.actuation,
        );

        let agent = &mut self.agents[i];
        agent
            .memory
            .store(RecordKind::Action, outcome.note.clone(), Vec::new());
        if outcome.completed {
            agent.memory.record_skill(subgoal.pattern());
        }
        if outcome.completed || outcome.made_progress {
            agent.last_failure = None;
            agent.failure_streak = 0;
            // The watchdog only counts steps with zero environment
            // progress; any success resets this agent's stuck clock.
            self.last_progress[i] = self.step;
        } else if outcome.note.contains("busy") || outcome.note.contains("waiting") {
            // Resource contention is not an error: the agent queued for a
            // busy station / held for a partner. No belief is wrong, so no
            // perseveration loop or confusion follows.
            agent.plan_budget = 0;
        } else {
            agent.plan_budget = 0; // a broken plan must be re-made
            agent.last_failure = Some((subgoal.clone(), outcome.clone()));
            agent.failure_streak += 1;
        }
        for resp in report.micro_responses {
            self.note_llm(&resp);
        }
        self.counters.progressed |= outcome.made_progress;
        outcome
    }

    /// Delivers a broadcast message to `recipients` (excluding the sender),
    /// counting utility (did any receiver learn something new?). Every
    /// per-recipient delivery runs through the channel fault layer: it can
    /// be dropped, blocked at a partition, duplicated, garbled (text
    /// unusable, entity payload lost), or held for late delivery; crashed
    /// recipients miss the message entirely. A `none()` channel performs
    /// zero draws and delivers exactly as before.
    pub(crate) fn deliver_message_to(
        &mut self,
        from: usize,
        text: Counted<&str>,
        entities: &[String],
        recipients: &[usize],
    ) {
        self.messages.generated += 1;
        let n = self.agents.len();
        let step = self.step;
        let mut useful = false;
        for idx in 0..n {
            if idx == from || !recipients.contains(&idx) {
                continue;
            }
            if self.agent_faults.is_down(idx) {
                self.agent_faults.stats.missed_messages += 1;
                continue;
            }
            let fate = self.channel.fate(from, idx, n);
            let DeliveryFate::Deliver {
                copies,
                corrupt,
                delay,
            } = fate
            else {
                continue; // dropped or partition-blocked
            };
            let (text, entities) = if corrupt {
                (
                    Counted::new(format!("[garbled transmission from agent {from}]")),
                    Vec::new(),
                )
            } else {
                (
                    Counted::with_tokens(text.text().to_owned(), text.tokens()),
                    entities.to_vec(),
                )
            };
            if delay > 0 {
                self.channel.delayed.push(DelayedMessage {
                    deliver_at: step + delay,
                    to: idx,
                    text,
                    entities,
                    copies,
                });
                continue;
            }
            let agent = &mut self.agents[idx];
            if !corrupt && !useful {
                // Point query per payload entity — no per-recipient clone
                // of the full known-entity set.
                useful = entities.iter().any(|e| !agent.memory.knows(e));
            }
            for _ in 0..copies {
                agent
                    .memory
                    .store_counted(RecordKind::Dialogue, text.clone(), entities.clone());
                agent.inbox.push(text.clone());
            }
        }
        if useful {
            self.messages.useful += 1;
        }
    }
}
