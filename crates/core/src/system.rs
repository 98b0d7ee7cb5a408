//! The embodied system: an environment plus its agents (and, for
//! centralized paradigms, a central planner), driven step by step while
//! [`Accounts`] schedules every LLM call and its trace bills every
//! module's simulated latency.

use crate::accounts::Accounts;
use crate::agent::ModularAgent;
use crate::config::AgentConfig;
use crate::faults::{AgentFaultEvent, AgentFaultState, ChannelState, DelayedMessage, DeliveryFate};
use crate::modules::{
    no_entities, CommunicationModule, MemoryModule, Percept, PlanContext, PlanningModule,
    RecordKind,
};
use crate::orchestrator::{self, Paradigm};
use crate::prompt::{system_preamble, Counted, TextSink};
use crate::recovery::RecoveryPolicy;
use embodied_env::{AffordanceSet, Environment, ExecOutcome, FailureKind, Name, Subgoal};
use embodied_llm::{
    EngineBuilder, InferenceOpts, InferenceService, LlmEngine, LlmRequest, Purpose,
};
use embodied_profiler::{
    ascii_tokens, digit_tokens, EpisodeReport, MessageStats, ModuleKind, Outcome, Phase,
    RecoveryStats, RepairStats, SimDuration, Trace,
};
use std::rc::Rc;

/// Nominal watchdog + reboot latency billed when a process crashes.
const CRASH_REBOOT: SimDuration = SimDuration::from_secs(5);

/// Latency of the deterministic failover election round.
const FAILOVER_ELECTION: SimDuration = SimDuration::from_secs(2);

/// Dispatch overhead billed per closed-loop action retry — the decision to
/// re-issue the primitive; the retry's real compute/actuation is billed by
/// the execution phase it re-runs.
const ACT_RETRY_DISPATCH: SimDuration = SimDuration::from_millis(2);

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

/// A fully assembled embodied system ready to run one episode.
pub struct EmbodiedSystem {
    pub(crate) env: Box<dyn Environment>,
    pub(crate) agents: Vec<ModularAgent>,
    pub(crate) central: Option<CentralPlanner>,
    pub(crate) paradigm: Paradigm,
    /// Where every LLM call is scheduled and billed: the trace (the
    /// episode's only time and call ledger), serving stack, batch window
    /// and degradation counters.
    pub(crate) accounts: Accounts,
    pub(crate) messages: MessageStats,
    pub(crate) step: usize,
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
    /// The service scope this system's tenants registered under (0 for a
    /// solo episode); the report reads the service's ledgers by it.
    pub(crate) scope: usize,
    /// The environment's goal text, counted once: it depends only on the
    /// task spec, which is fixed for the episode.
    pub(crate) goal: Counted<String>,
    workload: String,
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
        Self::with_service(workload, env, config, paradigm, seed, service, 0)
    }

    /// Assembles a system whose engines register as tenants of `service`
    /// in episode scope `scope`: scope 0 of its own service for a solo
    /// episode ([`EmbodiedSystem::new`]), one scope of a shared service per
    /// fleet episode.
    pub(crate) fn with_service(
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
        let agents: Vec<ModularAgent> = (0..env.num_agents())
            .map(|id| {
                ModularAgent::new(
                    id,
                    &workload,
                    config.clone(),
                    landmarks.clone(),
                    seed,
                    &service,
                    scope,
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
                        scope,
                    ),
                ),
                communication: config
                    .communicator
                    .as_ref()
                    .filter(|_| config.toggles.communication)
                    .map(|p| {
                        CommunicationModule::new(service.register(
                            builder.wrap(LlmEngine::new(p.clone(), seed ^ 0xcc02), 0x02),
                            scope,
                        ))
                    }),
                memory: MemoryModule::new(
                    config.toggles.memory,
                    config.memory_capacity,
                    config.opts.dual_memory,
                    config.opts.summarization,
                    landmarks,
                ),
                preamble: system_preamble(&workload, "central planning"),
                memory_buf: String::new(),
                prompt_buf: String::new(),
            }),
            _ => None,
        };
        let team = agents.len();
        EmbodiedSystem {
            goal: Counted::new(env.goal_text()),
            env,
            agents,
            central,
            paradigm,
            messages: MessageStats::default(),
            step: 0,
            agent_faults: AgentFaultState::new(config.agent_fault_profile, seed, team),
            channel: ChannelState::new(config.channel_profile, seed),
            repairs: RepairStats::default(),
            recovery_policy: config.recovery_policy,
            recovery_stats: RecoveryStats::default(),
            last_progress: vec![0; team],
            accounts: Accounts::new(service),
            scope,
            workload,
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
        let service = system.accounts.service.clone();
        for (id, config) in configs.iter().enumerate().skip(1) {
            // The replaced agent's tenants stay registered but are never
            // driven again: their ledgers hold zero and stay zero.
            system.agents[id] = ModularAgent::new(
                id,
                &name,
                config.clone(),
                landmarks.clone(),
                seed,
                &service,
                system.scope,
            );
        }
        system
    }

    /// The workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The episode's span timeline (e.g. for [`embodied_profiler::chrome_trace_json`]).
    pub fn trace(&self) -> &Trace {
        &self.accounts.trace
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
        let accounts = &mut self.accounts;
        accounts.trace.begin_step(self.step);
        if !accounts.service.config().is_passthrough() {
            // The step loop is a synchronization barrier: backend
            // queues never carry over into the next step.
            accounts.service.begin_step(accounts.trace.now());
        }
        self.begin_fault_step();
        match self.paradigm {
            Paradigm::SingleModular => orchestrator::single::step(self),
            Paradigm::Centralized => orchestrator::centralized::step(self),
            Paradigm::Decentralized => orchestrator::decentralized::step(self),
            Paradigm::Hybrid => orchestrator::hybrid::step(self),
        }
        self.step += 1;
        true
    }

    /// The episode report as of the current step (final when the episode
    /// has ended).
    pub fn report(&self) -> EpisodeReport {
        // The service ledger covers every engine in the system — agents
        // and central alike — so accounting cannot drift from wiring. Every
        // query reads this episode's scope: a fleet's shared service hosts
        // N episodes' tenants at once.
        let Accounts {
            trace,
            service,
            degradations,
            ..
        } = &self.accounts;
        let mut resilience = *degradations;
        resilience.merge(&service.total_resilience(self.scope));
        let outcome = Outcome::judge(self.env.is_complete(), self.env.progress());
        EpisodeReport {
            messages: self.messages,
            resilience,
            agent_faults: self.agent_faults.stats,
            channel: self.channel.stats,
            repairs: self.repairs,
            serving: service.stats(self.scope),
            serving_faults: service.fault_stats(self.scope),
            env_faults: self.env.env_fault_stats(),
            recovery: self.recovery_stats,
            ..EpisodeReport::from_trace(
                self.workload.clone(),
                outcome,
                trace,
                service.total_usage(self.scope),
                self.agents.len(),
            )
        }
    }

    // ----- shared inference-service scheduling -----

    /// Whether cross-tenant batch windows are enabled.
    pub(crate) fn serving_batching(&self) -> bool {
        self.accounts.service.config().batching
    }

    /// Whether the episode has nothing left to do: the step budget is
    /// spent or the environment reached its goal. `step_once` checks this
    /// before advancing; the fleet runner checks it to tell a parked
    /// episode from a finished one.
    pub(crate) fn episode_over(&self) -> bool {
        self.step >= self.env.max_steps() || self.env.is_complete()
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
                    self.accounts.trace.record(
                        ModuleKind::Execution,
                        Phase::Crash,
                        i,
                        CRASH_REBOOT,
                    );
                }
                AgentFaultEvent::Recovered(_) => {}
                AgentFaultEvent::CoordinatorCrashed => {
                    let host = self.agent_faults.coordinator;
                    self.accounts.trace.record(
                        ModuleKind::Planning,
                        Phase::Crash,
                        host,
                        CRASH_REBOOT,
                    );
                }
            }
        }
        if self.central.is_some() && self.agent_faults.coordinator_down() {
            if let Some(promoted) = self.agent_faults.maybe_failover(step) {
                self.accounts.trace.record(
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
        let n = self.agents.len();
        let opts = Self::infer_opts_for(&self.agents[0].config, n);
        let Some(central) = self.central.as_mut() else {
            return;
        };
        let prompt = format!(
            "{}\n[failover] agent {promoted} is assuming the coordinator role. \
             Re-synchronize: re-ingest the status of all {n} agents and the \
             task goal ({}), then resume joint planning.",
            central.preamble.text(),
            self.goal.text()
        );
        let engine = central.planning.engine_mut();
        let result = engine.infer(
            LlmRequest::new(Purpose::Planning, &prompt, 40 + 10 * n as u64)
                .with_difficulty(difficulty)
                .with_opts(opts),
        );
        // A faulted re-sync leaves the promoted coordinator to start from
        // whatever the central memory holds.
        let accounts = &mut self.accounts;
        if let Some(response) = accounts.settle(engine, ModuleKind::Planning, promoted, result) {
            accounts.trace.record_call(
                ModuleKind::Planning,
                Phase::Resync,
                promoted,
                response.latency,
                &[response.call()],
            );
            self.agent_faults.stats.resync_tokens +=
                response.prompt_tokens + response.output_tokens;
        }
    }

    /// [`EmbodiedSystem::sense_phase`] for fault-aware loops: a crashed or
    /// stalled agent files no report, so the caller gets a placeholder
    /// percept that touches neither the environment nor the agent's memory.
    pub(crate) fn sense_phase_or_placeholder(&mut self, i: usize) -> Percept {
        if self.agent_faults.is_active(i) {
            self.sense_phase(i)
        } else {
            let text = format!("agent {i} unresponsive (no report this step)");
            let tokens = const { ascii_tokens("agent unresponsive (no report this step)") }
                + digit_tokens(i);
            Percept {
                entities: no_entities(),
                text: Counted::with_tokens(text.into(), tokens),
                location: Name::default(),
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
                    Rc::clone(&msg.entities),
                );
                agent.inbox.push(msg.text.clone());
            }
        }
    }

    // ----- shared phase helpers used by the orchestrators -----

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
        self.accounts
            .trace
            .record(ModuleKind::Sensing, Phase::Reobserve, i, latency);
        self.recovery_stats.reobserve_latency += latency;
        agent.memory.store_counted(
            RecordKind::Observation,
            percept.text.clone(),
            Rc::clone(&percept.entities),
        );
        agent.map.integrate(&percept, self.step);
    }

    /// Retry budget exhausted: the agent escalates to a real
    /// diagnose-and-replan inference — one planning call reasoning about
    /// the repeated actuation failure — billed to the recovery ledger in
    /// tokens and dollars and voiding any multi-step plan budget.
    fn escalate_replan(&mut self, i: usize, subgoal: &Subgoal) {
        let difficulty = self.env.difficulty().scalar();
        let team_size = self.agents.len();
        self.recovery_stats.replan_escalations += 1;
        let agent = &mut self.agents[i];
        let opts = Self::infer_opts_for(&agent.config, team_size);
        let prompt = format!(
            "{}\n[recovery] action {subgoal} keeps failing despite retries. \
             Diagnose the failure against the task goal ({}) and produce \
             a fresh plan that routes around the broken actuator or \
             misperceived object.",
            agent.preamble.text(),
            self.goal.text()
        );
        let engine = agent.planning.engine_mut();
        let result = engine.infer(
            LlmRequest::new(Purpose::Planning, &prompt, 40)
                .with_difficulty(difficulty)
                .with_opts(opts),
        );
        agent.plan_budget = 0;
        // A faulted escalation leaves the agent to replan cold next step
        // from whatever its memory holds.
        let accounts = &mut self.accounts;
        if let Some(response) = accounts.settle(engine, ModuleKind::Planning, i, result) {
            self.recovery_stats.recovery_tokens += response.prompt_tokens + response.output_tokens;
            self.recovery_stats.recovery_cost_usd += response.cost_usd;
            accounts.serve(ModuleKind::Planning, i, engine.tenant(), &response, false);
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
        self.accounts
            .trace
            .record(ModuleKind::Sensing, Phase::Encoding, i, latency);
        agent.memory.begin_step(self.step);
        agent.memory.store_counted(
            RecordKind::Observation,
            percept.text.clone(),
            Rc::clone(&percept.entities),
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
    /// Resource contention ([`FailureKind::Busy`]) is not an actuation fault
    /// and is never retried.
    pub(crate) fn execute_with_reflection(&mut self, i: usize, subgoal: &Subgoal) -> ExecOutcome {
        let mut outcome = self.reflect_and_execute(i, subgoal);
        let budget = self.recovery_policy.act_retries();
        // Retry only *unexplained* failures — the action was afforded yet
        // produced no observable effect at all ([`FailureKind::NoEffect`]).
        // A failure that comes back with a reason is deterministic: the
        // normal plan loop handles it, and re-issuing the same action would
        // burn latency at zero fault rates for nothing.
        if budget == 0 || outcome.kind != FailureKind::NoEffect || subgoal.is_idle() {
            return outcome;
        }
        for _ in 0..budget {
            self.recovery_stats.act_retries += 1;
            self.accounts.trace.record(
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
            if outcome.kind != FailureKind::NoEffect {
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
        let result = reflection.reflect(
            agent.preamble.as_deref(),
            subgoal,
            &outcome,
            difficulty,
            opts,
        );
        let engine = reflection.engine_mut();
        let Some(verdict) = self
            .accounts
            .settle(engine, ModuleKind::Reflection, i, result)
        else {
            // Degrade: the failure stays undiagnosed this step — no
            // retry, no blacklist, no belief cleanup.
            return outcome;
        };
        self.accounts.serve(
            ModuleKind::Reflection,
            i,
            engine.tenant(),
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
        outcome
    }

    /// Planning phase for one agent: knowledge-filter the menus, run the
    /// LLM (or consume the multi-step plan budget) over the agent's memory
    /// and inbox, return the decision.
    pub(crate) fn plan_phase(&mut self, i: usize, percept: &Percept) -> (Subgoal, bool) {
        let team_size = self.agents.len();
        let difficulty = self.env.difficulty().scalar();
        let goal = self.goal.as_deref();
        let oracle_raw = self.env.oracle_subgoals(i);
        let candidates_raw = self.env.candidate_subgoals(i);
        let step = self.step;

        let agent = &mut self.agents[i];
        let policy = agent.config.repair_policy;
        // Under a repair policy the guardrail validates against this same
        // unfiltered menu: nothing acts on the environment in between.
        let afforded = (!policy.is_off()).then(|| candidates_raw.clone());
        agent.expire_blacklist(step);
        // Point-query knowledge filtering: `memory.knows` answers per
        // entity against the incremental last-seen index, so no per-step
        // `HashSet` of every known entity is materialized. An entity in
        // the current percept is known even if memory marked it stale —
        // fresh observation wins, as in `ModularAgent::knowledge`.
        let knows = |e: &Name| agent.memory.knows(e) || percept.entities.contains(e);
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
        // bring their counts from where their lines were made; when the
        // prompt is rendered they write into the agent's reusable buffer,
        // with no per-step allocation.
        let mut memory = TextSink::for_engine(&mut agent.memory_buf, agent.planning.engine());
        agent.map.write_context(&mut memory);
        let retrieval = agent.memory.retrieve(&mut memory);
        self.accounts
            .trace
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
            .map(|sg| agent.memory.skill_bonus(sg.kind()))
            .unwrap_or(0.0);
        let ctx = PlanContext {
            preamble: agent.preamble.as_deref(),
            goal,
            percept: percept.text.as_deref(),
            memory: memory.finish(),
            dialogue: &agent.inbox,
            oracle,
            candidates,
            difficulty,
            opts: Self::infer_opts_for(&agent.config, team_size),
            quality_penalty: (retrieval.inconsistency_penalty + failure_confusion - skill_bonus)
                .max(0.0),
            repeat_bias: agent.last_failure.clone(),
            failure_streak: agent.failure_streak,
        };
        let planned = agent.planning.plan(&ctx);
        let accounts = &mut self.accounts;
        let Some(mut decision) = accounts.settle(
            agent.planning.engine_mut(),
            ModuleKind::Planning,
            i,
            planned,
        ) else {
            // Degrade: fall back to the last successfully planned
            // subgoal (stale but coherent), else explore.
            return (agent.last_plan.clone().unwrap_or(Subgoal::Explore), false);
        };
        let plan_tenant = agent.planning.engine().tenant();
        // The first planning response is an independent (cohort) request:
        // under an open window it is deferred and re-attributed at close.
        accounts.serve(
            ModuleKind::Planning,
            i,
            plan_tenant,
            &decision.response,
            true,
        );

        if agent.config.separate_action_selection {
            let selected = agent.planning.select_action(&ctx, decision.clone());
            let engine = agent.planning.engine_mut();
            // On failure, degrade: skip the selection pass, keep the plan.
            if let Some(d) = accounts.settle(engine, ModuleKind::Planning, i, selected) {
                decision = d;
                accounts.serve(
                    ModuleKind::Planning,
                    i,
                    plan_tenant,
                    &decision.response,
                    false,
                );
            }
        }
        // Pre-execution plan verification: reflective systems check every
        // plan before acting (MP5's patroller, DEPS's CLIP check); a wrong
        // plan that is recognized as wrong triggers one replanning pass.
        // A failed verification is skipped; a failed replan acts on the
        // suspect plan rather than stall the step.
        if let Some(reflection) = agent.reflection.as_mut() {
            let verified = reflection.verify_plan(
                agent.preamble.as_deref(),
                &decision.subgoal,
                !decision.followed_oracle,
                difficulty,
                Self::infer_opts_for(&agent.config, team_size),
            );
            let engine = reflection.engine_mut();
            if let Some((caught, verify_response)) =
                accounts.settle(engine, ModuleKind::Reflection, i, verified)
            {
                let tenant = engine.tenant();
                accounts.serve(ModuleKind::Reflection, i, tenant, &verify_response, false);
                if caught {
                    let replanned = agent.planning.plan(&ctx);
                    let engine = agent.planning.engine_mut();
                    if let Some(d) = accounts.settle(engine, ModuleKind::Planning, i, replanned) {
                        decision = d;
                        accounts.serve(
                            ModuleKind::Planning,
                            i,
                            plan_tenant,
                            &decision.response,
                            false,
                        );
                    }
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
        let mut reground = false;
        if flaw.is_some() || !policy.is_off() {
            let affordances = match afforded {
                Some(menu) => AffordanceSet::from_candidates(menu),
                // A flaw that lands under `Off`: no menu was kept.
                None => self.env.affordances(i),
            };
            let mut stats = RepairStats::default();
            let verdict = crate::guardrail::guard_decision(
                agent.planning.engine_mut(),
                policy,
                &subgoal,
                flaw,
                &affordances,
                agent.preamble.as_deref(),
                goal,
                difficulty,
                Self::infer_opts_for(&agent.config, team_size),
                &mut stats,
            );
            let accounts = &mut self.accounts;
            accounts.stall(agent.planning.engine_mut(), ModuleKind::Planning, i);
            accounts.guardrail(i, &verdict);
            accounts.queue_reprompts(i, plan_tenant, &verdict);
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
        // A micro-control call that failed (faulted past its retries, shed,
        // or past its deadline) degrades the primitive it was guiding.
        let accounts = &mut self.accounts;
        let guided = report.failure.map_or(Ok(()), Err);
        accounts.settle(
            agent.planning.engine_mut(),
            ModuleKind::Execution,
            i,
            guided,
        );
        for resp in &report.micro_responses {
            accounts.trace.record_call(
                ModuleKind::Planning,
                Phase::LlmInference,
                i,
                resp.latency,
                &[resp.call()],
            );
        }
        let outcome = report.outcome;
        accounts.trace.record(
            ModuleKind::Execution,
            Phase::GeometricPlanning,
            i,
            outcome.compute,
        );
        accounts.trace.record(
            ModuleKind::Execution,
            Phase::Actuation,
            i,
            outcome.actuation,
        );

        let agent = &mut self.agents[i];
        agent
            .memory
            .store(RecordKind::Action, outcome.note.as_str(), no_entities());
        if outcome.completed {
            agent.memory.record_skill(subgoal.kind());
        }
        if outcome.completed || outcome.made_progress {
            agent.last_failure = None;
            agent.failure_streak = 0;
            // The watchdog only counts steps with zero environment
            // progress; any success resets this agent's stuck clock.
            self.last_progress[i] = self.step;
        } else if outcome.kind == FailureKind::Busy {
            // Resource contention is not an error: the agent queued for a
            // busy station / held for a partner. No belief is wrong, so no
            // perseveration loop or confusion follows.
            agent.plan_budget = 0;
        } else {
            agent.plan_budget = 0; // a broken plan must be re-made
            agent.last_failure = Some(subgoal.clone());
            agent.failure_streak += 1;
        }
        if outcome.made_progress {
            self.accounts.trace.mark_progress();
        }
        outcome
    }

    /// Delivers a broadcast message to `recipients`, in strictly increasing
    /// order and skipping the sender, counting utility (did any receiver
    /// learn something new?). Every per-recipient delivery runs through the
    /// channel fault layer: it can be dropped, blocked at a partition,
    /// duplicated, garbled (text unusable, entity payload lost), or held
    /// for late delivery; crashed recipients miss the message entirely. A
    /// `none()` channel performs zero draws and delivers exactly as before.
    pub(crate) fn deliver_message_to(
        &mut self,
        from: usize,
        text: &Counted<Rc<str>>,
        entities: &Rc<[Name]>,
        recipients: &[usize],
    ) {
        debug_assert!(recipients.windows(2).all(|w| w[0] < w[1]));
        self.messages.generated += 1;
        let n = self.agents.len();
        let step = self.step;
        let mut useful = false;
        for &idx in recipients {
            if idx == from {
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
                let garbled = format!("[garbled transmission from agent {from}]");
                let tokens = const { ascii_tokens("[garbled transmission from agent]") }
                    + digit_tokens(from);
                (Counted::with_tokens(garbled.into(), tokens), no_entities())
            } else {
                (text.clone(), Rc::clone(entities))
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
                agent.memory.store_counted(
                    RecordKind::Dialogue,
                    text.clone(),
                    Rc::clone(&entities),
                );
                agent.inbox.push(text.clone());
            }
        }
        if useful {
            self.messages.useful += 1;
        }
    }
}
