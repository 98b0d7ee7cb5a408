//! Scenario genotypes: the heritable encoding of one adversarial fault
//! scenario for the evolutionary search in [`mod@crate::evolve`].
//!
//! A genotype fixes everything an episode's robustness depends on — which
//! suite member runs (within one cooperation paradigm), team size and task
//! difficulty, all **five** fault planes (LLM transport, agent/channel,
//! semantic content, serving infrastructure, embodied perception/actuation),
//! and the mitigation policies layered on top (retry preset, guardrail
//! repair policy, serving resilience preset, closed-loop recovery). Its
//! phenotype is a plain [`RunOverrides`], so an evolved scenario replays
//! through the exact same orchestrator stack as every hand-written sweep —
//! there is no separate "evolution" code path in the episode engine.
//!
//! Determinism contract: all mutation/crossover randomness comes from the
//! caller's [`StdRng`] (the evolution loop keeps that RNG on the main
//! thread), every rate is quantized to 3 decimals so genotypes render to
//! byte-identical JSON, and a genotype whose [`fault_budget`] is zero
//! applies only profiles whose `is_none()` fast paths perform **zero**
//! fault-stream draws — its episodes replay byte-identically to runs
//! without any fault plane configured at all.
//!
//! [`fault_budget`]: ScenarioGenotype::fault_budget

use embodied_agents::{
    workloads, AgentFaultProfile, ChannelProfile, Paradigm, RecoveryPolicy, RepairPolicy,
    RunOverrides, WorkloadSpec,
};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_llm::{
    FaultProfile, RetryPolicy, SemanticFaultProfile, ServingConfig, ServingFaultProfile,
};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Per-kind cap on LLM transport error rates (timeout, rate limit, server
/// error, truncated output).
const MAX_LLM_ERROR: f64 = 0.08;
/// Cap on the LLM latency-spike rate.
const MAX_LLM_SPIKE: f64 = 0.15;
/// Cap on agent-plane rates (crash, stall, coordinator crash).
const MAX_AGENT: f64 = 0.08;
/// Cap on channel-plane rates (drop, duplicate, corrupt, delay, partition).
const MAX_CHANNEL: f64 = 0.12;
/// Per-kind cap on semantic content-corruption rates.
const MAX_SEMANTIC: f64 = 0.12;
/// Cap on the summed semantic rate (they share one cumulative draw).
const MAX_SEMANTIC_TOTAL: f64 = 0.4;
/// Cap on serving-plane rates (replica crash, brownout).
const MAX_SERVING: f64 = 0.15;
/// Cap on embodied-plane rates (perception dropout/phantom/stale/misread,
/// actuation silent-fail/slip/downtime). Embodied faults bite hard — a
/// phantom poisons a whole plan — so the cap sits below the channel cap.
const MAX_ENV: f64 = 0.10;
/// Largest multi-agent team the search may request.
const MAX_TEAM: usize = 4;

/// Short names of the fault planes in [`ScenarioGenotype::summary`]: LLM
/// transport, agent, channel, semantic, serving and embodied.
const PLANES: [&str; 6] = ["llm", "agent", "chan", "sem", "srv", "env"];

/// Quantizes a rate to 3 decimals so genotype JSON is byte-stable and the
/// fault budget is exact decimal arithmetic.
fn q3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// A fresh rate in `[0, max]`, quantized.
fn draw_rate(rng: &mut StdRng, max: f64) -> f64 {
    q3(rng.gen_range(0.0..=max))
}

/// Nudges a rate by up to ±0.04, clamped to `[0, max]`, quantized.
fn nudge_rate(rng: &mut StdRng, cur: f64, max: f64) -> f64 {
    q3((cur + rng.gen_range(-0.04..=0.04)).clamp(0.0, max))
}

/// Retry-policy preset gene — the three policies the fixed sweeps compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPreset {
    /// [`RetryPolicy::none`]: one attempt, every fault surfaces.
    None,
    /// [`RetryPolicy::standard`]: production-shaped backoff.
    Standard,
    /// [`RetryPolicy::aggressive`]: retry hard, wait long.
    Aggressive,
}

impl RetryPreset {
    /// All presets, in draw order.
    pub const ALL: [RetryPreset; 3] = [
        RetryPreset::None,
        RetryPreset::Standard,
        RetryPreset::Aggressive,
    ];

    /// The concrete policy this preset names.
    pub fn policy(self) -> RetryPolicy {
        match self {
            RetryPreset::None => RetryPolicy::none(),
            RetryPreset::Standard => RetryPolicy::standard(),
            RetryPreset::Aggressive => RetryPolicy::aggressive(),
        }
    }
}

impl fmt::Display for RetryPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetryPreset::None => "none",
            RetryPreset::Standard => "standard",
            RetryPreset::Aggressive => "aggressive",
        })
    }
}

/// Serving-stack preset gene — how the shared inference service is wired
/// (replication, SLO deadline, hedging, shedding). Faults ride separately
/// in [`ScenarioGenotype::serving_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingPreset {
    /// Pass-through service: single infallible-scheduling replica, no SLO
    /// machinery (the legacy per-module path).
    Passthrough,
    /// Three replicas behind a 2-slot concurrency limit — failover has a
    /// healthy peer to target but no SLO tier is active.
    Replicated,
    /// Two replicas, 2 slots, 30 s deadline and no hedging/shedding — the
    /// tier where brownouts and cold restarts blow the SLO directly.
    TightSlo,
    /// Three replicas, 2 slots, 30 s deadline, 2 s hedging, shedding past 3
    /// placements — the full mitigation stack (which an adversary can still
    /// turn into wasted hedges and shed work).
    Guarded,
}

impl ServingPreset {
    /// All presets, in draw order.
    pub const ALL: [ServingPreset; 4] = [
        ServingPreset::Passthrough,
        ServingPreset::Replicated,
        ServingPreset::TightSlo,
        ServingPreset::Guarded,
    ];

    /// The concrete serving configuration (fault-free; the genotype's
    /// serving faults are layered on by [`ScenarioGenotype::overrides`]).
    pub fn config(self) -> ServingConfig {
        match self {
            ServingPreset::Passthrough => ServingConfig::default(),
            ServingPreset::Replicated => ServingConfig::limited(2).with_replicas(3),
            ServingPreset::TightSlo => ServingConfig::limited(2)
                .with_replicas(2)
                .with_deadline(SimDuration::from_secs(30)),
            ServingPreset::Guarded => ServingConfig::limited(2)
                .with_replicas(3)
                .with_deadline(SimDuration::from_secs(30))
                .with_hedging(SimDuration::from_secs(2))
                .with_shedding(3),
        }
    }
}

impl fmt::Display for ServingPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServingPreset::Passthrough => "passthrough",
            ServingPreset::Replicated => "replicated",
            ServingPreset::TightSlo => "tight-slo",
            ServingPreset::Guarded => "guarded",
        })
    }
}

/// One heritable fault scenario: workload + shape + all five fault planes +
/// mitigation policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGenotype {
    /// Suite member to run (always one of its paradigm's systems).
    pub system: String,
    /// Task difficulty.
    pub difficulty: TaskDifficulty,
    /// Team size (always 1 for single-modular systems).
    pub num_agents: usize,
    /// Fault plane 1: LLM transport faults.
    pub llm: FaultProfile,
    /// Retry/backoff mitigation for the transport plane.
    pub retry: RetryPreset,
    /// Fault plane 2a: agent-process faults.
    pub agent: AgentFaultProfile,
    /// Fault plane 2b: message-channel faults.
    pub channel: ChannelProfile,
    /// Fault plane 3: semantic content corruption.
    pub semantic: SemanticFaultProfile,
    /// Guardrail mitigation for the semantic plane.
    pub repair: RepairPolicy,
    /// Serving-stack wiring (replication/SLO tier).
    pub serving: ServingPreset,
    /// Fault plane 4: serving-infrastructure faults.
    pub serving_faults: ServingFaultProfile,
    /// Fault plane 5: embodied perception/actuation faults.
    pub env: EnvFaultProfile,
    /// Closed-loop recovery mitigation for the embodied plane.
    pub recovery: RecoveryPolicy,
}

/// The suite members of one paradigm, in registry order — the gene pool for
/// the `system` gene.
pub fn systems_of(paradigm: Paradigm) -> Vec<WorkloadSpec> {
    workloads::registry()
        .into_iter()
        .filter(|spec| spec.paradigm == paradigm)
        .collect()
}

impl ScenarioGenotype {
    /// Draws a random scenario for `paradigm` from `rng`, every plane and
    /// mitigation included.
    pub fn random(paradigm: Paradigm, rng: &mut StdRng) -> Self {
        let systems = systems_of(paradigm);
        assert!(!systems.is_empty(), "paradigm {paradigm} has no systems");
        let spec = &systems[rng.gen_range(0..systems.len())];
        let num_agents = if spec.is_multi_agent() {
            rng.gen_range(2..=MAX_TEAM)
        } else {
            1
        };
        let difficulty = TaskDifficulty::ALL[rng.gen_range(0..TaskDifficulty::ALL.len())];
        ScenarioGenotype {
            system: spec.name.to_string(),
            difficulty,
            num_agents,
            llm: draw_llm(rng),
            retry: RetryPreset::ALL[rng.gen_range(0..RetryPreset::ALL.len())],
            agent: draw_agent(rng),
            channel: draw_channel(rng),
            semantic: draw_semantic(rng),
            repair: draw_repair(rng),
            serving: ServingPreset::ALL[rng.gen_range(0..ServingPreset::ALL.len())],
            serving_faults: draw_serving_faults(rng),
            env: draw_env(rng),
            recovery: draw_recovery(rng),
        }
    }

    /// The paradigm this genotype's system belongs to.
    pub fn paradigm(&self) -> Paradigm {
        workloads::find(&self.system)
            .unwrap_or_else(|| panic!("unknown system {:?}", self.system))
            .paradigm
    }

    /// Injected-fault probability mass per plane, in [`PLANES`] order.
    fn plane_masses(&self) -> [f64; 6] {
        [
            self.llm.error_rate() + self.llm.latency_spike,
            self.agent.crash + self.agent.stall + self.agent.coordinator_crash,
            self.channel.drop
                + self.channel.duplicate
                + self.channel.corrupt
                + self.channel.delay
                + self.channel.partition,
            self.semantic.error_rate(),
            self.serving_faults.crash_rate + self.serving_faults.brownout_rate,
            self.env.perception_mass() + self.env.actuation_mass(),
        ]
    }

    /// Total injected-fault probability mass across all planes — the
    /// denominator of the damage-per-budget fitness. Zero budget means
    /// every plane's `is_none()` fast path is taken and episodes perform
    /// zero fault-stream draws.
    pub fn fault_budget(&self) -> f64 {
        self.plane_masses().iter().sum()
    }

    /// The phenotype: plain run overrides replaying this scenario through
    /// the standard orchestrator stack.
    pub fn overrides(&self) -> RunOverrides {
        RunOverrides {
            difficulty: Some(self.difficulty),
            num_agents: Some(self.num_agents),
            fault_profile: Some(self.llm),
            retry_policy: Some(self.retry.policy()),
            agent_faults: Some(self.agent),
            channel: Some(self.channel),
            semantic_faults: Some(self.semantic),
            repair_policy: Some(self.repair),
            serving: Some(self.serving.config()),
            serving_faults: Some(self.serving_faults),
            env_faults: Some(self.env),
            recovery_policy: Some(self.recovery),
            ..Default::default()
        }
    }

    /// Structural validity: the system exists, the team size is legal, and
    /// every fault profile passes its validated constructor within the
    /// search caps. Mutation and crossover must preserve this.
    pub fn validate(&self) -> Result<(), String> {
        let spec = workloads::find(&self.system)
            .ok_or_else(|| format!("unknown system {:?}", self.system))?;
        if spec.is_multi_agent() {
            if !(2..=MAX_TEAM).contains(&self.num_agents) {
                return Err(format!("team size {} out of range", self.num_agents));
            }
        } else if self.num_agents != 1 {
            return Err(format!(
                "single-modular system with team size {}",
                self.num_agents
            ));
        }
        self.llm.validated().map_err(|e| format!("llm: {e}"))?;
        self.agent.validated().map_err(|e| format!("agent: {e}"))?;
        self.channel
            .validated()
            .map_err(|e| format!("channel: {e}"))?;
        self.semantic
            .validated()
            .map_err(|e| format!("semantic: {e}"))?;
        self.serving_faults
            .validated()
            .map_err(|e| format!("serving: {e}"))?;
        self.env.validated().map_err(|e| format!("env: {e}"))?;
        self.recovery
            .validated()
            .map_err(|e| format!("recovery: {e}"))?;
        if self.semantic.error_rate() > MAX_SEMANTIC_TOTAL + 1e-9 {
            return Err(format!(
                "semantic total {} exceeds search cap {MAX_SEMANTIC_TOTAL}",
                self.semantic.error_rate()
            ));
        }
        Ok(())
    }

    /// Mutates one to two gene groups in place. All randomness comes from
    /// `rng`; the result always passes [`ScenarioGenotype::validate`].
    pub fn mutate(&mut self, rng: &mut StdRng) {
        let ops = 1 + rng.gen_range(0..2);
        for _ in 0..ops {
            match rng.gen_range(0..9) {
                0 => self.mutate_shape(rng),
                1 => {
                    for rate in [
                        &mut self.llm.timeout,
                        &mut self.llm.rate_limit,
                        &mut self.llm.server_error,
                        &mut self.llm.truncated_output,
                    ] {
                        if rng.gen_bool(0.5) {
                            *rate = nudge_rate(rng, *rate, MAX_LLM_ERROR);
                        }
                    }
                    self.llm.latency_spike = nudge_rate(rng, self.llm.latency_spike, MAX_LLM_SPIKE);
                }
                2 => self.retry = RetryPreset::ALL[rng.gen_range(0..RetryPreset::ALL.len())],
                3 => {
                    self.agent.crash = nudge_rate(rng, self.agent.crash, MAX_AGENT);
                    self.agent.stall = nudge_rate(rng, self.agent.stall, MAX_AGENT);
                    self.agent.coordinator_crash =
                        nudge_rate(rng, self.agent.coordinator_crash, MAX_AGENT);
                    if rng.gen_bool(0.25) {
                        self.agent.failover = !self.agent.failover;
                    }
                }
                4 => {
                    for rate in [
                        &mut self.channel.drop,
                        &mut self.channel.duplicate,
                        &mut self.channel.corrupt,
                        &mut self.channel.delay,
                        &mut self.channel.partition,
                    ] {
                        if rng.gen_bool(0.5) {
                            *rate = nudge_rate(rng, *rate, MAX_CHANNEL);
                        }
                    }
                }
                5 => {
                    for rate in [
                        &mut self.semantic.malformed,
                        &mut self.semantic.hallucinated_entity,
                        &mut self.semantic.invalid_action,
                        &mut self.semantic.context_truncation,
                    ] {
                        if rng.gen_bool(0.5) {
                            *rate = nudge_rate(rng, *rate, MAX_SEMANTIC);
                        }
                    }
                    clamp_semantic(&mut self.semantic);
                }
                6 => self.repair = draw_repair(rng),
                7 => {
                    if rng.gen_bool(0.5) {
                        self.serving =
                            ServingPreset::ALL[rng.gen_range(0..ServingPreset::ALL.len())];
                    } else {
                        self.serving_faults.crash_rate =
                            nudge_rate(rng, self.serving_faults.crash_rate, MAX_SERVING);
                        self.serving_faults.brownout_rate =
                            nudge_rate(rng, self.serving_faults.brownout_rate, MAX_SERVING);
                        sync_serving_durations(&mut self.serving_faults);
                    }
                }
                8 => {
                    if rng.gen_bool(0.25) {
                        self.recovery = draw_recovery(rng);
                    } else {
                        for rate in [
                            &mut self.env.dropout,
                            &mut self.env.phantom,
                            &mut self.env.stale,
                            &mut self.env.misread,
                            &mut self.env.silent_fail,
                            &mut self.env.slip,
                            &mut self.env.actuator_down,
                        ] {
                            if rng.gen_bool(0.5) {
                                *rate = nudge_rate(rng, *rate, MAX_ENV);
                            }
                        }
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Mutates the workload-shape genes: system (within the paradigm),
    /// difficulty, or team size.
    fn mutate_shape(&mut self, rng: &mut StdRng) {
        match rng.gen_range(0..3) {
            0 => {
                let systems = systems_of(self.paradigm());
                let spec = &systems[rng.gen_range(0..systems.len())];
                self.system = spec.name.to_string();
                self.num_agents = if spec.is_multi_agent() {
                    self.num_agents.clamp(2, MAX_TEAM)
                } else {
                    1
                };
            }
            1 => {
                self.difficulty = TaskDifficulty::ALL[rng.gen_range(0..TaskDifficulty::ALL.len())];
            }
            _ => {
                if workloads::find(&self.system)
                    .expect("valid system")
                    .is_multi_agent()
                {
                    self.num_agents = rng.gen_range(2..=MAX_TEAM);
                }
            }
        }
    }

    /// Uniform per-gene crossover: each gene group comes from `a` or `b`
    /// with equal probability. `a` donates the workload-shape genes
    /// (system/difficulty/team) as one linked block so the child never
    /// pairs a team size with the wrong paradigm.
    pub fn crossover(a: &ScenarioGenotype, b: &ScenarioGenotype, rng: &mut StdRng) -> Self {
        let shape = if rng.gen_bool(0.5) { a } else { b };
        let pick = |rng: &mut StdRng| rng.gen_bool(0.5);
        ScenarioGenotype {
            system: shape.system.clone(),
            difficulty: shape.difficulty,
            num_agents: shape.num_agents,
            llm: if pick(rng) { a.llm } else { b.llm },
            retry: if pick(rng) { a.retry } else { b.retry },
            agent: if pick(rng) { a.agent } else { b.agent },
            channel: if pick(rng) { a.channel } else { b.channel },
            semantic: if pick(rng) { a.semantic } else { b.semantic },
            repair: if pick(rng) { a.repair } else { b.repair },
            serving: if pick(rng) { a.serving } else { b.serving },
            serving_faults: if pick(rng) {
                a.serving_faults
            } else {
                b.serving_faults
            },
            env: if pick(rng) { a.env } else { b.env },
            recovery: if pick(rng) { a.recovery } else { b.recovery },
        }
    }

    /// One-line plane summary for reports: only the non-zero planes, with
    /// their probability mass.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for (plane, mass) in PLANES.into_iter().zip(self.plane_masses()) {
            if mass > 0.0 {
                let failover = match plane {
                    "agent" if self.agent.failover => "+fo",
                    "agent" => "-fo",
                    _ => "",
                };
                parts.push(format!("{plane} {mass:.3}{failover}"));
            }
        }
        if parts.is_empty() {
            parts.push("no faults".into());
        }
        let recovery = if self.recovery.is_off() {
            String::new()
        } else {
            format!(" recovery={}", self.recovery)
        };
        format!(
            "{} retry={} repair={} serving={}{}",
            parts.join(" "),
            self.retry,
            self.repair,
            self.serving,
            recovery
        )
    }

    /// Canonical byte-stable identity used for deduplication and caching:
    /// the genotype as a scenario fixture stores it.
    pub fn key(&self) -> String {
        crate::fixture::genotype_json(self)
    }
}

/// Scales the semantic profile back under the search's total-rate cap.
fn clamp_semantic(p: &mut SemanticFaultProfile) {
    let total = p.error_rate();
    if total > MAX_SEMANTIC_TOTAL {
        let scale = MAX_SEMANTIC_TOTAL / total;
        p.malformed = q3(p.malformed * scale);
        p.hallucinated_entity = q3(p.hallucinated_entity * scale);
        p.invalid_action = q3(p.invalid_action * scale);
        p.context_truncation = q3(p.context_truncation * scale);
    }
}

/// Keeps the serving profile's duration fields consistent with whether its
/// rates can fire (crash needs a restart window; zero-rate planes keep the
/// `none()` shape so zero-budget genotypes stay draw-free).
fn sync_serving_durations(p: &mut ServingFaultProfile) {
    if p.crash_rate > 0.0 {
        p.restart = SimDuration::from_secs(20);
    } else {
        p.restart = SimDuration::ZERO;
    }
    p.brownout_factor = if p.brownout_rate > 0.0 { 3.0 } else { 1.0 };
}

fn draw_llm(rng: &mut StdRng) -> FaultProfile {
    let mut p = FaultProfile {
        timeout: draw_rate(rng, MAX_LLM_ERROR),
        rate_limit: draw_rate(rng, MAX_LLM_ERROR),
        server_error: draw_rate(rng, MAX_LLM_ERROR),
        truncated_output: draw_rate(rng, MAX_LLM_ERROR),
        latency_spike: draw_rate(rng, MAX_LLM_SPIKE),
        ..FaultProfile::none()
    };
    if !p.is_none() {
        p.spike_factor = 3.0;
        p.retry_after = SimDuration::from_millis(250);
    }
    p
}

fn draw_agent(rng: &mut StdRng) -> AgentFaultProfile {
    AgentFaultProfile {
        crash: draw_rate(rng, MAX_AGENT),
        stall: draw_rate(rng, MAX_AGENT),
        coordinator_crash: draw_rate(rng, MAX_AGENT),
        failover: rng.gen_bool(0.5),
        ..AgentFaultProfile::none()
    }
}

fn draw_channel(rng: &mut StdRng) -> ChannelProfile {
    ChannelProfile {
        drop: draw_rate(rng, MAX_CHANNEL),
        duplicate: draw_rate(rng, MAX_CHANNEL),
        corrupt: draw_rate(rng, MAX_CHANNEL),
        delay: draw_rate(rng, MAX_CHANNEL),
        partition: draw_rate(rng, MAX_CHANNEL),
        ..ChannelProfile::none()
    }
}

fn draw_semantic(rng: &mut StdRng) -> SemanticFaultProfile {
    let mut p = SemanticFaultProfile {
        malformed: draw_rate(rng, MAX_SEMANTIC),
        hallucinated_entity: draw_rate(rng, MAX_SEMANTIC),
        invalid_action: draw_rate(rng, MAX_SEMANTIC),
        context_truncation: draw_rate(rng, MAX_SEMANTIC),
    };
    clamp_semantic(&mut p);
    p
}

fn draw_repair(rng: &mut StdRng) -> RepairPolicy {
    match rng.gen_range(0..4) {
        0 => RepairPolicy::Off,
        1 => RepairPolicy::Reprompt { max_attempts: 2 },
        2 => RepairPolicy::Constrain,
        _ => RepairPolicy::Skip,
    }
}

fn draw_env(rng: &mut StdRng) -> EnvFaultProfile {
    EnvFaultProfile {
        dropout: draw_rate(rng, MAX_ENV),
        phantom: draw_rate(rng, MAX_ENV),
        stale: draw_rate(rng, MAX_ENV),
        misread: draw_rate(rng, MAX_ENV),
        silent_fail: draw_rate(rng, MAX_ENV),
        slip: draw_rate(rng, MAX_ENV),
        actuator_down: draw_rate(rng, MAX_ENV),
        ..EnvFaultProfile::none()
    }
}

fn draw_recovery(rng: &mut StdRng) -> RecoveryPolicy {
    match rng.gen_range(0..3) {
        0 => RecoveryPolicy::Off,
        1 => RecoveryPolicy::standard(),
        _ => RecoveryPolicy::Closed {
            watchdog_window: 3,
            act_retries: 2,
        },
    }
}

fn draw_serving_faults(rng: &mut StdRng) -> ServingFaultProfile {
    let mut p = ServingFaultProfile {
        crash_rate: draw_rate(rng, MAX_SERVING),
        brownout_rate: draw_rate(rng, MAX_SERVING),
        ..ServingFaultProfile::none()
    };
    sync_serving_durations(&mut p);
    if p.brownout_rate > 0.0 || p.crash_rate > 0.0 {
        p.overflow_queue = SimDuration::from_secs(10);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_genotypes_are_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        for paradigm in Paradigm::ALL {
            for _ in 0..40 {
                let g = ScenarioGenotype::random(paradigm, &mut rng);
                g.validate().expect("random genotype valid");
                assert_eq!(g.paradigm(), paradigm);
            }
        }
    }

    #[test]
    fn budget_sums_all_five_planes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = ScenarioGenotype::random(Paradigm::Decentralized, &mut rng);
        g.llm = FaultProfile::uniform(0.1); // error 0.1 + spike 0.1
        g.agent = AgentFaultProfile::uniform(0.02); // 3 × 0.02
        g.channel = ChannelProfile::lossy(0.04); // 4 × 0.04 + 0.02
        g.semantic = SemanticFaultProfile::uniform(0.2);
        g.serving_faults = ServingFaultProfile::stressed(0.2); // 0.05 + 0.2
        g.env = EnvFaultProfile::uniform(0.03); // 7 × 0.03
        let expected = 0.2 + 0.06 + 0.18 + 0.2 + 0.25 + 0.21;
        assert!((g.fault_budget() - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_genotype_applies_draw_free_profiles() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = ScenarioGenotype::random(Paradigm::SingleModular, &mut rng);
        g.llm = FaultProfile::none();
        g.agent = AgentFaultProfile::none();
        g.channel = ChannelProfile::none();
        g.semantic = SemanticFaultProfile::none();
        g.serving_faults = ServingFaultProfile::none();
        g.env = EnvFaultProfile::none();
        g.recovery = RecoveryPolicy::Off;
        assert_eq!(g.fault_budget(), 0.0);
        let o = g.overrides();
        assert!(o.fault_profile.unwrap().is_none());
        assert!(o.agent_faults.unwrap().is_none());
        assert!(o.channel.unwrap().is_none());
        assert!(o.semantic_faults.unwrap().is_none());
        assert!(o.serving_faults.unwrap().is_none());
        assert!(o.env_faults.unwrap().is_none());
        assert!(o.recovery_policy.unwrap().is_off());
    }
}
