//! Episode reports and multi-episode aggregation — the statistics every
//! figure binary prints.

use crate::metrics::{
    AgentFaultStats, ChannelStats, EnvFaultStats, LatencyBreakdown, MessageStats, PurposeLedger,
    RecoveryStats, RepairStats, ResilienceStats, ServingFaultStats, ServingStats, StepRecord,
    TokenStats,
};
use crate::module::ModuleKind;
use crate::span::Trace;
use crate::time::SimDuration;
use std::fmt;

/// Why an episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// All goal predicates satisfied before the step limit.
    Success,
    /// Step limit reached with goals unmet.
    StepLimit,
    /// The system reached a state it could not act from (e.g. execution
    /// disabled and the planner stuck emitting unexecutable plans).
    Stuck,
}

impl Outcome {
    /// How an episode that stopped ended: success when its goal is
    /// `complete`, stuck when it made no `progress` at all.
    pub fn judge(complete: bool, progress: f64) -> Self {
        if complete {
            Outcome::Success
        } else if progress == 0.0 {
            Outcome::Stuck
        } else {
            Outcome::StepLimit
        }
    }

    /// Whether this outcome counts toward the success-rate metric.
    pub fn is_success(self) -> bool {
        matches!(self, Outcome::Success)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Outcome::Success => "success",
            Outcome::StepLimit => "step-limit",
            Outcome::Stuck => "stuck",
        };
        f.write_str(s)
    }
}

/// Everything measured during a single episode of one workload.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// Workload that produced the episode (e.g. `"CoELA"`).
    pub workload: String,
    /// How the episode ended.
    pub outcome: Outcome,
    /// Environment steps taken.
    pub steps: usize,
    /// End-to-end simulated latency.
    pub latency: SimDuration,
    /// Per-module latency totals.
    pub breakdown: LatencyBreakdown,
    /// LLM usage counters.
    pub tokens: TokenStats,
    /// Per-purpose LLM usage (planning vs. message generation vs. action
    /// selection vs. reflection).
    pub by_purpose: PurposeLedger,
    /// Per-phase latency (llm-inference / retrieval / geometric-planning /
    /// actuation / encoding) — the paper's Rec. 2 needs the split between
    /// low-level planning compute and physical motion.
    pub by_phase: PurposeLedger,
    /// Communication-utility counters.
    pub messages: MessageStats,
    /// Fault-injection / retry / degradation counters (all zero when the
    /// episode ran with `FaultProfile::none()`).
    pub resilience: ResilienceStats,
    /// Agent-level fault counters — crashes, stalls, coordinator failover
    /// (all zero under `AgentFaultProfile::none()`).
    pub agent_faults: AgentFaultStats,
    /// Message-channel fault counters — drops, duplicates, corruption,
    /// delays, partitions (all zero under `ChannelProfile::none()`).
    pub channel: ChannelStats,
    /// Guardrail validation/repair counters — semantic-fault rejections and
    /// the repair work paid to contain them (all zero under
    /// `SemanticFaultProfile::none()` with repair disabled).
    pub repairs: RepairStats,
    /// Shared-inference-service counters — batches, queueing, prefix reuse
    /// (all zero when the service runs in pass-through mode).
    pub serving: ServingStats,
    /// Serving-plane fault and SLO-tier counters — replica crashes,
    /// failovers, hedges, shedding, deadline verdicts (all zero under
    /// `ServingFaultProfile::none()` with the resilience tier off).
    pub serving_faults: ServingFaultStats,
    /// Environment fault counters — perception/actuation faults at the
    /// sensor/actuator boundary (all zero under `EnvFaultProfile::none()`).
    pub env_faults: EnvFaultStats,
    /// Closed-loop recovery counters — forced re-observations, action
    /// retries, replan escalations (all zero under `RecoveryPolicy::Off`).
    pub recovery: RecoveryStats,
    /// Per-step time series.
    pub step_records: Vec<StepRecord>,
    /// Number of agents that participated.
    pub agents: usize,
}

impl EpisodeReport {
    /// A report whose time and LLM-call figures are read from `trace`, the
    /// episode's only ledger of them: one step per step record, the
    /// elapsed time as latency. Every counter the trace does not keep is
    /// zero.
    pub fn from_trace(
        workload: String,
        outcome: Outcome,
        trace: &Trace,
        tokens: TokenStats,
        agents: usize,
    ) -> Self {
        EpisodeReport {
            workload,
            outcome,
            steps: trace.step_records().len(),
            latency: trace.elapsed(),
            breakdown: LatencyBreakdown::from_trace(trace),
            tokens,
            by_purpose: trace.by_purpose().clone(),
            by_phase: trace.by_phase().clone(),
            messages: MessageStats::default(),
            resilience: ResilienceStats::default(),
            agent_faults: AgentFaultStats::default(),
            channel: ChannelStats::default(),
            repairs: RepairStats::default(),
            serving: ServingStats::default(),
            serving_faults: ServingFaultStats::default(),
            env_faults: EnvFaultStats::default(),
            recovery: RecoveryStats::default(),
            step_records: trace.step_records().to_vec(),
            agents,
        }
    }

    /// Mean simulated latency per step (zero when no steps ran).
    pub fn latency_per_step(&self) -> SimDuration {
        if self.steps == 0 {
            SimDuration::ZERO
        } else {
            self.latency / self.steps as u64
        }
    }
}

/// Summary statistics over a set of episodes of the same configuration.
///
/// The paper reports success rate, average steps and average latency per
/// configuration; [`Aggregate`] computes exactly those (plus spread).
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Configuration label.
    pub label: String,
    /// Episodes aggregated.
    pub episodes: usize,
    /// Fraction of episodes that succeeded.
    pub success_rate: f64,
    /// Mean steps per episode.
    pub mean_steps: f64,
    /// Mean end-to-end latency.
    pub mean_latency: SimDuration,
    /// Standard deviation of end-to-end latency (seconds).
    pub latency_std_secs: f64,
    /// Median end-to-end latency.
    pub latency_p50: SimDuration,
    /// 95th-percentile end-to-end latency (nearest-rank).
    pub latency_p95: SimDuration,
    /// Mean per-step latency.
    pub mean_step_latency: SimDuration,
    /// Merged per-module breakdown across episodes.
    pub breakdown: LatencyBreakdown,
    /// Merged token stats across episodes.
    pub tokens: TokenStats,
    /// Merged per-purpose usage across episodes.
    pub by_purpose: PurposeLedger,
    /// Merged per-phase latency across episodes.
    pub by_phase: PurposeLedger,
    /// Merged message stats across episodes.
    pub messages: MessageStats,
    /// Merged resilience counters across episodes.
    pub resilience: ResilienceStats,
    /// Merged agent-level fault counters across episodes.
    pub agent_faults: AgentFaultStats,
    /// Merged channel fault counters across episodes.
    pub channel: ChannelStats,
    /// Merged guardrail validation/repair counters across episodes.
    pub repairs: RepairStats,
    /// Merged shared-inference-service counters across episodes.
    pub serving: ServingStats,
    /// Merged serving-plane fault/SLO counters across episodes.
    pub serving_faults: ServingFaultStats,
    /// Merged environment fault counters across episodes.
    pub env_faults: EnvFaultStats,
    /// Merged closed-loop recovery counters across episodes.
    pub recovery: RecoveryStats,
}

impl Aggregate {
    /// Aggregates a non-empty set of episode reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty — an experiment with zero episodes is a
    /// harness bug, not a measurable configuration.
    pub fn from_reports(label: impl Into<String>, reports: &[EpisodeReport]) -> Self {
        assert!(!reports.is_empty(), "cannot aggregate zero episodes");
        let n = reports.len() as f64;
        let successes = reports.iter().filter(|r| r.outcome.is_success()).count();
        let mean_steps = reports.iter().map(|r| r.steps as f64).sum::<f64>() / n;
        let latencies: Vec<f64> = reports.iter().map(|r| r.latency.as_secs_f64()).collect();
        let mean_latency_secs = latencies.iter().sum::<f64>() / n;
        let var = latencies
            .iter()
            .map(|l| (l - mean_latency_secs).powi(2))
            .sum::<f64>()
            / n;
        let mut sorted = latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let nearest_rank = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            SimDuration::from_secs_f64(sorted[rank - 1])
        };
        let latency_p50 = nearest_rank(0.5);
        let latency_p95 = nearest_rank(0.95);
        let total_steps: usize = reports.iter().map(|r| r.steps).sum();
        let total_latency: SimDuration = reports.iter().map(|r| r.latency).sum();
        let mean_step_latency = if total_steps == 0 {
            SimDuration::ZERO
        } else {
            total_latency / total_steps as u64
        };

        let mut breakdown = LatencyBreakdown::new();
        let mut tokens = TokenStats::default();
        let mut by_purpose = PurposeLedger::default();
        let mut by_phase = PurposeLedger::default();
        let mut messages = MessageStats::default();
        let mut resilience = ResilienceStats::default();
        let mut agent_faults = AgentFaultStats::default();
        let mut channel = ChannelStats::default();
        let mut repairs = RepairStats::default();
        let mut serving = ServingStats::default();
        let mut serving_faults = ServingFaultStats::default();
        let mut env_faults = EnvFaultStats::default();
        let mut recovery = RecoveryStats::default();
        for r in reports {
            breakdown.merge(&r.breakdown);
            tokens.merge(&r.tokens);
            by_purpose.merge(&r.by_purpose);
            by_phase.merge(&r.by_phase);
            messages.merge(&r.messages);
            resilience.merge(&r.resilience);
            agent_faults.merge(&r.agent_faults);
            channel.merge(&r.channel);
            repairs.merge(&r.repairs);
            serving.merge(&r.serving);
            serving_faults.merge(&r.serving_faults);
            env_faults.merge(&r.env_faults);
            recovery.merge(&r.recovery);
        }

        Aggregate {
            label: label.into(),
            episodes: reports.len(),
            success_rate: successes as f64 / n,
            mean_steps,
            mean_latency: SimDuration::from_secs_f64(mean_latency_secs),
            latency_std_secs: var.sqrt(),
            latency_p50,
            latency_p95,
            mean_step_latency,
            breakdown,
            tokens,
            by_purpose,
            by_phase,
            messages,
            resilience,
            agent_faults,
            channel,
            repairs,
            serving,
            serving_faults,
            env_faults,
            recovery,
        }
    }

    /// Fraction of latency in `module`, over the merged breakdown.
    pub fn module_fraction(&self, module: ModuleKind) -> f64 {
        self.breakdown.fraction(module)
    }

    /// 95% confidence half-width on the success rate (normal
    /// approximation of the binomial; small-sample experiments should read
    /// it as a rough error bar, not an exact interval).
    pub fn success_ci95(&self) -> f64 {
        let n = self.episodes as f64;
        let p = self.success_rate;
        1.96 * (p * (1.0 - p) / n).sqrt()
    }

    /// Mean LLM calls per episode.
    pub fn calls_per_episode(&self) -> f64 {
        self.tokens.calls as f64 / self.episodes as f64
    }

    /// Mean total tokens per episode.
    pub fn tokens_per_episode(&self) -> f64 {
        self.tokens.total_tokens() as f64 / self.episodes as f64
    }

    /// Mean injected faults per episode.
    pub fn faults_per_episode(&self) -> f64 {
        self.resilience.faults() as f64 / self.episodes as f64
    }

    /// Mean retry attempts per episode.
    pub fn retries_per_episode(&self) -> f64 {
        self.resilience.retries as f64 / self.episodes as f64
    }

    /// Mean backoff waiting time per episode.
    pub fn backoff_per_episode(&self) -> SimDuration {
        self.resilience.backoff / (self.episodes as u64).max(1)
    }

    /// Mean degraded module-steps per episode.
    pub fn degraded_per_episode(&self) -> f64 {
        self.resilience.degraded() as f64 / self.episodes as f64
    }

    /// Mean injected agent-level faults (crashes + stalls + coordinator
    /// deaths) per episode.
    pub fn agent_faults_per_episode(&self) -> f64 {
        self.agent_faults.faults() as f64 / self.episodes as f64
    }

    /// Mean agent-downtime steps per episode.
    pub fn downtime_per_episode(&self) -> f64 {
        self.agent_faults.downtime_steps as f64 / self.episodes as f64
    }

    /// Mean channel-fault events per episode.
    pub fn channel_events_per_episode(&self) -> f64 {
        self.channel.events() as f64 / self.episodes as f64
    }

    /// Mean validator rejections per episode.
    pub fn rejections_per_episode(&self) -> f64 {
        self.repairs.rejections() as f64 / self.episodes as f64
    }

    /// Mean repair re-prompt attempts per episode.
    pub fn repair_attempts_per_episode(&self) -> f64 {
        self.repairs.repair_attempts as f64 / self.episodes as f64
    }

    /// Mean tokens spent on repair re-prompts per episode.
    pub fn repair_tokens_per_episode(&self) -> f64 {
        self.repairs.repair_tokens as f64 / self.episodes as f64
    }

    /// Fraction of validated decisions left invalid after repair, over the
    /// merged counters.
    pub fn residual_invalid_rate(&self) -> f64 {
        self.repairs.residual_invalid_rate()
    }

    /// Mean requests per closed batch at the shared inference service.
    pub fn batch_occupancy(&self) -> f64 {
        self.serving.batch_occupancy()
    }

    /// Mean time spent waiting for backend server slots per episode.
    pub fn queue_delay_per_episode(&self) -> SimDuration {
        self.serving.queue_delay / (self.episodes as u64).max(1)
    }

    /// Fraction of batched requests that reused the shared prompt prefix.
    pub fn prefix_hit_rate(&self) -> f64 {
        self.serving.prefix_hit_rate()
    }

    /// Fraction of SLO-measured requests that met the serving deadline,
    /// over the merged counters.
    pub fn slo_attainment(&self) -> f64 {
        self.serving_faults.slo_attainment()
    }

    /// Mean injected serving faults (crashes + brownouts + overflow
    /// spills) per episode.
    pub fn serving_faults_per_episode(&self) -> f64 {
        self.serving_faults.faults() as f64 / self.episodes as f64
    }

    /// Mean requests shed by admission control per episode.
    pub fn shed_per_episode(&self) -> f64 {
        self.serving_faults.shed as f64 / self.episodes as f64
    }

    /// Mean hedged placements per episode.
    pub fn hedges_per_episode(&self) -> f64 {
        self.serving_faults.hedges() as f64 / self.episodes as f64
    }

    /// Mean injected environment faults (perception + actuation) per
    /// episode.
    pub fn env_faults_per_episode(&self) -> f64 {
        self.env_faults.faults() as f64 / self.episodes as f64
    }

    /// Mean closed-loop recovery interventions per episode.
    pub fn recoveries_per_episode(&self) -> f64 {
        self.recovery.interventions() as f64 / self.episodes as f64
    }

    /// Mean tokens spent on recovery inference per episode.
    pub fn recovery_tokens_per_episode(&self) -> f64 {
        self.recovery.recovery_tokens as f64 / self.episodes as f64
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: success {:.0}%, steps {:.1}, latency {} ({}/step), llm {:.1} calls/ep",
            self.label,
            self.success_rate * 100.0,
            self.mean_steps,
            self.mean_latency,
            self.mean_step_latency,
            self.calls_per_episode(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Phase;

    fn report(outcome: Outcome, steps: usize, latency_secs: u64) -> EpisodeReport {
        let mut trace = Trace::new();
        for step in 0..steps {
            trace.begin_step(step);
        }
        let latency = SimDuration::from_secs(latency_secs);
        trace.record(ModuleKind::Planning, Phase::LlmInference, 0, latency);
        EpisodeReport::from_trace("Test".into(), outcome, &trace, TokenStats::default(), 1)
    }

    #[test]
    fn aggregate_merges_repairs() {
        let mut faulty = report(Outcome::StepLimit, 5, 50);
        faulty.repairs.validations = 10;
        faulty.repairs.rejected_hallucinated = 3;
        faulty.repairs.repair_attempts = 4;
        faulty.repairs.repair_tokens = 800;
        faulty.repairs.residual_invalid = 1;
        let reports = vec![report(Outcome::Success, 5, 50), faulty];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.repairs.validations, 10);
        assert!((agg.rejections_per_episode() - 1.5).abs() < 1e-12);
        assert!((agg.repair_attempts_per_episode() - 2.0).abs() < 1e-12);
        assert!((agg.repair_tokens_per_episode() - 400.0).abs() < 1e-12);
        assert!((agg.residual_invalid_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_agent_and_channel_faults() {
        let mut faulty = report(Outcome::StepLimit, 5, 50);
        faulty.agent_faults.crashes = 2;
        faulty.agent_faults.downtime_steps = 6;
        faulty.agent_faults.failovers = 1;
        faulty.channel.dropped = 3;
        faulty.channel.partitions = 1;
        let reports = vec![report(Outcome::Success, 5, 50), faulty];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.agent_faults.crashes, 2);
        assert_eq!(agg.agent_faults.failovers, 1);
        assert_eq!(agg.channel.dropped, 3);
        assert!((agg.agent_faults_per_episode() - 1.0).abs() < 1e-12);
        assert!((agg.downtime_per_episode() - 3.0).abs() < 1e-12);
        assert!((agg.channel_events_per_episode() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_serving() {
        let mut batched = report(Outcome::Success, 5, 50);
        batched.serving.batches = 2;
        batched.serving.batched_requests = 8;
        batched.serving.queued = 1;
        batched.serving.queue_delay = SimDuration::from_secs(6);
        batched.serving.prefix_hits = 6;
        batched.serving.prefix_reused_tokens = 420;
        let reports = vec![report(Outcome::Success, 5, 50), batched];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.serving.batches, 2);
        assert!((agg.batch_occupancy() - 4.0).abs() < 1e-12);
        assert_eq!(agg.queue_delay_per_episode(), SimDuration::from_secs(3));
        assert!((agg.prefix_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_serving_faults() {
        let mut faulty = report(Outcome::StepLimit, 5, 50);
        faulty.serving_faults.crashes = 2;
        faulty.serving_faults.brownouts = 4;
        faulty.serving_faults.hedges_won = 1;
        faulty.serving_faults.hedges_wasted = 3;
        faulty.serving_faults.shed = 6;
        faulty.serving_faults.slo_total = 10;
        faulty.serving_faults.slo_met = 7;
        let reports = vec![report(Outcome::Success, 5, 50), faulty];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.serving_faults.crashes, 2);
        assert!((agg.serving_faults_per_episode() - 3.0).abs() < 1e-12);
        assert!((agg.shed_per_episode() - 3.0).abs() < 1e-12);
        assert!((agg.hedges_per_episode() - 2.0).abs() < 1e-12);
        assert!((agg.slo_attainment() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_env_faults_and_recovery() {
        let mut faulty = report(Outcome::StepLimit, 5, 50);
        faulty.env_faults.dropped_entities = 4;
        faulty.env_faults.silent_failures = 2;
        faulty.recovery.watchdog_reobserves = 1;
        faulty.recovery.act_retries = 3;
        faulty.recovery.recovery_tokens = 200;
        let reports = vec![report(Outcome::Success, 5, 50), faulty];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.env_faults.dropped_entities, 4);
        assert_eq!(agg.recovery.act_retries, 3);
        assert!((agg.env_faults_per_episode() - 3.0).abs() < 1e-12);
        assert!((agg.recoveries_per_episode() - 2.0).abs() < 1e-12);
        assert!((agg.recovery_tokens_per_episode() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_resilience() {
        let mut faulty = report(Outcome::StepLimit, 5, 50);
        faulty.resilience.timeouts = 2;
        faulty.resilience.retries = 3;
        faulty.resilience.backoff = SimDuration::from_secs(6);
        faulty.resilience.degraded_planning = 1;
        let reports = vec![report(Outcome::Success, 5, 50), faulty];
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.resilience.faults(), 2);
        assert!((agg.faults_per_episode() - 1.0).abs() < 1e-12);
        assert!((agg.retries_per_episode() - 1.5).abs() < 1e-12);
        assert_eq!(agg.backoff_per_episode(), SimDuration::from_secs(3));
        assert!((agg.degraded_per_episode() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_success_rate_and_means() {
        let reports = vec![
            report(Outcome::Success, 10, 100),
            report(Outcome::StepLimit, 30, 300),
        ];
        let agg = Aggregate::from_reports("t", &reports);
        assert!((agg.success_rate - 0.5).abs() < 1e-12);
        assert!((agg.mean_steps - 20.0).abs() < 1e-12);
        assert_eq!(agg.mean_latency, SimDuration::from_secs(200));
        // 400 s over 40 steps
        assert_eq!(agg.mean_step_latency, SimDuration::from_secs(10));
    }

    #[test]
    fn aggregate_latency_std() {
        let reports = vec![
            report(Outcome::Success, 1, 100),
            report(Outcome::Success, 1, 300),
        ];
        let agg = Aggregate::from_reports("t", &reports);
        assert!((agg.latency_std_secs - 100.0).abs() < 1e-9);
    }

    #[test]
    fn success_ci_shrinks_with_more_episodes() {
        let few: Vec<EpisodeReport> = (0..4)
            .map(|i| {
                report(
                    if i % 2 == 0 {
                        Outcome::Success
                    } else {
                        Outcome::StepLimit
                    },
                    1,
                    10,
                )
            })
            .collect();
        let many: Vec<EpisodeReport> = (0..64)
            .map(|i| {
                report(
                    if i % 2 == 0 {
                        Outcome::Success
                    } else {
                        Outcome::StepLimit
                    },
                    1,
                    10,
                )
            })
            .collect();
        let few = Aggregate::from_reports("few", &few);
        let many = Aggregate::from_reports("many", &many);
        assert!(few.success_ci95() > many.success_ci95());
        // Degenerate all-success sample: zero-width interval.
        let all: Vec<EpisodeReport> = (0..8).map(|_| report(Outcome::Success, 1, 10)).collect();
        assert_eq!(Aggregate::from_reports("all", &all).success_ci95(), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let reports: Vec<EpisodeReport> = [10u64, 20, 30, 40, 100]
            .into_iter()
            .map(|secs| report(Outcome::Success, 1, secs))
            .collect();
        let agg = Aggregate::from_reports("t", &reports);
        assert_eq!(agg.latency_p50, SimDuration::from_secs(30));
        assert_eq!(agg.latency_p95, SimDuration::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "zero episodes")]
    fn aggregate_rejects_empty() {
        let _ = Aggregate::from_reports("t", &[]);
    }

    #[test]
    fn per_step_latency_handles_zero_steps() {
        let r = report(Outcome::Stuck, 0, 50);
        assert_eq!(r.latency_per_step(), SimDuration::ZERO);
    }

    #[test]
    fn outcome_success_flag() {
        assert!(Outcome::Success.is_success());
        assert!(!Outcome::StepLimit.is_success());
        assert!(!Outcome::Stuck.is_success());
    }

    #[test]
    fn display_is_informative() {
        let agg = Aggregate::from_reports("CoELA", &[report(Outcome::Success, 5, 60)]);
        let text = agg.to_string();
        assert!(text.contains("CoELA"));
        assert!(text.contains("100%"));
    }
}
