//! Aggregated metrics derived from traces: latency breakdowns, token usage,
//! and per-step records — the quantities the paper's figures plot.

use crate::module::ModuleKind;
use crate::span::Trace;
use crate::time::SimDuration;
use std::fmt;

/// Declares a summed counters struct exactly as written and derives its
/// `merge`: one `self.f += other.f;` per field, in declaration order.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Merges counters from another episode slice.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

/// Per-module latency totals for an episode (or any slice of one).
///
/// This is the data behind Fig. 2a: the share of per-step latency each
/// building block contributes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBreakdown {
    totals: [SimDuration; 6],
}

impl LatencyBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a breakdown by summing every span in a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut b = Self::new();
        for span in trace.spans() {
            b.add(span.module, span.duration);
        }
        b
    }

    /// Adds time to one module's bucket.
    pub fn add(&mut self, module: ModuleKind, duration: SimDuration) {
        self.totals[Self::index(module)] += duration;
    }

    /// Time accumulated for a module.
    pub fn module(&self, module: ModuleKind) -> SimDuration {
        self.totals[Self::index(module)]
    }

    /// Total across all modules.
    pub fn total(&self) -> SimDuration {
        self.totals.iter().copied().sum()
    }

    /// Fraction of the total attributable to `module` (0 when empty).
    pub fn fraction(&self, module: ModuleKind) -> f64 {
        self.module(module).fraction_of(self.total())
    }

    /// Fraction of total latency in LLM-backed modules
    /// (planning + communication + reflection) — the paper's ~70.2% figure.
    pub fn llm_fraction(&self) -> f64 {
        ModuleKind::ALL
            .into_iter()
            .filter(|m| m.is_llm_backed())
            .map(|m| self.fraction(m))
            .sum()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            *a += *b;
        }
    }

    fn index(module: ModuleKind) -> usize {
        ModuleKind::ALL
            .iter()
            .position(|m| *m == module)
            .expect("ModuleKind::ALL covers every variant")
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        write!(f, "total {total}: ")?;
        let mut first = true;
        for m in ModuleKind::ALL {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{} {:.1}%", m.label(), self.fraction(m) * 100.0)?;
        }
        Ok(())
    }
}

counters! {
    /// LLM usage counters for an episode.
    ///
    /// Drives Fig. 6 (prompt growth) and Fig. 7's call/token scaling analysis.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct TokenStats {
        /// Number of LLM inference runs (API calls or local forward passes).
        pub calls: u64,
        /// Total prompt tokens consumed.
        pub prompt_tokens: u64,
        /// Total completion tokens produced.
        pub completion_tokens: u64,
        /// Accumulated API cost in USD (zero for local models).
        pub cost_usd: f64,
        /// Calls whose prompt exceeded the context window and was truncated
        /// (the Fig. 6 "occasionally exceed LLM's token limit" events).
        pub overflows: u64,
    }
}

impl TokenStats {
    /// Records one inference run.
    pub fn record(&mut self, prompt_tokens: u64, completion_tokens: u64, cost_usd: f64) {
        self.calls += 1;
        self.prompt_tokens += prompt_tokens;
        self.completion_tokens += completion_tokens;
        self.cost_usd += cost_usd;
    }

    /// Total tokens in either direction.
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    /// Mean prompt length per call (0 when no calls were made).
    pub fn mean_prompt_tokens(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.prompt_tokens as f64 / self.calls as f64
        }
    }
}

/// What one environment step looked like, for per-step time series (Fig. 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRecord {
    /// Step index within the episode.
    pub step: usize,
    /// Simulated latency of this step across all modules.
    pub latency: SimDuration,
    /// Largest prompt (in tokens) submitted during the step.
    pub max_prompt_tokens: u64,
    /// LLM calls made during the step.
    pub llm_calls: u64,
    /// Whether any agent made goal progress this step.
    pub progress: bool,
}

/// Per-purpose LLM usage: the data behind the paper's in-text splits such
/// as CoELA's three runs per step (message generation / planning / action
/// selection).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PurposeUsage {
    /// Purpose label, e.g. `"planning"`.
    pub purpose: &'static str,
    /// Inference runs with this purpose.
    pub calls: u64,
    /// Total latency of those runs.
    pub latency: SimDuration,
    /// Prompt tokens consumed.
    pub prompt_tokens: u64,
    /// Completion tokens produced.
    pub completion_tokens: u64,
}

/// An accumulating per-label usage ledger. A [`Trace`] keeps two, by LLM
/// purpose and by span phase, and folds every span into them as it is
/// recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PurposeLedger {
    entries: Vec<PurposeUsage>,
}

impl PurposeLedger {
    /// Adds `calls` runs under `purpose` that took `latency` together.
    pub(crate) fn record(
        &mut self,
        purpose: &'static str,
        calls: u64,
        latency: SimDuration,
        prompt_tokens: u64,
        completion_tokens: u64,
    ) {
        let entry = match self.entries.iter_mut().position(|e| e.purpose == purpose) {
            Some(i) => &mut self.entries[i],
            None => {
                self.entries.push(PurposeUsage {
                    purpose,
                    ..Default::default()
                });
                self.entries.last_mut().expect("just pushed")
            }
        };
        entry.calls += calls;
        entry.latency += latency;
        entry.prompt_tokens += prompt_tokens;
        entry.completion_tokens += completion_tokens;
    }

    /// All entries, in first-seen order.
    pub fn entries(&self) -> &[PurposeUsage] {
        &self.entries
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &PurposeLedger) {
        for e in &other.entries {
            self.record(
                e.purpose,
                e.calls,
                e.latency,
                e.prompt_tokens,
                e.completion_tokens,
            );
        }
    }
}

counters! {
    /// Communication-utility counters (paper §V-D: only ~20% of CoELA's
    /// pre-generated messages turn out to be useful).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MessageStats {
        /// Messages generated by communication modules.
        pub generated: u64,
        /// Messages that actually altered a recipient's plan or state.
        pub useful: u64,
    }
}

impl MessageStats {
    /// Fraction of generated messages that were useful (0 when none sent).
    pub fn utility(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.useful as f64 / self.generated as f64
        }
    }
}

counters! {
    /// Fault-injection and resilience counters for an episode.
    ///
    /// Fault and retry counters come from the LLM substrate (how often the
    /// simulated endpoint misbehaved and what the retry layer paid to hide it);
    /// the degraded-step counters come from the agent layer (how often a module
    /// had to fall back to a cheaper behaviour because retries were exhausted).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ResilienceStats {
        /// Timeout faults injected by the substrate.
        pub timeouts: u64,
        /// Rate-limit faults injected by the substrate.
        pub rate_limits: u64,
        /// Server-error faults injected by the substrate.
        pub server_errors: u64,
        /// Truncated-output faults injected by the substrate.
        pub truncated_outputs: u64,
        /// Latency-spike faults injected (the call succeeded, slowly).
        pub latency_spikes: u64,
        /// Retry attempts issued by the resilience layer.
        pub retries: u64,
        /// Calls that exhausted their retry budget and surfaced an error.
        pub gave_up: u64,
        /// Calls rejected immediately because the circuit breaker was open.
        pub breaker_fast_fails: u64,
        /// Total simulated time spent waiting out retry backoffs.
        pub backoff: SimDuration,
        /// Total simulated latency burned in attempts that ultimately failed.
        pub wasted_latency: SimDuration,
        /// Steps where planning fell back to a cached plan or exploration.
        pub degraded_planning: u64,
        /// Steps where a message was dropped instead of sent.
        pub degraded_communication: u64,
        /// Steps where reflection was skipped.
        pub degraded_reflection: u64,
        /// Steps where LLM micro-control fell back to the scripted controller.
        pub degraded_execution: u64,
    }
}

impl ResilienceStats {
    /// Total faults injected across every kind.
    pub fn faults(&self) -> u64 {
        self.timeouts
            + self.rate_limits
            + self.server_errors
            + self.truncated_outputs
            + self.latency_spikes
    }

    /// Total module degradations across the episode.
    pub fn degraded(&self) -> u64 {
        self.degraded_planning
            + self.degraded_communication
            + self.degraded_reflection
            + self.degraded_execution
    }
}

counters! {
    /// Agent-level fault counters for an episode: crashes, stalls, recoveries,
    /// heartbeat-staleness detections, and coordinator failure/failover events.
    ///
    /// Where [`ResilienceStats`] accounts faults of the *LLM substrate* (one
    /// call misbehaving), these counters account faults of the *agents
    /// themselves* — a robot process dying mid-episode, a teammate noticing the
    /// silence, a coordinator being re-elected. All zero when the episode ran
    /// with a fault-free agent profile.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AgentFaultStats {
        /// Agent crash events injected.
        pub crashes: u64,
        /// One-step agent stalls injected (the agent froze but did not die).
        pub stalls: u64,
        /// Crashed agents that completed their reboot and rejoined.
        pub recoveries: u64,
        /// Agent-steps lost while an agent was down.
        pub downtime_steps: u64,
        /// Messages that never reached a recipient because it was down.
        pub missed_messages: u64,
        /// Heartbeat-staleness events: a teammate began suspecting a silent
        /// peer and re-planned around it.
        pub suspected_peers: u64,
        /// Coordinator-process crash events (centralized/hybrid paradigms).
        pub coordinator_crashes: u64,
        /// Steps the system ran headless — coordinator down, no failover yet.
        pub coordinator_down_steps: u64,
        /// Failover promotions: a surviving agent took over the coordinator
        /// role by the deterministic lowest-alive-id rule.
        pub failovers: u64,
        /// Tokens spent re-synchronizing state into a promoted coordinator.
        pub resync_tokens: u64,
        /// Centralized assignments that never reached their agent (lost or
        /// late on the instruction channel), forcing a stale-plan fallback.
        pub lost_assignments: u64,
    }
}

impl AgentFaultStats {
    /// Total injected agent-level fault events.
    pub fn faults(&self) -> u64 {
        self.crashes + self.stalls + self.coordinator_crashes
    }
}

counters! {
    /// Message-channel fault counters for an episode: what a lossy network did
    /// to inter-agent (and agent↔coordinator) traffic.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChannelStats {
        /// Messages dropped in flight.
        pub dropped: u64,
        /// Extra copies delivered by duplication faults.
        pub duplicated: u64,
        /// Messages delivered garbled (text unusable, entities lost).
        pub corrupted: u64,
        /// Messages queued for late delivery.
        pub delayed: u64,
        /// Network-partition windows that opened.
        pub partitions: u64,
        /// Steps during which a partition was active.
        pub partition_steps: u64,
        /// Messages blocked at a partition cut.
        pub partition_blocked: u64,
        /// Heartbeats lost to drops or partitions (feeds false suspicions).
        pub heartbeats_lost: u64,
    }
}

impl ChannelStats {
    /// Total channel-fault events that altered a delivery.
    pub fn events(&self) -> u64 {
        self.dropped + self.duplicated + self.corrupted + self.delayed + self.partition_blocked
    }
}

counters! {
    /// Guardrail validation/repair counters for an episode: what the semantic
    /// fault plane injected and what the repair pipeline paid to contain it.
    ///
    /// Where [`ResilienceStats`] accounts *transport* faults (a call failing
    /// outright) and [`AgentFaultStats`] accounts *process* faults, these
    /// counters account *content* faults — responses that arrived on time but
    /// carried malformed, hallucinated, invalid or truncated plans — plus the
    /// validator/repair work spent before any of them reached actuation.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RepairStats {
        /// Plan decisions checked by the validator.
        pub validations: u64,
        /// Rejections for malformed / unparseable decision text.
        pub rejected_malformed: u64,
        /// Rejections for entities absent from the current observation.
        pub rejected_hallucinated: u64,
        /// Rejections for syntactically valid but environment-invalid actions.
        pub rejected_invalid_action: u64,
        /// Rejections for plans truncated at the context limit.
        pub rejected_truncated: u64,
        /// Re-prompt repair attempts issued (each pays real tokens/latency).
        pub repair_attempts: u64,
        /// Rejected plans ultimately repaired to a valid action.
        pub repaired: u64,
        /// Rejected plans constrained to the nearest valid action.
        pub constrained: u64,
        /// Rejected plans degraded to a skipped step.
        pub skipped_steps: u64,
        /// Rejected plans that slipped to actuation anyway (repair exhausted
        /// or disabled) — the residual invalid-action count.
        pub residual_invalid: u64,
        /// Prompt + completion tokens spent on repair re-prompts.
        pub repair_tokens: u64,
        /// API cost (USD) of repair re-prompts.
        pub repair_cost_usd: f64,
        /// Simulated latency of validation passes.
        pub validate_latency: SimDuration,
        /// Simulated latency of repair re-prompts.
        pub repair_latency: SimDuration,
    }
}

impl RepairStats {
    /// Total validator rejections across every kind.
    pub fn rejections(&self) -> u64 {
        self.rejected_malformed
            + self.rejected_hallucinated
            + self.rejected_invalid_action
            + self.rejected_truncated
    }

    /// Fraction of validated decisions that stayed invalid after repair
    /// (0 when nothing was validated).
    pub fn residual_invalid_rate(&self) -> f64 {
        if self.validations == 0 {
            0.0
        } else {
            self.residual_invalid as f64 / self.validations as f64
        }
    }
}

counters! {
    /// Serving-layer counters for an episode: what the shared inference
    /// service scheduled, batched, queued, and saved through prefix reuse.
    ///
    /// All zero when the service runs in pass-through mode (the default: no
    /// batching, unbounded backend concurrency) — reports stay identical to
    /// pre-serving builds.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServingStats {
        /// Independent same-phase requests scheduled under the concurrency
        /// limit (each may add load to a server slot).
        pub cohort_requests: u64,
        /// Dependent follow-up requests (action selection, verification,
        /// reflection, guardrail re-prompts) that waited for a free slot
        /// without reserving one.
        pub solo_requests: u64,
        /// Serving windows closed (one shared batch latency bill each).
        pub batches: u64,
        /// Requests served inside those batches.
        pub batched_requests: u64,
        /// Scheduling decisions (requests or whole batches) that found every
        /// server slot busy and had to wait.
        pub queued: u64,
        /// Total simulated time spent waiting for server slots.
        pub queue_delay: SimDuration,
        /// Batched requests whose shared system-preamble prefix was already
        /// resident in the backend's KV cache.
        pub prefix_hits: u64,
        /// Prompt tokens not recomputed thanks to those prefix hits.
        pub prefix_reused_tokens: u64,
    }
}

impl ServingStats {
    /// Mean requests per closed batch (0 when nothing batched).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Fraction of batched requests that hit the shared prefix (0 when
    /// nothing batched).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.batched_requests == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.batched_requests as f64
        }
    }
}

counters! {
    /// Serving-plane fault and resilience counters for an episode: what the
    /// replica fleet broke (crashes, brownouts, overflow spills) and what the
    /// SLO tier did about it (failovers, hedges, shedding, deadline verdicts).
    ///
    /// All zero under `ServingFaultProfile::none()` with replicas ≤ 1 and
    /// every resilience knob off — reports stay identical to builds without
    /// the serving fault plane.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ServingFaultStats {
        /// Replica crashes drawn while serving a placement.
        pub crashes: u64,
        /// Crashed placements re-dispatched to a healthy peer replica.
        pub failovers: u64,
        /// Placements that found every healthy replica past the overflow
        /// threshold and paid a re-dispatch penalty.
        pub overflows: u64,
        /// Placements served by a browned-out (slowed) replica.
        pub brownouts: u64,
        /// Hedged duplicates that finished before the primary.
        pub hedges_won: u64,
        /// Hedged duplicates that lost the race (pure token/$ waste).
        pub hedges_wasted: u64,
        /// Requests rejected by admission control before reaching a model.
        pub shed: u64,
        /// Calls abandoned because their serving latency blew the deadline.
        pub deadline_misses: u64,
        /// Requests measured against the SLO deadline end-to-end.
        pub slo_total: u64,
        /// Of those, requests that met the deadline (queue + service).
        pub slo_met: u64,
        /// Extra service time paid to browned-out replicas.
        pub slowdown_delay: SimDuration,
        /// Partial service wasted on replicas that crashed mid-request.
        pub failover_delay: SimDuration,
        /// Prompt + completion tokens billed to losing *and* winning hedge
        /// duplicates (the premium hedging pays for its p95 win).
        pub hedge_tokens: u64,
        /// API cost (USD) of those hedge duplicates.
        pub hedge_cost_usd: f64,
    }
}

impl ServingFaultStats {
    /// Total hedged placements.
    pub fn hedges(&self) -> u64 {
        self.hedges_won + self.hedges_wasted
    }

    /// Injected serving faults across every kind (resilience reactions —
    /// failovers, hedges, shedding — excluded).
    pub fn faults(&self) -> u64 {
        self.crashes + self.overflows + self.brownouts
    }

    /// Fraction of SLO-measured requests that met the deadline (1 when
    /// nothing was measured — an un-set SLO is vacuously attained).
    pub fn slo_attainment(&self) -> f64 {
        if self.slo_total == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.slo_total as f64
        }
    }
}

counters! {
    /// Environment fault counters for an episode: what the embodied fault
    /// plane did to the sensor/actuator boundary.
    ///
    /// Where [`ResilienceStats`] accounts faults of the LLM transport,
    /// [`AgentFaultStats`] faults of the agent processes, [`RepairStats`]
    /// faults of the response *content*, and [`ServingFaultStats`] faults of
    /// the serving fleet, these counters account faults of the *world
    /// interface itself* — entities vanishing from observations, phantom
    /// objects appearing, frozen sensor frames, misread landmarks, and
    /// actuators silently failing, slipping, or going down. All zero under
    /// `EnvFaultProfile::none()`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EnvFaultStats {
        /// Entities dropped from an agent's observation (perception dropout).
        pub dropped_entities: u64,
        /// Phantom entities injected into an agent's observation.
        pub phantom_entities: u64,
        /// Observations served from a frozen (stale) sensor frame.
        pub stale_observations: u64,
        /// Entities whose names were misread (consistently renamed in the
        /// degraded view, so plans against them fail at actuation).
        pub misread_entities: u64,
        /// Actions that silently did nothing (reported failure, world intact).
        pub silent_failures: u64,
        /// Actions whose effect partially slipped (executed, progress lost).
        pub partial_slips: u64,
        /// Actuator downtime windows that opened.
        pub actuator_downtimes: u64,
        /// Agent-steps during which an actuator was down.
        pub actuator_down_steps: u64,
    }
}

impl EnvFaultStats {
    /// Total perception-fault events across every kind.
    pub fn perception_faults(&self) -> u64 {
        self.dropped_entities
            + self.phantom_entities
            + self.stale_observations
            + self.misread_entities
    }

    /// Total actuation-fault events across every kind.
    pub fn actuation_faults(&self) -> u64 {
        self.silent_failures + self.partial_slips + self.actuator_downtimes
    }

    /// Total injected environment faults.
    pub fn faults(&self) -> u64 {
        self.perception_faults() + self.actuation_faults()
    }
}

counters! {
    /// Closed-loop recovery counters for an episode: what the agent-side
    /// recovery stack did about environment faults and what it paid.
    ///
    /// Mirrors [`RepairStats`] one plane down: where the guardrail repairs
    /// *plans* before actuation, the recovery stack repairs the agent's
    /// *grounding* after the world misbehaves — forced re-observations when
    /// progress stalls, bounded action retries before replanning, and fresh
    /// observes when validation fails against a phantom entity. All zero under
    /// `RecoveryPolicy::Off`.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RecoveryStats {
        /// Forced re-observations issued by the stuck-detection watchdog.
        pub watchdog_reobserves: u64,
        /// Fresh observes triggered by validation failing against a phantom
        /// entity (instead of a doomed re-prompt against the same bad view).
        pub phantom_regrounds: u64,
        /// Bounded action retries issued after a failed execution.
        pub act_retries: u64,
        /// Retried actions that succeeded on a retry attempt.
        pub retries_recovered: u64,
        /// Retry budgets exhausted, escalating the agent to a forced replan.
        pub replan_escalations: u64,
        /// Prompt + completion tokens spent on recovery inference (the replan
        /// calls the escalations force).
        pub recovery_tokens: u64,
        /// API cost (USD) of that recovery inference.
        pub recovery_cost_usd: f64,
        /// Simulated latency of forced re-observations (encoder passes).
        pub reobserve_latency: SimDuration,
        /// Simulated latency of action retries (compute + actuation).
        pub retry_latency: SimDuration,
    }
}

impl RecoveryStats {
    /// Total recovery interventions across every kind.
    pub fn interventions(&self) -> u64 {
        self.watchdog_reobserves + self.phantom_regrounds + self.act_retries
    }

    /// Fraction of action retries that recovered the action (0 when no
    /// retries were issued).
    pub fn retry_success_rate(&self) -> f64 {
        if self.act_retries == 0 {
            0.0
        } else {
            self.retries_recovered as f64 / self.act_retries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Phase;

    fn sec(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    /// Every number in a `Debug` rendering, in field order (no counters
    /// struct or field name contains a digit).
    fn numbers(debug: &str) -> Vec<f64> {
        debug
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().expect("numeric field"))
            .collect()
    }

    /// Merging `busy` (every field set) into `Default` twice doubles every
    /// field.
    fn assert_merge_doubles<T: Default + fmt::Debug>(busy: T, merge: fn(&mut T, &T)) {
        let fields = numbers(&format!("{busy:?}"));
        assert!(fields.iter().all(|&n| n > 0.0), "set every field: {busy:?}");
        let mut twice = T::default();
        merge(&mut twice, &busy);
        merge(&mut twice, &busy);
        let doubled: Vec<f64> = fields.iter().map(|n| n * 2.0).collect();
        assert_eq!(numbers(&format!("{twice:?}")), doubled, "{twice:?}");
    }

    #[test]
    fn counters_merge_field_wise_and_roll_up() {
        let tokens = TokenStats {
            calls: 2,
            prompt_tokens: 3_000,
            completion_tokens: 150,
            cost_usd: 0.09,
            overflows: 1,
        };
        let messages = MessageStats {
            generated: 10,
            useful: 2,
        };
        let resilience = ResilienceStats {
            timeouts: 2,
            rate_limits: 1,
            server_errors: 1,
            truncated_outputs: 1,
            latency_spikes: 1,
            retries: 3,
            gave_up: 1,
            breaker_fast_fails: 1,
            backoff: sec(4),
            wasted_latency: sec(2),
            degraded_planning: 1,
            degraded_communication: 2,
            degraded_reflection: 1,
            degraded_execution: 1,
        };
        let agent = AgentFaultStats {
            crashes: 2,
            stalls: 1,
            recoveries: 2,
            downtime_steps: 5,
            missed_messages: 3,
            suspected_peers: 1,
            coordinator_crashes: 1,
            coordinator_down_steps: 2,
            failovers: 1,
            resync_tokens: 120,
            lost_assignments: 1,
        };
        let channel = ChannelStats {
            dropped: 3,
            duplicated: 1,
            corrupted: 1,
            delayed: 2,
            partitions: 1,
            partition_steps: 4,
            partition_blocked: 2,
            heartbeats_lost: 2,
        };
        let repair = RepairStats {
            validations: 10,
            rejected_malformed: 1,
            rejected_hallucinated: 2,
            rejected_invalid_action: 1,
            rejected_truncated: 1,
            repair_attempts: 3,
            repaired: 2,
            constrained: 1,
            skipped_steps: 1,
            residual_invalid: 2,
            repair_tokens: 640,
            repair_cost_usd: 0.02,
            validate_latency: sec(1),
            repair_latency: sec(3),
        };
        let serving = ServingStats {
            cohort_requests: 8,
            solo_requests: 3,
            batches: 2,
            batched_requests: 8,
            queued: 1,
            queue_delay: sec(4),
            prefix_hits: 6,
            prefix_reused_tokens: 900,
        };
        let serving_faults = ServingFaultStats {
            crashes: 2,
            failovers: 1,
            overflows: 3,
            brownouts: 4,
            hedges_won: 2,
            hedges_wasted: 5,
            shed: 6,
            deadline_misses: 1,
            slo_total: 10,
            slo_met: 8,
            slowdown_delay: sec(9),
            failover_delay: sec(2),
            hedge_tokens: 700,
            hedge_cost_usd: 0.05,
        };
        let env = EnvFaultStats {
            dropped_entities: 3,
            phantom_entities: 2,
            stale_observations: 1,
            misread_entities: 1,
            silent_failures: 2,
            partial_slips: 1,
            actuator_downtimes: 1,
            actuator_down_steps: 4,
        };
        let recovery = RecoveryStats {
            watchdog_reobserves: 2,
            phantom_regrounds: 1,
            act_retries: 4,
            retries_recovered: 3,
            replan_escalations: 1,
            recovery_tokens: 320,
            recovery_cost_usd: 0.01,
            reobserve_latency: sec(2),
            retry_latency: sec(5),
        };

        assert_merge_doubles(tokens, TokenStats::merge);
        assert_merge_doubles(messages, MessageStats::merge);
        assert_merge_doubles(resilience, ResilienceStats::merge);
        assert_merge_doubles(agent, AgentFaultStats::merge);
        assert_merge_doubles(channel, ChannelStats::merge);
        assert_merge_doubles(repair, RepairStats::merge);
        assert_merge_doubles(serving, ServingStats::merge);
        assert_merge_doubles(serving_faults, ServingFaultStats::merge);
        assert_merge_doubles(env, EnvFaultStats::merge);
        assert_merge_doubles(recovery, RecoveryStats::merge);

        assert_eq!(resilience.faults(), 6);
        assert_eq!(resilience.degraded(), 5);
        assert_eq!(agent.faults(), 4);
        assert_eq!(channel.events(), 9);
        assert_eq!(repair.rejections(), 5);
        assert!((repair.residual_invalid_rate() - 0.2).abs() < 1e-12);
        assert!((serving.batch_occupancy() - 4.0).abs() < 1e-12);
        assert!((serving.prefix_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(serving_faults.faults(), 9);
        assert_eq!(serving_faults.hedges(), 7);
        assert!((serving_faults.slo_attainment() - 0.8).abs() < 1e-12);
        assert_eq!(env.perception_faults(), 7);
        assert_eq!(env.actuation_faults(), 4);
        assert_eq!(env.faults(), 11);
        assert_eq!(recovery.interventions(), 7);
        assert!((recovery.retry_success_rate() - 0.75).abs() < 1e-12);

        // Zero denominators: rates read 0, an unset SLO is vacuously met.
        assert_eq!(RepairStats::default().residual_invalid_rate(), 0.0);
        assert_eq!(ServingStats::default().batch_occupancy(), 0.0);
        assert_eq!(ServingStats::default().prefix_hit_rate(), 0.0);
        assert_eq!(RecoveryStats::default().retry_success_rate(), 0.0);
        assert_eq!(
            ServingFaultStats::default().slo_attainment(),
            1.0,
            "unset SLO is vacuously attained"
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = LatencyBreakdown::new();
        b.add(ModuleKind::Planning, sec(7));
        b.add(ModuleKind::Execution, sec(3));
        let sum: f64 = ModuleKind::ALL.into_iter().map(|m| b.fraction(m)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.fraction(ModuleKind::Planning) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn llm_fraction_counts_only_llm_modules() {
        let mut b = LatencyBreakdown::new();
        b.add(ModuleKind::Planning, sec(4));
        b.add(ModuleKind::Communication, sec(2));
        b.add(ModuleKind::Reflection, sec(1));
        b.add(ModuleKind::Execution, sec(3));
        assert!((b.llm_fraction() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn breakdown_from_trace_matches_manual() {
        let mut t = Trace::new();
        t.record(ModuleKind::Sensing, Phase::Encoding, 0, sec(1));
        t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(9));
        let b = LatencyBreakdown::from_trace(&t);
        assert_eq!(b.module(ModuleKind::Sensing), sec(1));
        assert_eq!(b.module(ModuleKind::Planning), sec(9));
        assert_eq!(b.total(), sec(10));
    }

    #[test]
    fn merge_adds_buckets() {
        let mut a = LatencyBreakdown::new();
        a.add(ModuleKind::Memory, sec(2));
        let mut b = LatencyBreakdown::new();
        b.add(ModuleKind::Memory, sec(3));
        a.merge(&b);
        assert_eq!(a.module(ModuleKind::Memory), sec(5));
    }

    #[test]
    fn token_stats_accumulate() {
        let mut s = TokenStats::default();
        s.record(1_000, 50, 0.03);
        s.record(2_000, 100, 0.06);
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_tokens(), 3_150);
        assert!((s.mean_prompt_tokens() - 1_500.0).abs() < 1e-9);
        assert!((s.cost_usd - 0.09).abs() < 1e-12);
    }

    #[test]
    fn empty_token_stats_mean_is_zero() {
        assert_eq!(TokenStats::default().mean_prompt_tokens(), 0.0);
    }

    #[test]
    fn purpose_ledger_accumulates_and_merges() {
        let mut ledger = PurposeLedger::default();
        ledger.record("planning", 1, sec(6), 1_000, 100);
        ledger.record("communication", 1, sec(3), 400, 40);
        ledger.record("planning", 2, sec(3), 900, 80);
        let mut other = PurposeLedger::default();
        other.record("planning", 1, sec(3), 100, 10);
        ledger.merge(&other);
        let planning = &ledger.entries()[0];
        assert_eq!(
            ledger.entries().len(),
            2,
            "one entry per label, first-seen order"
        );
        assert_eq!((planning.purpose, planning.calls), ("planning", 4));
        assert_eq!((planning.latency, planning.prompt_tokens), (sec(12), 2_000));
        assert_eq!(planning.completion_tokens, 190);
    }

    #[test]
    fn message_utility() {
        let mut m = MessageStats::default();
        assert_eq!(m.utility(), 0.0);
        m.generated = 10;
        m.useful = 2;
        assert!((m.utility() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn breakdown_display_mentions_every_module() {
        let mut b = LatencyBreakdown::new();
        b.add(ModuleKind::Planning, sec(1));
        let text = b.to_string();
        for m in ModuleKind::ALL {
            assert!(text.contains(m.label()), "missing {m} in {text}");
        }
    }
}
