//! Where an LLM call is scheduled and settled.
//!
//! Every call an orchestrator makes goes through [`Accounts::settle`]
//! (retry stall, shed marker, degradation counter) and, when it succeeded,
//! [`Accounts::serve`] (serving-tier placement, batch-window deferral).
//! Neither keeps a ledger: the call is billed by the trace span that
//! carries it ([`Trace::record_call`]), and the trace is the only writer of
//! the episode's per-purpose, per-phase and per-step figures. The fields
//! live together so a call site holding `&mut sys.agents[i]` can still
//! borrow `sys.accounts`.

use crate::guardrail::GuardrailVerdict;
use embodied_llm::{
    amortize_latency, EngineHandle, InferenceService, LlmError, LlmResponse, TenantId, WindowShare,
};
use embodied_profiler::{LlmCall, ModuleKind, Phase, ResilienceStats, SimDuration, Trace};

/// Client-side dispatch overhead billed when a hedged duplicate is issued
/// to a second serving replica.
const HEDGE_DISPATCH: SimDuration = SimDuration::from_millis(2);

/// Marker span billed when serving admission control fast-fails a request
/// — the rejection round-trip, not real inference time.
const SHED_MARKER: SimDuration = SimDuration::from_millis(2);

/// One windowed LLM call awaiting its amortized latency share when the
/// serving window closes.
#[derive(Debug)]
struct PendingCall {
    module: ModuleKind,
    agent: usize,
    response: LlmResponse,
}

/// The episode's billing state: span timeline, serving stack, open batch
/// window and degradation counters.
#[derive(Debug)]
pub(crate) struct Accounts {
    pub trace: Trace,
    /// The shared inference service every engine in the system is a tenant
    /// of — owns the engine stacks, the per-scope ledgers, and the
    /// per-model scheduling backends.
    pub service: InferenceService,
    /// Graceful-degradation events (per-module counters); engine-level
    /// fault/retry tallies are collected from the engines at report time.
    pub degradations: ResilienceStats,
    /// Calls deferred into the currently open serving window.
    window_entries: Vec<PendingCall>,
}

impl Accounts {
    pub fn new(service: InferenceService) -> Self {
        Accounts {
            trace: Trace::new(),
            service,
            degradations: ResilienceStats::default(),
            window_entries: Vec::new(),
        }
    }

    /// Records `engine`'s accumulated retry stall as a `Phase::Backoff`
    /// span so retry waiting extends episode latency end-to-end. Zero
    /// stalls are dropped, keeping no-fault traces free of backoff spans.
    pub fn stall(&mut self, engine: &mut EngineHandle, module: ModuleKind, agent: usize) {
        let stall = engine.take_stall();
        if !stall.is_zero() {
            self.trace.record(module, Phase::Backoff, agent, stall);
        }
    }

    /// Settles one call on `engine`: bills its stall, and on failure the
    /// shed marker (other failures are already billed as stall, or never
    /// cost anything) plus one degradation of `module`. Returns the value
    /// on success; `None` tells the caller to take its degraded path.
    pub fn settle<T>(
        &mut self,
        engine: &mut EngineHandle,
        module: ModuleKind,
        agent: usize,
        result: Result<T, LlmError>,
    ) -> Option<T> {
        self.stall(engine, module, agent);
        let err = match result {
            Ok(value) => return Some(value),
            Err(err) => err,
        };
        if matches!(err, LlmError::Shed) {
            self.trace.record(module, Phase::Shed, agent, SHED_MARKER);
        }
        let d = &mut self.degradations;
        match module {
            ModuleKind::Planning => d.degraded_planning += 1,
            ModuleKind::Communication => d.degraded_communication += 1,
            ModuleKind::Reflection => d.degraded_reflection += 1,
            ModuleKind::Execution => d.degraded_execution += 1,
            ModuleKind::Sensing | ModuleKind::Memory => {
                unreachable!("{module:?} makes no LLM calls")
            }
        }
        None
    }

    /// Bills one completed call through the serving layer.
    ///
    /// Pass-through (the default) records the call's `Phase::LlmInference`
    /// span. With scheduling active, a `cohort` call joining an open window
    /// is deferred: its span waits for the window to close. Any other call
    /// is first charged its backend's queueing delay — cohort calls reserve
    /// a server slot (and may fail over or hedge), dependent follow-ups
    /// only wait for one.
    pub fn serve(
        &mut self,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        response: &LlmResponse,
        cohort: bool,
    ) {
        if !self.service.config().is_passthrough() {
            if cohort && self.service.window_is_open() {
                self.service.window_add(tenant, response);
                self.window_entries.push(PendingCall {
                    module,
                    agent,
                    response: response.clone(),
                });
                return;
            }
            if cohort {
                self.place_cohort(module, agent, tenant, response);
            } else {
                self.queue(module, agent, tenant);
            }
        }
        self.trace.record_call(
            module,
            Phase::LlmInference,
            agent,
            response.latency,
            &[response.call()],
        );
    }

    /// Bills one batched round of concurrent calls (Rec. 1): the round
    /// lasts as long as its slowest call, and each member's span carries
    /// its token-weighted share of that. With scheduling active the round
    /// is first placed on the serving tier as one cohort request of that
    /// length, led by the first member.
    pub fn serve_round(
        &mut self,
        module: ModuleKind,
        tenant: TenantId,
        round: &[(usize, LlmResponse)],
    ) {
        let Some(slowest) = round.iter().map(|(_, r)| r).max_by_key(|r| r.latency) else {
            return;
        };
        if !self.service.config().is_passthrough() {
            // The tier bills the round's tokens and cost as one request's
            // (a hedged duplicate re-issues all of them).
            let mut request = slowest.clone();
            request.prompt_tokens = round.iter().map(|(_, r)| r.prompt_tokens).sum();
            request.output_tokens = round.iter().map(|(_, r)| r.output_tokens).sum();
            request.cost_usd = round.iter().map(|(_, r)| r.cost_usd).sum();
            self.place_cohort(module, round[0].0, tenant, &request);
        }
        let weights: Vec<u64> = round
            .iter()
            .map(|(_, r)| r.prompt_tokens + r.output_tokens)
            .collect();
        let shares = amortize_latency(slowest.latency, &weights);
        for ((agent, response), share) in round.iter().zip(shares) {
            self.trace.record_call(
                module,
                Phase::LlmInference,
                *agent,
                share,
                &[response.call()],
            );
        }
    }

    /// Reserves a server slot for one cohort request and bills what the
    /// tier charged before it: failover waste, hedge dispatch, queueing.
    fn place_cohort(
        &mut self,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        request: &LlmResponse,
    ) {
        let out = self
            .service
            .submit_cohort(tenant, self.trace.now(), request);
        if !out.failover.is_zero() {
            // Partial service wasted on a replica that crashed
            // mid-request, before the healthy peer took over.
            self.trace
                .record(module, Phase::Failover, agent, out.failover);
        }
        if out.hedged.is_some() {
            self.trace
                .record(module, Phase::Hedge, agent, HEDGE_DISPATCH);
        }
        // Brownout inflation rides the wait span: the caller observes it
        // as extra time-to-first-token on a degraded replica.
        let wait = out.queue + out.slowdown;
        if !wait.is_zero() {
            self.trace.record(module, Phase::Queue, agent, wait);
        }
    }

    /// Charges guardrail re-prompts their backend's queueing delay: under
    /// active scheduling they went back through the shared backend. The
    /// calls themselves are billed by [`Self::guardrail`]'s `Repair` span.
    pub fn queue_reprompts(&mut self, agent: usize, tenant: TenantId, verdict: &GuardrailVerdict) {
        if !verdict.responses.is_empty() && !self.service.config().is_passthrough() {
            self.queue(ModuleKind::Planning, agent, tenant);
        }
    }

    /// Bills one guardrail pass: its validation time as a `Phase::Validate`
    /// span, and its repair re-prompts as one `Phase::Repair` span that
    /// carries every re-prompt call (all of them planning calls).
    pub fn guardrail(&mut self, agent: usize, verdict: &GuardrailVerdict) {
        if !verdict.validate_latency.is_zero() {
            self.trace.record(
                ModuleKind::Planning,
                Phase::Validate,
                agent,
                verdict.validate_latency,
            );
        }
        if !verdict.responses.is_empty() {
            let calls: Vec<LlmCall> = verdict.responses.iter().map(LlmResponse::call).collect();
            self.trace.record_call(
                ModuleKind::Planning,
                Phase::Repair,
                agent,
                verdict.repair_latency,
                &calls,
            );
        }
    }

    /// Charges a dependent call its backend's queueing delay.
    fn queue(&mut self, module: ModuleKind, agent: usize, tenant: TenantId) {
        let queue = self.service.queue_solo(tenant, self.trace.now());
        if !queue.is_zero() {
            self.trace.record(module, Phase::Queue, agent, queue);
        }
    }

    /// Number of calls parked in the open serving window.
    pub fn pending(&self) -> usize {
        self.window_entries.len()
    }

    /// Closes the current window: every deferred call receives its
    /// amortized share. In fleet mode the window lives on the shared
    /// timeline and only the runner's `BatchWindowClose` event may close
    /// it — possibly merging this episode's calls with another's — so the
    /// deferred entries stay parked until [`Self::apply_window_shares`].
    pub fn close_window(&mut self) {
        if self.service.fleet_enabled() {
            return;
        }
        let shares = self.service.close_window(self.trace.now());
        self.apply_window_shares(&shares);
    }

    /// Gives every deferred call its amortized share: a `Phase::Batch`
    /// span that bills the call (plus a `Phase::Queue` span on the member
    /// that led a queued batch).
    pub fn apply_window_shares(&mut self, shares: &[WindowShare]) {
        let entries = std::mem::take(&mut self.window_entries);
        debug_assert_eq!(shares.len(), entries.len());
        for (entry, share) in entries.iter().zip(shares) {
            if !share.queue.is_zero() {
                self.trace
                    .record(entry.module, Phase::Queue, entry.agent, share.queue);
            }
            self.trace.record_call(
                entry.module,
                Phase::Batch,
                entry.agent,
                share.share,
                &[entry.response.call()],
            );
        }
    }
}
