//! The one place an LLM call is billed.
//!
//! Every call an orchestrator makes goes through [`Accounts::settle`]
//! (retry stall, shed marker, degradation counter) and, when it succeeded,
//! [`Accounts::serve`] (serving spans, batch-window deferral, ledger
//! entry). The fields they write live together so a call site holding
//! `&mut sys.agents[i]` can still borrow `sys.accounts`.

use embodied_llm::{EngineHandle, InferenceService, LlmError, LlmResponse, TenantId, WindowShare};
use embodied_profiler::{ModuleKind, Phase, PurposeLedger, ResilienceStats, SimDuration, Trace};

/// Client-side dispatch overhead billed when a hedged duplicate is issued
/// to a second serving replica.
const HEDGE_DISPATCH: SimDuration = SimDuration::from_millis(2);

/// Marker span billed when serving admission control fast-fails a request
/// — the rejection round-trip, not real inference time.
const SHED_MARKER: SimDuration = SimDuration::from_millis(2);

/// Per-step counters that feed the step-record time series (Fig. 6).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StepCounters {
    pub llm_calls: u64,
    pub max_prompt_tokens: u64,
    pub progressed: bool,
}

/// One windowed LLM call awaiting its amortized latency share when the
/// serving window closes.
#[derive(Debug)]
struct PendingCall {
    module: ModuleKind,
    agent: usize,
    response: LlmResponse,
}

/// The episode's billing state: span timeline, serving stack, open batch
/// window, per-purpose ledger, step counters and degradation counters.
#[derive(Debug)]
pub(crate) struct Accounts {
    pub trace: Trace,
    /// The shared inference service every engine in the system is a tenant
    /// of — owns the engine stacks, the per-scope ledgers, and the
    /// per-model scheduling backends.
    pub service: InferenceService,
    pub by_purpose: PurposeLedger,
    pub counters: StepCounters,
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
            by_purpose: PurposeLedger::default(),
            counters: StepCounters::default(),
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
    /// Pass-through (the default) records the `Phase::LlmInference` span
    /// and the ledger entry. With scheduling active, a `cohort` call
    /// joining an open window is deferred: its time and ledger entry wait
    /// for the window to close. Any other call is first charged its
    /// backend's queueing delay — cohort calls reserve a server slot (and
    /// may fail over or hedge), dependent follow-ups only wait for one.
    /// Returns whether the call was deferred.
    pub fn serve(
        &mut self,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        response: &LlmResponse,
        cohort: bool,
    ) -> bool {
        if !self.service.config().is_passthrough() {
            if cohort && self.service.window_is_open() {
                self.service.window_add(tenant, response);
                self.window_entries.push(PendingCall {
                    module,
                    agent,
                    response: response.clone(),
                });
                return true;
            }
            if cohort {
                let out = self
                    .service
                    .submit_cohort(tenant, self.trace.now(), response);
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
                // Brownout inflation rides the wait span: the caller
                // observes it as extra time-to-first-token on a degraded
                // replica.
                let wait = out.queue + out.slowdown;
                if !wait.is_zero() {
                    self.trace.record(module, Phase::Queue, agent, wait);
                }
            } else {
                self.queue(module, agent, tenant);
            }
        }
        self.trace
            .record(module, Phase::LlmInference, agent, response.latency);
        self.note(response);
        false
    }

    /// Bills guardrail re-prompts: under active scheduling they went back
    /// through the shared backend and pay its queueing delay; each enters
    /// the ledger. Their time is the caller's `Validate`/`Repair` spans.
    pub fn reprompts(
        &mut self,
        module: ModuleKind,
        agent: usize,
        tenant: TenantId,
        responses: &[LlmResponse],
    ) {
        if responses.is_empty() {
            return;
        }
        if !self.service.config().is_passthrough() {
            self.queue(module, agent, tenant);
        }
        for response in responses {
            self.note(response);
        }
    }

    /// Charges a dependent call its backend's queueing delay.
    fn queue(&mut self, module: ModuleKind, agent: usize, tenant: TenantId) {
        let queue = self.service.queue_solo(tenant, self.trace.now());
        if !queue.is_zero() {
            self.trace.record(module, Phase::Queue, agent, queue);
        }
    }

    /// Records a response against the step counters and the per-purpose
    /// ledger, for calls whose time the caller bills with its own span.
    pub fn note(&mut self, response: &LlmResponse) {
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

    /// Number of calls parked in the open serving window.
    pub fn pending(&self) -> usize {
        self.window_entries.len()
    }

    /// Closes the current window: every deferred call receives its
    /// amortized share and is only now fed into the step counters. In
    /// fleet mode the window lives on the shared virtual clock and only
    /// the runner's `BatchWindowClose` event may close it — possibly
    /// merging this episode's calls with another's — so the deferred
    /// entries stay parked until [`Self::apply_window_shares`].
    pub fn close_window(&mut self) {
        if self.service.fleet_enabled() {
            return;
        }
        let shares = self.service.close_window(self.trace.now());
        let (calls, max_prompt) = self.apply_window_shares(&shares);
        self.counters.llm_calls += calls;
        self.counters.max_prompt_tokens = self.counters.max_prompt_tokens.max(max_prompt);
    }

    /// Gives every deferred call its amortized share: a `Phase::Batch`
    /// span (plus a `Phase::Queue` span on the member that led a queued
    /// batch) and a per-purpose ledger entry at the share's latency.
    /// Returns the number of calls settled and their largest prompt.
    pub fn apply_window_shares(&mut self, shares: &[WindowShare]) -> (u64, u64) {
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
}
