//! The shared inference service: ownership-inverted engine stacks behind
//! per-tenant handles, with batching, queueing and prefix-cache accounting
//! (paper Rec. 1: batching, KV-prefix reuse, shared endpoints).
//!
//! Modules no longer own their engines. They hold an [`EngineHandle`]
//! registered against an [`InferenceService`], which keeps one scheduling
//! backend per distinct [`ModelProfile`] and a per-tenant usage ledger.
//! Each tenant still drives its *own* fault → semantic → resilience stack
//! (built once by [`EngineBuilder`]), so RNG draw order is identical to
//! the old module-owned layout in every serving mode — scheduling only
//! re-attributes *time*, never *randomness*.
//!
//! Every tenant is registered into an episode *scope*, and every serving
//! counter ledgers into its tenant's scope. A solo episode is scope 0 of a
//! private service whose backends free every slot at each step barrier
//! ([`InferenceService::begin_step`]); fleet mode
//! ([`InferenceService::enable_fleet`]) hosts one scope per episode on a
//! global virtual clock where nothing resets. Both run the same placement
//! pipeline and the same batch bill, but they are two serving models, and
//! they differ in three places:
//!
//! - a slot wait is measured from the step barrier (solo) or from the
//!   request's own arrival (fleet), so a lone solo agent's dependent call
//!   can queue behind its own finished call;
//! - a solo batch window closes inside its step, a fleet window at a later
//!   `BatchWindowClose` event that other episodes' calls may join;
//! - shedding reads this step's placements on the backend (solo) or the
//!   fleet's in-flight gauge.
//!
//! So a one-episode fleet reproduces a solo episode only where none of the
//! three binds (pass-through serving, or spare replicas without serving
//! faults).

use crate::engine::{LlmEngine, LlmError};
use crate::fault::FaultProfile;
use crate::latency::{amortize_latency, batch_latency, InferenceOpts};
use crate::profile::ModelProfile;
use crate::request::{LlmRequest, LlmResponse, Purpose};
use crate::resilience::{InferenceEndpoint, ResilientEngine, RetryPolicy};
use crate::scheduler::{BackendQueue, PlacementOutcome, ServingConfig};
use crate::serving_faults::ServingFaultInjector;
use crate::sim::{EventQueue, FleetSummary, ScheduledEvent, SimEvent};
use embodied_profiler::{
    ResilienceStats, ServingFaultStats, ServingStats, SimDuration, SimInstant, TokenStats,
};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Builds every engine stack in a system identically: base engine →
/// transport-fault injection (per-module stream) → retry/backoff wrapper
/// (per-module jitter stream).
///
/// One builder replaces the formerly duplicated `resilient(...)` closures
/// in the agent and central-planner constructors, so the layering and its
/// seed derivation cannot drift between call sites.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    fault_profile: FaultProfile,
    retry_policy: RetryPolicy,
    fault_seed_base: u64,
    backoff_seed_base: u64,
}

impl EngineBuilder {
    /// A builder for one owner's engine stacks. `fault_seed_base` and
    /// `backoff_seed_base` are XORed with the per-module stream id on
    /// every [`EngineBuilder::wrap`] call.
    pub fn new(
        fault_profile: FaultProfile,
        retry_policy: RetryPolicy,
        fault_seed_base: u64,
        backoff_seed_base: u64,
    ) -> Self {
        EngineBuilder {
            fault_profile,
            retry_policy,
            fault_seed_base,
            backoff_seed_base,
        }
    }

    /// Wraps a base engine in the fault → resilience stack for module
    /// stream `module`.
    pub fn wrap(&self, engine: LlmEngine, module: u64) -> ResilientEngine {
        ResilientEngine::new(
            engine.with_faults(self.fault_profile, self.fault_seed_base ^ module),
            self.retry_policy,
            self.backoff_seed_base ^ module,
        )
    }
}

/// Index of one registered tenant of an [`InferenceService`].
pub type TenantId = usize;

/// Per-member outcome of a closed batch window, in submission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowShare {
    /// Episode scope of the member's tenant (0 for a solo episode).
    pub scope: usize,
    /// The member's amortized share of its batch's latency bill.
    pub share: SimDuration,
    /// Queueing delay before the batch started; non-zero only on the
    /// member leading its batch (the rest ride the same wait).
    pub queue: SimDuration,
}

struct Tenant {
    engine: ResilientEngine,
    backend: usize,
    /// Episode scope the tenant was registered into (0 for a solo
    /// episode): its requests run on that scope's timeline and ledger there.
    scope: usize,
}

struct Backend {
    profile: ModelProfile,
    queue: BackendQueue,
    /// Placements accepted this step — the per-step admission-control
    /// signal for load shedding. Reset at every step barrier.
    depth: u32,
}

/// What the serving tier charged one non-batched placement: the span
/// material for `Phase::Queue` / `Phase::Failover` and the hedge verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOutcome {
    /// Wait before service began (slot queueing, restarts, overflow
    /// re-dispatch).
    pub queue: SimDuration,
    /// Extra service time from a browned-out replica.
    pub slowdown: SimDuration,
    /// Partial service wasted on a replica that crashed mid-request.
    pub failover: SimDuration,
    /// Hedge verdict: `Some(true)` when the duplicate won the race,
    /// `Some(false)` when it lost, `None` when no hedge was issued.
    pub hedged: Option<bool>,
}

struct WindowMember {
    tenant: TenantId,
    prompt_tokens: u64,
    output_tokens: u64,
}

struct Window {
    opts: InferenceOpts,
    prefix_tokens: u64,
    members: Vec<WindowMember>,
}

/// One episode scope's serving ledger — a solo episode has one, a fleet
/// one per episode — so each report stays attributable under shared-stack
/// load.
#[derive(Debug, Clone, Default)]
struct ScopeLedger {
    stats: ServingStats,
    fault_stats: ServingFaultStats,
    /// Tokens billed to hedged duplicates — merged into
    /// [`InferenceService::total_usage`] so the hedge premium shows up in
    /// every token/$ report.
    hedge_usage: TokenStats,
}

impl ScopeLedger {
    /// Counts one queueing observation.
    fn note_queue(&mut self, queued: SimDuration) {
        if !queued.is_zero() {
            self.stats.queued += 1;
            self.stats.queue_delay += queued;
        }
    }

    /// Counts one placement's fault outcomes.
    fn note_placement(&mut self, out: &PlacementOutcome) {
        let fs = &mut self.fault_stats;
        if out.crashed {
            fs.crashes += 1;
        }
        if out.failed_over {
            fs.failovers += 1;
        }
        if out.overflowed {
            fs.overflows += 1;
        }
        if out.slowed {
            fs.brownouts += 1;
            fs.slowdown_delay += out.slowdown;
        }
        fs.failover_delay += out.failover_penalty;
        match out.hedged {
            Some(true) => fs.hedges_won += 1,
            Some(false) => fs.hedges_wasted += 1,
            None => {}
        }
    }

    /// Scores one request against the SLO deadline.
    fn note_slo(&mut self, met: bool) {
        self.fault_stats.slo_total += 1;
        if met {
            self.fault_stats.slo_met += 1;
        }
    }
}

/// Fleet-mode state: the furthest instant the fleet has reached, the typed
/// event queue, each episode scope's base instant, and the substrate
/// counters behind [`FleetSummary`]. `None` for a solo episode.
#[derive(Default)]
struct FleetState {
    /// High-water mark of the global timeline: event pops and placements
    /// only ever raise it. Episodes execute their steps atomically at pop
    /// time, so an earlier-stamped placement may arrive after a later one.
    now: SimInstant,
    events: EventQueue,
    /// Per-scope global base instant: episode-local trace time `t` maps to
    /// global instant `bases[scope] + t`.
    bases: Vec<SimInstant>,
    /// Placements currently decoding (incremented at placement,
    /// decremented when the `DecodeFinish` event pops) — the fleet's
    /// admission-control signal, replacing the per-step depth counter.
    in_flight: u32,
    peak_in_flight: u32,
    sessions: u64,
    decode_events: u64,
    restarts: u64,
    cross_episode_batches: u64,
    events_processed: u64,
}

impl FleetState {
    /// Schedules a placement's substrate events — its completion as a
    /// `DecodeFinish`, a crash's restart as a `ReplicaRestart` — and counts
    /// it in flight.
    fn track(
        &mut self,
        backend: usize,
        completion: SimInstant,
        restart: Option<(usize, SimInstant)>,
    ) {
        self.events
            .push(completion, SimEvent::DecodeFinish { backend });
        if let Some((replica, at)) = restart {
            self.events
                .push(at, SimEvent::ReplicaRestart { backend, replica });
        }
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
    }
}

struct ServiceInner {
    config: ServingConfig,
    tenants: Vec<Tenant>,
    backends: Vec<Backend>,
    /// One ledger per episode scope; a solo episode is scope 0.
    scopes: Vec<ScopeLedger>,
    /// The current step barrier of a solo episode: the origin its slot
    /// waits are measured from.
    barrier: SimInstant,
    injector: ServingFaultInjector,
    window: Option<Window>,
    fleet: Option<FleetState>,
}

impl ServiceInner {
    fn backend_for(&mut self, profile: &ModelProfile) -> usize {
        if let Some(idx) = self
            .backends
            .iter()
            .position(|b| b.profile.name == profile.name)
        {
            return idx;
        }
        self.backends.push(Backend {
            profile: profile.clone(),
            queue: BackendQueue::new(self.config.concurrency, self.config.replicas),
            depth: 0,
        });
        self.backends.len() - 1
    }

    /// `scope`'s episode-local instant `now` on the service timeline:
    /// offset by the scope's base in a fleet, unchanged for a solo episode.
    fn globalize(&self, scope: usize, now: SimInstant) -> SimInstant {
        match &self.fleet {
            Some(fleet) => fleet.bases[scope] + now.duration_since(SimInstant::EPOCH),
            None => now,
        }
    }

    /// The origin of a placement at service instant `at`: the current step
    /// barrier for a solo episode, `at` itself in fleet mode (whose
    /// high-water mark rises to it).
    fn origin(&mut self, at: SimInstant) -> SimInstant {
        match &mut self.fleet {
            Some(fleet) => {
                fleet.now = fleet.now.max(at);
                at
            }
            None => self.barrier,
        }
    }

    /// The engine stacks registered into `scope`.
    fn engines(&self, scope: usize) -> impl Iterator<Item = &ResilientEngine> {
        self.tenants
            .iter()
            .filter(move |t| t.scope == scope)
            .map(|t| &t.engine)
    }
}

/// The shared, simulated inference-serving stack of one embodied system.
///
/// Cheap to clone (all clones share state); deliberately `!Send` — a
/// service and every handle onto it live inside one episode on one
/// thread, matching the episode-per-worker parallelism of the bench
/// harness.
#[derive(Clone)]
pub struct InferenceService {
    inner: Rc<RefCell<ServiceInner>>,
}

impl Default for InferenceService {
    fn default() -> Self {
        InferenceService::new(ServingConfig::default())
    }
}

impl fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No RefCell borrow: handles embedded in the very tenants this
        // service owns must stay debug-printable mid-call.
        f.debug_struct("InferenceService").finish_non_exhaustive()
    }
}

impl InferenceService {
    /// A service with the given scheduling configuration and no tenants,
    /// drawing serving faults from seed 0. Callers that inject serving
    /// faults should use [`InferenceService::with_seed`]; the pass-through
    /// fast path never draws, so the seed is irrelevant there.
    pub fn new(config: ServingConfig) -> Self {
        Self::with_seed(config, 0)
    }

    /// A service whose serving-fault injector draws from its own stream
    /// derived from `seed` (distinct XOR salt — independent of every
    /// engine's main, transport-fault, and semantic streams).
    pub fn with_seed(config: ServingConfig, seed: u64) -> Self {
        InferenceService {
            inner: Rc::new(RefCell::new(ServiceInner {
                config,
                tenants: Vec::new(),
                backends: Vec::new(),
                scopes: vec![ScopeLedger::default()],
                barrier: SimInstant::EPOCH,
                injector: ServingFaultInjector::new(config.faults, seed),
                window: None,
                fleet: None,
            })),
        }
    }

    /// Switches the service into fleet mode for `episodes` concurrently
    /// multiplexed episode scopes: slot waits are measured from each
    /// request's own arrival on one global virtual clock (nothing resets
    /// at step barriers), completions become `DecodeFinish` events, and
    /// every counter ledgers per scope. Must be called before any tenant
    /// registers (registration checks each tenant's scope against it).
    ///
    /// # Panics
    ///
    /// Panics if tenants are already registered.
    pub fn enable_fleet(&self, episodes: usize) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.tenants.is_empty(),
            "fleet mode must be enabled before tenants register"
        );
        inner.scopes = vec![ScopeLedger::default(); episodes];
        inner.fleet = Some(FleetState {
            bases: vec![SimInstant::EPOCH; episodes],
            ..FleetState::default()
        });
    }

    /// Whether this service multiplexes episode scopes on one timeline.
    pub fn fleet_enabled(&self) -> bool {
        self.inner.borrow().fleet.is_some()
    }

    /// Anchors `scope`'s episode-local time zero at global instant `base`
    /// (its admission instant): local trace time `t` maps to `base + t`.
    pub fn set_scope_base(&self, scope: usize, base: SimInstant) {
        let mut inner = self.inner.borrow_mut();
        let fleet = inner.fleet.as_mut().expect("fleet mode not enabled");
        fleet.bases[scope] = base;
        fleet.sessions += 1;
    }

    /// Schedules a fleet event at global instant `at`, returning its
    /// sequence id (the deterministic same-instant tie-breaker).
    pub fn push_fleet_event(&self, at: SimInstant, event: SimEvent) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let fleet = inner.fleet.as_mut().expect("fleet mode not enabled");
        fleet.events.push(at, event)
    }

    /// Pops fleet events in `(virtual-time, sequence-id)` order, raising
    /// the fleet's high-water mark to each. Substrate bookkeeping events —
    /// `DecodeFinish` (in-flight gauge down) and `ReplicaRestart` — are
    /// consumed internally; the first orchestration event (arrival, step
    /// ready, window close) is returned to the runner. `None` when the
    /// queue drains.
    pub fn pop_fleet_event(&self) -> Option<ScheduledEvent> {
        let mut inner = self.inner.borrow_mut();
        let fleet = inner.fleet.as_mut().expect("fleet mode not enabled");
        while let Some(ev) = fleet.events.pop() {
            fleet.now = fleet.now.max(ev.at);
            fleet.events_processed += 1;
            match ev.event {
                SimEvent::DecodeFinish { .. } => {
                    fleet.in_flight = fleet.in_flight.saturating_sub(1);
                    fleet.decode_events += 1;
                }
                SimEvent::ReplicaRestart { .. } => fleet.restarts += 1,
                _ => return Some(ev),
            }
        }
        None
    }

    /// The scheduling configuration this service was built with.
    pub fn config(&self) -> ServingConfig {
        self.inner.borrow().config
    }

    /// Registers a fully wrapped engine stack as a new tenant of episode
    /// scope `scope` (0 for a solo episode), returning the handle its
    /// module will hold. Tenants sharing a model profile share one
    /// scheduling backend.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is not one of the service's scopes.
    pub fn register(&self, engine: ResilientEngine, scope: usize) -> EngineHandle {
        let profile = engine.profile().clone();
        let reads_prompt_text = engine.engine().kv_reuse();
        let mut inner = self.inner.borrow_mut();
        assert!(scope < inner.scopes.len(), "scope out of range");
        let backend = inner.backend_for(&profile);
        inner.tenants.push(Tenant {
            engine,
            backend,
            scope,
        });
        let tenant = inner.tenants.len() - 1;
        drop(inner);
        EngineHandle {
            service: self.clone(),
            tenant,
            profile,
            reads_prompt_text,
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.inner.borrow().tenants.len()
    }

    /// Step barrier of a solo episode at instant `barrier`: every backend
    /// slot frees there (the step loop is a synchronization barrier;
    /// queues do not carry over), later placements measure their waits
    /// from it, and admission-control depths reset. Replica restart clocks
    /// persist: a crashed replica stays down until its simulated restart
    /// instant. In fleet mode the timeline is continuous and nothing
    /// resets.
    pub fn begin_step(&self, barrier: SimInstant) {
        let mut inner = self.inner.borrow_mut();
        if inner.fleet.is_some() {
            return;
        }
        inner.barrier = barrier;
        for b in &mut inner.backends {
            b.queue.begin_step(barrier);
            b.depth = 0;
        }
    }

    /// Schedules one independent (cohort) request, reserving a server
    /// slot for its `response.latency` of simulated inference on the
    /// tenant's replica fleet at its scope's local instant `now`. Draws
    /// serving faults, hedges when configured, measures the SLO, and
    /// returns what the tier charged.
    pub fn submit_cohort(
        &self,
        tenant: TenantId,
        now: SimInstant,
        response: &LlmResponse,
    ) -> ServeOutcome {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let (backend, scope) = (inner.tenants[tenant].backend, inner.tenants[tenant].scope);
        let at = inner.globalize(scope, now);
        let origin = inner.origin(at);
        let b = &mut inner.backends[backend];
        b.depth += 1;
        let (out, completion, restart) = b.queue.place_at(
            at,
            origin,
            response.latency,
            &mut inner.injector,
            inner.config.hedge_after,
        );
        if let Some(fleet) = &mut inner.fleet {
            fleet.track(backend, completion, restart);
        }
        let ledger = &mut inner.scopes[scope];
        ledger.stats.cohort_requests += 1;
        ledger.note_placement(&out);
        if out.hedged.is_some() {
            // First-completion-wins still bills both attempts: the losing
            // duplicate's tokens are the premium hedging pays.
            ledger.hedge_usage.record(
                response.prompt_tokens,
                response.output_tokens,
                response.cost_usd,
            );
            ledger.fault_stats.hedge_tokens += response.prompt_tokens + response.output_tokens;
            ledger.fault_stats.hedge_cost_usd += response.cost_usd;
        }
        if let Some(deadline) = inner.config.deadline {
            ledger.note_slo(out.queue + out.slowdown + response.latency <= deadline);
        }
        ledger.note_queue(out.queue + out.slowdown);
        ServeOutcome {
            queue: out.queue,
            slowdown: out.slowdown,
            failover: out.failover_penalty,
            hedged: out.hedged,
        }
    }

    /// Bills one *dependent* follow-up request (action selection,
    /// verification, reflection, guardrail re-prompt) the delay until a
    /// slot frees at its scope's local instant `now`, without reserving
    /// one — its own service time is already accounted sequentially by
    /// the caller. Draws no faults.
    pub fn queue_solo(&self, tenant: TenantId, now: SimInstant) -> SimDuration {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let (backend, scope) = (inner.tenants[tenant].backend, inner.tenants[tenant].scope);
        let at = inner.globalize(scope, now);
        let origin = inner.origin(at);
        let b = &mut inner.backends[backend];
        b.depth += 1;
        let queued = b.queue.delay(at, origin);
        let ledger = &mut inner.scopes[scope];
        ledger.stats.solo_requests += 1;
        ledger.note_queue(queued);
        queued
    }

    /// Opens a batch window for a fan-out of same-phase requests whose
    /// prompts share a prefix of `prefix_tokens` tokens (the workload's
    /// system preamble, counted once where it was made). Subsequent
    /// [`InferenceService::window_add`] calls join it until
    /// [`InferenceService::close_window`].
    ///
    /// # Panics
    ///
    /// Panics if a window is already open — windows never nest. Exception:
    /// in fleet mode concurrent episodes *join* the open window (that is
    /// the cross-episode batch), so a second open is a no-op there.
    pub fn open_window(&self, opts: InferenceOpts, prefix_tokens: u64) {
        let mut inner = self.inner.borrow_mut();
        if inner.fleet.is_some() && inner.window.is_some() {
            return;
        }
        assert!(inner.window.is_none(), "serving windows cannot nest");
        inner.window = Some(Window {
            opts,
            prefix_tokens,
            members: Vec::new(),
        });
    }

    /// Whether a batch window is currently collecting members.
    pub fn window_is_open(&self) -> bool {
        self.inner.borrow().window.is_some()
    }

    /// Adds a tenant's already-computed response to the open window; its
    /// latency is re-attributed at close.
    ///
    /// # Panics
    ///
    /// Panics if no window is open.
    pub fn window_add(&self, tenant: TenantId, response: &LlmResponse) {
        let mut inner = self.inner.borrow_mut();
        let window = inner.window.as_mut().expect("no serving window open");
        window.members.push(WindowMember {
            tenant,
            prompt_tokens: response.prompt_tokens,
            output_tokens: response.output_tokens,
        });
    }

    /// Closes the window at service instant `now` (a solo episode's trace
    /// time, or the fleet's global instant): groups members by backend,
    /// applies the prefix-cache model (every member after the first on a
    /// backend reuses the shared preamble's KV prefix), computes each
    /// group's shared batch bill, schedules it on the replica fleet
    /// (drawing serving faults at batch granularity — batches are never
    /// hedged), and returns every member's scope and amortized share in
    /// submission order.
    ///
    /// Batch composition is ordered by scope, then tenant id (stable on
    /// submission order), so co-arrival order cannot leak scheduling
    /// nondeterminism into the results. A batch whose members span two or
    /// more scopes counts as a cross-episode batch. The batch's placement
    /// and serving-side wait ledger into the lead member's scope; each
    /// member's own scope counts its membership, prefix hit and SLO.
    pub fn close_window(&self, now: SimInstant) -> Vec<WindowShare> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let window = inner.window.take().expect("no serving window open");
        let origin = inner.origin(now);
        let scope_of: Vec<usize> = window
            .members
            .iter()
            .map(|m| inner.tenants[m.tenant].scope)
            .collect();
        let mut shares = vec![WindowShare::default(); window.members.len()];
        for backend_idx in 0..inner.backends.len() {
            // Deterministic batch order: scope, tenant id, submission order.
            let mut group: Vec<usize> = (0..window.members.len())
                .filter(|&m| inner.tenants[window.members[m].tenant].backend == backend_idx)
                .collect();
            group.sort_by_key(|&m| (scope_of[m], window.members[m].tenant, m));
            let Some(&first) = group.first() else {
                continue;
            };
            let lead = scope_of[first];
            if let Some(fleet) = &mut inner.fleet {
                if group.iter().any(|&m| scope_of[m] != lead) {
                    fleet.cross_episode_batches += 1;
                }
            }
            let mut sized = Vec::with_capacity(group.len());
            for (j, &m) in group.iter().enumerate() {
                let member = &window.members[m];
                let reused = if j == 0 {
                    0 // first arrival pays the full prefill, warming the cache
                } else {
                    window
                        .prefix_tokens
                        .min(member.prompt_tokens.saturating_sub(1))
                };
                if reused > 0 {
                    let stats = &mut inner.scopes[scope_of[m]].stats;
                    stats.prefix_hits += 1;
                    stats.prefix_reused_tokens += reused;
                }
                sized.push((member.prompt_tokens - reused, member.output_tokens));
            }
            let b = &mut inner.backends[backend_idx];
            let total = batch_latency(&b.profile, &sized, window.opts);
            let weights: Vec<u64> = sized.iter().map(|&(pt, ot)| pt + ot).collect();
            let amortized = amortize_latency(total, &weights);
            debug_assert_eq!(
                amortized.iter().copied().sum::<SimDuration>(),
                total,
                "batch shares must sum to the batch bill"
            );
            b.depth += group.len() as u32;
            let (out, completion, restart) =
                b.queue
                    .place_at(now, origin, total, &mut inner.injector, None);
            if let Some(fleet) = &mut inner.fleet {
                fleet.track(backend_idx, completion, restart);
            }
            // Serving-side overheads (restart waits, brownout inflation,
            // crash waste) ride the leading member's wait: the whole batch
            // completes together, so one span carries the shared cost.
            let lead_wait = out.queue + out.slowdown + out.failover_penalty;
            let ledger = &mut inner.scopes[lead];
            ledger.note_placement(&out);
            ledger.stats.batches += 1;
            ledger.note_queue(lead_wait);
            let met = inner
                .config
                .deadline
                .map(|deadline| lead_wait + total <= deadline);
            for (j, &m) in group.iter().enumerate() {
                let ledger = &mut inner.scopes[scope_of[m]];
                ledger.stats.batched_requests += 1;
                if let Some(met) = met {
                    ledger.note_slo(met);
                }
                shares[m] = WindowShare {
                    scope: scope_of[m],
                    share: amortized[j],
                    queue: if j == 0 { lead_wait } else { SimDuration::ZERO },
                };
            }
        }
        shares
    }

    /// One episode scope's serving counters (a solo episode is scope 0).
    pub fn stats(&self, scope: usize) -> ServingStats {
        self.inner.borrow().scopes[scope].stats
    }

    /// One episode scope's serving-fault counters (crashes, failovers,
    /// hedges, sheds, deadline misses, SLO attainment).
    pub fn fault_stats(&self, scope: usize) -> ServingFaultStats {
        self.inner.borrow().scopes[scope].fault_stats
    }

    /// Merged token usage of one episode scope's tenants plus its hedge
    /// premium (the tokens billed to hedged duplicates) — the system-level
    /// ledger replacing per-module hand-walks.
    pub fn total_usage(&self, scope: usize) -> TokenStats {
        let inner = self.inner.borrow();
        let mut total = TokenStats::default();
        for engine in inner.engines(scope) {
            total.merge(&engine.usage());
        }
        total.merge(&inner.scopes[scope].hedge_usage);
        total
    }

    /// Merged resilience counters of one episode scope's tenants.
    pub fn total_resilience(&self, scope: usize) -> ResilienceStats {
        let mut total = ResilienceStats::default();
        for engine in self.inner.borrow().engines(scope) {
            total.merge(&engine.stats());
        }
        total
    }

    /// Token usage of one tenant.
    pub fn tenant_usage(&self, tenant: TenantId) -> TokenStats {
        self.with_engine(tenant, |e| e.usage())
    }

    /// Fleet-level counters: what the shared substrate saw across every
    /// episode scope (fleet mode only).
    pub fn fleet_summary(&self) -> FleetSummary {
        let inner = self.inner.borrow();
        let fleet = inner.fleet.as_ref().expect("fleet mode not enabled");
        FleetSummary {
            sessions: fleet.sessions,
            events: fleet.events_processed,
            peak_in_flight: fleet.peak_in_flight,
            decode_events: fleet.decode_events,
            restarts: fleet.restarts,
            cross_episode_batches: fleet.cross_episode_batches,
            makespan: fleet.now.duration_since(SimInstant::EPOCH),
        }
    }

    fn with_engine<R>(&self, tenant: TenantId, f: impl FnOnce(&mut ResilientEngine) -> R) -> R {
        f(&mut self.inner.borrow_mut().tenants[tenant].engine)
    }

    /// The request path behind [`EngineHandle::infer`]: admission control
    /// first (a shed request reaches no engine and draws nothing), then
    /// the tenant's engine stack, then the SLO deadline check.
    fn infer_checked(
        &self,
        tenant: TenantId,
        req: LlmRequest<'_>,
    ) -> Result<LlmResponse, LlmError> {
        {
            let mut inner = self.inner.borrow_mut();
            let shed_depth = inner.config.shed_depth;
            if shed_depth > 0 {
                // Admission signal: this step's placements on the tenant's
                // backend for a solo episode; in fleet mode the live
                // in-flight gauge (placements whose DecodeFinish has not
                // popped yet) — the continuous-time analogue of the same
                // backlog.
                let depth = match &inner.fleet {
                    Some(fleet) => fleet.in_flight,
                    None => inner.backends[inner.tenants[tenant].backend].depth,
                };
                // Low-priority purposes shed first; everything sheds once
                // the backlog doubles past the threshold.
                let low_priority = matches!(
                    req.purpose,
                    Purpose::Reflection | Purpose::Communication | Purpose::Summarization
                );
                if depth >= shed_depth * 2 || (low_priority && depth >= shed_depth) {
                    let scope = inner.tenants[tenant].scope;
                    inner.scopes[scope].fault_stats.shed += 1;
                    return Err(LlmError::Shed);
                }
            }
        }
        let result = self.with_engine(tenant, |e| e.infer(req));
        if let Ok(resp) = &result {
            let mut inner = self.inner.borrow_mut();
            if let Some(deadline) = inner.config.deadline {
                if resp.latency > deadline {
                    // The caller abandoned the call at the deadline, but
                    // the simulated wall-clock it burned is real: bill it
                    // as stall so the trace stays time-conserving.
                    let scope = inner.tenants[tenant].scope;
                    inner.scopes[scope].fault_stats.deadline_misses += 1;
                    inner.tenants[tenant].engine.add_stall(resp.latency);
                    return Err(LlmError::DeadlineExceeded);
                }
            }
        }
        result
    }
}

/// A module's view onto its tenant slot of an [`InferenceService`].
///
/// The handle is a pure delegate: every call goes straight to the
/// tenant's own engine stack, preserving per-module RNG draw order
/// exactly. Scheduling (queueing, batch windows) is driven explicitly by
/// the orchestrator through the service — never implicitly by the handle.
#[derive(Clone)]
pub struct EngineHandle {
    service: InferenceService,
    tenant: TenantId,
    profile: ModelProfile,
    reads_prompt_text: bool,
}

impl fmt::Debug for EngineHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Manual impl so a handle can be printed while the service's
        // RefCell is mutably borrowed (e.g. from inside an engine panic).
        f.debug_struct("EngineHandle")
            .field("tenant", &self.tenant)
            .field("profile", &self.profile.name)
            .finish()
    }
}

impl EngineHandle {
    /// This handle's tenant id within the service.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The service this handle is registered with.
    pub fn service(&self) -> &InferenceService {
        &self.service
    }

    /// The tenant's model profile (cached at registration).
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Whether the tenant's engine reads prompt text (KV-prefix reuse);
    /// otherwise a prompt's token count is all it uses (cached at
    /// registration).
    pub fn reads_prompt_text(&self) -> bool {
        self.reads_prompt_text
    }

    /// Runs one inference through the serving tier and the tenant's
    /// engine stack: admission control, the engine's fault → semantic →
    /// retry layers, then the SLO deadline check.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine (faults that exhausted the
    /// retry budget, empty prompts), plus [`LlmError::Shed`] from
    /// admission control and [`LlmError::DeadlineExceeded`] from the SLO
    /// deadline — both non-transient, both absent in the default
    /// pass-through configuration.
    pub fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        self.service.infer_checked(self.tenant, req)
    }

    /// Merged token usage of this tenant.
    pub fn usage(&self) -> TokenStats {
        self.service.tenant_usage(self.tenant)
    }

    /// Resilience counters of this tenant.
    pub fn stats(&self) -> ResilienceStats {
        self.service.with_engine(self.tenant, |e| e.stats())
    }

    /// Whether the tenant's circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.service.with_engine(self.tenant, |e| e.breaker_open())
    }

    /// Drains the simulated stall time accumulated by retries.
    pub fn take_stall(&mut self) -> SimDuration {
        self.service.with_engine(self.tenant, |e| e.take_stall())
    }

    /// Draws a correctness sample from the tenant's RNG stream.
    pub fn sample_correct(&mut self, quality: f64) -> bool {
        self.service
            .with_engine(self.tenant, |e| e.sample_correct(quality))
    }

    /// Draws a uniform index from the tenant's RNG stream.
    pub fn sample_index(&mut self, n: usize) -> usize {
        self.service.with_engine(self.tenant, |e| e.sample_index(n))
    }
}

impl InferenceEndpoint for EngineHandle {
    fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        EngineHandle::infer(self, req)
    }
}

impl From<ResilientEngine> for EngineHandle {
    /// Wraps a standalone engine stack in a private single-tenant
    /// pass-through service — the compatibility path for module-level
    /// tests and ad-hoc callers that never touch an orchestrator.
    fn from(engine: ResilientEngine) -> Self {
        InferenceService::default().register(engine, 0)
    }
}

impl From<LlmEngine> for EngineHandle {
    /// Wraps a bare engine via the standard retry policy, then as a
    /// single-tenant pass-through service.
    fn from(engine: LlmEngine) -> Self {
        ResilientEngine::from(engine).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Purpose;
    use embodied_profiler::count_tokens;

    fn handle(service: &InferenceService, seed: u64, scope: usize) -> EngineHandle {
        let builder = EngineBuilder::new(
            FaultProfile::none(),
            RetryPolicy::standard(),
            seed ^ 0xfa00,
            seed ^ 0xb000,
        );
        service.register(
            builder.wrap(LlmEngine::new(ModelProfile::gpt4_api(), seed), 0x01),
            scope,
        )
    }

    fn req(prompt: &str) -> LlmRequest<'_> {
        LlmRequest::new(Purpose::Planning, prompt, 150)
    }

    /// A synthetic response carrying only the latency the scheduler
    /// cares about.
    fn resp(latency: SimDuration) -> LlmResponse {
        LlmResponse {
            purpose: Purpose::Planning,
            prompt_tokens: 100,
            output_tokens: 50,
            latency,
            quality: 1.0,
            cost_usd: 0.01,
            truncated: false,
            flaw: None,
        }
    }

    const T0: SimInstant = SimInstant::EPOCH;

    #[test]
    fn builder_matches_hand_rolled_stack() {
        // The builder must reproduce the legacy closure exactly: same
        // fault stream (seed ^ module) and backoff stream per module.
        let seed = 99u64;
        let hand = ResilientEngine::new(
            LlmEngine::new(ModelProfile::gpt4_api(), seed)
                .with_faults(FaultProfile::uniform(0.2), seed ^ 0xfa00 ^ 0x01),
            RetryPolicy::standard(),
            seed ^ 0xb000 ^ 0x01,
        );
        let built = EngineBuilder::new(
            FaultProfile::uniform(0.2),
            RetryPolicy::standard(),
            seed ^ 0xfa00,
            seed ^ 0xb000,
        )
        .wrap(LlmEngine::new(ModelProfile::gpt4_api(), seed), 0x01);
        let drive = |mut e: ResilientEngine| {
            (0..8)
                .map(|i| e.infer(req(&format!("step {i} plan"))).map(|r| r.latency))
                .collect::<Vec<_>>()
        };
        assert_eq!(drive(hand), drive(built));
    }

    #[test]
    fn handle_is_a_pure_delegate() {
        // Same seed, same requests: a handle-fronted engine replays the
        // directly-driven engine bit-identically, in pass-through and in
        // batched/limited modes alike (scheduling never touches draws).
        let drive_direct = || {
            let mut e = ResilientEngine::new(
                LlmEngine::new(ModelProfile::gpt4_api(), 7)
                    .with_faults(FaultProfile::none(), 7 ^ 0xfa00 ^ 0x01),
                RetryPolicy::standard(),
                7 ^ 0xb000 ^ 0x01,
            );
            (0..6)
                .map(|i| e.infer(req(&format!("plan step {i}"))).unwrap())
                .collect::<Vec<_>>()
        };
        for config in [
            ServingConfig::default(),
            ServingConfig::batched(),
            ServingConfig::limited(1),
        ] {
            let service = InferenceService::new(config);
            let mut h = handle(&service, 7, 0);
            let via_handle: Vec<_> = (0..6)
                .map(|i| h.infer(req(&format!("plan step {i}"))).unwrap())
                .collect();
            assert_eq!(via_handle, drive_direct(), "config {config:?}");
        }
    }

    #[test]
    fn scope_usage_sums_its_tenants() {
        let service = InferenceService::default();
        let mut a = handle(&service, 1, 0);
        let mut b = handle(&service, 2, 0);
        let mut c = handle(&service, 3, 0);
        a.infer(req("agent zero plans")).unwrap();
        a.infer(req("agent zero plans again")).unwrap();
        b.infer(req("agent one plans")).unwrap();
        c.infer(req("the center plans")).unwrap();
        assert_eq!(service.total_usage(0).calls, 4);
        assert_eq!(a.usage().calls, 2);
        assert!(service.total_resilience(0) == Default::default());
        assert_eq!(service.tenant_count(), 3);
    }

    #[test]
    fn same_profile_tenants_share_a_backend_queue() {
        let service = InferenceService::new(ServingConfig::limited(1));
        let a = handle(&service, 1, 0);
        let b = handle(&service, 2, 0);
        let work = SimDuration::from_secs(10);
        assert_eq!(
            service.submit_cohort(a.tenant(), T0, &resp(work)).queue,
            SimDuration::ZERO
        );
        // One slot, already busy for 10 s: the second tenant queues.
        assert_eq!(
            service.submit_cohort(b.tenant(), T0, &resp(work)).queue,
            work
        );
        // A dependent follow-up waits for the earliest slot but reserves
        // nothing.
        assert_eq!(service.queue_solo(a.tenant(), T0), work * 2);
        assert_eq!(service.queue_solo(a.tenant(), T0), work * 2);
        let stats = service.stats(0);
        assert_eq!(stats.cohort_requests, 2);
        assert_eq!(stats.solo_requests, 2);
        assert_eq!(stats.queued, 3);
        assert_eq!(stats.queue_delay, work * 5);
        // Fault-free serving keeps the fault plane silent.
        assert!(service.fault_stats(0) == Default::default());
        // Step barrier clears the queues.
        service.begin_step(T0);
        assert_eq!(service.queue_solo(b.tenant(), T0), SimDuration::ZERO);
    }

    #[test]
    fn window_batches_with_prefix_reuse_and_exact_shares() {
        let service = InferenceService::new(ServingConfig::batched());
        let preamble = "You are an embodied agent in a simulated household. \
                        Coordinate with your teammates to finish the task.";
        let mut handles: Vec<_> = (0..3).map(|i| handle(&service, i as u64 + 10, 0)).collect();
        let prefix_tokens = count_tokens(preamble);
        service.open_window(InferenceOpts::default(), prefix_tokens);
        assert!(service.window_is_open());
        let mut responses = Vec::new();
        for h in &mut handles {
            let prompt = format!("{preamble}\nplan your next action ({})", h.tenant());
            let resp = h.infer(req(&prompt)).unwrap();
            service.window_add(h.tenant(), &resp);
            responses.push(resp);
        }
        let shares = service.close_window(T0);
        assert!(!service.window_is_open());
        assert_eq!(shares.len(), 3);
        let stats = service.stats(0);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_requests, 3);
        // Members after the first reuse the shared preamble prefix.
        assert_eq!(stats.prefix_hits, 2);
        assert!(stats.prefix_reused_tokens > 0);
        // Shares sum to the recomputed batch bill exactly.
        let sized: Vec<(u64, u64)> = responses
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let reused = if j == 0 { 0 } else { prefix_tokens };
                (r.prompt_tokens - reused, r.output_tokens)
            })
            .collect();
        let total = batch_latency(&ModelProfile::gpt4_api(), &sized, InferenceOpts::default());
        let billed: SimDuration = shares.iter().map(|s| s.share).sum();
        assert_eq!(billed, total);
        // Unbounded concurrency: the batch did not queue.
        assert!(shares.iter().all(|s| s.queue.is_zero()));
    }

    #[test]
    fn batched_shares_are_deterministic_under_tenant_tie_breaking() {
        // Two runs submitting the same members in *different* arrival
        // orders produce identical per-tenant shares: batch composition
        // is keyed on tenant id, not co-arrival order.
        let run = |order: &[usize]| {
            let service = InferenceService::new(ServingConfig::batched());
            let mut handles: Vec<_> = (0..4).map(|i| handle(&service, 50 + i as u64, 0)).collect();
            service.open_window(InferenceOpts::default(), 3);
            let mut per_tenant = vec![SimDuration::ZERO; 4];
            let mut responses = Vec::new();
            for &i in order {
                let resp = handles[i]
                    .infer(req(&format!("agent {i} plans with distinct prompt text")))
                    .unwrap();
                service.window_add(handles[i].tenant(), &resp);
                responses.push(i);
            }
            let shares = service.close_window(T0);
            for (slot, &i) in responses.iter().enumerate() {
                per_tenant[i] = shares[slot].share;
            }
            per_tenant
        };
        assert_eq!(run(&[0, 1, 2, 3]), run(&[3, 1, 0, 2]));
    }

    #[test]
    fn batch_queues_when_concurrency_is_saturated() {
        let service = InferenceService::new(ServingConfig {
            batching: true,
            concurrency: 1,
            ..Default::default()
        });
        let mut a = handle(&service, 5, 0);
        let mut b = handle(&service, 6, 0);
        // Prior cohort work occupies the only slot.
        let prior = SimDuration::from_secs(30);
        service.submit_cohort(a.tenant(), T0, &resp(prior));
        service.open_window(InferenceOpts::default(), 1);
        let ra = a.infer(req("agent zero plans")).unwrap();
        service.window_add(a.tenant(), &ra);
        let rb = b.infer(req("agent one plans")).unwrap();
        service.window_add(b.tenant(), &rb);
        let shares = service.close_window(T0);
        // The whole batch waits behind the busy slot; only the leading
        // member carries the wait.
        assert_eq!(shares[0].queue, prior);
        assert!(shares[1].queue.is_zero());
        assert_eq!(service.stats(0).queued, 1);
    }

    #[test]
    fn from_impls_build_passthrough_handles() {
        let mut h: EngineHandle = LlmEngine::new(ModelProfile::llama3_8b(), 3).into();
        let resp = h.infer(req("plan something")).unwrap();
        assert!(resp.latency > SimDuration::ZERO);
        assert_eq!(h.profile().name, "Llama-3-8B (local)");
        assert!(h.service().config().is_passthrough());
        let text = format!("{h:?}");
        assert!(text.contains("tenant"));
    }

    #[test]
    fn breaker_opens_and_half_closes_through_the_handle() {
        // The circuit breaker lives in the tenant's ResilientEngine; the
        // handle must expose its full open → fast-fail → half-close cycle.
        let service = InferenceService::default();
        let profile = FaultProfile {
            timeout: 1.0,
            ..FaultProfile::none()
        };
        let policy = RetryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: 5,
            ..RetryPolicy::standard()
        };
        let builder = EngineBuilder::new(profile, policy, 1 ^ 0xfa00, 1 ^ 0xb000);
        let mut h = service.register(
            builder.wrap(LlmEngine::new(ModelProfile::gpt4_api(), 1), 0x01),
            0,
        );
        assert!(!h.breaker_open());
        for _ in 0..3 {
            assert!(h.infer(req("doomed plan")).is_err());
        }
        assert!(h.breaker_open(), "3 consecutive give-ups trip the breaker");
        for _ in 0..5 {
            assert_eq!(
                h.infer(req("fast fail")).unwrap_err(),
                LlmError::ServerError
            );
        }
        assert!(!h.breaker_open(), "cooldown exhausted: breaker half-closes");
        assert_eq!(h.stats().breaker_fast_fails, 5);
        assert!(h.take_stall() > SimDuration::ZERO);
    }

    #[test]
    fn admission_control_sheds_low_priority_first() {
        let service = InferenceService::new(ServingConfig::limited(1).with_shedding(1));
        let mut h = handle(&service, 4, 0);
        // Depth 0: everything is admitted, no engine call is shed.
        assert!(h
            .infer(LlmRequest::new(Purpose::Reflection, "reflect early", 80))
            .is_ok());
        service.submit_cohort(h.tenant(), T0, &resp(SimDuration::from_secs(5)));
        // Depth 1 (== shed_depth): low-priority purposes shed, planning
        // still gets through.
        let shed = h
            .infer(LlmRequest::new(Purpose::Reflection, "reflect late", 80))
            .unwrap_err();
        assert_eq!(shed, LlmError::Shed);
        assert_eq!(h.stats().retries, 0, "shed calls must never be retried");
        assert!(h.infer(req("planning still admitted")).is_ok());
        service.submit_cohort(h.tenant(), T0, &resp(SimDuration::from_secs(5)));
        // Depth 2 (== 2 * shed_depth): everything sheds.
        assert_eq!(
            h.infer(req("planning now shed")).unwrap_err(),
            LlmError::Shed
        );
        assert_eq!(service.fault_stats(0).shed, 2);
        // Step boundary resets the admission signal.
        service.begin_step(T0);
        assert!(h
            .infer(LlmRequest::new(Purpose::Reflection, "fresh step", 80))
            .is_ok());
    }

    #[test]
    fn deadline_miss_fails_the_call_and_bills_the_stall() {
        // A 1 ms deadline no real inference can meet: the call fails, but
        // the simulated time it burned surfaces as stall (the trace stays
        // time-conserving) and the tokens stay billed.
        let service = InferenceService::new(
            ServingConfig::disabled().with_deadline(SimDuration::from_millis(1)),
        );
        let mut h = handle(&service, 8, 0);
        let err = h.infer(req("too slow to matter")).unwrap_err();
        assert_eq!(err, LlmError::DeadlineExceeded);
        assert_eq!(h.stats().retries, 0, "a missed deadline is not retried");
        assert_eq!(service.fault_stats(0).deadline_misses, 1);
        assert!(h.take_stall() > SimDuration::ZERO, "burned time is billed");
        assert_eq!(service.total_usage(0).calls, 1, "tokens were still spent");
        let fs = service.fault_stats(0);
        assert!(fs != Default::default());
        assert_eq!(fs.slo_total, 0, "SLO is measured at placement, not here");
    }

    #[test]
    fn hedged_cohort_bills_the_duplicate_tokens() {
        let service = InferenceService::new(
            ServingConfig::limited(1)
                .with_replicas(2)
                .with_hedging(SimDuration::from_secs(2)),
        );
        let h = handle(&service, 9, 0);
        let work = SimDuration::from_secs(10);
        // Two placements fill both replicas; the third hedges (primary
        // backlog 10 s > 2 s trigger) and the duplicate loses the race
        // (hedge path 2 s + 10 s peer backlog).
        service.submit_cohort(h.tenant(), T0, &resp(work));
        service.submit_cohort(h.tenant(), T0, &resp(work));
        let out = service.submit_cohort(h.tenant(), T0, &resp(work));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, work);
        let fs = service.fault_stats(0);
        assert_eq!(fs.hedges(), 1);
        assert_eq!(fs.hedges_wasted, 1);
        assert_eq!(fs.hedge_tokens, 150);
        assert!(fs.hedge_cost_usd > 0.0);
        // The duplicate's tokens land in the system ledger — the premium.
        let usage = service.total_usage(0);
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.prompt_tokens, 100);
        assert_eq!(usage.completion_tokens, 50);
    }

    #[test]
    fn fleet_cohorts_queue_across_episode_scopes() {
        // Two episode scopes, one slot: scope 1's placement queues behind
        // scope 0's in-flight work — contention no per-episode service
        // can produce — and the completion surfaces as a DecodeFinish.
        let service = InferenceService::new(ServingConfig::limited(1));
        service.enable_fleet(2);
        assert!(service.fleet_enabled());
        let a = handle(&service, 1, 0);
        let b = handle(&service, 2, 1);
        service.set_scope_base(0, T0);
        service.set_scope_base(1, T0 + SimDuration::from_secs(2));
        let work = SimDuration::from_secs(10);
        let out = service.submit_cohort(a.tenant(), T0, &resp(work));
        assert_eq!(out.queue, SimDuration::ZERO);
        // Scope 1 submits at its local T0 = global 2 s: 8 s of scope 0's
        // work is still in flight.
        let out = service.submit_cohort(b.tenant(), T0, &resp(work));
        assert_eq!(out.queue, SimDuration::from_secs(8));
        // begin_step is a no-op in fleet mode: nothing resets.
        service.begin_step(T0);
        assert!(service.queue_solo(a.tenant(), T0) > SimDuration::ZERO);
        // Per-scope ledgers saw one cohort each; scope 1's cohort queued,
        // and scope 0's solo follow-up above queued too.
        assert_eq!(service.stats(0).cohort_requests, 1);
        assert_eq!(service.stats(1).cohort_requests, 1);
        assert_eq!(service.stats(0).solo_requests, 1);
        assert_eq!(service.stats(0).queued, 1);
        assert_eq!(service.stats(1).queued, 1);
        // Draining the queue consumes both DecodeFinish events.
        assert!(service.pop_fleet_event().is_none());
        let summary = service.fleet_summary();
        assert_eq!(summary.sessions, 2);
        assert_eq!(summary.decode_events, 2);
        assert_eq!(summary.peak_in_flight, 2);
        assert_eq!(summary.makespan, SimDuration::from_secs(20), "last finish");
    }

    #[test]
    fn fleet_window_batches_across_scopes() {
        // Members from two scopes join one window: the close counts a
        // cross-episode batch and attributes shares per scope.
        let service = InferenceService::new(ServingConfig::batched());
        service.enable_fleet(2);
        let mut a = handle(&service, 5, 0);
        let mut b = handle(&service, 6, 1);
        service.set_scope_base(0, T0);
        service.set_scope_base(1, T0);
        service.open_window(InferenceOpts::default(), 2);
        // A second open from another scope joins instead of panicking.
        service.open_window(InferenceOpts::default(), 2);
        assert!(service.window_is_open());
        let ra = a.infer(req("scope zero plans")).unwrap();
        service.window_add(a.tenant(), &ra);
        let rb = b.infer(req("scope one plans")).unwrap();
        service.window_add(b.tenant(), &rb);
        let shares = service.close_window(T0 + SimDuration::from_secs(1));
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[0].scope, 0, "submission order preserved");
        assert_eq!(shares[1].scope, 1);
        assert!(!service.window_is_open());
        let summary = service.fleet_summary();
        assert_eq!(summary.cross_episode_batches, 1);
        // batches ledger on the lead scope; each member bills its own.
        assert_eq!(service.stats(0).batches, 1);
        assert_eq!(service.stats(1).batches, 0);
        assert_eq!(service.stats(0).batched_requests, 1);
        assert_eq!(service.stats(1).batched_requests, 1);
        assert_eq!(service.stats(1).prefix_hits, 1, "joiner reuses prefix");
        // Scoped usage separates the two episodes' tenants.
        assert_eq!(service.total_usage(0).calls, 1);
        assert_eq!(service.total_usage(1).calls, 1);
    }

    #[test]
    fn fleet_events_replay_through_the_service() {
        let service = InferenceService::new(ServingConfig::limited(1));
        service.enable_fleet(1);
        let t = |s| T0 + SimDuration::from_secs(s);
        service.push_fleet_event(t(5), SimEvent::AgentStepReady { episode: 0 });
        service.push_fleet_event(t(5), SimEvent::RequestArrival { episode: 0 });
        service.push_fleet_event(t(1), SimEvent::BatchWindowClose);
        let order: Vec<SimEvent> =
            std::iter::from_fn(|| service.pop_fleet_event().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::BatchWindowClose,
                SimEvent::AgentStepReady { episode: 0 },
                SimEvent::RequestArrival { episode: 0 },
            ],
            "time order, then push order on ties"
        );
    }

    #[test]
    fn single_replica_without_faults_matches_disabled_fault_plane() {
        // ServingConfig::limited(1) with an explicit do-nothing fault
        // plane and a hot seed must reproduce the implicit default
        // byte-for-byte: the none() profile draws zero RNG, so the seed
        // cannot leak into scheduling.
        let drive = |service: &InferenceService| {
            let h = handle(service, 21, 0);
            let mut log = Vec::new();
            for i in 0..5 {
                let work = SimDuration::from_secs(3 + i);
                let out = service.submit_cohort(h.tenant(), T0, &resp(work));
                log.push((out.queue, out.slowdown, out.failover, out.hedged));
                log.push((
                    service.queue_solo(h.tenant(), T0),
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    None,
                ));
            }
            (log, format!("{:?}", service.stats(0)))
        };
        let implicit = InferenceService::new(ServingConfig::limited(1));
        let explicit = InferenceService::with_seed(
            ServingConfig::limited(1)
                .with_replicas(1)
                .with_faults(crate::serving_faults::ServingFaultProfile::none()),
            0xdead_beef,
        );
        assert_eq!(drive(&implicit), drive(&explicit));
        assert!(implicit.fault_stats(0) == Default::default());
        assert!(explicit.fault_stats(0) == Default::default());
    }
}
