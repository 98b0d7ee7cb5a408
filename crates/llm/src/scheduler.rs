//! Scheduling state for the simulated serving stack: the serving knobs,
//! and per-backend replica fleets whose server slots model queueing delay
//! under a configurable concurrency limit.
//!
//! One pipeline serves both serving regimes. Every server slot holds the
//! instant it is busy until, and every placement measures its wait from
//! an *origin*:
//!
//! * **per-step** (a solo episode): [`BackendQueue::begin_step`] frees
//!   every slot at the step's barrier instant and placements measure from
//!   that barrier, so queues never carry over a step boundary;
//! * **continuous** (fleet mode): nothing resets and placements measure
//!   from their own arrival instant, so one episode's backlog delays
//!   another's later arrival on the shared timeline.
//!
//! Replica health is checked at the request's own instant in both
//! regimes, so a crashed replica's restart clock runs on the simulated
//! timeline. The scheduler knows nothing about engines or tenants:
//! [`crate::InferenceService`] owns one [`BackendQueue`] per distinct
//! model profile and consults it for every scheduling decision.

use crate::serving_faults::{ServingFaultInjector, ServingFaultProfile};
use embodied_profiler::{SimDuration, SimInstant};

/// Serving-layer knobs (paper Rec. 1: batching, shared endpoints) plus the
/// serving fault plane and its SLO-aware resilience tier.
///
/// The default is a pure pass-through: no batching, an unbounded
/// concurrency limit, a single infallible replica, and every resilience
/// knob off — under which every call takes exactly the legacy per-module
/// path and draw order, so reports are byte-identical to builds without
/// the serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Batch co-arriving same-model requests of a step phase into one
    /// shared latency bill with amortized per-request attribution.
    pub batching: bool,
    /// Simulated server slots per backend replica; 0 means unbounded (no
    /// queueing delay is ever modeled).
    pub concurrency: u32,
    /// Replicas per backend fleet (0 is treated as 1). Extra replicas add
    /// scheduling choice: placements go to the least-loaded healthy
    /// replica, and failover/hedging need a healthy peer to target.
    pub replicas: u32,
    /// Serving fault plane: replica crashes, brownouts, queue overflow.
    pub faults: ServingFaultProfile,
    /// Per-request SLO deadline: a call whose end-to-end serving latency
    /// exceeds it fails with [`crate::LlmError::DeadlineExceeded`].
    pub deadline: Option<SimDuration>,
    /// Hedging delay: when a placement would queue longer than this, the
    /// request is re-issued to a second healthy replica after the delay —
    /// first completion wins, both are billed.
    pub hedge_after: Option<SimDuration>,
    /// Admission-control threshold: once a backend has accepted this many
    /// placements in the current step, low-priority calls (reflection,
    /// communication, summarization) are shed; at twice the threshold
    /// everything is. 0 disables shedding.
    pub shed_depth: u32,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            batching: false,
            concurrency: 0,
            replicas: 1,
            faults: ServingFaultProfile::none(),
            deadline: None,
            hedge_after: None,
            shed_depth: 0,
        }
    }
}

impl ServingConfig {
    /// The default pass-through configuration.
    pub fn disabled() -> Self {
        ServingConfig::default()
    }

    /// Batching on, concurrency unbounded.
    pub fn batched() -> Self {
        ServingConfig {
            batching: true,
            ..Self::default()
        }
    }

    /// Batching off, `concurrency` server slots per backend replica.
    pub fn limited(concurrency: u32) -> Self {
        ServingConfig {
            concurrency,
            ..Self::default()
        }
    }

    /// Same config with `replicas` backend replicas per fleet.
    pub fn with_replicas(self, replicas: u32) -> Self {
        ServingConfig { replicas, ..self }
    }

    /// Same config with the given serving fault profile.
    pub fn with_faults(self, faults: ServingFaultProfile) -> Self {
        ServingConfig { faults, ..self }
    }

    /// Same config with a per-request SLO deadline.
    pub fn with_deadline(self, deadline: SimDuration) -> Self {
        ServingConfig {
            deadline: Some(deadline),
            ..self
        }
    }

    /// Same config with hedged requests after `hedge_after` of queueing.
    pub fn with_hedging(self, hedge_after: SimDuration) -> Self {
        ServingConfig {
            hedge_after: Some(hedge_after),
            ..self
        }
    }

    /// Same config with load shedding past `shed_depth` placements.
    pub fn with_shedding(self, shed_depth: u32) -> Self {
        ServingConfig { shed_depth, ..self }
    }

    /// Whether the layer changes nothing (the byte-identity fast path).
    pub fn is_passthrough(&self) -> bool {
        !self.batching
            && self.concurrency == 0
            && self.replicas <= 1
            && self.faults.is_none()
            && self.deadline.is_none()
            && self.hedge_after.is_none()
            && self.shed_depth == 0
    }
}

/// One backend replica: the instant each server slot is busy until, plus
/// the instant until which the replica is down cold-restarting after an
/// injected crash.
#[derive(Debug, Clone)]
struct Replica {
    /// Busy-until instant per server slot; empty = unbounded (never
    /// queues).
    slots: Vec<SimInstant>,
    down_until: SimInstant,
}

impl Replica {
    fn healthy(&self, now: SimInstant) -> bool {
        self.down_until <= now
    }

    /// Wait until the least-busy slot frees, measured from `origin`.
    /// Unbounded (0 slots) never queues.
    fn delay(&self, origin: SimInstant) -> SimDuration {
        self.slots
            .iter()
            .map(|&busy| busy.duration_since(origin))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Books `work` on the least-busy slot (lowest index on ties), starting
    /// no earlier than `origin`. Returns the wait before service starts
    /// and, when bounded, the slot with its prior busy-until, so a hedge
    /// race can cancel the booking.
    fn book(
        &mut self,
        origin: SimInstant,
        work: SimDuration,
    ) -> (SimDuration, Option<(usize, SimInstant)>) {
        let Some(idx) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, busy)| **busy)
            .map(|(idx, _)| idx)
        else {
            return (SimDuration::ZERO, None);
        };
        let prev = self.slots[idx];
        let start = prev.max(origin);
        self.slots[idx] = start + work;
        (start.duration_since(origin), Some((idx, prev)))
    }

    /// Cancels a booking at instant `at`: the slot keeps only what it
    /// served before `at`, and reverts to its prior busy-until if the
    /// booking never started.
    fn cancel(&mut self, booking: Option<(usize, SimInstant)>, at: SimInstant) {
        if let Some((idx, prev)) = booking {
            self.slots[idx] = prev.max(self.slots[idx].min(at));
        }
    }
}

/// What one scheduling decision on the replica fleet cost and triggered.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PlacementOutcome {
    /// Wait before service begins: slot queueing, restart waits, overflow
    /// re-dispatch penalties, and the hedge delay on a winning hedge.
    pub(crate) queue: SimDuration,
    /// Extra service time from a brownout (the request still completes).
    pub(crate) slowdown: SimDuration,
    /// Wasted partial service on a replica that crashed mid-request.
    pub(crate) failover_penalty: SimDuration,
    /// The serving replica crashed during this placement.
    pub(crate) crashed: bool,
    /// The request was re-dispatched to a healthy peer after the crash.
    pub(crate) failed_over: bool,
    /// The least-loaded healthy replica was already past the overflow
    /// threshold; the request paid a re-dispatch penalty.
    pub(crate) overflowed: bool,
    /// The serving replica was browned out.
    pub(crate) slowed: bool,
    /// A hedge was issued; `Some(true)` when the hedge won the race.
    pub(crate) hedged: Option<bool>,
}

/// Extra wait charged when a request spills past the overflow threshold
/// (the client re-dispatches after a rejected admission).
const OVERFLOW_REDISPATCH: SimDuration = SimDuration::from_millis(250);

/// Fraction of the request's service time wasted on a replica that
/// crashes mid-request (partial prefill lost before the failover).
const CRASH_WASTE: f64 = 0.3;

/// Per-backend replica fleet on one timeline of busy-until instants.
///
/// Work placed on the fleet goes to the least-busy slot of the least-busy
/// *healthy* replica (lowest index on ties); the time until that slot
/// frees, measured from the placement's origin, is the queueing delay the
/// request waits out first. Per-step mode frees every slot at each step
/// barrier ([`BackendQueue::begin_step`]) and measures from the barrier —
/// the paper's step loop is a synchronization barrier, so queues cannot
/// carry over. Fleet mode never resets and measures from each request's
/// own arrival. Either way a crashed replica's restart clock keeps running
/// on the simulated timeline.
#[derive(Debug, Clone)]
pub(crate) struct BackendQueue {
    replicas: Vec<Replica>,
}

impl BackendQueue {
    /// A fleet of `replicas` (0 treated as 1) with `concurrency` slots
    /// each (0 = unbounded, never queues).
    pub(crate) fn new(concurrency: u32, replicas: u32) -> Self {
        let replica = Replica {
            slots: vec![SimInstant::EPOCH; concurrency as usize],
            down_until: SimInstant::EPOCH,
        };
        BackendQueue {
            replicas: vec![replica; replicas.max(1) as usize],
        }
    }

    /// Step barrier at instant `barrier`: every slot frees there. Restart
    /// clocks persist — a replica still cold-restarting stays down into
    /// the next step.
    pub(crate) fn begin_step(&mut self, barrier: SimInstant) {
        for r in &mut self.replicas {
            r.slots.fill(barrier);
        }
    }

    /// Index of the best (least queueing from `origin`, lowest index on
    /// ties) replica healthy at `now`, excluding `skip`.
    fn best_healthy(
        &self,
        now: SimInstant,
        origin: SimInstant,
        skip: Option<usize>,
    ) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, r)| Some(i) != skip && r.healthy(now))
            .min_by_key(|(_, r)| r.delay(origin))
            .map(|(i, _)| i)
    }

    /// The delay a request arriving at `now` would wait, measured from
    /// `origin`, before any slot frees, without booking one — the bill for
    /// *dependent* follow-up calls that contend for the backend but whose
    /// own service time is already accounted sequentially. When every
    /// replica is down, the wait includes the soonest restart.
    pub(crate) fn delay(&self, now: SimInstant, origin: SimInstant) -> SimDuration {
        if let Some(idx) = self.best_healthy(now, origin, None) {
            return self.replicas[idx].delay(origin);
        }
        self.replicas
            .iter()
            .map(|r| r.down_until.duration_since(now) + r.delay(origin))
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Schedules `work` arriving at `now`, its slot wait measured from
    /// `origin`, drawing crash/brownout faults from `inj` and optionally
    /// hedging. Returns what the placement cost, its completion instant
    /// (`origin` + wait + served work), and, when the serving replica
    /// crashed, `(replica, restart_instant)`.
    ///
    /// Pipeline, in order: pick the least-loaded healthy replica (or wait
    /// out the soonest restart when none is up); charge an overflow
    /// re-dispatch if its backlog is already past the profile threshold;
    /// draw a crash (fail over to a healthy peer, or ride out the restart
    /// when the fleet has none); draw a brownout (service time inflates);
    /// finally, if hedging is on and the placement is browned out or would
    /// queue longer than `hedge_after`, issue the request to a second
    /// healthy replica too — first completion wins, the loser is cancelled
    /// (its booking keeps only what it consumed), and the caller bills the
    /// duplicate tokens. Restart, overflow and hedge waits add to the slot
    /// wait. With one fault-free replica and hedging off this reduces
    /// exactly to the pre-fleet single-backend behavior.
    pub(crate) fn place_at(
        &mut self,
        now: SimInstant,
        origin: SimInstant,
        work: SimDuration,
        inj: &mut ServingFaultInjector,
        hedge_after: Option<SimDuration>,
    ) -> (PlacementOutcome, SimInstant, Option<(usize, SimInstant)>) {
        let mut out = PlacementOutcome::default();
        let mut restart = None;
        let profile = *inj.profile();

        // 1. Target selection: least-loaded healthy replica, else wait for
        //    the soonest restart.
        let mut target = match self.best_healthy(now, origin, None) {
            Some(idx) => idx,
            None => {
                let idx = self
                    .replicas
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.down_until)
                    .map(|(i, _)| i)
                    .expect("fleet has at least one replica");
                out.queue += self.replicas[idx].down_until.duration_since(now);
                idx
            }
        };

        // 2. Overflow: even the best replica's backlog is past the
        //    threshold — admission rejects and the client re-dispatches.
        if !profile.overflow_queue.is_zero()
            && self.replicas[target].delay(origin) >= profile.overflow_queue
        {
            out.overflowed = true;
            out.queue += OVERFLOW_REDISPATCH;
        }

        // 3. Crash: the serving replica dies mid-request; partial service
        //    is wasted and the replica cold-restarts. The request fails
        //    over to a healthy peer when one exists, otherwise it waits
        //    out the restart on the same replica.
        if inj.crash() {
            out.crashed = true;
            out.failover_penalty = work.mul_f64(CRASH_WASTE);
            let down_until = now + profile.restart;
            self.replicas[target].down_until = down_until;
            restart = Some((target, down_until));
            match self.best_healthy(now, origin, Some(target)) {
                Some(peer) => {
                    out.failed_over = true;
                    target = peer;
                }
                None => out.queue += profile.restart,
            }
        }

        // 4. Brownout: the replica serves, but slower.
        let mut effective = work;
        if inj.brownout() {
            out.slowed = true;
            effective = work.mul_f64(profile.brownout_factor.max(1.0));
            out.slowdown = effective.saturating_sub(work);
        }

        // 5. Placement, hedged when the primary looks slow — backlogged
        //    past the hedge trigger or browned out — and a second healthy
        //    replica is available. The duplicate serves at *clean* speed
        //    on the peer (brownouts are per-replica), so the race is
        //    primary queue + inflated service vs hedge delay + peer queue
        //    + clean service. First completion wins and the loser is
        //    cancelled: its booking keeps only the capacity consumed
        //    before the winner returned, but its tokens are billed in
        //    full by the caller (the cancelled side already decoded them).
        let primary_delay = self.replicas[target].delay(origin);
        let hedge_peer = hedge_after
            .filter(|h| primary_delay > *h || out.slowed)
            .and_then(|_| self.best_healthy(now, origin, Some(target)));
        let served = match hedge_peer {
            Some(peer) => {
                let h = hedge_after.expect("hedge peer implies hedge delay");
                let (d1, primary) = self.replicas[target].book(origin, effective);
                let (d2, duplicate) = self.replicas[peer].book(origin, work);
                let won = h + d2 + work < d1 + effective;
                out.hedged = Some(won);
                if won {
                    // The clean duplicate finishes first: the caller rides
                    // the hedge path and never suffers the brownout. The
                    // primary is cancelled at the winner's completion
                    // instant, freeing whatever it had not yet served.
                    self.replicas[target].cancel(primary, origin + h + d2 + work);
                    out.queue += h + d2;
                    out.slowdown = SimDuration::ZERO;
                    work
                } else {
                    // The primary finishes first. The duplicate was
                    // dispatched `h` late, so it is cancelled at the
                    // primary's completion shifted back by `h`, with its
                    // remaining service unconsumed.
                    let at = origin + (d1 + effective).saturating_sub(h);
                    self.replicas[peer].cancel(duplicate, at);
                    out.queue += d1;
                    effective
                }
            }
            None => {
                out.queue += self.replicas[target].book(origin, effective).0;
                effective
            }
        };
        (out, origin + out.queue + served, restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn no_faults() -> ServingFaultInjector {
        ServingFaultInjector::new(ServingFaultProfile::none(), 0)
    }

    fn at(secs: u64) -> SimInstant {
        SimInstant::EPOCH + sec(secs)
    }

    /// Places `work` in per-step mode with arrival, barrier and origin all
    /// at the epoch.
    fn place(
        q: &mut BackendQueue,
        work: SimDuration,
        inj: &mut ServingFaultInjector,
        hedge_after: Option<SimDuration>,
    ) -> PlacementOutcome {
        q.place_at(SimInstant::EPOCH, SimInstant::EPOCH, work, inj, hedge_after)
            .0
    }

    #[test]
    fn default_is_passthrough() {
        assert!(ServingConfig::default().is_passthrough());
        assert!(ServingConfig::disabled().is_passthrough());
        assert!(!ServingConfig::batched().is_passthrough());
        assert!(!ServingConfig::limited(2).is_passthrough());
        assert!(!ServingConfig::disabled().with_replicas(3).is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_faults(ServingFaultProfile::brownouts(0.1))
            .is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_deadline(sec(30))
            .is_passthrough());
        assert!(!ServingConfig::disabled()
            .with_hedging(sec(5))
            .is_passthrough());
        assert!(!ServingConfig::disabled().with_shedding(4).is_passthrough());
        // A single replica is the implicit baseline, not a new regime.
        assert!(ServingConfig::disabled().with_replicas(1).is_passthrough());
    }

    #[test]
    fn unbounded_queue_never_delays() {
        let mut q = BackendQueue::new(0, 1);
        let out = place(&mut q, sec(100), &mut no_faults(), None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(
            q.delay(SimInstant::EPOCH, SimInstant::EPOCH),
            SimDuration::ZERO
        );
    }

    #[test]
    fn least_loaded_slot_wins_with_lowest_index_ties() {
        let mut q = BackendQueue::new(2, 1);
        let mut inj = no_faults();
        // Slots 0 and 1 take the first two placements.
        assert_eq!(
            place(&mut q, sec(10), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(
            place(&mut q, sec(10), &mut inj, None).queue,
            SimDuration::ZERO
        );
        // Tie at 10 s each: slot 0 wins, so the request queues 10 s.
        assert_eq!(place(&mut q, sec(5), &mut inj, None).queue, sec(10));
        // Loads now (15, 10): the consume-only delay is the min.
        assert_eq!(q.delay(SimInstant::EPOCH, SimInstant::EPOCH), sec(10));
        // The next step barrier frees every slot.
        q.begin_step(at(1));
        assert_eq!(q.delay(at(1), at(1)), SimDuration::ZERO);
    }

    #[test]
    fn extra_replicas_absorb_load() {
        // Two replicas with one slot each behave like two slots: the third
        // placement queues behind the least-loaded replica.
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        assert_eq!(
            place(&mut q, sec(10), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(
            place(&mut q, sec(6), &mut inj, None).queue,
            SimDuration::ZERO
        );
        assert_eq!(place(&mut q, sec(5), &mut inj, None).queue, sec(6));
    }

    #[test]
    fn crash_fails_over_and_restart_expires() {
        // crash_rate 1.0: every placement crashes its replica.
        let profile = ServingFaultProfile {
            crash_rate: 1.0,
            restart: sec(20),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = BackendQueue::new(1, 2);
        let out = place(&mut q, sec(10), &mut inj, None);
        assert!(out.crashed);
        assert!(out.failed_over, "a healthy peer existed");
        assert_eq!(out.failover_penalty, sec(3));
        // Second placement: replica 0 is down, replica 1 takes it, crashes
        // too, and with no healthy peer left the request rides out the
        // restart.
        let out = place(&mut q, sec(10), &mut inj, None);
        assert!(out.crashed);
        assert!(!out.failed_over);
        assert!(
            out.queue >= sec(20),
            "restart wait charged: {:?}",
            out.queue
        );
        // After the restart window both replicas serve again.
        assert!(q.best_healthy(at(25), SimInstant::EPOCH, None).is_some());
        // A step barrier frees slots but not restart clocks.
        q.begin_step(SimInstant::EPOCH);
        assert!(q
            .best_healthy(SimInstant::EPOCH, SimInstant::EPOCH, None)
            .is_none());
    }

    #[test]
    fn brownout_inflates_service_time() {
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 1);
        let out = place(&mut q, sec(10), &mut inj, None);
        assert!(out.slowed);
        assert_eq!(out.slowdown, sec(20)); // 3x factor: 30 s total, 20 s extra
                                           // The inflated load is what the next request queues behind.
        let out = place(&mut q, sec(1), &mut inj, None);
        assert!(out.queue >= sec(30), "queued {:?}", out.queue);
    }

    #[test]
    fn overflow_charges_redispatch() {
        let profile = ServingFaultProfile {
            overflow_queue: sec(5),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = BackendQueue::new(1, 1);
        let first = place(&mut q, sec(10), &mut inj, None);
        assert!(!first.overflowed);
        let spilled = place(&mut q, sec(10), &mut inj, None);
        assert!(spilled.overflowed);
        assert_eq!(spilled.queue, sec(10) + OVERFLOW_REDISPATCH);
    }

    #[test]
    fn queue_triggered_hedge_loses_to_the_least_loaded_primary() {
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        // Load replica 0 with 30 s, replica 1 with 8 s.
        q.replicas[0].book(SimInstant::EPOCH, sec(30));
        q.replicas[1].book(SimInstant::EPOCH, sec(8));
        // Primary is replica 1 (8 s backlog > 2 s hedge trigger); the hedge
        // goes to replica 0 (30 s backlog) and loses the race — the
        // primary was already the best choice. Queue stays 8 s, but the
        // duplicate's tokens were burned.
        let out = place(&mut q, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, sec(8));
    }

    #[test]
    fn hedge_beats_a_browned_out_primary() {
        // Every placement browns out (3x service), but the duplicate
        // serves clean on the peer: 2 s hedge delay + 10 s clean beats
        // 30 s inflated. The caller never suffers the slowdown.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = place(&mut q, sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true), "clean duplicate wins the race");
        assert!(out.slowed, "the brownout still happened on the primary");
        assert_eq!(out.slowdown, SimDuration::ZERO, "but is never suffered");
        assert_eq!(out.queue, sec(2), "hedge path: 2 s delay + idle peer");
        // Without hedging the same draw charges the full 20 s slowdown.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = place(&mut q, sec(10), &mut inj, None);
        assert_eq!(out.slowdown, sec(20));
    }

    #[test]
    fn hedge_loser_is_cancelled_and_frees_capacity() {
        // Winning hedge: the brownout inflates the primary's service to
        // 30 s, the clean duplicate completes at 2 + 10 = 12 s, and the
        // primary is cancelled with 18 s of its booking unserved.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let out = place(&mut q, sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true));
        assert_eq!(
            q.replicas[0].delay(SimInstant::EPOCH),
            sec(12),
            "primary keeps only the consumed part"
        );
        assert_eq!(
            q.replicas[1].delay(SimInstant::EPOCH),
            sec(10),
            "winner serves in full"
        );

        // Losing hedge: the primary finishes at 13 s, before the deeply
        // backlogged duplicate would even start (32 s) — the duplicate is
        // cancelled without consuming any peer capacity.
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        q.replicas[0].book(SimInstant::EPOCH, sec(30));
        q.replicas[1].book(SimInstant::EPOCH, sec(8));
        let out = place(&mut q, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(
            q.replicas[0].delay(SimInstant::EPOCH),
            sec(30),
            "cancelled before starting"
        );
        assert_eq!(q.replicas[1].delay(SimInstant::EPOCH), sec(13));
    }

    #[test]
    fn hedging_needs_backlog_and_a_peer() {
        let mut inj = no_faults();
        // No backlog: below the trigger, no hedge.
        let mut q = BackendQueue::new(1, 2);
        let out = place(&mut q, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        // Single replica: backlog but nowhere to hedge.
        let mut q = BackendQueue::new(1, 1);
        q.replicas[0].book(SimInstant::EPOCH, sec(30));
        let out = place(&mut q, sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, None);
        assert_eq!(out.queue, sec(30));
    }

    #[test]
    fn continuous_mode_queues_across_arrivals_without_reset() {
        // Two requests 5 s apart on one slot, each measured from its own
        // arrival: the second queues behind the remaining 5 s of the first
        // — state persists, no step barrier ever clears it.
        let mut q = BackendQueue::new(1, 1);
        let mut inj = no_faults();
        let (out, c1, restart) = q.place_at(at(0), at(0), sec(10), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(c1, at(10));
        assert!(restart.is_none());
        let (out, c2, _) = q.place_at(at(5), at(5), sec(10), &mut inj, None);
        assert_eq!(out.queue, sec(5), "waits out the in-flight request");
        assert_eq!(c2, at(20));
        // Once the backlog drains, arrivals start fresh.
        let (out, c3, _) = q.place_at(at(30), at(30), sec(2), &mut inj, None);
        assert_eq!(out.queue, SimDuration::ZERO);
        assert_eq!(c3, at(32));
        assert_eq!(
            q.delay(at(30), at(30)),
            sec(2),
            "booked by the request itself"
        );
        assert_eq!(q.delay(at(32), at(32)), SimDuration::ZERO);
    }

    #[test]
    fn continuous_mode_crash_reports_restart_event() {
        let profile = ServingFaultProfile {
            crash_rate: 1.0,
            restart: sec(20),
            ..ServingFaultProfile::none()
        };
        let mut inj = ServingFaultInjector::new(profile, 1);
        let mut q = BackendQueue::new(1, 2);
        let (out, _, restart) = q.place_at(at(0), at(0), sec(10), &mut inj, None);
        assert!(out.crashed && out.failed_over);
        let (replica, restart_at) = restart.expect("crash schedules a restart");
        assert_eq!(restart_at, at(20));
        // The crashed replica is down until its restart instant, then
        // serves again — purely by clock comparison, no reset call.
        assert!(!q.replicas[replica].healthy(at(19)));
        assert!(q.replicas[replica].healthy(at(20)));
    }

    #[test]
    fn continuous_mode_hedge_race_on_completion_instants() {
        // Primary (replica 1) busy until 8 s, peer (replica 0) until 30 s:
        // the primary completes at 13 s, long before the duplicate could
        // (2 s hedge delay + 30 s backlog + 5 s), and wins; the loser's
        // booking reverts entirely.
        let mut q = BackendQueue::new(1, 2);
        let mut inj = no_faults();
        q.replicas[0].book(at(0), sec(30));
        q.replicas[1].book(at(0), sec(8));
        let (out, completion, _) = q.place_at(at(0), at(0), sec(5), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(false));
        assert_eq!(out.queue, sec(8));
        assert_eq!(completion, at(13));
        assert_eq!(q.replicas[0].slots[0], at(30), "loser reverted");
        assert_eq!(q.replicas[1].slots[0], at(13));

        // Browned-out primary: the clean duplicate wins at 2 + 10 = 12 s,
        // and the primary keeps only the 12 s it served before the cancel.
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::brownouts(1.0), 1);
        let mut q = BackendQueue::new(1, 2);
        let (out, completion, _) = q.place_at(at(0), at(0), sec(10), &mut inj, Some(sec(2)));
        assert_eq!(out.hedged, Some(true));
        assert_eq!(
            out.slowdown,
            SimDuration::ZERO,
            "winner rode the clean path"
        );
        assert_eq!(completion, at(12));
        assert_eq!(
            q.replicas[0].slots[0],
            at(12),
            "cancelled at winner's finish"
        );
    }

    /// Total queue delay for `works` placed in order on `c` slots.
    fn total_queue(works: &[u64], c: u32) -> SimDuration {
        let mut q = BackendQueue::new(c, 1);
        let mut inj = no_faults();
        works
            .iter()
            .map(|&w| place(&mut q, SimDuration::from_micros(w.max(1)), &mut inj, None).queue)
            .sum()
    }

    proptest! {
        /// Satellite invariant: one submission per tenant sees zero queue
        /// delay once concurrency reaches the tenant count, and total
        /// queue delay is monotone non-increasing as slots are added
        /// (equivalently: monotone non-decreasing as concurrency shrinks).
        #[test]
        fn queue_delay_zero_at_full_concurrency_and_monotone(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
        ) {
            let k = works.len() as u32;
            prop_assert_eq!(total_queue(&works, k), SimDuration::ZERO);
            prop_assert_eq!(total_queue(&works, 0), SimDuration::ZERO);
            let mut prev = total_queue(&works, 1);
            for c in 2..=k {
                let cur = total_queue(&works, c);
                prop_assert!(
                    cur <= prev,
                    "queue delay grew from {} to {} when adding a slot (c={})",
                    prev, cur, c
                );
                prev = cur;
            }
        }

        /// A fault-free single replica with hedging off reduces exactly to
        /// the pre-fleet single-backend scheduler: spreading the same work
        /// over r replicas can only shrink total queueing.
        #[test]
        fn extra_replicas_never_increase_queueing(
            works in proptest::collection::vec(1u64..30_000_000, 1..12),
            replicas in 1u32..4,
        ) {
            let run = |r: u32| {
                let mut q = BackendQueue::new(1, r);
                let mut inj = no_faults();
                works
                    .iter()
                    .map(|&w| place(&mut q, SimDuration::from_micros(w), &mut inj, None).queue)
                    .sum::<SimDuration>()
            };
            prop_assert!(run(replicas) <= run(1));
        }
    }

    /// The per-step scheduler's arithmetic in its original form — slot
    /// *loads* relative to the step barrier, zeroed at every step — kept
    /// as the reference the production pipeline must replay exactly.
    struct RefQueue {
        loads: Vec<Vec<SimDuration>>,
        down: Vec<SimInstant>,
    }

    impl RefQueue {
        fn new(concurrency: u32, replicas: u32) -> Self {
            let n = replicas.max(1) as usize;
            RefQueue {
                loads: vec![vec![SimDuration::ZERO; concurrency as usize]; n],
                down: vec![SimInstant::EPOCH; n],
            }
        }

        fn reset(&mut self) {
            for loads in &mut self.loads {
                loads.fill(SimDuration::ZERO);
            }
        }

        fn load(&self, r: usize) -> SimDuration {
            self.loads[r]
                .iter()
                .copied()
                .min()
                .unwrap_or(SimDuration::ZERO)
        }

        fn best(&self, now: SimInstant, skip: Option<usize>) -> Option<usize> {
            (0..self.down.len())
                .filter(|&r| Some(r) != skip && self.down[r] <= now)
                .min_by_key(|&r| self.load(r))
        }

        fn delay(&self, now: SimInstant) -> SimDuration {
            match self.best(now, None) {
                Some(r) => self.load(r),
                None => (0..self.down.len())
                    .map(|r| self.down[r].duration_since(now) + self.load(r))
                    .min()
                    .unwrap_or(SimDuration::ZERO),
            }
        }

        /// Adds `work` to replica `r`'s least-loaded slot, returning the
        /// load it queued behind and the slot.
        fn book(&mut self, r: usize, work: SimDuration) -> (SimDuration, Option<usize>) {
            let loads = &mut self.loads[r];
            let Some(s) = (0..loads.len()).min_by_key(|&s| loads[s]) else {
                return (SimDuration::ZERO, None);
            };
            let queued = loads[s];
            loads[s] += work;
            (queued, Some(s))
        }

        fn shrink(&mut self, r: usize, slot: Option<usize>, by: SimDuration) {
            if let Some(s) = slot {
                self.loads[r][s] = self.loads[r][s].saturating_sub(by);
            }
        }

        fn place(
            &mut self,
            now: SimInstant,
            work: SimDuration,
            inj: &mut ServingFaultInjector,
            hedge_after: Option<SimDuration>,
        ) -> PlacementOutcome {
            let mut out = PlacementOutcome::default();
            let profile = *inj.profile();
            let mut target = match self.best(now, None) {
                Some(r) => r,
                None => {
                    let r = (0..self.down.len()).min_by_key(|&r| self.down[r]).unwrap();
                    out.queue += self.down[r].duration_since(now);
                    r
                }
            };
            if !profile.overflow_queue.is_zero() && self.load(target) >= profile.overflow_queue {
                out.overflowed = true;
                out.queue += OVERFLOW_REDISPATCH;
            }
            if inj.crash() {
                out.crashed = true;
                out.failover_penalty = work.mul_f64(CRASH_WASTE);
                self.down[target] = now + profile.restart;
                match self.best(now, Some(target)) {
                    Some(peer) => {
                        out.failed_over = true;
                        target = peer;
                    }
                    None => out.queue += profile.restart,
                }
            }
            let mut effective = work;
            if inj.brownout() {
                out.slowed = true;
                effective = work.mul_f64(profile.brownout_factor.max(1.0));
                out.slowdown = effective.saturating_sub(work);
            }
            let peer = hedge_after
                .filter(|h| self.load(target) > *h || out.slowed)
                .and_then(|_| self.best(now, Some(target)));
            match (hedge_after, peer) {
                (Some(h), Some(peer)) => {
                    let (d1, s1) = self.book(target, effective);
                    let (d2, s2) = self.book(peer, work);
                    let won = h + d2 + work < d1 + effective;
                    out.hedged = Some(won);
                    if won {
                        let unused = (d1 + effective)
                            .saturating_sub(h + d2 + work)
                            .min(effective);
                        self.shrink(target, s1, unused);
                        out.queue += h + d2;
                        out.slowdown = SimDuration::ZERO;
                    } else {
                        let unused = (h + d2 + work).saturating_sub(d1 + effective).min(work);
                        self.shrink(peer, s2, unused);
                        out.queue += d1;
                    }
                }
                _ => out.queue += self.book(target, effective).0,
            }
            out
        }
    }

    /// The serving fault regimes the replay property draws from.
    fn fault_regime(kind: usize) -> ServingFaultProfile {
        match kind {
            0 => ServingFaultProfile::none(),
            1 => ServingFaultProfile::crashes(0.4),
            2 => ServingFaultProfile::brownouts(0.5),
            3 => ServingFaultProfile {
                overflow_queue: sec(5),
                ..ServingFaultProfile::none()
            },
            _ => ServingFaultProfile::stressed(0.6),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The scheduler replays the per-step reference exactly —
        /// outcomes, consume-only delays and fault draws — over random
        /// work, arrival offsets, fleet shapes, fault regimes and hedging,
        /// and completes each placement at origin + wait + served work.
        /// Each op is `(kind, work µs, offset µs)`: kind 0 starts a new
        /// step `offset` after the last barrier, kind 1 places `work` at
        /// `barrier + offset`, anything else reads the delay there. In the
        /// common-instant case every op arrives at the barrier and no step
        /// ever resets, so the origin is the arrival instant itself: fleet
        /// mode's continuous timeline.
        #[test]
        fn merged_backend_replays_the_per_step_reference(
            shape in (1u32..4, 0u32..4, 0usize..5, 0u64..1_000, 0usize..3),
            common in 0u32..2,
            ops in proptest::collection::vec(
                (0u32..3, 1u64..20_000_000, 0u64..15_000_000),
                1..40,
            ),
        ) {
            let (replicas, concurrency, regime, seed, hedge) = shape;
            let hedge_after = [None, Some(sec(1)), Some(sec(6))][hedge];
            let common = common == 1;
            let mut reference = RefQueue::new(concurrency, replicas);
            let mut queue = BackendQueue::new(concurrency, replicas);
            let mut ref_inj = ServingFaultInjector::new(fault_regime(regime), seed);
            let mut inj = ServingFaultInjector::new(fault_regime(regime), seed);
            let mut barrier = at(0);
            for (kind, work, offset) in ops {
                let now = if common {
                    barrier
                } else {
                    barrier + SimDuration::from_micros(offset)
                };
                let work = SimDuration::from_micros(work);
                match kind {
                    0 if !common => {
                        barrier = now;
                        reference.reset();
                        queue.begin_step(barrier);
                    }
                    1 => {
                        let expected = reference.place(now, work, &mut ref_inj, hedge_after);
                        let (out, completion, restart) =
                            queue.place_at(now, barrier, work, &mut inj, hedge_after);
                        prop_assert_eq!(out, expected);
                        prop_assert_eq!(completion, barrier + out.queue + work + out.slowdown);
                        prop_assert_eq!(restart.is_some(), out.crashed);
                    }
                    _ => prop_assert_eq!(queue.delay(now, barrier), reference.delay(now)),
                }
            }
        }
    }
}
