//! Agent- and channel-level fault injection: crash/stall/recover schedules
//! per agent, lossy message channels, and coordinator failover.
//!
//! Where `embodied_llm::FaultProfile` makes individual *LLM calls* fail,
//! this layer makes the *multi-agent system itself* fail: robot processes
//! die mid-episode and reboot, messages are dropped / duplicated / garbled
//! / delivered late, the network partitions, and — for centralized
//! paradigms — the coordinator process can crash outright, optionally
//! recovering via deterministic promotion of a surviving agent.
//!
//! Everything follows the same determinism discipline as the LLM fault
//! layer: all draws come from dedicated seeded streams in a fixed order,
//! and a `none()` profile performs **zero** draws, so fault-free runs stay
//! byte-identical to builds that predate the subsystem.

use crate::prompt::Counted;
use embodied_env::Name;
use embodied_profiler::{check_rate, AgentFaultStats, ChannelStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Per-step agent-process fault probabilities plus recovery/failover
/// parameters. The default ([`AgentFaultProfile::none()`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentFaultProfile {
    /// Per-agent per-step probability the agent process crashes.
    pub crash: f64,
    /// Steps a crashed agent stays down before rejoining.
    pub crash_downtime: usize,
    /// Per-agent per-step probability of a one-step stall (the process
    /// freezes for the step but does not lose state).
    pub stall: f64,
    /// Per-step probability the *coordinator process* crashes
    /// (centralized/hybrid paradigms only; ignored elsewhere).
    pub coordinator_crash: f64,
    /// Whether a surviving agent is promoted to coordinator after a
    /// coordinator crash. Off = the system runs headless for the rest of
    /// the episode (the single-point-of-failure cliff).
    pub failover: bool,
    /// Headless steps tolerated before the failover election fires.
    pub failover_after: usize,
    /// Silent steps after which teammates suspect a peer is down and
    /// re-plan around it (heartbeat staleness threshold).
    pub staleness_after: usize,
}

impl Default for AgentFaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl AgentFaultProfile {
    /// No agent faults — systems behave exactly as without injection.
    pub fn none() -> Self {
        AgentFaultProfile {
            crash: 0.0,
            crash_downtime: 3,
            stall: 0.0,
            coordinator_crash: 0.0,
            failover: false,
            failover_after: 1,
            staleness_after: 2,
        }
    }

    /// The sweep profile: agents crash and stall at `rate` (3-step
    /// downtime), and the coordinator crashes at `rate` too. Failover off.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "agent fault rate out of range: {rate}"
        );
        AgentFaultProfile {
            crash: rate,
            stall: rate,
            coordinator_crash: rate,
            ..Self::none()
        }
    }

    /// [`AgentFaultProfile::uniform`] with coordinator failover enabled.
    pub fn uniform_with_failover(rate: f64) -> Self {
        AgentFaultProfile {
            failover: true,
            ..Self::uniform(rate)
        }
    }

    /// `true` when no fault can ever fire — the runtime state then performs
    /// zero draws and injects nothing.
    pub fn is_none(&self) -> bool {
        self.crash == 0.0 && self.stall == 0.0 && self.coordinator_crash == 0.0
    }

    /// Validated constructor: every rate must be a finite probability in
    /// `[0, 1]`. All deserialization paths go through this.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("crash", self.crash)?;
        check_rate("stall", self.stall)?;
        check_rate("coordinator_crash", self.coordinator_crash)?;
        Ok(self)
    }
}

/// Per-delivery message-channel fault probabilities. The default
/// ([`ChannelProfile::none()`]) is a perfect network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelProfile {
    /// Probability a message is dropped in flight.
    pub drop: f64,
    /// Probability a delivered message arrives twice.
    pub duplicate: f64,
    /// Probability a delivered message arrives garbled (text unusable,
    /// entity payload lost).
    pub corrupt: f64,
    /// Probability a delivered message is delayed by [`Self::delay_steps`].
    pub delay: f64,
    /// Steps a delayed message waits before delivery.
    pub delay_steps: usize,
    /// Per-step probability a network partition opens (splitting the team
    /// into two halves that cannot exchange messages).
    pub partition: f64,
    /// Steps a partition lasts before healing.
    pub partition_steps: usize,
}

impl Default for ChannelProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl ChannelProfile {
    /// A perfect channel — deliveries behave exactly as without injection.
    pub fn none() -> Self {
        ChannelProfile {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_steps: 2,
            partition: 0.0,
            partition_steps: 3,
        }
    }

    /// A uniformly lossy channel: each delivery is independently dropped,
    /// duplicated, corrupted, or delayed at `rate`, and a 3-step partition
    /// opens each step at `rate / 2`.
    pub fn lossy(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "channel fault rate out of range: {rate}"
        );
        ChannelProfile {
            drop: rate,
            duplicate: rate,
            corrupt: rate,
            delay: rate,
            partition: rate / 2.0,
            ..Self::none()
        }
    }

    /// `true` when the channel can never misbehave — zero draws occur.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.partition == 0.0
    }

    /// Validated constructor: every rate must be a finite probability in
    /// `[0, 1]`. All deserialization paths go through this.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("drop", self.drop)?;
        check_rate("duplicate", self.duplicate)?;
        check_rate("corrupt", self.corrupt)?;
        check_rate("delay", self.delay)?;
        check_rate("partition", self.partition)?;
        Ok(self)
    }
}

/// A begin-of-step agent fault event, surfaced so the system can record the
/// matching trace span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AgentFaultEvent {
    /// Agent `id` crashed this step (down for the profile's downtime).
    Crashed(usize),
    /// Agent `id` completed its reboot and rejoined this step.
    Recovered(usize),
    /// The coordinator process crashed this step.
    CoordinatorCrashed,
}

/// Runtime agent-fault state for one episode: who is down, who is stalled,
/// whether the coordinator is alive, and the accumulated stats.
#[derive(Debug)]
pub(crate) struct AgentFaultState {
    profile: AgentFaultProfile,
    rng: StdRng,
    /// Per-agent step at which the agent recovers, while down.
    down_until: Vec<Option<usize>>,
    /// Per-agent one-step stall flags, rebuilt every step.
    stalled: Vec<bool>,
    /// Step the coordinator died, while dead.
    coordinator_down_since: Option<usize>,
    /// Agent id whose host currently runs the coordinator process (0 until
    /// a failover promotes someone else) — also the partition side the
    /// center sits on.
    pub coordinator: usize,
    /// Accumulated counters, copied into the episode report.
    pub stats: AgentFaultStats,
}

impl AgentFaultState {
    /// Builds the state for a team of `n` agents, seeded independently of
    /// every other stream in the episode.
    pub fn new(profile: AgentFaultProfile, seed: u64, n: usize) -> Self {
        AgentFaultState {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x00a9_e417_fa17),
            down_until: vec![None; n],
            stalled: vec![false; n],
            coordinator_down_since: None,
            coordinator: 0,
            stats: AgentFaultStats::default(),
        }
    }

    /// The profile this state draws from.
    pub fn profile(&self) -> &AgentFaultProfile {
        &self.profile
    }

    /// Begin-of-step fault draws, in fixed order (recover checks, then
    /// per-agent crash and stall draws, then the coordinator draw), plus
    /// downtime accounting. Returns the events so the caller can record
    /// trace spans. Zero draws under a `none()` profile.
    pub fn begin_step(&mut self, step: usize, has_coordinator: bool) -> Vec<AgentFaultEvent> {
        let mut events = Vec::new();
        for s in &mut self.stalled {
            *s = false;
        }
        if self.profile.is_none() {
            return events;
        }
        for i in 0..self.down_until.len() {
            if let Some(until) = self.down_until[i] {
                if step >= until {
                    self.down_until[i] = None;
                    self.stats.recoveries += 1;
                    events.push(AgentFaultEvent::Recovered(i));
                }
            }
            if self.down_until[i].is_none() {
                if self.profile.crash > 0.0 && self.rng.gen_bool(self.profile.crash.min(1.0)) {
                    self.down_until[i] = Some(step + self.profile.crash_downtime.max(1));
                    self.stats.crashes += 1;
                    events.push(AgentFaultEvent::Crashed(i));
                } else if self.profile.stall > 0.0 && self.rng.gen_bool(self.profile.stall.min(1.0))
                {
                    self.stalled[i] = true;
                    self.stats.stalls += 1;
                }
            }
            if self.down_until[i].is_some() {
                self.stats.downtime_steps += 1;
            }
        }
        if has_coordinator
            && self.coordinator_down_since.is_none()
            && self.profile.coordinator_crash > 0.0
            && self.rng.gen_bool(self.profile.coordinator_crash.min(1.0))
        {
            self.coordinator_down_since = Some(step);
            self.stats.coordinator_crashes += 1;
            events.push(AgentFaultEvent::CoordinatorCrashed);
        }
        events
    }

    /// Whether agent `i` is crashed (skips sense/plan/execute).
    pub fn is_down(&self, i: usize) -> bool {
        self.down_until[i].is_some()
    }

    /// Whether agent `i` is frozen for just this step.
    pub fn is_stalled(&self, i: usize) -> bool {
        self.stalled[i]
    }

    /// Whether agent `i` participates in this step at all.
    pub fn is_active(&self, i: usize) -> bool {
        !self.is_down(i) && !self.is_stalled(i)
    }

    /// Whether the coordinator process is currently dead.
    pub fn coordinator_down(&self) -> bool {
        self.coordinator_down_since.is_some()
    }

    /// Counts one headless step (coordinator dead, no failover yet).
    pub fn note_headless_step(&mut self) {
        self.stats.coordinator_down_steps += 1;
    }

    /// Failover election: once the coordinator has been dead for the
    /// profile's tolerance, promote the surviving agent with the **lowest
    /// id** — a deterministic rule every replica of the episode agrees on.
    /// Returns the promoted agent id, or `None` (failover disabled, still
    /// within tolerance, or nobody left alive).
    pub fn maybe_failover(&mut self, step: usize) -> Option<usize> {
        let since = self.coordinator_down_since?;
        if !self.profile.failover || step.saturating_sub(since) < self.profile.failover_after {
            return None;
        }
        let survivor = (0..self.down_until.len()).find(|&i| !self.is_down(i))?;
        self.coordinator_down_since = None;
        self.coordinator = survivor;
        self.stats.failovers += 1;
        Some(survivor)
    }
}

/// How the channel treated one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeliveryFate {
    /// Deliver `copies` copies (2 on duplication), garbled when `corrupt`,
    /// after `delay` extra steps (0 = now).
    Deliver {
        copies: usize,
        corrupt: bool,
        delay: usize,
    },
    /// Dropped in flight.
    Dropped,
    /// Blocked at a partition cut.
    Blocked,
}

/// A message the channel is holding for late delivery.
#[derive(Debug, Clone)]
pub(crate) struct DelayedMessage {
    /// Step at (or after) which the message arrives.
    pub deliver_at: usize,
    /// Recipient agent id.
    pub to: usize,
    /// Message text with its token count (already garbled if the delivery
    /// was also corrupted), shared with the sender.
    pub text: Counted<Rc<str>>,
    /// Entity payload (empty if corrupted), shared with the sender.
    pub entities: Rc<[Name]>,
    /// Copies to deliver (2 if the delivery was also duplicated).
    pub copies: usize,
}

/// Runtime channel state for one episode: the partition window, the
/// delayed-message queue, and the accumulated stats.
#[derive(Debug)]
pub(crate) struct ChannelState {
    profile: ChannelProfile,
    rng: StdRng,
    /// Step at which the active partition heals, while partitioned.
    partition_until: Option<usize>,
    /// Messages in flight past their send step.
    pub delayed: Vec<DelayedMessage>,
    /// Accumulated counters, copied into the episode report.
    pub stats: ChannelStats,
}

impl ChannelState {
    /// Builds the state, seeded independently of every other stream.
    pub fn new(profile: ChannelProfile, seed: u64) -> Self {
        ChannelState {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x00c4_a22e_15ed),
            partition_until: None,
            delayed: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The profile this state draws from.
    pub fn profile(&self) -> &ChannelProfile {
        &self.profile
    }

    /// Begin-of-step partition bookkeeping: heal an expired partition, then
    /// (at most one draw) maybe open a new one. Zero draws under `none()`.
    pub fn begin_step(&mut self, step: usize) {
        // Heal first (draw-free) so a profile zeroed mid-episode still lets
        // an open partition expire; only the open-a-new-one draw is gated.
        if let Some(until) = self.partition_until {
            if step >= until {
                self.partition_until = None;
            }
        }
        if self.profile.is_none() {
            return;
        }
        if self.partition_until.is_none()
            && self.profile.partition > 0.0
            && self.rng.gen_bool(self.profile.partition.min(1.0))
        {
            self.partition_until = Some(step + self.profile.partition_steps.max(1));
            self.stats.partitions += 1;
        }
        if self.partition_until.is_some() {
            self.stats.partition_steps += 1;
        }
    }

    /// Whether a partition currently splits the team.
    pub fn partitioned(&self) -> bool {
        self.partition_until.is_some()
    }

    /// Partition side of agent `from_host` in a team of `n`: the cut always
    /// splits the team at `n / 2` (lower half vs. upper half), so every
    /// replica of the episode agrees on the topology.
    fn same_side(from_host: usize, to: usize, n: usize) -> bool {
        let cut = (n / 2).max(1);
        (from_host < cut) == (to < cut)
    }

    /// Samples the fate of one delivery from the host of agent `from_host`
    /// to agent `to`, in fixed draw order (partition check, drop, corrupt,
    /// duplicate, delay). For center-originated traffic, pass the
    /// coordinator's agent id as `from_host` — the center shares its host's
    /// partition side. Zero draws under a `none()` profile.
    pub fn fate(&mut self, from_host: usize, to: usize, n: usize) -> DeliveryFate {
        if self.profile.is_none() {
            return DeliveryFate::Deliver {
                copies: 1,
                corrupt: false,
                delay: 0,
            };
        }
        if self.partitioned() && !Self::same_side(from_host, to, n) {
            self.stats.partition_blocked += 1;
            return DeliveryFate::Blocked;
        }
        if self.profile.drop > 0.0 && self.rng.gen_bool(self.profile.drop.min(1.0)) {
            self.stats.dropped += 1;
            return DeliveryFate::Dropped;
        }
        let corrupt =
            self.profile.corrupt > 0.0 && self.rng.gen_bool(self.profile.corrupt.min(1.0));
        if corrupt {
            self.stats.corrupted += 1;
        }
        let copies =
            if self.profile.duplicate > 0.0 && self.rng.gen_bool(self.profile.duplicate.min(1.0)) {
                self.stats.duplicated += 1;
                2
            } else {
                1
            };
        let delay = if self.profile.delay > 0.0 && self.rng.gen_bool(self.profile.delay.min(1.0)) {
            self.stats.delayed += 1;
            self.profile.delay_steps.max(1)
        } else {
            0
        };
        DeliveryFate::Deliver {
            copies,
            corrupt,
            delay,
        }
    }

    /// Whether a heartbeat from agent `from` reaches agent `to` — drops and
    /// partitions apply; duplication/corruption/delay do not (a late or
    /// garbled heartbeat still proves liveness). Lost heartbeats feed false
    /// peer suspicions. Zero draws under a `none()` profile.
    pub fn heartbeat_delivered(&mut self, from: usize, to: usize, n: usize) -> bool {
        if self.profile.is_none() {
            return true;
        }
        if self.partitioned() && !Self::same_side(from, to, n) {
            self.stats.heartbeats_lost += 1;
            return false;
        }
        if self.profile.drop > 0.0 && self.rng.gen_bool(self.profile.drop.min(1.0)) {
            self.stats.heartbeats_lost += 1;
            return false;
        }
        true
    }

    /// Drains the delayed messages due at `step`, in queue order.
    pub fn due_messages(&mut self, step: usize) -> Vec<DelayedMessage> {
        let mut due = Vec::new();
        let mut kept = Vec::new();
        for msg in self.delayed.drain(..) {
            if msg.deliver_at <= step {
                due.push(msg);
            } else {
                kept.push(msg);
            }
        }
        self.delayed = kept;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profiles_never_draw() {
        // Observed the same way as the LLM injector: run the "none" state,
        // swap a live profile in, and check the stream still matches a
        // fresh state's — proving zero draws were consumed.
        let mut state = AgentFaultState::new(AgentFaultProfile::none(), 7, 4);
        for step in 0..50 {
            assert!(state.begin_step(step, true).is_empty());
        }
        assert!(state.stats == Default::default());
        state.profile = AgentFaultProfile::uniform(0.5);
        let mut fresh = AgentFaultState::new(AgentFaultProfile::uniform(0.5), 7, 4);
        for step in 0..20 {
            assert_eq!(state.begin_step(step, true), fresh.begin_step(step, true));
        }

        let mut chan = ChannelState::new(ChannelProfile::none(), 9);
        for step in 0..50 {
            chan.begin_step(step);
            assert_eq!(
                chan.fate(0, 1, 4),
                DeliveryFate::Deliver {
                    copies: 1,
                    corrupt: false,
                    delay: 0
                }
            );
            assert!(chan.heartbeat_delivered(0, 1, 4));
        }
        assert!(chan.stats == Default::default());
        chan.profile = ChannelProfile::lossy(0.5);
        let mut fresh = ChannelState::new(ChannelProfile::lossy(0.5), 9);
        for step in 0..20 {
            chan.begin_step(step);
            fresh.begin_step(step);
            assert_eq!(chan.fate(0, 1, 4), fresh.fate(0, 1, 4));
        }
    }

    #[test]
    fn crashes_recover_after_downtime() {
        let profile = AgentFaultProfile {
            crash: 1.0,
            crash_downtime: 2,
            ..AgentFaultProfile::none()
        };
        let mut state = AgentFaultState::new(profile, 3, 1);
        let events = state.begin_step(0, false);
        assert_eq!(events, vec![AgentFaultEvent::Crashed(0)]);
        assert!(state.is_down(0));
        assert!(state.begin_step(1, false).is_empty());
        assert!(state.is_down(0));
        // Step 2: recovers, then (crash = 1.0) immediately crashes again.
        let events = state.begin_step(2, false);
        assert_eq!(
            events,
            vec![AgentFaultEvent::Recovered(0), AgentFaultEvent::Crashed(0)]
        );
        assert_eq!(state.stats.recoveries, 1);
        assert_eq!(state.stats.crashes, 2);
        assert_eq!(state.stats.downtime_steps, 3);
    }

    #[test]
    fn failover_promotes_lowest_alive_id() {
        let profile = AgentFaultProfile {
            coordinator_crash: 1.0,
            failover: true,
            failover_after: 1,
            ..AgentFaultProfile::none()
        };
        let mut state = AgentFaultState::new(profile, 5, 3);
        let events = state.begin_step(0, true);
        assert_eq!(events, vec![AgentFaultEvent::CoordinatorCrashed]);
        assert!(state.coordinator_down());
        // Still within tolerance on the crash step.
        assert_eq!(state.maybe_failover(0), None);
        // Agent 0 is down: the next-lowest survivor wins the election.
        state.down_until[0] = Some(10);
        assert_eq!(state.maybe_failover(1), Some(1));
        assert!(!state.coordinator_down());
        assert_eq!(state.coordinator, 1);
        assert_eq!(state.stats.failovers, 1);
    }

    #[test]
    fn failover_disabled_stays_headless() {
        let profile = AgentFaultProfile {
            coordinator_crash: 1.0,
            ..AgentFaultProfile::none()
        };
        let mut state = AgentFaultState::new(profile, 5, 2);
        state.begin_step(0, true);
        for step in 0..20 {
            assert_eq!(state.maybe_failover(step), None);
        }
        assert!(state.coordinator_down());
    }

    #[test]
    fn stalls_last_exactly_one_step() {
        let profile = AgentFaultProfile {
            stall: 1.0,
            ..AgentFaultProfile::none()
        };
        let mut state = AgentFaultState::new(profile, 11, 2);
        state.begin_step(0, false);
        assert!(state.is_stalled(0) && state.is_stalled(1));
        assert!(!state.is_down(0));
        // Flags are rebuilt every step; a zero-stall profile clears them.
        state.profile.stall = 0.0;
        state.begin_step(1, false);
        assert!(!state.is_stalled(0) && !state.is_stalled(1));
        assert_eq!(state.stats.stalls, 2);
    }

    #[test]
    fn partitions_block_cross_side_traffic_then_heal() {
        let profile = ChannelProfile {
            partition: 1.0,
            partition_steps: 2,
            ..ChannelProfile::none()
        };
        let mut chan = ChannelState::new(profile, 13);
        chan.begin_step(0);
        assert!(chan.partitioned());
        // 4 agents: sides {0,1} and {2,3}.
        assert_eq!(chan.fate(0, 2, 4), DeliveryFate::Blocked);
        assert!(matches!(chan.fate(0, 1, 4), DeliveryFate::Deliver { .. }));
        assert!(!chan.heartbeat_delivered(1, 3, 4));
        assert!(chan.heartbeat_delivered(2, 3, 4));
        // Heals at step 2 — but partition = 1.0 immediately reopens it, so
        // drop the rate first to observe the heal.
        chan.profile.partition = 0.0;
        chan.begin_step(2);
        assert!(!chan.partitioned());
        assert!(matches!(chan.fate(0, 2, 4), DeliveryFate::Deliver { .. }));
        assert_eq!(chan.stats.partitions, 1);
        assert_eq!(chan.stats.partition_blocked, 1);
        assert_eq!(chan.stats.heartbeats_lost, 1);
    }

    #[test]
    fn duplication_off_never_produces_extra_copies() {
        let profile = ChannelProfile {
            drop: 0.3,
            corrupt: 0.3,
            delay: 0.3,
            duplicate: 0.0,
            ..ChannelProfile::none()
        };
        let mut chan = ChannelState::new(profile, 17);
        for step in 0..200 {
            chan.begin_step(step);
            if let DeliveryFate::Deliver { copies, .. } = chan.fate(0, 1, 2) {
                assert_eq!(copies, 1);
            }
        }
        assert_eq!(chan.stats.duplicated, 0);
    }

    #[test]
    fn delayed_queue_releases_in_order_at_due_step() {
        let mut chan = ChannelState::new(ChannelProfile::none(), 1);
        chan.delayed.push(DelayedMessage {
            deliver_at: 3,
            to: 1,
            text: Counted::new("late".into()),
            entities: Rc::from([]),
            copies: 1,
        });
        chan.delayed.push(DelayedMessage {
            deliver_at: 5,
            to: 0,
            text: Counted::new("later".into()),
            entities: Rc::from([]),
            copies: 1,
        });
        assert!(chan.due_messages(2).is_empty());
        let due = chan.due_messages(3);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].text.text(), "late");
        assert_eq!(chan.delayed.len(), 1);
        let due = chan.due_messages(9);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].to, 0);
    }

    #[test]
    fn identical_seeds_replay_identical_schedules() {
        let run = |seed| {
            let mut state = AgentFaultState::new(AgentFaultProfile::uniform(0.3), seed, 4);
            let mut log = Vec::new();
            for step in 0..100 {
                log.push(state.begin_step(step, true));
            }
            (log, state.stats)
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).0, run(22).0);
    }

    #[test]
    fn validated_rejects_out_of_range_rates() {
        let bad_agent = AgentFaultProfile {
            stall: 1.5,
            ..AgentFaultProfile::none()
        };
        assert!(bad_agent.validated().is_err());
        let bad_channel = ChannelProfile {
            drop: -0.1,
            ..ChannelProfile::none()
        };
        assert!(bad_channel.validated().is_err());
    }
}
