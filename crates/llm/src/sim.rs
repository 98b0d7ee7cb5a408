//! The discrete-event core of fleet mode: typed simulation events, the
//! (virtual-time, sequence-id)-ordered event queue, and the fleet knobs.
//!
//! Determinism contract: every event carries the monotone sequence id the
//! queue assigned at push time, and the queue pops in strict
//! `(at, seq)` order — two events at the same virtual instant replay in
//! push order, on every machine, at every `EMBODIED_JOBS`. Nothing else
//! (hash order, thread timing, pointer identity) ever influences pop
//! order.

use embodied_profiler::{SimDuration, SimInstant};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One typed occurrence on the fleet's virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A new episode session arrives at the shared serving stack and asks
    /// for admission.
    RequestArrival {
        /// Fleet-local episode index.
        episode: usize,
    },
    /// An admitted episode is ready to execute its next environment step.
    AgentStepReady {
        /// Fleet-local episode index.
        episode: usize,
    },
    /// The open cross-episode batch window reaches its horizon and settles.
    BatchWindowClose,
    /// A placement scheduled on a backend finishes decoding (the serving
    /// substrate's in-flight gauge decrements here, not at submit time).
    DecodeFinish {
        /// Backend (model-profile) index within the service.
        backend: usize,
    },
    /// A crashed replica finishes its cold restart and rejoins its fleet.
    ReplicaRestart {
        /// Backend (model-profile) index within the service.
        backend: usize,
        /// Replica index within the backend.
        replica: usize,
    },
}

/// A [`SimEvent`] bound to its virtual instant and queue sequence id.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledEvent {
    /// Virtual instant the event fires at.
    pub at: SimInstant,
    /// Monotone sequence id assigned at push time — the deterministic
    /// tie-breaker between events sharing an instant.
    pub seq: u64,
    /// The event payload.
    pub event: SimEvent,
}

// Ordering is on (at, seq) ONLY: seq is unique per queue, so the order is
// total and the payload can never influence replay order.
impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The fleet's pending-event set: a binary min-heap over
/// `(virtual-time, sequence-id)`.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<ScheduledEvent>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue whose first push gets sequence id 0.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at virtual instant `at`, returning the sequence
    /// id it was assigned.
    pub fn push(&mut self, at: SimInstant, event: SimEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(ScheduledEvent { at, seq, event }));
        seq
    }

    /// Pops the earliest pending event — lowest `(at, seq)`.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// The instant of the earliest pending event, without popping it.
    pub fn peek_at(&self) -> Option<SimInstant> {
        self.heap.peek().map(|Reverse(ev)| ev.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Sanity ceiling on the fleet's duration knobs: a stagger or batch
/// window longer than any episode is almost certainly a micros-vs-seconds
/// unit mistake, and would couple every episode into one giant batch.
const MAX_FLEET_DURATION: SimDuration = SimDuration::from_secs(600);

/// Knobs of the fleet runner: how episode sessions arrive at the shared
/// serving stack and how long cross-episode batch windows stay open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Virtual-time spacing between consecutive episode arrivals.
    pub stagger: SimDuration,
    /// How long an opened serving window keeps collecting members before
    /// its `BatchWindowClose` event settles it. Zero closes the window at
    /// the opening episode's step end — per-episode batching only.
    pub batch_window: SimDuration,
    /// Maximum episodes running concurrently; arrivals past the cap queue
    /// for admission until a session completes. 0 means unbounded.
    pub max_sessions: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            stagger: SimDuration::from_secs(2),
            batch_window: SimDuration::from_secs(30),
            max_sessions: 0,
        }
    }
}

impl FleetConfig {
    /// Fleet with `max_sessions` concurrent sessions (0 = unbounded).
    pub fn with_sessions(self, max_sessions: u32) -> Self {
        FleetConfig {
            max_sessions,
            ..self
        }
    }

    /// Fleet with the given arrival stagger.
    pub fn with_stagger(self, stagger: SimDuration) -> Self {
        FleetConfig { stagger, ..self }
    }

    /// Fleet with the given batch-window horizon.
    pub fn with_batch_window(self, batch_window: SimDuration) -> Self {
        FleetConfig {
            batch_window,
            ..self
        }
    }

    /// Validated constructor: both duration knobs must stay under the
    /// 600 s sanity ceiling (the unsigned representation already rules out
    /// negative or NaN durations).
    pub fn validated(self) -> Result<Self, String> {
        if self.stagger > MAX_FLEET_DURATION {
            return Err(format!(
                "stagger {} exceeds the {MAX_FLEET_DURATION} sanity ceiling",
                self.stagger
            ));
        }
        if self.batch_window > MAX_FLEET_DURATION {
            return Err(format!(
                "batch_window {} exceeds the {MAX_FLEET_DURATION} sanity ceiling",
                self.batch_window
            ));
        }
        Ok(self)
    }
}

/// Fleet-level counters the per-episode reports cannot express: the
/// contention the shared serving substrate actually saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetSummary {
    /// Episode sessions admitted to the shared stack.
    pub sessions: u64,
    /// Total events processed by the event loop.
    pub events: u64,
    /// Peak concurrently decoding placements across all backends.
    pub peak_in_flight: u32,
    /// `DecodeFinish` events consumed (completed placements).
    pub decode_events: u64,
    /// `ReplicaRestart` events consumed (crashed replicas rejoining).
    pub restarts: u64,
    /// Batches whose members spanned two or more episodes — the effect a
    /// per-episode loop cannot express.
    pub cross_episode_batches: u64,
    /// The furthest instant the fleet reached: wall-clock of the whole
    /// fleet.
    pub makespan: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), SimEvent::BatchWindowClose);
        q.push(at(10), SimEvent::RequestArrival { episode: 0 });
        q.push(at(20), SimEvent::AgentStepReady { episode: 0 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_at(), Some(at(10)));
        let order: Vec<SimInstant> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![at(10), at(20), at(30)]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_instants_tie_break_on_sequence_id() {
        // Three events at the same instant replay in push order, even
        // though the heap is not stable by itself.
        let mut q = EventQueue::new();
        let s0 = q.push(at(5), SimEvent::DecodeFinish { backend: 0 });
        let s1 = q.push(at(5), SimEvent::RequestArrival { episode: 1 });
        let s2 = q.push(
            at(5),
            SimEvent::ReplicaRestart {
                backend: 0,
                replica: 2,
            },
        );
        assert!(s0 < s1 && s1 < s2, "sequence ids are monotone");
        let popped: Vec<ScheduledEvent> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![s0, s1, s2]
        );
        assert_eq!(popped[0].event, SimEvent::DecodeFinish { backend: 0 });
        assert_eq!(popped[1].event, SimEvent::RequestArrival { episode: 1 });
        assert_eq!(
            popped[2].event,
            SimEvent::ReplicaRestart {
                backend: 0,
                replica: 2
            }
        );
    }

    #[test]
    fn interleaved_push_pop_replays_identically() {
        // Tie-break-order replay: two independent runs of the same
        // interleaved push/pop schedule observe the same event sequence.
        let drive = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            for round in 0..50u64 {
                // Deliberately colliding instants: every round lands on
                // one of 7 distinct times.
                let t = at(round % 7);
                q.push(
                    t,
                    SimEvent::AgentStepReady {
                        episode: round as usize,
                    },
                );
                q.push(
                    t,
                    SimEvent::DecodeFinish {
                        backend: (round % 3) as usize,
                    },
                );
                if round % 2 == 0 {
                    if let Some(ev) = q.pop() {
                        log.push((ev.at, ev.seq));
                    }
                }
            }
            while let Some(ev) = q.pop() {
                log.push((ev.at, ev.seq));
            }
            log
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn fleet_config_rejects_out_of_range_knobs() {
        // Past the sanity ceiling: rejected at validation.
        let big = FleetConfig::default().with_batch_window(SimDuration::from_secs(601));
        assert!(big.validated().is_err());
    }
}
