//! Primitive actuation with stochastic failure and retry — the glue between
//! a planned motion and the environment actually changing.
//!
//! The paper notes that "multiple executions [are] typically required to
//! complete a single planned step"; the [`Actuator`] reproduces that by
//! failing primitives with a configurable probability and retrying, billing
//! time for every attempt.

use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of driving one primitive to completion (or giving up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActuationResult {
    /// Whether the primitive eventually succeeded.
    pub success: bool,
    /// Attempts made (≥ 1).
    pub attempts: usize,
    /// Total simulated time across all attempts.
    pub total_time: SimDuration,
}

/// A seeded actuator with a per-attempt success probability.
#[derive(Debug, Clone)]
pub struct Actuator {
    rng: StdRng,
    success_prob: f64,
    max_attempts: usize,
}

impl Actuator {
    /// Creates an actuator.
    ///
    /// `success_prob` is clamped to `[0.01, 1.0]`; `max_attempts` is raised
    /// to at least 1.
    pub fn new(seed: u64, success_prob: f64, max_attempts: usize) -> Self {
        Actuator {
            rng: StdRng::seed_from_u64(seed ^ 0xac7a),
            success_prob: success_prob.clamp(0.01, 1.0),
            max_attempts: max_attempts.max(1),
        }
    }

    /// A reliable actuator (97% per attempt, up to 3 attempts).
    pub fn reliable(seed: u64) -> Self {
        Self::new(seed, 0.97, 3)
    }

    /// A flaky actuator for failure-injection studies.
    pub fn flaky(seed: u64) -> Self {
        Self::new(seed, 0.6, 4)
    }

    /// Per-attempt success probability.
    pub fn success_prob(&self) -> f64 {
        self.success_prob
    }

    /// Drives a primitive whose single attempt takes `attempt_time`,
    /// retrying on failure up to the attempt budget.
    pub fn drive(&mut self, attempt_time: SimDuration) -> ActuationResult {
        let mut total = SimDuration::ZERO;
        for attempt in 1..=self.max_attempts {
            total += attempt_time;
            if self.rng.gen_bool(self.success_prob) {
                return ActuationResult {
                    success: true,
                    attempts: attempt,
                    total_time: total,
                };
            }
        }
        ActuationResult {
            success: false,
            attempts: self.max_attempts,
            total_time: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn perfect_actuator_needs_one_attempt() {
        let mut a = Actuator::new(0, 1.0, 5);
        let r = a.drive(ms(100));
        assert!(r.success);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.total_time, ms(100));
    }

    #[test]
    fn time_billed_for_every_attempt() {
        let mut a = Actuator::new(0, 0.01, 3);
        // With p=0.01 a triple failure is overwhelmingly likely; find one.
        let mut saw_triple_failure = false;
        for _ in 0..20 {
            let r = a.drive(ms(50));
            assert_eq!(r.total_time, ms(50) * r.attempts as u64);
            if !r.success {
                assert_eq!(r.attempts, 3);
                saw_triple_failure = true;
            }
        }
        assert!(saw_triple_failure);
    }

    #[test]
    fn flaky_retries_more_than_reliable() {
        let n = 300;
        let mut rel = Actuator::reliable(7);
        let rel_attempts: usize = (0..n).map(|_| rel.drive(ms(1)).attempts).sum();
        let mut flk = Actuator::flaky(7);
        let flk_attempts: usize = (0..n).map(|_| flk.drive(ms(1)).attempts).sum();
        assert!(flk_attempts > rel_attempts);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut a = Actuator::flaky(seed);
            (0..10).map(|_| a.drive(ms(10))).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn clamps_degenerate_inputs() {
        let a = Actuator::new(0, -5.0, 0);
        assert!((a.success_prob() - 0.01).abs() < 1e-12);
        let mut a = Actuator::new(0, 2.0, 0);
        assert!(a.drive(ms(1)).success);
    }
}
