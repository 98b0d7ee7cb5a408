//! Grasp-candidate sampling and scoring — DaDu-E's AnyGrasp-style execution
//! back-end (Table II).
//!
//! Real grasp networks propose many candidate poses, score them, and execute
//! the best; failures trigger re-sampling. We reproduce that loop: the
//! number of candidates evaluated is the billable work, and grasp success
//! depends on object difficulty and the best candidate's score.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A candidate grasp pose with its predicted quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraspCandidate {
    /// Approach angle in radians.
    pub angle: f64,
    /// Gripper width in meters.
    pub width: f64,
    /// Predicted success score in `[0, 1]`.
    pub score: f64,
}

/// How hard an object is to grasp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraspTarget {
    /// Characteristic object size in meters (affects feasible widths).
    pub size: f64,
    /// Intrinsic difficulty in `[0, 1]` (slippery / awkward geometry).
    pub difficulty: f64,
}

impl GraspTarget {
    /// A typical household object.
    pub fn household() -> Self {
        GraspTarget {
            size: 0.08,
            difficulty: 0.25,
        }
    }

    /// A difficult, irregular object.
    pub fn awkward() -> Self {
        GraspTarget {
            size: 0.15,
            difficulty: 0.6,
        }
    }
}

/// Result of one grasp attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct GraspOutcome {
    /// Whether the object was secured.
    pub success: bool,
    /// Candidates evaluated (billable perception/scoring work).
    pub candidates_evaluated: usize,
    /// The executed candidate.
    pub executed: GraspCandidate,
}

/// AnyGrasp-style grasp planner.
#[derive(Debug, Clone)]
pub struct GraspPlanner {
    rng: StdRng,
    candidates_per_attempt: usize,
}

impl GraspPlanner {
    /// Creates a planner evaluating `candidates_per_attempt` poses per try.
    ///
    /// # Panics
    ///
    /// Panics if `candidates_per_attempt` is zero.
    pub fn new(seed: u64, candidates_per_attempt: usize) -> Self {
        assert!(candidates_per_attempt > 0, "need at least one candidate");
        GraspPlanner {
            rng: StdRng::seed_from_u64(seed ^ 0x6ea5),
            candidates_per_attempt,
        }
    }

    /// Planner with the default candidate budget (64, matching typical
    /// grasp-net proposal counts).
    pub fn with_seed(seed: u64) -> Self {
        Self::new(seed, 64)
    }

    /// Samples candidates for `target`, executes the best, and reports the
    /// outcome. Success probability is the best candidate's score damped by
    /// target difficulty.
    pub fn attempt(&mut self, target: GraspTarget) -> GraspOutcome {
        let mut best = GraspCandidate {
            angle: 0.0,
            width: target.size,
            score: 0.0,
        };
        for _ in 0..self.candidates_per_attempt {
            let angle = self
                .rng
                .gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            let width = target.size * self.rng.gen_range(0.8..1.6);
            // Score favors near-perpendicular approaches and snug widths.
            let angle_fit = 1.0 - (angle.sin()).abs() * 0.3;
            let width_fit = 1.0 - ((width / target.size) - 1.1).abs().min(1.0) * 0.5;
            let noise = self.rng.gen_range(0.85..1.0);
            let score = (angle_fit * width_fit * noise).clamp(0.0, 1.0);
            if score > best.score {
                best = GraspCandidate {
                    angle,
                    width,
                    score,
                };
            }
        }
        let p_success = (best.score * (1.0 - 0.7 * target.difficulty)).clamp(0.02, 0.99);
        GraspOutcome {
            success: self.rng.gen_bool(p_success),
            candidates_evaluated: self.candidates_per_attempt,
            executed: best,
        }
    }

    /// Attempts up to `max_attempts` grasps, stopping at the first success.
    /// Total candidates evaluated accumulate across attempts.
    pub fn attempt_until(&mut self, target: GraspTarget, max_attempts: usize) -> GraspOutcome {
        let mut total = 0;
        let mut last = self.attempt(target);
        total += last.candidates_evaluated;
        let mut tries = 1;
        while !last.success && tries < max_attempts {
            last = self.attempt(target);
            total += last.candidates_evaluated;
            tries += 1;
        }
        last.candidates_evaluated = total;
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = GraspPlanner::with_seed(5);
        let mut b = GraspPlanner::with_seed(5);
        assert_eq!(
            a.attempt(GraspTarget::household()),
            b.attempt(GraspTarget::household())
        );
    }

    #[test]
    fn easy_objects_succeed_more_often() {
        let trials = 200;
        let mut planner = GraspPlanner::with_seed(1);
        let easy = (0..trials)
            .filter(|_| planner.attempt(GraspTarget::household()).success)
            .count();
        let mut planner = GraspPlanner::with_seed(1);
        let hard = (0..trials)
            .filter(|_| planner.attempt(GraspTarget::awkward()).success)
            .count();
        assert!(
            easy > hard,
            "household ({easy}/{trials}) should beat awkward ({hard}/{trials})"
        );
    }

    #[test]
    fn candidates_counted_across_retries() {
        let mut planner = GraspPlanner::new(3, 16);
        let out = planner.attempt_until(GraspTarget::awkward(), 5);
        assert!(out.candidates_evaluated >= 16);
        assert_eq!(out.candidates_evaluated % 16, 0);
        assert!(out.candidates_evaluated <= 5 * 16);
    }

    #[test]
    fn best_candidate_has_positive_score() {
        let mut planner = GraspPlanner::with_seed(2);
        let out = planner.attempt(GraspTarget::household());
        assert!(out.executed.score > 0.0);
        assert!(out.executed.score <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_candidates_rejected() {
        let _ = GraspPlanner::new(0, 0);
    }

    #[test]
    fn retry_loop_usually_succeeds_eventually() {
        let mut planner = GraspPlanner::with_seed(9);
        let successes = (0..50)
            .filter(|_| planner.attempt_until(GraspTarget::household(), 6).success)
            .count();
        assert!(successes >= 45, "only {successes}/50 succeeded in 6 tries");
    }
}
