//! The `Environment` trait every task simulator implements, plus the
//! low-level execution context agents hand to it.

use crate::action::{ExecOutcome, Subgoal};
use crate::affordance::AffordanceSet;
use crate::observation::Observation;
use embodied_exec::Actuator;
use embodied_profiler::EnvFaultStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Task difficulty level (the paper's Fig. 7 sweeps easy/medium/hard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskDifficulty {
    /// Few objects, short horizon.
    Easy,
    /// The paper's default setting.
    #[default]
    Medium,
    /// Many objects / deep dependency chains.
    Hard,
}

impl TaskDifficulty {
    /// All levels, easy → hard.
    pub const ALL: [TaskDifficulty; 3] = [
        TaskDifficulty::Easy,
        TaskDifficulty::Medium,
        TaskDifficulty::Hard,
    ];

    /// Scalar difficulty in `[0, 1]` fed to the LLM quality model.
    pub fn scalar(self) -> f64 {
        match self {
            TaskDifficulty::Easy => 0.25,
            TaskDifficulty::Medium => 0.55,
            TaskDifficulty::Hard => 0.85,
        }
    }

    /// Integer scale factor for sizing task instances.
    pub fn scale(self) -> usize {
        match self {
            TaskDifficulty::Easy => 1,
            TaskDifficulty::Medium => 2,
            TaskDifficulty::Hard => 3,
        }
    }
}

impl fmt::Display for TaskDifficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskDifficulty::Easy => "easy",
            TaskDifficulty::Medium => "medium",
            TaskDifficulty::Hard => "hard",
        };
        f.write_str(s)
    }
}

/// Which sampling-based trajectory planner drives arm motion (a design
/// choice the suite can ablate: RoCo-style quality vs. Connect-style speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrajectoryPlanner {
    /// Plain single-tree RRT.
    Rrt,
    /// RRT* with rewiring (shorter paths, more compute) — the default.
    #[default]
    RrtStar,
    /// Bidirectional RRT-Connect (fewest iterations, longer paths).
    RrtConnect,
}

/// Low-level execution context an agent's execution module lends to the
/// environment while a subgoal runs.
///
/// `competence` is 1.0 when a proper controller drives primitives; the
/// Fig. 3 "execution disabled" ablation sets it far lower (the LLM is forced
/// to micro-manage a vastly expanded decision space, per the paper §IV-B).
#[derive(Debug)]
pub struct LowLevel {
    /// Retrying primitive actuator.
    pub actuator: Actuator,
    /// Deterministic randomness for execution-side sampling.
    pub rng: StdRng,
    /// Controller competence multiplier in `[0, 1]`.
    pub competence: f64,
    /// Multiplier on low-level planning compute (e.g. joint-configuration-
    /// space RRT couples all arms, so RoCo bills `num_arms ×` the work).
    pub compute_scale: f64,
    /// Sampling-based planner used for arm trajectories.
    pub trajectory_planner: TrajectoryPlanner,
    /// Use a grasp-candidate pipeline (AnyGrasp-style scoring + retries)
    /// for object pickup instead of a simple gripper close — DaDu-E's
    /// execution back-end.
    pub grasp_pipeline: bool,
}

impl LowLevel {
    /// A competent controller context.
    pub fn controller(seed: u64) -> Self {
        Self::controller_with_reliability(seed, 0.97)
    }

    /// A controller with an explicit per-attempt actuation success
    /// probability — the failure-injection knob (worn grippers, slippery
    /// objects, sensor-to-actuator miscalibration).
    pub fn controller_with_reliability(seed: u64, reliability: f64) -> Self {
        LowLevel {
            actuator: Actuator::new(seed, reliability, 3),
            rng: StdRng::seed_from_u64(seed ^ 0x10f1),
            competence: 1.0,
            compute_scale: 1.0,
            trajectory_planner: TrajectoryPlanner::default(),
            grasp_pipeline: false,
        }
    }

    /// The execution-disabled context: the planner LLM emits raw primitives.
    /// Competence collapses and every primitive costs deliberation.
    pub fn llm_micro(seed: u64, planner_quality_hint: f64) -> Self {
        LowLevel {
            actuator: Actuator::new(seed, 0.9, 2),
            rng: StdRng::seed_from_u64(seed ^ 0x10f2),
            competence: (planner_quality_hint * 0.22).clamp(0.02, 0.35),
            compute_scale: 1.0,
            trajectory_planner: TrajectoryPlanner::default(),
            grasp_pipeline: false,
        }
    }
}

/// A task environment the agent systems operate in.
///
/// # Contract
///
/// * `observe` must be side-effect free;
/// * `oracle_subgoals(agent)` returns subgoals that *currently* advance the
///   task from ground truth (empty ⇒ nothing useful; `Explore`/`Wait` are
///   implied filler) — this is the hook the simulated LLM consults when its
///   sampled reasoning is correct;
/// * `candidate_subgoals(agent)` returns the full syntactically valid menu,
///   including unhelpful or failing options — what a *wrong* LLM decision
///   draws from;
/// * `execute` mutates state and reports billable work via [`ExecOutcome`].
pub trait Environment {
    /// Short environment name, e.g. `"TDW-MAT"`.
    fn name(&self) -> &str;
    /// Number of embodied agents.
    fn num_agents(&self) -> usize;
    /// Step budget before the episode is declared failed.
    fn max_steps(&self) -> usize;
    /// Difficulty level of this instance.
    fn difficulty(&self) -> TaskDifficulty;
    /// Natural-language goal used in prompts.
    fn goal_text(&self) -> String;
    /// Entity names every agent knows a priori (rooms, fixed stations,
    /// recipe vocabulary). Everything else must be *discovered* through
    /// observation and remembered — which is what makes the memory module
    /// matter (Fig. 3, Fig. 5).
    fn landmarks(&self) -> Vec<String> {
        Vec::new()
    }
    /// Partial observation for one agent.
    fn observe(&self, agent: usize) -> Observation;
    /// Ground-truth useful next subgoals for one agent.
    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal>;
    /// Every syntactically valid subgoal for one agent.
    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal>;
    /// The affordance query surface for one agent: membership, entity
    /// knowledge and nearest-valid lookups over the candidate menu. The
    /// guardrail validator checks every planned subgoal against this before
    /// actuation.
    fn affordances(&self, agent: usize) -> AffordanceSet {
        AffordanceSet::from_candidates(self.candidate_subgoals(agent))
    }
    /// Executes a subgoal for an agent, mutating world state.
    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome;
    /// Whether the task goal is fully satisfied.
    fn is_complete(&self) -> bool;
    /// Goal completion fraction in `[0, 1]`.
    fn progress(&self) -> f64;
    /// Hook called once at the start of every episode step, before any
    /// sensing. Bare environments are pure state machines and ignore it;
    /// fault decorators use it to advance per-step fault state (downtime
    /// windows, frozen frames) in a fixed, agent-independent draw order.
    fn begin_step(&mut self, _step: usize) {}
    /// Forces a fresh perception pass for one agent, discarding any cached
    /// (possibly degraded) view. Bare environments re-derive observations on
    /// every `observe` call, so this is a no-op; fault decorators rebuild
    /// the agent's view from ground truth — the recovery stack's forced
    /// re-observation hook.
    fn refresh_perception(&mut self, _agent: usize) {}
    /// Environment-side fault counters accumulated so far this episode;
    /// identically zero for bare environments.
    fn env_fault_stats(&self) -> EnvFaultStats {
        EnvFaultStats::default()
    }
}

impl<E: Environment + ?Sized> Environment for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_agents(&self) -> usize {
        (**self).num_agents()
    }
    fn max_steps(&self) -> usize {
        (**self).max_steps()
    }
    fn difficulty(&self) -> TaskDifficulty {
        (**self).difficulty()
    }
    fn goal_text(&self) -> String {
        (**self).goal_text()
    }
    fn landmarks(&self) -> Vec<String> {
        (**self).landmarks()
    }
    fn observe(&self, agent: usize) -> Observation {
        (**self).observe(agent)
    }
    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        (**self).oracle_subgoals(agent)
    }
    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        (**self).candidate_subgoals(agent)
    }
    fn affordances(&self, agent: usize) -> AffordanceSet {
        (**self).affordances(agent)
    }
    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        (**self).execute(agent, subgoal, low)
    }
    fn is_complete(&self) -> bool {
        (**self).is_complete()
    }
    fn progress(&self) -> f64 {
        (**self).progress()
    }
    fn begin_step(&mut self, step: usize) {
        (**self).begin_step(step)
    }
    fn refresh_perception(&mut self, agent: usize) {
        (**self).refresh_perception(agent)
    }
    fn env_fault_stats(&self) -> EnvFaultStats {
        (**self).env_fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_scalars_increase() {
        let s: Vec<f64> = TaskDifficulty::ALL.iter().map(|d| d.scalar()).collect();
        assert!(s[0] < s[1] && s[1] < s[2]);
        assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn scales_increase() {
        let s: Vec<usize> = TaskDifficulty::ALL.iter().map(|d| d.scale()).collect();
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn llm_micro_competence_is_crippled() {
        let low = LowLevel::llm_micro(0, 0.9);
        assert!(low.competence < 0.5);
        let controller = LowLevel::controller(0);
        assert_eq!(controller.competence, 1.0);
    }

    #[test]
    fn default_difficulty_is_medium() {
        assert_eq!(TaskDifficulty::default(), TaskDifficulty::Medium);
    }
}
