//! Franka-Kitchen / Meta-World-style skill environment (EmbodiedGPT): a
//! single robot must complete a set of appliance-manipulation skills, each
//! executed by an MLP control policy over several primitives.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::{phrase, word};
use embodied_exec::{latency, MlpPolicy};
use embodied_profiler::SimDuration;
use rand::Rng;

const SKILLS: [&str; 7] = [
    "open_microwave",
    "move_kettle",
    "turn_on_light",
    "open_slide_cabinet",
    "open_hinge_cabinet",
    "turn_on_burner",
    "open_fridge",
];

/// Primitives per skill (grip, pull, release, …).
const PRIMS_PER_SKILL: usize = 3;

/// The skill-suite environment (single agent).
#[derive(Debug, Clone)]
pub struct KitchenEnv {
    /// [`SKILLS`] as shared names, in the same order; the task requires
    /// the first `done.len()` of them.
    skills: [Name; 7],
    /// Whether each required skill is done.
    done: Vec<bool>,
    policy: MlpPolicy,
    difficulty: TaskDifficulty,
    max_steps: usize,
    /// Where the arm is: `franka kitchen`.
    location: Name,
}

impl KitchenEnv {
    /// Builds an instance requiring 3/5/7 skills by difficulty.
    pub fn new(difficulty: TaskDifficulty, _num_agents: usize, seed: u64) -> Self {
        let k = 2 * difficulty.scale() + 1;
        KitchenEnv {
            max_steps: k * 3 + 4,
            done: vec![false; k],
            skills: SKILLS.map(Name::from),
            policy: MlpPolicy::new(12, &[64, 64], 8, seed),
            difficulty,
            location: Name::from("franka kitchen"),
        }
    }

    /// Skills completed so far.
    pub fn completed_count(&self) -> usize {
        self.done.iter().filter(|d| **d).count()
    }

    /// The skills this task requires.
    fn required(&self) -> &[Name] {
        &self.skills[..self.done.len()]
    }

    fn skill_index(&self, name: &str) -> Option<usize> {
        self.required().iter().position(|s| **s == *name)
    }

    fn features_for(&self, skill_idx: usize, prim: usize) -> Vec<f64> {
        (0..self.policy.input_dim())
            .map(|i| ((skill_idx * 7 + prim * 3 + i) as f64 * 0.37).sin())
            .collect()
    }
}

impl Environment for KitchenEnv {
    fn name(&self) -> &str {
        "Franka-Kitchen"
    }

    fn num_agents(&self) -> usize {
        1
    }

    fn max_steps(&self) -> usize {
        self.max_steps
    }

    fn difficulty(&self) -> TaskDifficulty {
        self.difficulty
    }

    fn goal_text(&self) -> String {
        format!(
            "Complete the kitchen skills: {}.",
            self.required()
                .iter()
                .map(Name::as_str)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    fn landmarks(&self) -> Vec<String> {
        // The task spec names its skills.
        self.required().iter().map(|s| s.to_string()).collect()
    }

    fn observe(&self, _agent: usize) -> Observation {
        let visible: Vec<SeenEntity> = self
            .required()
            .iter()
            .zip(&self.done)
            .map(|(name, d)| {
                let state = if *d {
                    word!(": done")
                } else {
                    word!(": pending")
                };
                SeenEntity::new(name.clone(), phrase![name.clone(), state])
            })
            .collect();
        Observation {
            agent_pos: None,
            location: self.location.clone(),
            visible,
            status: phrase![
                self.completed_count(),
                word!("/"),
                self.done.len(),
                word!(" skills complete")
            ],
        }
    }

    fn oracle_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        self.required()
            .iter()
            .zip(&self.done)
            .filter(|(_, d)| !**d)
            .map(|(name, _)| Subgoal::Skill { name: name.clone() })
            .collect()
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        let mut all: Vec<Subgoal> = self
            .skills
            .iter()
            .map(|name| Subgoal::Skill { name: name.clone() })
            .collect();
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, _agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::Skill { name } => {
                let Some(idx) = self.skill_index(name) else {
                    return ExecOutcome::invalid(format!("{name} is not part of this task"));
                };
                if self.done[idx] {
                    return ExecOutcome::gone(format!("{name} is already done"));
                }
                // Run the control policy for each primitive; the policy is
                // real compute, success is gated by actuation + competence.
                let mut compute = SimDuration::ZERO;
                let mut actuation = SimDuration::ZERO;
                let mut ok = true;
                for prim in 0..PRIMS_PER_SKILL {
                    let feats = self.features_for(idx, prim);
                    let _action = self.policy.act(&feats);
                    compute += latency::mlp_compute(self.policy.flops());
                    let drive = low.actuator.drive(latency::skill_actuation());
                    actuation += drive.total_time;
                    if !drive.success || !low.rng.gen_bool(low.competence.clamp(0.0, 1.0)) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.done[idx] = true;
                }
                ExecOutcome {
                    completed: ok,
                    made_progress: ok,
                    compute,
                    actuation,
                    kind: FailureKind::Plain,
                    note: if ok {
                        format!("completed {name}")
                    } else {
                        format!("{name} slipped mid-skill")
                    },
                }
            }
            Subgoal::Wait | Subgoal::Explore => {
                ExecOutcome::idle(SimDuration::from_millis(200), "idle at the bench")
            }
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.done.iter().all(|d| *d)
    }

    fn progress(&self) -> f64 {
        if self.done.is_empty() {
            1.0
        } else {
            self.completed_count() as f64 / self.done.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    #[test]
    fn oracle_completes_all_difficulties() {
        for d in TaskDifficulty::ALL {
            let mut e = KitchenEnv::new(d, 1, 0);
            let mut low = LowLevel::controller(1);
            let mut steps = 0;
            while !e.is_complete() && steps < e.max_steps() * 3 {
                let sg = e.oracle_subgoals(0)[0].clone();
                e.execute(0, &sg, &mut low);
                steps += 1;
            }
            assert!(e.is_complete(), "difficulty {d} stuck after {steps}");
        }
    }

    #[test]
    fn skill_outside_task_rejected() {
        let mut e = KitchenEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(0);
        let out = e.execute(
            0,
            &Subgoal::Skill {
                name: "open_fridge".into(), // skill 7, not in easy's first 3
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("not part"));
        assert_eq!(out.kind, FailureKind::Invalid);
    }

    #[test]
    fn repeating_a_done_skill_fails() {
        let mut e = KitchenEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(1);
        let sg = e.oracle_subgoals(0)[0].clone();
        while !e.execute(0, &sg, &mut low).completed {}
        let out = e.execute(0, &sg, &mut low);
        assert!(!out.completed);
        assert!(out.note.contains("already done"));
        assert_eq!(out.kind, FailureKind::Gone);
    }

    #[test]
    fn skill_execution_bills_policy_compute_and_actuation() {
        let mut e = KitchenEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(1);
        let sg = e.oracle_subgoals(0)[0].clone();
        let out = e.execute(0, &sg, &mut low);
        assert!(out.compute > SimDuration::ZERO);
        assert!(out.actuation > SimDuration::from_secs(1));
    }

    #[test]
    fn difficulty_scales_skill_count() {
        assert_eq!(
            KitchenEnv::new(TaskDifficulty::Easy, 1, 0).required().len(),
            3
        );
        assert_eq!(
            KitchenEnv::new(TaskDifficulty::Medium, 1, 0)
                .required()
                .len(),
            5
        );
        assert_eq!(
            KitchenEnv::new(TaskDifficulty::Hard, 1, 0).required().len(),
            7
        );
    }

    #[test]
    fn observation_tracks_progress() {
        let mut e = KitchenEnv::new(TaskDifficulty::Easy, 1, 0);
        e.done[0] = true;
        let obs = e.observe(0);
        assert!(obs.status.to_string().contains("1/3"));
        assert!(obs.visible[0].description.to_string().contains("done"));
    }

    #[test]
    fn observations_render_as_before() {
        let mut env = KitchenEnv::new(TaskDifficulty::Easy, 1, 42);
        let (location, status, seen) = rendered_at(&mut env, 1);
        assert_eq!(location, "franka kitchen");
        assert_eq!(status, "1/3 skills complete");
        assert_eq!(
            seen,
            [
                "open_microwave: done",
                "move_kettle: pending",
                "turn_on_light: pending"
            ]
        );
    }
}
