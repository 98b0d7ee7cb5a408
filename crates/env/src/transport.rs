//! TDW-MAT-style multi-room object transport (CoELA's and DaDu-E's task
//! family): find scattered objects in partially observable rooms and carry
//! them to a goal zone.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::world::GridWorld;
use crate::{phrase, word};
use embodied_exec::{latency, Cell, GraspPlanner, GraspTarget, NavGrid};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOAL_ZONE: &str = "goal_zone";

#[derive(Debug, Clone)]
struct TransportObject {
    name: Name,
    pos: Option<Cell>, // None while carried or after delivery
    delivered: bool,
}

#[derive(Debug, Clone)]
struct Body {
    pos: Cell,
    carrying: Option<usize>,
}

/// The transport environment.
#[derive(Debug, Clone)]
pub struct TransportEnv {
    world: GridWorld,
    objects: Vec<TransportObject>,
    agents: Vec<Body>,
    goal_cell: Cell,
    goal_zone: Name,
    /// `agent_{i}`, as teammates see each other.
    agent_names: Vec<Name>,
    difficulty: TaskDifficulty,
    max_steps: usize,
}

impl TransportEnv {
    /// Builds an instance with `num_agents` agents.
    ///
    /// Object count scales with difficulty (4/8/12); agents start in the goal
    /// room; objects are scattered over the *other* rooms so they must be
    /// discovered.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(difficulty: TaskDifficulty, num_agents: usize, seed: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        let world = GridWorld::rooms_in_row(28, 10, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a45);
        let n_objects = 4 * difficulty.scale();

        let goal_cell = world.rooms()[0].center();
        let mut objects = Vec::new();
        for i in 0..n_objects {
            // Rooms 1..=3 hold the objects.
            let room = &world.rooms()[1 + i % 3];
            let pos = loop {
                let c = Cell::new(
                    rng.gen_range(room.min.x..=room.max.x),
                    rng.gen_range(room.min.y..=room.max.y),
                );
                if world.passable(c) {
                    break c;
                }
            };
            objects.push(TransportObject {
                name: format!("object_{i}").into(),
                pos: Some(pos),
                delivered: false,
            });
        }

        let agents = (0..num_agents)
            .map(|i| Body {
                pos: Cell::new(
                    goal_cell.x,
                    (goal_cell.y + i as i32).rem_euclid(world.grid_height()),
                ),
                carrying: None,
            })
            .collect();

        let max_steps = 8 + n_objects * 9 / num_agents.min(n_objects.max(1));
        TransportEnv {
            world,
            objects,
            agents,
            goal_cell,
            goal_zone: GOAL_ZONE.into(),
            agent_names: (0..num_agents)
                .map(|i| format!("agent_{i}").into())
                .collect(),
            difficulty,
            max_steps,
        }
    }

    /// Number of delivered objects (for tests/metrics).
    pub fn delivered_count(&self) -> usize {
        self.objects.iter().filter(|o| o.delivered).count()
    }

    fn object_index(&self, name: &str) -> Option<usize> {
        self.objects.iter().position(|o| *o.name == *name)
    }

    fn navigate(&mut self, agent: usize, target: Cell, low: &mut LowLevel) -> ExecOutcome {
        let from = self.agents[agent].pos;
        let goal = self.world.nav_goal(target, from);
        match self.world.route(from, goal) {
            Ok(plan) => {
                let compute = latency::astar_compute(plan.nodes_expanded);
                // Competence caps how far a step's locomotion gets.
                let full_len = plan.length();
                let reach = if low.rng.gen_bool(low.competence.clamp(0.0, 1.0)) {
                    full_len
                } else {
                    ((full_len as f64) * low.competence * 0.6).floor() as usize
                };
                let reach = reach.min(full_len);
                let new_pos = plan.path[reach];
                let moved_closer = new_pos.manhattan(goal) < from.manhattan(goal);
                self.agents[agent].pos = new_pos;
                ExecOutcome {
                    completed: reach == full_len,
                    made_progress: moved_closer,
                    compute,
                    actuation: latency::grid_motion(reach),
                    kind: FailureKind::Plain,
                    note: format!("moved {reach} cells toward {goal}"),
                }
            }
            Err(_) => ExecOutcome::failure("no path to target"),
        }
    }
}

impl Environment for TransportEnv {
    fn name(&self) -> &str {
        "TDW-MAT"
    }

    fn num_agents(&self) -> usize {
        self.agents.len()
    }

    fn max_steps(&self) -> usize {
        self.max_steps
    }

    fn difficulty(&self) -> TaskDifficulty {
        self.difficulty
    }

    fn goal_text(&self) -> String {
        format!(
            "Transport all {} target objects to the goal zone in room_0.",
            self.objects.len()
        )
    }

    fn landmarks(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .world
            .rooms()
            .iter()
            .map(|r| self.world.room_name(r.id).to_string())
            .collect();
        names.push(GOAL_ZONE.to_owned());
        names
    }

    fn observe(&self, agent: usize) -> Observation {
        let body = &self.agents[agent];
        let mut visible = Vec::new();
        for obj in &self.objects {
            if let Some(pos) = obj.pos {
                if self.world.same_room(body.pos, pos) {
                    visible.push(SeenEntity::new(
                        obj.name.clone(),
                        phrase![
                            obj.name.clone(),
                            word!(" on the floor of "),
                            self.world.location_name(pos).clone()
                        ],
                    ));
                }
            }
        }
        if self.world.same_room(body.pos, self.goal_cell) {
            visible.push(SeenEntity::new(
                self.goal_zone.clone(),
                word!("the goal zone"),
            ));
        }
        for (i, other) in self.agents.iter().enumerate() {
            if i != agent && self.world.same_room(body.pos, other.pos) {
                let name = &self.agent_names[i];
                visible.push(SeenEntity::new(
                    name.clone(),
                    phrase![name.clone(), word!(" nearby")],
                ));
            }
        }
        let status = match body.carrying {
            Some(idx) => phrase![word!("carrying "), self.objects[idx].name.clone()],
            None => word!("hands free").into(),
        };
        Observation {
            agent_pos: Some(body.pos),
            location: self.world.location_name(body.pos).clone(),
            visible,
            status,
        }
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let body = &self.agents[agent];
        if let Some(idx) = body.carrying {
            if self.world.same_room(body.pos, self.goal_cell)
                && body.pos.manhattan(self.goal_cell) <= 1
            {
                return vec![Subgoal::Place {
                    object: self.objects[idx].name.clone(),
                    dest: self.goal_zone.clone(),
                }];
            }
            return vec![Subgoal::GoTo {
                target: self.goal_zone.clone(),
                cell: self.goal_cell,
            }];
        }
        // Claim avoidance: skip objects another agent stands on/next to.
        let mut options = Vec::new();
        for obj in &self.objects {
            let Some(pos) = obj.pos else { continue };
            if obj.delivered {
                continue;
            }
            let contested = self
                .agents
                .iter()
                .enumerate()
                .any(|(i, a)| i != agent && a.carrying.is_none() && a.pos.manhattan(pos) <= 1);
            if contested {
                continue;
            }
            if body.pos.manhattan(pos) <= 1 {
                options.push(Subgoal::Pick {
                    object: obj.name.clone(),
                });
            } else {
                options.push(Subgoal::GoTo {
                    target: obj.name.clone(),
                    cell: pos,
                });
            }
        }
        // Nearest-first keeps the oracle's top choice efficient.
        options.sort_by_key(|sg| match sg {
            Subgoal::Pick { .. } => 0,
            Subgoal::GoTo { cell, .. } => 1 + body.pos.manhattan(*cell),
            _ => u32::MAX,
        });
        options
    }

    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let body = &self.agents[agent];
        let mut all = Vec::new();
        for room in self.world.rooms() {
            all.push(Subgoal::GoTo {
                target: self.world.room_name(room.id).clone(),
                cell: room.center(),
            });
        }
        all.push(Subgoal::GoTo {
            target: self.goal_zone.clone(),
            cell: self.goal_cell,
        });
        for obj in &self.objects {
            if let Some(pos) = obj.pos {
                all.push(Subgoal::GoTo {
                    target: obj.name.clone(),
                    cell: pos,
                });
                all.push(Subgoal::Pick {
                    object: obj.name.clone(),
                });
            }
        }
        if let Some(idx) = body.carrying {
            all.push(Subgoal::Place {
                object: self.objects[idx].name.clone(),
                dest: self.goal_zone.clone(),
            });
        }
        all.push(Subgoal::Explore);
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::GoTo { cell, .. } => self.navigate(agent, *cell, low),
            Subgoal::Pick { object } => {
                let Some(idx) = self.object_index(object) else {
                    return ExecOutcome::gone(format!("{object} does not exist"));
                };
                if self.agents[agent].carrying.is_some() {
                    return ExecOutcome::failure("already carrying an object");
                }
                let Some(pos) = self.objects[idx].pos else {
                    return ExecOutcome::gone(format!("{object} is not available"));
                };
                if self.agents[agent].pos.manhattan(pos) > 1 {
                    return ExecOutcome::failure(format!("{object} is out of reach"));
                }
                // Grasping: either the AnyGrasp-style candidate pipeline
                // (real scored proposals, retried — DaDu-E) or a plain
                // careful gripper close.
                let (success, compute, actuation) = if low.grasp_pipeline {
                    let seed = low.rng.gen::<u64>();
                    let mut planner = GraspPlanner::with_seed(seed);
                    let outcome = planner.attempt_until(GraspTarget::household(), 3);
                    let attempts = outcome.candidates_evaluated / 64;
                    (
                        outcome.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0)),
                        latency::grasp_compute(outcome.candidates_evaluated),
                        latency::grasp_actuation() * attempts.max(1) as u64,
                    )
                } else {
                    let drive = low.actuator.drive(SimDuration::from_millis(2_400));
                    (
                        drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0)),
                        SimDuration::from_millis(180),
                        drive.total_time,
                    )
                };
                if success {
                    self.objects[idx].pos = None;
                    self.agents[agent].carrying = Some(idx);
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute,
                    actuation,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("picked up {object}")
                    } else {
                        format!("failed to grasp {object}")
                    },
                }
            }
            Subgoal::Place { object, dest } => {
                let Some(carried) = self.agents[agent].carrying else {
                    return ExecOutcome::failure("not carrying anything");
                };
                if self.objects[carried].name != *object {
                    return ExecOutcome::failure(format!("not carrying {object}"));
                }
                if **dest != *GOAL_ZONE {
                    return ExecOutcome::invalid(format!("{dest} is not a valid destination"));
                }
                if !self.world.same_room(self.agents[agent].pos, self.goal_cell) {
                    return ExecOutcome::failure("not at the goal zone");
                }
                let drive = low.actuator.drive(SimDuration::from_millis(900));
                if drive.success {
                    self.objects[carried].delivered = true;
                    self.agents[agent].carrying = None;
                }
                ExecOutcome {
                    completed: drive.success,
                    made_progress: drive.success,
                    compute: SimDuration::from_millis(20),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if drive.success {
                        format!("delivered {object}")
                    } else {
                        format!("failed to place {object}")
                    },
                }
            }
            Subgoal::Explore => {
                // Head to the least-recently visited room: deterministic
                // sweep by room id based on current room.
                let current = self
                    .world
                    .room_of(self.agents[agent].pos)
                    .map(|r| r.id)
                    .unwrap_or(0);
                let next = (current + 1) % self.world.rooms().len();
                let target = self.world.rooms()[next].center();
                let mut outcome = self.navigate(agent, target, low);
                outcome.note = format!("explored toward room_{next}");
                outcome.made_progress = false; // exploring is not goal progress
                outcome
            }
            Subgoal::Wait => ExecOutcome::idle(SimDuration::from_millis(200), "waited"),
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.objects.iter().all(|o| o.delivered)
    }

    fn progress(&self) -> f64 {
        if self.objects.is_empty() {
            1.0
        } else {
            self.delivered_count() as f64 / self.objects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn env(difficulty: TaskDifficulty, agents: usize) -> TransportEnv {
        TransportEnv::new(difficulty, agents, 42)
    }

    /// Drives one agent with the oracle until done — a "perfect planner"
    /// rollout that must succeed well within the step budget.
    fn oracle_rollout(env: &mut TransportEnv) -> usize {
        let mut low = LowLevel::controller(7);
        let mut steps = 0;
        while !env.is_complete() && steps < env.max_steps() * 3 {
            for agent in 0..env.num_agents() {
                let subgoals = env.oracle_subgoals(agent);
                let sg = subgoals.first().cloned().unwrap_or(Subgoal::Explore);
                env.execute(agent, &sg, &mut low);
            }
            steps += 1;
        }
        steps
    }

    #[test]
    fn oracle_completes_easy_task() {
        let mut e = env(TaskDifficulty::Easy, 1);
        let steps = oracle_rollout(&mut e);
        assert!(e.is_complete(), "oracle should finish, took {steps} steps");
        assert!(steps <= e.max_steps(), "{steps} > {}", e.max_steps());
    }

    #[test]
    fn oracle_completes_hard_task_with_two_agents() {
        let mut e = env(TaskDifficulty::Hard, 2);
        oracle_rollout(&mut e);
        assert!(e.is_complete());
        assert!((e.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_difficulty_means_more_objects_and_steps() {
        let easy = env(TaskDifficulty::Easy, 1);
        let hard = env(TaskDifficulty::Hard, 1);
        assert!(hard.objects.len() > easy.objects.len());
        assert!(hard.max_steps() > easy.max_steps());
    }

    #[test]
    fn observation_is_partial() {
        let e = env(TaskDifficulty::Medium, 1);
        let obs = e.observe(0);
        // Agent starts in the goal room; objects are elsewhere.
        assert!(obs.sees(GOAL_ZONE));
        assert!(
            !obs.visible.iter().any(|v| v.name.starts_with("object_")),
            "objects must not be visible from the start room"
        );
    }

    #[test]
    fn pick_requires_reach() {
        let mut e = env(TaskDifficulty::Easy, 1);
        let mut low = LowLevel::controller(1);
        let out = e.execute(
            0,
            &Subgoal::Pick {
                object: "object_0".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("out of reach"));
    }

    #[test]
    fn place_requires_carrying_and_location() {
        let mut e = env(TaskDifficulty::Easy, 1);
        let mut low = LowLevel::controller(1);
        let out = e.execute(
            0,
            &Subgoal::Place {
                object: "object_0".into(),
                dest: GOAL_ZONE.into(),
            },
            &mut low,
        );
        assert!(!out.completed);
    }

    #[test]
    fn wrong_subgoals_fail_gracefully() {
        let mut e = env(TaskDifficulty::Easy, 1);
        let mut low = LowLevel::controller(1);
        let out = e.execute(
            0,
            &Subgoal::Craft {
                item: "pickaxe".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("unsupported"));
        assert_eq!(out.kind, FailureKind::Invalid);
    }

    #[test]
    fn low_competence_slows_navigation() {
        // With crippled competence, a long GoTo rarely completes in one shot.
        let mut completed_full = 0;
        for seed in 0..20 {
            let mut e = TransportEnv::new(TaskDifficulty::Easy, 1, seed);
            let mut low = LowLevel::llm_micro(seed, 0.9);
            let target = e.objects[0].pos.unwrap();
            let out = e.execute(
                0,
                &Subgoal::GoTo {
                    target: "object_0".into(),
                    cell: target,
                },
                &mut low,
            );
            if out.completed {
                completed_full += 1;
            }
        }
        assert!(
            completed_full < 16,
            "llm-micro competence should often cut moves short ({completed_full}/20 full)"
        );
    }

    #[test]
    fn landmarks_cover_rooms_and_goal() {
        let e = env(TaskDifficulty::Easy, 1);
        let lm = e.landmarks();
        assert!(lm.contains(&"room_0".to_owned()));
        assert!(lm.contains(&GOAL_ZONE.to_owned()));
    }

    #[test]
    fn deterministic_instances() {
        let a = TransportEnv::new(TaskDifficulty::Medium, 2, 5);
        let b = TransportEnv::new(TaskDifficulty::Medium, 2, 5);
        assert_eq!(
            a.objects.iter().map(|o| o.pos).collect::<Vec<_>>(),
            b.objects.iter().map(|o| o.pos).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_avoids_contested_objects() {
        let mut e = env(TaskDifficulty::Easy, 2);
        // Move agent 1 next to object_0.
        let pos = e.objects[0].pos.unwrap();
        e.agents[1].pos = pos;
        let subgoals = e.oracle_subgoals(0);
        let contested = Name::from("object_0");
        for sg in &subgoals {
            assert!(
                !sg.entity_refs().contains(&Some(&contested)),
                "agent 0 should not target contested object_0: {sg}"
            );
        }
    }

    #[test]
    fn observations_render_as_before() {
        let mut env = TransportEnv::new(TaskDifficulty::Easy, 2, 42);
        let (location, status, seen) = rendered_at(&mut env, 1);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("room_1", "hands free")
        );
        assert_eq!(
            seen,
            [
                "object_0 on the floor of room_1",
                "object_3 on the floor of room_1",
                "agent_1 nearby"
            ]
        );
        let (_, status, _) = rendered_at(&mut TransportEnv::new(TaskDifficulty::Easy, 2, 42), 2);
        assert_eq!(status, "carrying object_0");
        let (location, _, seen) =
            rendered_at(&mut TransportEnv::new(TaskDifficulty::Easy, 2, 42), 0);
        assert_eq!(
            (location.as_str(), seen[0].as_str()),
            ("room_0", "the goal zone")
        );
    }
}
