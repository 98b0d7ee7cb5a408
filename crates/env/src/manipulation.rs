//! RoCoBench-style multi-arm tabletop manipulation (RoCo, COHERENT): fixed
//! robot arms with limited reach must move objects to target poses, handing
//! off across overlapping workspaces. Every motion runs a real RRT plan,
//! which is what makes execution RoCo's dominant latency term (Fig. 2a).

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty, TrajectoryPlanner};
use crate::observation::{Observation, SeenEntity};
use crate::{phrase, word};
use embodied_exec::{
    latency, plan_rrt, plan_rrt_connect, smooth_trajectory, Point, RrtParams, Workspace,
};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REACH: f64 = 1.5;
const PLACE_TOL: f64 = 0.15;

#[derive(Debug, Clone)]
struct ArmObject {
    name: Name,
    pos: Point,
    target: Point,
    placed: bool,
}

/// The multi-arm manipulation environment.
#[derive(Debug, Clone)]
pub struct ManipulationEnv {
    width: f64,
    height: f64,
    bases: Vec<Point>,
    objects: Vec<ArmObject>,
    difficulty: TaskDifficulty,
    max_steps: usize,
    seed: u64,
    plans_made: usize,
    /// Each arm's location, `arm_{i} workspace`.
    arm_locations: Vec<Name>,
}

impl ManipulationEnv {
    /// Builds an instance with `num_agents` arms spread along the bench.
    /// Object count scales with difficulty (3/6/9); every object starts in
    /// some arm's reach and targets lie in some (possibly different) arm's
    /// reach, forcing handoffs.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(difficulty: TaskDifficulty, num_agents: usize, seed: u64) -> Self {
        assert!(num_agents > 0, "need at least one arm");
        let width = 1.6 * (num_agents as f64 + 1.0);
        let height = 3.0;
        let bases: Vec<Point> = (0..num_agents)
            .map(|i| Point::new((i as f64 + 1.0) * width / (num_agents as f64 + 1.0), 0.4))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa4a4);
        let n_objects = 3 * difficulty.scale();
        let mut objects = Vec::new();
        for i in 0..n_objects {
            let src_arm = i % num_agents;
            let dst_arm = (i + 1) % num_agents; // neighbour's workspace → handoffs
            let sample_near = |rng: &mut StdRng, base: Point| loop {
                let p = Point::new(
                    base.x + rng.gen_range(-0.9..0.9),
                    base.y + rng.gen_range(0.3..1.2),
                );
                if (0.1..width - 0.1).contains(&p.x) && (0.1..height - 0.1).contains(&p.y) {
                    break p;
                }
            };
            let pos = sample_near(&mut rng, bases[src_arm]);
            let target = sample_near(&mut rng, bases[dst_arm]);
            objects.push(ArmObject {
                name: format!("part_{i}").into(),
                pos,
                target,
                placed: false,
            });
        }
        let max_steps = 4 + n_objects * 4;
        ManipulationEnv {
            width,
            height,
            bases,
            objects,
            difficulty,
            max_steps,
            seed,
            plans_made: 0,
            arm_locations: (0..num_agents)
                .map(|i| format!("arm_{i} workspace").into())
                .collect(),
        }
    }

    /// Number of objects at their target pose.
    pub fn placed_count(&self) -> usize {
        self.objects.iter().filter(|o| o.placed).count()
    }

    fn in_reach(&self, agent: usize, p: Point) -> bool {
        self.bases[agent].dist(p) <= REACH
    }

    fn object_index(&self, name: &str) -> Option<usize> {
        self.objects.iter().position(|o| *o.name == *name)
    }

    /// The arm whose base is closest to `p`.
    fn owner_of(&self, p: Point) -> usize {
        self.bases
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.dist(p)
                    .partial_cmp(&b.1.dist(p))
                    .expect("distances are finite")
            })
            .map(|(i, _)| i)
            .expect("at least one arm")
    }

    /// Handoff point between two arms (midpoint of bases, pushed into the
    /// bench area).
    fn handoff_point(&self, a: usize, b: usize) -> Point {
        let m = self.bases[a].lerp(self.bases[b], 0.5);
        Point::new(m.x, (m.y + 0.8).min(self.height - 0.2))
    }

    fn workspace_for(&self, moving_object: usize, from: Point, dest: Point) -> Workspace {
        let mut ws = Workspace::new(self.width, self.height);
        for (i, o) in self.objects.iter().enumerate() {
            // Objects close to the pick or place point are not obstacles:
            // the arm lifts over / places alongside them (otherwise crowded
            // handoff spots and assembly targets would deadlock planning).
            if i != moving_object && !o.placed && o.pos.dist(dest) > 0.3 && o.pos.dist(from) > 0.3 {
                ws = ws.with_obstacle(o.pos, 0.12);
            }
        }
        ws
    }
}

impl Environment for ManipulationEnv {
    fn name(&self) -> &str {
        "RoCoBench"
    }

    fn num_agents(&self) -> usize {
        self.bases.len()
    }

    fn max_steps(&self) -> usize {
        self.max_steps
    }

    fn difficulty(&self) -> TaskDifficulty {
        self.difficulty
    }

    fn goal_text(&self) -> String {
        let goals: Vec<String> = self
            .objects
            .iter()
            .map(|o| format!("{} to ({:.1}, {:.1})", o.name, o.target.x, o.target.y))
            .collect();
        format!(
            "Move every part to its assembly pose: {}.",
            goals.join(", ")
        )
    }

    fn landmarks(&self) -> Vec<String> {
        // The assembly manifest (part names and goal poses) is the task spec.
        self.objects.iter().map(|o| o.name.to_string()).collect()
    }

    fn observe(&self, agent: usize) -> Observation {
        let visible: Vec<SeenEntity> = self
            .objects
            .iter()
            .filter(|o| !o.placed && self.in_reach(agent, o.pos))
            .map(|o| {
                SeenEntity::new(
                    o.name.clone(),
                    phrase![o.name.clone(), word!(" at "), (o.pos.x, o.pos.y)],
                )
            })
            .collect();
        Observation {
            agent_pos: None,
            location: self.arm_locations[agent].clone(),
            visible,
            status: phrase![
                self.placed_count(),
                word!("/"),
                self.objects.len(),
                word!(" parts placed")
            ],
        }
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let mut subgoals = Vec::new();
        for o in &self.objects {
            if o.placed || !self.in_reach(agent, o.pos) {
                continue;
            }
            if self.in_reach(agent, o.target) {
                subgoals.push(Subgoal::ArmMove {
                    object: o.name.clone(),
                    to: (o.target.x, o.target.y),
                });
            } else {
                // Relay toward the target's owner one adjacent arm at a
                // time; adjacent handoff points are always in joint reach.
                let owner = self.owner_of(o.target);
                let next = match owner.cmp(&agent) {
                    std::cmp::Ordering::Greater => agent + 1,
                    std::cmp::Ordering::Less => agent - 1,
                    std::cmp::Ordering::Equal => agent,
                };
                if next != agent {
                    let handoff = self.handoff_point(agent, next);
                    // Only hand off when it moves the part toward the owner,
                    // so relays never ping-pong.
                    if self.bases[owner].dist(handoff) + 1e-9 < self.bases[owner].dist(o.pos) {
                        subgoals.push(Subgoal::ArmMove {
                            object: o.name.clone(),
                            to: (handoff.x, handoff.y),
                        });
                    }
                }
            }
        }
        subgoals
    }

    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let mut all = Vec::new();
        for o in &self.objects {
            if o.placed {
                continue;
            }
            all.push(Subgoal::ArmMove {
                object: o.name.clone(),
                to: (o.target.x, o.target.y),
            });
            for other in 0..self.num_agents() {
                if other != agent {
                    let h = self.handoff_point(agent, other);
                    all.push(Subgoal::ArmMove {
                        object: o.name.clone(),
                        to: (h.x, h.y),
                    });
                }
            }
        }
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::ArmMove { object, to } => {
                let Some(idx) = self.object_index(object) else {
                    return ExecOutcome::gone(format!("{object} does not exist"));
                };
                if self.objects[idx].placed {
                    return ExecOutcome::gone(format!("{object} is already placed"));
                }
                let from = self.objects[idx].pos;
                let dest = Point::new(to.0, to.1);
                if !self.in_reach(agent, from) {
                    return ExecOutcome::failure(format!("{object} is out of reach"));
                }
                if !self.in_reach(agent, dest) {
                    return ExecOutcome::failure("destination is out of reach");
                }
                let ws = self.workspace_for(idx, from, dest);
                self.plans_made += 1;
                let plan_seed = self.seed
                    ^ (self.plans_made as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (agent as u64);
                let plan_result = match low.trajectory_planner {
                    TrajectoryPlanner::Rrt => {
                        plan_rrt(&ws, from, dest, RrtParams::default(), plan_seed)
                    }
                    TrajectoryPlanner::RrtStar => {
                        plan_rrt(&ws, from, dest, RrtParams::star(), plan_seed)
                    }
                    TrajectoryPlanner::RrtConnect => {
                        // Connect finds feasible paths fast but jagged;
                        // shortcut smoothing is its standard companion.
                        plan_rrt_connect(&ws, from, dest, RrtParams::default(), plan_seed)
                            .map(|t| smooth_trajectory(&ws, &t, 30, plan_seed))
                    }
                };
                match plan_result {
                    Ok(traj) => {
                        let compute =
                            latency::rrt_compute(traj.iterations).mul_f64(low.compute_scale);
                        let actuation = latency::arm_motion(traj.length);
                        let drive = low.actuator.drive(SimDuration::from_millis(400));
                        let success =
                            drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                        let mut made_progress = false;
                        if success {
                            let o = &mut self.objects[idx];
                            made_progress = dest.dist(o.target) < o.pos.dist(o.target) + 1e-9;
                            o.pos = dest;
                            o.placed = o.pos.dist(o.target) <= PLACE_TOL;
                        }
                        ExecOutcome {
                            completed: success,
                            made_progress,
                            compute,
                            actuation: actuation + drive.total_time,
                            kind: FailureKind::Plain,
                            note: if success {
                                format!("moved {object} to ({:.1}, {:.1})", dest.x, dest.y)
                            } else {
                                format!("gripper fault while moving {object}")
                            },
                        }
                    }
                    Err(err) => {
                        let iterations = match err {
                            embodied_exec::RrtError::Exhausted { iterations } => iterations,
                            embodied_exec::RrtError::InvalidEndpoint => 0,
                        };
                        ExecOutcome {
                            completed: false,
                            made_progress: false,
                            compute: latency::rrt_compute(iterations),
                            actuation: SimDuration::ZERO,
                            kind: FailureKind::Plain,
                            note: format!("motion planning failed for {object}: {err}"),
                        }
                    }
                }
            }
            Subgoal::Wait | Subgoal::Explore => {
                ExecOutcome::idle(SimDuration::from_millis(200), "arm idle")
            }
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.objects.iter().all(|o| o.placed)
    }

    fn progress(&self) -> f64 {
        if self.objects.is_empty() {
            1.0
        } else {
            self.placed_count() as f64 / self.objects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut ManipulationEnv, seed: u64) -> usize {
        let mut low = LowLevel::controller(seed);
        let mut steps = 0;
        while !env.is_complete() && steps < env.max_steps() * 4 {
            for agent in 0..env.num_agents() {
                let sg = env
                    .oracle_subgoals(agent)
                    .first()
                    .cloned()
                    .unwrap_or(Subgoal::Wait);
                env.execute(agent, &sg, &mut low);
            }
            steps += 1;
        }
        steps
    }

    #[test]
    fn two_arms_complete_easy_assembly() {
        let mut e = ManipulationEnv::new(TaskDifficulty::Easy, 2, 3);
        let steps = oracle_rollout(&mut e, 1);
        assert!(
            e.is_complete(),
            "placed {}/{} after {steps}",
            e.placed_count(),
            e.objects.len()
        );
    }

    #[test]
    fn three_arms_complete_medium_assembly() {
        let mut e = ManipulationEnv::new(TaskDifficulty::Medium, 3, 9);
        let steps = oracle_rollout(&mut e, 2);
        assert!(
            e.is_complete(),
            "placed {}/{} after {steps}",
            e.placed_count(),
            e.objects.len()
        );
    }

    #[test]
    fn execution_compute_is_heavy() {
        // A successful ArmMove should bill substantial RRT + motion time —
        // the source of RoCo's ~49% execution share.
        let mut e = ManipulationEnv::new(TaskDifficulty::Easy, 2, 3);
        let mut low = LowLevel::controller(1);
        let sg = e.oracle_subgoals(0).into_iter().next().unwrap_or_else(|| {
            e.oracle_subgoals(1)
                .into_iter()
                .next()
                .expect("some arm has work")
        });
        // Find which agent can do it.
        let agent = (0..2)
            .find(|&a| {
                let Subgoal::ArmMove { object, .. } = &sg else {
                    return false;
                };
                let idx = e.object_index(object).unwrap();
                e.in_reach(a, e.objects[idx].pos)
            })
            .unwrap();
        let out = e.execute(agent, &sg, &mut low);
        assert!(out.total_time().as_secs_f64() > 1.0, "{}", out.total_time());
    }

    #[test]
    fn reach_is_enforced() {
        let e0 = ManipulationEnv::new(TaskDifficulty::Easy, 3, 0);
        let mut e = e0.clone();
        // Find an object out of arm 0's reach.
        let far = e0
            .objects
            .iter()
            .find(|o| !e0.in_reach(0, o.pos))
            .map(|o| o.name.clone());
        if let Some(name) = far {
            let mut low = LowLevel::controller(0);
            let out = e.execute(
                0,
                &Subgoal::ArmMove {
                    object: name,
                    to: (e.bases[0].x, e.bases[0].y + 0.5),
                },
                &mut low,
            );
            assert!(!out.completed);
            assert!(out.note.contains("out of reach"));
        }
    }

    #[test]
    fn handoff_points_are_in_both_reaches() {
        let e = ManipulationEnv::new(TaskDifficulty::Easy, 3, 0);
        for a in 0..2 {
            let h = e.handoff_point(a, a + 1);
            assert!(e.in_reach(a, h), "handoff outside arm {a}");
            assert!(e.in_reach(a + 1, h), "handoff outside arm {}", a + 1);
        }
    }

    #[test]
    fn placement_tolerance_applies() {
        let mut e = ManipulationEnv::new(TaskDifficulty::Easy, 2, 3);
        let target = e.objects[0].target;
        e.objects[0].pos = Point::new(target.x + 0.05, target.y);
        // Not yet marked placed until a move happens, but a move onto the
        // target must mark it.
        let agent = e.owner_of(target);
        let name = e.objects[0].name.clone();
        let mut low = LowLevel::controller(2);
        let out = e.execute(
            agent,
            &Subgoal::ArmMove {
                object: name,
                to: (target.x, target.y),
            },
            &mut low,
        );
        if out.completed {
            assert!(e.objects[0].placed);
        }
    }

    #[test]
    fn progress_fraction() {
        let mut e = ManipulationEnv::new(TaskDifficulty::Medium, 2, 0);
        assert_eq!(e.progress(), 0.0);
        let n = e.objects.len();
        e.objects[0].placed = true;
        assert!((e.progress() - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn observations_render_as_before() {
        let mut env = ManipulationEnv::new(TaskDifficulty::Easy, 2, 42);
        let (location, status, seen) = rendered_at(&mut env, 0);
        assert_eq!(location, "arm_0 workspace");
        assert_eq!(status, "0/3 parts placed");
        assert_eq!(seen, ["part_0 at (0.8, 1.4)", "part_2 at (1.5, 1.1)"]);
        assert_eq!(env.observe(1).location.as_str(), "arm_1 workspace");
    }
}
