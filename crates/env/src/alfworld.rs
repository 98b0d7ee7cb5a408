//! ALFWorld-style text household tasks (the third dataset of DEPS in
//! Table II): a *pick-and-place with hidden objects* family where target
//! objects sit inside closed receptacles, so the agent must search —
//! opening containers and remembering what it found — before it can act.
//!
//! This is the most memory-intensive environment in the suite: every opened
//! container is knowledge that evaporates without the memory module.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::{phrase, word};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RECEPTACLES: [&str; 6] = [
    "fridge",
    "microwave",
    "cabinet",
    "drawer",
    "countertop",
    "sinkbasin",
];

#[derive(Debug, Clone)]
struct Receptacle {
    name: Name,
    /// Where the agent is when it stands here: `at the {name}`.
    location: Name,
    openable: bool,
    opened: bool,
}

#[derive(Debug, Clone)]
struct HiddenObject {
    name: Name,
    /// Index into `receptacles` where the object currently sits; `None`
    /// while carried.
    location: Option<usize>,
    /// Index of the goal receptacle.
    goal: usize,
    done: bool,
}

/// The ALFWorld-style environment (single agent).
#[derive(Debug, Clone)]
pub struct AlfWorldEnv {
    receptacles: Vec<Receptacle>,
    objects: Vec<HiddenObject>,
    agent_at: usize,
    carrying: Option<usize>,
    difficulty: TaskDifficulty,
    max_steps: usize,
}

impl AlfWorldEnv {
    /// Builds an instance: 1/2/3 target objects hidden among the openable
    /// receptacles, each with a distinct goal receptacle.
    pub fn new(difficulty: TaskDifficulty, _num_agents: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa1f3);
        let receptacles: Vec<Receptacle> = RECEPTACLES
            .iter()
            .map(|&name| Receptacle {
                name: name.into(),
                location: format!("at the {name}").into(),
                // countertop and sinkbasin are open surfaces
                openable: !matches!(name, "countertop" | "sinkbasin"),
                opened: false,
            })
            .collect();
        let kinds = ["mug", "apple", "soapbar", "book", "knife"];
        let n_objects = difficulty.scale();
        let openable_idx: Vec<usize> = receptacles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.openable)
            .map(|(i, _)| i)
            .collect();
        let objects = (0..n_objects)
            .map(|i| {
                let hide = openable_idx[rng.gen_range(0..openable_idx.len())];
                let goal = loop {
                    let g = rng.gen_range(0..receptacles.len());
                    if g != hide {
                        break g;
                    }
                };
                HiddenObject {
                    name: format!("{}_{i}", kinds[i % kinds.len()]).into(),
                    location: Some(hide),
                    goal,
                    done: false,
                }
            })
            .collect();
        AlfWorldEnv {
            receptacles,
            objects,
            agent_at: 0,
            carrying: None,
            difficulty,
            max_steps: 10 + n_objects * 14,
        }
    }

    /// Objects already at their goal receptacle.
    pub fn done_count(&self) -> usize {
        self.objects.iter().filter(|o| o.done).count()
    }

    fn receptacle_index(&self, name: &str) -> Option<usize> {
        self.receptacles.iter().position(|r| *r.name == *name)
    }

    fn object_index(&self, name: &str) -> Option<usize> {
        self.objects.iter().position(|o| *o.name == *name)
    }

    fn contents_visible(&self, idx: usize) -> bool {
        let r = &self.receptacles[idx];
        !r.openable || r.opened
    }
}

impl Environment for AlfWorldEnv {
    fn name(&self) -> &str {
        "ALFWorld"
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
        let goals: Vec<String> = self
            .objects
            .iter()
            .map(|o| format!("put {} in/on {}", o.name, self.receptacles[o.goal].name))
            .collect();
        format!("Household task: {}.", goals.join(", "))
    }

    fn landmarks(&self) -> Vec<String> {
        // The task statement names the objects and every receptacle; where
        // the objects are *hidden* must be discovered.
        let mut names: Vec<String> = RECEPTACLES.iter().map(|r| (*r).to_owned()).collect();
        names.extend(self.objects.iter().map(|o| o.name.to_string()));
        names
    }

    fn observe(&self, _agent: usize) -> Observation {
        let here = self.agent_at;
        let r = &self.receptacles[here];
        let state = if !r.openable {
            word!(" (a surface)")
        } else if r.opened {
            word!(" (open)")
        } else {
            word!(" (closed)")
        };
        let mut visible = vec![SeenEntity::new(
            r.name.clone(),
            phrase![word!("the "), r.name.clone(), state],
        )];
        if self.contents_visible(here) {
            for o in &self.objects {
                if o.location == Some(here) && !o.done {
                    visible.push(SeenEntity::new(
                        o.name.clone(),
                        phrase![o.name.clone(), word!(" inside the "), r.name.clone()],
                    ));
                }
            }
        }
        Observation {
            agent_pos: None,
            location: r.location.clone(),
            visible,
            status: match self.carrying {
                Some(idx) => phrase![word!("carrying "), self.objects[idx].name.clone()],
                None => word!("hands free").into(),
            },
        }
    }

    fn oracle_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        // Carrying: deliver to the goal receptacle.
        if let Some(idx) = self.carrying {
            let goal = self.objects[idx].goal;
            if self.agent_at == goal {
                let r = &self.receptacles[goal];
                if r.openable && !r.opened {
                    return vec![Subgoal::Open {
                        container: r.name.clone(),
                    }];
                }
                return vec![Subgoal::Place {
                    object: self.objects[idx].name.clone(),
                    dest: self.receptacles[goal].name.clone(),
                }];
            }
            return vec![Subgoal::GoTo {
                target: self.receptacles[goal].name.clone(),
                cell: embodied_exec::Cell::new(goal as i32, 0),
            }];
        }
        // A known (visible-contents) object pending pickup?
        for o in &self.objects {
            if o.done {
                continue;
            }
            if let Some(loc) = o.location {
                if self.contents_visible(loc) {
                    if self.agent_at == loc {
                        return vec![Subgoal::Pick {
                            object: o.name.clone(),
                        }];
                    }
                    return vec![Subgoal::GoTo {
                        target: self.receptacles[loc].name.clone(),
                        cell: embodied_exec::Cell::new(loc as i32, 0),
                    }];
                }
            }
        }
        // Otherwise: search — open the nearest closed receptacle (here
        // first), else walk to one.
        if let Some(here) = Some(self.agent_at)
            .filter(|&i| self.receptacles[i].openable && !self.receptacles[i].opened)
        {
            return vec![Subgoal::Open {
                container: self.receptacles[here].name.clone(),
            }];
        }
        if let Some((idx, r)) = self
            .receptacles
            .iter()
            .enumerate()
            .find(|(_, r)| r.openable && !r.opened)
        {
            return vec![Subgoal::GoTo {
                target: r.name.clone(),
                cell: embodied_exec::Cell::new(idx as i32, 0),
            }];
        }
        Vec::new()
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        let mut all = Vec::new();
        for (i, r) in self.receptacles.iter().enumerate() {
            all.push(Subgoal::GoTo {
                target: r.name.clone(),
                cell: embodied_exec::Cell::new(i as i32, 0),
            });
            if r.openable {
                all.push(Subgoal::Open {
                    container: r.name.clone(),
                });
            }
        }
        for o in &self.objects {
            if o.done {
                continue;
            }
            all.push(Subgoal::Pick {
                object: o.name.clone(),
            });
            all.push(Subgoal::Place {
                object: o.name.clone(),
                dest: self.receptacles[o.goal].name.clone(),
            });
        }
        all.push(Subgoal::Explore);
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, _agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::GoTo { target, .. } => {
                let Some(idx) = self.receptacle_index(target) else {
                    return ExecOutcome::failure(format!("{target} is not a place here"));
                };
                let hops = self.agent_at.abs_diff(idx).max(1);
                self.agent_at = idx;
                ExecOutcome {
                    completed: true,
                    made_progress: true,
                    compute: SimDuration::from_millis(15),
                    actuation: SimDuration::from_millis(1_500) * hops as u64,
                    kind: FailureKind::Plain,
                    note: format!("went to the {target}"),
                }
            }
            Subgoal::Open { container } => {
                let Some(idx) = self.receptacle_index(container) else {
                    return ExecOutcome::gone(format!("{container} does not exist"));
                };
                if self.agent_at != idx {
                    return ExecOutcome::failure(format!("not at the {container}"));
                }
                let r = &mut self.receptacles[idx];
                if !r.openable {
                    return ExecOutcome::failure(format!("the {container} cannot be opened"));
                }
                if r.opened {
                    return ExecOutcome::gone(format!("the {container} was already open"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(1_200));
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                if success {
                    self.receptacles[idx].opened = true;
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute: SimDuration::from_millis(20),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("opened the {container}")
                    } else {
                        format!("fumbled the {container} door")
                    },
                }
            }
            Subgoal::Pick { object } => {
                let Some(idx) = self.object_index(object) else {
                    return ExecOutcome::gone(format!("{object} does not exist"));
                };
                if self.carrying.is_some() {
                    return ExecOutcome::failure("already carrying something");
                }
                let Some(loc) = self.objects[idx].location else {
                    return ExecOutcome::gone(format!("{object} is not available"));
                };
                if self.agent_at != loc {
                    return ExecOutcome::failure(format!("{object} is out of reach"));
                }
                if !self.contents_visible(loc) {
                    return ExecOutcome::failure(format!(
                        "cannot reach inside the closed {}",
                        self.receptacles[loc].name
                    ));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(1_400));
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                if success {
                    self.objects[idx].location = None;
                    self.carrying = Some(idx);
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute: SimDuration::from_millis(40),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("took {object}")
                    } else {
                        format!("failed to take {object}")
                    },
                }
            }
            Subgoal::Place { object, dest } => {
                let Some(carried) = self.carrying else {
                    return ExecOutcome::failure("not carrying anything");
                };
                if self.objects[carried].name != *object {
                    return ExecOutcome::failure(format!("not carrying {object}"));
                }
                let Some(dest_idx) = self.receptacle_index(dest) else {
                    return ExecOutcome::failure(format!("{dest} is not a receptacle"));
                };
                if self.agent_at != dest_idx {
                    return ExecOutcome::failure(format!("not at the {dest}"));
                }
                if dest_idx != self.objects[carried].goal {
                    return ExecOutcome::invalid(format!("{object} does not belong at {dest}"));
                }
                if self.receptacles[dest_idx].openable && !self.receptacles[dest_idx].opened {
                    return ExecOutcome::failure(format!("the {dest} is closed"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(900));
                if drive.success {
                    self.objects[carried].location = Some(dest_idx);
                    self.objects[carried].done = true;
                    self.carrying = None;
                }
                ExecOutcome {
                    completed: drive.success,
                    made_progress: drive.success,
                    compute: SimDuration::from_millis(20),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if drive.success {
                        format!("placed {object} in/on {dest}")
                    } else {
                        format!("dropped {object}")
                    },
                }
            }
            Subgoal::Explore => {
                let next = (self.agent_at + 1) % self.receptacles.len();
                let name = self.receptacles[next].name.clone();
                let mut out = self.execute(
                    0,
                    &Subgoal::GoTo {
                        target: name,
                        cell: embodied_exec::Cell::new(next as i32, 0),
                    },
                    low,
                );
                out.made_progress = false;
                out
            }
            Subgoal::Wait => ExecOutcome::idle(SimDuration::from_millis(200), "waited"),
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.objects.iter().all(|o| o.done)
    }

    fn progress(&self) -> f64 {
        if self.objects.is_empty() {
            1.0
        } else {
            self.done_count() as f64 / self.objects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut AlfWorldEnv, seed: u64) -> usize {
        let mut low = LowLevel::controller(seed);
        let mut steps = 0;
        while !env.is_complete() && steps < env.max_steps() * 3 {
            let sg = env
                .oracle_subgoals(0)
                .first()
                .cloned()
                .unwrap_or(Subgoal::Wait);
            env.execute(0, &sg, &mut low);
            steps += 1;
        }
        steps
    }

    #[test]
    fn oracle_completes_all_difficulties() {
        for d in TaskDifficulty::ALL {
            for seed in 0..4 {
                let mut e = AlfWorldEnv::new(d, 1, seed);
                let steps = oracle_rollout(&mut e, seed);
                assert!(e.is_complete(), "{d} seed {seed}: stuck after {steps}");
                assert!(steps <= e.max_steps(), "{d}: budget too tight ({steps})");
            }
        }
    }

    #[test]
    fn hidden_objects_are_invisible_until_opened() {
        let e = AlfWorldEnv::new(TaskDifficulty::Easy, 1, 0);
        // Walk everywhere without opening: the object never appears.
        let mut env = e.clone();
        let mut low = LowLevel::controller(1);
        for (i, name) in RECEPTACLES.iter().enumerate() {
            env.execute(
                0,
                &Subgoal::GoTo {
                    target: (*name).into(),
                    cell: embodied_exec::Cell::new(i as i32, 0),
                },
                &mut low,
            );
            let obs = env.observe(0);
            assert!(
                !obs.visible.iter().any(|v| v.name.contains('_')),
                "hidden object leaked at {}",
                RECEPTACLES[i]
            );
        }
    }

    #[test]
    fn cannot_pick_from_closed_receptacle() {
        let mut e = AlfWorldEnv::new(TaskDifficulty::Easy, 1, 0);
        let loc = e.objects[0].location.unwrap();
        let name = e.objects[0].name.clone();
        e.agent_at = loc;
        let mut low = LowLevel::controller(1);
        let out = e.execute(0, &Subgoal::Pick { object: name }, &mut low);
        assert!(!out.completed);
        assert!(out.note.contains("closed"));
        assert_eq!(out.kind, FailureKind::Plain);
    }

    #[test]
    fn open_requires_presence_and_openability() {
        let mut e = AlfWorldEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(1);
        // countertop is a surface
        let counter = e.receptacle_index("countertop").unwrap();
        e.agent_at = counter;
        let out = e.execute(
            0,
            &Subgoal::Open {
                container: "countertop".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("cannot be opened"));
        assert_eq!(out.kind, FailureKind::Plain);
        // fridge from afar
        e.agent_at = counter;
        let out = e.execute(
            0,
            &Subgoal::Open {
                container: "fridge".into(),
            },
            &mut low,
        );
        assert!(!out.completed || e.agent_at == e.receptacle_index("fridge").unwrap());
    }

    #[test]
    fn wrong_destination_rejected() {
        let mut e = AlfWorldEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(1);
        // Force-carry the object.
        e.objects[0].location = None;
        e.carrying = Some(0);
        let goal = e.objects[0].goal;
        let wrong = (goal + 1) % e.receptacles.len();
        e.agent_at = wrong;
        let wrong_name = e.receptacles[wrong].name.clone();
        let obj = e.objects[0].name.clone();
        let out = e.execute(
            0,
            &Subgoal::Place {
                object: obj,
                dest: wrong_name,
            },
            &mut low,
        );
        assert!(!out.completed);
    }

    #[test]
    fn oracle_searches_before_acting() {
        let e = AlfWorldEnv::new(TaskDifficulty::Easy, 1, 0);
        let sg = &e.oracle_subgoals(0)[0];
        assert!(
            matches!(sg, Subgoal::Open { .. } | Subgoal::GoTo { .. }),
            "first oracle move should search: {sg}"
        );
    }

    #[test]
    fn landmarks_name_receptacles_but_not_hiding_places() {
        let e = AlfWorldEnv::new(TaskDifficulty::Medium, 1, 0);
        let lm = e.landmarks();
        assert!(lm.contains(&"fridge".to_owned()));
        // Object names are in the task statement (landmarks), but their
        // locations are environment state, not knowledge.
        assert!(lm.iter().any(|l| l.contains('_')));
    }

    #[test]
    fn observations_render_as_before() {
        let fresh = || AlfWorldEnv::new(TaskDifficulty::Easy, 1, 42);
        let (location, status, seen) = rendered_at(&mut fresh(), 0);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("at the fridge", "hands free")
        );
        assert_eq!(seen, ["the fridge (closed)"]);
        let (location, _, seen) = rendered_at(&mut fresh(), 3);
        assert_eq!(location, "at the microwave");
        assert_eq!(seen, ["the microwave (open)", "mug_0 inside the microwave"]);
        let (_, status, _) = rendered_at(&mut fresh(), 4);
        assert_eq!(status, "carrying mug_0");
    }
}
