//! C-WAH / VirtualHome-style household tasks (OLA, CoELA's second testbed):
//! typed objects must reach typed destinations — plates to the dining
//! table, groceries into the fridge.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::world::GridWorld;
use crate::{phrase, word};
use embodied_exec::{latency, Cell, NavGrid};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRIDGE: &str = "fridge";
const TABLE: &str = "dining_table";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    Plate,
    Food,
}

impl ItemKind {
    fn destination(self) -> &'static str {
        match self {
            ItemKind::Plate => TABLE,
            ItemKind::Food => FRIDGE,
        }
    }
}

#[derive(Debug, Clone)]
struct Item {
    name: Name,
    kind: ItemKind,
    pos: Option<Cell>,
    done: bool,
}

#[derive(Debug, Clone)]
struct Body {
    pos: Cell,
    carrying: Option<usize>,
}

/// The household environment.
#[derive(Debug, Clone)]
pub struct HouseholdEnv {
    world: GridWorld,
    items: Vec<Item>,
    agents: Vec<Body>,
    fridge_cell: Cell,
    table_cell: Cell,
    fridge: Name,
    table: Name,
    difficulty: TaskDifficulty,
    max_steps: usize,
}

impl HouseholdEnv {
    /// Builds an instance: 3/6/9 items (half plates, half food) scattered
    /// over the non-destination rooms.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(difficulty: TaskDifficulty, num_agents: usize, seed: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        let world = GridWorld::rooms_in_row(28, 10, 4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
        let fridge_cell = world.rooms()[0].center();
        let table_cell = world.rooms()[1].center();
        let n_items = 3 * difficulty.scale();
        let mut items = Vec::new();
        for i in 0..n_items {
            let kind = if i % 2 == 0 {
                ItemKind::Plate
            } else {
                ItemKind::Food
            };
            let room = &world.rooms()[2 + i % 2];
            let pos = loop {
                let c = Cell::new(
                    rng.gen_range(room.min.x..=room.max.x),
                    rng.gen_range(room.min.y..=room.max.y),
                );
                if world.passable(c) {
                    break c;
                }
            };
            let name = match kind {
                ItemKind::Plate => format!("plate_{i}"),
                ItemKind::Food => format!("food_{i}"),
            }
            .into();
            items.push(Item {
                name,
                kind,
                pos: Some(pos),
                done: false,
            });
        }
        let agents = (0..num_agents)
            .map(|i| Body {
                pos: Cell::new(
                    fridge_cell.x,
                    (fridge_cell.y + i as i32).rem_euclid(world.grid_height()),
                ),
                carrying: None,
            })
            .collect();
        let max_steps = 8 + n_items * 10 / num_agents.min(n_items.max(1));
        HouseholdEnv {
            world,
            items,
            agents,
            fridge_cell,
            table_cell,
            fridge: FRIDGE.into(),
            table: TABLE.into(),
            difficulty,
            max_steps,
        }
    }

    /// Items placed at their destination.
    pub fn done_count(&self) -> usize {
        self.items.iter().filter(|i| i.done).count()
    }

    fn item_index(&self, name: &str) -> Option<usize> {
        self.items.iter().position(|i| *i.name == *name)
    }

    fn dest_cell(&self, dest: &str) -> Option<Cell> {
        match dest {
            FRIDGE => Some(self.fridge_cell),
            TABLE => Some(self.table_cell),
            _ => None,
        }
    }

    /// The shared name of a destination, `FRIDGE` or `TABLE`.
    fn dest_name(&self, kind: ItemKind) -> &Name {
        match kind {
            ItemKind::Plate => &self.table,
            ItemKind::Food => &self.fridge,
        }
    }
}

impl Environment for HouseholdEnv {
    fn name(&self) -> &str {
        "C-WAH"
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
        let plates = self
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Plate)
            .count();
        let food = self.items.len() - plates;
        format!("Set the table with {plates} plates and put {food} groceries in the fridge.")
    }

    fn landmarks(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .world
            .rooms()
            .iter()
            .map(|r| self.world.room_name(r.id).to_string())
            .collect();
        names.push(FRIDGE.into());
        names.push(TABLE.into());
        names
    }

    fn observe(&self, agent: usize) -> Observation {
        let body = &self.agents[agent];
        let mut visible = Vec::new();
        for item in &self.items {
            if let Some(pos) = item.pos {
                if self.world.same_room(body.pos, pos) {
                    visible.push(SeenEntity::new(
                        item.name.clone(),
                        phrase![
                            item.name.clone(),
                            word!(" in "),
                            self.world.location_name(pos).clone()
                        ],
                    ));
                }
            }
        }
        if self.world.same_room(body.pos, self.fridge_cell) {
            visible.push(SeenEntity::new(self.fridge.clone(), word!("the fridge")));
        }
        if self.world.same_room(body.pos, self.table_cell) {
            visible.push(SeenEntity::new(
                self.table.clone(),
                word!("the dining table"),
            ));
        }
        let status = match body.carrying {
            Some(idx) => phrase![word!("carrying "), self.items[idx].name.clone()],
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
            let kind = self.items[idx].kind;
            let cell = self
                .dest_cell(kind.destination())
                .expect("known destination");
            let dest = self.dest_name(kind).clone();
            if self.world.same_room(body.pos, cell) && body.pos.manhattan(cell) <= 1 {
                return vec![Subgoal::Place {
                    object: self.items[idx].name.clone(),
                    dest,
                }];
            }
            return vec![Subgoal::GoTo { target: dest, cell }];
        }
        let mut options = Vec::new();
        for item in &self.items {
            let Some(pos) = item.pos else { continue };
            if item.done {
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
                    object: item.name.clone(),
                });
            } else {
                options.push(Subgoal::GoTo {
                    target: item.name.clone(),
                    cell: pos,
                });
            }
        }
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
        for (dest, cell) in [
            (&self.fridge, self.fridge_cell),
            (&self.table, self.table_cell),
        ] {
            all.push(Subgoal::GoTo {
                target: dest.clone(),
                cell,
            });
        }
        for item in &self.items {
            if let Some(pos) = item.pos {
                all.push(Subgoal::GoTo {
                    target: item.name.clone(),
                    cell: pos,
                });
                all.push(Subgoal::Pick {
                    object: item.name.clone(),
                });
            }
        }
        if let Some(idx) = body.carrying {
            // Both destinations are syntactically valid; only the
            // type-correct one will succeed — a classic wrong-plan trap.
            for dest in [&self.fridge, &self.table] {
                all.push(Subgoal::Place {
                    object: self.items[idx].name.clone(),
                    dest: dest.clone(),
                });
            }
        }
        all.push(Subgoal::Explore);
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::GoTo { cell, .. } => {
                let from = self.agents[agent].pos;
                let goal = self.world.nav_goal(*cell, from);
                match self.world.route(from, goal) {
                    Ok(plan) => {
                        let full = plan.length();
                        let reach = if low.rng.gen_bool(low.competence.clamp(0.0, 1.0)) {
                            full
                        } else {
                            ((full as f64) * low.competence * 0.6).floor() as usize
                        }
                        .min(full);
                        self.agents[agent].pos = plan.path[reach];
                        ExecOutcome {
                            completed: reach == full,
                            made_progress: reach > 0,
                            compute: latency::astar_compute(plan.nodes_expanded),
                            actuation: latency::grid_motion(reach),
                            kind: FailureKind::Plain,
                            note: format!("moved {reach} cells"),
                        }
                    }
                    Err(_) => ExecOutcome::failure("no path"),
                }
            }
            Subgoal::Pick { object } => {
                let Some(idx) = self.item_index(object) else {
                    return ExecOutcome::gone(format!("{object} does not exist"));
                };
                if self.agents[agent].carrying.is_some() {
                    return ExecOutcome::failure("already carrying something");
                }
                let Some(pos) = self.items[idx].pos else {
                    return ExecOutcome::gone(format!("{object} is not available"));
                };
                if self.agents[agent].pos.manhattan(pos) > 1 {
                    return ExecOutcome::failure(format!("{object} is out of reach"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(2_000));
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                if success {
                    self.items[idx].pos = None;
                    self.agents[agent].carrying = Some(idx);
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute: SimDuration::from_millis(120),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("picked up {object}")
                    } else {
                        format!("failed to pick {object}")
                    },
                }
            }
            Subgoal::Place { object, dest } => {
                let Some(carried) = self.agents[agent].carrying else {
                    return ExecOutcome::failure("not carrying anything");
                };
                if self.items[carried].name != *object {
                    return ExecOutcome::failure(format!("not carrying {object}"));
                }
                let Some(cell) = self.dest_cell(dest) else {
                    return ExecOutcome::invalid(format!("{dest} is not a destination"));
                };
                if **dest != *self.items[carried].kind.destination() {
                    return ExecOutcome::invalid(format!("{object} does not belong at {dest}"));
                }
                if !self.world.same_room(self.agents[agent].pos, cell) {
                    return ExecOutcome::failure(format!("not at the {dest}"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(900));
                if drive.success {
                    self.items[carried].done = true;
                    self.agents[agent].carrying = None;
                }
                ExecOutcome {
                    completed: drive.success,
                    made_progress: drive.success,
                    compute: SimDuration::from_millis(20),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if drive.success {
                        format!("placed {object} at {dest}")
                    } else {
                        format!("failed to place {object}")
                    },
                }
            }
            Subgoal::Explore => {
                let current = self
                    .world
                    .room_of(self.agents[agent].pos)
                    .map(|r| r.id)
                    .unwrap_or(0);
                let next = (current + 1) % self.world.rooms().len();
                let cell = self.world.rooms()[next].center();
                let mut out = self.execute(
                    agent,
                    &Subgoal::GoTo {
                        target: self.world.room_name(next).clone(),
                        cell,
                    },
                    low,
                );
                out.made_progress = false;
                out.note = format!("explored toward room_{next}");
                out
            }
            Subgoal::Wait => ExecOutcome::idle(SimDuration::from_millis(200), "waited"),
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.items.iter().all(|i| i.done)
    }

    fn progress(&self) -> f64 {
        if self.items.is_empty() {
            1.0
        } else {
            self.done_count() as f64 / self.items.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut HouseholdEnv, seed: u64) -> usize {
        let mut low = LowLevel::controller(seed);
        let mut steps = 0;
        while !env.is_complete() && steps < env.max_steps() * 3 {
            for agent in 0..env.num_agents() {
                let sg = env
                    .oracle_subgoals(agent)
                    .first()
                    .cloned()
                    .unwrap_or(Subgoal::Explore);
                env.execute(agent, &sg, &mut low);
            }
            steps += 1;
        }
        steps
    }

    #[test]
    fn oracle_completes_medium_with_two_agents() {
        let mut e = HouseholdEnv::new(TaskDifficulty::Medium, 2, 0);
        let steps = oracle_rollout(&mut e, 1);
        assert!(
            e.is_complete(),
            "done {}/{} after {steps}",
            e.done_count(),
            e.items.len()
        );
    }

    #[test]
    fn typed_destination_enforced() {
        let mut e = HouseholdEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(1);
        // Teleport agent next to a plate and pick it.
        let plate_idx = e
            .items
            .iter()
            .position(|i| i.kind == ItemKind::Plate)
            .unwrap();
        let plate_pos = e.items[plate_idx].pos.unwrap();
        let name = e.items[plate_idx].name.clone();
        e.agents[0].pos = plate_pos;
        while !e
            .execute(
                0,
                &Subgoal::Pick {
                    object: name.clone(),
                },
                &mut low,
            )
            .completed
        {}
        // Walk to the fridge room and try to put the plate in the fridge.
        e.agents[0].pos = e.fridge_cell;
        let out = e.execute(
            0,
            &Subgoal::Place {
                object: name,
                dest: FRIDGE.into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("does not belong"));
        assert_eq!(out.kind, FailureKind::Invalid);
    }

    #[test]
    fn goal_text_counts_types() {
        let e = HouseholdEnv::new(TaskDifficulty::Medium, 1, 0);
        let text = e.goal_text();
        assert!(text.contains("3 plates"));
        assert!(text.contains("3 groceries"));
    }

    #[test]
    fn landmarks_include_furniture() {
        let e = HouseholdEnv::new(TaskDifficulty::Easy, 1, 0);
        let lm = e.landmarks();
        assert!(lm.contains(&FRIDGE.to_owned()));
        assert!(lm.contains(&TABLE.to_owned()));
    }

    #[test]
    fn items_start_hidden_from_start_room() {
        let e = HouseholdEnv::new(TaskDifficulty::Medium, 1, 0);
        let obs = e.observe(0);
        assert!(!obs
            .visible
            .iter()
            .any(|v| v.name.starts_with("plate_") || v.name.starts_with("food_")));
    }

    #[test]
    fn candidates_include_wrong_destination_trap() {
        let mut e = HouseholdEnv::new(TaskDifficulty::Easy, 1, 0);
        let plate_idx = e
            .items
            .iter()
            .position(|i| i.kind == ItemKind::Plate)
            .unwrap();
        e.items[plate_idx].pos = None;
        e.agents[0].carrying = Some(plate_idx);
        let candidates = e.candidate_subgoals(0);
        let place_targets: Vec<Name> = candidates
            .iter()
            .filter_map(|sg| match sg {
                Subgoal::Place { dest, .. } => Some(dest.clone()),
                _ => None,
            })
            .collect();
        assert!(place_targets.contains(&FRIDGE.into()));
        assert!(place_targets.contains(&TABLE.into()));
    }

    #[test]
    fn observations_render_as_before() {
        let fresh = || HouseholdEnv::new(TaskDifficulty::Easy, 2, 42);
        let (location, status, seen) = rendered_at(&mut fresh(), 1);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("room_2", "hands free")
        );
        assert_eq!(seen, ["plate_0 in room_2", "plate_2 in room_2"]);
        let (location, status, seen) = rendered_at(&mut fresh(), 3);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("room_1", "carrying plate_0")
        );
        assert_eq!(seen, ["the dining table"]);
    }
}
