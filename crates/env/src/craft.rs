//! Minecraft-style open-world crafting (JARVIS-1 / MP5 / DEPS): gather
//! resources across biomes and climb a tool tech-tree up to the paper's
//! canonical long-horizon goal, the diamond pickaxe.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::world::GridWorld;
use crate::{phrase, word};
use embodied_exec::{latency, Cell};
use embodied_profiler::SimDuration;
use rand::Rng;
use std::collections::HashMap;

/// Units produced by one successful `Gather`.
const GATHER_YIELD: u32 = 3;

const BIOMES: [&str; 5] = ["plains", "forest", "quarry", "cave", "deep_cave"];

/// Resource → (biome index, minimum pickaxe tier needed).
const RESOURCES: [(&str, usize, u8); 4] = [
    ("log", 1, 0),
    ("cobblestone", 2, 1),
    ("iron_ore", 3, 2),
    ("diamond", 4, 3),
];

struct Recipe {
    item: &'static str,
    ingredients: &'static [(&'static str, u32)],
    station: Option<&'static str>,
    yields: u32,
}

const RECIPES: [Recipe; 9] = [
    Recipe {
        item: "planks",
        ingredients: &[("log", 1)],
        station: None,
        yields: 4,
    },
    Recipe {
        item: "stick",
        ingredients: &[("planks", 2)],
        station: None,
        yields: 4,
    },
    Recipe {
        item: "crafting_table",
        ingredients: &[("planks", 4)],
        station: None,
        yields: 1,
    },
    Recipe {
        item: "wooden_pickaxe",
        ingredients: &[("planks", 3), ("stick", 2)],
        station: Some("crafting_table"),
        yields: 1,
    },
    Recipe {
        item: "stone_pickaxe",
        ingredients: &[("cobblestone", 3), ("stick", 2)],
        station: Some("crafting_table"),
        yields: 1,
    },
    Recipe {
        item: "furnace",
        ingredients: &[("cobblestone", 8)],
        station: Some("crafting_table"),
        yields: 1,
    },
    Recipe {
        item: "iron_ingot",
        ingredients: &[("iron_ore", 1)],
        station: Some("furnace"),
        yields: 1,
    },
    Recipe {
        item: "iron_pickaxe",
        ingredients: &[("iron_ingot", 3), ("stick", 2)],
        station: Some("crafting_table"),
        yields: 1,
    },
    Recipe {
        item: "diamond_pickaxe",
        ingredients: &[("diamond", 3), ("stick", 2)],
        station: Some("crafting_table"),
        yields: 1,
    },
];

/// The milestone chain used for the progress metric.
const MILESTONES: [&str; 5] = [
    "planks",
    "wooden_pickaxe",
    "stone_pickaxe",
    "iron_pickaxe",
    "diamond_pickaxe",
];

/// The recipe making `item`, with its index in [`RECIPES`].
fn recipe_for(item: &str) -> Option<(usize, &'static Recipe)> {
    RECIPES.iter().enumerate().find(|(_, r)| r.item == item)
}

/// A resource's index in [`RESOURCES`], its biome index and the pickaxe
/// tier it needs.
fn resource_info(name: &str) -> Option<(usize, usize, u8)> {
    RESOURCES
        .iter()
        .enumerate()
        .find(|(_, (r, _, _))| *r == name)
        .map(|(i, &(_, biome, tier))| (i, biome, tier))
}

fn pickaxe_tier(item: &str) -> Option<u8> {
    match item {
        "wooden_pickaxe" => Some(1),
        "stone_pickaxe" => Some(2),
        "iron_pickaxe" => Some(3),
        "diamond_pickaxe" => Some(4),
        _ => None,
    }
}

/// The crafting vocabulary as shared names, each table in the order of
/// its constant.
#[derive(Debug, Clone)]
struct Vocabulary {
    biomes: [Name; 5],
    resources: [Name; 4],
    items: [Name; 9],
}

impl Vocabulary {
    fn new() -> Self {
        Vocabulary {
            biomes: BIOMES.map(Name::from),
            resources: RESOURCES.map(|(r, _, _)| Name::from(r)),
            items: RECIPES.each_ref().map(|r| Name::from(r.item)),
        }
    }
}

/// The crafting environment (single-agent).
#[derive(Debug, Clone)]
pub struct CraftEnv {
    world: GridWorld,
    agent_pos: Cell,
    /// Item counts, keyed by the vocabulary's own text.
    inventory: HashMap<&'static str, u32>,
    /// The inventory as the observation shows it, rebuilt by
    /// [`CraftEnv::refresh_status`] whenever a gather or craft changes it.
    status: Name,
    names: Vocabulary,
    target: &'static str,
    difficulty: TaskDifficulty,
    max_steps: usize,
}

impl CraftEnv {
    /// Builds an instance. The target scales with difficulty:
    /// wooden → iron → diamond pickaxe.
    pub fn new(difficulty: TaskDifficulty, _num_agents: usize, seed: u64) -> Self {
        let _ = seed; // world layout is fixed; stochasticity lives in execution
        let world = GridWorld::rooms_in_row(35, 7, 5);
        let agent_pos = world.rooms()[0].center();
        let (target, max_steps) = match difficulty {
            TaskDifficulty::Easy => ("wooden_pickaxe", 30),
            TaskDifficulty::Medium => ("iron_pickaxe", 70),
            TaskDifficulty::Hard => ("diamond_pickaxe", 95),
        };
        CraftEnv {
            world,
            agent_pos,
            inventory: HashMap::new(),
            status: Name::from("inventory empty"),
            names: Vocabulary::new(),
            target,
            difficulty,
            max_steps,
        }
    }

    /// Current count of an inventory item.
    pub fn has(&self, item: &str) -> u32 {
        self.inventory.get(item).copied().unwrap_or(0)
    }

    /// Rebuilds the status after the inventory changed: its non-empty
    /// entries as `{count} {item}`, sorted by that text, so `10 planks`
    /// comes before `2 log`.
    fn refresh_status(&mut self) {
        let mut entries: Vec<String> = self
            .inventory
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(k, v)| format!("{v} {k}"))
            .collect();
        self.status = if entries.is_empty() {
            Name::from("inventory empty")
        } else {
            entries.sort();
            format!("inventory: {}", entries.join(", ")).into()
        };
    }

    /// The episode's target item.
    pub fn target(&self) -> &str {
        self.target
    }

    fn best_pickaxe_tier(&self) -> u8 {
        RECIPES
            .iter()
            .filter_map(|r| pickaxe_tier(r.item))
            .filter(|&tier| {
                let name = match tier {
                    1 => "wooden_pickaxe",
                    2 => "stone_pickaxe",
                    3 => "iron_pickaxe",
                    _ => "diamond_pickaxe",
                };
                self.has(name) > 0
            })
            .max()
            .unwrap_or(0)
    }

    fn current_biome(&self) -> usize {
        self.world
            .room_of(self.agent_pos)
            .map(|r| r.id)
            .unwrap_or(0)
    }

    /// Recursive next-step planner: what single subgoal advances acquiring
    /// `count` of `item`? `depth` guards against recipe cycles.
    fn plan_for(&self, item: &str, count: u32, depth: usize) -> Option<Subgoal> {
        if depth > 12 || self.has(item) >= count {
            return None;
        }
        if let Some((resource, biome, tier)) = resource_info(item) {
            if self.best_pickaxe_tier() < tier {
                let tool = match tier {
                    1 => "wooden_pickaxe",
                    2 => "stone_pickaxe",
                    _ => "iron_pickaxe",
                };
                return self.plan_for(tool, 1, depth + 1);
            }
            if self.current_biome() == biome {
                return Some(Subgoal::Gather {
                    resource: self.names.resources[resource].clone(),
                });
            }
            return Some(Subgoal::GoTo {
                target: self.names.biomes[biome].clone(),
                cell: self.world.rooms()[biome].center(),
            });
        }
        let (index, recipe) = recipe_for(item)?;
        if let Some(station) = recipe.station {
            if self.has(station) == 0 {
                return self
                    .plan_for(station, 1, depth + 1)
                    .or_else(|| recipe_for(station).map(|(s, _)| self.craft_now(s)));
            }
        }
        for &(ing, need) in recipe.ingredients {
            if let Some(sg) = self.plan_for(ing, need, depth + 1) {
                return Some(sg);
            }
        }
        Some(self.craft_now(index))
    }

    /// Crafting the item of `RECIPES[recipe]`.
    fn craft_now(&self, recipe: usize) -> Subgoal {
        Subgoal::Craft {
            item: self.names.items[recipe].clone(),
        }
    }

    fn can_craft(&self, recipe: &Recipe) -> Result<(), String> {
        if let Some(station) = recipe.station {
            if self.has(station) == 0 {
                return Err(format!("missing station {station}"));
            }
        }
        for &(ing, need) in recipe.ingredients {
            if self.has(ing) < need {
                return Err(format!("missing {need} {ing}"));
            }
        }
        Ok(())
    }
}

impl Environment for CraftEnv {
    fn name(&self) -> &str {
        "Minecraft-Craft"
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
        format!("Obtain a {} starting from an empty inventory.", self.target)
    }

    fn landmarks(&self) -> Vec<String> {
        // The recipe book is known a priori; biome locations must be found.
        let mut names: Vec<String> = RECIPES.iter().map(|r| r.item.to_owned()).collect();
        names.extend(RESOURCES.iter().map(|(r, _, _)| (*r).to_owned()));
        names.push("plains".to_owned());
        names
    }

    fn observe(&self, _agent: usize) -> Observation {
        let biome = self.current_biome();
        let mut visible = Vec::new();
        // Resources present in this biome.
        for (&(_, b, _), name) in RESOURCES.iter().zip(&self.names.resources) {
            if b == biome {
                visible.push(SeenEntity::new(
                    name.clone(),
                    phrase![
                        name.clone(),
                        word!(" deposits in the "),
                        self.names.biomes[biome].clone()
                    ],
                ));
            }
        }
        // Neighbouring biomes are visible through their passages.
        for adj in [biome.wrapping_sub(1), biome + 1] {
            if adj < BIOMES.len() && adj != biome {
                let passage = &self.names.biomes[adj];
                visible.push(SeenEntity::new(
                    passage.clone(),
                    phrase![word!("a passage to the "), passage.clone()],
                ));
            }
        }
        Observation {
            agent_pos: Some(self.agent_pos),
            location: self.names.biomes[biome].clone(),
            visible,
            status: self.status.clone().into(),
        }
    }

    fn oracle_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        match self.plan_for(self.target, 1, 0) {
            Some(sg) => vec![sg],
            None => Vec::new(),
        }
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        let mut all = Vec::new();
        for (i, biome) in self.names.biomes.iter().enumerate() {
            all.push(Subgoal::GoTo {
                target: biome.clone(),
                cell: self.world.rooms()[i].center(),
            });
        }
        for resource in &self.names.resources {
            all.push(Subgoal::Gather {
                resource: resource.clone(),
            });
        }
        for item in &self.names.items {
            all.push(Subgoal::Craft { item: item.clone() });
        }
        all.push(Subgoal::Explore);
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, _agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        match subgoal {
            Subgoal::GoTo { cell, target } => match self.world.route(self.agent_pos, *cell) {
                Ok(plan) => {
                    self.agent_pos = *cell;
                    ExecOutcome {
                        completed: true,
                        made_progress: true,
                        compute: latency::astar_compute(plan.nodes_expanded),
                        actuation: latency::grid_motion(plan.length()),
                        kind: FailureKind::Plain,
                        note: format!("traveled to {target}"),
                    }
                }
                Err(_) => ExecOutcome::failure(format!("cannot reach {target}")),
            },
            Subgoal::Gather { resource } => {
                let Some((index, biome, tier)) = resource_info(resource) else {
                    return ExecOutcome::invalid(format!("{resource} is not gatherable"));
                };
                if self.current_biome() != biome {
                    return ExecOutcome::invalid(format!(
                        "{resource} is not found in the {}",
                        BIOMES[self.current_biome()]
                    ));
                }
                if self.best_pickaxe_tier() < tier {
                    return ExecOutcome::invalid(format!("need a better pickaxe for {resource}"));
                }
                let drive = low.actuator.drive(latency::action_list_step() * 3);
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                if success {
                    *self.inventory.entry(RESOURCES[index].0).or_insert(0) += GATHER_YIELD;
                    self.refresh_status();
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute: SimDuration::from_millis(40),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("gathered {GATHER_YIELD} {resource}")
                    } else {
                        format!("failed to gather {resource}")
                    },
                }
            }
            Subgoal::Craft { item } => {
                let Some((_, recipe)) = recipe_for(item) else {
                    return ExecOutcome::invalid(format!("no recipe for {item}"));
                };
                if let Err(msg) = self.can_craft(recipe) {
                    return ExecOutcome::failure(format!("craft failed: {msg}"));
                }
                let drive = low.actuator.drive(latency::action_list_step());
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                if success {
                    for &(ing, need) in recipe.ingredients {
                        *self.inventory.get_mut(ing).expect("checked by can_craft") -= need;
                    }
                    *self.inventory.entry(recipe.item).or_insert(0) += recipe.yields;
                    self.refresh_status();
                }
                ExecOutcome {
                    completed: success,
                    made_progress: success,
                    compute: SimDuration::from_millis(25),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("crafted {} {item}", recipe.yields)
                    } else {
                        format!("fumbled crafting {item}")
                    },
                }
            }
            Subgoal::Explore => {
                let next = (self.current_biome() + 1) % BIOMES.len();
                let cell = self.world.rooms()[next].center();
                let out = self.execute(
                    0,
                    &Subgoal::GoTo {
                        target: self.names.biomes[next].clone(),
                        cell,
                    },
                    low,
                );
                ExecOutcome {
                    made_progress: false,
                    note: format!("explored into the {}", BIOMES[next]),
                    ..out
                }
            }
            Subgoal::Wait => ExecOutcome::idle(SimDuration::from_millis(200), "waited"),
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.has(self.target) > 0
    }

    fn progress(&self) -> f64 {
        let target_idx = MILESTONES
            .iter()
            .position(|m| *m == self.target)
            .unwrap_or(MILESTONES.len() - 1);
        let achieved = MILESTONES[..=target_idx]
            .iter()
            .filter(|m| self.has(m) > 0)
            .count();
        achieved as f64 / (target_idx + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut CraftEnv, seed: u64) -> usize {
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
    fn oracle_reaches_wooden_pickaxe() {
        let mut e = CraftEnv::new(TaskDifficulty::Easy, 1, 0);
        let steps = oracle_rollout(&mut e, 3);
        assert!(
            e.is_complete(),
            "stuck after {steps} steps: {:?}",
            e.inventory
        );
        assert!(steps <= e.max_steps());
    }

    #[test]
    fn oracle_reaches_iron_pickaxe() {
        let mut e = CraftEnv::new(TaskDifficulty::Medium, 1, 0);
        let steps = oracle_rollout(&mut e, 4);
        assert!(
            e.is_complete(),
            "stuck after {steps} steps: {:?}",
            e.inventory
        );
    }

    #[test]
    fn oracle_reaches_diamond_pickaxe() {
        let mut e = CraftEnv::new(TaskDifficulty::Hard, 1, 0);
        let steps = oracle_rollout(&mut e, 5);
        assert!(
            e.is_complete(),
            "stuck after {steps} steps: {:?}",
            e.inventory
        );
        assert!((e.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gather_requires_biome_and_tool() {
        let mut e = CraftEnv::new(TaskDifficulty::Hard, 1, 0);
        let mut low = LowLevel::controller(0);
        // In plains: no logs here.
        let out = e.execute(
            0,
            &Subgoal::Gather {
                resource: "log".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        // Teleport to deep cave: no iron pickaxe yet.
        e.agent_pos = e.world.rooms()[4].center();
        let out = e.execute(
            0,
            &Subgoal::Gather {
                resource: "diamond".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("pickaxe"));
        assert_eq!(out.kind, FailureKind::Invalid);
    }

    #[test]
    fn craft_requires_ingredients() {
        let mut e = CraftEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(0);
        let out = e.execute(
            0,
            &Subgoal::Craft {
                item: "planks".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("missing"));
        assert_eq!(out.kind, FailureKind::Plain);
    }

    #[test]
    fn crafting_consumes_and_produces() {
        let mut e = CraftEnv::new(TaskDifficulty::Easy, 1, 0);
        e.inventory.insert("log", 2);
        let mut low = LowLevel::controller(0);
        let out = e.execute(
            0,
            &Subgoal::Craft {
                item: "planks".into(),
            },
            &mut low,
        );
        assert!(out.completed);
        assert_eq!(e.has("log"), 1);
        assert_eq!(e.has("planks"), 4);
    }

    #[test]
    fn progress_tracks_milestones() {
        let mut e = CraftEnv::new(TaskDifficulty::Hard, 1, 0);
        assert_eq!(e.progress(), 0.0);
        e.inventory.insert("planks", 4);
        e.inventory.insert("wooden_pickaxe", 1);
        assert!((e.progress() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn oracle_is_never_empty_before_completion() {
        let mut e = CraftEnv::new(TaskDifficulty::Medium, 1, 0);
        let mut low = LowLevel::controller(9);
        for _ in 0..40 {
            if e.is_complete() {
                break;
            }
            let sgs = e.oracle_subgoals(0);
            assert!(!sgs.is_empty(), "oracle empty before completion");
            e.execute(0, &sgs[0], &mut low);
        }
    }

    #[test]
    fn difficulty_sets_target_depth() {
        assert_eq!(
            CraftEnv::new(TaskDifficulty::Easy, 1, 0).target(),
            "wooden_pickaxe"
        );
        assert_eq!(
            CraftEnv::new(TaskDifficulty::Medium, 1, 0).target(),
            "iron_pickaxe"
        );
        assert_eq!(
            CraftEnv::new(TaskDifficulty::Hard, 1, 0).target(),
            "diamond_pickaxe"
        );
    }

    #[test]
    fn biome_names_discovered_through_observation() {
        let e = CraftEnv::new(TaskDifficulty::Easy, 1, 0);
        let obs = e.observe(0);
        // From plains you can see the forest passage but not the deep cave.
        assert!(obs.sees("forest"));
        assert!(!obs.sees("deep_cave"));
        // Biomes beyond the start are not landmarks.
        assert!(!e.landmarks().contains(&"forest".to_owned()));
    }

    #[test]
    fn observations_render_as_before() {
        let mut env = CraftEnv::new(TaskDifficulty::Hard, 1, 42);
        let (location, status, seen) = rendered_at(&mut env, 0);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("plains", "inventory empty")
        );
        assert_eq!(seen, ["a passage to the forest"]);
        let mut env = CraftEnv::new(TaskDifficulty::Hard, 1, 42);
        let (location, status, seen) = rendered_at(&mut env, 11);
        assert_eq!(location, "quarry");
        assert_eq!(
            status,
            "inventory: 1 crafting_table, 1 wooden_pickaxe, 2 stick, 3 planks, 6 cobblestone"
        );
        assert_eq!(
            seen,
            [
                "cobblestone deposits in the quarry",
                "a passage to the forest",
                "a passage to the cave"
            ]
        );
    }

    #[test]
    fn inventory_status_sorts_by_its_text() {
        let mut e = CraftEnv::new(TaskDifficulty::Easy, 1, 0);
        e.inventory.insert("log", 2);
        e.inventory.insert("planks", 10);
        e.inventory.insert("stick", 0);
        e.refresh_status();
        assert_eq!(
            e.observe(0).status.to_string(),
            "inventory: 10 planks, 2 log"
        );
        e.inventory.clear();
        e.refresh_status();
        assert_eq!(e.observe(0).status.to_string(), "inventory empty");
    }
}
