//! CuisineWorld-style collaborative cooking game (MindAgent's and COMBO's
//! task family): orders arrive over time, each needing a pipeline of
//! preparation stages at shared stations, and agents must keep throughput up.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, Part, SeenEntity};
use crate::{phrase, word};
use embodied_profiler::SimDuration;
use rand::Rng;

/// A dish's remaining pipeline, front = next stage.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Order {
    dish: Name,
    stages: Vec<Name>, // e.g. ["fetch", "chop", "cook"]
    served: bool,
    arrived_at: usize, // execute-round index when the order appears
}

impl Order {
    fn next_stage(&self) -> Option<&Name> {
        self.stages.first()
    }
}

/// The cooking environment.
#[derive(Debug, Clone)]
pub struct CuisineEnv {
    orders: Vec<Order>,
    num_agents: usize,
    difficulty: TaskDifficulty,
    max_steps: usize,
    rounds: usize,
    /// Round in which each station was last used: one use per round — the
    /// physical contention that caps a kitchen's parallel throughput.
    station_used_round: std::collections::HashMap<&'static str, usize>,
    calls: usize,
    /// [`STAGES`] as shared names, in the same order.
    stage_names: [Name; 4],
    /// [`STATIONS`] as shared names, in the same order.
    station_names: [Name; 4],
    /// Where every agent is: `kitchen`.
    location: Name,
}

const STATIONS: [&str; 4] = ["pantry", "chop_station", "stove", "serving_counter"];

/// Every preparation stage a `Cook` subgoal can name.
const STAGES: [&str; 4] = ["fetch", "chop", "cook", "plate"];

fn station_for(stage: &str) -> &'static str {
    match stage {
        "fetch" => "pantry",
        "chop" => "chop_station",
        "cook" => "stove",
        _ => "serving_counter",
    }
}

impl CuisineEnv {
    /// Builds an instance: the order book scales with difficulty (3/6/9
    /// dishes; deeper pipelines at higher difficulty).
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(difficulty: TaskDifficulty, num_agents: usize, seed: u64) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        let _ = seed;
        let n_orders = 3 * difficulty.scale();
        let dish_names = ["salad", "soup", "stew", "curry", "noodles", "pie", "roast"];
        let stage_names = STAGES.map(Name::from);
        // The first `len` stages; Easy dishes skip `chop`.
        let pipeline = |len: usize| stage_names[..len].to_vec();
        let orders: Vec<Order> = (0..n_orders)
            .map(|i| {
                let stages = match difficulty {
                    TaskDifficulty::Easy => vec![stage_names[0].clone(), stage_names[2].clone()],
                    TaskDifficulty::Medium => pipeline(3),
                    TaskDifficulty::Hard => pipeline(if i % 2 == 0 { 3 } else { 4 }),
                };
                Order {
                    dish: format!("{}_{i}", dish_names[i % dish_names.len()]).into(),
                    stages,
                    served: false,
                    arrived_at: i * 2, // staggered arrivals
                }
            })
            .collect();
        let total_stage_work: usize = orders.iter().map(|o| o.stages.len() + 1).sum();
        let max_steps = 8 + total_stage_work * 5 / (2 * num_agents.min(4));
        CuisineEnv {
            orders,
            num_agents,
            difficulty,
            max_steps,
            rounds: 0,
            station_used_round: Default::default(),
            calls: 0,
            stage_names,
            station_names: STATIONS.map(Name::from),
            location: Name::from("kitchen"),
        }
    }

    /// Number of served dishes.
    pub fn served_count(&self) -> usize {
        self.orders.iter().filter(|o| o.served).count()
    }

    fn active_orders(&self) -> impl Iterator<Item = &Order> {
        self.orders
            .iter()
            .filter(|o| !o.served && o.arrived_at <= self.rounds)
    }

    fn order_mut(&mut self, dish: &str) -> Option<&mut Order> {
        self.orders.iter_mut().find(|o| *o.dish == *dish)
    }

    fn tick(&mut self) {
        self.calls += 1;
        self.rounds = (self.calls - 1) / self.num_agents;
    }
}

impl Environment for CuisineEnv {
    fn name(&self) -> &str {
        "CuisineWorld"
    }

    fn num_agents(&self) -> usize {
        self.num_agents
    }

    fn max_steps(&self) -> usize {
        self.max_steps
    }

    fn difficulty(&self) -> TaskDifficulty {
        self.difficulty
    }

    fn goal_text(&self) -> String {
        format!(
            "Cook and serve all {} ordered dishes before the kitchen closes.",
            self.orders.len()
        )
    }

    fn landmarks(&self) -> Vec<String> {
        STATIONS.iter().map(|s| (*s).to_owned()).collect()
    }

    fn observe(&self, _agent: usize) -> Observation {
        let mut visible: Vec<SeenEntity> = self
            .active_orders()
            .map(|o| {
                let stage = o
                    .next_stage()
                    .map_or(Part::Word(word!("serve")), |s| Part::Name(s.clone()));
                SeenEntity::new(
                    o.dish.clone(),
                    phrase![word!("order "), o.dish.clone(), word!(" awaiting "), stage],
                )
            })
            .collect();
        for s in &self.station_names {
            visible.push(SeenEntity::new(
                s.clone(),
                phrase![word!("the "), s.clone()],
            ));
        }
        Observation {
            agent_pos: None,
            location: self.location.clone(),
            visible,
            status: phrase![
                self.served_count(),
                word!("/"),
                self.orders.len(),
                word!(" dishes served")
            ],
        }
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        // Spread agents over the oldest active orders round-robin.
        let active: Vec<&Order> = self.active_orders().collect();
        if active.is_empty() {
            return Vec::new();
        }
        let mut subgoals = Vec::new();
        let start = agent % active.len();
        for i in 0..active.len() {
            let order = active[(start + i) % active.len()];
            let sg = match order.next_stage() {
                Some(stage) => Subgoal::Cook {
                    dish: order.dish.clone(),
                    stage: stage.clone(),
                },
                None => Subgoal::Serve {
                    dish: order.dish.clone(),
                },
            };
            subgoals.push(sg);
        }
        subgoals
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        let mut all = Vec::new();
        for order in &self.orders {
            if order.served {
                continue;
            }
            for stage in &self.stage_names {
                all.push(Subgoal::Cook {
                    dish: order.dish.clone(),
                    stage: stage.clone(),
                });
            }
            all.push(Subgoal::Serve {
                dish: order.dish.clone(),
            });
        }
        all.push(Subgoal::Explore);
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, _agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        self.tick();
        match subgoal {
            Subgoal::Cook { dish, stage } => {
                // The agent physically goes to the station first: a busy
                // station blocks any attempt, and any attempt — right or
                // wrong — occupies it for the round. Confused teammates
                // fumbling at the stove are the interference that caps
                // large-team throughput (paper §VI).
                let station = station_for(stage);
                if self.station_used_round.get(station) == Some(&self.rounds) {
                    return ExecOutcome::busy(format!("{station} is busy"));
                }
                self.station_used_round.insert(station, self.rounds);
                let rounds = self.rounds;
                let Some(order) = self.order_mut(dish) else {
                    return ExecOutcome::failure(format!("no order for {dish}"));
                };
                if order.served {
                    return ExecOutcome::gone(format!("{dish} was already served"));
                }
                if order.arrived_at > rounds {
                    return ExecOutcome::failure(format!("{dish} has not been ordered yet"));
                }
                match order.next_stage() {
                    Some(expected) if expected == stage => {
                        let drive = low.actuator.drive(SimDuration::from_millis(2_600));
                        let success =
                            drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                        if success {
                            let order = self.order_mut(dish).expect("checked above");
                            order.stages.remove(0);
                        }
                        ExecOutcome {
                            completed: success,
                            made_progress: success,
                            compute: SimDuration::from_millis(30),
                            actuation: drive.total_time,
                            kind: FailureKind::Plain,
                            note: if success {
                                format!("{stage} done for {dish}")
                            } else {
                                format!("{stage} failed for {dish}")
                            },
                        }
                    }
                    Some(expected) => {
                        ExecOutcome::failure(format!("{dish} needs {expected} before {stage}"))
                    }
                    None => ExecOutcome::failure(format!("{dish} is ready to serve, not {stage}")),
                }
            }
            Subgoal::Serve { dish } => {
                let rounds = self.rounds;
                let Some(order) = self.order_mut(dish) else {
                    return ExecOutcome::failure(format!("no order for {dish}"));
                };
                if order.served {
                    return ExecOutcome::gone(format!("{dish} was already served"));
                }
                if order.arrived_at > rounds {
                    return ExecOutcome::failure(format!("{dish} has not been ordered yet"));
                }
                if order.next_stage().is_some() {
                    return ExecOutcome::failure(format!("{dish} is not ready to serve"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(1_500));
                if drive.success {
                    self.order_mut(dish).expect("checked above").served = true;
                }
                ExecOutcome {
                    completed: drive.success,
                    made_progress: drive.success,
                    compute: SimDuration::from_millis(20),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if drive.success {
                        format!("served {dish}")
                    } else {
                        format!("dropped {dish} while serving")
                    },
                }
            }
            Subgoal::Wait | Subgoal::Explore => {
                ExecOutcome::idle(SimDuration::from_millis(300), "idled in the kitchen")
            }
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.orders.iter().all(|o| o.served)
    }

    fn progress(&self) -> f64 {
        if self.orders.is_empty() {
            1.0
        } else {
            self.served_count() as f64 / self.orders.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut CuisineEnv, seed: u64) -> usize {
        let mut low = LowLevel::controller(seed);
        let mut steps = 0;
        while !env.is_complete() && steps < env.max_steps() * 3 {
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
    fn oracle_serves_everything_single_agent() {
        let mut e = CuisineEnv::new(TaskDifficulty::Easy, 1, 0);
        let steps = oracle_rollout(&mut e, 1);
        assert!(
            e.is_complete(),
            "only served {} after {steps}",
            e.served_count()
        );
    }

    #[test]
    fn two_agents_finish_medium_kitchen() {
        let mut e = CuisineEnv::new(TaskDifficulty::Medium, 2, 0);
        oracle_rollout(&mut e, 2);
        assert!(e.is_complete());
    }

    #[test]
    fn stages_enforce_order() {
        let mut e = CuisineEnv::new(TaskDifficulty::Medium, 1, 0);
        let mut low = LowLevel::controller(0);
        let dish = e.orders[0].dish.clone();
        let out = e.execute(
            0,
            &Subgoal::Cook {
                dish: dish.clone(),
                stage: "cook".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("needs fetch"));
    }

    #[test]
    fn cannot_serve_unfinished_dish() {
        let mut e = CuisineEnv::new(TaskDifficulty::Easy, 1, 0);
        let mut low = LowLevel::controller(0);
        let dish = e.orders[0].dish.clone();
        let out = e.execute(0, &Subgoal::Serve { dish }, &mut low);
        assert!(!out.completed);
    }

    #[test]
    fn orders_arrive_staggered() {
        let e = CuisineEnv::new(TaskDifficulty::Hard, 2, 0);
        // At round 0, only the first order is active.
        assert_eq!(e.active_orders().count(), 1);
    }

    #[test]
    fn unordered_dish_rejected() {
        let mut e = CuisineEnv::new(TaskDifficulty::Hard, 1, 0);
        let mut low = LowLevel::controller(0);
        let late_dish = e.orders.last().unwrap().dish.clone();
        let out = e.execute(
            0,
            &Subgoal::Cook {
                dish: late_dish,
                stage: "fetch".into(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("not been ordered"));
        assert_eq!(out.kind, FailureKind::Plain);
    }

    #[test]
    fn a_used_station_is_busy_for_the_round() {
        let mut e = CuisineEnv::new(TaskDifficulty::Medium, 2, 0);
        let mut low = LowLevel::controller(0);
        let fetch = Subgoal::Cook {
            dish: e.orders[0].dish.clone(),
            stage: "fetch".into(),
        };
        e.execute(0, &fetch, &mut low);
        let out = e.execute(1, &fetch, &mut low);
        assert!(!out.completed);
        assert_eq!(out.note, "pantry is busy");
        assert_eq!(out.kind, FailureKind::Busy);
    }

    #[test]
    fn oracle_spreads_agents_across_orders() {
        let mut e = CuisineEnv::new(TaskDifficulty::Hard, 3, 0);
        e.rounds = 100; // make all orders active
        let first: Vec<String> = (0..3)
            .map(|a| {
                e.oracle_subgoals(a)
                    .first()
                    .map(|sg| sg.to_string())
                    .unwrap_or_default()
            })
            .collect();
        // Three agents should not all target the same dish.
        assert!(
            !(first[0] == first[1] && first[1] == first[2]),
            "all agents targeted {first:?}"
        );
    }

    #[test]
    fn progress_counts_served() {
        let mut e = CuisineEnv::new(TaskDifficulty::Easy, 1, 0);
        assert_eq!(e.progress(), 0.0);
        let n = e.orders.len();
        e.orders[0].served = true;
        assert!((e.progress() - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn observations_render_as_before() {
        let fresh = || CuisineEnv::new(TaskDifficulty::Easy, 2, 42);
        let (location, status, seen) = rendered_at(&mut fresh(), 0);
        assert_eq!(
            (location.as_str(), status.as_str()),
            ("kitchen", "0/3 dishes served")
        );
        assert_eq!(
            seen,
            [
                "order salad_0 awaiting fetch",
                "the pantry",
                "the chop_station",
                "the stove",
                "the serving_counter"
            ]
        );
        let (_, _, seen) = rendered_at(&mut fresh(), 1);
        assert_eq!(seen[0], "order salad_0 awaiting serve");
        let (_, status, seen) = rendered_at(&mut fresh(), 3);
        assert_eq!(status, "1/3 dishes served");
        assert_eq!(seen[0], "order soup_1 awaiting cook");
    }
}
