//! The BoxNet / Warehouse / BoxLift family (CMAS, DMAS, HMAS): fixed robot
//! arms arranged over a line of zones relay boxes to their target zones.
//! BoxLift adds heavy boxes that two arms must lift *in the same round* —
//! the coordination-sensitive case that stresses communication.

use crate::action::{ExecOutcome, FailureKind, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::{phrase, word};
use embodied_profiler::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which member of the family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoxVariant {
    /// Random starts, random targets.
    BoxNet1,
    /// Denser BoxNet with more boxes.
    BoxNet2,
    /// All boxes relay from zone 0 to the last zone.
    Warehouse,
    /// Includes heavy boxes needing synchronized two-arm lifts.
    BoxLift,
}

impl std::fmt::Display for BoxVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BoxVariant::BoxNet1 => "BoxNet1",
            BoxVariant::BoxNet2 => "BoxNet2",
            BoxVariant::Warehouse => "Warehouse",
            BoxVariant::BoxLift => "BoxLift",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone)]
struct BoxItem {
    name: Name,
    zone: usize,
    target: usize,
    heavy: bool,
    delivered: bool,
}

#[derive(Debug, Clone)]
struct PendingLift {
    agent: usize,
    box_idx: usize,
    call: usize,
}

/// The box-relay environment.
#[derive(Debug, Clone)]
pub struct BoxWorldEnv {
    variant: BoxVariant,
    boxes: Vec<BoxItem>,
    num_agents: usize,
    num_zones: usize,
    difficulty: TaskDifficulty,
    max_steps: usize,
    pending_lifts: Vec<PendingLift>,
    calls: usize,
    /// `zone_{z}` for every zone `z`.
    zones: Vec<Name>,
    /// Each arm's location, `arm covering zones {lo}..={hi}`.
    arm_locations: Vec<Name>,
}

impl BoxWorldEnv {
    /// Builds an instance. Zones scale with agents (each arm covers a
    /// 4-zone window overlapping its neighbours by 2); box count scales
    /// with difficulty and variant.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero.
    pub fn new(
        variant: BoxVariant,
        difficulty: TaskDifficulty,
        num_agents: usize,
        seed: u64,
    ) -> Self {
        assert!(num_agents > 0, "need at least one agent");
        let num_zones = 2 * num_agents + 2;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0c5);
        let base_boxes = match variant {
            BoxVariant::BoxNet1 | BoxVariant::Warehouse | BoxVariant::BoxLift => {
                2 + 2 * difficulty.scale()
            }
            BoxVariant::BoxNet2 => 3 + 3 * difficulty.scale(),
        };
        let mut boxes = Vec::new();
        for i in 0..base_boxes {
            let (zone, target, heavy) = match variant {
                BoxVariant::Warehouse => (0, num_zones - 1, false),
                BoxVariant::BoxLift => {
                    // Heavy boxes sit in two-arm overlap zones; they are
                    // lifted straight to their target. Solo setups get no
                    // heavy boxes (unliftable alone).
                    let heavy = num_agents >= 2 && i % 2 == 0;
                    if heavy {
                        let arm = rng.gen_range(0..num_agents.saturating_sub(1));
                        let overlap = 2 * arm + 2; // shared by arm and arm+1
                        (overlap, rng.gen_range(0..num_zones), true)
                    } else {
                        let z = rng.gen_range(0..num_zones);
                        let t = (z + 1 + rng.gen_range(0..num_zones - 1)) % num_zones;
                        (z, t, false)
                    }
                }
                _ => {
                    let z = rng.gen_range(0..num_zones);
                    let t = (z + 1 + rng.gen_range(0..num_zones - 1)) % num_zones;
                    (z, t, false)
                }
            };
            boxes.push(BoxItem {
                name: format!("box_{i}").into(),
                zone,
                target,
                heavy,
                delivered: zone == target,
            });
        }
        let max_steps = 8 + base_boxes * num_zones / num_agents.min(4);
        let mut env = BoxWorldEnv {
            variant,
            boxes,
            num_agents,
            num_zones,
            difficulty,
            max_steps,
            pending_lifts: Vec::new(),
            calls: 0,
            zones: (0..num_zones).map(|z| format!("zone_{z}").into()).collect(),
            arm_locations: Vec::new(),
        };
        env.arm_locations = (0..num_agents)
            .map(|agent| {
                let reach = env.reach(agent);
                format!("arm covering zones {}..={}", reach.start(), reach.end()).into()
            })
            .collect();
        env
    }

    /// The instantiated variant.
    pub fn variant(&self) -> BoxVariant {
        self.variant
    }

    /// Zones arm `agent` can reach.
    pub fn reach(&self, agent: usize) -> std::ops::RangeInclusive<usize> {
        let lo = 2 * agent;
        let hi = (2 * agent + 3).min(self.num_zones - 1);
        lo..=hi
    }

    /// Number of delivered boxes.
    pub fn delivered_count(&self) -> usize {
        self.boxes.iter().filter(|b| b.delivered).count()
    }

    fn box_index(&self, name: &str) -> Option<usize> {
        self.boxes.iter().position(|b| *b.name == *name)
    }

    fn parse_zone(name: &str) -> Option<usize> {
        name.strip_prefix("zone_")?.parse().ok()
    }

    /// The arm (other than `agent`) that shares reach over `zone`, if any.
    fn partner_for(&self, agent: usize, zone: usize) -> Option<usize> {
        (0..self.num_agents).find(|&a| a != agent && self.reach(a).contains(&zone))
    }
}

impl Environment for BoxWorldEnv {
    fn name(&self) -> &str {
        match self.variant {
            BoxVariant::BoxNet1 => "BoxNet1",
            BoxVariant::BoxNet2 => "BoxNet2",
            BoxVariant::Warehouse => "Warehouse",
            BoxVariant::BoxLift => "BoxLift",
        }
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
        let goals: Vec<String> = self
            .boxes
            .iter()
            .map(|b| format!("{} to {}", b.name, self.zones[b.target]))
            .collect();
        format!("Relay every box to its target zone: {}.", goals.join(", "))
    }

    fn landmarks(&self) -> Vec<String> {
        // The zone layout and the manifest of boxes are known a priori
        // (the task statement names them); *positions* must be observed.
        let mut names: Vec<String> = self.zones.iter().map(|z| z.to_string()).collect();
        names.extend(self.boxes.iter().map(|b| b.name.to_string()));
        names
    }

    fn observe(&self, agent: usize) -> Observation {
        let reach = self.reach(agent);
        let visible: Vec<SeenEntity> = self
            .boxes
            .iter()
            .filter(|b| !b.delivered && reach.contains(&b.zone))
            .map(|b| {
                let within = if b.heavy {
                    word!(" (heavy) in ")
                } else {
                    word!(" in ")
                };
                SeenEntity::new(
                    b.name.clone(),
                    phrase![b.name.clone(), within, self.zones[b.zone].clone()],
                )
            })
            .collect();
        Observation {
            agent_pos: None,
            location: self.arm_locations[agent].clone(),
            visible,
            status: phrase![
                self.delivered_count(),
                word!("/"),
                self.boxes.len(),
                word!(" boxes delivered")
            ],
        }
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let reach = self.reach(agent);
        let mut subgoals = Vec::new();
        for (idx, b) in self.boxes.iter().enumerate() {
            if b.delivered || !reach.contains(&b.zone) {
                continue;
            }
            if b.heavy {
                if let Some(partner) = self.partner_for(agent, b.zone) {
                    subgoals.push(Subgoal::LiftTogether {
                        box_name: b.name.clone(),
                        partner,
                    });
                }
                continue;
            }
            // Move toward the target: the reachable zone closest to it.
            let dest = reach
                .clone()
                .filter(|&z| z != b.zone)
                .min_by_key(|&z| z.abs_diff(b.target))
                .unwrap_or(b.zone);
            if dest.abs_diff(b.target) < b.zone.abs_diff(b.target) {
                subgoals.push(Subgoal::MoveBox {
                    box_name: b.name.clone(),
                    dest: self.zones[dest].clone(),
                });
            }
            let _ = idx;
        }
        subgoals
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        let mut all = Vec::new();
        for b in &self.boxes {
            if b.delivered {
                continue;
            }
            for zone in &self.zones {
                all.push(Subgoal::MoveBox {
                    box_name: b.name.clone(),
                    dest: zone.clone(),
                });
            }
            if b.heavy {
                for partner in 0..self.num_agents {
                    all.push(Subgoal::LiftTogether {
                        box_name: b.name.clone(),
                        partner,
                    });
                }
            }
        }
        all.push(Subgoal::Wait);
        all
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        self.calls += 1;
        let window = self.num_agents; // lift requests stay live for one round
        self.pending_lifts.retain(|p| self.calls - p.call <= window);
        match subgoal {
            Subgoal::MoveBox { box_name, dest } => {
                let Some(idx) = self.box_index(box_name) else {
                    return ExecOutcome::gone(format!("{box_name} does not exist"));
                };
                let Some(dest_zone) = Self::parse_zone(dest) else {
                    return ExecOutcome::invalid(format!("{dest} is not a zone"));
                };
                if dest_zone >= self.num_zones {
                    return ExecOutcome::failure(format!("{dest} is out of range"));
                }
                let reach = self.reach(agent);
                let b = &self.boxes[idx];
                if b.delivered {
                    return ExecOutcome::gone(format!("{box_name} is already delivered"));
                }
                if b.heavy {
                    return ExecOutcome::invalid(format!("{box_name} is too heavy for one arm"));
                }
                if !reach.contains(&b.zone) {
                    return ExecOutcome::failure(format!("{box_name} is out of reach"));
                }
                if !reach.contains(&dest_zone) {
                    return ExecOutcome::failure(format!("{dest} is out of reach"));
                }
                let drive = low.actuator.drive(SimDuration::from_millis(3_200));
                let success = drive.success && low.rng.gen_bool(low.competence.clamp(0.0, 1.0));
                let mut made_progress = false;
                if success {
                    let toward = dest_zone.abs_diff(self.boxes[idx].target)
                        < self.boxes[idx].zone.abs_diff(self.boxes[idx].target);
                    let b = &mut self.boxes[idx];
                    b.zone = dest_zone;
                    b.delivered = b.zone == b.target;
                    made_progress = toward || b.delivered;
                }
                ExecOutcome {
                    completed: success,
                    made_progress,
                    compute: SimDuration::from_millis(60),
                    actuation: drive.total_time,
                    kind: FailureKind::Plain,
                    note: if success {
                        format!("moved {box_name} to {dest}")
                    } else {
                        format!("gripper slipped moving {box_name}")
                    },
                }
            }
            Subgoal::LiftTogether { box_name, partner } => {
                let Some(idx) = self.box_index(box_name) else {
                    return ExecOutcome::gone(format!("{box_name} does not exist"));
                };
                if *partner >= self.num_agents || *partner == agent {
                    return ExecOutcome::invalid("invalid lift partner");
                }
                let b = &self.boxes[idx];
                if b.delivered {
                    return ExecOutcome::gone(format!("{box_name} is already delivered"));
                }
                if !b.heavy {
                    return ExecOutcome::invalid(format!("{box_name} does not need a joint lift"));
                }
                if !self.reach(agent).contains(&b.zone) || !self.reach(*partner).contains(&b.zone) {
                    return ExecOutcome::failure(format!("{box_name} is outside joint reach"));
                }
                let synced = self
                    .pending_lifts
                    .iter()
                    .any(|p| p.box_idx == idx && p.agent == *partner);
                if synced {
                    self.pending_lifts.retain(|p| p.box_idx != idx);
                    let drive = low.actuator.drive(SimDuration::from_millis(4_500));
                    if drive.success {
                        let b = &mut self.boxes[idx];
                        b.zone = b.target;
                        b.delivered = true;
                    }
                    ExecOutcome {
                        completed: drive.success,
                        made_progress: drive.success,
                        compute: SimDuration::from_millis(80),
                        actuation: drive.total_time,
                        kind: FailureKind::Plain,
                        note: if drive.success {
                            format!("jointly lifted {box_name} to its target")
                        } else {
                            format!("joint lift of {box_name} slipped")
                        },
                    }
                } else {
                    self.pending_lifts.push(PendingLift {
                        agent,
                        box_idx: idx,
                        call: self.calls,
                    });
                    ExecOutcome {
                        completed: false,
                        made_progress: false,
                        compute: SimDuration::from_millis(30),
                        actuation: SimDuration::from_millis(1_000),
                        kind: FailureKind::Busy,
                        note: format!("holding {box_name}, waiting for agent {partner}"),
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
        self.boxes.iter().all(|b| b.delivered)
    }

    fn progress(&self) -> f64 {
        if self.boxes.is_empty() {
            1.0
        } else {
            self.delivered_count() as f64 / self.boxes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::rendered_at;

    fn oracle_rollout(env: &mut BoxWorldEnv, seed: u64) -> usize {
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
    fn warehouse_relay_completes() {
        let mut e = BoxWorldEnv::new(BoxVariant::Warehouse, TaskDifficulty::Medium, 3, 1);
        let steps = oracle_rollout(&mut e, 2);
        assert!(
            e.is_complete(),
            "delivered {} after {steps}",
            e.delivered_count()
        );
    }

    #[test]
    fn boxnet1_completes_across_difficulties() {
        for d in TaskDifficulty::ALL {
            let mut e = BoxWorldEnv::new(BoxVariant::BoxNet1, d, 2, 7);
            oracle_rollout(&mut e, 3);
            assert!(e.is_complete(), "difficulty {d} incomplete");
        }
    }

    #[test]
    fn boxlift_needs_synchronized_lifts() {
        let mut e = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Medium, 2, 5);
        let heavy_idx = e.boxes.iter().position(|b| b.heavy).expect("has heavy box");
        let name = e.boxes[heavy_idx].name.clone();
        let zone = e.boxes[heavy_idx].zone;
        let mut low = LowLevel::controller(1);
        // Find the two arms sharing the zone.
        let a0 = (0..2).find(|&a| e.reach(a).contains(&zone)).unwrap();
        let a1 = e.partner_for(a0, zone).unwrap();
        // First request waits…
        let out = e.execute(
            a0,
            &Subgoal::LiftTogether {
                box_name: name.clone(),
                partner: a1,
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("waiting"));
        assert_eq!(out.kind, FailureKind::Busy);
        // …partner completes the lift in the same round.
        let out = e.execute(
            a1,
            &Subgoal::LiftTogether {
                box_name: name.clone(),
                partner: a0,
            },
            &mut low,
        );
        assert!(out.completed, "{}", out.note);
        assert!(e.boxes[heavy_idx].delivered);
    }

    #[test]
    fn boxlift_oracle_rollout_completes() {
        let mut e = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Medium, 3, 11);
        let steps = oracle_rollout(&mut e, 4);
        assert!(
            e.is_complete(),
            "delivered {}/{} after {steps}",
            e.delivered_count(),
            e.boxes.len()
        );
    }

    #[test]
    fn solo_boxlift_has_no_heavy_boxes() {
        let e = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Hard, 1, 0);
        assert!(e.boxes.iter().all(|b| !b.heavy));
    }

    #[test]
    fn reach_is_enforced() {
        let mut e = BoxWorldEnv::new(BoxVariant::Warehouse, TaskDifficulty::Easy, 3, 0);
        let mut low = LowLevel::controller(0);
        let far = e.num_zones - 1;
        let out = e.execute(
            0,
            &Subgoal::MoveBox {
                box_name: "box_0".into(),
                dest: e.zones[far].clone(),
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("out of reach"));
    }

    #[test]
    fn observation_limited_to_reach() {
        let e = BoxWorldEnv::new(BoxVariant::Warehouse, TaskDifficulty::Easy, 3, 0);
        // Boxes start in zone 0: only arm 0 sees them.
        assert!(e.observe(0).visible.iter().any(|v| &*v.name == "box_0"));
        assert!(!e.observe(2).visible.iter().any(|v| &*v.name == "box_0"));
    }

    #[test]
    fn heavy_box_rejects_solo_move() {
        let mut e = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Medium, 2, 5);
        let heavy = e.boxes.iter().find(|b| b.heavy).unwrap();
        let name = heavy.name.clone();
        let zone = heavy.zone;
        let arm = (0..2).find(|&a| e.reach(a).contains(&zone)).unwrap();
        let dest = e.zones[*e.reach(arm).start()].clone();
        let mut low = LowLevel::controller(1);
        let out = e.execute(
            arm,
            &Subgoal::MoveBox {
                box_name: name,
                dest,
            },
            &mut low,
        );
        assert!(!out.completed);
        assert!(out.note.contains("heavy"));
        assert_eq!(out.kind, FailureKind::Invalid);
    }

    #[test]
    fn stale_lift_requests_expire() {
        let mut e = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Medium, 2, 5);
        let heavy_idx = e.boxes.iter().position(|b| b.heavy).unwrap();
        let name = e.boxes[heavy_idx].name.clone();
        let zone = e.boxes[heavy_idx].zone;
        let a0 = (0..2).find(|&a| e.reach(a).contains(&zone)).unwrap();
        let a1 = e.partner_for(a0, zone).unwrap();
        let mut low = LowLevel::controller(1);
        e.execute(
            a0,
            &Subgoal::LiftTogether {
                box_name: name.clone(),
                partner: a1,
            },
            &mut low,
        );
        // Burn several rounds with waits; the request should expire.
        for _ in 0..6 {
            e.execute(a1, &Subgoal::Wait, &mut low);
            e.execute(a0, &Subgoal::Wait, &mut low);
        }
        let out = e.execute(
            a1,
            &Subgoal::LiftTogether {
                box_name: name,
                partner: a0,
            },
            &mut low,
        );
        assert!(!out.completed, "expired request must not complete a lift");
    }

    #[test]
    fn observations_render_as_before() {
        let mut env = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Easy, 2, 42);
        let (location, status, seen) = rendered_at(&mut env, 0);
        assert_eq!(location, "arm covering zones 0..=3");
        assert_eq!(status, "0/4 boxes delivered");
        assert_eq!(
            seen,
            [
                "box_0 (heavy) in zone_2",
                "box_2 (heavy) in zone_2",
                "box_3 in zone_0"
            ]
        );
        let mut env = BoxWorldEnv::new(BoxVariant::BoxLift, TaskDifficulty::Easy, 2, 42);
        let (_, status, _) = rendered_at(&mut env, 1);
        assert_eq!(status, "1/4 boxes delivered");
    }
}
