//! The embodied fault plane: deterministic perception/actuation fault
//! injection at the [`Environment`] seam.
//!
//! Every deployed embodied stack degrades first at the sensor/actuator
//! boundary, yet the other four fault planes (LLM, agent/channel, semantic,
//! serving) all treat the world itself as ground truth. [`FaultyEnv`] closes
//! that gap: it wraps any environment and perturbs what the agent *senses*
//! (entity dropout, phantom entities, frozen frames, landmark misreads) and
//! what its actions *do* (silent no-ops, partial-effect slips, actuator
//! downtime windows), while the world underneath stays exact.
//!
//! Two invariants make the plane usable for controlled experiments:
//!
//! * **Perception faults are consistent across the sensing surface.** The
//!   degraded view is computed once per agent per step and served to
//!   `observe`, `candidate_subgoals`, `affordances` *and* (filtered/renamed)
//!   `oracle_subgoals` alike, so a guardrail validating plans against
//!   affordances sees exactly the degraded world the agent saw — phantom
//!   entities pass validation and fail at the real seam, which is what makes
//!   re-grounding (a fresh observation) the correct recovery and a reprompt
//!   a doomed one.
//! * **Determinism with zero draws under [`EnvFaultProfile::none()`].** All
//!   randomness comes from one dedicated `StdRng` stream advanced in a
//!   fixed, agent-ordered schedule inside [`Environment::begin_step`] and
//!   `execute`; a `none()` profile never touches it, so a wrapped env is a
//!   strict pass-through. Recovery-side re-observation
//!   ([`Environment::refresh_perception`]) rebuilds the view from ground
//!   truth *without* drawing, so enabling recovery cannot shift the fault
//!   stream — recovery-on and recovery-off runs face identical faults.

use crate::action::{ExecOutcome, Name, Subgoal};
use crate::environment::{Environment, LowLevel, TaskDifficulty};
use crate::observation::{Observation, SeenEntity};
use crate::{phrase, word};
use embodied_profiler::{check_rate, EnvFaultStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt for the dedicated env-fault RNG stream, distinct from every other
/// seeded stream in the suite.
const ENV_FAULT_SALT: u64 = 0x00e2_f417_0b5e;

/// Names injected as phantom entities — deliberately outside every
/// environment's real vocabulary so execution against one fails at the true
/// seam ("does not exist"), never by accident succeeds.
const PHANTOMS: [&str; 4] = [
    "phantom_crate",
    "phantom_lever",
    "phantom_box",
    "phantom_bin",
];

/// Wrong names a landmark misread substitutes — synthetic so they cannot
/// collide with a real entity in any environment.
const MISREAD_ALIASES: [&str; 4] = ["misty_crate", "dusty_lever", "worn_panel", "dim_door"];

/// Perception/actuation fault probabilities for one wrapped environment.
/// The default ([`EnvFaultProfile::none()`]) is a perfect world: sensors
/// report ground truth and every actuation lands as the physics dictates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvFaultProfile {
    /// Per-agent per-step probability one visible entity drops out of the
    /// observation (and out of the affordance menu with it).
    pub dropout: f64,
    /// Per-agent per-step probability a phantom entity appears in the
    /// observation *and* the affordance menu — a hallucinated detection the
    /// guardrail cannot catch, because the sensing surface itself asserts it.
    pub phantom: f64,
    /// Per-agent per-step probability the observation freezes: the agent is
    /// served the same stale frame for [`Self::stale_steps`] steps while the
    /// world moves on underneath.
    pub stale: f64,
    /// Length of a frozen-observation window, in steps.
    pub stale_steps: usize,
    /// Per-agent per-step probability one visible entity is misread under a
    /// wrong name — consistently across observation and affordances, so
    /// plans against the misread name validate and then fail at actuation.
    pub misread: f64,
    /// Per-action probability the actuation silently no-ops: the world is
    /// untouched and the agent is told the subgoal failed.
    pub silent_fail: f64,
    /// Per-action probability of a partial-effect slip: the action lands in
    /// the world but the outcome reports it as incomplete, so the agent may
    /// pointlessly redo completed work.
    pub slip: f64,
    /// Per-agent per-step probability the actuator goes down for
    /// [`Self::down_steps`] steps; non-idle subgoals fail instantly while
    /// the window is open.
    pub actuator_down: f64,
    /// Length of an actuator downtime window, in steps.
    pub down_steps: usize,
}

impl Default for EnvFaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl EnvFaultProfile {
    /// A perfect world: no perception or actuation faults, zero RNG draws.
    pub fn none() -> Self {
        EnvFaultProfile {
            dropout: 0.0,
            phantom: 0.0,
            stale: 0.0,
            stale_steps: 2,
            misread: 0.0,
            silent_fail: 0.0,
            slip: 0.0,
            actuator_down: 0.0,
            down_steps: 2,
        }
    }

    /// Perception-side faults only, all at `rate`.
    pub fn perception(rate: f64) -> Self {
        EnvFaultProfile {
            dropout: rate,
            phantom: rate,
            stale: rate,
            misread: rate,
            ..Self::none()
        }
    }

    /// Actuation-side faults only, all at `rate`.
    pub fn actuation(rate: f64) -> Self {
        EnvFaultProfile {
            silent_fail: rate,
            slip: rate,
            actuator_down: rate,
            ..Self::none()
        }
    }

    /// Every fault mode at `rate`.
    pub fn uniform(rate: f64) -> Self {
        EnvFaultProfile {
            dropout: rate,
            phantom: rate,
            stale: rate,
            misread: rate,
            silent_fail: rate,
            slip: rate,
            actuator_down: rate,
            ..Self::none()
        }
    }

    /// Whether this profile injects nothing (and therefore draws nothing).
    pub fn is_none(&self) -> bool {
        self.dropout == 0.0
            && self.phantom == 0.0
            && self.stale == 0.0
            && self.misread == 0.0
            && self.silent_fail == 0.0
            && self.slip == 0.0
            && self.actuator_down == 0.0
    }

    /// Sum of the perception-side rates (scenario-evolution fault budget).
    pub fn perception_mass(&self) -> f64 {
        self.dropout + self.phantom + self.stale + self.misread
    }

    /// Sum of the actuation-side rates (scenario-evolution fault budget).
    pub fn actuation_mass(&self) -> f64 {
        self.silent_fail + self.slip + self.actuator_down
    }

    /// Validates every rate is a real probability and every window a usable
    /// length, returning the profile unchanged on success.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("dropout", self.dropout)?;
        check_rate("phantom", self.phantom)?;
        check_rate("stale", self.stale)?;
        check_rate("misread", self.misread)?;
        check_rate("silent_fail", self.silent_fail)?;
        check_rate("slip", self.slip)?;
        check_rate("actuator_down", self.actuator_down)?;
        if self.stale > 0.0 && self.stale_steps == 0 {
            return Err("stale_steps must be >= 1 when stale > 0".into());
        }
        if self.actuator_down > 0.0 && self.down_steps == 0 {
            return Err("down_steps must be >= 1 when actuator_down > 0".into());
        }
        Ok(self)
    }
}

/// One agent's degraded view of the world, rebuilt each step (or frozen in
/// place while a stale window is open).
struct AgentView {
    observation: Observation,
    candidates: Vec<Subgoal>,
    /// Misreads applied this frame: `(true_name, misread_name)`.
    renames: Vec<(Name, Name)>,
    /// Entity names dropped from this frame.
    dropped: Vec<Name>,
}

impl AgentView {
    /// `agent`'s undegraded view: what `inner` shows it, with no misreads
    /// and nothing dropped.
    fn ground_truth(inner: &impl Environment, agent: usize) -> Self {
        AgentView {
            observation: inner.observe(agent),
            candidates: inner.candidate_subgoals(agent),
            renames: Vec::new(),
            dropped: Vec::new(),
        }
    }
}

/// Renames every reference to `from` inside one subgoal.
fn rename_entity(sg: &mut Subgoal, from: &Name, to: &Name) {
    let fix = |s: &mut Name| {
        if *s == *from {
            *s = to.clone();
        }
    };
    match sg {
        Subgoal::GoTo { target, .. } => fix(target),
        Subgoal::Pick { object } => fix(object),
        Subgoal::Place { object, dest } => {
            fix(object);
            fix(dest);
        }
        Subgoal::Open { container } => fix(container),
        Subgoal::Gather { resource } => fix(resource),
        Subgoal::Craft { item } => fix(item),
        Subgoal::Cook { dish, .. } => fix(dish),
        Subgoal::Serve { dish } => fix(dish),
        Subgoal::MoveBox { box_name, dest } => {
            fix(box_name);
            fix(dest);
        }
        Subgoal::LiftTogether { box_name, .. } => fix(box_name),
        Subgoal::ArmMove { object, .. } => fix(object),
        Subgoal::Skill { .. } | Subgoal::Explore | Subgoal::Wait => {}
    }
}

/// Deterministic perception/actuation fault decorator around any
/// [`Environment`]. See the module docs for the two invariants (consistent
/// degraded sensing surface; zero draws under `none()`).
pub struct FaultyEnv<E: Environment> {
    inner: E,
    profile: EnvFaultProfile,
    rng: StdRng,
    step: usize,
    views: Vec<AgentView>,
    /// Per-agent step at which the frozen frame thaws, while stale.
    stale_until: Vec<Option<usize>>,
    /// Per-agent step at which the actuator comes back, while down.
    down_until: Vec<Option<usize>>,
    stats: EnvFaultStats,
    /// [`PHANTOMS`] as shared names, in the same order.
    phantoms: [Name; 4],
    /// [`MISREAD_ALIASES`] as shared names, in the same order.
    aliases: [Name; 4],
}

impl<E: Environment> FaultyEnv<E> {
    /// Wraps `inner` with the given fault profile on a dedicated RNG stream
    /// derived from `seed`.
    pub fn new(inner: E, profile: EnvFaultProfile, seed: u64) -> Self {
        let n = inner.num_agents();
        let views = (0..n)
            .map(|agent| AgentView::ground_truth(&inner, agent))
            .collect();
        FaultyEnv {
            inner,
            profile,
            rng: StdRng::seed_from_u64(seed ^ ENV_FAULT_SALT),
            step: 0,
            views,
            stale_until: vec![None; n],
            down_until: vec![None; n],
            stats: EnvFaultStats::default(),
            phantoms: PHANTOMS.map(Name::from),
            aliases: MISREAD_ALIASES.map(Name::from),
        }
    }

    /// The active fault profile.
    pub fn profile(&self) -> &EnvFaultProfile {
        &self.profile
    }

    /// Whether `agent`'s actuator is inside a downtime window right now.
    pub fn actuator_down(&self, agent: usize) -> bool {
        self.down_until[agent].is_some()
    }

    /// Rebuilds one agent's degraded view from ground truth, drawing the
    /// perception faults for this frame.
    fn degrade_view(&mut self, agent: usize) {
        let mut view = AgentView::ground_truth(&self.inner, agent);
        let (observation, candidates) = (&mut view.observation, &mut view.candidates);
        let p = self.profile;
        if p.dropout > 0.0 && self.rng.gen_bool(p.dropout) && !observation.visible.is_empty() {
            let idx = self.rng.gen_range(0..observation.visible.len());
            let name = observation.visible.remove(idx).name;
            candidates.retain(|sg| !sg.entity_refs().contains(&Some(&name)));
            view.dropped.push(name);
            self.stats.dropped_entities += 1;
        }
        if p.phantom > 0.0 && self.rng.gen_bool(p.phantom) {
            let name = self.phantoms[self.rng.gen_range(0..PHANTOMS.len())].clone();
            observation.visible.push(SeenEntity::new(
                name.clone(),
                phrase![name.clone(), word!(" within reach")],
            ));
            candidates.push(Subgoal::Pick { object: name });
            self.stats.phantom_entities += 1;
        }
        if p.misread > 0.0 && self.rng.gen_bool(p.misread) && !observation.visible.is_empty() {
            let idx = self.rng.gen_range(0..observation.visible.len());
            let alias = self.aliases[self.rng.gen_range(0..MISREAD_ALIASES.len())].clone();
            let true_name = observation.visible[idx].name.clone();
            if true_name != alias {
                observation.visible[idx].name = alias.clone();
                observation.visible[idx].description =
                    phrase![alias.clone(), word!(", partially occluded")];
                for sg in candidates.iter_mut() {
                    rename_entity(sg, &true_name, &alias);
                }
                view.renames.push((true_name, alias));
                self.stats.misread_entities += 1;
            }
        }
        self.views[agent] = view;
    }
}

impl<E: Environment> Environment for FaultyEnv<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_agents(&self) -> usize {
        self.inner.num_agents()
    }

    fn max_steps(&self) -> usize {
        self.inner.max_steps()
    }

    fn difficulty(&self) -> TaskDifficulty {
        self.inner.difficulty()
    }

    fn goal_text(&self) -> String {
        self.inner.goal_text()
    }

    fn landmarks(&self) -> Vec<String> {
        self.inner.landmarks()
    }

    fn observe(&self, agent: usize) -> Observation {
        if self.profile.is_none() {
            return self.inner.observe(agent);
        }
        self.views[agent].observation.clone()
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        let mut subgoals = self.inner.oracle_subgoals(agent);
        if self.profile.is_none() {
            return subgoals;
        }
        // The oracle models *correct reasoning over what the agent can
        // perceive*: it cannot name an entity the degraded view dropped,
        // and it reads misread landmarks under their wrong names (which
        // then fail at the real seam — that is the fault's damage).
        let view = &self.views[agent];
        subgoals.retain(|sg| {
            !sg.entity_refs()
                .into_iter()
                .flatten()
                .any(|e| view.dropped.contains(e))
        });
        for sg in &mut subgoals {
            for (from, to) in &view.renames {
                rename_entity(sg, from, to);
            }
        }
        subgoals
    }

    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        if self.profile.is_none() {
            return self.inner.candidate_subgoals(agent);
        }
        self.views[agent].candidates.clone()
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        if self.profile.is_none() {
            return self.inner.execute(agent, subgoal, low);
        }
        if !subgoal.is_idle() {
            if self.down_until[agent].is_some() {
                return ExecOutcome::failure("actuator offline");
            }
            if self.profile.silent_fail > 0.0 && self.rng.gen_bool(self.profile.silent_fail) {
                self.stats.silent_failures += 1;
                return ExecOutcome::no_effect(format!("nothing happened: {subgoal}"));
            }
            if self.profile.slip > 0.0 && self.rng.gen_bool(self.profile.slip) {
                let mut out = self.inner.execute(agent, subgoal, low);
                if out.completed {
                    out.completed = false;
                    out.made_progress = true;
                    out.note = format!("slipped mid-action: {}", out.note);
                    self.stats.partial_slips += 1;
                }
                return out;
            }
        }
        self.inner.execute(agent, subgoal, low)
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn progress(&self) -> f64 {
        self.inner.progress()
    }

    fn begin_step(&mut self, step: usize) {
        self.step = step;
        self.inner.begin_step(step);
        if self.profile.is_none() {
            return;
        }
        for agent in 0..self.inner.num_agents() {
            // Heal before draw: a window may end and a new one begin on the
            // same step boundary, exactly like the agent-fault plane.
            if let Some(until) = self.down_until[agent] {
                if step >= until {
                    self.down_until[agent] = None;
                }
            }
            if let Some(until) = self.stale_until[agent] {
                if step >= until {
                    self.stale_until[agent] = None;
                }
            }
            if self.down_until[agent].is_none()
                && self.profile.actuator_down > 0.0
                && self.rng.gen_bool(self.profile.actuator_down)
            {
                self.down_until[agent] = Some(step + self.profile.down_steps.max(1));
                self.stats.actuator_downtimes += 1;
            }
            if self.down_until[agent].is_some() {
                self.stats.actuator_down_steps += 1;
            }
            // While a frame is frozen the agent keeps seeing it; no fresh
            // perception draws happen for this agent this step.
            if self.stale_until[agent].is_some() {
                self.stats.stale_observations += 1;
                continue;
            }
            self.degrade_view(agent);
            if self.profile.stale > 0.0 && self.rng.gen_bool(self.profile.stale) {
                self.stale_until[agent] = Some(step + self.profile.stale_steps.max(1));
                self.stats.stale_observations += 1;
            }
        }
    }

    fn refresh_perception(&mut self, agent: usize) {
        self.inner.refresh_perception(agent);
        if self.profile.is_none() {
            return;
        }
        // A deliberate slow re-scan bypasses the transient perception fault:
        // thaw any frozen frame and rebuild the view from ground truth.
        // Intentionally draw-free, so recovery timing can never shift the
        // fault stream — recovery-on and -off runs face identical faults.
        self.stale_until[agent] = None;
        self.views[agent] = AgentView::ground_truth(&self.inner, agent);
    }

    fn env_fault_stats(&self) -> EnvFaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FailureKind;
    use crate::observation::rendered_at;
    use crate::transport::TransportEnv;
    use rand::RngCore;

    fn bare(seed: u64) -> TransportEnv {
        TransportEnv::new(TaskDifficulty::Easy, 2, seed)
    }

    fn oracle_or_explore(env: &impl Environment, agent: usize) -> Subgoal {
        env.oracle_subgoals(agent)
            .first()
            .cloned()
            .unwrap_or(Subgoal::Explore)
    }

    #[test]
    fn none_profile_is_strict_passthrough_with_zero_draws() {
        let mut plain = bare(7);
        let mut faulty = FaultyEnv::new(bare(7), EnvFaultProfile::none(), 7);
        let mut low_a = LowLevel::controller(3);
        let mut low_b = LowLevel::controller(3);
        for step in 0..40 {
            plain.begin_step(step);
            faulty.begin_step(step);
            for agent in 0..plain.num_agents() {
                assert_eq!(plain.observe(agent), faulty.observe(agent));
                assert_eq!(
                    plain.candidate_subgoals(agent),
                    faulty.candidate_subgoals(agent)
                );
                assert_eq!(plain.oracle_subgoals(agent), faulty.oracle_subgoals(agent));
                let sg = oracle_or_explore(&plain, agent);
                let a = plain.execute(agent, &sg, &mut low_a);
                let b = faulty.execute(agent, &sg, &mut low_b);
                assert_eq!(a, b);
            }
        }
        assert_eq!(plain.progress(), faulty.progress());
        assert!(faulty.env_fault_stats() == Default::default());
        // The dedicated RNG stream was never advanced: after swapping in a
        // live profile, its draws match a freshly seeded stream exactly.
        faulty.profile = EnvFaultProfile::uniform(0.5);
        let mut fresh = StdRng::seed_from_u64(7 ^ ENV_FAULT_SALT);
        for _ in 0..8 {
            assert_eq!(faulty.rng.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn observation_and_affordances_see_the_same_degraded_world() {
        // Perception faults minus stale, so the wrapped env and a bare twin
        // stay in lockstep and every frame can be compared to ground truth.
        let profile = EnvFaultProfile {
            dropout: 0.4,
            phantom: 0.4,
            misread: 0.4,
            ..EnvFaultProfile::none()
        };
        let mut plain = bare(11);
        let mut faulty = FaultyEnv::new(bare(11), profile, 99);
        let mut low_a = LowLevel::controller(5);
        let mut low_b = LowLevel::controller(5);
        let mut faults_seen = 0u64;
        for step in 0..60 {
            plain.begin_step(step);
            faulty.begin_step(step);
            for agent in 0..plain.num_agents() {
                let truth = plain.observe(agent);
                let truth_aff = plain.affordances(agent);
                let degraded = faulty.observe(agent);
                let aff = faulty.affordances(agent);
                let view = &faulty.views[agent];
                for name in &view.dropped {
                    assert!(truth.sees(name), "dropped {name} was never real");
                    assert!(!degraded.sees(name), "dropped {name} still visible");
                    assert!(!aff.knows_entity(name), "dropped {name} still afforded");
                    faults_seen += 1;
                }
                for (from, to) in &view.renames {
                    assert!(!degraded.sees(from), "misread {from} still visible");
                    assert!(degraded.sees(to), "misread alias {to} not visible");
                    if truth_aff.knows_entity(from) {
                        assert!(aff.knows_entity(to), "misread alias {to} not afforded");
                        assert!(!aff.knows_entity(from), "misread {from} still afforded");
                    }
                    faults_seen += 1;
                }
                for entity in &degraded.visible {
                    if PHANTOMS.contains(&&*entity.name) {
                        assert!(!truth.sees(&entity.name), "phantom leaked into truth");
                        assert!(
                            aff.knows_entity(&entity.name),
                            "phantom {} not afforded — the guardrail would catch it",
                            entity.name
                        );
                        faults_seen += 1;
                    }
                }
            }
            // Advance both worlds identically (no actuation faults) only
            // after every agent's step-start view has been checked — views
            // are cached at begin_step, so mid-step moves would otherwise
            // make ground truth drift away from the cached frame.
            for agent in 0..plain.num_agents() {
                let sg = oracle_or_explore(&plain, agent);
                plain.execute(agent, &sg, &mut low_a);
                faulty.execute(agent, &sg, &mut low_b);
            }
        }
        assert!(faults_seen > 0, "profile at 0.4 never fired in 60 steps");
        assert!(faulty.env_fault_stats() != Default::default());
    }

    #[test]
    fn faulty_env_replays_bit_identically() {
        let run = |seed: u64| {
            let mut env = FaultyEnv::new(bare(13), EnvFaultProfile::uniform(0.25), seed);
            let mut low = LowLevel::controller(9);
            let mut log = String::new();
            for step in 0..50 {
                env.begin_step(step);
                for agent in 0..env.num_agents() {
                    let sg = oracle_or_explore(&env, agent);
                    let out = env.execute(agent, &sg, &mut low);
                    log.push_str(&format!("{step}/{agent} {sg} -> {out:?}\n"));
                }
            }
            format!("{log}{:?}", env.env_fault_stats())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn actuation_faults_fire_and_downtime_heals() {
        let mut env = FaultyEnv::new(bare(17), EnvFaultProfile::actuation(0.2), 21);
        let mut low = LowLevel::controller(1);
        let mut offline_failures = 0u64;
        let mut no_effects = 0u64;
        let mut successes = 0u64;
        for step in 0..80 {
            env.begin_step(step);
            for agent in 0..env.num_agents() {
                let sg = oracle_or_explore(&env, agent);
                let out = env.execute(agent, &sg, &mut low);
                if out.note == "actuator offline" {
                    offline_failures += 1;
                }
                if out.kind == FailureKind::NoEffect {
                    no_effects += 1;
                }
                if out.completed {
                    successes += 1;
                }
            }
        }
        let stats = env.env_fault_stats();
        assert!(stats.silent_failures > 0);
        assert_eq!(no_effects, stats.silent_failures);
        assert!(stats.actuator_downtimes > 0);
        assert!(stats.actuator_down_steps >= stats.actuator_downtimes);
        assert!(offline_failures > 0, "downtime never blocked an action");
        assert!(successes > 0, "downtime windows never healed");

        // Slips fire on actions that would have completed.
        let slippery = EnvFaultProfile {
            slip: 0.5,
            ..EnvFaultProfile::none()
        };
        let mut env = FaultyEnv::new(bare(19), slippery, 33);
        let mut low = LowLevel::controller(2);
        for step in 0..60 {
            env.begin_step(step);
            for agent in 0..env.num_agents() {
                let sg = oracle_or_explore(&env, agent);
                env.execute(agent, &sg, &mut low);
            }
        }
        assert!(env.env_fault_stats().partial_slips > 0);
    }

    #[test]
    fn refresh_perception_restores_ground_truth_view() {
        let profile = EnvFaultProfile {
            dropout: 0.9,
            phantom: 0.9,
            misread: 0.9,
            stale: 0.5,
            ..EnvFaultProfile::none()
        };
        let mut env = FaultyEnv::new(bare(23), profile, 55);
        let mut degraded_frames = 0;
        for step in 0..30 {
            env.begin_step(step);
            for agent in 0..env.num_agents() {
                if env.observe(agent) != env.inner.observe(agent) {
                    degraded_frames += 1;
                    env.refresh_perception(agent);
                    assert_eq!(env.observe(agent), env.inner.observe(agent));
                    assert_eq!(
                        env.candidate_subgoals(agent),
                        env.inner.candidate_subgoals(agent)
                    );
                    assert!(env.views[agent].renames.is_empty());
                    assert!(env.views[agent].dropped.is_empty());
                }
            }
        }
        assert!(degraded_frames > 0, "profile at 0.9 never degraded a frame");
    }

    #[test]
    fn stale_windows_freeze_the_frame_then_thaw() {
        let profile = EnvFaultProfile {
            stale: 1.0,
            stale_steps: 3,
            ..EnvFaultProfile::none()
        };
        let mut env = FaultyEnv::new(bare(29), profile, 77);
        env.begin_step(0);
        let frozen = env.observe(0);
        let mut low = LowLevel::controller(4);
        for step in 1..3 {
            // World moves on underneath; the served frame does not.
            let sg = oracle_or_explore(&env, 0);
            env.execute(0, &sg, &mut low);
            env.begin_step(step);
            assert_eq!(env.observe(0), frozen, "frame thawed early at {step}");
        }
        assert!(env.env_fault_stats().stale_observations >= 3);
    }

    #[test]
    fn validated_rejects_bad_rates_and_windows() {
        assert!(EnvFaultProfile::none().validated().is_ok());
        assert!(EnvFaultProfile::none().is_none());
        assert!(!EnvFaultProfile::uniform(0.1).is_none());
        let nan = EnvFaultProfile {
            dropout: f64::NAN,
            ..EnvFaultProfile::none()
        };
        assert!(nan.validated().unwrap_err().contains("NaN"));
        let neg = EnvFaultProfile {
            slip: -0.1,
            ..EnvFaultProfile::none()
        };
        assert!(neg.validated().unwrap_err().contains("outside"));
        let big = EnvFaultProfile {
            phantom: 1.5,
            ..EnvFaultProfile::none()
        };
        assert!(big.validated().is_err());
        let no_window = EnvFaultProfile {
            stale: 0.2,
            stale_steps: 0,
            ..EnvFaultProfile::none()
        };
        assert!(no_window.validated().is_err());
    }

    #[test]
    fn phantoms_and_misreads_render_as_before() {
        let profile = EnvFaultProfile {
            phantom: 1.0,
            misread: 1.0,
            ..EnvFaultProfile::none()
        };
        let fresh = || FaultyEnv::new(bare(42), profile, 42);
        let (_, _, seen) = rendered_at(&mut fresh(), 0);
        assert_eq!(
            seen,
            [
                "the goal zone",
                "agent_1 nearby",
                "dusty_lever, partially occluded"
            ]
        );
        let (_, _, seen) = rendered_at(&mut fresh(), 1);
        assert_eq!(
            seen[2..],
            ["dim_door, partially occluded", "phantom_lever within reach"]
        );
    }
}
