//! A modular embodied agent: the composition of the six building blocks
//! (Fig. 1a) plus the per-agent episode state the orchestrators drive.

use crate::config::AgentConfig;
use crate::modules::{
    CommunicationModule, EntitySet, ExecutionModule, MemoryModule, PlanningModule,
    ReflectionModule, SensingModule, WorldMap,
};
use crate::prompt::{system_preamble, Counted};
use embodied_env::{Name, Subgoal};
use embodied_llm::{EngineBuilder, InferenceService, LlmEngine};
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// One embodied agent assembled from its configured modules.
///
/// Every LLM-backed module holds an [`embodied_llm::EngineHandle`] onto
/// the system's shared [`InferenceService`] rather than a private engine.
#[derive(Debug)]
pub struct ModularAgent {
    /// Agent index within the system.
    pub id: usize,
    /// The configuration this agent was built from.
    pub config: AgentConfig,
    /// Perception front-end.
    pub sensing: SensingModule,
    /// Observation/action/dialogue stores.
    pub memory: MemoryModule,
    /// High-level planner.
    pub planning: PlanningModule,
    /// Message generation (multi-agent workloads with communication).
    pub communication: Option<CommunicationModule>,
    /// Outcome verification.
    pub reflection: Option<ReflectionModule>,
    /// Low-level execution.
    pub execution: ExecutionModule,
    /// Accumulated spatial world model (paper §II-A sensing: "a map of
    /// spatial layout, moving entities, obstacles, and resource locations").
    pub map: WorldMap,
    /// System preamble used in this agent's prompts, counted once here.
    pub preamble: Counted<String>,
    /// Last failed subgoal, until a success or a caught category error
    /// clears it — feeds the planner's perseveration bias and failure
    /// confusion.
    pub last_failure: Option<Subgoal>,
    /// Remaining steps the current high-level plan still covers (Rec. 7).
    pub plan_budget: usize,
    /// Subgoals reflection has blacklisted, keyed by their `Display` text
    /// and mapped to the step they expire at. Expired entries are purged
    /// by [`ModularAgent::expire_blacklist`], so the map is empty whenever
    /// nothing is blacklisted.
    pub blacklist: HashMap<String, usize>,
    /// What the agent knew at its last broadcast, over its memory's ids:
    /// the next message carries what it knows now and did not then. Each
    /// broadcast replaces it rather than adding to it, so an entity
    /// forgotten since and seen again is news again.
    pub last_broadcast: EntitySet,
    /// Messages received this round, shared with their senders and token
    /// counts: the dialogue section of communication and planning prompts.
    pub inbox: Vec<Counted<Rc<str>>>,
    /// Consecutive steps without progress whose failure reflection has not
    /// resolved — drives compounding planner confusion.
    pub failure_streak: usize,
    /// The most recent successfully planned subgoal — the graceful-
    /// degradation fallback when a planner call faults out entirely.
    pub last_plan: Option<Subgoal>,
    /// Step at which each peer's heartbeat was last heard (sized lazily to
    /// the team on the first fault-aware step; empty when the agent-fault
    /// layer is inactive).
    pub peer_last_heard: Vec<usize>,
    /// Peers this agent currently believes are down (heartbeat silent past
    /// the staleness threshold) — planning routes joint subgoals around
    /// them until they are heard again.
    pub suspected: HashSet<usize>,
    /// Reusable render buffer for the planner's memory/map context section:
    /// allocated once per episode, rewritten in place every step the
    /// planning prompt is rendered.
    pub memory_buf: String,
}

impl ModularAgent {
    /// Assembles an agent for a workload, registering its engines as
    /// tenants of `service` in episode scope `scope`.
    ///
    /// Engines are seeded per agent and per module so episodes replay
    /// deterministically while modules do not share randomness.
    pub fn new(
        id: usize,
        workload: &str,
        config: AgentConfig,
        landmarks: Vec<String>,
        seed: u64,
        service: &InferenceService,
        scope: usize,
    ) -> Self {
        let agent_seed = seed ^ ((id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Each engine draws faults from its own stream (^ 0xfa0_) and
        // jitters its backoff from its own hash seed (^ 0xb0_), so fault
        // arrivals and retry schedules replay deterministically per module.
        let builder = EngineBuilder::new(
            config.fault_profile,
            config.retry_policy,
            agent_seed ^ 0xfa00,
            agent_seed ^ 0xb000,
        );
        // The planner additionally draws content corruptions from its own
        // semantic stream (^ 0x5e__) — a none() profile draws nothing.
        let planner_engine = service.register(
            builder.wrap(
                LlmEngine::new(config.planner.clone(), agent_seed ^ 0x01)
                    .with_kv_reuse(config.opts.kv_cache)
                    .with_semantic_faults(config.semantic_fault_profile, agent_seed ^ 0x5e01),
                0x01,
            ),
            scope,
        );
        let communication = config
            .communicator
            .as_ref()
            .filter(|_| config.toggles.communication)
            .map(|profile| {
                CommunicationModule::new(service.register(
                    builder.wrap(LlmEngine::new(profile.clone(), agent_seed ^ 0x02), 0x02),
                    scope,
                ))
            });
        let reflection = config
            .reflector
            .as_ref()
            .filter(|_| config.toggles.reflection)
            .map(|profile| {
                ReflectionModule::new(service.register(
                    builder.wrap(LlmEngine::new(profile.clone(), agent_seed ^ 0x03), 0x03),
                    scope,
                ))
            });
        let execution = if config.toggles.execution {
            ExecutionModule::controller_configured(
                agent_seed ^ 0x04,
                config.exec_compute_scale,
                config.actuator_reliability,
            )
            .with_trajectory_planner(config.trajectory_planner)
            .with_grasp_pipeline(config.grasp_pipeline)
        } else {
            ExecutionModule::llm_micro(agent_seed ^ 0x04, config.planner.base_capability)
        };
        let memory = MemoryModule::new(
            config.toggles.memory,
            config.memory_capacity,
            config.opts.dual_memory,
            config.opts.summarization,
            landmarks,
        )
        .with_retrieval_mode(config.retrieval_mode);
        ModularAgent {
            id,
            sensing: SensingModule::new(config.encoder.clone(), agent_seed ^ 0x05),
            memory,
            planning: PlanningModule::new(planner_engine),
            communication,
            reflection,
            execution,
            map: WorldMap::new(),
            preamble: system_preamble(workload, "planning"),
            config,
            last_failure: None,
            plan_budget: 0,
            blacklist: HashMap::new(),
            last_broadcast: EntitySet::default(),
            inbox: Vec::new(),
            failure_streak: 0,
            last_plan: None,
            peer_last_heard: Vec::new(),
            suspected: HashSet::new(),
            memory_buf: String::new(),
        }
    }

    /// Filters subgoals to those the agent can meaningfully plan: every
    /// referenced entity passes `knows`, and the subgoal is not blacklisted
    /// at `step`. The per-step hot path asks
    /// [`crate::modules::MemoryModule::knows`] per referenced entity rather
    /// than cloning every known entity into a fresh `HashSet` first, and
    /// matches blacklist keys against each subgoal's `Display` output
    /// without rendering it. Call [`ModularAgent::expire_blacklist`] for
    /// the step first, so an expired entry costs nothing.
    pub fn filter_subgoals_with(
        &self,
        subgoals: Vec<Subgoal>,
        mut knows: impl FnMut(&Name) -> bool,
        step: usize,
    ) -> Vec<Subgoal> {
        subgoals
            .into_iter()
            .filter(|sg| {
                sg.entity_refs().into_iter().flatten().all(&mut knows)
                    && !self
                        .blacklist
                        .iter()
                        .any(|(key, &expiry)| expiry > step && displays_as(sg, key))
            })
            .collect()
    }

    /// Drops every blacklist entry that has expired by `step`. Steps only
    /// move forward, so a dropped entry could never block again.
    pub fn expire_blacklist(&mut self, step: usize) {
        self.blacklist.retain(|_, &mut expiry| expiry > step);
    }

    /// Blacklists a subgoal for `duration` steps from `step`.
    pub fn blacklist_subgoal(&mut self, subgoal: &Subgoal, step: usize, duration: usize) {
        self.blacklist.insert(subgoal.to_string(), step + duration);
    }

    /// Everything the agent knows now (memory plus this step's freshly
    /// perceived entities) and, name-sorted, what of it the agent has not
    /// broadcast: the and-not of the knowledge and
    /// [`ModularAgent::last_broadcast`]. Once the message carrying the
    /// delta is sent, the caller stores the knowledge as the new
    /// `last_broadcast`.
    pub fn knowledge_delta(&mut self, percept_entities: &[Name]) -> (EntitySet, Rc<[Name]>) {
        let knowledge = self.memory.knowledge(percept_entities);
        let delta = self.memory.names_not_in(&knowledge, &self.last_broadcast);
        (knowledge, delta)
    }
}

/// Whether `sg`'s `Display` output is exactly `key`, compared piece by
/// piece as it is written, so nothing is rendered into a buffer.
fn displays_as(sg: &Subgoal, key: &str) -> bool {
    /// The part of the key the output has not matched yet.
    struct Rest<'a>(&'a str);

    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }

    let mut rest = Rest(key);
    write!(rest, "{sg}").is_ok() && rest.0.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemoryCapacity, ModuleToggles};
    use crate::modules::RecordKind;
    use embodied_llm::ModelProfile;

    fn agent_with(toggles: ModuleToggles) -> ModularAgent {
        let mut config = AgentConfig::gpt4_modular();
        config.communicator = Some(ModelProfile::gpt4_api());
        config.toggles = toggles;
        config.memory_capacity = MemoryCapacity::Steps(3);
        ModularAgent::new(
            0,
            "TestSystem",
            config,
            vec!["room_0".into()],
            42,
            &InferenceService::default(),
            0,
        )
    }

    #[test]
    fn toggles_gate_module_construction() {
        let full = agent_with(ModuleToggles::all_on());
        assert!(full.communication.is_some());
        assert!(full.reflection.is_some());
        assert!(full.memory.is_enabled());

        let no_comm = agent_with(ModuleToggles::without_communication());
        assert!(no_comm.communication.is_none());

        let no_refl = agent_with(ModuleToggles::without_reflection());
        assert!(no_refl.reflection.is_none());

        let no_mem = agent_with(ModuleToggles::without_memory());
        assert!(!no_mem.memory.is_enabled());
    }

    #[test]
    fn knowledge_merges_memory_and_percept() {
        let mut agent = agent_with(ModuleToggles::all_on());
        let (known, _) = agent.knowledge_delta(&["apple_1".into()]);
        let contains = |name: &str| agent.memory.set_contains(&known, &name.into());
        assert!(contains("room_0")); // landmark
        assert!(contains("apple_1")); // fresh percept
        assert!(!contains("box_2"));
    }

    #[test]
    fn filter_drops_unknown_and_blacklisted() {
        let mut agent = agent_with(ModuleToggles::all_on());
        let known: HashSet<String> = ["apple_1".to_owned(), "room_0".to_owned()].into();
        let pick_apple = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let pick_ghost = Subgoal::Pick {
            object: "ghost_9".into(),
        };
        let knows = |e: &Name| known.contains(e.as_str());
        let filtered = agent.filter_subgoals_with(
            vec![pick_apple.clone(), pick_ghost, Subgoal::Explore],
            knows,
            5,
        );
        assert_eq!(filtered.len(), 2); // apple + explore

        agent.blacklist_subgoal(&pick_apple, 5, 4);
        agent.expire_blacklist(6);
        let filtered = agent.filter_subgoals_with(vec![pick_apple.clone()], knows, 6);
        assert!(filtered.is_empty(), "blacklisted until step 9");
        // The filter ignores an expired entry that is still in the map ...
        let filtered = agent.filter_subgoals_with(vec![pick_apple], knows, 9);
        assert_eq!(filtered.len(), 1, "blacklist expired");
        // ... and the purge drops it.
        agent.expire_blacklist(9);
        assert!(agent.blacklist.is_empty(), "expired entries are purged");

        // The key is the subgoal's text: a `GoTo` with the same target but
        // another cell is the same key, a different target is not.
        let goto = |target: &str, x| Subgoal::GoTo {
            target: target.into(),
            cell: embodied_exec::Cell::new(x, 0),
        };
        agent.blacklist_subgoal(&goto("room_0", 1), 10, 3);
        agent.expire_blacklist(11);
        let filtered = agent.filter_subgoals_with(
            vec![goto("room_0", 7), goto("room_01", 1), goto("room_", 1)],
            |_| true,
            11,
        );
        assert_eq!(filtered, vec![goto("room_01", 1), goto("room_", 1)]);
    }

    /// One dialogue round's bookkeeping: the delta it would carry, with
    /// the knowledge recorded as broadcast.
    fn broadcast(agent: &mut ModularAgent, percept: &[&str]) -> Vec<String> {
        let percept: Vec<Name> = percept.iter().map(|&e| e.into()).collect();
        let (knowledge, delta) = agent.knowledge_delta(&percept);
        agent.last_broadcast = knowledge;
        delta.iter().map(|e| e.to_string()).collect()
    }

    #[test]
    fn knowledge_delta_tracks_broadcasts() {
        let mut agent = agent_with(ModuleToggles::all_on());
        assert_eq!(
            broadcast(&mut agent, &["apple_1", "box_2"]),
            ["apple_1", "box_2", "room_0"]
        );
        assert!(broadcast(&mut agent, &["apple_1", "box_2"]).is_empty());
    }

    #[test]
    fn forgotten_entities_seen_again_reappear_in_the_delta() {
        let mut agent = agent_with(ModuleToggles::all_on());
        agent.memory.begin_step(1);
        agent.memory.store(
            RecordKind::Observation,
            "saw apple_1 and box_2",
            vec!["apple_1".into(), "box_2".into()],
        );
        assert_eq!(broadcast(&mut agent, &[]), ["apple_1", "box_2", "room_0"]);

        // Window expiry: both leave the 3-step window; the broadcast that
        // follows replaces the baseline with the smaller knowledge.
        agent.memory.begin_step(9);
        assert!(broadcast(&mut agent, &[]).is_empty());
        agent.memory.store(
            RecordKind::Observation,
            "saw apple_1",
            vec!["apple_1".into()],
        );
        assert_eq!(broadcast(&mut agent, &[]), ["apple_1"]);

        // A stale marker: apple_1 drops out, then a fresh percept of it
        // makes it news again.
        agent.memory.mark_stale("apple_1");
        assert!(broadcast(&mut agent, &[]).is_empty());
        assert_eq!(broadcast(&mut agent, &["apple_1"]), ["apple_1"]);
    }

    #[test]
    fn delta_names_are_name_sorted_whatever_the_interning_order() {
        let mut agent = agent_with(ModuleToggles::all_on());
        agent.memory.begin_step(1);
        for name in ["zeta_9", "mug_4", "alpha_1"] {
            agent
                .memory
                .store(RecordKind::Observation, name, vec![name.into()]);
        }
        assert_eq!(
            broadcast(&mut agent, &["crate_3", "beta_2"]),
            ["alpha_1", "beta_2", "crate_3", "mug_4", "room_0", "zeta_9"]
        );
    }
}
