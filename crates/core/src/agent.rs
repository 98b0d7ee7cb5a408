//! A modular embodied agent: the composition of the six building blocks
//! (Fig. 1a) plus the per-agent episode state the orchestrators drive.

use crate::config::AgentConfig;
use crate::modules::{
    CommunicationModule, ExecutionModule, MemoryModule, PlanningModule, ReflectionModule,
    SensingModule, WorldMap,
};
use crate::prompt::{system_preamble, Counted};
use embodied_env::Subgoal;
use embodied_llm::{EngineBuilder, InferenceService, LlmEngine, TenantOwner};
use std::collections::{HashMap, HashSet};

/// One embodied agent assembled from its configured modules.
///
/// Every LLM-backed module holds an [`embodied_llm::EngineHandle`] onto
/// the system's shared [`InferenceService`] rather than a private engine;
/// the service keeps the per-tenant usage ledger this agent's accounting
/// rolls up from.
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
    /// Last failed subgoal and its outcome, until reflection clears it —
    /// feeds the planner's perseveration bias and the reflection prompt.
    pub last_failure: Option<(Subgoal, embodied_env::ExecOutcome)>,
    /// Remaining steps the current high-level plan still covers (Rec. 7).
    pub plan_budget: usize,
    /// Subgoals reflection has blacklisted, mapped to expiry step.
    pub blacklist: HashMap<String, usize>,
    /// Entity set at the time of this agent's last broadcast (computes the
    /// knowledge delta carried by the next message).
    pub last_broadcast: HashSet<String>,
    /// Messages received this round, verbatim with their token counts, for
    /// the dialogue section.
    pub inbox: Vec<Counted<String>>,
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
    /// allocated once per episode, rewritten in place every step.
    pub memory_buf: String,
    /// Reusable render buffer for the newline-joined inbox (the dialogue
    /// section of communication and planning prompts).
    pub dialogue_buf: String,
    /// The shared inference service this agent's engines are registered
    /// with (per-tenant ledger for usage/resilience rollups).
    service: InferenceService,
}

impl ModularAgent {
    /// Assembles an agent for a workload.
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
        let owner = TenantOwner::Agent(id);
        // The planner additionally draws content corruptions from its own
        // semantic stream (^ 0x5e__) — a none() profile draws nothing.
        let planner_engine = service.register(
            builder.wrap(
                LlmEngine::new(config.planner.clone(), agent_seed ^ 0x01)
                    .with_kv_reuse(config.opts.kv_cache)
                    .with_semantic_faults(config.semantic_fault_profile, agent_seed ^ 0x5e01),
                0x01,
            ),
            owner,
        );
        let communication = config
            .communicator
            .as_ref()
            .filter(|_| config.toggles.communication)
            .map(|profile| {
                CommunicationModule::new(service.register(
                    builder.wrap(LlmEngine::new(profile.clone(), agent_seed ^ 0x02), 0x02),
                    owner,
                ))
            });
        let reflection = config
            .reflector
            .as_ref()
            .filter(|_| config.toggles.reflection)
            .map(|profile| {
                ReflectionModule::new(service.register(
                    builder.wrap(LlmEngine::new(profile.clone(), agent_seed ^ 0x03), 0x03),
                    owner,
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
            preamble: Counted::new(system_preamble(workload, "planning")),
            config,
            last_failure: None,
            plan_budget: 0,
            blacklist: HashMap::new(),
            last_broadcast: HashSet::new(),
            inbox: Vec::new(),
            failure_streak: 0,
            last_plan: None,
            peer_last_heard: Vec::new(),
            suspected: HashSet::new(),
            memory_buf: String::new(),
            dialogue_buf: String::new(),
            service: service.clone(),
        }
    }

    /// Renders the inbox into [`Self::dialogue_buf`] (newline-joined, same
    /// bytes as `inbox.join("\n")`) reusing the buffer's capacity across
    /// steps, and returns its token count: the sum of the messages' counts,
    /// since the newlines between them are token seams.
    pub fn render_dialogue(&mut self) -> u64 {
        self.dialogue_buf.clear();
        let mut tokens = 0;
        for (k, msg) in self.inbox.iter().enumerate() {
            if k > 0 {
                self.dialogue_buf.push('\n');
            }
            self.dialogue_buf.push_str(msg.text());
            tokens += msg.tokens();
        }
        tokens
    }

    /// Everything the agent currently knows about, given this step's
    /// freshly perceived entities.
    pub fn knowledge(&self, percept_entities: &[String]) -> HashSet<String> {
        let mut known = self.memory.known_entities();
        known.extend(percept_entities.iter().cloned());
        known
    }

    /// Filters subgoals to those the agent can meaningfully plan
    /// (referenced entities known, not blacklisted).
    pub fn filter_subgoals(
        &self,
        subgoals: Vec<Subgoal>,
        knowledge: &HashSet<String>,
        step: usize,
    ) -> Vec<Subgoal> {
        self.filter_subgoals_with(subgoals, |e| knowledge.contains(e), step)
    }

    /// Like [`Self::filter_subgoals`], but against a point-query predicate
    /// instead of a materialized knowledge set. The per-step hot path asks
    /// [`crate::modules::MemoryModule::knows`] per referenced entity rather
    /// than cloning every known entity into a fresh `HashSet` first; the
    /// blacklist key is only rendered while a blacklist is actually live.
    pub fn filter_subgoals_with(
        &self,
        subgoals: Vec<Subgoal>,
        mut knows: impl FnMut(&str) -> bool,
        step: usize,
    ) -> Vec<Subgoal> {
        subgoals
            .into_iter()
            .filter(|sg| {
                sg.entity_refs().into_iter().flatten().all(&mut knows)
                    && (self.blacklist.is_empty()
                        || self
                            .blacklist
                            .get(&sg.to_string())
                            .is_none_or(|&expiry| expiry <= step))
            })
            .collect()
    }

    /// Blacklists a subgoal for `duration` steps from `step`.
    pub fn blacklist_subgoal(&mut self, subgoal: &Subgoal, step: usize, duration: usize) {
        self.blacklist.insert(subgoal.to_string(), step + duration);
    }

    /// Knowledge the agent has gained since its last broadcast.
    pub fn knowledge_delta(&self, knowledge: &HashSet<String>) -> Vec<String> {
        let mut delta: Vec<String> = knowledge
            .difference(&self.last_broadcast)
            .cloned()
            .collect();
        delta.sort_unstable();
        delta
    }

    /// Total LLM usage across this agent's engines, read from the shared
    /// service's per-tenant ledger — registering a new engine enrolls it
    /// automatically, so accounting cannot silently drop a module.
    pub fn total_usage(&self) -> embodied_profiler::TokenStats {
        self.service.usage_for(TenantOwner::Agent(self.id))
    }

    /// Total fault/retry accounting across this agent's engines, read
    /// from the shared service's per-tenant ledger.
    pub fn total_resilience(&self) -> embodied_profiler::ResilienceStats {
        self.service.resilience_for(TenantOwner::Agent(self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModuleToggles;
    use embodied_llm::ModelProfile;

    fn agent_with(toggles: ModuleToggles) -> ModularAgent {
        let mut config = AgentConfig::gpt4_modular();
        config.communicator = Some(ModelProfile::gpt4_api());
        config.toggles = toggles;
        ModularAgent::new(
            0,
            "TestSystem",
            config,
            vec!["room_0".into()],
            42,
            &InferenceService::default(),
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
        let agent = agent_with(ModuleToggles::all_on());
        let known = agent.knowledge(&["apple_1".into()]);
        assert!(known.contains("room_0")); // landmark
        assert!(known.contains("apple_1")); // fresh percept
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
        let filtered = agent.filter_subgoals(
            vec![pick_apple.clone(), pick_ghost, Subgoal::Explore],
            &known,
            5,
        );
        assert_eq!(filtered.len(), 2); // apple + explore

        agent.blacklist_subgoal(&pick_apple, 5, 4);
        let filtered = agent.filter_subgoals(vec![pick_apple.clone()], &known, 6);
        assert!(filtered.is_empty(), "blacklisted until step 9");
        let filtered = agent.filter_subgoals(vec![pick_apple], &known, 9);
        assert_eq!(filtered.len(), 1, "blacklist expired");
    }

    #[test]
    fn knowledge_delta_tracks_broadcasts() {
        let mut agent = agent_with(ModuleToggles::all_on());
        let known: HashSet<String> = ["apple_1".to_owned(), "box_2".to_owned()].into();
        assert_eq!(agent.knowledge_delta(&known).len(), 2);
        agent.last_broadcast = known.clone();
        assert!(agent.knowledge_delta(&known).is_empty());
    }

    #[test]
    fn usage_covers_all_engines() {
        let agent = agent_with(ModuleToggles::all_on());
        assert_eq!(agent.total_usage().calls, 0);
    }
}
