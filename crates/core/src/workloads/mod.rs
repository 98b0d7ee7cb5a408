//! The embodied agent workload suite (paper Table II): 14 systems spanning
//! the four paradigms, each specified by its module composition, models,
//! environment, and metadata.

mod registry;
mod taxonomy;

pub use registry::{find, registry};
pub use taxonomy::{taxonomy, ActionType, TaxonomyEntry, TaxonomyParadigm};

use crate::config::AgentConfig;
use crate::orchestrator::Paradigm;
use crate::system::EmbodiedSystem;
use embodied_env::{
    AlfWorldEnv, BoxVariant, BoxWorldEnv, CraftEnv, CuisineEnv, Environment, HouseholdEnv,
    KitchenEnv, ManipulationEnv, TaskDifficulty, TransportEnv,
};
use embodied_llm::InferenceService;

/// Which task environment a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// TDW-MAT-style transport.
    Transport,
    /// C-WAH-style household.
    Household,
    /// CuisineWorld-style cooking.
    Cuisine,
    /// BoxNet/Warehouse/BoxLift family.
    BoxWorld(BoxVariant),
    /// Minecraft-style crafting.
    Craft,
    /// RoCoBench-style manipulation.
    Manipulation,
    /// Franka-Kitchen-style skills.
    Kitchen,
    /// ALFWorld-style hidden-object household tasks (DEPS's third dataset).
    AlfWorld,
}

impl EnvKind {
    /// Instantiates the environment.
    pub fn build(
        self,
        difficulty: TaskDifficulty,
        num_agents: usize,
        seed: u64,
    ) -> Box<dyn Environment> {
        match self {
            EnvKind::Transport => Box::new(TransportEnv::new(difficulty, num_agents, seed)),
            EnvKind::Household => Box::new(HouseholdEnv::new(difficulty, num_agents, seed)),
            EnvKind::Cuisine => Box::new(CuisineEnv::new(difficulty, num_agents, seed)),
            EnvKind::BoxWorld(variant) => {
                Box::new(BoxWorldEnv::new(variant, difficulty, num_agents, seed))
            }
            EnvKind::Craft => Box::new(CraftEnv::new(difficulty, num_agents, seed)),
            EnvKind::Manipulation => Box::new(ManipulationEnv::new(difficulty, num_agents, seed)),
            EnvKind::Kitchen => Box::new(KitchenEnv::new(difficulty, num_agents, seed)),
            EnvKind::AlfWorld => Box::new(AlfWorldEnv::new(difficulty, num_agents, seed)),
        }
    }
}

/// One suite member: everything needed to instantiate and document it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// System name, e.g. `"CoELA"`.
    pub name: &'static str,
    /// Cooperation paradigm.
    pub paradigm: Paradigm,
    /// Task environment.
    pub env: EnvKind,
    /// Default team size.
    pub default_agents: usize,
    /// Module composition and models.
    pub config: AgentConfig,
    /// Application description (Table II column).
    pub application: &'static str,
    /// Datasets / tasks description (Table II column).
    pub datasets: &'static str,
    /// Execution-module label (Table II column).
    pub exec_label: &'static str,
}

impl WorkloadSpec {
    /// Whether this is a multi-agent system.
    pub fn is_multi_agent(&self) -> bool {
        !matches!(self.paradigm, Paradigm::SingleModular)
    }

    /// Builds the environment at the workload's defaults.
    pub fn build_env(
        &self,
        difficulty: TaskDifficulty,
        num_agents: usize,
        seed: u64,
    ) -> Box<dyn Environment> {
        let agents = if self.is_multi_agent() {
            num_agents.max(1)
        } else {
            1
        };
        self.env.build(difficulty, agents, seed)
    }

    /// Assembles a ready-to-run system for this workload on its own
    /// serving service. A non-`none()` embodied fault profile wraps the
    /// environment in [`embodied_env::FaultyEnv`]; the default leaves the
    /// bare environment unwrapped, so fault-free runs are byte-identical to
    /// the pre-fault-plane system.
    pub fn build_system(
        &self,
        config: &AgentConfig,
        difficulty: TaskDifficulty,
        num_agents: usize,
        seed: u64,
    ) -> EmbodiedSystem {
        let service = InferenceService::with_seed(config.serving, seed);
        self.build_system_on(config, difficulty, num_agents, seed, &service, 0)
    }

    /// [`Self::build_system`] with the episode's engines registered into
    /// scope `scope` of `service`: its own service for a solo episode, the
    /// fleet's shared one for fleet episode `scope`.
    pub(crate) fn build_system_on(
        &self,
        config: &AgentConfig,
        difficulty: TaskDifficulty,
        num_agents: usize,
        seed: u64,
        service: &InferenceService,
        scope: usize,
    ) -> EmbodiedSystem {
        let mut env = self.build_env(difficulty, num_agents, seed);
        if !config.env_fault_profile.is_none() {
            env = Box::new(embodied_env::FaultyEnv::new(
                env,
                config.env_fault_profile,
                seed,
            ));
        }
        EmbodiedSystem::with_service(
            self.name,
            env,
            config,
            self.paradigm,
            seed,
            service.clone(),
            scope,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_fourteen_members() {
        assert_eq!(registry().len(), 14);
    }

    #[test]
    fn registry_composition_matches_paper() {
        let specs = registry();
        let singles = specs
            .iter()
            .filter(|s| s.paradigm == Paradigm::SingleModular)
            .count();
        let centralized = specs
            .iter()
            .filter(|s| s.paradigm == Paradigm::Centralized)
            .count();
        let decentralized = specs
            .iter()
            .filter(|s| matches!(s.paradigm, Paradigm::Decentralized | Paradigm::Hybrid))
            .count();
        assert_eq!(singles, 5, "five single-agent systems");
        assert_eq!(centralized, 4, "four centralized systems");
        assert_eq!(decentralized, 5, "five decentralized systems (incl. HMAS)");
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in registry() {
            assert!(seen.insert(s.name), "duplicate workload {}", s.name);
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("coela").is_some());
        assert!(find("CoELA").is_some());
        assert!(find("JARVIS-1").is_some());
        assert!(find("NotASystem").is_none());
    }

    #[test]
    fn single_agent_envs_force_one_agent() {
        let jarvis = find("JARVIS-1").unwrap();
        let env = jarvis.build_env(TaskDifficulty::Easy, 5, 0);
        assert_eq!(env.num_agents(), 1);
    }

    #[test]
    fn multi_agent_envs_scale() {
        let coela = find("CoELA").unwrap();
        let env = coela.build_env(TaskDifficulty::Easy, 4, 0);
        assert_eq!(env.num_agents(), 4);
    }

    #[test]
    fn module_composition_respects_table2() {
        // CoELA: sensing+plan+comm+memory, no reflection, action selection.
        let coela = find("CoELA").unwrap();
        assert!(coela.config.communicator.is_some());
        assert!(coela.config.reflector.is_none());
        assert!(coela.config.separate_action_selection);
        // EmbodiedGPT: no comm, no memory, no reflection.
        let egpt = find("EmbodiedGPT").unwrap();
        assert!(egpt.config.communicator.is_none());
        assert!(egpt.config.reflector.is_none());
        assert!(!egpt.config.toggles.memory);
        // JARVIS-1: memory + reflection, no comm.
        let jarvis = find("JARVIS-1").unwrap();
        assert!(jarvis.config.reflector.is_some());
        assert!(jarvis.config.toggles.memory);
        assert!(jarvis.config.communicator.is_none());
        // HMAS is the hybrid paradigm.
        assert_eq!(find("HMAS").unwrap().paradigm, Paradigm::Hybrid);
    }
}
