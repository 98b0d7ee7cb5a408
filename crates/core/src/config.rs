//! Agent/system configuration: module toggles (Fig. 3), memory capacity
//! (Fig. 5), model overrides (Fig. 4), and the paper's recommended
//! optimizations (Recs. 1–10) as switchable flags.

use crate::guardrail::RepairPolicy;
use embodied_llm::{
    EncoderProfile, FaultProfile, ModelProfile, Quantization, RetryPolicy, SemanticFaultProfile,
    ServingConfig,
};

/// Which building blocks are enabled — the knobs of the module-sensitivity
/// study (Fig. 3). Sensing and planning are never disabled: an agent that
/// cannot perceive or decide is not a system, it is a brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleToggles {
    /// Inter-agent communication module.
    pub communication: bool,
    /// Memory module (observation / dialogue / action stores).
    pub memory: bool,
    /// Reflection module.
    pub reflection: bool,
    /// Low-level execution module (disabling forces the LLM to micro-manage
    /// primitives, per the paper §IV-B).
    pub execution: bool,
}

impl Default for ModuleToggles {
    fn default() -> Self {
        ModuleToggles {
            communication: true,
            memory: true,
            reflection: true,
            execution: true,
        }
    }
}

impl ModuleToggles {
    /// All modules on.
    pub fn all_on() -> Self {
        Self::default()
    }

    /// Convenience: all on except communication.
    pub fn without_communication() -> Self {
        ModuleToggles {
            communication: false,
            ..Self::default()
        }
    }

    /// Convenience: all on except memory.
    pub fn without_memory() -> Self {
        ModuleToggles {
            memory: false,
            ..Self::default()
        }
    }

    /// Convenience: all on except reflection.
    pub fn without_reflection() -> Self {
        ModuleToggles {
            reflection: false,
            ..Self::default()
        }
    }

    /// Convenience: all on except execution.
    pub fn without_execution() -> Self {
        ModuleToggles {
            execution: false,
            ..Self::default()
        }
    }
}

/// How much past-step information the memory module retains (Fig. 5's
/// sweep variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryCapacity {
    /// Remember nothing beyond the current observation.
    None,
    /// Sliding window over the last `n` steps.
    Steps(usize),
    /// Full state-action history (the paper's inconsistency regime).
    Full,
}

impl Default for MemoryCapacity {
    fn default() -> Self {
        MemoryCapacity::Steps(8)
    }
}

impl MemoryCapacity {
    /// Window size for a given episode length.
    pub fn window(&self, history_len: usize) -> usize {
        match self {
            MemoryCapacity::None => 0,
            MemoryCapacity::Steps(n) => (*n).min(history_len),
            MemoryCapacity::Full => history_len,
        }
    }
}

/// The paper's optimization recommendations as independent switches, used by
/// the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizations {
    /// Rec. 1: aggregate same-step LLM queries into one batched call.
    pub batching: bool,
    /// Rec. 1: AWQ weight quantization for local models.
    pub quantization: Quantization,
    /// Rec. 1: KV-cache prefix reuse across consecutive calls.
    pub kv_cache: bool,
    /// Rec. 4: pose decisions as multiple-choice questions.
    pub multiple_choice: bool,
    /// Rec. 5: dual long-term/short-term memory structure.
    pub dual_memory: bool,
    /// Rec. 6: summarize dialogue/memory context instead of concatenating.
    pub summarization: bool,
    /// Rec. 7: one high-level plan guides up to this many consecutive
    /// low-level actions (1 = replan every step, the unoptimized default).
    pub plan_horizon: usize,
    /// Rec. 8: planning-then-communication — generate a message only when
    /// the plan actually needs coordination.
    pub plan_then_communicate: bool,
    /// Rec. 9: hierarchical clustering — agents cooperate centrally within
    /// clusters of this size, decentrally across clusters (0 = off).
    pub cluster_size: usize,
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations {
            batching: false,
            quantization: Quantization::None,
            kv_cache: false,
            multiple_choice: false,
            dual_memory: false,
            summarization: false,
            plan_horizon: 1,
            plan_then_communicate: false,
            cluster_size: 0,
        }
    }
}

/// Full per-agent configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Planning model.
    pub planner: ModelProfile,
    /// Communication model (absent for single-agent systems).
    pub communicator: Option<ModelProfile>,
    /// Reflection model (absent when the workload has no reflection).
    pub reflector: Option<ModelProfile>,
    /// Perception front-end (absent for symbolic sensing).
    pub encoder: Option<EncoderProfile>,
    /// Whether the workload runs a separate LLM action-selection pass after
    /// planning (CoELA's third run per step).
    pub separate_action_selection: bool,
    /// Multiplier on low-level planning compute (RoCo's joint-space
    /// trajectory planning bills `num_arms ×` the work).
    pub exec_compute_scale: f64,
    /// Sampling-based planner for arm trajectories (design-choice ablation).
    pub trajectory_planner: embodied_env::TrajectoryPlanner,
    /// Per-attempt actuation success probability (failure injection;
    /// default 0.97 — a well-calibrated testbed).
    pub actuator_reliability: f64,
    /// Pick objects through the AnyGrasp-style candidate pipeline
    /// (DaDu-E's execution module).
    pub grasp_pipeline: bool,
    /// Centralized workloads with a proposal-feedback-adjustment loop
    /// (COHERENT) run an extra message-extraction call per agent per step.
    pub central_feedback_extraction: bool,
    /// Module toggles.
    pub toggles: ModuleToggles,
    /// Memory capacity.
    pub memory_capacity: MemoryCapacity,
    /// Memory retrieval index (multimodal vs. text-embedding-only).
    pub retrieval_mode: crate::modules::RetrievalMode,
    /// Optimization switches.
    pub opts: Optimizations,
    /// Injected-fault profile applied to every LLM engine this config
    /// builds (agents and, for centralized paradigms, the central planner).
    /// Defaults to [`FaultProfile::none()`] — faults are strictly opt-in.
    pub fault_profile: FaultProfile,
    /// Retry/backoff policy the resilience wrapper applies around each
    /// engine.
    pub retry_policy: RetryPolicy,
    /// Agent-process fault schedule (crash/stall/recover, coordinator
    /// failover). Defaults to [`crate::faults::AgentFaultProfile::none()`]
    /// — agent faults are strictly opt-in.
    pub agent_fault_profile: crate::faults::AgentFaultProfile,
    /// Message-channel fault profile (drop/duplicate/corrupt/delay/
    /// partition). Defaults to [`crate::faults::ChannelProfile::none()`].
    pub channel_profile: crate::faults::ChannelProfile,
    /// Content-plane (semantic) fault profile stamped onto planning-engine
    /// responses. Defaults to [`SemanticFaultProfile::none()`] — content
    /// faults are strictly opt-in.
    pub semantic_fault_profile: SemanticFaultProfile,
    /// Guardrail repair policy applied to every LLM plan decision before
    /// actuation. Defaults to [`RepairPolicy::Off`] — validation is
    /// strictly opt-in.
    pub repair_policy: RepairPolicy,
    /// Shared-inference-service scheduling knobs (cross-tenant batching,
    /// backend concurrency limit, replica count) plus the serving fault
    /// plane and its SLO resilience tier (replica crashes/brownouts,
    /// deadlines, hedging, load shedding). Defaults to
    /// [`ServingConfig::disabled()`] — a pure pass-through under which
    /// every call takes the legacy path and draw order, and the serving
    /// fault injector draws nothing.
    pub serving: ServingConfig,
    /// Embodied fault plane: perception faults (entity dropout, phantoms,
    /// stale frames, landmark misreads) and actuation faults (silent
    /// failures, partial slips, actuator downtime) applied by wrapping the
    /// environment in [`embodied_env::FaultyEnv`]. Defaults to
    /// [`embodied_env::EnvFaultProfile::none()`] — the bare environment
    /// runs unwrapped and the env-fault RNG stream draws nothing.
    pub env_fault_profile: embodied_env::EnvFaultProfile,
    /// Closed-loop recovery stack (watchdog re-observation, bounded action
    /// retry with replan escalation, re-ground-on-phantom). Defaults to
    /// [`crate::recovery::RecoveryPolicy::Off`] — recovery is strictly
    /// opt-in.
    pub recovery_policy: crate::recovery::RecoveryPolicy,
}

impl AgentConfig {
    /// A minimal single-agent GPT-4 configuration, used in tests and as a
    /// base for workload specs.
    pub fn gpt4_modular() -> Self {
        AgentConfig {
            planner: ModelProfile::gpt4_api(),
            communicator: None,
            reflector: Some(ModelProfile::gpt4_api()),
            encoder: Some(EncoderProfile::vit()),
            separate_action_selection: false,
            exec_compute_scale: 1.0,
            trajectory_planner: embodied_env::TrajectoryPlanner::default(),
            actuator_reliability: 0.97,
            grasp_pipeline: false,
            central_feedback_extraction: false,
            toggles: ModuleToggles::default(),
            memory_capacity: MemoryCapacity::default(),
            retrieval_mode: crate::modules::RetrievalMode::default(),
            opts: Optimizations::default(),
            fault_profile: FaultProfile::none(),
            retry_policy: RetryPolicy::standard(),
            agent_fault_profile: crate::faults::AgentFaultProfile::none(),
            channel_profile: crate::faults::ChannelProfile::none(),
            semantic_fault_profile: SemanticFaultProfile::none(),
            repair_policy: RepairPolicy::Off,
            serving: ServingConfig::disabled(),
            env_fault_profile: embodied_env::EnvFaultProfile::none(),
            recovery_policy: crate::recovery::RecoveryPolicy::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_toggles_all_on() {
        let t = ModuleToggles::default();
        assert!(t.communication && t.memory && t.reflection && t.execution);
    }

    #[test]
    fn convenience_toggles_disable_exactly_one() {
        assert!(!ModuleToggles::without_communication().communication);
        assert!(ModuleToggles::without_communication().memory);
        assert!(!ModuleToggles::without_memory().memory);
        assert!(!ModuleToggles::without_reflection().reflection);
        assert!(!ModuleToggles::without_execution().execution);
    }

    #[test]
    fn memory_windows() {
        assert_eq!(MemoryCapacity::None.window(100), 0);
        assert_eq!(MemoryCapacity::Steps(8).window(100), 8);
        assert_eq!(MemoryCapacity::Steps(8).window(3), 3);
        assert_eq!(MemoryCapacity::Full.window(100), 100);
    }

    #[test]
    fn default_optimizations_are_all_off() {
        let o = Optimizations::default();
        assert!(!o.batching && !o.multiple_choice && !o.dual_memory);
        assert!(!o.summarization && !o.plan_then_communicate);
        assert_eq!(o.plan_horizon, 1);
        assert_eq!(o.cluster_size, 0);
        assert_eq!(o.quantization, Quantization::None);
    }

    #[test]
    fn default_serving_is_passthrough() {
        // The byte-identity contract hinges on this default: no batching,
        // no concurrency limit, no scheduling side effects.
        assert!(AgentConfig::gpt4_modular().serving.is_passthrough());
    }

    #[test]
    fn base_config_is_complete() {
        let c = AgentConfig::gpt4_modular();
        assert!(c.reflector.is_some());
        assert!(c.encoder.is_some());
        assert!(c.communicator.is_none());
    }
}
