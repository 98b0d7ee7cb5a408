//! # embodied-agents
//!
//! The subject of the reproduced paper: a framework of LLM-based embodied
//! agent systems built from six modules (sensing, planning, communication,
//! memory, reflection, execution), orchestrated in four paradigms
//! (single-agent modularized, centralized, decentralized, hybrid), and
//! instantiated as the 14-system workload suite of Table II.
//!
//! ```
//! use embodied_agents::{run_episode, workloads, RunOverrides};
//! use embodied_env::TaskDifficulty;
//!
//! let spec = workloads::find("DEPS").expect("DEPS is in the suite");
//! let overrides = RunOverrides {
//!     difficulty: Some(TaskDifficulty::Easy),
//!     ..Default::default()
//! };
//! let report = run_episode(&spec, &overrides, 42);
//! assert!(report.steps > 0);
//! println!("DEPS: {} steps, {}", report.steps, report.latency);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accounts;
mod agent;
pub mod config;
#[cfg(test)]
mod differential;
pub mod endtoend;
pub mod faults;
pub mod guardrail;
pub mod modules;
mod orchestrator;
pub mod prompt;
pub mod recovery;
mod runner;
mod system;
pub mod workloads;

pub use agent::ModularAgent;
pub use config::{AgentConfig, MemoryCapacity, ModuleToggles, Optimizations};
pub use embodied_llm::{FleetConfig, FleetSummary};
pub use faults::{AgentFaultProfile, ChannelProfile};
pub use guardrail::{PlanValidator, Proposal, RepairPolicy, ValidationError};
pub use orchestrator::Paradigm;
pub use recovery::RecoveryPolicy;
pub use runner::{
    episode_seed, run_episode, run_episode_traced, run_fleet, run_many, FleetReport, RunOverrides,
    EPISODE_SEED_STRIDE,
};
pub use system::EmbodiedSystem;
pub use workloads::{EnvKind, WorkloadSpec};
