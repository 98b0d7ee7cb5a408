//! # embodied-env
//!
//! Task environments for the embodied-agent workload suite: micro-simulators
//! with the same task *structure* as the paper's testbeds (TDW-MAT, C-WAH,
//! CuisineWorld, Minecraft, BoxNet/Warehouse/BoxLift, RoCoBench, Franka
//! Kitchen), built on the [`embodied_exec`] planners.
//!
//! Every environment implements [`Environment`]:
//!
//! * partial, egocentric [`Observation`]s (memory has to earn its keep);
//! * an **oracle** interface — the ground-truth useful next [`Subgoal`]s —
//!   which the simulated LLM follows only when its sampled reasoning is
//!   correct, plus a full candidate menu for when it is not;
//! * `execute`, which drives real low-level planners (A*, RRT, MLP, grasp)
//!   and bills their work as simulated time.
//!
//! ```
//! use embodied_env::{Environment, LowLevel, TaskDifficulty, TransportEnv};
//!
//! let mut env = TransportEnv::new(TaskDifficulty::Easy, 1, 42);
//! let mut low = LowLevel::controller(7);
//! // A perfect planner: always follow the oracle.
//! let mut steps = 0;
//! while !env.is_complete() && steps < 200 {
//!     let sg = env.oracle_subgoals(0).first().cloned()
//!         .unwrap_or(embodied_env::Subgoal::Explore);
//!     env.execute(0, &sg, &mut low);
//!     steps += 1;
//! }
//! assert!(env.is_complete());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod action;
mod affordance;
mod alfworld;
mod boxworld;
mod craft;
mod cuisine;
mod env_faults;
mod environment;
mod household;
mod kitchen;
mod manipulation;
mod name;
mod observation;
mod transport;
mod world;

pub use action::{ExecOutcome, FailureKind, Subgoal, SubgoalKind};
pub use affordance::AffordanceSet;
pub use alfworld::AlfWorldEnv;
pub use boxworld::{BoxVariant, BoxWorldEnv};
pub use craft::CraftEnv;
pub use cuisine::CuisineEnv;
pub use env_faults::{EnvFaultProfile, FaultyEnv};
pub use environment::{Environment, LowLevel, TaskDifficulty, TrajectoryPlanner};
pub use household::HouseholdEnv;
pub use kitchen::KitchenEnv;
pub use manipulation::ManipulationEnv;
pub use name::{Name, NameHasher};
#[doc(hidden)]
pub use observation::WordText;
pub use observation::{Observation, Part, Phrase, SeenEntity, Word};
pub use transport::TransportEnv;
pub use world::{GridWorld, Room, Route};
