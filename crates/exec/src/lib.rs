//! # embodied-exec
//!
//! Low-level execution substrate: the geometric planners, policy networks,
//! and actuation models the paper's Table II lists as "execution modules"
//! (A-star, RRT, MLP, AnyGrasp, action lists).
//!
//! Unlike the LLM modules — whose latency is analytic — these planners do
//! *real* work (node expansions, tree growth, forward passes) and report it,
//! so execution cost in the figures is measured rather than assumed:
//!
//! * [`astar`] over any [`NavGrid`] — CoELA/COHERENT navigation;
//! * [`plan_rrt`] (RRT / RRT*) in a continuous [`Workspace`] — RoCo and
//!   COHERENT arm trajectories;
//! * [`MlpPolicy`] — EmbodiedGPT's low-level control head;
//! * [`GraspPlanner`] — DaDu-E's AnyGrasp-style grasp loop;
//! * [`Actuator`] — retrying primitive execution;
//! * [`latency`] — work → simulated-time conversion constants.
//!
//! ```
//! use embodied_exec::{astar, latency, Cell, DenseGrid};
//!
//! let grid = DenseGrid::open(12, 12);
//! let plan = astar(&grid, Cell::new(0, 0), Cell::new(11, 11)).unwrap();
//! let compute = latency::astar_compute(plan.nodes_expanded);
//! let motion = latency::grid_motion(plan.length());
//! assert!(motion > compute); // moving dominates planning on easy maps
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod astar;
mod controller;
mod grasp;
mod grid;
pub mod latency;
mod mlp;
mod rrt;

pub use astar::{astar, astar_in, AstarScratch, GridPlan, PlanError};
pub use controller::{ActuationResult, Actuator};
pub use grasp::{GraspCandidate, GraspOutcome, GraspPlanner, GraspTarget};
pub use grid::{Cell, DenseGrid, NavGrid};
pub use mlp::MlpPolicy;
pub use rrt::{
    nearest, plan_rrt, plan_rrt_connect, smooth_trajectory, Circle, Point, RrtError, RrtParams,
    Trajectory, Workspace,
};
