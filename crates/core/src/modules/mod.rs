//! The six building-block modules of an embodied agent (paper §II-A).

mod communication;
mod execution;
mod mapping;
mod memory;
mod planning;
mod reflection;
mod sensing;

pub use communication::{CommunicationModule, OutgoingMessage};
pub use execution::{ExecMode, ExecutionModule, ExecutionReport};
pub use mapping::{LocationKnowledge, WorldMap};
pub use memory::{
    no_entities, EntitySet, MemoryModule, MemoryRecord, RecordKind, RetrievalMode, RetrievalStats,
};
pub use planning::{PlanContext, PlanDecision, PlanningModule};
pub use reflection::{ReflectionModule, ReflectionVerdict};
pub use sensing::{Percept, SensingModule};
