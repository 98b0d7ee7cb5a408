//! The six building-block modules of an embodied agent (paper §II-A), plus
//! the finer-grained phases used when attributing LLM latency.

use std::fmt;

/// One of the six building blocks of an embodied AI agent.
///
/// The paper's latency breakdowns (Fig. 2a) and sensitivity study (Fig. 3)
/// are reported per module, so every span recorded by the suite is tagged
/// with one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModuleKind {
    /// Perceives the environment and extracts percepts for reasoning.
    Sensing,
    /// Decomposes the long-horizon task and emits high-level plans.
    Planning,
    /// Generates and comprehends inter-agent messages.
    Communication,
    /// Stores and retrieves observation / dialogue / action records.
    Memory,
    /// Verifies outcomes against expectations and triggers replanning.
    Reflection,
    /// Turns high-level plans into low-level primitive actions.
    Execution,
}

impl ModuleKind {
    /// All six modules in canonical (paper) order.
    pub const ALL: [ModuleKind; 6] = [
        ModuleKind::Sensing,
        ModuleKind::Planning,
        ModuleKind::Communication,
        ModuleKind::Memory,
        ModuleKind::Reflection,
        ModuleKind::Execution,
    ];

    /// Short column label used in rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            ModuleKind::Sensing => "Sense",
            ModuleKind::Planning => "Plan",
            ModuleKind::Communication => "Comm",
            ModuleKind::Memory => "Mem",
            ModuleKind::Reflection => "Refl",
            ModuleKind::Execution => "Exec",
        }
    }

    /// Whether the module is typically backed by an LLM in the suite.
    ///
    /// The paper attributes ~70% of per-step latency to LLM-backed modules
    /// (planning, communication, reflection); this flag drives that rollup.
    pub fn is_llm_backed(self) -> bool {
        matches!(
            self,
            ModuleKind::Planning | ModuleKind::Communication | ModuleKind::Reflection
        )
    }
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModuleKind::Sensing => "sensing",
            ModuleKind::Planning => "planning",
            ModuleKind::Communication => "communication",
            ModuleKind::Memory => "memory",
            ModuleKind::Reflection => "reflection",
            ModuleKind::Execution => "execution",
        };
        f.write_str(name)
    }
}

/// Finer-grained attribution of what a span spent its time on.
///
/// `Fig. 2`'s in-text analysis distinguishes, e.g., CoELA's three LLM runs per
/// step (message generation 16.1%, planning 36.5%, action selection 10.3%);
/// phases make those separable in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// Undifferentiated module work.
    #[default]
    Work,
    /// An LLM inference run (API call or local forward pass).
    LlmInference,
    /// Memory retrieval / lookup.
    Retrieval,
    /// Low-level geometric planning (A*, RRT, …).
    GeometricPlanning,
    /// Physical or simulated actuation of a primitive.
    Actuation,
    /// Vision / sensor encoder forward pass.
    Encoding,
    /// Waiting out a retry backoff after a faulted LLM call.
    Backoff,
    /// An agent (or coordinator) process crash and its reboot window.
    Crash,
    /// Promotion of a survivor after a failure: a surviving agent taking
    /// the coordinator role, or a request re-dispatched to a healthy
    /// serving replica after its replica crashed.
    Failover,
    /// Re-synchronizing shared state into a freshly promoted coordinator.
    Resync,
    /// Guardrail validation of a proposed plan against the environment.
    Validate,
    /// Repairing a rejected plan (re-prompt, constrain, or skip).
    Repair,
    /// Waiting for a free server slot at a shared inference backend.
    Queue,
    /// An LLM inference run served as part of a cross-tenant batch; the
    /// span carries the request's amortized share of the batch bill.
    Batch,
    /// Issuing a hedged duplicate of a slow-queued request to a second
    /// serving replica (the duplicate's tokens are billed separately).
    Hedge,
    /// A request rejected by serving admission control; the span is the
    /// fast-fail marker, not real inference time.
    Shed,
    /// A forced re-observation issued by the recovery stack (stuck watchdog
    /// or re-ground-on-phantom) — the agent pays a fresh sensing pass.
    Reobserve,
    /// A bounded retry of a failed action before escalating to replan.
    ActRetry,
}

impl Phase {
    /// Lowercase label, as keyed in the per-phase ledger and named in
    /// Chrome traces.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Phase::Work => "work",
            Phase::LlmInference => "llm-inference",
            Phase::Retrieval => "retrieval",
            Phase::GeometricPlanning => "geometric-planning",
            Phase::Actuation => "actuation",
            Phase::Encoding => "encoding",
            Phase::Backoff => "backoff",
            Phase::Crash => "crash",
            Phase::Failover => "failover",
            Phase::Resync => "resync",
            Phase::Validate => "validate",
            Phase::Repair => "repair",
            Phase::Queue => "queue",
            Phase::Batch => "batch",
            Phase::Hedge => "hedge",
            Phase::Shed => "shed",
            Phase::Reobserve => "reobserve",
            Phase::ActRetry => "act-retry",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for m in ModuleKind::ALL {
            assert!(seen.insert(m), "duplicate in ModuleKind::ALL: {m}");
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn llm_backed_matches_paper_attribution() {
        let llm: Vec<_> = ModuleKind::ALL
            .into_iter()
            .filter(|m| m.is_llm_backed())
            .collect();
        assert_eq!(
            llm,
            vec![
                ModuleKind::Planning,
                ModuleKind::Communication,
                ModuleKind::Reflection
            ]
        );
    }

    #[test]
    fn labels_are_short_and_unique() {
        let mut labels = std::collections::HashSet::new();
        for m in ModuleKind::ALL {
            assert!(m.label().len() <= 5);
            assert!(labels.insert(m.label()));
        }
    }

    #[test]
    fn display_is_lowercase() {
        for m in ModuleKind::ALL {
            let s = m.to_string();
            assert_eq!(s, s.to_lowercase());
        }
    }
}
