//! The four execution paradigms of embodied AI systems (paper Fig. 1b–1e).

pub(crate) mod centralized;
pub(crate) mod decentralized;
pub(crate) mod hybrid;
pub(crate) mod single;

/// Which cooperation paradigm drives the system's step loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Single-agent modularized pipeline (Fig. 1b).
    SingleModular,
    /// A central LLM plans for every agent; agents report local feedback
    /// (Fig. 1d).
    Centralized,
    /// Every agent plans for itself and converses with the others in
    /// turn-taking dialogue rounds (Fig. 1e).
    Decentralized,
    /// HMAS: a central plan primes per-agent feedback, then the center
    /// refines (between Fig. 1d and 1e).
    Hybrid,
}

impl Paradigm {
    /// All paradigms, in the paper's order.
    pub const ALL: [Paradigm; 4] = [
        Paradigm::SingleModular,
        Paradigm::Centralized,
        Paradigm::Decentralized,
        Paradigm::Hybrid,
    ];
}

impl std::fmt::Display for Paradigm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Paradigm::SingleModular => "single-modular",
            Paradigm::Centralized => "centralized",
            Paradigm::Decentralized => "decentralized",
            Paradigm::Hybrid => "hybrid",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in Paradigm::ALL {
            assert!(seen.insert(p.to_string()));
        }
    }
}
