//! The full Table I taxonomy: every system the paper categorizes (not just
//! the 14 benchmarked suite members), with paradigm, module composition and
//! embodied action type.

/// Paper Table I's four system categories (the end-to-end category is
/// taxonomized but not benchmarked, exactly as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaxonomyParadigm {
    /// Single-agent, modularized pipeline.
    SingleModularized,
    /// Single-agent, end-to-end model.
    SingleEndToEnd,
    /// Multi-agent, centralized planner.
    MultiCentralized,
    /// Multi-agent, decentralized dialogue.
    MultiDecentralized,
}

impl std::fmt::Display for TaxonomyParadigm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TaxonomyParadigm::SingleModularized => "single-agent / modularized",
            TaxonomyParadigm::SingleEndToEnd => "single-agent / end-to-end",
            TaxonomyParadigm::MultiCentralized => "multi-agent / centralized",
            TaxonomyParadigm::MultiDecentralized => "multi-agent / decentralized",
        };
        f.write_str(s)
    }
}

/// Action type of the embodied system (Table I footnote: V = virtual action,
/// T = tool usage, E = physical action).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionType {
    /// Virtual actions in a simulator.
    Virtual,
    /// Tool usage (device control, programming).
    Tool,
    /// Physical robot actions.
    Physical,
}

impl ActionType {
    /// The paper's single-letter code.
    pub fn code(self) -> char {
        match self {
            ActionType::Virtual => 'V',
            ActionType::Tool => 'T',
            ActionType::Physical => 'E',
        }
    }
}

/// One Table I row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyEntry {
    /// System name.
    pub name: &'static str,
    /// Category.
    pub paradigm: TaxonomyParadigm,
    /// Module composition: sense, plan, comm, mem, refl, exec.
    pub modules: [bool; 6],
    /// Embodied application label, e.g. `"Simulation"`.
    pub embodied_type: &'static str,
    /// Action type code.
    pub action: ActionType,
    /// Whether the system is one of the 14 benchmarked suite members.
    pub in_suite: bool,
}

macro_rules! row {
    ($name:literal, $paradigm:ident, [$s:literal,$p:literal,$c:literal,$m:literal,$r:literal,$e:literal], $ty:literal, $act:ident, $suite:literal) => {
        TaxonomyEntry {
            name: $name,
            paradigm: TaxonomyParadigm::$paradigm,
            modules: [$s == 1, $p == 1, $c == 1, $m == 1, $r == 1, $e == 1],
            embodied_type: $ty,
            action: ActionType::$act,
            in_suite: $suite == 1,
        }
    };
}

/// Every system the paper's Table I categorizes.
pub fn taxonomy() -> Vec<TaxonomyEntry> {
    vec![
        // ---- single-agent, modularized ----
        row!(
            "Mobile-Agent",
            SingleModularized,
            [1, 1, 0, 0, 1, 1],
            "Device Control",
            Tool,
            0
        ),
        row!(
            "AppAgent",
            SingleModularized,
            [1, 1, 0, 0, 0, 1],
            "Device Control",
            Tool,
            0
        ),
        row!(
            "PDDL",
            SingleModularized,
            [0, 1, 0, 0, 1, 0],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "RoboGPT",
            SingleModularized,
            [1, 1, 0, 0, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "VOYAGER",
            SingleModularized,
            [0, 1, 0, 1, 1, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "MP5",
            SingleModularized,
            [1, 1, 0, 0, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "RILA",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Navigation",
            Virtual,
            0
        ),
        row!(
            "CRADLE",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Device Control",
            Tool,
            0
        ),
        row!(
            "STEVE",
            SingleModularized,
            [1, 1, 0, 0, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "DEPS",
            SingleModularized,
            [1, 1, 0, 0, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "JARVIS-1",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "FILM",
            SingleModularized,
            [1, 1, 0, 0, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "LLM-Planner",
            SingleModularized,
            [0, 1, 0, 0, 1, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "EmbodiedGPT",
            SingleModularized,
            [1, 1, 0, 0, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "Dadu-E",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "MINEDOJO",
            SingleModularized,
            [1, 1, 0, 1, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "Luban",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "MetaGPT",
            SingleModularized,
            [0, 1, 1, 1, 1, 1],
            "Programming",
            Tool,
            0
        ),
        row!(
            "Mobile-Agent-V2",
            SingleModularized,
            [1, 1, 0, 1, 1, 1],
            "Device Control",
            Tool,
            0
        ),
        // ---- single-agent, end-to-end ----
        row!(
            "RT-2",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Robot Control",
            Physical,
            0
        ),
        row!(
            "RoboVLMs",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Robot Control",
            Physical,
            0
        ),
        row!(
            "GAIA-1",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Autonomous Driving",
            Physical,
            0
        ),
        row!(
            "3D-VLA",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Robot Control",
            Physical,
            0
        ),
        row!(
            "Octo",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Robot Control",
            Physical,
            0
        ),
        row!(
            "Diffusion Policy",
            SingleEndToEnd,
            [1, 1, 0, 0, 0, 1],
            "Robot Control",
            Physical,
            0
        ),
        // ---- multi-agent, centralized ----
        row!(
            "LLaMAC",
            MultiCentralized,
            [0, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "MindAgent",
            MultiCentralized,
            [0, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "OLA",
            MultiCentralized,
            [0, 1, 1, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "ALGPT",
            MultiCentralized,
            [1, 1, 1, 1, 0, 1],
            "Navigation",
            Virtual,
            0
        ),
        row!(
            "CMAS",
            MultiCentralized,
            [1, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "ReAd",
            MultiCentralized,
            [0, 1, 1, 0, 1, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "Co-NavGPT",
            MultiCentralized,
            [1, 1, 1, 0, 0, 1],
            "Navigation",
            Virtual,
            0
        ),
        row!(
            "COHERENT",
            MultiCentralized,
            [1, 1, 1, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        // ---- multi-agent, decentralized ----
        row!(
            "DMAS",
            MultiDecentralized,
            [1, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "HMAS",
            MultiDecentralized,
            [1, 1, 1, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "AGA",
            MultiDecentralized,
            [1, 1, 1, 1, 1, 1],
            "Simulation",
            Virtual,
            0
        ),
        row!(
            "CoELA",
            MultiDecentralized,
            [1, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "FMA",
            MultiDecentralized,
            [0, 1, 1, 1, 1, 1],
            "Programming",
            Tool,
            0
        ),
        row!(
            "COMBO",
            MultiDecentralized,
            [1, 1, 1, 1, 0, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "RoCo",
            MultiDecentralized,
            [1, 1, 1, 1, 1, 1],
            "Simulation",
            Virtual,
            1
        ),
        row!(
            "AgentVerse",
            MultiDecentralized,
            [0, 1, 1, 0, 0, 1],
            "Simulation",
            Virtual,
            0
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_covers_all_four_categories() {
        let t = taxonomy();
        for paradigm in [
            TaxonomyParadigm::SingleModularized,
            TaxonomyParadigm::SingleEndToEnd,
            TaxonomyParadigm::MultiCentralized,
            TaxonomyParadigm::MultiDecentralized,
        ] {
            assert!(
                t.iter().filter(|e| e.paradigm == paradigm).count() >= 6,
                "{paradigm} under-populated"
            );
        }
        assert!(t.len() >= 35, "Table I lists ~35+ systems, got {}", t.len());
    }

    #[test]
    fn suite_members_appear_in_taxonomy() {
        let t = taxonomy();
        for spec in super::super::registry() {
            // Registry "DaDu-E" appears as "Dadu-E" in Table I.
            let found = t
                .iter()
                .any(|e| e.in_suite && e.name.eq_ignore_ascii_case(spec.name));
            assert!(found, "{} missing from taxonomy", spec.name);
        }
        assert_eq!(t.iter().filter(|e| e.in_suite).count(), 14);
    }

    #[test]
    fn every_system_plans_and_most_execute() {
        let t = taxonomy();
        assert!(t.iter().all(|e| e.modules[1]), "planning is universal");
        let executing = t.iter().filter(|e| e.modules[5]).count();
        assert!(executing as f64 > t.len() as f64 * 0.9);
    }

    #[test]
    fn end_to_end_systems_are_physical_and_unbenchmarked() {
        for e in taxonomy()
            .iter()
            .filter(|e| e.paradigm == TaxonomyParadigm::SingleEndToEnd)
        {
            assert_eq!(e.action, ActionType::Physical);
            assert!(!e.in_suite, "{} is not in the measured suite", e.name);
        }
    }

    #[test]
    fn action_codes() {
        assert_eq!(ActionType::Virtual.code(), 'V');
        assert_eq!(ActionType::Tool.code(), 'T');
        assert_eq!(ActionType::Physical.code(), 'E');
    }
}
