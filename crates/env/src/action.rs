//! High-level subgoals — the vocabulary the planning module chooses from —
//! and the outcome record execution produces.

pub(crate) use crate::name::Name;
use crate::observation::point_tokens;
use embodied_exec::Cell;
use embodied_profiler::{ascii_tokens, digit_tokens, SimDuration};
use std::fmt;

/// A high-level subgoal, the unit of decision for the planning module.
///
/// Every environment expresses its tasks with this shared vocabulary so the
/// agent framework (prompting, memory, oracle-guided choice) stays
/// environment-independent. Entity references are stable, shared [`Name`]s
/// that also appear in observations, which is how knowledge (memory) gates
/// what an agent can plan about.
#[derive(Debug, Clone, PartialEq)]
pub enum Subgoal {
    /// Navigate to a named location.
    GoTo {
        /// Target entity or room name.
        target: Name,
        /// Target cell for grid navigation.
        cell: Cell,
    },
    /// Pick up a named object (must be co-located).
    Pick {
        /// Object name.
        object: Name,
    },
    /// Place the carried object at/in a named destination.
    Place {
        /// Object name being placed.
        object: Name,
        /// Destination name.
        dest: Name,
    },
    /// Open a named container/receptacle.
    Open {
        /// Container name.
        container: Name,
    },
    /// Gather a raw resource from the world (Minecraft-style).
    Gather {
        /// Resource name, e.g. `"log"`.
        resource: Name,
    },
    /// Craft an item from inventory ingredients.
    Craft {
        /// Item name, e.g. `"stone_pickaxe"`.
        item: Name,
    },
    /// Perform a cooking/preparation step on a dish.
    Cook {
        /// Dish name.
        dish: Name,
        /// Preparation stage, e.g. `"chop"`, `"fry"`.
        stage: Name,
    },
    /// Serve a completed dish.
    Serve {
        /// Dish name.
        dish: Name,
    },
    /// Move a box to an adjacent zone (box-world arms).
    MoveBox {
        /// Box name.
        box_name: Name,
        /// Destination zone name.
        dest: Name,
    },
    /// Jointly lift a heavy box with a partner agent (BoxLift).
    LiftTogether {
        /// Box name.
        box_name: Name,
        /// Partner agent index.
        partner: usize,
    },
    /// Move an object with a robot arm to a workspace position.
    ArmMove {
        /// Object name.
        object: Name,
        /// Target position (meters).
        to: (f64, f64),
    },
    /// Execute a named low-level skill (Franka-Kitchen style).
    Skill {
        /// Skill name, e.g. `"open_microwave"`.
        name: Name,
    },
    /// Explore to discover unseen entities.
    Explore,
    /// Do nothing this step.
    Wait,
}

impl Subgoal {
    /// Entity names this subgoal refers to, as a fixed-size array — no
    /// subgoal refers to more than two — so per-step knowledge filtering
    /// can walk them without allocating. An agent can only *usefully* plan
    /// a subgoal whose entities it knows about.
    pub fn entity_refs(&self) -> [Option<&Name>; 2] {
        match self {
            Subgoal::GoTo { target, .. } => [Some(target), None],
            Subgoal::Pick { object } => [Some(object), None],
            Subgoal::Place { object, dest } => [Some(object), Some(dest)],
            Subgoal::Open { container } => [Some(container), None],
            Subgoal::Gather { resource } => [Some(resource), None],
            Subgoal::Craft { item } => [Some(item), None],
            Subgoal::Cook { dish, .. } => [Some(dish), None],
            Subgoal::Serve { dish } => [Some(dish), None],
            Subgoal::MoveBox { box_name, dest } => [Some(box_name), Some(dest)],
            Subgoal::LiftTogether { box_name, .. } => [Some(box_name), None],
            Subgoal::ArmMove { object, .. } => [Some(object), None],
            Subgoal::Skill { .. } | Subgoal::Explore | Subgoal::Wait => [None, None],
        }
    }

    /// Whether this is a no-progress filler subgoal.
    pub fn is_idle(&self) -> bool {
        matches!(self, Subgoal::Explore | Subgoal::Wait)
    }

    /// The kind of this subgoal: its variant, without the entities.
    pub fn kind(&self) -> SubgoalKind {
        match self {
            Subgoal::GoTo { .. } => SubgoalKind::GoTo,
            Subgoal::Pick { .. } => SubgoalKind::Pick,
            Subgoal::Place { .. } => SubgoalKind::Place,
            Subgoal::Open { .. } => SubgoalKind::Open,
            Subgoal::Gather { .. } => SubgoalKind::Gather,
            Subgoal::Craft { .. } => SubgoalKind::Craft,
            Subgoal::Cook { .. } => SubgoalKind::Cook,
            Subgoal::Serve { .. } => SubgoalKind::Serve,
            Subgoal::MoveBox { .. } => SubgoalKind::MoveBox,
            Subgoal::LiftTogether { .. } => SubgoalKind::LiftTogether,
            Subgoal::ArmMove { .. } => SubgoalKind::ArmMove,
            Subgoal::Skill { .. } => SubgoalKind::Skill,
            Subgoal::Explore => SubgoalKind::Explore,
            Subgoal::Wait => SubgoalKind::Wait,
        }
    }
}

/// A subgoal's variant without its fields: the key under which action
/// memory accumulates procedural knowledge (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubgoalKind {
    /// [`Subgoal::GoTo`].
    GoTo,
    /// [`Subgoal::Pick`].
    Pick,
    /// [`Subgoal::Place`].
    Place,
    /// [`Subgoal::Open`].
    Open,
    /// [`Subgoal::Gather`].
    Gather,
    /// [`Subgoal::Craft`].
    Craft,
    /// [`Subgoal::Cook`].
    Cook,
    /// [`Subgoal::Serve`].
    Serve,
    /// [`Subgoal::MoveBox`].
    MoveBox,
    /// [`Subgoal::LiftTogether`].
    LiftTogether,
    /// [`Subgoal::ArmMove`].
    ArmMove,
    /// [`Subgoal::Skill`].
    Skill,
    /// [`Subgoal::Explore`].
    Explore,
    /// [`Subgoal::Wait`].
    Wait,
}

impl SubgoalKind {
    /// How many kinds there are: `kind as usize` is below it.
    pub const COUNT: usize = SubgoalKind::Wait as usize + 1;
}

impl fmt::Display for Subgoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subgoal::GoTo { target, .. } => write!(f, "go to {target}"),
            Subgoal::Pick { object } => write!(f, "pick up {object}"),
            Subgoal::Place { object, dest } => write!(f, "place {object} at {dest}"),
            Subgoal::Open { container } => write!(f, "open the {container}"),
            Subgoal::Gather { resource } => write!(f, "gather {resource}"),
            Subgoal::Craft { item } => write!(f, "craft {item}"),
            Subgoal::Cook { dish, stage } => write!(f, "{stage} {dish}"),
            Subgoal::Serve { dish } => write!(f, "serve {dish}"),
            Subgoal::MoveBox { box_name, dest } => write!(f, "move {box_name} to {dest}"),
            Subgoal::LiftTogether { box_name, partner } => {
                write!(f, "lift {box_name} with agent {partner}")
            }
            Subgoal::ArmMove { object, to } => {
                write!(f, "move {object} to ({:.1}, {:.1})", to.0, to.1)
            }
            Subgoal::Skill { name } => write!(f, "execute skill {name}"),
            Subgoal::Explore => f.write_str("explore the environment"),
            Subgoal::Wait => f.write_str("wait"),
        }
    }
}

impl Subgoal {
    /// Tokens in the [`Display`](fmt::Display) text, added up from its
    /// fixed wording, counted at compile time, and its names' counts
    /// without writing it: every name stands between spaces or at an end
    /// of the text.
    #[inline]
    pub fn tokens(&self) -> u64 {
        match self {
            Subgoal::GoTo { target, .. } => target.tokens() + const { ascii_tokens("go to") },
            Subgoal::Pick { object } => object.tokens() + const { ascii_tokens("pick up") },
            Subgoal::Place { object, dest } => {
                object.tokens() + dest.tokens() + const { ascii_tokens("place at") }
            }
            Subgoal::Open { container } => container.tokens() + const { ascii_tokens("open the") },
            Subgoal::Gather { resource } => resource.tokens() + const { ascii_tokens("gather") },
            Subgoal::Craft { item } => item.tokens() + const { ascii_tokens("craft") },
            Subgoal::Cook { dish, stage } => stage.tokens() + dish.tokens(),
            Subgoal::Serve { dish } => dish.tokens() + const { ascii_tokens("serve") },
            Subgoal::MoveBox { box_name, dest } => {
                box_name.tokens() + dest.tokens() + const { ascii_tokens("move to") }
            }
            Subgoal::LiftTogether { box_name, partner } => {
                box_name.tokens()
                    + digit_tokens(*partner)
                    + const { ascii_tokens("lift with agent") }
            }
            Subgoal::ArmMove { object, to } => {
                object.tokens() + point_tokens(to.0, to.1) + const { ascii_tokens("move to") }
            }
            Subgoal::Skill { name } => name.tokens() + const { ascii_tokens("execute skill") },
            Subgoal::Explore => const { ascii_tokens("explore the environment") },
            Subgoal::Wait => const { ascii_tokens("wait") },
        }
    }
}

/// How a failed execution failed: set by the environment where it raises
/// the failure, read by recovery and reflection in place of the note text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureKind {
    /// No particular kind; every success carries it.
    #[default]
    Plain,
    /// Resource contention: a busy station, or a partner not there yet. No
    /// belief is wrong, so the agent just re-queues.
    Busy,
    /// The referent is absent or already handled: the agent's knowledge of
    /// it is stale.
    Gone,
    /// A category error (wrong destination, impossible recipe, unsupported
    /// action): retrying the same subgoal can never succeed.
    Invalid,
    /// An afforded action silently did nothing: the transient signature
    /// closed-loop recovery retries.
    NoEffect,
}

/// What executing one subgoal did.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Whether the subgoal completed as intended.
    pub completed: bool,
    /// Whether any goal progress was made (an incomplete `GoTo` that moved
    /// closer still made progress).
    pub made_progress: bool,
    /// Low-level planning compute time (A*, RRT, grasp scoring, …).
    pub compute: SimDuration,
    /// Physical actuation time.
    pub actuation: SimDuration,
    /// How the execution failed; [`FailureKind::Plain`] on success.
    pub kind: FailureKind,
    /// One-line account for reflection and memory, e.g.
    /// `"picked up apple_1"` or `"craft failed: missing planks"`.
    pub note: String,
}

impl ExecOutcome {
    /// A failed outcome of `kind` with a note and only trivial time spent.
    fn failed(kind: FailureKind, note: impl Into<String>) -> Self {
        ExecOutcome {
            completed: false,
            made_progress: false,
            compute: SimDuration::from_millis(10),
            actuation: SimDuration::ZERO,
            kind,
            note: note.into(),
        }
    }

    /// A [`FailureKind::Plain`] failure: a precondition or physical
    /// failure with no more specific kind.
    pub fn failure(note: impl Into<String>) -> Self {
        Self::failed(FailureKind::Plain, note)
    }

    /// A [`FailureKind::Busy`] failure.
    pub fn busy(note: impl Into<String>) -> Self {
        Self::failed(FailureKind::Busy, note)
    }

    /// A [`FailureKind::Gone`] failure.
    pub fn gone(note: impl Into<String>) -> Self {
        Self::failed(FailureKind::Gone, note)
    }

    /// A [`FailureKind::Invalid`] failure.
    pub fn invalid(note: impl Into<String>) -> Self {
        Self::failed(FailureKind::Invalid, note)
    }

    /// A [`FailureKind::NoEffect`] failure.
    pub fn no_effect(note: impl Into<String>) -> Self {
        Self::failed(FailureKind::NoEffect, note)
    }

    /// A completed idle step (`Wait`, or an `Explore` that stays put): no
    /// compute, `actuation` spent, no progress.
    pub fn idle(actuation: SimDuration, note: impl Into<String>) -> Self {
        ExecOutcome {
            completed: true,
            made_progress: false,
            compute: SimDuration::ZERO,
            actuation,
            kind: FailureKind::Plain,
            note: note.into(),
        }
    }

    /// Total time consumed by the execution.
    pub fn total_time(&self) -> SimDuration {
        self.compute + self.actuation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_refs_cover_all_fields() {
        let sg = Subgoal::Place {
            object: "apple".into(),
            dest: "table".into(),
        };
        assert_eq!(
            sg.entity_refs().map(|e| e.map(Name::as_str)),
            [Some("apple"), Some("table")]
        );
        assert_eq!(Subgoal::Explore.entity_refs(), [None, None]);
    }

    #[test]
    fn idle_detection() {
        assert!(Subgoal::Wait.is_idle());
        assert!(Subgoal::Explore.is_idle());
        assert!(!Subgoal::Pick { object: "x".into() }.is_idle());
    }

    #[test]
    fn patterns_are_entity_agnostic() {
        let a = Subgoal::Pick {
            object: "apple".into(),
        };
        let b = Subgoal::Pick {
            object: "plate_7".into(),
        };
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.kind(), SubgoalKind::Pick);
        assert_ne!(a.kind(), Subgoal::Explore.kind());
        assert_eq!(Subgoal::Wait.kind() as usize + 1, SubgoalKind::COUNT);
    }

    #[test]
    fn display_is_promptable() {
        let sg = Subgoal::Craft {
            item: "stone_pickaxe".into(),
        };
        assert_eq!(sg.to_string(), "craft stone_pickaxe");
        let sg = Subgoal::LiftTogether {
            box_name: "box_2".into(),
            partner: 1,
        };
        assert_eq!(sg.to_string(), "lift box_2 with agent 1");
    }

    #[test]
    fn failure_outcome_is_cheap_and_unproductive() {
        let o = ExecOutcome::failure("missing prerequisites");
        assert!(!o.completed);
        assert!(!o.made_progress);
        assert!(o.total_time() < SimDuration::from_millis(100));
        assert!(o.note.contains("missing"));
        assert_eq!(o.kind, FailureKind::Plain);
        for (out, kind) in [
            (ExecOutcome::busy("x"), FailureKind::Busy),
            (ExecOutcome::gone("x"), FailureKind::Gone),
            (ExecOutcome::invalid("x"), FailureKind::Invalid),
            (ExecOutcome::no_effect("x"), FailureKind::NoEffect),
        ] {
            assert_eq!(
                out,
                ExecOutcome {
                    kind,
                    note: "x".into(),
                    ..o.clone()
                }
            );
        }
    }

    #[test]
    fn idle_outcomes_complete_without_progress_or_compute() {
        let o = ExecOutcome::idle(SimDuration::from_millis(200), "waited");
        assert!(o.completed && !o.made_progress);
        assert_eq!(o.total_time(), SimDuration::from_millis(200));
        assert_eq!(o.kind, FailureKind::Plain);
    }
}
