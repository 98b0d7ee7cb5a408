//! The affordance query surface: what an environment is willing to let an
//! agent attempt *right now*.
//!
//! The guardrail pipeline in `embodied-agents` validates every planned
//! subgoal against this set before actuation — the simulated counterpart of
//! checking a generated action against the environment's action schema and
//! the entities actually present. An [`AffordanceSet`] is built from the
//! environment's candidate menu (every syntactically valid subgoal for an
//! agent), so membership is exactly "the environment would recognize this
//! action", and the nearest-valid lookup gives repair policies a
//! deterministic constraint target.

use crate::action::{Name, Subgoal};

/// The set of subgoals an environment affords one agent at one instant,
/// with membership, entity-knowledge and nearest-valid queries.
///
/// The set is the menu itself: entity queries scan its
/// [`Subgoal::entity_refs`], so building one costs nothing beyond the menu.
#[derive(Debug, Clone)]
pub struct AffordanceSet {
    candidates: Vec<Subgoal>,
}

impl AffordanceSet {
    /// Builds the set from an environment's candidate menu.
    pub fn from_candidates(candidates: Vec<Subgoal>) -> Self {
        AffordanceSet { candidates }
    }

    /// The underlying candidate menu, in environment order.
    pub fn candidates(&self) -> &[Subgoal] {
        &self.candidates
    }

    /// Whether the environment affords this exact subgoal. Idle subgoals
    /// (`Explore`/`Wait`) are always afforded: every environment accepts
    /// them as no-progress filler.
    pub fn permits(&self, subgoal: &Subgoal) -> bool {
        subgoal.is_idle() || self.candidates.contains(subgoal)
    }

    /// Whether the entity name appears anywhere in the afforded menu —
    /// the "does this thing exist here" check hallucinations fail.
    pub fn knows_entity(&self, name: &Name) -> bool {
        self.candidates
            .iter()
            .any(|c| c.entity_refs().contains(&Some(name)))
    }

    /// The first entity of `subgoal` the environment does not know about,
    /// if any — the offending span a validator reports.
    pub fn unknown_entity<'a>(&self, subgoal: &'a Subgoal) -> Option<&'a Name> {
        subgoal
            .entity_refs()
            .into_iter()
            .flatten()
            .find(|e| !self.knows_entity(e))
    }

    /// Deterministic nearest afforded subgoal: the first menu entry with
    /// the same kind, preferring entries sharing an entity with
    /// the rejected subgoal; [`Subgoal::Explore`] when nothing matches.
    pub fn nearest_valid(&self, subgoal: &Subgoal) -> Subgoal {
        let wanted = subgoal.entity_refs();
        let same_kind = || {
            self.candidates
                .iter()
                .filter(|c| c.kind() == subgoal.kind())
        };
        same_kind()
            .find(|c| {
                c.entity_refs()
                    .into_iter()
                    .flatten()
                    .any(|e| wanted.contains(&Some(e)))
            })
            .or_else(|| same_kind().next())
            .cloned()
            .unwrap_or(Subgoal::Explore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn menu() -> Vec<Subgoal> {
        vec![
            Subgoal::Pick {
                object: "apple_1".into(),
            },
            Subgoal::Pick {
                object: "plate_2".into(),
            },
            Subgoal::Place {
                object: "apple_1".into(),
                dest: "table".into(),
            },
        ]
    }

    #[test]
    fn permits_menu_members_and_idle_only() {
        let aff = AffordanceSet::from_candidates(menu());
        assert!(aff.permits(&Subgoal::Pick {
            object: "apple_1".into()
        }));
        assert!(aff.permits(&Subgoal::Explore));
        assert!(aff.permits(&Subgoal::Wait));
        assert!(!aff.permits(&Subgoal::Pick {
            object: "ghost".into()
        }));
        assert!(!aff.permits(&Subgoal::Craft {
            item: "apple_1".into()
        }));
    }

    #[test]
    fn entity_knowledge_and_offending_span() {
        let aff = AffordanceSet::from_candidates(menu());
        assert!(aff.knows_entity(&"apple_1".into()));
        assert!(aff.knows_entity(&"table".into()));
        assert!(!aff.knows_entity(&"unicorn".into()));
        let bad = Subgoal::Place {
            object: "apple_1".into(),
            dest: "unicorn".into(),
        };
        assert_eq!(aff.unknown_entity(&bad).map(Name::as_str), Some("unicorn"));
        assert_eq!(
            aff.unknown_entity(&Subgoal::Pick {
                object: "apple_1".into()
            }),
            None
        );
    }

    #[test]
    fn nearest_valid_prefers_shared_entity_then_pattern() {
        let aff = AffordanceSet::from_candidates(menu());
        // Same pattern + shared entity wins over menu order.
        let fixed = aff.nearest_valid(&Subgoal::Place {
            object: "apple_1".into(),
            dest: "unicorn".into(),
        });
        assert_eq!(
            fixed,
            Subgoal::Place {
                object: "apple_1".into(),
                dest: "table".into(),
            }
        );
        // Same pattern, no shared entity: first menu entry of that pattern.
        let fixed = aff.nearest_valid(&Subgoal::Pick {
            object: "ghost".into(),
        });
        assert_eq!(
            fixed,
            Subgoal::Pick {
                object: "apple_1".into()
            }
        );
        // No pattern match at all: Explore.
        assert_eq!(
            aff.nearest_valid(&Subgoal::Craft { item: "x".into() }),
            Subgoal::Explore
        );
    }

    #[test]
    fn nearest_valid_is_always_permitted() {
        let aff = AffordanceSet::from_candidates(menu());
        let probes = [
            Subgoal::Pick {
                object: "ghost".into(),
            },
            Subgoal::Craft { item: "x".into() },
            Subgoal::Explore,
        ];
        for p in &probes {
            assert!(aff.permits(&aff.nearest_valid(p)));
        }
    }

    #[test]
    fn empty_menu_affords_only_idle() {
        let aff = AffordanceSet::from_candidates(Vec::new());
        assert!(aff.permits(&Subgoal::Wait));
        assert!(!aff.permits(&Subgoal::Pick { object: "x".into() }));
        assert_eq!(
            aff.nearest_valid(&Subgoal::Pick { object: "x".into() }),
            Subgoal::Explore
        );
    }
}
