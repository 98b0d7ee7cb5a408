//! Partial egocentric observations — what the sensing module sees each step.

use crate::action::Name;
use embodied_exec::Cell;

/// One observed entity: a stable name plus a human-readable description
/// fragment used when assembling prompts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenEntity {
    /// Stable name matching subgoal entity references, e.g. `"apple_1"`,
    /// shared with the environment's own copy.
    pub name: Name,
    /// Prompt fragment, e.g. `"apple_1 on the counter in room_2"`.
    pub description: String,
}

impl SeenEntity {
    /// Convenience constructor.
    pub fn new(name: impl Into<Name>, description: impl Into<String>) -> Self {
        SeenEntity {
            name: name.into(),
            description: description.into(),
        }
    }
}

/// The partial observation one agent receives at one step.
///
/// Observations are intentionally *local* (same room / within reach): the
/// memory module's value in Fig. 3 and Fig. 5 comes precisely from
/// accumulating these partial views into persistent knowledge.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observation {
    /// The observing agent's grid position, if the env is grid-based.
    pub agent_pos: Option<Cell>,
    /// Current location label, e.g. `"room_1"` or `"workspace"`.
    pub location: String,
    /// Entities currently perceivable.
    pub visible: Vec<SeenEntity>,
    /// Free-text status, e.g. `"carrying apple_1"`.
    pub status: String,
}

impl Observation {
    /// Number of entities in view (drives encoder latency).
    pub fn entity_count(&self) -> usize {
        self.visible.len()
    }

    /// Whether a named entity is currently visible.
    pub fn sees(&self, name: &str) -> bool {
        self.visible.iter().any(|e| &*e.name == name)
    }

    /// Renders the observation as prompt text.
    pub fn to_prompt_text(&self) -> String {
        let mut s = String::new();
        if !self.location.is_empty() {
            s.push_str(&format!("You are in {}. ", self.location));
        }
        if !self.status.is_empty() {
            s.push_str(&format!("Status: {}. ", self.status));
        }
        if self.visible.is_empty() {
            s.push_str("You see nothing notable.");
        } else {
            s.push_str("You see: ");
            let descs: Vec<&str> = self
                .visible
                .iter()
                .map(|e| e.description.as_str())
                .collect();
            s.push_str(&descs.join("; "));
            s.push('.');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_text_mentions_everything() {
        let obs = Observation {
            agent_pos: Some(Cell::new(1, 1)),
            location: "room_0".into(),
            visible: vec![
                SeenEntity::new("apple_1", "apple_1 on the floor"),
                SeenEntity::new("box_2", "box_2 near the door"),
            ],
            status: "carrying nothing".into(),
        };
        let text = obs.to_prompt_text();
        assert!(text.contains("room_0"));
        assert!(text.contains("apple_1 on the floor"));
        assert!(text.contains("box_2 near the door"));
        assert!(text.contains("carrying nothing"));
        assert_eq!(obs.entity_count(), 2);
    }

    #[test]
    fn empty_observation_still_renders() {
        let obs = Observation::default();
        assert!(obs.to_prompt_text().contains("nothing notable"));
        assert_eq!(obs.entity_count(), 0);
    }

    #[test]
    fn sees_checks_names_exactly() {
        let obs = Observation {
            visible: vec![SeenEntity::new("apple_1", "an apple")],
            ..Default::default()
        };
        assert!(obs.sees("apple_1"));
        assert!(!obs.sees("apple"));
    }
}
