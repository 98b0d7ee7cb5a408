//! Spatial world model built from accumulated observations.
//!
//! The paper's sensing module "establishes a global or shared environmental
//! model that includes a map of spatial layout, moving entities, obstacles,
//! and resource locations" (§II-A). [`WorldMap`] is that model: it folds
//! each step's percept into per-location entity registries and visit
//! counts, renders a compact map summary for prompts, and reports coverage
//! — the measurable footprint of exploration.

use crate::modules::Percept;
use std::collections::BTreeMap;

/// What the agent knows about one location.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocationKnowledge {
    /// Steps at which the agent observed from this location.
    pub visits: u64,
    /// Entities last seen here (most recent observation wins).
    pub entities: Vec<String>,
    /// Step of the most recent visit.
    pub last_seen_step: usize,
}

/// An accumulated map of the (partially observed) world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldMap {
    locations: BTreeMap<String, LocationKnowledge>,
}

impl WorldMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one percept into the map.
    pub fn integrate(&mut self, percept: &Percept, step: usize) {
        if percept.location.is_empty() {
            return;
        }
        let entry = self.locations.entry(percept.location.clone()).or_default();
        entry.visits += 1;
        entry.last_seen_step = step;
        entry.entities = percept.entities.clone();
    }

    /// Number of distinct locations visited.
    pub fn coverage(&self) -> usize {
        self.locations.len()
    }

    /// Knowledge about a location, if visited.
    pub fn location(&self, name: &str) -> Option<&LocationKnowledge> {
        self.locations.get(name)
    }

    /// Renders a compact prompt section: one line per location, most
    /// recently seen first, capped at `max_locations` lines.
    pub fn summary(&self, max_locations: usize) -> String {
        let mut locs: Vec<(&String, &LocationKnowledge)> = self.locations.iter().collect();
        locs.sort_by_key(|(_, k)| std::cmp::Reverse(k.last_seen_step));
        locs.iter()
            .take(max_locations)
            .map(|(name, k)| {
                if k.entities.is_empty() {
                    format!("{name}: nothing notable (seen step {})", k.last_seen_step)
                } else {
                    format!(
                        "{name}: {} (seen step {})",
                        k.entities.join(", "),
                        k.last_seen_step
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Streams the same text as [`Self::summary`] into `out` (appending),
    /// without allocating: the top-`max_locations` selection runs on a
    /// stack scratchpad and each line is written straight into the buffer.
    /// Ties on `last_seen_step` keep map (alphabetical) order, matching
    /// the stable sort in [`Self::summary`].
    pub fn write_summary(&self, out: &mut String, max_locations: usize) {
        use std::fmt::Write as _;
        const STACK: usize = 16;
        if max_locations == 0 || self.locations.is_empty() {
            return;
        }
        if max_locations > STACK {
            // Cold path for oversized requests; prompt callers cap at 6.
            out.push_str(&self.summary(max_locations));
            return;
        }
        let mut top: [Option<(&String, &LocationKnowledge)>; STACK] = [None; STACK];
        let mut len = 0usize;
        for entry in &self.locations {
            let step = entry.1.last_seen_step;
            let mut pos = len;
            for (i, slot) in top[..len].iter().enumerate() {
                if slot.expect("filled prefix").1.last_seen_step < step {
                    pos = i;
                    break;
                }
            }
            if pos >= max_locations {
                continue;
            }
            let new_len = (len + 1).min(max_locations);
            for i in (pos..new_len - 1).rev() {
                top[i + 1] = top[i];
            }
            top[pos] = Some(entry);
            len = new_len;
        }
        for (idx, slot) in top[..len].iter().enumerate() {
            let (name, k) = slot.expect("filled prefix");
            if idx > 0 {
                out.push('\n');
            }
            if k.entities.is_empty() {
                let _ = write!(
                    out,
                    "{name}: nothing notable (seen step {})",
                    k.last_seen_step
                );
            } else {
                let _ = write!(out, "{name}: ");
                for (j, e) in k.entities.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(e);
                }
                let _ = write!(out, " (seen step {})", k.last_seen_step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn percept(location: &str, entities: &[&str]) -> Percept {
        Percept {
            entities: entities.iter().map(|e| (*e).to_owned()).collect(),
            text: String::new(),
            location: location.to_owned(),
        }
    }

    #[test]
    fn integrates_and_counts_coverage() {
        let mut map = WorldMap::new();
        map.integrate(&percept("room_0", &["goal_zone"]), 0);
        map.integrate(&percept("room_1", &["object_1"]), 1);
        map.integrate(&percept("room_0", &[]), 2);
        assert_eq!(map.coverage(), 2);
        assert_eq!(map.location("room_0").unwrap().visits, 2);
        assert_eq!(map.location("room_0").unwrap().last_seen_step, 2);
    }

    #[test]
    fn newest_observation_replaces_entities() {
        let mut map = WorldMap::new();
        map.integrate(&percept("room_1", &["object_1", "object_2"]), 1);
        map.integrate(&percept("room_1", &["object_2"]), 5);
        assert_eq!(
            map.location("room_1").unwrap().entities,
            vec!["object_2".to_owned()],
            "a later look supersedes the old entity list"
        );
    }

    #[test]
    fn summary_orders_by_recency_and_caps() {
        let mut map = WorldMap::new();
        for i in 0..6 {
            map.integrate(&percept(&format!("room_{i}"), &["x"]), i);
        }
        let summary = map.summary(3);
        assert_eq!(summary.lines().count(), 3);
        assert!(summary.lines().next().unwrap().starts_with("room_5"));
        assert!(!summary.contains("room_0"));
    }

    #[test]
    fn write_summary_matches_summary_byte_for_byte() {
        let mut map = WorldMap::new();
        // Distinct steps, a revisit, an entity-less room, and a tie on
        // last_seen_step (rooms 7 and 8) to pin the stable-sort order.
        for i in 0..7 {
            map.integrate(&percept(&format!("room_{i}"), &["x", "y"]), i);
        }
        map.integrate(&percept("room_2", &[]), 9);
        map.integrate(&percept("room_8", &["z"]), 10);
        map.integrate(&percept("room_7", &["w"]), 10);
        for cap in [0, 1, 3, 6, 12, 40] {
            let mut buf = String::from("prefix|");
            map.write_summary(&mut buf, cap);
            assert_eq!(buf, format!("prefix|{}", map.summary(cap)), "cap {cap}");
        }
        let empty = WorldMap::new();
        let mut buf = String::new();
        empty.write_summary(&mut buf, 6);
        assert!(buf.is_empty());
    }

    #[test]
    fn empty_location_percepts_are_ignored() {
        let mut map = WorldMap::new();
        map.integrate(&percept("", &["ghost"]), 0);
        assert_eq!(map.coverage(), 0);
        assert!(map.summary(5).is_empty());
    }
}
