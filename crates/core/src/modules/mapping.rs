//! Spatial world model built from accumulated observations.
//!
//! The paper's sensing module "establishes a global or shared environmental
//! model that includes a map of spatial layout, moving entities, obstacles,
//! and resource locations" (§II-A). [`WorldMap`] is that model: it folds
//! each step's percept into per-location entity registries and visit
//! counts, renders a compact map summary for prompts, and reports coverage
//! — the measurable footprint of exploration.

use crate::modules::Percept;
use embodied_env::Name;
use embodied_profiler::{ascii_tokens, digit_tokens};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// What the agent knows about one location.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocationKnowledge {
    /// Steps at which the agent observed from this location.
    pub visits: u64,
    /// Entities last seen here (most recent observation wins), shared with
    /// the percept that saw them.
    pub entities: Rc<[Name]>,
    /// Step of the most recent visit.
    pub last_seen_step: usize,
    /// Tokens in this location's summary line, counted from its parts
    /// when the line's content last changed.
    line_tokens: u64,
}

impl LocationKnowledge {
    /// Records a visit to `location` at `step` that saw `entities`.
    fn visit(&mut self, location: &Name, entities: &Rc<[Name]>, step: usize) {
        self.visits += 1;
        self.last_seen_step = step;
        self.entities = Rc::clone(entities);
        self.line_tokens = line_tokens(location.tokens(), entities, step);
    }
}

/// Tokens in a summary line, from its parts: the location's name
/// (`location_tokens`) and its colon, the entity list (each comma one
/// token) or "nothing notable", and "(seen step N)". The parts meet at
/// spaces, where counts add up.
fn line_tokens(location_tokens: u64, entities: &[Name], step: usize) -> u64 {
    let body = if entities.is_empty() {
        const { ascii_tokens("nothing notable") }
    } else {
        entities.iter().map(Name::tokens).sum::<u64>() + entities.len() as u64 - 1
    };
    location_tokens + 1 + body + const { ascii_tokens("(seen step)") } + digit_tokens(step)
}

/// An accumulated map of the (partially observed) world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldMap {
    /// Keyed by the environment's shared location names, which order as
    /// their texts.
    locations: BTreeMap<Name, LocationKnowledge>,
}

impl WorldMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one percept into the map. The location's name is shared, not
    /// copied.
    pub fn integrate(&mut self, percept: &Percept, step: usize) {
        let location = &percept.location;
        if location.is_empty() {
            return;
        }
        if let Some(known) = self.locations.get_mut(location) {
            known.visit(location, &percept.entities, step);
            return;
        }
        let mut first = LocationKnowledge::default();
        first.visit(location, &percept.entities, step);
        self.locations.insert(location.clone(), first);
    }

    /// Number of distinct locations visited.
    pub fn coverage(&self) -> usize {
        self.locations.len()
    }

    /// Knowledge about a location, if visited.
    pub fn location(&self, name: &str) -> Option<&LocationKnowledge> {
        self.locations
            .iter()
            .find_map(|(known, k)| (known.as_str() == name).then_some(k))
    }

    /// Renders a compact prompt section: one line per location, most
    /// recently seen first, capped at `max_locations` lines.
    pub fn summary(&self, max_locations: usize) -> String {
        let mut locs: Vec<(&Name, &LocationKnowledge)> = self.locations.iter().collect();
        locs.sort_by_key(|(_, k)| std::cmp::Reverse(k.last_seen_step));
        locs.iter()
            .take(max_locations)
            .map(|(name, k)| {
                if k.entities.is_empty() {
                    format!("{name}: nothing notable (seen step {})", k.last_seen_step)
                } else {
                    let entities: Vec<&str> = k.entities.iter().map(Name::as_str).collect();
                    format!(
                        "{name}: {} (seen step {})",
                        entities.join(", "),
                        k.last_seen_step
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Appends the map's prompt context to `out` — a `[map]` header, the
    /// [`Self::summary`] of the `max_locations` most recent locations, and
    /// a newline; nothing while no location is mapped — and returns its
    /// token count, summed from the lines' stored counts. Allocation-free
    /// for `max_locations` up to 16.
    pub fn write_context(&self, out: &mut String, max_locations: usize) -> u64 {
        self.context_into(Some(out), max_locations)
    }

    /// The token count [`Self::write_context`] returns, without the text.
    pub fn context_tokens(&self, max_locations: usize) -> u64 {
        self.context_into(None, max_locations)
    }

    fn context_into(&self, mut out: Option<&mut String>, max_locations: usize) -> u64 {
        if self.locations.is_empty() {
            return 0;
        }
        if let Some(out) = out.as_deref_mut() {
            out.push_str("[map]\n");
        }
        let mut tokens = const { ascii_tokens("[map]") };
        let mut first = true;
        self.for_each_recent(max_locations, |name, k| {
            tokens += k.line_tokens;
            let Some(out) = out.as_deref_mut() else {
                return;
            };
            if !std::mem::take(&mut first) {
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
        });
        if let Some(out) = out {
            out.push('\n');
        }
        tokens
    }

    /// Visits the `max_locations` most recently seen locations, newest
    /// first, in [`Self::summary`]'s order: ties on `last_seen_step` keep
    /// map (alphabetical) order, as its stable sort does. Up to 16, the
    /// selection runs on a stack scratchpad.
    fn for_each_recent(&self, max_locations: usize, mut f: impl FnMut(&str, &LocationKnowledge)) {
        const STACK: usize = 16;
        if max_locations > STACK {
            // Cold path for oversized requests; prompt callers cap at 6.
            let mut locs: Vec<_> = self.locations.iter().collect();
            locs.sort_by_key(|(_, k)| std::cmp::Reverse(k.last_seen_step));
            for (name, k) in locs.into_iter().take(max_locations) {
                f(name, k);
            }
            return;
        }
        let mut top: [Option<(&Name, &LocationKnowledge)>; STACK] = [None; STACK];
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
        for slot in &top[..len] {
            let (name, k) = slot.expect("filled prefix");
            f(name, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Counted;
    use embodied_profiler::count_tokens;

    fn percept(location: &str, entities: &[&str]) -> Percept {
        Percept {
            entities: entities.iter().map(|&e| e.into()).collect(),
            text: Counted::new(Rc::from("")),
            location: location.into(),
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
            *map.location("room_1").unwrap().entities,
            ["object_2".into()],
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
    fn context_is_the_summary_and_its_count_matches_the_text() {
        let mut map = WorldMap::new();
        // Distinct steps, a revisit, an entity-less room, a tie on
        // last_seen_step (rooms 7 and 8) to pin the stable-sort order, and
        // entity names with spaces, punctuation and non-ASCII letters.
        for i in 0..7 {
            map.integrate(&percept(&format!("room_{i}"), &["x", "y"]), i);
        }
        map.integrate(&percept("room_2", &[]), 9);
        map.integrate(&percept("room_8", &["z"]), 10);
        map.integrate(&percept("room_7", &["w"]), 10);
        map.integrate(&percept("dock Ω", &["", " crate,9 ", "物体"]), 1234);
        for cap in [0, 1, 3, 6, 12, 16, 17, 40] {
            let mut buf = String::from("prefix|\n");
            let tokens = map.write_context(&mut buf, cap);
            assert_eq!(
                buf,
                format!("prefix|\n[map]\n{}\n", map.summary(cap)),
                "cap {cap}"
            );
            assert_eq!(tokens, count_tokens(&buf["prefix|\n".len()..]), "cap {cap}");
            assert_eq!(map.context_tokens(cap), tokens, "cap {cap}");
        }
        let empty = WorldMap::new();
        let mut buf = String::new();
        assert_eq!(empty.write_context(&mut buf, 6), 0);
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
