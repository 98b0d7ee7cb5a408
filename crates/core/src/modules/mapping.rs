//! Spatial world model built from accumulated observations.
//!
//! The paper's sensing module "establishes a global or shared environmental
//! model that includes a map of spatial layout, moving entities, obstacles,
//! and resource locations" (§II-A). [`WorldMap`] is that model: it folds
//! each step's percept into per-location entity registries and visit
//! counts, renders a compact map summary for prompts, and reports coverage
//! — the measurable footprint of exploration.

use crate::modules::Percept;
use crate::prompt::{Counted, TextSink};
use embodied_env::Name;
use embodied_profiler::{ascii_tokens, digit_tokens};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Locations the map's prompt context lists: the most recently seen.
const CONTEXT_LOCATIONS: usize = 6;

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

    /// Renders one line per location, most recently seen first, capped at
    /// `max_locations` lines: the plain rendering that
    /// [`Self::write_context`]'s lines are tested against.
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

    /// Writes the map's prompt context into `text`: a `[map]` header and
    /// the [`Self::summary`] of the six most recently seen locations, each
    /// line ending in a newline and counted from its parts when its content
    /// last changed; nothing while no location is mapped. Allocation-free.
    pub fn write_context(&self, text: &mut TextSink<'_>) {
        if self.locations.is_empty() {
            return;
        }
        text.push(Counted::literal("[map]\n"));
        self.for_each_recent(|name, k| {
            text.write(k.line_tokens, |out| {
                if k.entities.is_empty() {
                    let _ = write!(out, "{name}: nothing notable");
                } else {
                    let _ = write!(out, "{name}: ");
                    for (j, e) in k.entities.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(e);
                    }
                }
                let _ = writeln!(out, " (seen step {})", k.last_seen_step);
            });
        });
    }

    /// Visits the `CONTEXT_LOCATIONS` most recently seen locations, newest
    /// first, in [`Self::summary`]'s order: ties on `last_seen_step` keep
    /// map (alphabetical) order, as its stable sort does. The selection
    /// runs on a stack scratchpad.
    fn for_each_recent(&self, mut f: impl FnMut(&str, &LocationKnowledge)) {
        const N: usize = CONTEXT_LOCATIONS;
        let mut top: [Option<(&Name, &LocationKnowledge)>; N] = [None; N];
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
            if pos >= N {
                continue;
            }
            let new_len = (len + 1).min(N);
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

    /// The map's context through a rendering sink, and its count.
    fn context(map: &WorldMap) -> (String, u64) {
        let mut buf = String::from("stale text");
        let mut text = TextSink::new(Some(&mut buf));
        map.write_context(&mut text);
        let tokens = text.tokens();
        (buf, tokens)
    }

    #[test]
    fn summary_orders_by_recency_and_caps() {
        let mut map = WorldMap::new();
        for i in 0..8 {
            map.integrate(&percept(&format!("room_{i}"), &["x"]), i);
        }
        let summary = map.summary(3);
        assert_eq!(summary.lines().count(), 3);
        assert!(summary.lines().next().unwrap().starts_with("room_7"));
        assert!(!summary.contains("room_4"));
        let (context, _) = context(&map);
        assert_eq!(context.lines().count(), 1 + CONTEXT_LOCATIONS);
        assert!(context.lines().nth(1).unwrap().starts_with("room_7"));
        assert!(!context.contains("room_1"));
    }

    #[test]
    fn context_is_the_summary_and_its_count_matches_the_text() {
        // Distinct steps, a revisit, an entity-less room, a tie on
        // last_seen_step (rooms 7 and 8) to pin the stable-sort order, and
        // entity names with spaces, punctuation and non-ASCII letters:
        // ten locations, so the cap of six binds.
        let mut visits: Vec<(String, &[&str], usize)> = (0..7)
            .map(|i| (format!("room_{i}"), &["x", "y"][..], i))
            .collect();
        visits.extend([
            ("room_2".to_owned(), &[][..], 9),
            ("room_8".to_owned(), &["z"][..], 10),
            ("room_7".to_owned(), &["w"][..], 10),
            ("dock Ω".to_owned(), &["", " crate,9 ", "物体"][..], 1234),
        ]);
        let mut map = WorldMap::new();
        assert_eq!(context(&map), (String::new(), 0));
        for (location, entities, step) in visits {
            map.integrate(&percept(&location, entities), step);
            let (buf, tokens) = context(&map);
            let expected = format!("[map]\n{}\n", map.summary(CONTEXT_LOCATIONS));
            assert_eq!(buf, expected, "after {location} at step {step}");
            assert_eq!(
                tokens,
                count_tokens(&buf),
                "after {location} at step {step}"
            );
            let mut counted = TextSink::new(None);
            map.write_context(&mut counted);
            assert_eq!(counted.tokens(), tokens, "after {location} at step {step}");
        }
        assert_eq!(map.coverage(), 10);
    }

    #[test]
    fn empty_location_percepts_are_ignored() {
        let mut map = WorldMap::new();
        map.integrate(&percept("", &["ghost"]), 0);
        assert_eq!(map.coverage(), 0);
        assert!(map.summary(5).is_empty());
        assert_eq!(context(&map), (String::new(), 0));
    }
}
