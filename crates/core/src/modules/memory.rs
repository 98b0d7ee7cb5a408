//! Memory module: observation / action / dialogue stores with a capacity
//! window, retrieval latency, the paper's large-memory inconsistency effect
//! (Fig. 5), and the dual long/short-term structure of Rec. 5.

use crate::config::MemoryCapacity;
use crate::prompt::{Counted, TextSink};
use embodied_env::{Name, NameHasher, SubgoalKind};
use embodied_profiler::{ascii_tokens, count_tokens, digit_tokens, SimDuration};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

thread_local! {
    static NO_ENTITIES: Rc<[Name]> = Rc::from([]);
}

/// An empty entity list: a reference-count bump on one shared empty slice,
/// where `Rc::from(Vec::new())` would allocate a header per record.
pub fn no_entities() -> Rc<[Name]> {
    NO_ENTITIES.with(Rc::clone)
}

/// What kind of information a record holds (paper §II-A: observation,
/// dialogue and action memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// World-state knowledge from sensing.
    Observation,
    /// The agent's own actions and their outcomes.
    Action,
    /// Messages exchanged with other agents.
    Dialogue,
}

/// One memory entry. Its text and entity names are shared with the percept
/// or message they came from, and with every other recipient of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRecord {
    /// Step the record was written.
    pub step: usize,
    /// Record category.
    pub kind: RecordKind,
    /// Prompt-ready text.
    pub text: Rc<str>,
    /// Tokens in `text`, counted where it was made or when it was stored
    /// (left 0 by a disabled module, which never renders its records).
    pub tokens: u64,
    /// Entity names this record carries knowledge about.
    pub entities: Rc<[Name]>,
}

/// What a retrieval pass measures; [`MemoryModule::retrieve`]
/// writes its text and count into a [`TextSink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalStats {
    /// Time the lookup took (grows with stored records — Fig. 5's "longer
    /// information retrieval times").
    pub latency: SimDuration,
    /// Quality penalty from memory inconsistency (0 unless the retained
    /// window is excessively large, per Fig. 5's full-history regime).
    pub inconsistency_penalty: f64,
    /// Records scanned by the lookup.
    pub records_scanned: usize,
}

/// An entity's index in one memory module's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntityId(u32);

impl EntityId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn word(self) -> usize {
        self.index() / 64
    }

    fn bit(self) -> u64 {
        1 << (self.0 % 64)
    }
}

/// A set of entities known to one [`MemoryModule`]: one bit per name in
/// that module's table. Only the module that made a set can name its
/// members ([`MemoryModule::names_not_in`], [`MemoryModule::set_contains`]);
/// a set from another agent's memory means nothing to it.
#[derive(Debug, Clone, Default)]
pub struct EntitySet {
    words: Vec<u64>,
}

impl EntitySet {
    fn contains(&self, id: EntityId) -> bool {
        self.words.get(id.word()).is_some_and(|w| w & id.bit() != 0)
    }

    fn insert(&mut self, id: EntityId) {
        if self.words.len() <= id.word() {
            self.words.resize(id.word() + 1, 0);
        }
        self.words[id.word()] |= id.bit();
    }

    fn union_with(&mut self, other: &EntitySet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Members of `self` that are not in `other`, in id order.
    fn ids_not_in<'a>(&'a self, other: &'a EntitySet) -> impl Iterator<Item = EntityId> + 'a {
        self.words.iter().enumerate().flat_map(move |(k, &w)| {
            let mut rest = w & !other.words.get(k).copied().unwrap_or(0);
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    EntityId(k as u32 * 64 + bit)
                })
            })
        })
    }
}

/// The module's name table: each entity name it has met, once, under the
/// id its indexes use. A name that arrives shared (from a percept, message
/// or record) is kept as that same symbol. A lookup reads no text: the
/// table hashes a name by the hash it was made with, and compares text
/// only when that hash matches another name's and the two are different
/// symbols.
#[derive(Debug, Clone, Default)]
struct EntityNames {
    ids: HashMap<Name, EntityId, BuildHasherDefault<NameHasher>>,
    names: Vec<Name>,
}

impl EntityNames {
    fn get(&self, name: &Name) -> Option<EntityId> {
        self.ids.get(name).copied()
    }

    /// The id of `name`, entering it under a new id on first sight.
    fn intern(&mut self, name: &Name) -> EntityId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = EntityId(u32::try_from(self.names.len()).expect("fewer than 2^32 entities"));
        self.names.push(name.clone());
        self.ids.insert(name.clone(), id);
        id
    }

    fn name(&self, id: EntityId) -> &Name {
        &self.names[id.index()]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The memory module.
#[derive(Debug, Clone)]
pub struct MemoryModule {
    enabled: bool,
    capacity: MemoryCapacity,
    dual: bool,
    summarize: bool,
    retrieval_mode: RetrievalMode,
    /// Every entity name the indexes below refer to, by id.
    names: EntityNames,
    landmarks: EntitySet,
    records: Vec<MemoryRecord>,
    long_term: EntitySet,
    /// The long-term store again, kept in name order so retrieval renders
    /// the deterministic "known entities" line without collecting and
    /// sorting on every call. Insertions only happen for *new* entities, so
    /// the steady state never touches it.
    long_term_sorted: Vec<EntityId>,
    /// Tokens in the long-term store joined by `", "`: each name's count
    /// plus one per comma, summed as names enter the store.
    long_term_tokens: u64,
    /// Latest step at which each entity (by id) appeared in a stored
    /// record — the incremental index behind [`MemoryModule::knows`] and
    /// [`MemoryModule::knowledge`]. Records enter step-monotonically, so an
    /// entity is inside the retained window iff its latest sighting is at
    /// or past the window cutoff.
    last_seen: Vec<Option<usize>>,
    stale: EntitySet,
    /// Action memory (paper §II-A): per-skill success counts — "knowledge
    /// on how to execute specific high-level plans", the JARVIS-1/VOYAGER
    /// skill library. Indexed by [`SubgoalKind`], so recording or asking
    /// about a skill hashes nothing.
    skills: [u32; SubgoalKind::COUNT],
    current_step: usize,
}

/// Retained window (in records) beyond which inconsistencies appear.
const INCONSISTENCY_ONSET: usize = 60;

/// How stored records are indexed for retrieval (paper Fig. 5 in-text:
/// "retrieval based on multimodal states … outperforms approaches that rely
/// solely on text embeddings").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalMode {
    /// Entity-indexed multimodal retrieval (vision + symbolic + action
    /// history): full recall — the suite default.
    #[default]
    Multimodal,
    /// Text-embedding similarity only: imperfect recall — entities whose
    /// descriptions embed poorly are missed at retrieval time.
    TextEmbedding,
}

/// Deterministic pseudo-embedding recall: a text-only index misses ~1 in 5
/// lookups, and *which* entities it misses shifts with the query context
/// (bucketed by step), the way embedding similarity drifts as the rest of
/// the prompt changes.
fn text_embedding_recalls(entity: &str, step: usize) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (step as u64 / 4);
    for b in entity.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    !h.is_multiple_of(5)
}

/// Tokens in a record line's `step N: ` prefix: "step", one per digit of
/// `N`, and the colon.
fn step_prefix_tokens(step: usize) -> u64 {
    2 + digit_tokens(step)
}

/// Lines the summarized view keeps verbatim behind its header.
const KEEP_LAST: usize = 6;

/// Tokens in the summarized view's `[N earlier entries summarized: …]`
/// header: the bracket, one per digit of `N`, and the fixed words.
fn summary_header_tokens(omitted: usize) -> u64 {
    1 + digit_tokens(omitted)
        + const { ascii_tokens(" earlier entries summarized: routine progress]") }
}

impl MemoryModule {
    /// Creates a memory module.
    ///
    /// * `enabled: false` reproduces the Fig. 3 memory-off ablation: nothing
    ///   is stored, knowledge collapses to landmarks + current percept.
    /// * `dual: true` enables Rec. 5's long-term/short-term split.
    /// * `summarize: true` enables Rec. 6's context compression.
    pub fn new(
        enabled: bool,
        capacity: MemoryCapacity,
        dual: bool,
        summarize: bool,
        landmarks: Vec<String>,
    ) -> Self {
        let mut names = EntityNames::default();
        let mut landmark_set = EntitySet::default();
        for name in landmarks {
            landmark_set.insert(names.intern(&name.into()));
        }
        MemoryModule {
            enabled,
            capacity,
            dual,
            summarize,
            retrieval_mode: RetrievalMode::default(),
            last_seen: vec![None; names.len()],
            names,
            landmarks: landmark_set,
            records: Vec::new(),
            long_term: EntitySet::default(),
            long_term_sorted: Vec::new(),
            long_term_tokens: 0,
            stale: EntitySet::default(),
            skills: [0; SubgoalKind::COUNT],
            current_step: 0,
        }
    }

    /// Selects the retrieval index (builder-style).
    pub fn with_retrieval_mode(mut self, mode: RetrievalMode) -> Self {
        self.retrieval_mode = mode;
        self
    }

    /// Whether the module stores anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total records stored so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Marks the beginning of an environment step.
    pub fn begin_step(&mut self, step: usize) {
        self.current_step = step;
        // Stale markers persist only briefly; the world may change back.
        if step.is_multiple_of(6) {
            self.stale.words.clear();
        }
    }

    /// Stores a record. When the module is disabled the record still enters
    /// a 1-step working buffer — disabling the memory *module* removes
    /// storage and retrieval, not the agent's within-context awareness of
    /// the immediately preceding turn.
    ///
    /// A shared `Rc<str>` or `Rc<[Name]>` is stored as is; a `&str` is
    /// copied once, where a `String` would be copied again into its `Rc`.
    pub fn store(
        &mut self,
        kind: RecordKind,
        text: impl Into<Rc<str>>,
        entities: impl Into<Rc<[Name]>>,
    ) {
        let text = text.into();
        let tokens = if self.enabled { count_tokens(&text) } else { 0 };
        self.push_record(kind, text, tokens, entities.into());
    }

    /// [`MemoryModule::store`] for text counted where it was made, such as
    /// a percept or a message its sender counted once for every recipient.
    pub fn store_counted(
        &mut self,
        kind: RecordKind,
        text: Counted<Rc<str>>,
        entities: Rc<[Name]>,
    ) {
        // As in `store`: a disabled module never retrieves, so its records
        // carry no count.
        let tokens = if self.enabled { text.tokens() } else { 0 };
        self.push_record(kind, text.into_text(), tokens, entities);
    }

    fn push_record(&mut self, kind: RecordKind, text: Rc<str>, tokens: u64, entities: Rc<[Name]>) {
        debug_assert!(
            self.records
                .last()
                .is_none_or(|r| r.step <= self.current_step),
            "records must be stored in step order"
        );
        for e in entities.iter() {
            let id = self.intern_shared(e);
            self.last_seen[id.index()] = Some(self.current_step);
            if self.dual && self.enabled && !self.long_term.contains(id) {
                // A comma is one token; names join at its space.
                let comma = u64::from(!self.long_term_sorted.is_empty());
                self.long_term_tokens += e.tokens() + comma;
                self.long_term.insert(id);
                let names = &self.names;
                let pos = self
                    .long_term_sorted
                    .binary_search_by(|&other| names.name(other).cmp(e))
                    .unwrap_or_else(|pos| pos);
                self.long_term_sorted.insert(pos, id);
            }
        }
        self.records.push(MemoryRecord {
            step: self.current_step,
            kind,
            text,
            tokens,
            entities,
        });
        if !self.enabled {
            let cutoff = self.current_step.saturating_sub(1);
            self.records.retain(|r| r.step >= cutoff);
        }
    }

    /// Records a successful execution of a kind of subgoal in action
    /// memory (no-op when the module is disabled).
    pub fn record_skill(&mut self, kind: SubgoalKind) {
        if self.enabled {
            self.skills[kind as usize] += 1;
        }
    }

    /// How often a kind of subgoal has succeeded before.
    pub fn skill_familiarity(&self, kind: SubgoalKind) -> u32 {
        if self.enabled {
            self.skills[kind as usize]
        } else {
            0
        }
    }

    /// Quality bonus from a practiced skill: accumulated procedural
    /// knowledge makes re-planning the same kind of step more reliable,
    /// saturating quickly (≤ +0.04).
    pub fn skill_bonus(&self, kind: SubgoalKind) -> f64 {
        (f64::from(self.skill_familiarity(kind)) * 0.01).min(0.04)
    }

    /// Marks an entity's knowledge as stale (reflection discovered the
    /// world no longer matches memory); it is excluded from knowledge until
    /// re-observed or the marker expires. The name made here from `entity`
    /// meets the shared name of the same text under one id.
    pub fn mark_stale(&mut self, entity: &str) {
        let id = self.intern_shared(&entity.into());
        self.stale.insert(id);
    }

    /// The id of `name`, entering the shared name itself into the name
    /// table (and the last-seen index, as never seen) on first sight.
    fn intern_shared(&mut self, name: &Name) -> EntityId {
        let id = self.names.intern(name);
        if self.last_seen.len() < self.names.len() {
            self.last_seen.resize(self.names.len(), None);
        }
        id
    }

    /// First step inside the retained window.
    fn window_cutoff(&self) -> usize {
        let window_steps = if self.enabled {
            match self.capacity {
                MemoryCapacity::None => 0,
                MemoryCapacity::Steps(n) => n,
                MemoryCapacity::Full => usize::MAX,
            }
        } else {
            1 // working buffer only
        };
        self.current_step.saturating_sub(window_steps)
    }

    /// Records inside the retained window. Records are stored in step
    /// order, so the window is always a suffix of the store and one
    /// binary search finds it — no per-call scan or collection.
    fn retained(&self) -> &[MemoryRecord] {
        let cutoff = self.window_cutoff();
        let start = self.records.partition_point(|r| r.step < cutoff);
        &self.records[start..]
    }

    /// Whether one entity is currently known: a point query against
    /// landmarks, the incremental last-seen index and the long-term store.
    pub fn knows(&self, entity: &Name) -> bool {
        let Some(id) = self.names.get(entity) else {
            return false;
        };
        !self.stale.contains(id)
            && (self.landmarks.contains(id)
                || (self.enabled && self.dual && self.long_term.contains(id))
                || self.in_window(id, self.window_cutoff()))
    }

    /// Whether the entity's latest sighting is at or past `cutoff`, the
    /// retained window's first step (the 1-step working buffer when the
    /// module is disabled), and the retrieval index recalls it.
    fn in_window(&self, id: EntityId, cutoff: usize) -> bool {
        self.last_seen[id.index()].is_some_and(|seen| {
            seen >= cutoff
                && (self.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(self.names.name(id), self.current_step))
        })
    }

    /// Everything the agent knows about: landmarks, entities in the
    /// retained window and (with dual memory) the long-term store, minus
    /// anything marked stale — plus `fresh`, this step's percept, which
    /// wins over a stale marker. Membership equals [`MemoryModule::knows`]
    /// for every name outside `fresh`.
    pub fn knowledge<'a>(&mut self, fresh: impl IntoIterator<Item = &'a Name>) -> EntitySet {
        let mut known = EntitySet {
            words: Vec::with_capacity(self.names.len().div_ceil(64)),
        };
        let cutoff = self.window_cutoff();
        for k in 0..self.names.len() {
            let id = EntityId(k as u32);
            if self.in_window(id, cutoff) {
                known.insert(id);
            }
        }
        known.union_with(&self.landmarks);
        if self.enabled && self.dual {
            known.union_with(&self.long_term);
        }
        for (w, stale) in known.words.iter_mut().zip(&self.stale.words) {
            *w &= !stale;
        }
        for name in fresh {
            let id = self.intern_shared(name);
            known.insert(id);
        }
        known
    }

    /// Whether `name` is a member of `set`, a set this module made.
    pub fn set_contains(&self, set: &EntitySet, name: &Name) -> bool {
        self.names.get(name).is_some_and(|id| set.contains(id))
    }

    /// The names in `set` but not in `base` (both made by this module),
    /// name-sorted: the knowledge a message carries.
    pub fn names_not_in(&self, set: &EntitySet, base: &EntitySet) -> Rc<[Name]> {
        let mut names: Vec<Name> = set
            .ids_not_in(base)
            .map(|id| self.names.name(id).clone())
            .collect();
        if names.is_empty() {
            return no_entities();
        }
        names.sort_unstable();
        names.into()
    }

    /// Retrieves context for prompting: appends it to `text` and returns
    /// the measured stats. Record lines add their stored counts, and the
    /// summary header and the long-term line are counted from their parts.
    /// Allocation-free in steady state: the summarized view renders only
    /// the lines it keeps, and the dual-memory long-term line walks the
    /// pre-sorted store.
    pub fn retrieve(&self, text: &mut TextSink<'_>) -> RetrievalStats {
        if !self.enabled {
            return RetrievalStats {
                latency: SimDuration::ZERO,
                inconsistency_penalty: 0.0,
                records_scanned: 0,
            };
        }
        let retained = self.retained();
        let scanned = if self.dual {
            // Short-term scan plus an indexed long-term lookup.
            retained.len().min(4) + 2
        } else {
            retained.len()
        };
        let latency = SimDuration::from_millis(20) + SimDuration::from_millis(16) * scanned as u64;

        // The rendered view is a virtual line sequence — the dual path is
        // one long-term line plus the last ≤4 records; the flat path is
        // every retained record. Summarization keeps the last 6 lines
        // behind a "[N earlier entries summarized]" header, so lines that
        // would be dropped are never formatted at all. Lines are joined by
        // newlines, so the text's count is the sum of the lines' counts.
        let tail = if self.dual {
            &retained[retained.len() - retained.len().min(4)..]
        } else {
            retained
        };
        let n_lines = if self.dual {
            1 + tail.len()
        } else {
            tail.len()
        };
        let skip = if self.summarize && n_lines > KEEP_LAST {
            let omitted = n_lines - KEEP_LAST;
            text.write(summary_header_tokens(omitted), |out| {
                let _ = writeln!(
                    out,
                    "[{omitted} earlier entries summarized: routine progress]"
                );
            });
            omitted
        } else {
            0
        };
        // The dual view's long-term line is its line 0.
        let long_term = self.dual && skip == 0;
        if long_term {
            let tokens =
                const { ascii_tokens("long-term: known entities") } + self.long_term_tokens;
            text.write(tokens, |out| {
                out.push_str("long-term: known entities ");
                for (i, &id) in self.long_term_sorted.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(self.names.name(id));
                }
            });
        }
        let kept = &tail[skip - usize::from(self.dual && !long_term)..];
        let tokens = kept
            .iter()
            .map(|r| step_prefix_tokens(r.step) + r.tokens)
            .sum();
        text.write(tokens, |out| {
            for (i, r) in kept.iter().enumerate() {
                if long_term || i > 0 {
                    out.push('\n');
                }
                let _ = write!(out, "step {}: {}", r.step, r.text);
            }
        });

        let inconsistency_penalty = if self.dual || retained.len() <= INCONSISTENCY_ONSET {
            0.0
        } else {
            (0.006 * (retained.len() - INCONSISTENCY_ONSET) as f64).min(0.12)
        };

        RetrievalStats {
            latency,
            inconsistency_penalty,
            records_scanned: scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::summarize_history;

    use std::collections::HashSet;

    fn module(capacity: MemoryCapacity) -> MemoryModule {
        MemoryModule::new(true, capacity, false, false, vec!["room_0".into()])
    }

    /// Retrieval through a rendering sink: the text it wrote and the stats.
    fn rendered(m: &MemoryModule) -> (String, RetrievalStats) {
        let mut buf = String::new();
        let stats = m.retrieve(&mut TextSink::new(Some(&mut buf)));
        (buf, stats)
    }

    /// The names of `set`'s members.
    fn names(m: &MemoryModule, set: &EntitySet) -> HashSet<String> {
        set.ids_not_in(&EntitySet::default())
            .map(|id| m.names.name(id).to_string())
            .collect()
    }

    /// The names the module knows, through the id index.
    fn known_entities(m: &mut MemoryModule) -> HashSet<String> {
        let known = m.knowledge([]);
        names(m, &known)
    }

    /// The pre-rework algorithms: the known set from the landmarks plus a
    /// scan of every retained record's entity names; retrieval collected
    /// every line into a `Vec<String>` before joining. The incremental
    /// index and the streaming writer must match both exactly.
    fn known_entities_by_record_scan(m: &MemoryModule) -> HashSet<String> {
        let mut known = names(m, &m.landmarks);
        for r in m.retained() {
            for e in r.entities.iter() {
                if m.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(e, m.current_step)
                {
                    known.insert(e.to_string());
                }
            }
        }
        if m.enabled && m.dual {
            known.extend(names(m, &m.long_term));
        }
        for s in names(m, &m.stale) {
            known.remove(&s);
        }
        known
    }

    fn retrieval_text_by_line_collection(m: &MemoryModule) -> String {
        if !m.enabled {
            return String::new();
        }
        let retained: Vec<&MemoryRecord> = m.retained().iter().collect();
        let lines: Vec<String> = if m.dual {
            let mut items: Vec<String> = names(m, &m.long_term).into_iter().collect();
            items.sort_unstable();
            let mut lines = vec![format!("long-term: known entities {}", items.join(", "))];
            lines.extend(
                retained
                    .iter()
                    .rev()
                    .take(4)
                    .rev()
                    .map(|r| format!("step {}: {}", r.step, r.text)),
            );
            lines
        } else {
            retained
                .iter()
                .map(|r| format!("step {}: {}", r.step, r.text))
                .collect()
        };
        if m.summarize {
            summarize_history(&lines, 6)
        } else {
            lines.join("\n")
        }
    }

    #[test]
    fn incremental_index_matches_record_scan_across_modes() {
        for (enabled, dual, summarize, mode) in [
            (true, false, false, RetrievalMode::Multimodal),
            (true, false, true, RetrievalMode::Multimodal),
            (true, true, false, RetrievalMode::Multimodal),
            (true, true, true, RetrievalMode::Multimodal),
            (true, false, false, RetrievalMode::TextEmbedding),
            (true, true, true, RetrievalMode::TextEmbedding),
            (false, false, false, RetrievalMode::Multimodal),
        ] {
            for capacity in [
                MemoryCapacity::None,
                MemoryCapacity::Steps(3),
                MemoryCapacity::Full,
            ] {
                let mut m = MemoryModule::new(
                    enabled,
                    capacity,
                    dual,
                    summarize,
                    vec!["room_0".into(), "goal_zone".into()],
                )
                .with_retrieval_mode(mode);
                for step in 0..25 {
                    m.begin_step(step);
                    m.store(
                        RecordKind::Observation,
                        format!("saw object_{} at step {step}", step % 5),
                        vec![format!("object_{}", step % 5).into()],
                    );
                    if step % 7 == 3 {
                        m.mark_stale(&format!("object_{}", step % 5));
                    }
                    let expect = known_entities_by_record_scan(&m);
                    assert_eq!(
                        known_entities(&mut m),
                        expect,
                        "known set diverged at {step}"
                    );
                    for e in &expect {
                        assert!(
                            m.knows(&e.as_str().into()),
                            "knows() must accept {e} at step {step}"
                        );
                    }
                    for i in 0..5 {
                        let e = format!("object_{i}");
                        assert_eq!(
                            m.knows(&e.as_str().into()),
                            expect.contains(&e),
                            "knows({e}) diverged at step {step}"
                        );
                    }
                    assert_eq!(
                        rendered(&m).0,
                        retrieval_text_by_line_collection(&m),
                        "retrieval text diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn retrieval_tokens_equal_a_count_of_the_written_text() {
        // Sparse steps so `step N: ` prefixes carry 1 to 4 digits, and
        // record texts that start or end in non-ASCII whitespace.
        let steps = [
            0, 1, 7, 9, 10, 11, 58, 99, 100, 101, 640, 999, 1000, 1001, 4096, 9999,
        ];
        for (enabled, dual, summarize, mode) in [
            (true, false, false, RetrievalMode::Multimodal),
            (true, false, true, RetrievalMode::Multimodal),
            (true, true, false, RetrievalMode::Multimodal),
            (true, true, true, RetrievalMode::Multimodal),
            (true, false, true, RetrievalMode::TextEmbedding),
            (true, true, true, RetrievalMode::TextEmbedding),
            (false, false, false, RetrievalMode::Multimodal),
            (false, true, true, RetrievalMode::Multimodal),
        ] {
            for capacity in [
                MemoryCapacity::None,
                MemoryCapacity::Steps(3),
                MemoryCapacity::Steps(2000),
                MemoryCapacity::Full,
            ] {
                let mut m =
                    MemoryModule::new(enabled, capacity, dual, summarize, vec!["room_0".into()])
                        .with_retrieval_mode(mode);
                for (k, &step) in steps.iter().enumerate() {
                    m.begin_step(step);
                    m.store(
                        RecordKind::Observation,
                        format!("saw object_{}\u{3000}at dock Ω{k}", k % 5),
                        vec![format!("object_{}", k % 5).into()],
                    );
                    m.store_counted(
                        RecordKind::Dialogue,
                        Counted::new(format!("\u{85}agent {k}: antidisestablishment ok ").into()),
                        vec![format!(" ω crate,{}", k % 3).into()].into(),
                    );
                    let mut buf = String::new();
                    let mut text = TextSink::new(Some(&mut buf));
                    text.push(Counted::literal("[map]\nroom_0\n"));
                    let stats = m.retrieve(&mut text);
                    let tokens = text.tokens();
                    assert_eq!(
                        tokens,
                        count_tokens(&buf),
                        "step {step}, enabled {enabled}, dual {dual}, summarize \
                         {summarize}, {mode:?}, {capacity:?}: {buf:?}"
                    );
                    let mut counted = TextSink::new(None);
                    counted.push(Counted::literal("[map]\nroom_0\n"));
                    assert_eq!(m.retrieve(&mut counted), stats);
                    assert_eq!(counted.tokens(), tokens);
                }
            }
        }
    }

    #[test]
    fn retrieve_appends_without_clearing() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let mut buf = String::new();
        let mut text = TextSink::new(Some(&mut buf));
        text.push(Counted::literal("[map]\nroom_0: apple_1\n"));
        let stats = m.retrieve(&mut text);
        let tokens = text.tokens();
        assert!(buf.starts_with("[map]\n"));
        assert!(buf.ends_with("step 1: picked up apple_1"));
        assert_eq!(tokens, count_tokens(&buf));
        assert_eq!(stats.records_scanned, 1);
        assert_eq!(stats, m.retrieve(&mut TextSink::new(None)));
    }

    #[test]
    fn disabled_memory_keeps_only_a_one_step_working_buffer() {
        let mut m = MemoryModule::new(
            false,
            MemoryCapacity::Full,
            false,
            false,
            vec!["room_0".into()],
        );
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        // The immediately preceding turn is still in working context…
        assert!(known_entities(&mut m).contains("apple_1"));
        assert_eq!(rendered(&m).1.latency, SimDuration::ZERO);
        // …but two steps later it is gone, and landmarks remain.
        m.begin_step(3);
        let known = known_entities(&mut m);
        assert!(known.contains("room_0"));
        assert!(!known.contains("apple_1"));
    }

    #[test]
    fn window_forgets_old_entities() {
        let mut m = module(MemoryCapacity::Steps(3));
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        assert!(known_entities(&mut m).contains("apple_1"));
        m.begin_step(10);
        assert!(
            !known_entities(&mut m).contains("apple_1"),
            "entity outside the window must be forgotten"
        );
    }

    #[test]
    fn full_capacity_never_forgets() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.begin_step(500);
        assert!(known_entities(&mut m).contains("apple_1"));
    }

    #[test]
    fn retrieval_latency_grows_with_records() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(0);
        let early = rendered(&m).1.latency;
        for i in 0..50 {
            m.begin_step(i);
            m.store(RecordKind::Action, format!("did thing {i}"), vec![]);
        }
        let late = rendered(&m).1.latency;
        assert!(late > early);
    }

    #[test]
    fn inconsistency_appears_only_with_huge_windows() {
        let mut m = module(MemoryCapacity::Full);
        for i in 0..100 {
            m.begin_step(i);
            m.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert!(rendered(&m).1.inconsistency_penalty > 0.0);

        let mut small = module(MemoryCapacity::Steps(8));
        for i in 0..100 {
            small.begin_step(i);
            small.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert_eq!(rendered(&small).1.inconsistency_penalty, 0.0);
    }

    #[test]
    fn dual_memory_kills_inconsistency_and_keeps_knowledge() {
        let mut m = MemoryModule::new(true, MemoryCapacity::Full, true, false, vec![]);
        for i in 0..100 {
            m.begin_step(i);
            m.store(
                RecordKind::Observation,
                format!("obs {i}"),
                vec![format!("entity_{i}").into()],
            );
        }
        let (_, r) = rendered(&m);
        assert_eq!(r.inconsistency_penalty, 0.0);
        // Long-term store retains everything…
        assert!(known_entities(&mut m).contains("entity_0"));
        // …while retrieval stays cheap.
        assert!(r.latency < SimDuration::from_millis(200));
    }

    #[test]
    fn stale_entities_are_suppressed_then_recover() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.mark_stale("apple_1");
        assert!(!known_entities(&mut m).contains("apple_1"));
        // Markers expire on a step divisible by 6.
        m.begin_step(6);
        assert!(known_entities(&mut m).contains("apple_1"));
    }

    #[test]
    fn text_embedding_mode_misses_some_entities() {
        let entities: Vec<Name> = (0..40).map(|i| format!("entity_{i}").into()).collect();
        let mut multi = module(MemoryCapacity::Full);
        let mut text =
            module(MemoryCapacity::Full).with_retrieval_mode(RetrievalMode::TextEmbedding);
        for m in [&mut multi, &mut text] {
            m.begin_step(1);
            m.store(RecordKind::Observation, "saw things", entities.clone());
        }
        let full = known_entities(&mut multi).len();
        let partial = known_entities(&mut text).len();
        assert!(partial < full, "text-only recall must miss entities");
        assert!(
            partial as f64 > full as f64 * 0.6,
            "but it should still recall most ({partial}/{full})"
        );
        // Deterministic at a given step…
        assert_eq!(known_entities(&mut text), known_entities(&mut text));
        // …but the missed set shifts as the query context moves on.
        let before = known_entities(&mut text);
        text.begin_step(9);
        assert_ne!(before, known_entities(&mut text));
    }

    #[test]
    fn retrieval_text_contains_recent_records() {
        let mut m = module(MemoryCapacity::Steps(5));
        m.begin_step(2);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let (text, _) = rendered(&m);
        assert!(text.contains("picked up apple_1"));
        assert!(text.contains("step 2"));
    }

    #[test]
    fn skill_library_accumulates_and_saturates() {
        let mut m = module(MemoryCapacity::Steps(4));
        assert_eq!(m.skill_bonus(SubgoalKind::Pick), 0.0);
        for _ in 0..10 {
            m.record_skill(SubgoalKind::Pick);
        }
        m.record_skill(SubgoalKind::Wait);
        assert_eq!(m.skill_familiarity(SubgoalKind::Pick), 10);
        assert_eq!(m.skill_familiarity(SubgoalKind::Wait), 1);
        assert!(
            (m.skill_bonus(SubgoalKind::Pick) - 0.04).abs() < 1e-12,
            "bonus caps"
        );
        assert_eq!(m.skill_bonus(SubgoalKind::Craft), 0.0);
    }

    #[test]
    fn disabled_memory_has_no_skill_library() {
        let mut m = MemoryModule::new(false, MemoryCapacity::Full, false, false, vec![]);
        m.record_skill(SubgoalKind::Pick);
        assert_eq!(m.skill_familiarity(SubgoalKind::Pick), 0);
        assert_eq!(m.skill_bonus(SubgoalKind::Pick), 0.0);
    }

    /// Landmarks arrive as text and `mark_stale` takes text, so memory
    /// makes those names itself. Each must meet the environment's shared
    /// name of the same text under one id, and the table keeps the first.
    #[test]
    fn names_made_twice_meet_their_shared_twins() {
        use embodied_env::{Environment, TaskDifficulty, TransportEnv};

        let env = TransportEnv::new(TaskDifficulty::Easy, 2, 7);
        let landmarks = env.landmarks();
        let mut m = MemoryModule::new(true, MemoryCapacity::Full, false, false, landmarks.clone());
        let menu = env.candidate_subgoals(0);
        let shared: Vec<&Name> = menu
            .iter()
            .flat_map(|sg| sg.entity_refs().into_iter().flatten())
            .collect();
        let (twins, others): (Vec<&Name>, Vec<&Name>) = shared
            .into_iter()
            .partition(|n| landmarks.iter().any(|l| l == n.as_str()));
        assert!(!twins.is_empty() && !others.is_empty(), "{menu:?}");
        let table = m.names.len();
        for twin in twins {
            let id = m.names.get(twin).expect("the landmark's id");
            assert!(!Name::ptr_eq(m.names.name(id), twin), "made twice");
            assert_eq!(m.intern_shared(twin), id);
            assert!(m.knows(twin));
        }
        assert_eq!(m.names.len(), table);

        let other = others[0];
        m.mark_stale(other);
        let id = m.names.get(other).expect("the stale marker's id");
        assert!(!Name::ptr_eq(m.names.name(id), other), "made twice");
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw it", vec![other.clone()]);
        assert_eq!(m.intern_shared(other), id);
        assert!(!m.knows(other), "the marker holds for the shared twin");
        assert_eq!(m.names.len(), table + 1);
    }

    #[test]
    fn summarization_shrinks_retrieved_text() {
        let mut plain = module(MemoryCapacity::Full);
        let mut summ = MemoryModule::new(true, MemoryCapacity::Full, false, true, vec![]);
        for i in 0..30 {
            plain.begin_step(i);
            summ.begin_step(i);
            let text = format!("observed the corridor and moved forward at step {i}");
            plain.store(RecordKind::Observation, text.clone(), vec![]);
            summ.store(RecordKind::Observation, text, vec![]);
        }
        assert!(rendered(&summ).0.len() < rendered(&plain).0.len() / 2);
    }
}
