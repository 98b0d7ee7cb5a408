//! Memory module: observation / action / dialogue stores with a capacity
//! window, retrieval latency, the paper's large-memory inconsistency effect
//! (Fig. 5), and the dual long/short-term structure of Rec. 5.

use crate::config::MemoryCapacity;
use crate::prompt::{count_tokens, Counted};
use embodied_profiler::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// What kind of information a record holds (paper §II-A: observation,
/// dialogue and action memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// World-state knowledge from sensing.
    Observation,
    /// The agent's own actions and their outcomes.
    Action,
    /// Messages exchanged with other agents.
    Dialogue,
}

/// One memory entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryRecord {
    /// Step the record was written.
    pub step: usize,
    /// Record category.
    pub kind: RecordKind,
    /// Prompt-ready text.
    pub text: String,
    /// Tokens in `text`, counted where it was made or when it was stored
    /// (left 0 by a disabled module, which never renders its records).
    pub tokens: u64,
    /// Entity names this record carries knowledge about.
    pub entities: Vec<String>,
}

/// Result of a retrieval pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieval {
    /// Prompt text of the retrieved context.
    pub text: String,
    /// Time the lookup took (grows with stored records — Fig. 5's
    /// "longer information retrieval times").
    pub latency: SimDuration,
    /// Quality penalty from memory inconsistency (0 unless the retained
    /// window is excessively large, per Fig. 5's full-history regime).
    pub inconsistency_penalty: f64,
    /// Records scanned by the lookup.
    pub records_scanned: usize,
}

/// Everything a retrieval pass measures except the text, which
/// [`MemoryModule::retrieve_write`] streams into a caller-owned buffer so
/// the steady-state step loop retrieves without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalStats {
    /// Time the lookup took.
    pub latency: SimDuration,
    /// Quality penalty from memory inconsistency.
    pub inconsistency_penalty: f64,
    /// Records scanned by the lookup.
    pub records_scanned: usize,
    /// Tokens in the text the lookup wrote: the stored record counts plus
    /// the `step N: ` prefixes, with only the summary header and the
    /// long-term line scanned.
    pub tokens: u64,
}

/// The memory module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryModule {
    enabled: bool,
    capacity: MemoryCapacity,
    dual: bool,
    summarize: bool,
    retrieval_mode: RetrievalMode,
    landmarks: HashSet<String>,
    records: Vec<MemoryRecord>,
    long_term: HashSet<String>,
    /// The long-term store again, kept sorted so retrieval renders the
    /// deterministic "known entities" line without collecting and sorting
    /// on every call. Insertions only happen for *new* entities, so the
    /// steady state never touches it.
    long_term_sorted: Vec<String>,
    /// Latest step at which each entity appeared in a stored record —
    /// the incremental index behind [`MemoryModule::knows`] /
    /// [`MemoryModule::known_entities`]. Records enter step-monotonically,
    /// so an entity is inside the retained window iff its latest sighting
    /// is at or past the window cutoff.
    last_seen: HashMap<String, usize>,
    stale: HashSet<String>,
    /// Action memory (paper §II-A): per-skill success counts — "knowledge
    /// on how to execute specific high-level plans", the JARVIS-1/VOYAGER
    /// skill library.
    skills: std::collections::HashMap<String, u32>,
    current_step: usize,
}

/// Retained window (in records) beyond which inconsistencies appear.
const INCONSISTENCY_ONSET: usize = 60;

/// How stored records are indexed for retrieval (paper Fig. 5 in-text:
/// "retrieval based on multimodal states … outperforms approaches that rely
/// solely on text embeddings").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RetrievalMode {
    /// Entity-indexed multimodal retrieval (vision + symbolic + action
    /// history): full recall — the suite default.
    #[default]
    Multimodal,
    /// Text-embedding similarity only: imperfect recall — entities whose
    /// descriptions embed poorly are missed at retrieval time.
    TextEmbedding,
}

impl embodied_profiler::ToJson for RetrievalMode {
    fn to_json(&self) -> embodied_profiler::JsonValue {
        embodied_profiler::JsonValue::Str(
            match self {
                RetrievalMode::Multimodal => "multimodal",
                RetrievalMode::TextEmbedding => "text-embedding",
            }
            .into(),
        )
    }
}

impl embodied_profiler::FromJson for RetrievalMode {
    fn from_json(
        value: &embodied_profiler::JsonValue,
    ) -> Result<Self, embodied_profiler::JsonError> {
        match value
            .as_str()
            .ok_or_else(|| embodied_profiler::JsonError::msg("retrieval mode: expected a string"))?
        {
            "multimodal" => Ok(RetrievalMode::Multimodal),
            "text-embedding" => Ok(RetrievalMode::TextEmbedding),
            other => Err(embodied_profiler::JsonError::msg(format!(
                "unknown retrieval mode: {other:?}"
            ))),
        }
    }
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
    2 + u64::from(step.checked_ilog10().unwrap_or(0) + 1)
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
        MemoryModule {
            enabled,
            capacity,
            dual,
            summarize,
            retrieval_mode: RetrievalMode::default(),
            landmarks: landmarks.into_iter().collect(),
            records: Vec::new(),
            long_term: HashSet::new(),
            long_term_sorted: Vec::new(),
            last_seen: HashMap::new(),
            stale: HashSet::new(),
            skills: std::collections::HashMap::new(),
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
            self.stale.clear();
        }
    }

    /// Stores a record. When the module is disabled the record still enters
    /// a 1-step working buffer — disabling the memory *module* removes
    /// storage and retrieval, not the agent's within-context awareness of
    /// the immediately preceding turn.
    pub fn store(&mut self, kind: RecordKind, text: impl Into<String>, entities: Vec<String>) {
        let text = text.into();
        let tokens = if self.enabled { count_tokens(&text) } else { 0 };
        self.push_record(kind, text, tokens, entities);
    }

    /// [`MemoryModule::store`] for text counted where it was made, such as
    /// a message its sender counted once for every recipient.
    pub fn store_counted(
        &mut self,
        kind: RecordKind,
        text: Counted<String>,
        entities: Vec<String>,
    ) {
        let tokens = text.tokens();
        self.push_record(kind, text.into_text(), tokens, entities);
    }

    fn push_record(&mut self, kind: RecordKind, text: String, tokens: u64, entities: Vec<String>) {
        debug_assert!(
            self.records
                .last()
                .is_none_or(|r| r.step <= self.current_step),
            "records must be stored in step order"
        );
        if self.dual && self.enabled {
            for e in &entities {
                if !self.long_term.contains(e) {
                    self.long_term.insert(e.clone());
                    let pos = self
                        .long_term_sorted
                        .binary_search(e)
                        .unwrap_or_else(|pos| pos);
                    self.long_term_sorted.insert(pos, e.clone());
                }
            }
        }
        for e in &entities {
            if let Some(seen) = self.last_seen.get_mut(e) {
                *seen = (*seen).max(self.current_step);
            } else {
                self.last_seen.insert(e.clone(), self.current_step);
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

    /// Records a successfully executed skill pattern in action memory
    /// (no-op when the module is disabled).
    pub fn record_skill(&mut self, pattern: &str) {
        if self.enabled {
            *self.skills.entry(pattern.to_owned()).or_insert(0) += 1;
        }
    }

    /// How often a skill pattern has succeeded before.
    pub fn skill_familiarity(&self, pattern: &str) -> u32 {
        if self.enabled {
            self.skills.get(pattern).copied().unwrap_or(0)
        } else {
            0
        }
    }

    /// Quality bonus from a practiced skill: accumulated procedural
    /// knowledge makes re-planning the same kind of step more reliable,
    /// saturating quickly (≤ +0.04).
    pub fn skill_bonus(&self, pattern: &str) -> f64 {
        (f64::from(self.skill_familiarity(pattern)) * 0.01).min(0.04)
    }

    /// Marks an entity's knowledge as stale (reflection discovered the
    /// world no longer matches memory); it is excluded from knowledge until
    /// re-observed or the marker expires.
    pub fn mark_stale(&mut self, entity: &str) {
        self.stale.insert(entity.to_owned());
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

    /// Whether one entity is currently known, without materializing the
    /// full known set: a point query against landmarks, the incremental
    /// last-seen index, and the long-term store.
    pub fn knows(&self, entity: &str) -> bool {
        if self.stale.contains(entity) {
            return false;
        }
        if self.landmarks.contains(entity)
            || (self.enabled && self.dual && self.long_term.contains(entity))
        {
            return true;
        }
        match self.last_seen.get(entity) {
            Some(&seen) => {
                seen >= self.window_cutoff()
                    && (self.retrieval_mode == RetrievalMode::Multimodal
                        || text_embedding_recalls(entity, self.current_step))
            }
            None => false,
        }
    }

    /// Entity names the agent currently *knows about*: landmarks, entities
    /// in the retained window, and (with dual memory) the long-term store —
    /// minus anything marked stale.
    pub fn known_entities(&self) -> HashSet<String> {
        let mut known = self.landmarks.clone();
        // The last-seen index collapses the per-record scan: an entity is
        // in the retained window (which is the 1-step working buffer when
        // the module is disabled) iff its latest sighting is.
        let cutoff = self.window_cutoff();
        for (e, &seen) in &self.last_seen {
            if seen >= cutoff
                && (self.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(e, self.current_step))
            {
                known.insert(e.clone());
            }
        }
        if self.enabled && self.dual {
            known.extend(self.long_term.iter().cloned());
        }
        for s in &self.stale {
            known.remove(s);
        }
        known
    }

    /// Streams retrieval context into `out` (appending), returning the
    /// measured stats. Allocation-free in steady state: record lines are
    /// written straight into the caller's buffer, the summarized view
    /// renders only the lines it keeps, and the dual-memory long-term line
    /// walks the pre-sorted store.
    pub fn retrieve_write(&self, out: &mut String) -> RetrievalStats {
        if !self.enabled {
            return RetrievalStats {
                latency: SimDuration::ZERO,
                inconsistency_penalty: 0.0,
                records_scanned: 0,
                tokens: 0,
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
        // would be dropped are never formatted at all.
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
        // Lines are joined by newlines, so the text's count is the sum of
        // the lines' counts: record lines add their stored counts, and only
        // the header and the long-term line are scanned.
        const KEEP_LAST: usize = 6;
        let mut tokens = 0;
        let skip = if self.summarize && n_lines > KEEP_LAST {
            let omitted = n_lines - KEEP_LAST;
            let start = out.len();
            let _ = writeln!(
                out,
                "[{omitted} earlier entries summarized: routine progress]"
            );
            tokens += count_tokens(&out[start..]);
            omitted
        } else {
            0
        };
        let mut line_idx = 0usize;
        let mut first = true;
        if self.dual {
            if line_idx >= skip {
                let start = out.len();
                out.push_str("long-term: known entities ");
                for (i, e) in self.long_term_sorted.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(e);
                }
                tokens += count_tokens(&out[start..]);
                first = false;
            }
            line_idx += 1;
        }
        for r in tail {
            if line_idx >= skip {
                if !first {
                    out.push('\n');
                }
                first = false;
                let _ = write!(out, "step {}: {}", r.step, r.text);
                tokens += step_prefix_tokens(r.step) + r.tokens;
            }
            line_idx += 1;
        }

        let inconsistency_penalty = if self.dual || retained.len() <= INCONSISTENCY_ONSET {
            0.0
        } else {
            (0.006 * (retained.len() - INCONSISTENCY_ONSET) as f64).min(0.12)
        };

        RetrievalStats {
            latency,
            inconsistency_penalty,
            records_scanned: scanned,
            tokens,
        }
    }

    /// Retrieves context for prompting into a fresh string. The step loop
    /// uses [`MemoryModule::retrieve_write`] with a reused buffer; this
    /// wrapper keeps the allocating convenience shape for callers that
    /// want an owned [`Retrieval`].
    pub fn retrieve(&self) -> Retrieval {
        let mut text = String::new();
        let stats = self.retrieve_write(&mut text);
        Retrieval {
            text,
            latency: stats.latency,
            inconsistency_penalty: stats.inconsistency_penalty,
            records_scanned: stats.records_scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::summarize_history;
    use embodied_llm::Tokenizer;

    fn module(capacity: MemoryCapacity) -> MemoryModule {
        MemoryModule::new(true, capacity, false, false, vec!["room_0".into()])
    }

    /// The pre-rework algorithms, verbatim: `known_entities` cloned the
    /// landmark set and re-scanned every retained record; `retrieve`
    /// collected every line into a `Vec<String>` before joining. The
    /// incremental index and the streaming writer must match both exactly.
    fn known_entities_by_record_scan(m: &MemoryModule) -> HashSet<String> {
        let mut known = m.landmarks.clone();
        for r in m.retained() {
            for e in &r.entities {
                if m.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(e, m.current_step)
                {
                    known.insert(e.clone());
                }
            }
        }
        if m.enabled && m.dual {
            known.extend(m.long_term.iter().cloned());
        }
        for s in &m.stale {
            known.remove(s);
        }
        known
    }

    fn retrieval_text_by_line_collection(m: &MemoryModule) -> String {
        if !m.enabled {
            return String::new();
        }
        let retained: Vec<&MemoryRecord> = m.retained().iter().collect();
        let lines: Vec<String> = if m.dual {
            let mut items: Vec<&str> = m.long_term.iter().map(String::as_str).collect();
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
                        vec![format!("object_{}", step % 5)],
                    );
                    if step % 7 == 3 {
                        m.mark_stale(&format!("object_{}", step % 5));
                    }
                    let expect = known_entities_by_record_scan(&m);
                    assert_eq!(m.known_entities(), expect, "known set diverged at {step}");
                    for e in &expect {
                        assert!(m.knows(e), "knows() must accept {e} at step {step}");
                    }
                    for i in 0..5 {
                        let e = format!("object_{i}");
                        assert_eq!(
                            m.knows(&e),
                            expect.contains(&e),
                            "knows({e}) diverged at step {step}"
                        );
                    }
                    assert_eq!(
                        m.retrieve().text,
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
                        vec![format!("object_{}", k % 5)],
                    );
                    m.store_counted(
                        RecordKind::Dialogue,
                        Counted::new(format!("\u{85}agent {k}: antidisestablishment ok ")),
                        Vec::new(),
                    );
                    let mut buf = String::from("[map]\nroom_0\n");
                    let prefix = buf.len();
                    let stats = m.retrieve_write(&mut buf);
                    assert_eq!(
                        stats.tokens,
                        Tokenizer::default().count(&buf[prefix..]),
                        "step {step}, enabled {enabled}, dual {dual}, summarize \
                         {summarize}, {mode:?}, {capacity:?}: {:?}",
                        &buf[prefix..]
                    );
                }
            }
        }
    }

    #[test]
    fn retrieve_write_appends_without_clearing() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let mut buf = String::from("[map]\nroom_0: apple_1\n");
        let stats = m.retrieve_write(&mut buf);
        assert!(buf.starts_with("[map]\n"));
        assert!(buf.ends_with("step 1: picked up apple_1"));
        assert_eq!(stats.records_scanned, 1);
        assert_eq!(stats.latency, m.retrieve().latency);
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
        assert!(m.known_entities().contains("apple_1"));
        assert_eq!(m.retrieve().latency, SimDuration::ZERO);
        // …but two steps later it is gone, and landmarks remain.
        m.begin_step(3);
        let known = m.known_entities();
        assert!(known.contains("room_0"));
        assert!(!known.contains("apple_1"));
    }

    #[test]
    fn window_forgets_old_entities() {
        let mut m = module(MemoryCapacity::Steps(3));
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        assert!(m.known_entities().contains("apple_1"));
        m.begin_step(10);
        assert!(
            !m.known_entities().contains("apple_1"),
            "entity outside the window must be forgotten"
        );
    }

    #[test]
    fn full_capacity_never_forgets() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.begin_step(500);
        assert!(m.known_entities().contains("apple_1"));
    }

    #[test]
    fn retrieval_latency_grows_with_records() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(0);
        let early = m.retrieve().latency;
        for i in 0..50 {
            m.begin_step(i);
            m.store(RecordKind::Action, format!("did thing {i}"), vec![]);
        }
        let late = m.retrieve().latency;
        assert!(late > early);
    }

    #[test]
    fn inconsistency_appears_only_with_huge_windows() {
        let mut m = module(MemoryCapacity::Full);
        for i in 0..100 {
            m.begin_step(i);
            m.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert!(m.retrieve().inconsistency_penalty > 0.0);

        let mut small = module(MemoryCapacity::Steps(8));
        for i in 0..100 {
            small.begin_step(i);
            small.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert_eq!(small.retrieve().inconsistency_penalty, 0.0);
    }

    #[test]
    fn dual_memory_kills_inconsistency_and_keeps_knowledge() {
        let mut m = MemoryModule::new(true, MemoryCapacity::Full, true, false, vec![]);
        for i in 0..100 {
            m.begin_step(i);
            m.store(
                RecordKind::Observation,
                format!("obs {i}"),
                vec![format!("entity_{i}")],
            );
        }
        let r = m.retrieve();
        assert_eq!(r.inconsistency_penalty, 0.0);
        // Long-term store retains everything…
        assert!(m.known_entities().contains("entity_0"));
        // …while retrieval stays cheap.
        assert!(r.latency < SimDuration::from_millis(200));
    }

    #[test]
    fn stale_entities_are_suppressed_then_recover() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.mark_stale("apple_1");
        assert!(!m.known_entities().contains("apple_1"));
        // Markers expire on a step divisible by 6.
        m.begin_step(6);
        assert!(m.known_entities().contains("apple_1"));
    }

    #[test]
    fn text_embedding_mode_misses_some_entities() {
        let entities: Vec<String> = (0..40).map(|i| format!("entity_{i}")).collect();
        let mut multi = module(MemoryCapacity::Full);
        let mut text =
            module(MemoryCapacity::Full).with_retrieval_mode(RetrievalMode::TextEmbedding);
        for m in [&mut multi, &mut text] {
            m.begin_step(1);
            m.store(RecordKind::Observation, "saw things", entities.clone());
        }
        let full = multi.known_entities().len();
        let partial = text.known_entities().len();
        assert!(partial < full, "text-only recall must miss entities");
        assert!(
            partial as f64 > full as f64 * 0.6,
            "but it should still recall most ({partial}/{full})"
        );
        // Deterministic at a given step…
        assert_eq!(text.known_entities(), text.known_entities());
        // …but the missed set shifts as the query context moves on.
        let before = text.known_entities();
        text.begin_step(9);
        assert_ne!(before, text.known_entities());
    }

    #[test]
    fn retrieval_text_contains_recent_records() {
        let mut m = module(MemoryCapacity::Steps(5));
        m.begin_step(2);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let r = m.retrieve();
        assert!(r.text.contains("picked up apple_1"));
        assert!(r.text.contains("step 2"));
    }

    #[test]
    fn skill_library_accumulates_and_saturates() {
        let mut m = module(MemoryCapacity::Steps(4));
        assert_eq!(m.skill_bonus("pick"), 0.0);
        for _ in 0..10 {
            m.record_skill("pick");
        }
        assert_eq!(m.skill_familiarity("pick"), 10);
        assert!((m.skill_bonus("pick") - 0.04).abs() < 1e-12, "bonus caps");
        assert_eq!(m.skill_bonus("craft"), 0.0);
    }

    #[test]
    fn disabled_memory_has_no_skill_library() {
        let mut m = MemoryModule::new(false, MemoryCapacity::Full, false, false, vec![]);
        m.record_skill("pick");
        assert_eq!(m.skill_familiarity("pick"), 0);
        assert_eq!(m.skill_bonus("pick"), 0.0);
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
        assert!(summ.retrieve().text.len() < plain.retrieve().text.len() / 2);
    }
}
