//! Prompt assembly.
//!
//! Prompts are *real strings*: system preamble, goal, current percept,
//! retrieved memory, dialogue history, and the candidate action menu. Token
//! counts therefore grow exactly the way the paper's Fig. 6 describes —
//! retrieved context and concatenated multi-agent dialogue inflate the
//! prompt step after step.
//!
//! Text that never changes once made (preambles, memory lines, messages)
//! carries its token count from where it was made as a [`Counted`], and
//! [`PromptWriter`] adds those counts up instead of re-scanning the bytes.
//! The token rule is additive across whitespace, and the writer ends every
//! section with a newline, so the sum is exactly the count of the text.

use crate::modules::Percept;
use embodied_env::Subgoal;
use embodied_llm::Tokenizer;
use std::fmt::{self, Display, Write as _};

/// Tokens in `text` under the tokenizer every simulated model uses.
pub fn count_tokens(text: &str) -> u64 {
    Tokenizer::default().count(text)
}

/// Prompt text paired with its token count, taken once where the text is
/// made. `Counted<String>` owns text that never changes (a preamble, a
/// goal, a message); `Counted<&str>` lends it to prompt assembly.
///
/// ```
/// use embodied_agents::prompt::Counted;
///
/// let goal = Counted::new(String::from("deliver the apple"));
/// assert_eq!(goal.tokens(), 3);
/// assert_eq!(goal.as_deref().text(), "deliver the apple");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counted<T> {
    text: T,
    tokens: u64,
}

impl<T: AsRef<str>> Counted<T> {
    /// Counts `text`.
    pub fn new(text: T) -> Self {
        let tokens = count_tokens(text.as_ref());
        Counted { text, tokens }
    }

    /// Pairs `text` with a count taken where it was made. Debug builds
    /// recount it and panic on a mismatch.
    pub fn with_tokens(text: T, tokens: u64) -> Self {
        debug_assert_eq!(
            tokens,
            count_tokens(text.as_ref()),
            "count of {:?}",
            text.as_ref()
        );
        Counted { text, tokens }
    }

    /// The text.
    pub fn text(&self) -> &str {
        self.text.as_ref()
    }

    /// Tokens in the text.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Borrows the text with its count.
    pub fn as_deref(&self) -> Counted<&str> {
        Counted {
            text: self.text.as_ref(),
            tokens: self.tokens,
        }
    }

    /// The text, giving up its count.
    pub fn into_text(self) -> T {
        self.text
    }
}

/// Renders a prompt's sections straight into a caller-owned `String` and
/// keeps a running token count of what it wrote. Each section is
/// `[title]\n{body}\n`, skipped when the body is empty or whitespace. The
/// writer scans only its own headers, bodies that arrive without a count,
/// and text it renders itself; a [`Counted`] body adds its count unread.
/// The per-step hot path reuses one buffer across an entire episode, so
/// assembly performs no allocations once the buffer has grown.
///
/// ```
/// use embodied_agents::prompt::{count_tokens, Counted, PromptWriter};
///
/// let mut buf = String::new();
/// let tokens = PromptWriter::new(&mut buf, Counted::new("be helpful"))
///     .push("goal", "deliver things")
///     .push("empty", "  ")
///     .tokens();
/// assert_eq!(buf, "[system]\nbe helpful\n[goal]\ndeliver things\n");
/// assert_eq!(tokens, count_tokens(&buf));
/// ```
pub struct PromptWriter<'a> {
    out: &'a mut String,
    tokens: u64,
}

impl<'a> PromptWriter<'a> {
    /// Clears `out` and starts a prompt with the workload's system preamble.
    pub fn new(out: &'a mut String, preamble: Counted<&str>) -> Self {
        out.clear();
        let mut w = PromptWriter { out, tokens: 0 };
        w.push_counted("system", preamble);
        w
    }

    /// Tokens in everything written so far: exactly
    /// [`Tokenizer::count`] of the text.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Appends a named section, counting `body` here.
    pub fn push(&mut self, title: impl Display, body: &str) -> &mut Self {
        self.push_counted(title, Counted::new(body))
    }

    /// Appends a named section whose body was counted where it was made.
    pub fn push_counted(&mut self, title: impl Display, body: Counted<&str>) -> &mut Self {
        // Every char that is not whitespace costs at least one token, so a
        // zero count is exactly a body that `trim` leaves empty.
        if body.tokens() > 0 {
            self.header(title);
            self.out.push_str(body.text());
            self.out.push('\n');
            self.tokens += body.tokens();
        }
        self
    }

    /// Appends a named section whose body is rendered through [`Display`]
    /// straight into the buffer — no intermediate `to_string`. Produces the
    /// same bytes as `push(title, &body.to_string())`, including skipping
    /// the section when the rendered body is empty or whitespace.
    pub fn push_display(&mut self, title: impl Display, body: &impl Display) -> &mut Self {
        let (start, tokens) = (self.out.len(), self.tokens);
        self.header(title);
        let body_start = self.out.len();
        let _ = write!(self.out, "{body}");
        let body_tokens = count_tokens(&self.out[body_start..]);
        if body_tokens == 0 {
            self.out.truncate(start);
            self.tokens = tokens;
        } else {
            self.out.push('\n');
            self.tokens += body_tokens;
        }
        self
    }

    /// Appends the candidate-subgoal menu, formatted as a numbered list —
    /// the action-list formalization the paper describes in §II-A.
    pub fn push_candidates(&mut self, candidates: &[Subgoal]) -> &mut Self {
        if candidates.is_empty() {
            return self;
        }
        let start = self.out.len();
        self.out.push_str("[available actions]\n");
        for (i, sg) in candidates.iter().enumerate() {
            let _ = writeln!(self.out, "({i}) {sg}");
        }
        self.out.push('\n');
        self.tokens += count_tokens(&self.out[start..]);
        self
    }

    /// Appends free text after the last section and counts it. Sections
    /// end in a newline, so the text starts at a token seam.
    pub fn append(&mut self, text: fmt::Arguments<'_>) -> &mut Self {
        debug_assert!(self.out.is_empty() || self.out.ends_with('\n'));
        let start = self.out.len();
        let _ = self.out.write_fmt(text);
        self.tokens += count_tokens(&self.out[start..]);
        self
    }

    /// Writes `[title]` and its newline, counting the title.
    fn header(&mut self, title: impl Display) {
        let start = self.out.len();
        let _ = write!(self.out, "[{title}]");
        self.tokens += count_tokens(&self.out[start..]);
        self.out.push('\n');
    }
}

/// Writes the centralized planner's joint prompt into `out` — one prompt
/// covering every agent, so tokens grow linearly with the team — and
/// returns its token count.
pub fn write_joint_plan_prompt(
    out: &mut String,
    preamble: Counted<&str>,
    goal: Counted<&str>,
    memory: Counted<&str>,
    percepts: &[Percept],
    menus: &[Vec<Subgoal>],
) -> u64 {
    let mut w = PromptWriter::new(out, preamble);
    w.push_counted("task goal", goal)
        .push_counted("memory", memory);
    for (i, (p, menu)) in percepts.iter().zip(menus).enumerate() {
        w.push(format_args!("agent {i} observation"), &p.text)
            .push_candidates(menu);
    }
    w.push(
        "instruction",
        "Assign the best next action to every agent, resolving conflicts \
         and interdependencies between their actions.",
    );
    w.tokens()
}

/// Workload-specific flavor appended to the system preamble: each suite
/// member's real prompt carries its own framing (Minecraft crafting,
/// cooperative transport, kitchen orchestration, …), which is part of why
/// base prompt sizes differ across systems.
pub fn workload_flavor(workload: &str) -> &'static str {
    match workload {
        "EmbodiedGPT" => {
            "Your agent is a single robot arm in a physical kitchen rig; skills are executed by a learned low-level control policy."
        }
        "JARVIS-1" => {
            "Your agent lives in an open Minecraft world. Track your inventory, respect crafting prerequisites, and remember which biome holds which resource."
        }
        "DaDu-E" => {
            "Your agent is a wheeled household robot with a LiDAR map and a grasping arm; navigation and grasping are closed-loop."
        }
        "MP5" => {
            "Your agent perceives Minecraft through an active camera; decompose open-ended goals into situation-aware sub-objectives."
        }
        "DEPS" => {
            "Describe, explain, plan and select: diagnose failures from the symbolic game state before revising the plan."
        }
        "MindAgent" => {
            "You schedule an entire kitchen brigade: assign each cook a compatible dish stage and keep every station busy."
        }
        "OLA" => {
            "You lead an organized household team; structure who searches which room and who carries what to where."
        }
        "COHERENT" => {
            "You coordinate heterogeneous robots (quadrotor, arm, dog) via proposal-execution-feedback-adjustment."
        }
        "CMAS" => {
            "You are the central dispatcher of fixed robot arms along a conveyor of lettered zones; arms can only reach adjacent zones."
        }
        "CoELA" => {
            "You are one of several cooperative embodied agents; share what you discover, split the work, and avoid duplicated effort."
        }
        "COMBO" => {
            "Reconstruct the shared world state from egocentric views before proposing your next cooperative move."
        }
        "RoCo" => {
            "You are one robot arm in a multi-arm cell; negotiate waypoints with the other arms so trajectories do not collide."
        }
        "DMAS" => {
            "Dialogue proceeds in rounds of turn-taking; argue for the assignment you believe is globally best."
        }
        "HMAS" => {
            "A central plan primes the dialogue; give concise local feedback so the final joint plan is conflict-free."
        }
        _ => "",
    }
}

/// The standard system preamble for a workload, ~120–170 words so the base
/// prompt cost is realistic, with per-workload flavor.
pub fn system_preamble(workload: &str, role: &str) -> String {
    let flavor = workload_flavor(workload);
    format!(
        "You are the {role} module of the {workload} embodied agent system. You operate a physical agent in a partially observable environment and must pursue the long-horizon task goal efficiently. {flavor} Reason step by step about the current observation, your memory of the world, and any messages from teammates before committing to a decision. Respect the environment's physical constraints: objects must be reachable, prerequisites must be satisfied, and only one action executes per step. Prefer actions that make direct progress toward the goal; avoid repeating actions that recently failed. Answer with exactly one choice from the provided action list, followed by a brief justification of how it advances the task."
    )
}

/// A compact summarized rendering of a list of history lines (Rec. 6):
/// keeps the `keep_last` most recent verbatim and collapses the rest into a
/// single count line.
pub fn summarize_history(lines: &[String], keep_last: usize) -> String {
    if lines.len() <= keep_last {
        return lines.join("\n");
    }
    let omitted = lines.len() - keep_last;
    let mut out = format!("[{omitted} earlier entries summarized: routine progress]\n");
    out.push_str(&lines[lines.len() - keep_last..].join("\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(out: &mut String, candidates: &[Subgoal]) -> u64 {
        PromptWriter::new(out, Counted::new("be helpful"))
            .push("goal", "deliver things")
            .push("empty", " \u{3000}\n")
            .push_counted("memory", Counted::new("saw an apple"))
            .push_display("proposed plan", &Subgoal::Explore)
            .push_display("blank", &"  ")
            .push_candidates(candidates)
            .tokens()
    }

    #[test]
    fn sections_render_in_order_and_skip_blank_bodies() {
        let candidates = [
            Subgoal::Explore,
            Subgoal::Pick {
                object: "apple_1".into(),
            },
        ];
        let mut buf = String::from("stale content from the previous step");
        let tokens = write(&mut buf, &candidates);
        assert_eq!(
            buf,
            "[system]\nbe helpful\n[goal]\ndeliver things\n[memory]\nsaw an apple\n\
             [proposed plan]\nexplore the environment\n[available actions]\n\
             (0) explore the environment\n(1) pick up apple_1\n\n"
        );
        assert_eq!(tokens, count_tokens(&buf));
        // Empty candidate menus are skipped.
        assert_eq!(write(&mut buf, &[]), count_tokens(&buf));
        assert!(!buf.contains("[available actions]"));
    }

    #[test]
    fn writer_reuses_the_buffer() {
        let mut buf = String::new();
        write(&mut buf, &[Subgoal::Explore]);
        let before_ptr = buf.as_ptr();
        write(&mut buf, &[Subgoal::Explore]);
        assert_eq!(before_ptr, buf.as_ptr(), "capacity should be reused");
    }

    #[test]
    fn appended_text_is_counted() {
        let mut buf = String::new();
        let tokens = PromptWriter::new(&mut buf, Counted::new("x"))
            .append(format_args!(
                "\n[proposed plan]\n{}\nConfirm.",
                Subgoal::Explore
            ))
            .tokens();
        assert!(buf.ends_with("x\n\n[proposed plan]\nexplore the environment\nConfirm."));
        assert_eq!(tokens, count_tokens(&buf));
    }

    #[test]
    fn joint_prompt_count_matches_its_text() {
        let percepts: Vec<Percept> = (0..3)
            .map(|i| Percept {
                entities: Vec::new(),
                text: format!("agent {i} sees crate_{i} in zone Б"),
                location: String::new(),
            })
            .collect();
        let menus = vec![vec![Subgoal::Explore]; 3];
        let mut buf = String::new();
        let tokens = write_joint_plan_prompt(
            &mut buf,
            Counted::new("plan jointly"),
            Counted::new("relay the crates"),
            Counted::new("step 2: agent 0: moved"),
            &percepts,
            &menus,
        );
        assert!(buf.contains("[agent 2 observation]\nagent 2 sees crate_2"));
        assert_eq!(tokens, count_tokens(&buf));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count of")]
    fn a_wrong_supplied_count_panics_in_debug_builds() {
        let _ = Counted::with_tokens("two words", 3);
    }

    #[test]
    fn preamble_costs_realistic_tokens() {
        let tok = Tokenizer::default();
        let n = tok.count(&system_preamble("CoELA", "planning"));
        assert!(
            (100..300).contains(&n),
            "preamble should cost ~120-250 tokens, got {n}"
        );
    }

    #[test]
    fn every_suite_member_has_flavor() {
        for name in [
            "EmbodiedGPT",
            "JARVIS-1",
            "DaDu-E",
            "MP5",
            "DEPS",
            "MindAgent",
            "OLA",
            "COHERENT",
            "CMAS",
            "CoELA",
            "COMBO",
            "RoCo",
            "DMAS",
            "HMAS",
        ] {
            assert!(
                !workload_flavor(name).is_empty(),
                "{name} missing prompt flavor"
            );
        }
        assert!(workload_flavor("SomethingElse").is_empty());
    }

    #[test]
    fn flavors_differentiate_prompts() {
        let a = system_preamble("JARVIS-1", "planning");
        let b = system_preamble("CoELA", "planning");
        assert_ne!(a, b);
        assert!(a.contains("Minecraft"));
        assert!(b.contains("cooperative"));
    }

    #[test]
    fn summarization_collapses_old_lines() {
        let lines: Vec<String> = (0..20).map(|i| format!("step {i}: moved")).collect();
        let full = lines.join("\n");
        let summary = summarize_history(&lines, 4);
        assert!(summary.len() < full.len());
        assert!(summary.contains("16 earlier entries"));
        assert!(summary.contains("step 19"));
        assert!(!summary.contains("step 3:"));
    }

    #[test]
    fn summarization_noop_when_short() {
        let lines = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(summarize_history(&lines, 5), "a\nb");
    }
}
