//! Prompt assembly.
//!
//! Prompts are *counts*. Every section — system preamble, goal, current
//! percept, retrieved memory, dialogue history, the candidate action menu —
//! adds its tokens, so prompt size grows exactly the way the paper's Fig. 6
//! describes: retrieved context and concatenated multi-agent dialogue
//! inflate the prompt step after step. The simulated model bills, times and
//! scores a call by that count alone. The bytes are rendered only where
//! something reads them: for an engine with KV-prefix reuse, which compares
//! consecutive prompts, and in every debug build, where the engine recounts
//! each rendered prompt against the count assembly summed (see
//! [`PromptWriter::for_engine`]).
//!
//! Nothing is formatted to be counted. Text that never changes once made
//! (preambles, percepts, memory lines, messages) carries its token count
//! from where it was made as a [`Counted`]; fixed wording (instructions,
//! header brackets, section titles) is counted at compile time with
//! [`Counted::literal`]. What the environment makes
//! arrives counted: each entity name and fixed word carries its count from
//! where it was made ([`Name::tokens`](embodied_env::Name::tokens)), and a
//! subgoal or a phrase adds its wording to the counts of its names
//! ([`Subgoal::tokens`], [`Phrase::tokens`](embodied_env::Phrase::tokens)),
//! so prompt assembly repeats none of the environment's wording.
//! The token rule is additive across whitespace and across punctuation,
//! and every piece meets its neighbours at such a seam, so the sum is
//! exactly the count of the text.

use crate::modules::Percept;
use embodied_env::Subgoal;
use embodied_llm::{EngineHandle, Prompt};
use embodied_profiler::{ascii_tokens, count_tokens, digit_tokens};
use std::fmt::{Display, Write as _};

/// Whether prompts for `engine` are rendered as text: when the engine reads
/// it (KV-prefix reuse), and in debug builds, so the engine recounts every
/// rendered prompt against its summed count. Otherwise assembly only sums
/// counts.
pub(crate) fn renders_for(engine: &EngineHandle) -> bool {
    engine.reads_prompt_text() || render_by_default()
}

#[cfg(not(test))]
fn render_by_default() -> bool {
    cfg!(debug_assertions)
}

#[cfg(test)]
thread_local! {
    static RENDER_BY_DEFAULT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(cfg!(debug_assertions)) };
}

#[cfg(test)]
fn render_by_default() -> bool {
    RENDER_BY_DEFAULT.with(std::cell::Cell::get)
}

/// Makes this test thread render every prompt (`true`) or only those an
/// engine reads (`false`), whatever the build profile.
#[cfg(test)]
pub(crate) fn set_render_by_default(render: bool) {
    RENDER_BY_DEFAULT.with(|r| r.set(render));
}

/// Prompt text paired with its token count, taken once where the text is
/// made. `Counted<String>` owns text that never changes (a preamble, a
/// goal); `Counted<Rc<str>>` shares it (a percept or a message, held by
/// memory and every recipient); `Counted<&str>` lends it to prompt
/// assembly.
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

impl Counted<&'static str> {
    /// Fixed ASCII wording, counted at compile time in a constant.
    ///
    /// ```
    /// use embodied_agents::prompt::Counted;
    ///
    /// const ASK: Counted<&str> = Counted::literal("Answer in one line.");
    /// assert_eq!(ASK, Counted::new("Answer in one line."));
    /// ```
    pub const fn literal(text: &'static str) -> Self {
        Counted {
            text,
            tokens: ascii_tokens(text),
        }
    }
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

/// A section body made elsewhere and counted there: its text with the
/// count, or the count alone when the prompt is assembled without text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// The text and its count.
    Text(Counted<&'a str>),
    /// The count alone; a rendering [`PromptWriter`] accepts only a zero
    /// count, an empty body it skips.
    Count(u64),
}

impl<'a> Body<'a> {
    /// The text in `buf` with its count when `rendered`, else the count
    /// alone (`buf` is then not read).
    pub fn new(rendered: bool, buf: &'a str, tokens: u64) -> Self {
        if rendered {
            Body::Text(Counted::with_tokens(buf, tokens))
        } else {
            Body::Count(tokens)
        }
    }

    /// Tokens in the body.
    pub fn tokens(&self) -> u64 {
        match self {
            Body::Text(text) => text.tokens(),
            Body::Count(tokens) => *tokens,
        }
    }
}

impl<'a> From<Counted<&'a str>> for Body<'a> {
    fn from(text: Counted<&'a str>) -> Self {
        Body::Text(text)
    }
}

/// Section titles, counted at compile time.
pub mod title {
    use super::Counted;

    /// The system preamble.
    pub const SYSTEM: Counted<&str> = Counted::literal("system");
    /// The task goal.
    pub const TASK_GOAL: Counted<&str> = Counted::literal("task goal");
    /// The planner's current percept.
    pub const CURRENT_OBSERVATION: Counted<&str> = Counted::literal("current observation");
    /// Retrieved memory and the map.
    pub const MEMORY: Counted<&str> = Counted::literal("memory");
    /// Messages received.
    pub const DIALOGUE: Counted<&str> = Counted::literal("dialogue");
    /// The dialogue a message answers.
    pub const DIALOGUE_SO_FAR: Counted<&str> = Counted::literal("dialogue so far");
    /// A message sender's own state.
    pub const YOUR_STATUS: Counted<&str> = Counted::literal("your status");
    /// A prompt's closing instruction.
    pub const INSTRUCTION: Counted<&str> = Counted::literal("instruction");
    /// A plan up for confirmation or verification.
    pub const PROPOSED_PLAN: Counted<&str> = Counted::literal("proposed plan");
    /// The action reflection diagnoses.
    pub const ATTEMPTED_ACTION: Counted<&str> = Counted::literal("attempted action");
    /// What that action did.
    pub const OBSERVED_RESULT: Counted<&str> = Counted::literal("observed result");
    /// The guardrail's feedback on a rejected action.
    pub const VALIDATOR_ERROR: Counted<&str> = Counted::literal("validator error");
    /// The candidate menu.
    pub const AVAILABLE_ACTIONS: Counted<&str> = Counted::literal("available actions");
}

/// Assembles a prompt's sections into a caller-owned `String` and keeps a
/// running token count. Each section is `[title]\n{body}\n`, skipped when
/// the body is empty or whitespace. Titles arrive counted, as the
/// constants of [`mod@title`].
///
/// A writer has two forms. [`PromptWriter::new`] renders the text and sums
/// its count. [`PromptWriter::counting`] only sums the count and never
/// touches its buffer: every section adds counts made elsewhere (a header
/// costs its title's tokens and two brackets, a menu line its number, its
/// parentheses and [`Subgoal::tokens`]), so the two forms always agree on
/// the count. The writer scans only bodies that arrive without a count.
/// The per-step hot path reuses one buffer across an entire episode, so
/// rendering performs no allocations once the buffer has grown.
///
/// ```
/// use embodied_agents::prompt::{Counted, PromptWriter};
/// use embodied_profiler::count_tokens;
///
/// const GOAL: Counted<&str> = Counted::literal("goal");
/// let mut buf = String::new();
/// let tokens = PromptWriter::new(&mut buf, Counted::new("be helpful"))
///     .push(GOAL, "deliver things")
///     .push(Counted::literal("empty"), "  ")
///     .tokens();
/// assert_eq!(buf, "[system]\nbe helpful\n[goal]\ndeliver things\n");
/// assert_eq!(tokens, count_tokens(&buf));
///
/// let mut scratch = String::new();
/// let counted = PromptWriter::counting(&mut scratch, Counted::new("be helpful"))
///     .push(GOAL, "deliver things")
///     .tokens();
/// assert_eq!((counted, scratch.capacity()), (tokens, 0));
/// ```
pub struct PromptWriter<'a> {
    out: &'a mut String,
    render: bool,
    tokens: u64,
}

impl<'a> PromptWriter<'a> {
    /// Clears `out` and starts rendering a prompt with the workload's
    /// system preamble.
    pub fn new(out: &'a mut String, preamble: Counted<&str>) -> Self {
        Self::start(out, preamble, true)
    }

    /// Starts counting a prompt without rendering it. `scratch` is cleared
    /// and never written.
    pub fn counting(scratch: &'a mut String, preamble: Counted<&str>) -> Self {
        Self::start(scratch, preamble, false)
    }

    /// Starts a prompt for `engine`: rendered when the engine reads text or
    /// the build is a debug build, else only counted.
    pub fn for_engine(out: &'a mut String, preamble: Counted<&str>, engine: &EngineHandle) -> Self {
        Self::start(out, preamble, renders_for(engine))
    }

    fn start(out: &'a mut String, preamble: Counted<&str>, render: bool) -> Self {
        out.clear();
        let mut w = PromptWriter {
            out,
            render,
            tokens: 0,
        };
        w.push_counted(title::SYSTEM, preamble);
        w
    }

    /// Tokens in everything written so far: exactly
    /// [`count_tokens`] of the text the rendering form writes.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// The finished prompt for a request: the text with its count, or the
    /// count alone.
    pub fn finish(self) -> Prompt<'a> {
        let out: &'a String = self.out;
        if self.render {
            Prompt::Counted(out, self.tokens)
        } else {
            Prompt::Tokens(self.tokens)
        }
    }

    /// Appends a named section, counting `body` here.
    pub fn push(&mut self, title: Counted<&str>, body: &str) -> &mut Self {
        self.push_counted(title, Counted::new(body))
    }

    /// Appends a named section whose body was counted where it was made.
    ///
    /// # Panics
    ///
    /// Panics if a rendering writer gets a nonempty [`Body::Count`].
    pub fn push_counted<'b>(
        &mut self,
        title: Counted<&str>,
        body: impl Into<Body<'b>>,
    ) -> &mut Self {
        self.section(title.text(), title.tokens(), body.into())
    }

    /// Appends a named section whose body is `lines` joined by newlines,
    /// each counted where it was made: the newlines are token seams, so the
    /// body's count is the sum of theirs.
    pub fn push_lines<T: AsRef<str>>(
        &mut self,
        title: Counted<&str>,
        lines: &[Counted<T>],
    ) -> &mut Self {
        let tokens = lines.iter().map(Counted::tokens).sum::<u64>();
        if tokens > 0 {
            self.header(title.text(), title.tokens());
            if self.render {
                for (k, line) in lines.iter().enumerate() {
                    if k > 0 {
                        self.out.push('\n');
                    }
                    self.out.push_str(line.text());
                }
                self.out.push('\n');
            }
            self.tokens += tokens;
        }
        self
    }

    /// Appends a named section whose body is `subgoal`'s [`Display`] text,
    /// counted by [`Subgoal::tokens`]; skipped, like any section, when that
    /// text is blank.
    pub fn push_subgoal(&mut self, title: Counted<&str>, subgoal: &Subgoal) -> &mut Self {
        let tokens = subgoal.tokens();
        if tokens > 0 {
            self.header(title.text(), title.tokens());
            if self.render {
                let _ = writeln!(self.out, "{subgoal}");
            }
            self.tokens += tokens;
        }
        self
    }

    /// Appends the candidate-subgoal menu, formatted as a numbered list —
    /// the action-list formalization the paper describes in §II-A.
    pub fn push_candidates(&mut self, candidates: &[Subgoal]) -> &mut Self {
        if candidates.is_empty() {
            return self;
        }
        self.header(
            title::AVAILABLE_ACTIONS.text(),
            title::AVAILABLE_ACTIONS.tokens(),
        );
        if self.render {
            for (i, sg) in candidates.iter().enumerate() {
                let _ = writeln!(self.out, "({i}) {sg}");
            }
            self.out.push('\n');
        }
        // Each line is `(i) {subgoal}`: two parentheses and the digits.
        self.tokens += candidates
            .iter()
            .enumerate()
            .map(|(i, sg)| 2 + digit_tokens(i) + sg.tokens())
            .sum::<u64>();
        self
    }

    /// Appends free text after the last section. Sections end in a
    /// newline, so the text starts at a token seam.
    pub fn append(&mut self, text: Counted<&str>) -> &mut Self {
        if self.render {
            debug_assert!(self.out.is_empty() || self.out.ends_with('\n'));
            self.out.push_str(text.text());
        }
        self.tokens += text.tokens();
        self
    }

    /// A section of `title_tokens` titled `title` around `body`, skipped
    /// when the body is blank.
    fn section(&mut self, title: impl Display, title_tokens: u64, body: Body<'_>) -> &mut Self {
        // Every char that is not whitespace costs at least one token, so a
        // zero count is exactly a body that `trim` leaves empty.
        if body.tokens() > 0 {
            self.header(title, title_tokens);
            if self.render {
                let Body::Text(text) = body else {
                    panic!("a rendered prompt needs the text of every section");
                };
                self.out.push_str(text.text());
                self.out.push('\n');
            }
            self.tokens += body.tokens();
        }
        self
    }

    /// Writes `[title]` and its newline when rendering, and counts it:
    /// each bracket is a token of its own.
    fn header(&mut self, title: impl Display, title_tokens: u64) {
        if self.render {
            let _ = writeln!(self.out, "[{title}]");
        }
        self.tokens += title_tokens + 2;
    }
}

/// The joint prompt's closing instruction.
const JOINT_INSTRUCTION: Counted<&str> = Counted::literal(
    "Assign the best next action to every agent, resolving conflicts \
     and interdependencies between their actions.",
);

/// Writes the centralized planner's joint prompt after `w`'s preamble — one
/// prompt covering every agent, so tokens grow linearly with the team.
pub fn write_joint_plan_prompt<'b>(
    w: &mut PromptWriter<'_>,
    goal: Counted<&str>,
    memory: impl Into<Body<'b>>,
    percepts: &[Percept],
    menus: &[Vec<Subgoal>],
) {
    w.push_counted(title::TASK_GOAL, goal)
        .push_counted(title::MEMORY, memory);
    for (i, (p, menu)) in percepts.iter().zip(menus).enumerate() {
        // `agent {i} observation`: a word, the digits and a word.
        let title_tokens = const { ascii_tokens("agent observation") } + digit_tokens(i);
        w.section(
            format_args!("agent {i} observation"),
            title_tokens,
            p.text.as_deref().into(),
        )
        .push_candidates(menu);
    }
    w.push_counted(title::INSTRUCTION, JOINT_INSTRUCTION);
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

/// The fixed wording of [`system_preamble`], around its three slots: the
/// role, the workload and the workload's flavor.
const PREAMBLE: [&str; 4] = [
    "You are the ",
    " module of the ",
    " embodied agent system. You operate a physical agent in a partially observable environment and must pursue the long-horizon task goal efficiently. ",
    " Reason step by step about the current observation, your memory of the world, and any messages from teammates before committing to a decision. Respect the environment's physical constraints: objects must be reachable, prerequisites must be satisfied, and only one action executes per step. Prefer actions that make direct progress toward the goal; avoid repeating actions that recently failed. Answer with exactly one choice from the provided action list, followed by a brief justification of how it advances the task.",
];

/// The standard system preamble for a workload, ~120–170 words so the base
/// prompt cost is realistic, with per-workload flavor. Its count is summed
/// from the parts: the fixed wording is counted at compile time, and only
/// the role, the workload and its one-sentence flavor are counted here.
/// Every slot sits between spaces, where counts add up.
pub fn system_preamble(workload: &str, role: &str) -> Counted<String> {
    const FIXED: u64 = ascii_tokens(PREAMBLE[0])
        + ascii_tokens(PREAMBLE[1])
        + ascii_tokens(PREAMBLE[2])
        + ascii_tokens(PREAMBLE[3]);
    let flavor = workload_flavor(workload);
    let text = [
        PREAMBLE[0],
        role,
        PREAMBLE[1],
        workload,
        PREAMBLE[2],
        flavor,
        PREAMBLE[3],
    ]
    .concat();
    let tokens = FIXED + count_tokens(role) + count_tokens(workload) + count_tokens(flavor);
    Counted::with_tokens(text, tokens)
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
    use embodied_env::Name;

    fn sections(w: &mut PromptWriter<'_>, candidates: &[Subgoal]) {
        w.push(Counted::literal("goal"), "deliver things")
            .push(Counted::literal("empty"), " \u{3000}\n")
            .push_counted(title::MEMORY, Counted::new("saw an apple"))
            .push_counted(Counted::literal("no dialogue"), Body::Count(0))
            .push_lines(
                title::DIALOGUE,
                &[
                    Counted::new("agent 1: hi"),
                    Counted::new(" "),
                    Counted::new("ok"),
                ],
            )
            .push_lines::<&str>(Counted::literal("no lines"), &[])
            .push_subgoal(title::PROPOSED_PLAN, &Subgoal::Explore)
            .push_subgoal(
                Counted::literal("blank"),
                &Subgoal::Cook {
                    dish: " ".into(),
                    stage: "".into(),
                },
            )
            .push_candidates(candidates);
    }

    fn write(out: &mut String, candidates: &[Subgoal]) -> u64 {
        let mut w = PromptWriter::new(out, Counted::new("be helpful"));
        sections(&mut w, candidates);
        w.tokens()
    }

    #[test]
    fn counting_agrees_with_rendering_and_copies_nothing() {
        let candidates = [Subgoal::Explore, Subgoal::Wait];
        let mut buf = String::new();
        let rendered = write(&mut buf, &candidates);
        let mut scratch = String::new();
        let mut w = PromptWriter::counting(&mut scratch, Counted::new("be helpful"));
        sections(&mut w, &candidates);
        w.push_counted(title::MEMORY, Body::Count(7))
            .append(Counted::literal("Confirm."));
        assert_eq!(w.tokens(), rendered + 3 + 7 + 2);
        assert_eq!(w.finish(), Prompt::Tokens(rendered + 12));
        assert!(scratch.is_empty());
        assert_eq!(scratch.capacity(), 0, "a counting writer wrote its buffer");

        let w = PromptWriter::new(&mut buf, Counted::new("x"));
        assert_eq!(w.finish(), Prompt::Counted("[system]\nx\n", 4));
    }

    #[test]
    #[should_panic(expected = "needs the text of every section")]
    fn a_rendering_writer_rejects_a_bare_count() {
        let mut buf = String::new();
        PromptWriter::new(&mut buf, Counted::new("x")).push_counted(title::MEMORY, Body::Count(3));
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
             [dialogue]\nagent 1: hi\n \nok\n[proposed plan]\nexplore the environment\n[available actions]\n\
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
            .append(Counted::literal("\n"))
            .push_subgoal(title::PROPOSED_PLAN, &Subgoal::Explore)
            .append(Counted::literal("Confirm."))
            .tokens();
        assert!(buf.ends_with("x\n\n[proposed plan]\nexplore the environment\nConfirm."));
        assert_eq!(tokens, count_tokens(&buf));
    }

    #[test]
    fn joint_prompt_count_matches_its_text() {
        let percepts: Vec<Percept> = (0..3)
            .map(|i| Percept {
                entities: crate::modules::no_entities(),
                text: Counted::new(format!("agent {i} sees crate_{i} in zone Б").into()),
                location: Name::default(),
            })
            .collect();
        let menus = vec![vec![Subgoal::Explore]; 3];
        let joint = |w: &mut PromptWriter<'_>| {
            write_joint_plan_prompt(
                w,
                Counted::new("relay the crates"),
                Counted::new("step 2: agent 0: moved"),
                &percepts,
                &menus,
            );
            w.tokens()
        };
        let mut buf = String::new();
        let tokens = joint(&mut PromptWriter::new(
            &mut buf,
            Counted::new("plan jointly"),
        ));
        assert!(buf.contains("[agent 2 observation]\nagent 2 sees crate_2"));
        assert_eq!(tokens, count_tokens(&buf));
        let mut scratch = String::new();
        let mut w = PromptWriter::counting(&mut scratch, Counted::new("plan jointly"));
        assert_eq!(joint(&mut w), tokens);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "count of")]
    fn a_wrong_supplied_count_panics_in_debug_builds() {
        let _ = Counted::with_tokens("two words", 3);
    }

    #[test]
    fn preamble_costs_realistic_tokens() {
        let n = count_tokens(system_preamble("CoELA", "planning").text());
        assert!(
            (100..300).contains(&n),
            "preamble should cost ~120-250 tokens, got {n}"
        );
    }

    #[test]
    fn a_preamble_is_its_template_and_counts_as_its_text() {
        let workloads = crate::workloads::registry();
        let names = workloads.iter().map(|spec| spec.name);
        for workload in names.chain(["SomethingElse"]) {
            for role in ["planning", "central planning", "communication", ""] {
                let flavor = workload_flavor(workload);
                let preamble = system_preamble(workload, role);
                assert_eq!(
                    preamble.text(),
                    format!(
                        "You are the {role} module of the {workload} embodied agent system. \
                         You operate a physical agent in a partially observable environment \
                         and must pursue the long-horizon task goal efficiently. {flavor} \
                         Reason step by step about the current observation, your memory of \
                         the world, and any messages from teammates before committing to a \
                         decision. Respect the environment's physical constraints: objects \
                         must be reachable, prerequisites must be satisfied, and only one \
                         action executes per step. Prefer actions that make direct progress \
                         toward the goal; avoid repeating actions that recently failed. \
                         Answer with exactly one choice from the provided action list, \
                         followed by a brief justification of how it advances the task."
                    )
                );
                assert_eq!(preamble.tokens(), count_tokens(preamble.text()));
            }
        }
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
        assert!(a.text().contains("Minecraft"));
        assert!(b.text().contains("cooperative"));
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
