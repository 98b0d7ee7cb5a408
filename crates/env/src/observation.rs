//! Partial egocentric observations — what the sensing module sees each step.
//!
//! An observation is data, not text. Every description and status is a
//! [`Phrase`]: a few parts — shared [`Name`]s, fixed [`Word`]s, integers
//! and points — that the environment assembles without allocating and the
//! sensing module renders once, into the one percept text it keeps. Each
//! part carries or yields its token count (a name's and a word's, taken
//! when it was made; an integer's digits; a point's rounded length), so
//! [`Phrase::tokens`] sums the percept's count without writing its text.

use crate::action::Name;
use embodied_exec::Cell;
use embodied_profiler::{ascii_tokens, digit_tokens};
use std::fmt;

/// Fixed wording in a [`Phrase`]: a `'static` text and its token count,
/// made by [`word!`](crate::word!). Each use site of the macro owns one
/// immutable static, counted at compile time, so copying a word copies a
/// pointer.
///
/// ```
/// use embodied_env::word;
/// use embodied_profiler::count_tokens;
///
/// let on = word!(" on the floor of ");
/// assert_eq!(on.text(), " on the floor of ");
/// assert_eq!(on.tokens(), count_tokens(" on the floor of "));
/// assert!(on == word!(" on the floor of ") && on != word!(" on the "));
/// ```
#[derive(Clone, Copy)]
pub struct Word(&'static WordText);

/// The static behind a [`Word`]; build it with [`word!`](crate::word!).
#[doc(hidden)]
#[derive(Debug)]
pub struct WordText {
    text: &'static str,
    tokens: u64,
}

impl WordText {
    /// `text` with its count, taken at compile time in `word!`'s static:
    /// a word that is not ASCII fails to compile.
    #[doc(hidden)]
    pub const fn new(text: &'static str) -> Self {
        WordText {
            text,
            tokens: ascii_tokens(text),
        }
    }
}

impl Word {
    /// The word kept in `text`.
    #[doc(hidden)]
    pub const fn new(text: &'static WordText) -> Self {
        Word(text)
    }

    /// The text.
    pub fn text(self) -> &'static str {
        self.0.text
    }

    /// Tokens in the text, counted at compile time.
    #[inline]
    pub fn tokens(self) -> u64 {
        self.0.tokens
    }
}

/// Words compare as their texts.
impl PartialEq for Word {
    fn eq(&self, other: &Self) -> bool {
        self.0.text == other.0.text
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0.text, f)
    }
}

/// A [`Word`] for an ASCII string literal, in its own static.
///
/// ```
/// use embodied_env::{phrase, word, Name};
///
/// let p = phrase![Name::from("box_1"), word!(" in "), Name::from("zone_2")];
/// assert_eq!(p.to_string(), "box_1 in zone_2");
/// ```
#[macro_export]
macro_rules! word {
    ($text:literal) => {{
        static WORD: $crate::WordText = $crate::WordText::new($text);
        $crate::Word::new(&WORD)
    }};
}

/// One part of a [`Phrase`].
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// A shared entity or place name.
    Name(Name),
    /// Fixed wording.
    Word(Word),
    /// A whole number, written in decimal.
    Int(usize),
    /// A point, written `({x:.1}, {y:.1})`.
    Point(f64, f64),
}

impl Part {
    /// Whether the part renders no text: only an empty name or word.
    fn is_empty(&self) -> bool {
        match self {
            Part::Name(name) => name.is_empty(),
            Part::Word(word) => word.text().is_empty(),
            Part::Int(_) | Part::Point(..) => false,
        }
    }
}

/// Writes `n` in decimal, without `fmt`.
fn write_int(out: &mut impl fmt::Write, mut n: usize) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// Tokens in a point written `({x:.1}, {y:.1})`: its coordinates', its
/// brackets' and its comma's.
pub(crate) fn point_tokens(x: f64, y: f64) -> u64 {
    decimal_tokens(x) + decimal_tokens(y) + const { ascii_tokens("(, )") }
}

/// Tokens in `x` written as `{:.1}`. Every char of a finite number (sign,
/// digit, point) is a token of its own, so the count is its length: the
/// sign, the whole part's digits after rounding (9.96 is written `10.0`),
/// the point and one decimal. Rounding carries into the whole part exactly
/// when the fraction exceeds 0.95, which no `f64` fraction equals.
fn decimal_tokens(x: f64) -> u64 {
    if x.is_nan() {
        return const { ascii_tokens("NaN") };
    }
    if x.is_infinite() {
        return if x < 0.0 {
            const { ascii_tokens("-inf") }
        } else {
            const { ascii_tokens("inf") }
        };
    }
    let sign = u64::from(x.is_sign_negative());
    let abs = x.abs();
    let whole = abs.trunc();
    let rounded = whole + f64::from(u8::from(abs - whole > 0.95));
    let digits = if rounded < 1e15 {
        // Exact: an integral `f64` below 2^53 converts without loss.
        digit_tokens(rounded as usize)
    } else {
        format!("{rounded:.0}").len() as u64
    };
    sign + digits + 2
}

impl From<Name> for Part {
    fn from(name: Name) -> Self {
        Part::Name(name)
    }
}

impl From<Word> for Part {
    fn from(word: Word) -> Self {
        Part::Word(word)
    }
}

impl From<usize> for Part {
    fn from(n: usize) -> Self {
        Part::Int(n)
    }
}

impl From<(f64, f64)> for Part {
    fn from((x, y): (f64, f64)) -> Self {
        Part::Point(x, y)
    }
}

/// A description or status: up to [`Phrase::MAX_PARTS`] parts, held
/// inline, so building one allocates nothing. Its text is its parts' texts
/// run together; build it with [`phrase!`](crate::phrase!).
///
/// [`Phrase::tokens`] sums the parts' counts, which is exact when no two
/// parts meet letter to letter: every environment's phrases join their
/// parts at a space or a punctuation mark. Debug builds recount every
/// percept.
///
/// ```
/// use embodied_env::{phrase, word, Name, Phrase};
///
/// let at = phrase![Name::from("part_0"), word!(" at "), (0.75, 1.4)];
/// assert_eq!(at.to_string(), "part_0 at (0.8, 1.4)");
/// let status = phrase![2usize, word!("/"), 3usize, word!(" skills complete")];
/// assert_eq!(status.to_string(), "2/3 skills complete");
/// assert!(Phrase::default().is_empty() && !status.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Phrase([Option<Part>; Phrase::MAX_PARTS]);

impl Phrase {
    /// The most parts a phrase holds.
    pub const MAX_PARTS: usize = 4;

    /// The phrase of `parts`, in order.
    pub fn new<const N: usize>(parts: [Part; N]) -> Self {
        const { assert!(N <= Phrase::MAX_PARTS, "a phrase holds at most four parts") };
        let mut phrase = Phrase::default();
        for (slot, part) in phrase.0.iter_mut().zip(parts) {
            *slot = Some(part);
        }
        phrase
    }

    /// The parts, in order.
    pub fn parts(&self) -> impl Iterator<Item = &Part> {
        self.0.iter().flatten()
    }

    /// Whether the phrase renders no text.
    pub fn is_empty(&self) -> bool {
        self.parts().all(Part::is_empty)
    }

    /// Appends the phrase's text to `out`.
    pub fn push_to(&self, out: &mut String) {
        self.write_to(out).expect("a String takes any text");
    }

    /// Writes the phrase's text; only a point goes through `fmt`.
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for part in self.parts() {
            match part {
                Part::Name(name) => out.write_str(name)?,
                Part::Word(word) => out.write_str(word.text())?,
                Part::Int(n) => write_int(out, *n)?,
                Part::Point(x, y) => write!(out, "({x:.1}, {y:.1})")?,
            }
        }
        Ok(())
    }

    /// Tokens in the phrase's text, summed from its parts without writing
    /// it: a name's and a word's stored count, an integer's digits, a
    /// point's rounded length.
    #[inline]
    pub fn tokens(&self) -> u64 {
        self.parts()
            .map(|part| match part {
                Part::Name(name) => name.tokens(),
                Part::Word(word) => word.tokens(),
                Part::Int(n) => digit_tokens(*n),
                Part::Point(x, y) => point_tokens(*x, *y),
            })
            .sum()
    }
}

/// The phrase of `parts`, each converted with [`Part::from`].
#[macro_export]
macro_rules! phrase {
    ($($part:expr),+ $(,)?) => {
        $crate::Phrase::new([$($crate::Part::from($part)),+])
    };
}

impl fmt::Display for Phrase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<Name> for Phrase {
    fn from(name: Name) -> Self {
        Phrase::new([Part::Name(name)])
    }
}

impl From<Word> for Phrase {
    fn from(word: Word) -> Self {
        Phrase::new([Part::Word(word)])
    }
}

/// Text made at run time becomes one name, counted as it is made.
impl From<&str> for Phrase {
    fn from(text: &str) -> Self {
        Name::from(text).into()
    }
}

impl From<String> for Phrase {
    fn from(text: String) -> Self {
        Name::from(text).into()
    }
}

/// One observed entity: a stable name plus a description used when
/// assembling prompts.
#[derive(Debug, Clone, PartialEq)]
pub struct SeenEntity {
    /// Stable name matching subgoal entity references, e.g. `"apple_1"`,
    /// shared with the environment's own copy.
    pub name: Name,
    /// Prompt fragment, e.g. `apple_1 on the floor of room_2`.
    pub description: Phrase,
}

impl SeenEntity {
    /// Convenience constructor.
    pub fn new(name: impl Into<Name>, description: impl Into<Phrase>) -> Self {
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Observation {
    /// The observing agent's grid position, if the env is grid-based.
    pub agent_pos: Option<Cell>,
    /// Current location, e.g. `room_1`, built once per place by the
    /// environment; empty where the place has no name (a doorway).
    pub location: Name,
    /// Entities currently perceivable.
    pub visible: Vec<SeenEntity>,
    /// Status, e.g. `carrying apple_1`.
    pub status: Phrase,
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
            s.push_str("You are in ");
            s.push_str(&self.location);
            s.push_str(". ");
        }
        if !self.status.is_empty() {
            s.push_str("Status: ");
            self.status.push_to(&mut s);
            s.push_str(". ");
        }
        if self.visible.is_empty() {
            s.push_str("You see nothing notable.");
        } else {
            s.push_str("You see: ");
            for (i, e) in self.visible.iter().enumerate() {
                if i > 0 {
                    s.push_str("; ");
                }
                e.description.push_to(&mut s);
            }
            s.push('.');
        }
        s
    }
}

/// Agent 0's location, status and descriptions, rendered, at `step` of an
/// episode in which every agent followed the oracle (or explored, without
/// one) at every earlier step: the texts environments pin in their tests.
#[cfg(test)]
pub(crate) fn rendered_at(
    env: &mut impl crate::Environment,
    step: usize,
) -> (String, String, Vec<String>) {
    let mut low = crate::LowLevel::controller(7);
    for s in 0..step {
        env.begin_step(s);
        for agent in 0..env.num_agents() {
            let subgoal = env
                .oracle_subgoals(agent)
                .first()
                .cloned()
                .unwrap_or(crate::Subgoal::Explore);
            env.execute(agent, &subgoal, &mut low);
        }
    }
    env.begin_step(step);
    let obs = env.observe(0);
    (
        obs.location.to_string(),
        obs.status.to_string(),
        obs.visible
            .iter()
            .map(|e| e.description.to_string())
            .collect(),
    )
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
        assert_eq!(
            text,
            "You are in room_0. Status: carrying nothing. \
             You see: apple_1 on the floor; box_2 near the door."
        );
        assert_eq!(obs.entity_count(), 2);
    }

    #[test]
    fn empty_observation_still_renders() {
        let obs = Observation::default();
        assert_eq!(obs.to_prompt_text(), "You see nothing notable.");
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

    #[test]
    fn parts_render_as_format_would() {
        for n in [0, 7, 10, 99, 100, 4096, usize::MAX] {
            let mut out = String::from("|");
            phrase![n].push_to(&mut out);
            assert_eq!(out, format!("|{n}"));
            assert_eq!(phrase![n].to_string(), format!("{n}"));
        }
        for (x, y) in [(0.0, -0.0), (0.75, 1.45), (9.96, -9.96), (1e16, f64::NAN)] {
            let phrase = phrase![word!("at "), (x, y)];
            let mut out = String::new();
            phrase.push_to(&mut out);
            assert_eq!(out, format!("at ({x:.1}, {y:.1})"));
            assert_eq!(phrase.to_string(), out);
        }
        let full = phrase![3usize, word!("/"), 12usize, Name::from(" boxes")];
        assert_eq!(full.to_string(), "3/12 boxes");
        assert_eq!(full.parts().count(), Phrase::MAX_PARTS);
    }

    #[test]
    fn a_phrase_is_empty_only_when_every_part_is() {
        assert!(Phrase::from(Name::default()).is_empty());
        assert!(phrase![Name::default(), word!("")].is_empty());
        assert!(!phrase![Name::default(), 0usize].is_empty());
        assert!(!Phrase::from(word!("hands free")).is_empty());
    }
}
