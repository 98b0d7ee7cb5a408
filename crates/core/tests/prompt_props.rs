//! Property tests for prompt assembly: for arbitrary section sequences over
//! edge-case text, with and without supplied counts, and menus over every
//! [`Subgoal`] variant, a rendering [`PromptWriter`] writes the plain
//! `[title]\n{body}\n` text with blank bodies skipped, its running token
//! count equals a full count of that text, and a counting writer, which
//! has no buffer, reaches the same count. Phrases and the percepts
//! sensing renders from every environment's observations count as their
//! text too, though their counts are summed from parts.

#[path = "../../profiler/tests/support/edge_text.rs"]
mod edge_text;
#[path = "support/environments.rs"]
mod environments;

use edge_text::{blank_text, edge_text};
use embodied_agents::modules::SensingModule;
use embodied_agents::prompt::{Counted, PromptWriter};
use embodied_env::{
    word, Environment, LowLevel, Name, Part, Phrase, Subgoal, TaskDifficulty, Word,
};
use embodied_exec::Cell;
use embodied_llm::EncoderProfile;
use embodied_profiler::count_tokens;
use environments::environments;
use proptest::collection;
use proptest::prelude::*;

/// What a body may start or end with: nothing, an ASCII space, or
/// whitespace outside ASCII.
const EDGES: &[&str] = &["", " ", "\u{85}", "\u{3000}", "\u{2029}"];

/// Coordinates at the edges of `{:.1}`: negative values, negative zero,
/// values that round up into one more digit (9.96 is written `10.0`),
/// fractions at the carry boundary, huge and non-finite values.
const COORDINATES: &[f64] = &[
    0.0,
    -0.0,
    -0.04,
    0.05,
    0.95,
    0.96,
    9.95,
    9.96,
    -9.96,
    99.96,
    -999.951,
    0.25,
    1e15 - 0.01,
    1e15,
    -1e16,
    123_456_789_012_345_680.0,
    1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One call on the writer.
#[derive(Debug, Clone)]
enum Section {
    /// `push`: the writer counts the body.
    Plain(String, String),
    /// `push_counted` with the body's lines joined by newlines and the
    /// count summed from the lines, the way memory retrieval supplies it.
    Counted(String, Vec<String>),
    /// `push_lines` over lines counted one by one, the way dialogue is.
    Lines(String, Vec<String>),
    /// `push_subgoal`: the body is the subgoal's text.
    Subgoal(String, Subgoal),
    /// `push_candidates` over a menu.
    Candidates(Vec<Subgoal>),
}

/// Edge-case text, whitespace-only text, or edge-case text wrapped in
/// (possibly non-ASCII) whitespace.
fn body() -> BoxedStrategy<String> {
    prop_oneof![
        edge_text(),
        blank_text(),
        (0..EDGES.len(), edge_text(), 0..EDGES.len())
            .prop_map(|(a, text, b)| format!("{}{text}{}", EDGES[a], EDGES[b])),
    ]
    .boxed()
}

/// An entity name: edge-case text or an environment-style name.
fn name() -> BoxedStrategy<String> {
    prop_oneof![
        edge_text(),
        (0usize..200).prop_map(|i| format!("object_{i}")),
        Just(String::new()),
    ]
    .boxed()
}

/// A coordinate from [`COORDINATES`], any value in a workspace-sized range,
/// or one just below a whole number, which rounds up.
fn coordinate() -> BoxedStrategy<f64> {
    prop_oneof![
        (0..COORDINATES.len()).prop_map(|i| COORDINATES[i]),
        -1e4..1e4f64,
        (-1000i32..1000, 0.95..1.0f64).prop_map(|(whole, frac)| f64::from(whole) + frac),
    ]
    .boxed()
}

/// Any of the 14 subgoal variants, with partners past one digit.
fn subgoal() -> BoxedStrategy<Subgoal> {
    (
        0u32..14,
        name(),
        name(),
        0usize..1000,
        (coordinate(), coordinate()),
    )
        .prop_map(|(kind, a, b, partner, (x, y))| {
            let (a, b) = (a.as_str().into(), b.as_str().into());
            match kind {
                0 => Subgoal::GoTo {
                    target: a,
                    cell: Cell::new(partner as i32, 3),
                },
                1 => Subgoal::Pick { object: a },
                2 => Subgoal::Place { object: a, dest: b },
                3 => Subgoal::Open { container: a },
                4 => Subgoal::Gather { resource: a },
                5 => Subgoal::Craft { item: a },
                6 => Subgoal::Cook { dish: a, stage: b },
                7 => Subgoal::Serve { dish: a },
                8 => Subgoal::MoveBox {
                    box_name: a,
                    dest: b,
                },
                9 => Subgoal::LiftTogether {
                    box_name: a,
                    partner,
                },
                10 => Subgoal::ArmMove {
                    object: a,
                    to: (x, y),
                },
                11 => Subgoal::Skill { name: a },
                12 => Subgoal::Explore,
                _ => Subgoal::Wait,
            }
        })
        .boxed()
}

/// A menu of a few entries, or of more than 10 or more than 100, so line
/// numbers take two and three digits.
fn menu() -> BoxedStrategy<Vec<Subgoal>> {
    prop_oneof![
        collection::vec(subgoal(), 0..4),
        collection::vec(subgoal(), 11..14),
        collection::vec(subgoal(), 101..104),
    ]
    .boxed()
}

fn section() -> impl Strategy<Value = Section> {
    (
        0u32..5,
        edge_text(),
        body(),
        collection::vec(body(), 0..4),
        subgoal(),
    )
        .prop_map(|(kind, title, body, lines, subgoal)| match kind {
            0 => Section::Plain(title, body),
            1 => Section::Counted(title, lines),
            2 => Section::Lines(title, lines),
            _ => Section::Subgoal(title, subgoal),
        })
}

fn sections() -> impl Strategy<Value = Vec<Section>> {
    // One section in four is a menu.
    let one = prop_oneof![
        section(),
        section(),
        section(),
        menu().prop_map(Section::Candidates),
    ];
    collection::vec(one, 0..10)
}

/// The text the writer must produce, built without it.
fn reference(preamble: &str, sections: &[Section], tail: Option<&str>) -> String {
    fn section(out: &mut String, title: &str, body: &str) {
        if !body.trim().is_empty() {
            out.push_str(&format!("[{title}]\n{body}\n"));
        }
    }
    let mut out = String::new();
    section(&mut out, "system", preamble);
    for s in sections {
        match s {
            Section::Plain(title, body) => section(&mut out, title, body),
            Section::Counted(title, lines) | Section::Lines(title, lines) => {
                section(&mut out, title, &lines.join("\n"))
            }
            Section::Subgoal(title, subgoal) => section(&mut out, title, &subgoal.to_string()),
            Section::Candidates(menu) => {
                if !menu.is_empty() {
                    let lines: String = menu
                        .iter()
                        .enumerate()
                        .map(|(i, sg)| format!("({i}) {sg}\n"))
                        .collect();
                    out.push_str(&format!("[available actions]\n{lines}\n"));
                }
            }
        }
    }
    if let Some(tail) = tail {
        out.push_str(tail);
    }
    out
}

/// Runs `sections` (and `tail`) through `w`, returning its count.
fn write(mut w: PromptWriter<'_>, sections: &[Section], tail: Option<&str>) -> u64 {
    for s in sections {
        match s {
            Section::Plain(title, body) => {
                w.push(Counted::new(title), body);
            }
            Section::Counted(title, lines) => {
                let text = lines.join("\n");
                let tokens = lines.iter().map(|l| count_tokens(l)).sum();
                w.push_counted(
                    Counted::new(title),
                    Counted::with_tokens(text.as_str(), tokens),
                );
            }
            Section::Lines(title, lines) => {
                let lines: Vec<_> = lines.iter().map(Counted::new).collect();
                w.push_lines(Counted::new(title), &lines);
            }
            Section::Subgoal(title, subgoal) => {
                w.push_subgoal(Counted::new(title), subgoal);
            }
            Section::Candidates(menu) => {
                w.push_candidates(menu);
            }
        }
    }
    if let Some(tail) = tail {
        w.append(Counted::new(tail));
    }
    w.tokens()
}

/// Fixed words that lead a phrase, as environments use them: each ends
/// with a space.
fn leader() -> BoxedStrategy<Word> {
    let words = [
        word!("the "),
        word!("carrying "),
        word!("a passage to the "),
        word!("order "),
    ];
    (0..words.len()).prop_map(move |i| words[i]).boxed()
}

/// Fixed words that join two parts, as environments use them: each starts
/// and ends with a space or a punctuation mark.
fn joiner() -> BoxedStrategy<Word> {
    let words = [
        word!(" on the floor of "),
        word!(" (heavy) in "),
        word!("/"),
        word!(" at "),
        word!(" awaiting "),
        word!(""),
    ];
    (0..words.len()).prop_map(move |i| words[i]).boxed()
}

/// Fixed words that end a phrase, as environments use them: each starts
/// with a space or a punctuation mark.
fn trailer() -> BoxedStrategy<Word> {
    let words = [
        word!(", partially occluded"),
        word!(": done"),
        word!(" boxes delivered"),
        word!(" within reach"),
        word!(" (closed)"),
        word!(""),
    ];
    (0..words.len()).prop_map(move |i| words[i]).boxed()
}

/// A part that may start or end with a letter: a name, an integer or a
/// point.
fn filler() -> BoxedStrategy<Part> {
    prop_oneof![
        name().prop_map(|text| Part::Name(text.into())),
        (0usize..usize::MAX).prop_map(Part::Int),
        (0usize..1000).prop_map(Part::Int),
        (coordinate(), coordinate()).prop_map(|(x, y)| Part::Point(x, y)),
    ]
    .boxed()
}

/// A phrase of one to four parts in the shapes environments build, so no
/// two parts meet letter to letter.
fn phrase() -> BoxedStrategy<Phrase> {
    ((0u32..6, leader()), filler(), joiner(), filler(), trailer())
        .prop_map(|((shape, lead), a, join, c, trail)| {
            let (lead, join, trail) = (Part::Word(lead), Part::Word(join), Part::Word(trail));
            match shape {
                0 => Phrase::new([a]),
                1 => Phrase::new([trail]),
                2 => Phrase::new([a, trail]),
                3 => Phrase::new([lead, a, trail]),
                4 => Phrase::new([a, join, c]),
                _ => Phrase::new([a, join, c, trail]),
            }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_phrase_counts_as_its_text(phrase in phrase()) {
        prop_assert_eq!(phrase.tokens(), count_tokens(&phrase.to_string()));
    }

    #[test]
    fn counting_equals_rendering(
        preamble in body(),
        sections in sections(),
        tail in edge_text(),
        append in 0u32..2,
    ) {
        let tail = format!("\n{tail}");
        let tail = (append == 1).then_some(tail.as_str());
        let preamble = Counted::new(preamble.as_str());

        let mut out = String::from("stale text from an earlier prompt");
        let rendered = write(PromptWriter::new(Some(&mut out), preamble), &sections, tail);
        prop_assert_eq!(&out, &reference(preamble.text(), &sections, tail));
        prop_assert_eq!(rendered, count_tokens(&out), "{:?}", out);

        let counted = write(PromptWriter::new(None, preamble), &sections, tail);
        prop_assert_eq!(counted, rendered);
    }

    #[test]
    fn a_subgoal_counts_as_its_text(subgoal in subgoal()) {
        prop_assert_eq!(subgoal.tokens(), count_tokens(&subgoal.to_string()));
    }

    #[test]
    fn a_name_counts_as_its_text(text in name()) {
        let name = Name::from(text.as_str());
        let clone = name.clone();
        prop_assert_eq!(name.tokens(), count_tokens(&text));
        prop_assert_eq!(clone.tokens(), count_tokens(&text));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sensing sums a percept's count from the observation's parts, and
    /// release builds take that sum unchecked. Over episodes at random
    /// seeds, with perfect or imperfect recognition, in which agents
    /// mostly follow the oracle, every percept's count is its text's.
    #[test]
    fn a_percept_counts_as_its_text(
        seed in 0u64..u64::MAX,
        level in 0u32..3,
        steps in 1usize..30,
        encoder in 0u32..2,
    ) {
        let difficulty = [TaskDifficulty::Easy, TaskDifficulty::Medium, TaskDifficulty::Hard]
            [level as usize];
        for mut env in environments(difficulty, seed) {
            let encoder = (encoder == 1).then(EncoderProfile::mask_rcnn);
            let mut sensing = SensingModule::new(encoder, seed);
            let mut low = LowLevel::controller(seed);
            for step in 0..steps.min(env.max_steps()) {
                env.begin_step(step);
                for agent in 0..env.num_agents() {
                    let (percept, _) = sensing.sense(&env.observe(agent));
                    prop_assert_eq!(
                        percept.text.tokens(),
                        count_tokens(percept.text.text()),
                        "{} step {} agent {}: {:?}",
                        env.name(),
                        step,
                        agent,
                        percept.text.text()
                    );
                    let subgoal = match env.oracle_subgoals(agent).first() {
                        Some(sg) if step % 5 != 4 => sg.clone(),
                        _ => Subgoal::Explore,
                    };
                    env.execute(agent, &subgoal, &mut low);
                }
            }
        }
    }
}

#[test]
fn edge_names_count_as_their_text() {
    for text in [
        "",
        " ",
        "apple_1",
        "stone_pickaxe",
        "42",
        "box_1024",
        "crate,9",
        " ω crate,9 ",
        "(seen)",
        "物体",
        "dock Ω",
        "Ǆungla",
        "x\u{301}",
        "🍎🦀",
        "\u{3000}zone\u{85}",
    ] {
        let name = Name::from(text);
        assert_eq!(name.tokens(), count_tokens(text), "{text:?}");
        assert_eq!(name.clone().tokens(), count_tokens(text), "{text:?} again");
    }
}

#[test]
fn every_edge_coordinate_counts_as_its_text() {
    for &x in COORDINATES {
        for y in [x, -x, 9.96] {
            let subgoal = Subgoal::ArmMove {
                object: "mug".into(),
                to: (x, y),
            };
            let text = subgoal.to_string();
            assert_eq!(subgoal.tokens(), count_tokens(&text), "{text}");
        }
    }
    let rounds_up = Subgoal::ArmMove {
        object: "mug".into(),
        to: (9.96, -0.04),
    };
    assert_eq!(rounds_up.to_string(), "move mug to (10.0, -0.0)");
}
