//! Property tests for prompt assembly: [`PromptWriter`]'s running token
//! count must equal a full count of the text it wrote, for arbitrary section
//! sequences over edge-case text, with and without supplied counts, and the
//! text itself must be the plain `[title]\n{body}\n` rendering with blank
//! bodies skipped.

#[path = "../../llm/tests/support/edge_text.rs"]
mod edge_text;

use edge_text::{blank_text, edge_text};
use embodied_agents::prompt::{count_tokens, Counted, PromptWriter};
use embodied_env::Subgoal;
use proptest::collection;
use proptest::prelude::*;

/// What a body may start or end with: nothing, an ASCII space, or
/// whitespace outside ASCII.
const EDGES: &[&str] = &["", " ", "\u{85}", "\u{3000}", "\u{2029}"];

/// One call on the writer.
#[derive(Debug, Clone)]
enum Section {
    /// `push`: the writer counts the body.
    Plain(String, String),
    /// `push_counted` with the body's lines joined by newlines and the
    /// count summed from the lines, the way memory retrieval supplies it.
    Counted(String, Vec<String>),
    /// `push_display`: the writer renders and counts the body.
    Display(String, String),
    /// `push_candidates` over one pick per name.
    Candidates(Vec<String>),
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

fn section() -> impl Strategy<Value = Section> {
    (0u32..4, edge_text(), body(), collection::vec(body(), 0..4)).prop_map(
        |(kind, title, body, more)| match kind {
            0 => Section::Plain(title, body),
            1 => Section::Counted(title, more),
            2 => Section::Display(title, body),
            _ => Section::Candidates(more),
        },
    )
}

fn picks(names: &[String]) -> Vec<Subgoal> {
    names
        .iter()
        .map(|object| Subgoal::Pick {
            object: object.clone(),
        })
        .collect()
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
            Section::Plain(title, body) | Section::Display(title, body) => {
                section(&mut out, title, body)
            }
            Section::Counted(title, lines) => section(&mut out, title, &lines.join("\n")),
            Section::Candidates(names) => {
                if !names.is_empty() {
                    let menu: String = picks(names)
                        .iter()
                        .enumerate()
                        .map(|(i, sg)| format!("({i}) {sg}\n"))
                        .collect();
                    out.push_str(&format!("[available actions]\n{menu}\n"));
                }
            }
        }
    }
    if let Some(tail) = tail {
        out.push_str(&format!("\n{tail}"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn running_count_equals_a_count_of_the_written_text(
        preamble in body(),
        sections in collection::vec(section(), 0..10),
        tail in edge_text(),
        append in 0u32..2,
    ) {
        let mut out = String::from("stale text from an earlier prompt");
        let mut w = PromptWriter::new(&mut out, Counted::new(preamble.as_str()));
        for s in &sections {
            match s {
                Section::Plain(title, body) => {
                    w.push(title, body);
                }
                Section::Counted(title, lines) => {
                    let text = lines.join("\n");
                    let tokens = lines.iter().map(|l| count_tokens(l)).sum();
                    w.push_counted(title, Counted::with_tokens(text.as_str(), tokens));
                }
                Section::Display(title, body) => {
                    w.push_display(title, body);
                }
                Section::Candidates(names) => {
                    w.push_candidates(&picks(names));
                }
            }
        }
        let tail = (append == 1).then_some(tail.as_str());
        if let Some(tail) = tail {
            w.append(format_args!("\n{tail}"));
        }
        let tokens = w.tokens();
        prop_assert_eq!(&out, &reference(&preamble, &sections, tail));
        prop_assert_eq!(tokens, count_tokens(&out), "{:?}", out);
    }
}
