//! Property tests for the tokenizer: the one-pass byte-class kernel must
//! count exactly what the two-pass reference below counts, counts must add
//! up across whitespace seams, and the memoized BPE counter must equal a
//! fresh one on arbitrary multi-byte text.

#[path = "support/edge_text.rs"]
mod edge_text;

use edge_text::{alphabet, blank_text, edge_text};
use embodied_llm::{BpeTokenizer, Tokenizer};
use proptest::collection;
use proptest::prelude::*;

/// Reference token rule: split on `char::is_whitespace`, then walk each
/// word's chars. A run of alphabetic chars is one token up to `whole_word`
/// chars and `ceil(len / subword)` tokens beyond; every other char is one
/// token.
fn reference_count(text: &str, subword: usize, whole_word: usize) -> u64 {
    text.split_whitespace()
        .map(|word| reference_count_word(word, subword, whole_word))
        .sum()
}

fn reference_count_word(word: &str, subword: usize, whole_word: usize) -> u64 {
    let alpha_tokens = |len: usize| match len {
        0 => 0,
        len if len <= whole_word => 1,
        len => len.div_ceil(subword) as u64,
    };
    let mut tokens = 0u64;
    let mut alpha_run = 0usize;
    for c in word.chars() {
        if c.is_alphabetic() {
            alpha_run += 1;
        } else {
            tokens += alpha_tokens(alpha_run) + 1;
            alpha_run = 0;
        }
    }
    tokens + alpha_tokens(alpha_run)
}

#[test]
fn every_char_and_pair_of_the_alphabet_counts_like_the_reference() {
    let tok = Tokenizer::default();
    let chars = alphabet();
    for &a in &chars {
        for text in [a.to_string(), format!("ab{a}cd"), format!("{a}{a}")] {
            assert_eq!(tok.count(&text), reference_count(&text, 4, 7), "{text:?}");
        }
        for &b in &chars {
            let text = format!("{a}{b}");
            assert_eq!(tok.count(&text), reference_count(&text, 4, 7), "{text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel counts exactly what the two-pass reference counts, at the
    /// default granularity and at arbitrary ones.
    #[test]
    fn count_equals_two_pass_reference(
        text in edge_text(),
        subword in 1usize..6,
        whole_word in 1usize..10,
    ) {
        prop_assert_eq!(Tokenizer::default().count(&text), reference_count(&text, 4, 7));
        prop_assert_eq!(
            Tokenizer::new(subword, whole_word).count(&text),
            reference_count(&text, subword, whole_word),
            "subword {} whole_word {} on {:?}",
            subword,
            whole_word,
            text
        );
    }

    /// Counting is additive across any whitespace seam: the count of
    /// `a + ws + b` is the count of `a` plus the count of `b`, whatever
    /// `a` and `b` end or start with. Prompt assembly sums the counts of
    /// pieces counted where they were made on exactly this rule.
    #[test]
    fn count_is_additive_across_any_whitespace_seam(
        a in edge_text(),
        seam in blank_text(),
        b in edge_text(),
    ) {
        let tok = Tokenizer::default();
        let seam = if seam.is_empty() { "\u{3000}" } else { seam.as_str() };
        let whole = format!("{a}{seam}{b}");
        prop_assert_eq!(tok.count(&whole), tok.count(&a) + tok.count(&b), "{:?}", whole);
    }
}

/// Prompt fragments mixing ASCII, CJK, emoji, exotic whitespace (U+3000
/// ideographic space) and long words — the shapes that stress word
/// boundaries and UTF-8 handling.
fn segment() -> BoxedStrategy<String> {
    prop_oneof![
        Just("[system] plan the next step\n".to_owned()),
        Just("observation: the fridge is open ".to_owned()),
        Just("漢字のトークン化を確認する ".to_owned()),
        Just("🍎🍐🦀 emoji\u{3000}and ideographic space ".to_owned()),
        Just("supercalifragilisticexpialidocious ".to_owned()),
        Just("x ".to_owned()),
        Just("  \t\n ".to_owned()),
        Just("re-plan; retry(2) -> pick_up(apple_🍎) ".to_owned()),
        Just("0123456789 ".to_owned()),
        Just("ωμέγα και ελληνικά ".to_owned()),
    ]
    .boxed()
}

proptest! {
    // BPE training is expensive; a handful of cases against one shared
    // tokenizer still exercises cold-vs-warm memo paths on every word.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-word memo never changes a count: a warm tokenizer agrees
    /// with a freshly trained (cold) one on arbitrary texts.
    #[test]
    fn bpe_memo_matches_fresh_tokenizer(
        segments in collection::vec(segment(), 1..8),
    ) {
        let warm = BpeTokenizer::new(120);
        let text: String = segments.concat();
        let first = warm.count(&text);
        let second = warm.count(&text); // fully memoized pass
        let cold = BpeTokenizer::new(120).count(&text);
        prop_assert_eq!(first, cold);
        prop_assert_eq!(second, cold);
    }
}
