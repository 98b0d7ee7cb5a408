//! Property tests for the tokenizer: the one-pass byte-class kernel must
//! count exactly what the two-pass reference below counts, counts must add
//! up across whitespace seams, the heuristic must stay calibrated against
//! the reference BPE tokenizer, and the memoized BPE counter must equal a
//! fresh one on arbitrary multi-byte text.

#[path = "support/bpe.rs"]
mod bpe;
#[path = "support/edge_text.rs"]
mod edge_text;

use bpe::BpeTokenizer;
use edge_text::{alphabet, blank_text, edge_text};
use embodied_profiler::count_tokens;
use proptest::collection;
use proptest::prelude::*;

/// Reference token rule: split on `char::is_whitespace`, then walk each
/// word's chars. A run of alphabetic chars is one token up to 7 chars and
/// `ceil(len / 4)` tokens beyond; every other char is one token.
fn reference_count(text: &str) -> u64 {
    text.split_whitespace().map(reference_count_word).sum()
}

fn reference_count_word(word: &str) -> u64 {
    let alpha_tokens = |len: usize| match len {
        0 => 0,
        len if len <= 7 => 1,
        len => len.div_ceil(4) as u64,
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
    let chars = alphabet();
    for &a in &chars {
        for text in [a.to_string(), format!("ab{a}cd"), format!("{a}{a}")] {
            assert_eq!(count_tokens(&text), reference_count(&text), "{text:?}");
        }
        for &b in &chars {
            let text = format!("{a}{b}");
            assert_eq!(count_tokens(&text), reference_count(&text), "{text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel counts exactly what the two-pass reference counts.
    #[test]
    fn count_equals_two_pass_reference(text in edge_text()) {
        prop_assert_eq!(count_tokens(&text), reference_count(&text), "{:?}", text);
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
        let seam = if seam.is_empty() { "\u{3000}" } else { seam.as_str() };
        let whole = format!("{a}{seam}{b}");
        prop_assert_eq!(count_tokens(&whole), count_tokens(&a) + count_tokens(&b), "{:?}", whole);
    }
}

fn tok() -> BpeTokenizer {
    BpeTokenizer::new(400)
}

#[test]
fn training_is_deterministic() {
    let a = BpeTokenizer::new(200);
    let b = BpeTokenizer::new(200);
    assert_eq!(a.encode_word("transport"), b.encode_word("transport"));
    assert_eq!(a.merge_count(), b.merge_count());
}

#[test]
fn common_domain_words_compress_to_few_tokens() {
    let t = tok();
    // Frequent corpus words should encode compactly.
    for word in ["the", "agent", "planning", "room"] {
        let tokens = t.encode_word(word);
        assert!(
            tokens.len() <= 3,
            "{word} encoded as {tokens:?} ({} tokens)",
            tokens.len()
        );
    }
}

#[test]
fn rare_words_fall_back_to_subwords() {
    let t = tok();
    let tokens = t.encode_word("xylophonic");
    assert!(tokens.len() >= 3, "unseen word should split: {tokens:?}");
}

#[test]
fn encoding_round_trips_characters() {
    let t = tok();
    for word in ["exploration", "pickaxe", "zz"] {
        let joined: String = t.encode_word(word).concat();
        assert_eq!(joined.trim_end_matches('·'), word);
    }
}

#[test]
fn heuristic_tokenizer_is_calibrated_against_bpe() {
    // The fast heuristic should track the reference BPE within ±40% on
    // domain prose — close enough that latency/quality conclusions are
    // insensitive to the tokenizer choice.
    let bpe = tok();
    let text = "the agent transports the red apple from the kitchen \
                counter to the dining table then reports progress to \
                its teammates and updates the shared memory of object \
                locations before planning the next exploration step";
    let b = bpe.count(text) as f64;
    let h = count_tokens(text) as f64;
    let ratio = h / b;
    assert!(
        (0.6..1.4).contains(&ratio),
        "heuristic {h} vs bpe {b} (ratio {ratio:.2})"
    );
}

#[test]
fn zero_merge_tokenizer_is_character_level() {
    let t = BpeTokenizer::new(0);
    assert_eq!(t.count("abc de"), 5);
    assert_eq!(t.merge_count(), 0);
}

#[test]
fn memoized_count_matches_uncached_encoding() {
    let warm = tok();
    let text = "the agent transports the red apple to the kitchen \
                counter the agent transports another apple";
    // First call populates the memo, second is served from it.
    let first = warm.count(text);
    let second = warm.count(text);
    // A fresh tokenizer has a cold memo.
    let cold = tok().count(text);
    assert_eq!(first, second);
    assert_eq!(first, cold);
    // And both equal per-word greedy encoding, the uncached reference.
    let fresh = tok();
    let reference: u64 = text
        .split_whitespace()
        .map(|w| fresh.encode_word(w).len() as u64)
        .sum();
    assert_eq!(first, reference);
}

#[test]
fn count_is_additive_over_words() {
    let t = tok();
    assert_eq!(
        t.count("open the fridge"),
        t.count("open") + t.count("the") + t.count("fridge")
    );
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
