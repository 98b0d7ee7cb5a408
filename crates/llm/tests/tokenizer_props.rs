//! Property tests for the tokenizer: the one-pass byte-class kernel must
//! count exactly what the two-pass reference below counts, and the
//! incremental prompt-token accumulator and the memoized BPE counter must
//! equal full recounts under arbitrary multi-byte append/rewrite sequences.

use embodied_llm::{BpeTokenizer, PromptTokens, Tokenizer};
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

/// Non-ASCII chars at the edges of the token rule: every Unicode
/// whitespace char outside ASCII, letters of several scripts and cases
/// (`ª` and `ǅ` are alphabetic but neither upper nor lower), numerics that
/// are not letters, a combining mark, and emoji.
const EXOTIC: &[char] = &[
    '\u{0085}', '\u{00A0}', '\u{1680}', '\u{2000}', '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}',
    '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}', '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}',
    '\u{202F}', '\u{205F}', '\u{3000}', 'ß', 'ª', 'ǅ', '漢', '٣', '²', '\u{0301}', '🍎', '🦀',
];

/// Letters for long alphabetic runs, which single random chars rarely form.
const LETTERS: &[char] = &['a', 'Z', 'ß', 'ª', 'ǅ', '漢'];

/// Every ASCII char (U+0000–U+007F) followed by [`EXOTIC`].
fn alphabet() -> Vec<char> {
    (0u8..0x80)
        .map(char::from)
        .chain(EXOTIC.iter().copied())
        .collect()
}

/// Text drawn from [`alphabet`], mixed with letter runs long enough to
/// split into subwords.
fn edge_text() -> impl Strategy<Value = String> {
    let chars = alphabet();
    let piece = prop_oneof![
        (0..chars.len()).prop_map(move |i| chars[i].to_string()),
        collection::vec(0..LETTERS.len(), 1..24)
            .prop_map(|ix| ix.into_iter().map(|i| LETTERS[i]).collect::<String>()),
    ];
    collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

/// Largest `k <= upto` that is a char boundary of `s`.
fn floor_char(s: &str, upto: usize) -> usize {
    let mut k = upto.min(s.len());
    while !s.is_char_boundary(k) {
        k -= 1;
    }
    k
}

/// Byte offset of the char boundary a fraction `at` of the way into `s`.
fn cut(s: &str, at: f64) -> usize {
    floor_char(s, (s.len() as f64 * at) as usize)
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

    /// Tail truncation keeps the same words the reference word costs keep.
    #[test]
    fn truncate_keeps_the_reference_tail(text in edge_text(), budget in 0u64..40) {
        let tok = Tokenizer::default();
        let mut kept = Vec::new();
        let mut left = budget;
        for word in text.split_whitespace().rev() {
            let cost = reference_count_word(word, 4, 7);
            if cost > left {
                break;
            }
            left -= cost;
            kept.push(word);
        }
        kept.reverse();
        let expected = if reference_count(&text, 4, 7) <= budget { text.clone() } else { kept.join(" ") };
        prop_assert_eq!(tok.truncate_to(&text, budget), expected);
    }

    /// Random edits over edge-case text — append, cut the tail, drop the
    /// head, splice the middle (a sliding window), replace wholesale: every
    /// incremental count equals `count`, and so does `count_prefix` at a
    /// random char boundary of each text.
    #[test]
    fn incremental_and_prefix_counts_equal_count_on_edge_text(
        edits in collection::vec((0u32..5, edge_text(), 0.0f64..1.0, 0.0f64..1.0), 1..16),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for (op, piece, a, b) in &edits {
            match op {
                0 => prompt.push_str(piece),
                1 => prompt.truncate(cut(&prompt, *a)),
                2 => prompt = prompt.split_off(cut(&prompt, *a)),
                3 => {
                    let (lo, hi) = (cut(&prompt, a.min(*b)), cut(&prompt, a.max(*b)));
                    prompt.replace_range(lo..hi, piece);
                }
                _ => prompt.clone_from(piece),
            }
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count(&prompt),
                "edit op {} diverged on {:?}",
                op,
                prompt
            );
            let upto = cut(&prompt, *b);
            prop_assert_eq!(
                cache.count_prefix(&tok, upto),
                tok.count(&prompt[..upto]),
                "prefix count diverged at byte {} of {:?}",
                upto,
                prompt
            );
        }
    }
}

/// Prompt fragments mixing ASCII, CJK, emoji, exotic whitespace (U+3000
/// ideographic space) and long words — the shapes that stress the
/// checkpoint seam and UTF-8 boundary handling.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing a prompt by arbitrary multi-byte appends: every incremental
    /// count equals a from-scratch recount of the full text.
    #[test]
    fn incremental_equals_full_recount_on_appends(
        segments in collection::vec(segment(), 1..14),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for seg in &segments {
            prompt.push_str(seg);
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count(&prompt),
                "append diverged on {:?}",
                prompt
            );
        }
    }

    /// Arbitrary edit sequences — append, truncate to a mid-text char
    /// boundary, or replace wholesale — still recount exactly. This covers
    /// shrinking and divergent prefixes, not just Fig. 6-style growth.
    #[test]
    fn incremental_equals_full_recount_on_rewrites(
        edits in collection::vec((0u32..4, segment()), 1..14),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for (op, seg) in &edits {
            match op {
                0 | 1 => prompt.push_str(seg),
                2 => {
                    let half = floor_char(&prompt, prompt.len() / 2);
                    prompt.truncate(half);
                }
                _ => prompt = seg.clone(),
            }
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count(&prompt),
                "edit op {} diverged on {:?}",
                op,
                prompt
            );
        }
    }

    /// `count_prefix` answers from checkpoints; it must agree with a plain
    /// count of the prefix at every sampled char boundary.
    #[test]
    fn count_prefix_equals_plain_prefix_count(
        segments in collection::vec(segment(), 1..10),
        cut in 0.0f64..1.0,
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let prompt: String = segments.concat();
        tok.count_incremental(&mut cache, &prompt);
        let upto = floor_char(&prompt, (prompt.len() as f64 * cut) as usize);
        prop_assert_eq!(
            cache.count_prefix(&tok, upto),
            tok.count(&prompt[..upto]),
            "prefix count diverged at byte {} of {:?}",
            upto,
            prompt
        );
    }
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
