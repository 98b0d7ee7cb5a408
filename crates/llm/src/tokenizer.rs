//! A deterministic subword tokenizer.
//!
//! The suite builds *real* prompt strings (system preambles, retrieved
//! memories, dialogue history), so prompt-length phenomena — Fig. 6's token
//! growth, context-window overflows, context-dilution quality loss — emerge
//! from actual text rather than synthetic counters. The tokenizer maps text
//! to token counts the way BPE vocabularies do in aggregate: whole short
//! words are one token, long words split into ~4-character subwords, and
//! punctuation/digits tokenize separately.

use serde::{Deserialize, Serialize};

/// Deterministic subword tokenizer used by every simulated model.
///
/// ```
/// use embodied_llm::Tokenizer;
///
/// let tok = Tokenizer::default();
/// assert_eq!(tok.count("go to the kitchen"), 4);
/// // Long words split into subwords, like real BPE vocabularies.
/// assert!(tok.count("antidisestablishmentarianism") > 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tokenizer {
    /// Maximum characters a single subword token absorbs.
    subword_len: usize,
    /// Words up to this length count as a single token.
    whole_word_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        // Calibrated so English prose lands near the familiar
        // ~4 characters/token (~0.75 tokens/word) ratio.
        Tokenizer {
            subword_len: 4,
            whole_word_len: 7,
        }
    }
}

impl Tokenizer {
    /// Creates a tokenizer with explicit granularity.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero.
    pub fn new(subword_len: usize, whole_word_len: usize) -> Self {
        assert!(subword_len > 0, "subword_len must be positive");
        assert!(whole_word_len > 0, "whole_word_len must be positive");
        Tokenizer {
            subword_len,
            whole_word_len,
        }
    }

    /// Number of tokens in `text`, in one pass over its bytes: whitespace
    /// ends a word, each run of alphabetic chars costs
    /// [`Tokenizer::alpha_tokens`], and every other char (digit,
    /// punctuation, symbol, mark) is one token of its own, so "kitchen,"
    /// is "kitchen" + ",". ASCII bytes are classed by table; only bytes
    /// ≥ 0x80 decode a `char`.
    ///
    /// No word straddles a whitespace char, so counting is additive across
    /// one: `count(a + " " + b) == count(a) + count(b)`. Prompt assembly
    /// relies on this to sum the counts of pieces counted where they were
    /// made.
    pub fn count(&self, text: &str) -> u64 {
        let bytes = text.as_bytes();
        let mut tokens = 0u64;
        let mut run = 0usize;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let class = if b < 0x80 {
                i += 1;
                ASCII_CLASS[usize::from(b)]
            } else {
                let c = text[i..].chars().next().expect("count steps whole chars");
                i += c.len_utf8();
                Class::of(c)
            };
            match class {
                Class::Letter => run += 1,
                Class::Other => {
                    tokens += self.alpha_tokens(run) + 1;
                    run = 0;
                }
                Class::Space => {
                    tokens += self.alpha_tokens(run);
                    run = 0;
                }
            }
        }
        tokens + self.alpha_tokens(run)
    }

    fn alpha_tokens(&self, len: usize) -> u64 {
        if len == 0 {
            0
        } else if len <= self.whole_word_len {
            1
        } else {
            len.div_ceil(self.subword_len) as u64
        }
    }

    /// Truncates `text` to at most `max_tokens`, keeping the *tail* (the
    /// convention used when a prompt exceeds the context window: the system
    /// preamble has already been consumed, and the freshest context matters
    /// most). Returns the retained suffix.
    pub fn truncate_to(&self, text: &str, max_tokens: u64) -> String {
        if self.count(text) <= max_tokens {
            return text.to_owned();
        }
        // Walk words from the end, accumulating until the budget is spent.
        let mut kept = Vec::new();
        let mut budget = max_tokens;
        for word in text.split_whitespace().rev() {
            let cost = self.count(word);
            if cost > budget {
                break;
            }
            budget -= cost;
            kept.push(word);
        }
        kept.reverse();
        kept.join(" ")
    }

    /// Estimated character budget for a token budget (for pre-sizing).
    pub fn chars_for(&self, tokens: u64) -> usize {
        (tokens as usize) * self.subword_len
    }
}

/// What the token rule does with one char.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// `char::is_whitespace`: ends the word.
    Space,
    /// `char::is_alphabetic`: extends the letter run.
    Letter,
    /// Anything else: a token of its own.
    Other,
}

impl Class {
    fn of(c: char) -> Class {
        if c.is_whitespace() {
            Class::Space
        } else if c.is_alphabetic() {
            Class::Letter
        } else {
            Class::Other
        }
    }
}

/// [`Class::of`] for every ASCII char. Whitespace is U+0009–U+000D and the
/// space (U+001C–U+001F are not whitespace to `char::is_whitespace`).
const ASCII_CLASS: [Class; 128] = {
    let mut table = [Class::Other; 128];
    let mut b = 0;
    while b < table.len() {
        table[b] = match b as u8 {
            b'\t'..=b'\r' | b' ' => Class::Space,
            b'a'..=b'z' | b'A'..=b'Z' => Class::Letter,
            _ => Class::Other,
        };
        b += 1;
    }
    table
};

/// Length of the longest common byte prefix of `a` and `b`: 16-byte chunks
/// first, then byte by byte inside the first chunk that differs.
pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let (a16, _) = a.as_chunks::<16>();
    let (b16, _) = b.as_chunks::<16>();
    let same = 16 * a16.iter().zip(b16).take_while(|(x, y)| x == y).count();
    same + a[same..]
        .iter()
        .zip(&b[same..])
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace_count_zero() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count(""), 0);
        assert_eq!(tok.count("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count("kitchen"), 1);
        assert_eq!(tok.count("a b c"), 3);
    }

    #[test]
    fn long_words_split() {
        let tok = Tokenizer::default();
        // 12 letters → ceil(12/4) = 3 tokens
        assert_eq!(tok.count("transporting"), 3);
    }

    #[test]
    fn punctuation_tokenizes_separately() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count("go,"), 2);
        assert_eq!(tok.count("room_3"), 1 + 1 + 1); // "room" + "_" + "3"
    }

    #[test]
    fn prose_ratio_is_plausible() {
        let tok = Tokenizer::default();
        let text = "the agent moves the red apple from the kitchen counter \
                    to the dining table and then reports task completion";
        let tokens = tok.count(text) as f64;
        let chars = text.len() as f64;
        let ratio = chars / tokens;
        assert!(
            (3.0..7.0).contains(&ratio),
            "chars/token ratio {ratio} outside plausible band"
        );
    }

    #[test]
    fn truncate_keeps_tail_within_budget() {
        let tok = Tokenizer::default();
        let text = "alpha beta gamma delta epsilon";
        let cut = tok.truncate_to(text, 2);
        assert!(tok.count(&cut) <= 2);
        assert!(cut.ends_with("epsilon"));
    }

    #[test]
    fn truncate_noop_when_under_budget() {
        let tok = Tokenizer::default();
        assert_eq!(tok.truncate_to("short text", 100), "short text");
    }

    #[test]
    fn count_is_additive_over_concatenation_with_space() {
        let tok = Tokenizer::default();
        let a = "pick up the box";
        let b = "move to room three";
        assert_eq!(tok.count(&format!("{a} {b}")), tok.count(a) + tok.count(b));
    }

    #[test]
    fn common_prefix_len_finds_the_first_difference_across_chunks() {
        let a: Vec<u8> = (0..48).collect();
        for len in 0..=a.len() {
            assert_eq!(common_prefix_len(&a, &a[..len]), len);
            assert_eq!(common_prefix_len(&a[..len], &a), len);
            for diff in 0..len {
                let mut b = a[..len].to_vec();
                b[diff] ^= 0x80;
                assert_eq!(common_prefix_len(&a, &b), diff, "len {len} diff {diff}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "subword_len")]
    fn zero_subword_rejected() {
        let _ = Tokenizer::new(0, 5);
    }
}
