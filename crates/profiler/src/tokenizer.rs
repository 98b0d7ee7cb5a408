//! A deterministic subword tokenizer.
//!
//! Every prompt section (system preambles, retrieved memories, dialogue
//! history) is counted from its actual text, so prompt-length phenomena —
//! Fig. 6's token growth, context-window overflows, context-dilution
//! quality loss — emerge from real text rather than synthetic counters. The tokenizer maps text
//! to token counts the way BPE vocabularies do in aggregate: whole short
//! words are one token, long words split into ~4-character subwords, and
//! punctuation/digits tokenize separately.

/// Maximum characters a single subword token absorbs.
const SUBWORD_LEN: usize = 4;
/// Words up to this length count as a single token.
const WHOLE_WORD_LEN: usize = 7;

/// Number of tokens in `text` under the rule every simulated model uses,
/// in one pass over its bytes: whitespace ends a word, a run of alphabetic
/// chars up to the whole-word length is one token and a longer run one per
/// subword-length chunk; every other char (digit, punctuation, symbol,
/// mark) is one token of its own, so "kitchen," is "kitchen" + ",". ASCII
/// bytes are classed by table; only bytes ≥ 0x80 decode a `char`. Its
/// granularity is calibrated so English prose lands near the familiar ~4
/// characters/token (~0.75 tokens/word) ratio.
///
/// No word straddles a whitespace char, so counting is additive across
/// one: `count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)`.
/// Prompt assembly relies on this to sum the counts of pieces counted
/// where they were made.
///
/// ```
/// use embodied_profiler::count_tokens;
///
/// assert_eq!(count_tokens("go to the kitchen"), 4);
/// // Long words split into subwords, like real BPE vocabularies.
/// assert!(count_tokens("antidisestablishmentarianism") > 1);
/// ```
pub fn count_tokens(text: &str) -> u64 {
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
                tokens += alpha_tokens(run) + 1;
                run = 0;
            }
            Class::Space => {
                tokens += alpha_tokens(run);
                run = 0;
            }
        }
    }
    tokens + alpha_tokens(run)
}

/// [`count_tokens`] of ASCII `text`, usable in constants: fixed wording is
/// counted at compile time.
///
/// # Panics
///
/// Panics (at compile time, in a constant) if `text` is not ASCII.
///
/// ```
/// use embodied_profiler::{ascii_tokens, count_tokens};
///
/// const TOKENS: u64 = ascii_tokens("[available actions]");
/// assert_eq!(TOKENS, count_tokens("[available actions]"));
/// ```
pub const fn ascii_tokens(text: &str) -> u64 {
    assert!(text.is_ascii(), "ascii_tokens needs ASCII text");
    let bytes = text.as_bytes();
    let mut tokens = 0u64;
    let mut run = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match ASCII_CLASS[bytes[i] as usize] {
            Class::Letter => run += 1,
            Class::Other => {
                tokens += alpha_tokens(run) + 1;
                run = 0;
            }
            Class::Space => {
                tokens += alpha_tokens(run);
                run = 0;
            }
        }
        i += 1;
    }
    tokens + alpha_tokens(run)
}

/// Tokens in the decimal digits of `n`: every digit is a token of its own.
///
/// ```
/// use embodied_profiler::{count_tokens, digit_tokens};
///
/// assert_eq!(digit_tokens(1024), count_tokens("1024"));
/// ```
#[inline]
pub fn digit_tokens(n: usize) -> u64 {
    u64::from(n.checked_ilog10().unwrap_or(0) + 1)
}

/// Tokens in a run of `len` letters: one up to the whole-word length, one
/// per subword-length chunk beyond it.
const fn alpha_tokens(len: usize) -> u64 {
    if len == 0 {
        0
    } else if len <= WHOLE_WORD_LEN {
        1
    } else {
        len.div_ceil(SUBWORD_LEN) as u64
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace_count_zero() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count_tokens("kitchen"), 1);
        assert_eq!(count_tokens("a b c"), 3);
    }

    #[test]
    fn long_words_split() {
        // 12 letters → ceil(12/4) = 3 tokens
        assert_eq!(count_tokens("transporting"), 3);
    }

    #[test]
    fn punctuation_tokenizes_separately() {
        assert_eq!(count_tokens("go,"), 2);
        assert_eq!(count_tokens("room_3"), 1 + 1 + 1); // "room" + "_" + "3"
    }

    #[test]
    fn prose_ratio_is_plausible() {
        let text = "the agent moves the red apple from the kitchen counter \
                    to the dining table and then reports task completion";
        let tokens = count_tokens(text) as f64;
        let chars = text.len() as f64;
        let ratio = chars / tokens;
        assert!(
            (3.0..7.0).contains(&ratio),
            "chars/token ratio {ratio} outside plausible band"
        );
    }

    #[test]
    fn count_is_additive_over_concatenation_with_space() {
        let a = "pick up the box";
        let b = "move to room three";
        assert_eq!(
            count_tokens(&format!("{a} {b}")),
            count_tokens(a) + count_tokens(b)
        );
    }

    #[test]
    fn ascii_count_agrees_with_count() {
        let ascii: String = (0u8..128).map(char::from).collect();
        for text in [
            "",
            " \t\n",
            "[available actions]",
            "antidisestablishmentarianism, room_12!",
            &ascii,
        ] {
            assert_eq!(ascii_tokens(text), count_tokens(text), "{text:?}");
        }
    }
}
