//! A deterministic subword tokenizer.
//!
//! Every prompt section (system preambles, retrieved memories, dialogue
//! history) is counted from its actual text, so prompt-length phenomena —
//! Fig. 6's token growth, context-window overflows, context-dilution
//! quality loss — emerge from real text rather than synthetic counters. The tokenizer maps text
//! to token counts the way BPE vocabularies do in aggregate: whole short
//! words are one token, long words split into ~4-character subwords, and
//! punctuation/digits tokenize separately.

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tokenizer;

/// Maximum characters a single subword token absorbs.
const SUBWORD_LEN: usize = 4;
/// Words up to this length count as a single token.
const WHOLE_WORD_LEN: usize = 7;

impl Tokenizer {
    /// The tokenizer every simulated model uses. Its granularity is
    /// calibrated so English prose lands near the familiar ~4
    /// characters/token (~0.75 tokens/word) ratio.
    pub const STANDARD: Tokenizer = Tokenizer;

    /// Number of tokens in `text`, in one pass over its bytes: whitespace
    /// ends a word, a run of alphabetic chars up to the whole-word length
    /// is one token and a longer run one per subword-length chunk; every
    /// other char (digit, punctuation, symbol, mark) is one token of its
    /// own, so "kitchen," is "kitchen" + ",". ASCII bytes are classed by
    /// table; only bytes ≥ 0x80 decode a `char`.
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

    /// [`Tokenizer::count`] of ASCII `text`, usable in constants: prompt
    /// assembly counts its fixed wording at compile time.
    ///
    /// # Panics
    ///
    /// Panics (at compile time, in a constant) if `text` is not ASCII.
    ///
    /// ```
    /// use embodied_llm::Tokenizer;
    ///
    /// const TOKENS: u64 = Tokenizer::STANDARD.count_ascii("[available actions]");
    /// assert_eq!(TOKENS, Tokenizer::default().count("[available actions]"));
    /// ```
    pub const fn count_ascii(&self, text: &str) -> u64 {
        assert!(text.is_ascii(), "count_ascii needs ASCII text");
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
        let tok = Tokenizer::STANDARD;
        assert_eq!(tok.count(""), 0);
        assert_eq!(tok.count("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        let tok = Tokenizer::STANDARD;
        assert_eq!(tok.count("kitchen"), 1);
        assert_eq!(tok.count("a b c"), 3);
    }

    #[test]
    fn long_words_split() {
        let tok = Tokenizer::STANDARD;
        // 12 letters → ceil(12/4) = 3 tokens
        assert_eq!(tok.count("transporting"), 3);
    }

    #[test]
    fn punctuation_tokenizes_separately() {
        let tok = Tokenizer::STANDARD;
        assert_eq!(tok.count("go,"), 2);
        assert_eq!(tok.count("room_3"), 1 + 1 + 1); // "room" + "_" + "3"
    }

    #[test]
    fn prose_ratio_is_plausible() {
        let tok = Tokenizer::STANDARD;
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
    fn count_is_additive_over_concatenation_with_space() {
        let tok = Tokenizer::STANDARD;
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
    fn ascii_count_agrees_with_count() {
        let tok = Tokenizer::STANDARD;
        let ascii: String = (0u8..128).map(char::from).collect();
        for text in [
            "",
            " \t\n",
            "[available actions]",
            "antidisestablishmentarianism, room_12!",
            &ascii,
        ] {
            assert_eq!(tok.count_ascii(text), tok.count(text), "{text:?}");
        }
    }
}
