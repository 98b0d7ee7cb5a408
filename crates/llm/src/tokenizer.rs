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

    /// Number of tokens in `text`.
    pub fn count(&self, text: &str) -> u64 {
        self.scan(text, |_, _| {})
    }

    /// The token rule, in one pass over the bytes of `text`: whitespace
    /// ends a word, each run of alphabetic chars costs
    /// [`Tokenizer::alpha_tokens`], and every other char (digit,
    /// punctuation, symbol, mark) is one token of its own, so "kitchen,"
    /// is "kitchen" + ",". ASCII bytes are classed by table; only bytes
    /// ≥ 0x80 decode a `char`.
    ///
    /// After every whitespace char, calls `seam(end, tokens)` with `end` the
    /// byte offset just past it and `tokens` the count of `text[..end]`. No
    /// word straddles such an offset, so counting is additive across it.
    fn scan(&self, text: &str, mut seam: impl FnMut(usize, u64)) -> u64 {
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
                let c = text[i..].chars().next().expect("scan steps whole chars");
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
                    seam(i, tokens);
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

    /// Counts `text`, reusing work from the previous call recorded in
    /// `cache`: only the part past the last checkpoint inside the prefix
    /// `text` shares with the previous text is re-tokenized. Returns exactly
    /// what [`Tokenizer::count`] returns.
    pub fn count_incremental(&self, cache: &mut PromptTokens, text: &str) -> u64 {
        let common = common_prefix_len(cache.text.as_bytes(), text.as_bytes());
        // Keep only checkpoints inside the shared prefix. Each checkpoint
        // offset sits immediately after a whitespace char of the old text;
        // byte equality up to `common` means the same complete whitespace
        // char ends at that offset in `text`, so it is a char boundary and
        // a seam no word straddles — counting is additive across it.
        let keep = cache.checkpoints.partition_point(|&(off, _)| off <= common);
        cache.checkpoints.truncate(keep);
        let last = cache.checkpoints.last().copied();
        let (base, start) = last.unwrap_or((0, 0));
        let mut next_due = last.map_or(0, |(off, _)| off + PromptTokens::STRIDE_BYTES);
        let checkpoints = &mut cache.checkpoints;
        let total = start
            + self.scan(&text[base..], |end, tokens| {
                let off = base + end;
                if off >= next_due {
                    checkpoints.push((off, start + tokens));
                    next_due = off + PromptTokens::STRIDE_BYTES;
                }
            });
        cache.text.clear();
        cache.text.push_str(text);
        cache.total = total;
        total
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

/// Incremental token-count accumulator for one growing prompt stream.
///
/// Holds the previously counted text plus `(byte_offset, cumulative_tokens)`
/// checkpoints at seam-safe positions (each offset sits immediately after a
/// whitespace char, so no word straddles it). [`Tokenizer::count_incremental`]
/// resumes from the deepest checkpoint still inside the shared prefix with
/// the new text; [`PromptTokens::count_prefix`] answers prefix counts (the
/// KV-reuse accounting path) from the same checkpoints.
///
/// ```
/// use embodied_llm::{PromptTokens, Tokenizer};
///
/// let tok = Tokenizer::default();
/// let mut cache = PromptTokens::new();
/// let mut prompt = String::from("[system] plan the next step\n");
/// assert_eq!(tok.count_incremental(&mut cache, &prompt), tok.count(&prompt));
/// prompt.push_str("[observation] the fridge is open\n");
/// assert_eq!(tok.count_incremental(&mut cache, &prompt), tok.count(&prompt));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PromptTokens {
    text: String,
    checkpoints: Vec<(usize, u64)>,
    total: u64,
}

impl PromptTokens {
    /// Minimum byte distance between recorded checkpoints: bounds the
    /// checkpoint list to ~len/64 entries while keeping any recount window
    /// to at most a stride plus one word.
    const STRIDE_BYTES: usize = 64;

    /// An empty accumulator (counts everything on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently counted text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Token count of the most recently counted text.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact token count of `self.text()[..upto]` (`upto` must lie on a
    /// char boundary). Served from the nearest checkpoint at or before
    /// `upto`, so the cost is bounded by the checkpoint stride rather than
    /// by `upto` — this is the KV-cache shared-prefix accounting hot path.
    pub fn count_prefix(&self, tokenizer: &Tokenizer, upto: usize) -> u64 {
        let at = self.checkpoints.partition_point(|&(off, _)| off <= upto);
        let (off, toks) = if at == 0 {
            (0, 0)
        } else {
            self.checkpoints[at - 1]
        };
        toks + tokenizer.count(&self.text[off..upto])
    }
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

    #[test]
    fn incremental_matches_full_on_append_sequence() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut text = String::new();
        let segments = [
            "[system] you are the planning module\n",
            "[goal] transport the boxes to zone three\n",
            "step 1: agent0 moved to room_2, found nothing.\n",
            "step 2: 漢字の观察 → the shelf holds 3 apples 🍎🍎🍎\n",
            "Ideographic\u{3000}space\u{3000}separates\u{3000}these\u{3000}words\n",
            "a very-long-hyphenated-token antidisestablishmentarianism!!\n",
        ];
        // Grow the prompt the way an episode does and re-count at each step.
        for _ in 0..3 {
            for seg in segments {
                text.push_str(seg);
                assert_eq!(
                    tok.count_incremental(&mut cache, &text),
                    tok.count(&text),
                    "after appending {seg:?}"
                );
                assert_eq!(cache.total(), tok.count(&text));
                assert_eq!(cache.text(), text);
            }
        }
    }

    #[test]
    fn incremental_handles_rewrites_and_shrinks() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let long: String = "the agent moves the red apple to the table ".repeat(12);
        assert_eq!(tok.count_incremental(&mut cache, &long), tok.count(&long));
        // A completely different, shorter text.
        let other = "replan: fridge door blocked, pick 菠萝 instead";
        assert_eq!(tok.count_incremental(&mut cache, other), tok.count(other));
        // A strict prefix of an earlier text (shrinking).
        let prefix = &long[..long.len() / 2];
        assert_eq!(tok.count_incremental(&mut cache, prefix), tok.count(prefix));
        // Divergence in the middle of a multi-byte char's neighborhood.
        let mutated = format!("{}卍{}", &long[..40], &long[44..]);
        assert_eq!(
            tok.count_incremental(&mut cache, &mutated),
            tok.count(&mutated)
        );
    }

    #[test]
    fn count_prefix_matches_direct_count_at_every_boundary() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let text = "step 12: 机器人 crossed the\u{3000}corridor 🤖, logging \
                    coordinates (4,7) and re-planning the long-horizon route "
            .repeat(3);
        tok.count_incremental(&mut cache, &text);
        for upto in (0..=text.len()).filter(|&b| text.is_char_boundary(b)) {
            assert_eq!(
                cache.count_prefix(&tok, upto),
                tok.count(&text[..upto]),
                "prefix of {upto} bytes"
            );
        }
    }

    #[test]
    fn incremental_on_empty_and_whitespace() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        assert_eq!(tok.count_incremental(&mut cache, ""), 0);
        assert_eq!(tok.count_incremental(&mut cache, "  \n\t "), 0);
        assert_eq!(cache.count_prefix(&tok, 2), 0);
        assert_eq!(tok.count_incremental(&mut cache, ""), 0);
    }
}
