//! Edge-case text for tokenizer and prompt-count properties: every ASCII
//! char, the non-ASCII chars at the edges of the token rule, and letter
//! runs long enough to split into subwords. Shared by the tokenizer
//! properties here and the prompt-writer properties in `embodied-agents`.

#![allow(dead_code)] // each including test crate uses its own subset

use proptest::collection;
use proptest::prelude::*;

/// Non-ASCII chars at the edges of the token rule: every Unicode
/// whitespace char outside ASCII, letters of several scripts and cases
/// (`ª` and `ǅ` are alphabetic but neither upper nor lower), numerics that
/// are not letters, a combining mark, and emoji.
pub const EXOTIC: &[char] = &[
    '\u{0085}', '\u{00A0}', '\u{1680}', '\u{2000}', '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}',
    '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}', '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}',
    '\u{202F}', '\u{205F}', '\u{3000}', 'ß', 'ª', 'ǅ', '漢', '٣', '²', '\u{0301}', '🍎', '🦀',
];

/// Letters for long alphabetic runs, which single random chars rarely form.
pub const LETTERS: &[char] = &['a', 'Z', 'ß', 'ª', 'ǅ', '漢'];

/// Every ASCII char (U+0000–U+007F) followed by [`EXOTIC`].
pub fn alphabet() -> Vec<char> {
    (0u8..0x80)
        .map(char::from)
        .chain(EXOTIC.iter().copied())
        .collect()
}

/// Text drawn from [`alphabet`], mixed with letter runs long enough to
/// split into subwords.
pub fn edge_text() -> impl Strategy<Value = String> {
    let chars = alphabet();
    let piece = prop_oneof![
        (0..chars.len()).prop_map(move |i| chars[i].to_string()),
        collection::vec(0..LETTERS.len(), 1..24)
            .prop_map(|ix| ix.into_iter().map(|i| LETTERS[i]).collect::<String>()),
    ];
    collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

/// The whitespace chars of [`alphabet`]: ASCII's and every Unicode
/// whitespace char outside ASCII.
pub fn whitespace() -> Vec<char> {
    alphabet()
        .into_iter()
        .filter(|c| c.is_whitespace())
        .collect()
}

/// Whitespace-only text (possibly empty) drawn from [`whitespace`].
pub fn blank_text() -> impl Strategy<Value = String> {
    let chars = whitespace();
    collection::vec(0..chars.len(), 0..6)
        .prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect::<String>())
}
