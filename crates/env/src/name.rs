//! Entity names as symbols: the text, its hash and its token count behind
//! one shared handle.

use embodied_profiler::count_tokens;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// A shared entity name.
///
/// Each environment builds its names once, at construction, and every
/// menu, observation, memory record and message that mentions an entity
/// holds a handle to that one symbol: cloning a [`crate::Subgoal`] or a
/// [`crate::SeenEntity`] bumps a reference count instead of copying text.
///
/// The symbol also keeps what readers would otherwise recompute from the
/// text on every use: a 64-bit hash and the text's token count, both taken
/// once when the name is made.
///
/// A name behaves exactly like its text: equality, ordering, `Debug` and
/// `Display` are those of the `&str`, so a name made twice from the same
/// text equals, hashes and sorts like its twin. `Hash` writes the stored
/// hash as one `u64`, which is why a name is no `Borrow<str>`: a `str`
/// hashes its bytes, and a map must not be asked with a key that hashes
/// differently. Look names up with a `Name`, and hash them with
/// [`NameHasher`].
///
/// ```
/// use embodied_env::Name;
///
/// let a = Name::from("apple_1");
/// let b = Name::from(String::from("apple_1"));
/// assert!(a == b && !Name::ptr_eq(&a, &b));
/// assert_eq!(format!("{a} {a:?}"), "apple_1 \"apple_1\"");
/// assert!(Name::from("apple_2") > a);
/// ```
#[derive(Clone)]
pub struct Name(Rc<Symbol>);

struct Symbol {
    hash: u64,
    tokens: u64,
    text: Box<str>,
}

/// FNV-1a over `text`, with the high half folded into the low so the low
/// bits a hash table indexes with depend on every byte.
fn text_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ h >> 32
}

impl Name {
    fn from_boxed(text: Box<str>, hash: u64) -> Self {
        Name(Rc::new(Symbol {
            hash,
            tokens: count_tokens(&text),
            text,
        }))
    }

    /// A name whose stored hash is `hash` whatever its text: two texts
    /// under one hash must still be two names.
    #[cfg(test)]
    pub(crate) fn with_hash(text: &str, hash: u64) -> Self {
        Self::from_boxed(text.into(), hash)
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// [`count_tokens`] of the text, taken when the name was made.
    ///
    /// ```
    /// use embodied_env::Name;
    /// use embodied_profiler::count_tokens;
    ///
    /// assert_eq!(Name::from("stone_pickaxe").tokens(), count_tokens("stone_pickaxe"));
    /// ```
    #[inline]
    pub fn tokens(&self) -> u64 {
        self.0.tokens
    }

    /// Whether `a` and `b` are handles to one symbol.
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Self::from_boxed(text.into(), text_hash(text))
    }
}

/// The empty name. Each call makes a new symbol; an environment that
/// needs one (a doorway's location) builds it once and shares it.
impl Default for Name {
    fn default() -> Self {
        Name::from("")
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        let hash = text_hash(&text);
        Self::from_boxed(text.into_boxed_str(), hash)
    }
}

/// Equal texts have equal hashes; unequal texts may share one, so a
/// matching hash is confirmed on the text.
impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        Name::ptr_eq(self, other) || (self.0.hash == other.0.hash && self.0.text == other.0.text)
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        if Name::ptr_eq(self, other) {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// A [`Hasher`] for maps keyed by [`Name`]: it passes the name's stored
/// hash through, so a lookup reads no text. Names are made by the
/// program, never taken from outside input, so they need no protection
/// against crafted collisions.
///
/// ```
/// use embodied_env::{Name, NameHasher};
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
///
/// let mut ids: HashMap<Name, u32, BuildHasherDefault<NameHasher>> = HashMap::default();
/// ids.insert(Name::from("table"), 0);
/// assert_eq!(ids.get(&Name::from("table")), Some(&0));
/// ```
#[derive(Debug, Default)]
pub struct NameHasher(u64);

impl Hasher for NameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("names hash as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;

    #[test]
    fn two_texts_under_one_hash_stay_two_names() {
        let a = Name::with_hash("apple_1", 7);
        let b = Name::with_hash("plate_2", 7);
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Less);
        let mut ids: HashMap<Name, u32, BuildHasherDefault<NameHasher>> = HashMap::default();
        ids.insert(a.clone(), 0);
        ids.insert(b.clone(), 1);
        assert_eq!(ids.len(), 2);
        assert_eq!((ids[&a], ids[&b]), (0, 1));
        assert_eq!(ids.get(&Name::with_hash("apple_1", 7)), Some(&0));
        assert_eq!(ids.get(&Name::with_hash("mug_3", 7)), None);
    }
}
