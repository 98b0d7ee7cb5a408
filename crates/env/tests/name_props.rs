//! Property tests for entity names over edge-case text: a name behaves
//! exactly like its text. Two names made separately from equal text are
//! equal, hash alike (the stored hash and through `Hash`), and order,
//! print and debug-print as the `&str` does; names of unequal text compare
//! as their texts. A map keyed by names under [`NameHasher`] keeps one
//! entry per text.

#[path = "../../profiler/tests/support/edge_text.rs"]
mod edge_text;

use edge_text::edge_text;
use embodied_env::{Name, NameHasher};
use proptest::collection;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault};

/// `Hash` of `name` under `H`.
fn hash_with<H: std::hash::Hasher + Default>(name: &Name) -> u64 {
    BuildHasherDefault::<H>::default().hash_one(name)
}

/// Edge-case text, an environment-style name from a small pool (so texts
/// repeat), or the empty name.
fn text() -> BoxedStrategy<String> {
    prop_oneof![
        edge_text(),
        (0usize..6).prop_map(|i| format!("object_{i}")),
        Just(String::new()),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn names_of_equal_text_are_one_name(text in text()) {
        let a = Name::from(text.as_str());
        let b = Name::from(text.clone());
        prop_assert!(!Name::ptr_eq(&a, &b));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.cmp(&b), Ordering::Equal);
        prop_assert_eq!(hash_with::<NameHasher>(&a), hash_with::<NameHasher>(&b));
        prop_assert_eq!(hash_with::<DefaultHasher>(&a), hash_with::<DefaultHasher>(&b));
        prop_assert_eq!(a.as_str(), text.as_str());
        prop_assert_eq!(format!("{a}"), format!("{text}"));
        prop_assert_eq!(format!("{a:?}"), format!("{text:?}"));
        prop_assert_eq!(format!("[{a:>12}|{a:.2}]"), format!("[{text:>12}|{text:.2}]"));
    }

    #[test]
    fn names_compare_as_their_texts(x in text(), y in text()) {
        let (a, b) = (Name::from(x.as_str()), Name::from(y.as_str()));
        prop_assert_eq!(a == b, x == y);
        prop_assert_eq!(a.cmp(&b), x.cmp(&y));
        prop_assert_eq!(a.partial_cmp(&b), x.partial_cmp(&y));
    }

    #[test]
    fn a_name_map_keeps_one_entry_per_text(texts in collection::vec(text(), 0..40)) {
        let mut ids: HashMap<Name, usize, BuildHasherDefault<NameHasher>> = HashMap::default();
        let mut reference = BTreeMap::new();
        for (i, t) in texts.iter().enumerate() {
            ids.entry(Name::from(t.as_str())).or_insert(i);
            reference.entry(t.as_str()).or_insert(i);
        }
        prop_assert_eq!(ids.len(), reference.len());
        for (t, i) in &reference {
            prop_assert_eq!(ids.get(&Name::from(*t)), Some(i));
        }
        let mut names: Vec<Name> = texts.iter().map(|t| Name::from(t.as_str())).collect();
        names.sort();
        let sorted: Vec<&str> = names.iter().map(Name::as_str).collect();
        let mut expect: Vec<&str> = texts.iter().map(String::as_str).collect();
        expect.sort();
        prop_assert_eq!(sorted, expect);
    }
}
