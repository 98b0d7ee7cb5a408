//! A small byte-pair-encoding tokenizer, trained deterministically at
//! construction on an embedded embodied-domain corpus.
//!
//! The suite counts tokens with the fast heuristic `embodied_profiler::count_tokens`;
//! [`BpeTokenizer`] is the reference it is calibrated against (see
//! `tokenizer_props.rs`, which holds the two within a band on domain text).

use std::cell::RefCell;
use std::collections::HashMap;

/// Embedded training corpus: representative of what the suite's prompts
/// contain (observations, plans, messages, action menus).
const CORPUS: &str = "\
you are the planning module of an embodied agent system operating in a \
partially observable environment you must pursue the long horizon task \
goal efficiently reason step by step about the current observation your \
memory of the world and any messages from teammates before committing to \
a decision transport all target objects to the goal zone pick up the red \
apple from the kitchen counter and place it on the dining table go to the \
living room open the fridge gather logs in the forest craft a wooden \
pickaxe then a stone pickaxe then an iron pickaxe move the box to zone \
three lift the heavy box together with agent one cook the soup chop the \
vegetables serve the dish at the counter the robot arm moves the part to \
its assembly pose avoid repeating actions that recently failed answer \
with exactly one choice from the provided action list followed by a brief \
justification of how it advances the task agent zero reports carrying \
nothing and exploring room two the station is busy waiting for a partner \
observed entity locations are stored in memory and retrieved for planning \
communication generates messages sharing discovered object locations with \
teammates reflection verifies whether the action achieved its intent";

/// A trained BPE vocabulary and its greedy encoder.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// Merge ranks: pair of token strings → priority (lower merges first).
    merges: HashMap<(String, String), usize>,
    /// Per-word encoded-length memo. Greedy encoding is a pure function of
    /// the trained merges, so a word's token count never changes for a
    /// given tokenizer — prompts repeat the same vocabulary step after
    /// step, and the memo turns each repeat into a hash lookup.
    word_counts: RefCell<HashMap<String, u64>>,
}

impl BpeTokenizer {
    /// Trains a tokenizer with `num_merges` merge rules on the embedded
    /// corpus. Training is deterministic (ties broken lexicographically).
    pub fn new(num_merges: usize) -> Self {
        // Words as sequences of single-char tokens with an end marker.
        let mut words: Vec<(Vec<String>, usize)> = {
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for w in CORPUS.split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
            let mut words: Vec<(Vec<String>, usize)> = counts
                .into_iter()
                .map(|(w, c)| {
                    let mut toks: Vec<String> = w.chars().map(|ch| ch.to_string()).collect();
                    if let Some(last) = toks.last_mut() {
                        last.push('·'); // word-final marker
                    }
                    (toks, c)
                })
                .collect();
            words.sort(); // determinism independent of HashMap order
            words
        };

        let mut merges = HashMap::new();
        for rank in 0..num_merges {
            // Count adjacent pairs.
            let mut pair_counts: HashMap<(String, String), usize> = HashMap::new();
            for (toks, count) in &words {
                for pair in toks.windows(2) {
                    *pair_counts
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_insert(0) += count;
                }
            }
            let Some(best) = pair_counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .filter(|(_, c)| *c >= 2)
                .map(|(pair, _)| pair)
            else {
                break;
            };
            // Apply the merge everywhere.
            let merged = format!("{}{}", best.0, best.1);
            for (toks, _) in &mut words {
                let mut i = 0;
                while i + 1 < toks.len() {
                    if toks[i] == best.0 && toks[i + 1] == best.1 {
                        toks[i] = merged.clone();
                        toks.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            merges.insert(best, rank);
        }
        BpeTokenizer {
            merges,
            word_counts: RefCell::new(HashMap::new()),
        }
    }

    /// Number of learned merge rules.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encodes one word into BPE tokens.
    pub fn encode_word(&self, word: &str) -> Vec<String> {
        let mut toks: Vec<String> = word.chars().map(|c| c.to_string()).collect();
        if let Some(last) = toks.last_mut() {
            last.push('·');
        }
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(usize, usize)> = None; // (rank, index)
            for i in 0..toks.len().saturating_sub(1) {
                if let Some(&rank) = self.merges.get(&(toks[i].clone(), toks[i + 1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let merged = format!("{}{}", toks[i], toks[i + 1]);
            toks[i] = merged;
            toks.remove(i + 1);
        }
        toks
    }

    /// Token count of a text (whitespace-split words, BPE within words).
    /// Word counts are memoized, so repeated vocabulary costs one hash
    /// lookup instead of a full greedy merge loop; the memoized count is
    /// exactly `encode_word(w).len()` (see the cache-consistency test).
    pub fn count(&self, text: &str) -> u64 {
        let mut memo = self.word_counts.borrow_mut();
        text.split_whitespace()
            .map(|w| match memo.get(w) {
                Some(&n) => n,
                None => {
                    let n = self.encode_word(w).len() as u64;
                    memo.insert(w.to_owned(), n);
                    n
                }
            })
            .sum()
    }
}
