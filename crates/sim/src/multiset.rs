//! Quorum-counting helpers shared by every protocol crate.
//!
//! Byzantine processes may send several (conflicting) messages in one
//! round, so *all* quorum logic must count **distinct senders**, never raw
//! message multiplicity. These helpers centralise that discipline.
//!
//! [`distinct_values_by_sender`] runs once per envelope of every inbox it
//! reads, and replay floods make those inboxes long, so it does constant
//! work per envelope: a sender already counted is skipped with one bit
//! test, without probing the result map. The bitset lives on the stack
//! for the first 256 identifiers (every system the harness runs, up to
//! the n = 256 ladder), so a call allocates only for the map it returns.

use crate::envelope::Envelope;
use crate::id::ProcessId;
use std::collections::BTreeMap;
use std::hash::Hash;

/// Sender identifiers [`distinct_values_by_sender`] tracks without a heap
/// allocation.
const INLINE_SENDERS: usize = 256;

/// Extracts, per sender, the first value produced by `extract(sender,
/// message)` over that sender's messages (in inbox order).
///
/// "First message wins" is the standard way to neutralise Byzantine
/// double-sends: an honest process's behaviour depends only on one message
/// per sender per round. Senders that produced no extractable message are
/// absent from the map. The inbox may be in any order; `extract` is
/// called on a sender's messages only until one of them extracts, and it
/// sees the sender, so a signed message can be checked against it.
pub fn distinct_values_by_sender<M, V, F>(
    envelopes: &[Envelope<M>],
    mut extract: F,
) -> BTreeMap<ProcessId, V>
where
    F: FnMut(ProcessId, &M) -> Option<V>,
{
    let mut map: BTreeMap<ProcessId, V> = BTreeMap::new();
    let mut counted = Senders::default();
    for env in envelopes {
        let (word, bit) = counted.bit(env.from);
        if *word & bit != 0 {
            continue;
        }
        if let Some(v) = extract(env.from, &env.payload) {
            *word |= bit;
            map.insert(env.from, v);
        }
    }
    map
}

/// A set of senders as a bitset indexed by [`ProcessId`]: inline for the
/// first [`INLINE_SENDERS`] identifiers, spilling to the heap beyond.
#[derive(Default)]
struct Senders {
    inline: [u64; INLINE_SENDERS / 64],
    spill: Vec<u64>,
}

impl Senders {
    /// The word holding `id`'s bit, spilling far enough to hold it, and
    /// the bit.
    fn bit(&mut self, id: ProcessId) -> (&mut u64, u64) {
        let (word, bit) = (id.index() / 64, 1 << (id.index() % 64));
        let word = match word.checked_sub(self.inline.len()) {
            None => &mut self.inline[word],
            Some(spilled) => {
                if spilled >= self.spill.len() {
                    self.spill.resize(spilled + 1, 0);
                }
                &mut self.spill[spilled]
            }
        };
        (word, bit)
    }
}

/// A multiset tally over an ordered value domain.
///
/// Ties in "most frequent" queries break toward the **smallest** value,
/// the deterministic convention this reproduction uses everywhere the
/// paper says "a value that occurs the largest number of times"
/// (Algorithm 4 line 5, Algorithm 7 lines 10 and 13).
#[derive(Clone, Debug, Default)]
pub struct Tally<V: Ord> {
    counts: BTreeMap<V, usize>,
}

impl<V: Ord + Clone + Hash> Tally<V> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            counts: BTreeMap::new(),
        }
    }

    /// Adds one occurrence of `v`.
    pub fn add(&mut self, v: V) {
        *self.counts.entry(v).or_insert(0) += 1;
    }

    /// Number of occurrences of `v`.
    pub fn count(&self, v: &V) -> usize {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Total occurrences across all values.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// The smallest value among those occurring the maximum number of
    /// times, or `None` if the tally is empty.
    pub fn plurality(&self) -> Option<&V> {
        let max = self.counts.values().copied().max()?;
        self.counts.iter().find(|(_, &c)| c == max).map(|(v, _)| v)
    }

    /// The smallest value whose count is at least `threshold`, if any.
    pub fn first_reaching(&self, threshold: usize) -> Option<&V> {
        self.counts
            .iter()
            .find(|(_, &c)| c >= threshold)
            .map(|(v, _)| v)
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, usize)> {
        self.counts.iter().map(|(v, &c)| (v, c))
    }

    /// Whether the tally holds no values.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl<V: Ord + Clone + Hash> FromIterator<V> for Tally<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let mut t = Tally::new();
        for v in iter {
            t.add(v);
        }
        t
    }
}

impl<V: Ord + Clone + Hash> Extend<V> for Tally<V> {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// Convenience: the smallest most-frequent value of an iterator, or `None`
/// when empty.
pub fn plurality_smallest<V, I>(values: I) -> Option<V>
where
    V: Ord + Clone + Hash,
    I: IntoIterator<Item = V>,
{
    let tally: Tally<V> = values.into_iter().collect();
    tally.plurality().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Value;
    use proptest::prelude::*;

    fn env(from: u32, payload: u32) -> Envelope<u32> {
        Envelope::new(ProcessId(from), ProcessId(0), payload)
    }

    #[test]
    fn distinct_values_takes_first_message_per_sender() {
        // A Byzantine sender (id 1) equivocates within one round; the first
        // message is the one that counts.
        let envs = vec![env(1, 7), env(1, 8), env(2, 9)];
        let map = distinct_values_by_sender(&envs, |_, m| Some(*m));
        assert_eq!(map[&ProcessId(1)], 7);
        assert_eq!(map[&ProcessId(2)], 9);
    }

    #[test]
    fn distinct_values_skips_unextractable_messages() {
        let envs = vec![env(1, 0), env(2, 5)];
        let map = distinct_values_by_sender(&envs, |_, m| (*m != 0).then_some(*m));
        assert!(!map.contains_key(&ProcessId(1)));
        assert_eq!(map.len(), 1);
    }

    /// The map-probing implementation the bitset replaced: the reference
    /// for "first extractable message per sender wins".
    fn by_sender_reference<M, V>(
        envelopes: &[Envelope<M>],
        mut extract: impl FnMut(&M) -> Option<V>,
    ) -> BTreeMap<ProcessId, V> {
        let mut map = BTreeMap::new();
        for env in envelopes {
            if map.contains_key(&env.from) {
                continue;
            }
            if let Some(v) = extract(&env.payload) {
                map.insert(env.from, v);
            }
        }
        map
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On inboxes in sender order and shuffled, with repeated senders,
        /// senders whose first messages do not extract (payload 0), and
        /// identifiers past the inline bitset, the bitset dedupe returns
        /// the reference map and calls `extract` on the same messages.
        #[test]
        fn distinct_values_matches_the_map_reference(
            sends in proptest::collection::vec((0u32..12, 0u32..4), 0..48),
            high in prop_oneof![Just(0u32), Just(250u32), Just(1000u32)],
            shuffle in any::<u64>(),
        ) {
            let mut in_order: Vec<Envelope<u32>> = sends
                .iter()
                .map(|&(from, payload)| env(from + high, payload))
                .collect();
            in_order.sort_by_key(|e| e.from);
            let mut shuffled = in_order.clone();
            let mut state = shuffle;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            for envs in [in_order, shuffled] {
                let (mut seen, mut seen_reference) = (Vec::new(), Vec::new());
                let map = distinct_values_by_sender(&envs, |_, m| {
                    seen.push(*m);
                    (*m != 0).then_some(*m)
                });
                let reference = by_sender_reference(&envs, |m| {
                    seen_reference.push(*m);
                    (*m != 0).then_some(*m)
                });
                prop_assert_eq!(map, reference);
                prop_assert_eq!(seen, seen_reference);
            }
        }
    }

    #[test]
    fn distinct_values_tracks_senders_past_the_inline_bitset() {
        let envs = vec![
            env(255, 1),
            env(256, 2),
            env(9000, 3),
            env(9000, 4),
            env(256, 5),
        ];
        let map = distinct_values_by_sender(&envs, |_, m| Some(*m));
        let got: Vec<(u32, u32)> = map.into_iter().map(|(p, v)| (p.0, v)).collect();
        assert_eq!(got, vec![(255, 1), (256, 2), (9000, 3)]);
    }

    #[test]
    fn plurality_breaks_ties_toward_smallest() {
        let t: Tally<Value> = [Value(5), Value(2), Value(5), Value(2), Value(9)]
            .into_iter()
            .collect();
        assert_eq!(t.plurality(), Some(&Value(2)));
    }

    #[test]
    fn plurality_of_empty_is_none() {
        let t: Tally<Value> = Tally::new();
        assert_eq!(t.plurality(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn first_reaching_respects_threshold_and_order() {
        let t: Tally<u32> = [3, 3, 3, 1, 1, 8, 8, 8].into_iter().collect();
        assert_eq!(t.first_reaching(3), Some(&3));
        assert_eq!(t.first_reaching(4), None);
    }

    #[test]
    fn tally_counts_and_total() {
        let mut t = Tally::new();
        t.extend([Value(1), Value(1), Value(4)]);
        assert_eq!(t.count(&Value(1)), 2);
        assert_eq!(t.count(&Value(9)), 0);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn plurality_smallest_helper() {
        assert_eq!(plurality_smallest([9u32, 9, 1]), Some(9));
        assert_eq!(plurality_smallest(Vec::<u32>::new()), None);
    }
}
