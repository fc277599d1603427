//! An insert-only set of agree sets for the sampling loops' dedup step.
//!
//! Every sampling loop (EulerFD's sampler and its compare kernel, HyFD,
//! AID-FD) asks one question per compared pair: was this agree set seen
//! before? Nearly every answer is yes — a tall lineitem run finds a new set
//! in under 0.1% of its pairs — so the lookup sits next to the pair compare
//! on the hot path. [`AgreeSetTable`] answers it with open addressing:
//! linear probing over a power-of-two slot array of the sets themselves,
//! hashed by folding the four words into one `u64` and taking the high bits
//! of one multiply.
//!
//! The empty set marks a vacant slot and is tracked by a flag of its own.
//! The table is never iterated, so no result can depend on its slot order;
//! an empty table allocates nothing, which keeps a chunk-local table per
//! compare step free until it holds a set.

use crate::attrset::AttrSet;

/// Fibonacci-hashing multiplier (2^64 / φ, odd).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// log2 of the slot count of the first allocation.
const MIN_BITS: u32 = 3;

/// An insert-only set of [`AttrSet`]s (see the module docs).
///
/// The slot array doubles before it would pass half full. A seen-set is
/// probed once per compared pair, and at that load nearly every probe ends
/// at its first slot; the price is 64–128 bytes per set, against ~38–76
/// for std's `HashSet` at its 7/8 load. The sampling loops' seen-sets hold
/// a few thousand sets (2 014 on plista 1 001, the widest benchmark input).
#[derive(Clone, Debug, Default)]
pub struct AgreeSetTable {
    /// Power-of-two slot array, or empty before the first non-empty set;
    /// `AttrSet::empty()` marks a vacant slot.
    slots: Vec<AttrSet>,
    /// Number of occupied slots.
    occupied: usize,
    /// Whether the empty set is a member (it cannot live in a slot).
    has_empty: bool,
}

impl AgreeSetTable {
    /// An empty table; allocates nothing until the first non-empty insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sets in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied + self.has_empty as usize
    }

    /// True if the table holds no set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `set` is in the table.
    #[inline]
    pub fn contains(&self, set: &AttrSet) -> bool {
        if set.is_empty() {
            return self.has_empty;
        }
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(set);
        loop {
            let slot = &self.slots[i];
            if slot == set {
                return true;
            }
            if slot.is_empty() {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `set`; returns true if it was not already present. Only a new
    /// set can grow the table, as in std's `HashSet`.
    #[inline]
    pub fn insert(&mut self, set: AttrSet) -> bool {
        if set.is_empty() {
            return !std::mem::replace(&mut self.has_empty, true);
        }
        if self.contains(&set) {
            return false;
        }
        if (self.occupied + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.vacant_slot(&set);
        self.slots[i] = set;
        self.occupied += 1;
        true
    }

    /// The first slot of `set`'s probe sequence: the four words folded into
    /// one, times [`MULTIPLIER`], top `log2(slots)` bits.
    #[inline]
    fn home(&self, set: &AttrSet) -> usize {
        let [w0, w1, w2, w3] = set.to_words();
        let folded = w0 ^ w1.rotate_left(17) ^ w2.rotate_left(31) ^ w3.rotate_left(47);
        let bits = self.slots.len().trailing_zeros();
        (folded.wrapping_mul(MULTIPLIER) >> (64 - bits)) as usize
    }

    /// The first vacant slot of `set`'s probe sequence, for a set known to
    /// be absent.
    fn vacant_slot(&self, set: &AttrSet) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(set);
        while !self.slots[i].is_empty() {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the slot array (or makes the first one) and re-places every
    /// occupied slot; the sets are distinct, so no comparison is needed.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(1 << MIN_BITS);
        let old = std::mem::replace(&mut self.slots, vec![AttrSet::empty(); len]);
        for set in old.into_iter().filter(|s| !s.is_empty()) {
            let i = self.vacant_slot(&set);
            self.slots[i] = set;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_allocates_nothing_and_finds_nothing() {
        let table = AgreeSetTable::new();
        assert_eq!(table.slots.capacity(), 0);
        assert!(table.is_empty());
        assert!(!table.contains(&AttrSet::empty()));
        assert!(!table.contains(&AttrSet::single(3)));
    }

    #[test]
    fn empty_set_is_a_member_like_any_other() {
        let mut table = AgreeSetTable::new();
        assert!(table.insert(AttrSet::empty()));
        assert!(!table.insert(AttrSet::empty()));
        assert!(table.contains(&AttrSet::empty()));
        assert_eq!(table.len(), 1);
        assert_eq!(table.slots.capacity(), 0, "the empty set needs no slot");
    }

    #[test]
    fn growth_keeps_every_set_within_the_load_bound() {
        // Enough sets for eleven doublings.
        let sets: Vec<AttrSet> =
            (1..=10_000u64).map(|i| AttrSet::from_words([i, 0, i % 7, 0])).collect();
        let mut table = AgreeSetTable::new();
        for set in &sets {
            assert!(table.insert(*set));
            assert!(!table.insert(*set), "a repeat insert is not new");
            assert!(table.occupied * 2 <= table.slots.len());
        }
        assert_eq!(table.len(), sets.len());
        assert_eq!(table.slots.len(), 32_768);
        assert!(sets.iter().all(|s| table.contains(s)));
        assert!(!table.contains(&AttrSet::from_words([0, 1, 0, 0])));
    }
}
