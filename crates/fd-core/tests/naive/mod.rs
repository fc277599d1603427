//! Linear-scan cover implementation used as a correctness oracle.
//!
//! [`NaiveLhsStore`] is a set of LHS attribute sets for one fixed RHS,
//! queried for subset ("generalization") and superset ("specialization")
//! relationships with obviously-correct `O(n)` scans. Property tests pit
//! [`fd_core::LhsTree`] against it on random operation sequences, and one
//! store per RHS is the textbook model of [`fd_core::NCover`].

use fd_core::AttrSet;

/// A set of LHSs with linear-scan queries.
#[derive(Clone, Debug, Default)]
pub struct NaiveLhsStore {
    sets: Vec<AttrSet>,
}

impl NaiveLhsStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored LHSs.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Inserts `lhs` if not already present; returns true on insertion.
    pub fn insert(&mut self, lhs: AttrSet) -> bool {
        if self.sets.contains(&lhs) {
            false
        } else {
            self.sets.push(lhs);
            true
        }
    }

    /// Removes `lhs`; returns true if it was present.
    pub fn remove(&mut self, lhs: &AttrSet) -> bool {
        if let Some(pos) = self.sets.iter().position(|s| s == lhs) {
            self.sets.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// True if some stored set is a superset of `lhs` (including `lhs`
    /// itself) — i.e. the store contains a *specialization* of `lhs`.
    pub fn contains_superset_of(&self, lhs: &AttrSet) -> bool {
        self.sets.iter().any(|s| lhs.is_subset_of(s))
    }

    /// True if some stored set is a subset of `lhs` (including `lhs` itself)
    /// — i.e. the store contains a *generalization* of `lhs`.
    pub fn contains_subset_of(&self, lhs: &AttrSet) -> bool {
        self.sets.iter().any(|s| s.is_subset_of(lhs))
    }

    /// Returns one stored subset of `lhs`, if any.
    pub fn find_subset_of(&self, lhs: &AttrSet) -> Option<AttrSet> {
        self.sets.iter().find(|s| s.is_subset_of(lhs)).copied()
    }

    /// All stored subsets of `lhs`, in insertion order.
    pub fn collect_subsets_of(&self, lhs: &AttrSet) -> Vec<AttrSet> {
        self.sets.iter().filter(|s| s.is_subset_of(lhs)).copied().collect()
    }

    /// All stored sets, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &AttrSet> {
        self.sets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bits: &[u16]) -> AttrSet {
        AttrSet::from_attrs(bits.iter().copied())
    }

    #[test]
    fn insert_is_idempotent() {
        let mut store = NaiveLhsStore::new();
        assert!(store.insert(s(&[1, 2])));
        assert!(!store.insert(s(&[1, 2])));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn subset_superset_queries() {
        let mut store = NaiveLhsStore::new();
        store.insert(s(&[1, 2, 3]));
        store.insert(s(&[5]));
        // {1,2} has a stored superset {1,2,3} but no stored subset.
        assert!(store.contains_superset_of(&s(&[1, 2])));
        assert!(!store.contains_subset_of(&s(&[1, 2])));
        // {1,2,3,4} has a stored subset.
        assert!(store.contains_subset_of(&s(&[1, 2, 3, 4])));
        assert_eq!(store.find_subset_of(&s(&[1, 2, 3, 4])), Some(s(&[1, 2, 3])));
        // Exact match counts both ways.
        assert!(store.contains_subset_of(&s(&[5])));
        assert!(store.contains_superset_of(&s(&[5])));
        // Empty query set: every stored set is a superset of ∅.
        assert!(store.contains_superset_of(&AttrSet::empty()));
        assert!(!store.contains_subset_of(&AttrSet::empty()));
    }

    #[test]
    fn collect_and_remove() {
        let mut store = NaiveLhsStore::new();
        store.insert(s(&[1]));
        store.insert(s(&[1, 2]));
        store.insert(s(&[3]));
        let subs = store.collect_subsets_of(&s(&[1, 2, 4]));
        assert_eq!(subs.len(), 2);
        assert!(store.remove(&s(&[1])));
        assert!(!store.remove(&s(&[1])));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn empty_set_membership() {
        let mut store = NaiveLhsStore::new();
        store.insert(AttrSet::empty());
        // ∅ is a subset of everything.
        assert!(store.contains_subset_of(&s(&[7])));
        assert!(store.contains_subset_of(&AttrSet::empty()));
    }
}
