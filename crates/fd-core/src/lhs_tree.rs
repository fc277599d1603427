//! Extended binary tree over LHS attribute sets.
//!
//! This is the cover data structure of Section IV-D (proposed originally for
//! AID-FD): one tree per RHS attribute stores the LHSs of the FD candidates
//! of a [`crate::PCover`], and FastFDs keeps its minimal covers in one. (The
//! negative cover stores each non-FD LHS once with an RHS mask instead, in
//! `non_fd_tree`.) Inner nodes split on whether an attribute is contained in
//! an LHS — sets containing the split attribute live in the `with` subtree,
//! the rest in the `without` subtree — and leaves hold one LHS each. Every inner
//! node caches the **intersection of all LHSs stored beneath it**, which
//! prunes generalization searches early: if that intersection is not a subset
//! of the queried set, no descendant can be either (every stored set is a
//! superset of the intersection).
//!
//! Nodes live in an index-based arena (`Vec<Node>` + free list) rather than
//! `Box`es: these trees sit on the inversion hot path, where pointer-chasing
//! through scattered allocations measurably hurts on the FD-dense datasets
//! (horse, plista, flight — covers of 10⁵–10⁶ entries).
//!
//! Terminology used throughout, matching the paper:
//! a stored set `S` is a *generalization* of query `Q` iff `S ⊆ Q`
//! (non-strict — `X ↛ A` invalidates `Y → A` for every `Y ⊆ X`).

use crate::attrset::{AttrId, AttrSet};

type NodeId = u32;
const NIL: NodeId = u32::MAX;

#[derive(Clone, Debug)]
enum Node {
    Leaf(AttrSet),
    Inner {
        /// Split attribute: sets containing it are in `with`, others in `without`.
        attr: AttrId,
        /// Intersection of every set stored in this subtree.
        intersection: AttrSet,
        /// Child holding sets without `attr` (`NIL` if empty).
        without: NodeId,
        /// Child holding sets with `attr` (`NIL` if empty).
        with: NodeId,
    },
    /// Arena slot on the free list, pointing at the next free slot.
    Free(NodeId),
}

/// A set of LHS attribute sets with fast subset/superset queries.
///
/// ```
/// use fd_core::{AttrSet, LhsTree};
///
/// let mut tree = LhsTree::new();
/// tree.insert(AttrSet::from_attrs([1u16, 2]));
/// tree.insert(AttrSet::from_attrs([3u16]));
///
/// // {1,2} generalizes {1,2,4}; nothing generalizes {2}.
/// assert!(tree.contains_subset_of(&AttrSet::from_attrs([1u16, 2, 4])));
/// assert!(!tree.contains_subset_of(&AttrSet::from_attrs([2u16])));
///
/// // Stripping generalizations of {1,2,3} removes both stored sets.
/// let removed = tree.remove_subsets_of(&AttrSet::from_attrs([1u16, 2, 3]));
/// assert_eq!(removed.len(), 2);
/// assert!(tree.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct LhsTree {
    nodes: Vec<Node>,
    free: NodeId,
    root: NodeId,
    len: usize,
}

impl Default for LhsTree {
    fn default() -> Self {
        Self::new()
    }
}

impl LhsTree {
    /// An empty tree.
    pub fn new() -> Self {
        LhsTree { nodes: Vec::new(), free: NIL, root: NIL, len: 0 }
    }

    /// Number of stored LHSs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free != NIL {
            let id = self.free;
            self.free = match self.nodes[id as usize] {
                Node::Free(next) => next,
                _ => unreachable!("free list points at a live node"),
            };
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Free(self.free);
        self.free = id;
    }

    fn intersection_of(&self, id: NodeId) -> AttrSet {
        match &self.nodes[id as usize] {
            Node::Leaf(s) => *s,
            Node::Inner { intersection, .. } => *intersection,
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    fn refresh_intersection(&mut self, id: NodeId) {
        let (without, with) = match &self.nodes[id as usize] {
            Node::Inner { without, with, .. } => (*without, *with),
            _ => return,
        };
        let inter = match (without != NIL, with != NIL) {
            (true, true) => self.intersection_of(without).intersect(&self.intersection_of(with)),
            (true, false) => self.intersection_of(without),
            (false, true) => self.intersection_of(with),
            (false, false) => AttrSet::empty(),
        };
        if let Node::Inner { intersection, .. } = &mut self.nodes[id as usize] {
            *intersection = inter;
        }
    }

    /// Inserts `lhs`; returns true if it was not already present.
    pub fn insert(&mut self, lhs: AttrSet) -> bool {
        if self.root == NIL {
            self.root = self.alloc(Node::Leaf(lhs));
            self.len = 1;
            return true;
        }
        // Descend iteratively, narrowing each inner node's cached
        // intersection on the way down: after the insert, a subtree on the
        // path stores its old sets plus `lhs`, so its intersection is the old
        // one ∩ `lhs`. If `lhs` turns out to be present already it lies
        // beneath every node on the path, and narrowing changes nothing.
        let mut parent = NIL;
        let mut cur = self.root;
        loop {
            match &mut self.nodes[cur as usize] {
                Node::Leaf(existing) => {
                    let existing = *existing;
                    if existing == lhs {
                        return false;
                    }
                    // Split on a distinguishing attribute (smallest id in the
                    // symmetric difference); the set containing it goes right.
                    let sym = existing.difference(&lhs).union(&lhs.difference(&existing));
                    let Some(attr) = sym.first() else {
                        // Unreachable (the equality check above returned),
                        // but an equal set is simply already present.
                        return false;
                    };
                    let new_leaf = self.alloc(Node::Leaf(lhs));
                    let (with, without) =
                        if existing.contains(attr) { (cur, new_leaf) } else { (new_leaf, cur) };
                    let inner = self.alloc(Node::Inner {
                        attr,
                        intersection: existing.intersect(&lhs),
                        without,
                        with,
                    });
                    // Hook the new inner node into the parent (or the root).
                    if parent == NIL {
                        self.root = inner;
                    } else if let Node::Inner { without, with, .. } =
                        &mut self.nodes[parent as usize]
                    {
                        if *without == cur {
                            *without = inner;
                        } else {
                            *with = inner;
                        }
                    }
                    break;
                }
                Node::Inner { attr, intersection, without, with } => {
                    *intersection = intersection.intersect(&lhs);
                    let goes_with = lhs.contains(*attr);
                    let side = if goes_with { *with } else { *without };
                    if side != NIL {
                        parent = cur;
                        cur = side;
                        continue;
                    }
                    let leaf = self.alloc(Node::Leaf(lhs));
                    if let Node::Inner { without, with, .. } = &mut self.nodes[cur as usize] {
                        if goes_with {
                            *with = leaf;
                        } else {
                            *without = leaf;
                        }
                    }
                    break;
                }
                Node::Free(_) => unreachable!("live traversal reached a free slot"),
            }
        }
        self.len += 1;
        true
    }

    /// True if some stored set is a subset of `query` (a *generalization*).
    pub fn contains_subset_of(&self, query: &AttrSet) -> bool {
        self.find_subset_from(self.root, query).is_some()
    }

    /// Returns one stored subset of `query`, if any.
    pub fn find_subset_of(&self, query: &AttrSet) -> Option<AttrSet> {
        self.find_subset_from(self.root, query)
    }

    fn find_subset_from(&self, id: NodeId, query: &AttrSet) -> Option<AttrSet> {
        if id == NIL {
            return None;
        }
        match &self.nodes[id as usize] {
            Node::Leaf(s) => s.is_subset_of(query).then_some(*s),
            Node::Inner { attr, intersection, without, with } => {
                // Intersection pruning: every stored set ⊇ intersection, so a
                // stored subset of `query` forces intersection ⊆ query.
                if !intersection.is_subset_of(query) {
                    return None;
                }
                if let Some(found) = self.find_subset_from(*without, query) {
                    return Some(found);
                }
                if query.contains(*attr) {
                    return self.find_subset_from(*with, query);
                }
                None
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// The attributes `a ∈ allowed` for which some stored set is a subset of
    /// `base ∪ {a}`: exactly `{a ∈ allowed : contains_subset_of(base.with(a))}`,
    /// answered in one walk instead of one probe per attribute.
    ///
    /// A stored set `S` lies below `base ∪ {a}` iff `S \ base ⊆ {a}`. Every
    /// set beneath an inner node contains its cached intersection `I`, so a
    /// subtree is skipped when `I \ base` has two or more attributes, or
    /// exactly one that is not allowed or already blocked.
    pub fn blocked_extensions(&self, base: &AttrSet, allowed: &AttrSet) -> AttrSet {
        let mut open = *allowed;
        self.block_from(self.root, base, &mut open);
        allowed.difference(&open)
    }

    /// Walks the subtree at `id`, removing from `open` every attribute `a`
    /// whose extension `base ∪ {a}` has a stored subset.
    fn block_from(&self, id: NodeId, base: &AttrSet, open: &mut AttrSet) {
        if id == NIL {
            return;
        }
        let (outside, children) = match &self.nodes[id as usize] {
            Node::Leaf(s) => (s.difference(base), None),
            Node::Inner { attr, intersection, without, with } => {
                (intersection.difference(base), Some((*attr, *without, *with)))
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        };
        // Two or more attributes outside `base`: no single-attribute
        // extension reaches any set down here.
        if outside.len() > 1 {
            return;
        }
        let only = outside.first();
        if only.is_some_and(|b| !open.contains(b)) {
            return;
        }
        match (children, only) {
            (None, Some(b)) => open.remove(b),
            // A stored subset of `base` itself blocks every extension.
            (None, None) => *open = AttrSet::empty(),
            (Some((attr, without, with)), _) => {
                self.block_from(without, base, open);
                // Sets beneath `with` contain `attr`; outside `base` it is
                // the only attribute they could block.
                if base.contains(attr) || open.contains(attr) {
                    self.block_from(with, base, open);
                }
            }
        }
    }

    /// Removes every stored subset of `query` and returns them. Used by the
    /// inversion module to strip invalidated generalizations from the Pcover.
    pub fn remove_subsets_of(&mut self, query: &AttrSet) -> Vec<AttrSet> {
        let mut removed = Vec::new();
        self.root = self.remove_subsets_from(self.root, query, &mut removed);
        self.len -= removed.len();
        removed
    }

    fn remove_subsets_from(
        &mut self,
        id: NodeId,
        query: &AttrSet,
        removed: &mut Vec<AttrSet>,
    ) -> NodeId {
        if id == NIL {
            return NIL;
        }
        match &self.nodes[id as usize] {
            Node::Leaf(s) => {
                if s.is_subset_of(query) {
                    removed.push(*s);
                    self.release(id);
                    NIL
                } else {
                    id
                }
            }
            Node::Inner { attr, intersection, without, with } => {
                if !intersection.is_subset_of(query) {
                    return id;
                }
                let (attr, without, with) = (*attr, *without, *with);
                let new_without = self.remove_subsets_from(without, query, removed);
                let new_with = if query.contains(attr) {
                    self.remove_subsets_from(with, query, removed)
                } else {
                    with
                };
                self.update_children(id, new_without, new_with)
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Removes the exact set `lhs`; returns true if it was present.
    pub fn remove(&mut self, lhs: &AttrSet) -> bool {
        let mut removed = false;
        self.root = self.remove_exact_from(self.root, lhs, &mut removed);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_exact_from(&mut self, id: NodeId, lhs: &AttrSet, removed: &mut bool) -> NodeId {
        if id == NIL {
            return NIL;
        }
        match &self.nodes[id as usize] {
            Node::Leaf(s) => {
                if s == lhs {
                    *removed = true;
                    self.release(id);
                    NIL
                } else {
                    id
                }
            }
            Node::Inner { attr, without, with, .. } => {
                let (attr, without, with) = (*attr, *without, *with);
                let (new_without, new_with) = if lhs.contains(attr) {
                    (without, self.remove_exact_from(with, lhs, removed))
                } else {
                    (self.remove_exact_from(without, lhs, removed), with)
                };
                if *removed {
                    self.update_children(id, new_without, new_with)
                } else {
                    id
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Rewrites an inner node's children after removals: drops it if empty,
    /// replaces it by its single child, or refreshes its intersection.
    fn update_children(&mut self, id: NodeId, new_without: NodeId, new_with: NodeId) -> NodeId {
        match (new_without != NIL, new_with != NIL) {
            (false, false) => {
                self.release(id);
                NIL
            }
            (true, false) => {
                self.release(id);
                new_without
            }
            (false, true) => {
                self.release(id);
                new_with
            }
            (true, true) => {
                if let Node::Inner { without, with, .. } = &mut self.nodes[id as usize] {
                    *without = new_without;
                    *with = new_with;
                }
                self.refresh_intersection(id);
                id
            }
        }
    }

    /// Invokes `f` on every stored set (unspecified order).
    pub fn for_each<F: FnMut(AttrSet)>(&self, mut f: F) {
        self.for_each_from(self.root, &mut f);
    }

    fn for_each_from<F: FnMut(AttrSet)>(&self, id: NodeId, f: &mut F) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf(s) => f(*s),
            Node::Inner { without, with, .. } => {
                self.for_each_from(*without, f);
                self.for_each_from(*with, f);
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// All stored sets as a vector (unspecified order).
    pub fn to_vec(&self) -> Vec<AttrSet> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each(|s| v.push(s));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(bits: &[u16]) -> AttrSet {
        AttrSet::from_attrs(bits.iter().copied())
    }

    #[test]
    fn insert_dedupes() {
        let mut tree = LhsTree::new();
        assert!(tree.insert(s(&[1, 2])));
        assert!(!tree.insert(s(&[1, 2])));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn subset_queries_are_non_strict() {
        let mut tree = LhsTree::new();
        tree.insert(s(&[1, 2]));
        assert!(tree.contains_subset_of(&s(&[1, 2])));
        assert!(tree.contains_subset_of(&s(&[1, 2, 3])));
        assert!(!tree.contains_subset_of(&s(&[1, 3])));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let mut tree = LhsTree::new();
        tree.insert(AttrSet::empty());
        assert!(tree.contains_subset_of(&s(&[9])));
        assert!(tree.contains_subset_of(&AttrSet::empty()));
    }

    #[test]
    fn remove_subsets_strips_generalizations() {
        let mut tree = LhsTree::new();
        for lhs in [s(&[1]), s(&[1, 2]), s(&[3]), s(&[2, 4])] {
            tree.insert(lhs);
        }
        let mut removed = tree.remove_subsets_of(&s(&[1, 2, 3]));
        removed.sort();
        let mut expected = vec![s(&[1]), s(&[3]), s(&[1, 2])];
        expected.sort();
        assert_eq!(removed, expected);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.to_vec(), vec![s(&[2, 4])]);
    }

    #[test]
    fn remove_exact_collapses_tree() {
        let mut tree = LhsTree::new();
        tree.insert(s(&[1]));
        tree.insert(s(&[2]));
        tree.insert(s(&[1, 3]));
        assert!(tree.remove(&s(&[2])));
        assert!(!tree.remove(&s(&[2])));
        assert_eq!(tree.len(), 2);
        assert!(tree.contains_subset_of(&s(&[1])));
        assert!(tree.contains_subset_of(&s(&[1, 3])));
        assert!(tree.remove(&s(&[1])));
        assert!(tree.remove(&s(&[1, 3])));
        assert!(tree.is_empty());
        // A drained tree accepts new inserts.
        assert!(tree.insert(s(&[5])));
        assert_eq!(tree.len(), 1);
    }

    /// Returns the intersection of the leaves beneath `id`, asserting that
    /// every inner node on the way caches exactly that.
    fn checked_intersection(tree: &LhsTree, id: NodeId) -> AttrSet {
        match &tree.nodes[id as usize] {
            Node::Leaf(s) => *s,
            Node::Inner { intersection, without, with, .. } => {
                let actual = [*without, *with]
                    .into_iter()
                    .filter(|&child| child != NIL)
                    .map(|child| checked_intersection(tree, child))
                    .reduce(|a, b| a.intersect(&b))
                    .expect("an inner node has a child");
                assert_eq!(*intersection, actual, "stale intersection at node {id}");
                actual
            }
            Node::Free(_) => panic!("live traversal reached a free slot"),
        }
    }

    proptest! {
        /// The top-down intersection update of `insert` and the bottom-up
        /// refresh of the removals keep every cached intersection exact.
        /// Attribute ids come in three bands (0..8, 62..70, 124..132) so
        /// sets cross the 64- and 128-bit word boundaries.
        #[test]
        fn cached_intersections_match_the_leaves_beneath(
            ops in prop::collection::vec((0..4u8, prop::collection::vec(0..24u16, 0..6)), 1..80),
        ) {
            let mut tree = LhsTree::new();
            for (kind, ids) in &ops {
                let set = AttrSet::from_attrs(ids.iter().map(|&i| (i / 8) * 62 + i % 8));
                match kind {
                    0 | 1 => {
                        tree.insert(set);
                    }
                    2 => {
                        tree.remove(&set);
                    }
                    _ => {
                        tree.remove_subsets_of(&set);
                    }
                }
                if tree.root != NIL {
                    checked_intersection(&tree, tree.root);
                }
                prop_assert_eq!(tree.to_vec().len(), tree.len());
            }
        }
    }
}
