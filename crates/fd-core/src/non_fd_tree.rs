//! The negative cover's store: every non-FD LHS once, with a mask of the
//! RHSs it is a maximal non-FD for.
//!
//! Algorithm 2 turns one sampled agree set `S` into the non-FDs `S ↛ a` for
//! every `a ∉ S`. Kept in one [`crate::LhsTree`] per RHS, that is one
//! superset probe, one generalization sweep and one insert per attribute.
//! This tree stores `S` once and records the RHSs in a bitmap, the idea of
//! the Fdep/HyFD FD-tree (Papenbrock & Naumann, SIGMOD 2016), so one agree
//! set folds in three walks whatever the schema's width:
//! [`NonFdTree::uncovered`], [`NonFdTree::clear_below`] and
//! [`NonFdTree::insert`].
//!
//! The shape is the LHS tree's: inner nodes split on whether an LHS
//! contains an attribute (`with` / `without` subtrees), leaves hold one LHS
//! each, and nodes live in an index arena with a free list. A leaf also
//! holds its RHS mask, never empty. An inner node caches two summaries of
//! the leaves beneath it: the intersection of their LHSs, which prunes
//! generalization walks, and the union of their masks, which skips
//! subtrees that hold none of the RHSs a walk asks about.

use crate::attrset::{AttrId, AttrSet};

type NodeId = u32;
const NIL: NodeId = u32::MAX;

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        lhs: AttrSet,
        /// The RHSs `a` for which `lhs ↛ a` is stored; never empty.
        rhss: AttrSet,
    },
    Inner {
        /// Split attribute: LHSs containing it are in `with`, others in
        /// `without`.
        attr: AttrId,
        /// Intersection of every LHS stored in this subtree.
        lhs_meet: AttrSet,
        /// Union of every RHS mask stored in this subtree.
        rhs_join: AttrSet,
        /// Child holding LHSs without `attr` (`NIL` if empty).
        without: NodeId,
        /// Child holding LHSs with `attr` (`NIL` if empty).
        with: NodeId,
    },
    /// Arena slot on the free list, pointing at the next free slot.
    Free(NodeId),
}

/// A set of non-FDs stored as LHSs with RHS masks: `lhs ↛ a` is present
/// iff a leaf holds `lhs` with `a` in its mask.
#[derive(Clone, Debug)]
pub(crate) struct NonFdTree {
    nodes: Vec<Node>,
    free: NodeId,
    root: NodeId,
}

impl NonFdTree {
    /// An empty tree.
    pub(crate) fn new() -> Self {
        NonFdTree { nodes: Vec::new(), free: NIL, root: NIL }
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

    /// The LHS intersection and RHS union of the subtree at `id`.
    fn summary(&self, id: NodeId) -> (AttrSet, AttrSet) {
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => (*lhs, *rhss),
            Node::Inner { lhs_meet, rhs_join, .. } => (*lhs_meet, *rhs_join),
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// The RHSs `a ∈ wanted` for which no stored `T ⊇ lhs` holds `a` in its
    /// mask: the non-FDs `lhs ↛ a` that no stored specialization already
    /// implies (Lemma 1). One walk answers for every RHS, and it stops once
    /// every RHS of `wanted` is covered.
    pub(crate) fn uncovered(&self, lhs: &AttrSet, wanted: &AttrSet) -> AttrSet {
        let mut open = *wanted;
        self.cover_from(self.root, lhs, &mut open);
        open
    }

    /// Walks the subtree at `id`, removing from `open` the mask of every
    /// stored superset of `query`.
    fn cover_from(&self, id: NodeId, query: &AttrSet, open: &mut AttrSet) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => {
                if query.is_subset_of(lhs) {
                    *open = open.difference(rhss);
                }
            }
            Node::Inner { attr, lhs_meet, rhs_join, without, with } => {
                // Nothing down here can cover an RHS still open.
                if open.is_disjoint(rhs_join) {
                    return;
                }
                // Every LHS down here contains the intersection, so all of
                // them are supersets of a query below it.
                if query.is_subset_of(lhs_meet) {
                    *open = open.difference(rhs_join);
                    return;
                }
                let (attr, without, with) = (*attr, *without, *with);
                self.cover_from(with, query, open);
                // LHSs lacking `attr` can only cover queries lacking it.
                if !query.contains(attr) {
                    self.cover_from(without, query, open);
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Clears `rhss` from the mask of every stored `T ⊆ lhs` and drops the
    /// leaves whose mask empties: the generalizations `T ↛ a`, `a ∈ rhss`,
    /// that a new non-FD `lhs ↛ a` makes redundant. Returns the number of
    /// non-FDs cleared.
    pub(crate) fn clear_below(&mut self, lhs: &AttrSet, rhss: &AttrSet) -> usize {
        let mut cleared = 0;
        self.root = self.clear_from(self.root, lhs, rhss, &mut cleared);
        cleared
    }

    fn clear_from(
        &mut self,
        id: NodeId,
        query: &AttrSet,
        clear: &AttrSet,
        cleared: &mut usize,
    ) -> NodeId {
        if id == NIL {
            return NIL;
        }
        match &mut self.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => {
                if lhs.is_subset_of(query) && !rhss.is_disjoint(clear) {
                    *cleared += rhss.intersect(clear).len();
                    *rhss = rhss.difference(clear);
                    if rhss.is_empty() {
                        self.release(id);
                        return NIL;
                    }
                }
                id
            }
            Node::Inner { attr, lhs_meet, rhs_join, without, with } => {
                if !lhs_meet.is_subset_of(query) || rhs_join.is_disjoint(clear) {
                    return id;
                }
                let (attr, without, with) = (*attr, *without, *with);
                let before = *cleared;
                let new_without = self.clear_from(without, query, clear, cleared);
                let new_with = if query.contains(attr) {
                    self.clear_from(with, query, clear, cleared)
                } else {
                    with
                };
                if *cleared == before {
                    return id;
                }
                self.update_children(id, new_without, new_with)
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Rewrites an inner node's children after a clearing walk changed the
    /// subtree: drops it if empty, replaces it by its single child, or
    /// refreshes both summaries.
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
                let (meet_a, join_a) = self.summary(new_without);
                let (meet_b, join_b) = self.summary(new_with);
                if let Node::Inner { lhs_meet, rhs_join, without, with, .. } =
                    &mut self.nodes[id as usize]
                {
                    *without = new_without;
                    *with = new_with;
                    *lhs_meet = meet_a.intersect(&meet_b);
                    *rhs_join = join_a.union(&join_b);
                }
                id
            }
        }
    }

    /// Adds `rhss` (non-empty) to the mask of the leaf holding `lhs`,
    /// creating the leaf if `lhs` is not stored yet.
    pub(crate) fn insert(&mut self, lhs: AttrSet, rhss: AttrSet) {
        if self.root == NIL {
            self.root = self.alloc(Node::Leaf { lhs, rhss });
            return;
        }
        // Descend iteratively, widening each summary on the way down: after
        // the insert, a subtree on the path also holds `lhs ↛ rhss`.
        let mut parent = NIL;
        let mut cur = self.root;
        loop {
            match &mut self.nodes[cur as usize] {
                Node::Leaf { lhs: existing, rhss: mask } => {
                    let existing = *existing;
                    if existing == lhs {
                        *mask = mask.union(&rhss);
                        return;
                    }
                    let existing_rhss = *mask;
                    // Split on the smallest attribute in the symmetric
                    // difference; the LHS containing it goes right.
                    let sym = existing.difference(&lhs).union(&lhs.difference(&existing));
                    let attr = sym.first().expect("distinct sets differ somewhere");
                    let new_leaf = self.alloc(Node::Leaf { lhs, rhss });
                    let (with, without) =
                        if existing.contains(attr) { (cur, new_leaf) } else { (new_leaf, cur) };
                    let inner = self.alloc(Node::Inner {
                        attr,
                        lhs_meet: existing.intersect(&lhs),
                        rhs_join: existing_rhss.union(&rhss),
                        without,
                        with,
                    });
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
                    return;
                }
                Node::Inner { attr, lhs_meet, rhs_join, without, with } => {
                    *lhs_meet = lhs_meet.intersect(&lhs);
                    *rhs_join = rhs_join.union(&rhss);
                    let goes_with = lhs.contains(*attr);
                    let side = if goes_with { *with } else { *without };
                    if side != NIL {
                        parent = cur;
                        cur = side;
                        continue;
                    }
                    let leaf = self.alloc(Node::Leaf { lhs, rhss });
                    if let Node::Inner { without, with, .. } = &mut self.nodes[cur as usize] {
                        if goes_with {
                            *with = leaf;
                        } else {
                            *without = leaf;
                        }
                    }
                    return;
                }
                Node::Free(_) => unreachable!("live traversal reached a free slot"),
            }
        }
    }

    /// Invokes `f` on the LHS of every stored non-FD `lhs ↛ rhs`
    /// (unspecified order).
    pub(crate) fn for_each_lhs_of(&self, rhs: AttrId, mut f: impl FnMut(AttrSet)) {
        self.lhss_from(self.root, rhs, &mut f);
    }

    fn lhss_from(&self, id: NodeId, rhs: AttrId, f: &mut impl FnMut(AttrSet)) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => {
                if rhss.contains(rhs) {
                    f(*lhs);
                }
            }
            Node::Inner { rhs_join, without, with, .. } => {
                if rhs_join.contains(rhs) {
                    self.lhss_from(*without, rhs, f);
                    self.lhss_from(*with, rhs, f);
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Invokes `f(lhs, rhss)` on every leaf (unspecified order).
    pub(crate) fn for_each(&self, mut f: impl FnMut(AttrSet, AttrSet)) {
        self.for_each_from(self.root, &mut f);
    }

    fn for_each_from(&self, id: NodeId, f: &mut impl FnMut(AttrSet, AttrSet)) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => f(*lhs, *rhss),
            Node::Inner { without, with, .. } => {
                self.for_each_from(*without, f);
                self.for_each_from(*with, f);
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(bits: &[u16]) -> AttrSet {
        AttrSet::from_attrs(bits.iter().copied())
    }

    fn leaves(tree: &NonFdTree) -> Vec<(AttrSet, AttrSet)> {
        let mut out = Vec::new();
        tree.for_each(|lhs, rhss| out.push((lhs, rhss)));
        out.sort();
        out
    }

    /// Replays the paper's Figure 4 construction for RHS `N`:
    /// non-FDs AMB, MBG, BG, AG (attribute ids: N=0, A=1, B=2, G=3, M=4).
    #[test]
    fn figure_4_ncover_construction() {
        let n = s(&[0]);
        let (amb, mbg, bg, ag) = (s(&[1, 4, 2]), s(&[4, 2, 3]), s(&[2, 3]), s(&[1, 3]));
        let mut tree = NonFdTree::new();
        tree.insert(amb, n); // Fig 4(a)
        tree.insert(mbg, n); // Fig 4(b)
        // BG is specialized by MBG, so Algorithm 2 discards it.
        assert!(tree.uncovered(&bg, &n).is_empty());
        // AG has no specialization stored; add it (Fig 4(c)).
        assert_eq!(tree.uncovered(&ag, &n), n);
        assert_eq!(tree.clear_below(&ag, &n), 0);
        tree.insert(ag, n);
        let expect = [(ag, n), (amb, n), (mbg, n)];
        let mut expect = expect.to_vec();
        expect.sort();
        assert_eq!(leaves(&tree), expect);
    }

    #[test]
    fn one_leaf_per_lhs_with_a_merged_mask() {
        let mut tree = NonFdTree::new();
        tree.insert(s(&[1, 2]), s(&[0]));
        tree.insert(s(&[3]), s(&[0, 4]));
        tree.insert(s(&[1, 2]), s(&[5]));
        assert_eq!(leaves(&tree), vec![(s(&[1, 2]), s(&[0, 5])), (s(&[3]), s(&[0, 4]))]);
        // {1} lies below {1,2} (RHSs 0, 5) but not below {3}.
        assert_eq!(tree.uncovered(&s(&[1]), &s(&[0, 4, 5])), s(&[4]));
        assert_eq!(tree.uncovered(&AttrSet::empty(), &s(&[0, 4, 6])), s(&[6]));
        let mut lhss = Vec::new();
        tree.for_each_lhs_of(0, |lhs| lhss.push(lhs));
        lhss.sort();
        assert_eq!(lhss, vec![s(&[1, 2]), s(&[3])]);
    }

    #[test]
    fn clearing_drops_a_leaf_only_when_its_mask_empties() {
        let mut tree = NonFdTree::new();
        tree.insert(s(&[1]), s(&[0, 4]));
        tree.insert(s(&[2]), s(&[0]));
        tree.insert(s(&[1, 3]), s(&[5]));
        // Generalizations of {1,2}: {1} and {2}. RHS 0 clears from both,
        // emptying {2}'s mask; {1} keeps RHS 4.
        assert_eq!(tree.clear_below(&s(&[1, 2]), &s(&[0, 5])), 2);
        assert_eq!(leaves(&tree), vec![(s(&[1]), s(&[4])), (s(&[1, 3]), s(&[5]))]);
        assert_eq!(tree.clear_below(&AttrSet::full(6), &s(&[4, 5])), 2);
        assert!(leaves(&tree).is_empty());
        // A drained tree accepts new inserts.
        tree.insert(s(&[2]), s(&[1]));
        assert_eq!(leaves(&tree), vec![(s(&[2]), s(&[1]))]);
    }

    /// Returns the LHS intersection and RHS union of the leaves beneath
    /// `id`, asserting that every inner node on the way caches exactly
    /// those.
    fn checked_summary(tree: &NonFdTree, id: NodeId) -> (AttrSet, AttrSet) {
        match &tree.nodes[id as usize] {
            Node::Leaf { lhs, rhss } => {
                assert!(!rhss.is_empty(), "leaf {id} has an empty mask");
                (*lhs, *rhss)
            }
            Node::Inner { lhs_meet, rhs_join, without, with, .. } => {
                let actual = [*without, *with]
                    .into_iter()
                    .filter(|&child| child != NIL)
                    .map(|child| checked_summary(tree, child))
                    .reduce(|(ma, ja), (mb, jb)| (ma.intersect(&mb), ja.union(&jb)))
                    .expect("an inner node has a child");
                assert_eq!(*lhs_meet, actual.0, "stale intersection at node {id}");
                assert_eq!(*rhs_join, actual.1, "stale mask union at node {id}");
                actual
            }
            Node::Free(_) => panic!("live traversal reached a free slot"),
        }
    }

    proptest! {
        /// The top-down widening of `insert` and the bottom-up refresh of
        /// `clear_below` keep every cached intersection and mask union
        /// exact. LHS and RHS ids come in three bands (0..8, 62..70,
        /// 124..132) so both cross the 64- and 128-bit word boundaries.
        #[test]
        fn cached_summaries_match_the_leaves_beneath(
            ops in prop::collection::vec(
                (
                    0..3u8,
                    prop::collection::vec(0..24u16, 0..6),
                    prop::collection::vec(0..24u16, 1..4),
                ),
                1..80,
            ),
        ) {
            let band = |ids: &[u16]| AttrSet::from_attrs(ids.iter().map(|&i| (i / 8) * 62 + i % 8));
            let mut tree = NonFdTree::new();
            for (kind, lhs, rhss) in &ops {
                let (lhs, rhss) = (band(lhs), band(rhss));
                if *kind == 0 {
                    tree.clear_below(&lhs, &rhss);
                } else {
                    tree.insert(lhs, rhss);
                }
                if tree.root != NIL {
                    checked_summary(&tree, tree.root);
                }
            }
        }
    }
}
