//! Extended binary tree over LHS attribute sets: the cover store of Section
//! IV-D (proposed originally for AID-FD), shared by both covers.
//!
//! Inner nodes split on whether an attribute is contained in an LHS — sets
//! containing the split attribute live in the `with` subtree, the rest in
//! the `without` subtree — and leaves hold one LHS each. Every inner node
//! caches the **intersection of all LHSs stored beneath it**, which prunes
//! generalization searches early: if that intersection is not a subset of
//! the queried set, no descendant can be either (every stored set is a
//! superset of the intersection).
//!
//! A leaf also holds a [`LeafMask`], and an inner node caches the union of
//! the masks beneath it. The tree has two instances:
//!
//! * [`LhsTree`] (`M = ()`): one per RHS holds the LHSs of a
//!   [`crate::PCover`]'s candidates, and FastFDs keeps its minimal covers in
//!   one. The mask is zero-sized, so these nodes carry no union to keep up
//!   on the inversion's hot path.
//! * `SetTree<AttrSet>`: the [`crate::NCover`] stores each non-FD LHS once,
//!   with the mask of the RHSs it is a maximal non-FD for — the RHS-bitmap
//!   idea of the Fdep/HyFD FD-tree (Papenbrock & Naumann, SIGMOD 2016). The
//!   non-FDs `S ↛ a` of one agree set then fold in three walks whatever the
//!   schema's width: `uncovered`, `clear_below` and [`SetTree::insert`].
//!   The mask union skips subtrees that hold none of the RHSs a walk asks
//!   about.
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

/// What a leaf of a [`SetTree`] holds beside its LHS. Inner nodes cache the
/// [`LeafMask::join`] of the masks beneath them.
pub trait LeafMask: Copy + std::fmt::Debug {
    /// The union of two masks.
    fn join(&self, other: &Self) -> Self;
    /// True if clearing `clear` would change a mask (or a cached union).
    fn meets(&self, clear: &Self) -> bool;
    /// Removes `clear` from a leaf's mask and returns what it removed. The
    /// leaf is dropped if its mask is then [`LeafMask::is_spent`].
    fn take(&mut self, clear: &Self) -> Self;
    /// True once nothing is left to keep the leaf.
    fn is_spent(&self) -> bool;
}

/// No mask: a leaf is just its LHS, and clearing it removes it.
impl LeafMask for () {
    fn join(&self, _: &()) {}
    fn meets(&self, _: &()) -> bool {
        true
    }
    fn take(&mut self, _: &()) {}
    fn is_spent(&self) -> bool {
        true
    }
}

/// An attribute mask, cleared bit by bit; an empty mask drops its leaf.
impl LeafMask for AttrSet {
    fn join(&self, other: &AttrSet) -> AttrSet {
        self.union(other)
    }
    fn meets(&self, clear: &AttrSet) -> bool {
        !self.is_disjoint(clear)
    }
    fn take(&mut self, clear: &AttrSet) -> AttrSet {
        let taken = self.intersect(clear);
        *self = self.difference(clear);
        taken
    }
    fn is_spent(&self) -> bool {
        self.is_empty()
    }
}

#[derive(Clone, Debug)]
enum Node<M> {
    Leaf {
        lhs: AttrSet,
        mask: M,
    },
    Inner {
        /// Split attribute: sets containing it are in `with`, others in
        /// `without`.
        attr: AttrId,
        /// Intersection of every LHS stored in this subtree.
        meet: AttrSet,
        /// Union of every mask stored in this subtree.
        join: M,
        /// Child holding sets without `attr` (`NIL` if empty).
        without: NodeId,
        /// Child holding sets with `attr` (`NIL` if empty).
        with: NodeId,
    },
    /// Arena slot on the free list, pointing at the next free slot.
    Free(NodeId),
}

// A zero-sized mask keeps the candidate trees' nodes at 48 bytes, the size
// of a node with no mask fields at all.
const _: () = assert!(std::mem::size_of::<Node<()>>() == 48);

/// A set of LHS attribute sets, each with a mask `M`, with fast subset and
/// superset queries.
///
/// ```
/// use fd_core::{AttrSet, LhsTree};
///
/// let mut tree = LhsTree::new();
/// tree.insert(AttrSet::from_attrs([1u16, 2]), ());
/// tree.insert(AttrSet::from_attrs([3u16]), ());
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
pub struct SetTree<M> {
    nodes: Vec<Node<M>>,
    free: NodeId,
    root: NodeId,
    len: usize,
}

/// The tree of plain LHSs: a [`crate::PCover`]'s candidates of one RHS, or
/// FastFDs' minimal covers.
pub type LhsTree = SetTree<()>;

impl<M: LeafMask> Default for SetTree<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: LeafMask> SetTree<M> {
    /// An empty tree.
    pub fn new() -> Self {
        SetTree { nodes: Vec::new(), free: NIL, root: NIL, len: 0 }
    }

    /// Number of stored LHSs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: Node<M>) -> NodeId {
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

    /// The LHS intersection and mask union of the subtree at `id`.
    fn summary(&self, id: NodeId) -> (AttrSet, M) {
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, mask } => (*lhs, *mask),
            Node::Inner { meet, join, .. } => (*meet, *join),
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Stores `lhs` with `mask`, or joins `mask` into the mask of the leaf
    /// already holding `lhs`. Returns true if `lhs` was not stored before.
    pub fn insert(&mut self, lhs: AttrSet, mask: M) -> bool {
        if self.root == NIL {
            self.root = self.alloc(Node::Leaf { lhs, mask });
            self.len = 1;
            return true;
        }
        // Descend iteratively, updating each summary on the way down: after
        // the insert, a subtree on the path also holds `lhs` with `mask`, so
        // its intersection is the old one ∩ `lhs` and its union the old one
        // ∪ `mask`. If `lhs` is present already it lies beneath every node
        // on the path, and narrowing the intersection changes nothing.
        let mut parent = NIL;
        let mut cur = self.root;
        loop {
            match &mut self.nodes[cur as usize] {
                Node::Leaf { lhs: existing, mask: held } => {
                    if *existing == lhs {
                        *held = held.join(&mask);
                        return false;
                    }
                    let (existing, held) = (*existing, *held);
                    // Split on a distinguishing attribute (smallest id in the
                    // symmetric difference); the set containing it goes right.
                    let sym = existing.difference(&lhs).union(&lhs.difference(&existing));
                    let attr = sym.first().expect("distinct sets differ somewhere");
                    let new_leaf = self.alloc(Node::Leaf { lhs, mask });
                    let (with, without) =
                        if existing.contains(attr) { (cur, new_leaf) } else { (new_leaf, cur) };
                    let inner = self.alloc(Node::Inner {
                        attr,
                        meet: existing.intersect(&lhs),
                        join: held.join(&mask),
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
                Node::Inner { attr, meet, join, without, with } => {
                    *meet = meet.intersect(&lhs);
                    *join = join.join(&mask);
                    let goes_with = lhs.contains(*attr);
                    let side = if goes_with { *with } else { *without };
                    if side != NIL {
                        parent = cur;
                        cur = side;
                        continue;
                    }
                    let leaf = self.alloc(Node::Leaf { lhs, mask });
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

    /// Clears `clear` from the mask of every stored `T ⊆ query` and drops
    /// the leaves left [`LeafMask::is_spent`]; for `M = ()` that removes
    /// every stored subset of `query`. Calls `f(T, cleared)` on each leaf
    /// the walk changes, `without` subtrees before `with`: the inversion
    /// relies on that order.
    pub(crate) fn clear_below(
        &mut self,
        query: &AttrSet,
        clear: &M,
        mut f: impl FnMut(AttrSet, M),
    ) {
        let mut changed = 0;
        self.root = self.clear_from(self.root, query, clear, &mut f, &mut changed);
    }

    /// Clears the subtree at `id`, counting the leaves it changes in
    /// `changed`, and returns the subtree's new root.
    fn clear_from(
        &mut self,
        id: NodeId,
        query: &AttrSet,
        clear: &M,
        f: &mut impl FnMut(AttrSet, M),
        changed: &mut usize,
    ) -> NodeId {
        if id == NIL {
            return NIL;
        }
        match &mut self.nodes[id as usize] {
            Node::Leaf { lhs, mask } => {
                if !lhs.is_subset_of(query) || !mask.meets(clear) {
                    return id;
                }
                let lhs = *lhs;
                let taken = mask.take(clear);
                let spent = mask.is_spent();
                *changed += 1;
                f(lhs, taken);
                if spent {
                    self.release(id);
                    self.len -= 1;
                    return NIL;
                }
                id
            }
            Node::Inner { attr, meet, join, without, with } => {
                if !meet.is_subset_of(query) || !join.meets(clear) {
                    return id;
                }
                let (attr, without, with) = (*attr, *without, *with);
                let before = *changed;
                let new_without = self.clear_from(without, query, clear, f, changed);
                let new_with = if query.contains(attr) {
                    self.clear_from(with, query, clear, f, changed)
                } else {
                    with
                };
                if *changed == before {
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
                if let Node::Inner { meet, join, without, with, .. } = &mut self.nodes[id as usize]
                {
                    *without = new_without;
                    *with = new_with;
                    *meet = meet_a.intersect(&meet_b);
                    *join = join_a.join(&join_b);
                }
                id
            }
        }
    }

    /// Invokes `f(lhs, mask)` on every leaf (unspecified order).
    pub fn for_each(&self, mut f: impl FnMut(AttrSet, M)) {
        self.for_each_from(self.root, &mut f);
    }

    fn for_each_from(&self, id: NodeId, f: &mut impl FnMut(AttrSet, M)) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, mask } => f(*lhs, *mask),
            Node::Inner { without, with, .. } => {
                self.for_each_from(*without, f);
                self.for_each_from(*with, f);
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Every leaf as `(lhs, mask)`, in arena order: one linear scan of the
    /// node array rather than a walk through it. Removed leaves sit on the
    /// free list, so the scan sees exactly the stored sets, but in an order
    /// set by the tree's history; callers sort or count.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (AttrSet, M)> + '_ {
        self.nodes.iter().filter_map(|node| match node {
            Node::Leaf { lhs, mask } => Some((*lhs, *mask)),
            _ => None,
        })
    }

    /// All stored LHSs as a vector, in [`SetTree::for_each`] order.
    pub fn to_vec(&self) -> Vec<AttrSet> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each(|lhs, _| v.push(lhs));
        v
    }
}

impl SetTree<()> {
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
            Node::Leaf { lhs, .. } => lhs.is_subset_of(query).then_some(*lhs),
            Node::Inner { attr, meet, without, with, .. } => {
                // Intersection pruning: every stored set ⊇ intersection, so a
                // stored subset of `query` forces intersection ⊆ query.
                if !meet.is_subset_of(query) {
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
            Node::Leaf { lhs, .. } => (lhs.difference(base), None),
            Node::Inner { attr, meet, without, with, .. } => {
                (meet.difference(base), Some((*attr, *without, *with)))
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

    /// Removes every stored subset of `query` and returns them, `without`
    /// subtrees before `with` (the order of [`SetTree::for_each`]). The
    /// inversion strips invalidated generalizations from the Pcover with it
    /// and inserts their extensions in this order.
    pub fn remove_subsets_of(&mut self, query: &AttrSet) -> Vec<AttrSet> {
        let mut removed = Vec::new();
        self.clear_below(query, &(), |lhs, ()| removed.push(lhs));
        removed
    }
}

impl SetTree<AttrSet> {
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
            Node::Leaf { lhs, mask } => {
                if query.is_subset_of(lhs) {
                    *open = open.difference(mask);
                }
            }
            Node::Inner { attr, meet, join, without, with } => {
                // Nothing down here can cover an RHS still open.
                if open.is_disjoint(join) {
                    return;
                }
                // Every LHS down here contains the intersection, so all of
                // them are supersets of a query below it.
                if query.is_subset_of(meet) {
                    *open = open.difference(join);
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

    /// Invokes `f` on every stored LHS whose mask holds `rhs` (unspecified
    /// order).
    pub(crate) fn for_each_lhs_of(&self, rhs: AttrId, mut f: impl FnMut(AttrSet)) {
        self.lhss_from(self.root, rhs, &mut f);
    }

    fn lhss_from(&self, id: NodeId, rhs: AttrId, f: &mut impl FnMut(AttrSet)) {
        if id == NIL {
            return;
        }
        match &self.nodes[id as usize] {
            Node::Leaf { lhs, mask } => {
                if mask.contains(rhs) {
                    f(*lhs);
                }
            }
            Node::Inner { join, without, with, .. } => {
                if join.contains(rhs) {
                    self.lhss_from(*without, rhs, f);
                    self.lhss_from(*with, rhs, f);
                }
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

    fn leaves(tree: &SetTree<AttrSet>) -> Vec<(AttrSet, AttrSet)> {
        let mut out = Vec::new();
        tree.for_each(|lhs, rhss| out.push((lhs, rhss)));
        out.sort();
        out
    }

    #[test]
    fn insert_dedupes() {
        let mut tree = LhsTree::new();
        assert!(tree.insert(s(&[1, 2]), ()));
        assert!(!tree.insert(s(&[1, 2]), ()));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn subset_queries_are_non_strict() {
        let mut tree = LhsTree::new();
        tree.insert(s(&[1, 2]), ());
        assert!(tree.contains_subset_of(&s(&[1, 2])));
        assert!(tree.contains_subset_of(&s(&[1, 2, 3])));
        assert!(!tree.contains_subset_of(&s(&[1, 3])));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let mut tree = LhsTree::new();
        tree.insert(AttrSet::empty(), ());
        assert!(tree.contains_subset_of(&s(&[9])));
        assert!(tree.contains_subset_of(&AttrSet::empty()));
    }

    #[test]
    fn remove_subsets_strips_generalizations() {
        let mut tree = LhsTree::new();
        for lhs in [s(&[1]), s(&[1, 2]), s(&[3]), s(&[2, 4])] {
            tree.insert(lhs, ());
        }
        let mut removed = tree.remove_subsets_of(&s(&[1, 2, 3]));
        removed.sort();
        let mut expected = vec![s(&[1]), s(&[3]), s(&[1, 2])];
        expected.sort();
        assert_eq!(removed, expected);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.to_vec(), vec![s(&[2, 4])]);
        // A drained tree accepts new inserts.
        assert_eq!(tree.remove_subsets_of(&s(&[2, 4])), vec![s(&[2, 4])]);
        assert!(tree.is_empty());
        assert!(tree.insert(s(&[5]), ()));
        assert_eq!(tree.len(), 1);
    }

    /// Replays the paper's Figure 4 construction for RHS `N`:
    /// non-FDs AMB, MBG, BG, AG (attribute ids: N=0, A=1, B=2, G=3, M=4).
    #[test]
    fn figure_4_ncover_construction() {
        let n = s(&[0]);
        let (amb, mbg, bg, ag) = (s(&[1, 4, 2]), s(&[4, 2, 3]), s(&[2, 3]), s(&[1, 3]));
        let mut tree = SetTree::new();
        tree.insert(amb, n); // Fig 4(a)
        tree.insert(mbg, n); // Fig 4(b)
        // BG is specialized by MBG, so Algorithm 2 discards it.
        assert!(tree.uncovered(&bg, &n).is_empty());
        // AG has no specialization stored; add it (Fig 4(c)).
        assert_eq!(tree.uncovered(&ag, &n), n);
        let mut cleared = 0;
        tree.clear_below(&ag, &n, |_, _| cleared += 1);
        assert_eq!(cleared, 0);
        tree.insert(ag, n);
        let mut expect = vec![(ag, n), (amb, n), (mbg, n)];
        expect.sort();
        assert_eq!(leaves(&tree), expect);
    }

    #[test]
    fn one_leaf_per_lhs_with_a_merged_mask() {
        let mut tree = SetTree::new();
        assert!(tree.insert(s(&[1, 2]), s(&[0])));
        assert!(tree.insert(s(&[3]), s(&[0, 4])));
        assert!(!tree.insert(s(&[1, 2]), s(&[5])));
        assert_eq!(tree.len(), 2);
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
        let mut tree = SetTree::new();
        tree.insert(s(&[1]), s(&[0, 4]));
        tree.insert(s(&[2]), s(&[0]));
        tree.insert(s(&[1, 3]), s(&[5]));
        // Generalizations of {1,2}: {1} and {2}. RHS 0 clears from both,
        // emptying {2}'s mask; {1} keeps RHS 4.
        let mut cleared = Vec::new();
        tree.clear_below(&s(&[1, 2]), &s(&[0, 5]), |lhs, taken| cleared.push((lhs, taken)));
        cleared.sort();
        assert_eq!(cleared, vec![(s(&[1]), s(&[0])), (s(&[2]), s(&[0]))]);
        assert_eq!(tree.len(), 2);
        assert_eq!(leaves(&tree), vec![(s(&[1]), s(&[4])), (s(&[1, 3]), s(&[5]))]);
        tree.clear_below(&AttrSet::full(6), &s(&[4, 5]), |_, _| {});
        assert!(tree.is_empty() && leaves(&tree).is_empty());
        // A drained tree accepts new inserts.
        tree.insert(s(&[2]), s(&[1]));
        assert_eq!(leaves(&tree), vec![(s(&[2]), s(&[1]))]);
    }

    /// Returns the LHS intersection and mask union of the leaves beneath
    /// `id`, asserting that every inner node on the way caches exactly
    /// those.
    fn checked_summary<M: LeafMask + PartialEq>(tree: &SetTree<M>, id: NodeId) -> (AttrSet, M) {
        match &tree.nodes[id as usize] {
            Node::Leaf { lhs, mask } => (*lhs, *mask),
            Node::Inner { meet, join, without, with, .. } => {
                let actual = [*without, *with]
                    .into_iter()
                    .filter(|&child| child != NIL)
                    .map(|child| checked_summary(tree, child))
                    .reduce(|(ma, ja), (mb, jb)| (ma.intersect(&mb), ja.join(&jb)))
                    .expect("an inner node has a child");
                assert_eq!(*meet, actual.0, "stale intersection at node {id}");
                assert_eq!(*join, actual.1, "stale mask union at node {id}");
                actual
            }
            Node::Free(_) => panic!("live traversal reached a free slot"),
        }
    }

    /// Checks every cached summary of `tree` and its leaf count.
    fn check_tree<M: LeafMask + PartialEq>(tree: &SetTree<M>) {
        if tree.root != NIL {
            checked_summary(tree, tree.root);
        }
        assert_eq!(tree.to_vec().len(), tree.len());
    }

    proptest! {
        /// Both instances run the same random inserts and clearing walks.
        /// The top-down update of `insert` and the bottom-up refresh of
        /// `clear_below` keep every cached intersection and mask union
        /// exact; no masked leaf is left with an empty mask; and the
        /// unmasked walk removes exactly the stored subsets, in `for_each`
        /// order (`without` before `with`). LHS and mask ids come in three
        /// bands (0..8, 62..70, 124..132) so both cross the 64- and 128-bit
        /// word boundaries.
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
            let mut plain = LhsTree::new();
            let mut masked = SetTree::new();
            for (kind, lhs, rhss) in &ops {
                let (lhs, rhss) = (band(lhs), band(rhss));
                if *kind == 0 {
                    let expect: Vec<AttrSet> =
                        plain.to_vec().into_iter().filter(|t| t.is_subset_of(&lhs)).collect();
                    prop_assert_eq!(plain.remove_subsets_of(&lhs), expect);
                    masked.clear_below(&lhs, &rhss, |_, _| {});
                } else {
                    plain.insert(lhs, ());
                    masked.insert(lhs, rhss);
                }
                check_tree(&plain);
                check_tree(&masked);
                masked.for_each(|lhs, rhss| assert!(!rhss.is_empty(), "{lhs:?} has an empty mask"));
            }
        }
    }
}
