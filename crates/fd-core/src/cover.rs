//! Negative and positive covers (Definition 5), plus the generic Ncover →
//! Pcover inversion of Algorithm 3.
//!
//! Both covers live in the extended binary tree of `set_tree`. The negative
//! cover stores each non-FD LHS once in one tree, with a mask of its RHSs;
//! the positive cover keeps one [`LhsTree`] (the unmasked instance) of
//! candidate LHSs per RHS. These containers are shared by every
//! induction-style algorithm in the workspace (EulerFD, AID-FD, Fdep, HyFD):
//! the algorithms differ in *how* they obtain non-FDs, not in how covers are
//! stored and inverted.

use crate::attrset::{AttrId, AttrSet, MAX_ATTRS};
use crate::budget::{Budget, Termination, POLL_STRIDE};
use crate::fd::{Fd, FdSet};
use crate::hash::FastHashMap;
use crate::set_tree::{LhsTree, SetTree};

/// The negative cover: for each RHS attribute, the set of **maximal**
/// non-FD LHSs observed so far. Maximality is maintained incrementally —
/// inserting a non-FD drops every stored generalization of it, and a non-FD
/// that already has a stored specialization is ignored (Lemma 1 makes both
/// redundant).
///
/// Each LHS is stored once, with the mask of the RHSs it is a maximal
/// non-FD for, so the non-FDs `S ↛ a` of one agree set fold together: one
/// walk finds the RHSs a stored specialization already covers, one clears
/// the rest from the masks of stored generalizations, and one inserts `S`
/// with that rest as its mask.
#[derive(Clone, Debug)]
pub struct NCover {
    tree: SetTree<AttrSet>,
    n_attrs: usize,
    len: usize,
    insertions: usize,
}

impl NCover {
    /// An empty negative cover over an `n_attrs`-column schema.
    pub fn new(n_attrs: usize) -> Self {
        NCover { tree: SetTree::new(), n_attrs, len: 0, insertions: 0 }
    }

    /// Number of attributes in the schema.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Number of maximal non-FDs currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no non-FD is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds the non-FD `non_fd` (Algorithm 2 lines 2–5, streaming form).
    /// Returns true if the cover changed, i.e. the non-FD was not already
    /// implied by a stored specialization.
    pub fn add(&mut self, non_fd: Fd) -> bool {
        !self.fold(non_fd.lhs, AttrSet::single(non_fd.rhs)).is_empty()
    }

    /// Adds `lhs ↛ a` for every `a ∈ rhss` and returns the RHSs actually
    /// inserted: those no stored specialization of `lhs` covers. Each
    /// inserted non-FD first drops its stored generalizations.
    fn fold(&mut self, lhs: AttrSet, rhss: AttrSet) -> AttrSet {
        let fresh = self.tree.uncovered(&lhs, &rhss);
        if !fresh.is_empty() {
            self.clear_below(&lhs, &fresh);
            self.tree.insert(lhs, fresh);
            self.len += fresh.len();
            self.insertions += fresh.len();
        }
        fresh
    }

    /// Drops `rhss` from the mask of every stored subset of `lhs`.
    fn clear_below(&mut self, lhs: &AttrSet, rhss: &AttrSet) {
        let mut cleared = 0;
        self.tree.clear_below(lhs, rhss, |_, taken| cleared += taken.len());
        self.len -= cleared;
    }

    /// Total successful insertions over the cover's lifetime. Absorptions of
    /// generalized non-FDs shrink `len` but never this counter, so growth
    /// rates ("percentage of additions", Section V-F) are measured against
    /// it rather than against net size.
    pub fn insertions(&self) -> usize {
        self.insertions
    }

    /// Records one sampled tuple pair's agree set `S`: every attribute
    /// `a ∉ S` yields the non-FD `S ↛ a`. Returns the number of cover
    /// insertions performed.
    pub fn add_agree_set(&mut self, agree: AttrSet) -> usize {
        self.fold(agree, AttrSet::full(self.n_attrs).difference(&agree)).len()
    }

    /// Like [`NCover::add_agree_set`], but also appends each non-FD that was
    /// actually inserted to `inserted`, RHS ascending — exactly the set an
    /// incremental inversion needs to process (non-FDs absorbed by an
    /// existing specialization change nothing downstream).
    pub fn add_agree_set_collect(&mut self, agree: AttrSet, inserted: &mut Vec<Fd>) -> usize {
        let fresh = self.fold(agree, AttrSet::full(self.n_attrs).difference(&agree));
        inserted.extend(fresh.iter().map(|rhs| Fd::new(agree, rhs)));
        fresh.len()
    }

    /// True if `fd` is invalidated by the cover: some stored non-FD
    /// `Y ↛ fd.rhs` has `fd.lhs ⊆ Y` (Lemma 1).
    pub fn invalidates(&self, fd: &Fd) -> bool {
        self.tree.uncovered(&fd.lhs, &AttrSet::single(fd.rhs)).is_empty()
    }

    /// All stored maximal non-FDs.
    pub fn to_fds(&self) -> Vec<Fd> {
        let mut out = Vec::with_capacity(self.len);
        self.tree.for_each(|lhs, rhss| out.extend(rhss.iter().map(|rhs| Fd::new(lhs, rhs))));
        out
    }

    /// The maximal non-FD LHSs of one RHS (unspecified order): the
    /// per-RHS view the agree-set baselines derive difference sets from.
    pub fn lhss(&self, rhs: AttrId) -> Vec<AttrSet> {
        let mut out = Vec::new();
        self.tree.for_each_lhs_of(rhs, |lhs| out.push(lhs));
        out
    }

    /// Discards the non-FDs of every RHS in `affected` and rebuilds them
    /// from the agree sets `keys` plus the `∅ ↛ a` seeds of `seeded`: for
    /// each `a ∈ affected`, exactly the cover that folding every key lacking
    /// `a`, in the order given, and then `∅` if `a ∈ seeded`, would build.
    /// The delete path of incremental maintenance uses this — dead evidence
    /// cannot be "subtracted" from a maximal-set store, but the surviving
    /// agree sets reconstruct the affected RHSs exactly. Successful
    /// re-insertions count toward [`NCover::insertions`] like any others.
    ///
    /// The affected bits are cleared once and each key folds once, for all
    /// the affected RHSs it lacks.
    pub fn rebuild(&mut self, affected: &AttrSet, keys: &[AttrSet], seeded: &AttrSet) {
        self.clear_below(&AttrSet::full(MAX_ATTRS), affected);
        for key in keys {
            self.fold(*key, affected.difference(key));
        }
        self.fold(AttrSet::empty(), seeded.intersect(affected));
    }
}

/// The positive cover under construction: for each RHS attribute, the LHSs
/// of the current minimal FD candidates. Initialized with the most general
/// candidate `∅ → A` per attribute and refined by inverting non-FDs
/// (Algorithm 3).
#[derive(Clone, Debug)]
pub struct PCover {
    per_rhs: Vec<LhsTree>,
    len: usize,
}

/// Mutation counts of one [`PCover::invert_batch`] call, used by EulerFD's
/// second cycle to compute `GR_Pcover`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InvertDelta {
    /// FD candidates removed because a non-FD invalidated them.
    pub removed: usize,
    /// Specialized FD candidates added in their place.
    pub added: usize,
}

impl InvertDelta {
    /// Total churn (adds + removes).
    pub fn churn(&self) -> usize {
        self.removed + self.added
    }
}

impl std::ops::AddAssign for InvertDelta {
    fn add_assign(&mut self, rhs: Self) {
        self.removed += rhs.removed;
        self.added += rhs.added;
    }
}

impl PCover {
    /// A positive cover seeded with `∅ → A` for every attribute
    /// (Algorithm 3 lines 1–2).
    pub fn initialized(n_attrs: usize) -> Self {
        let mut per_rhs: Vec<LhsTree> = (0..n_attrs).map(|_| LhsTree::new()).collect();
        for tree in &mut per_rhs {
            tree.insert(AttrSet::empty(), ());
        }
        PCover { per_rhs, len: n_attrs }
    }

    /// Number of attributes in the schema.
    pub fn n_attrs(&self) -> usize {
        self.per_rhs.len()
    }

    /// Number of FD candidates currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no candidate is stored (only possible mid-inversion).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inverts a batch of non-FDs (Algorithm 3, `invert`, for each), sharded
    /// per RHS attribute across up to `threads` scoped worker threads. Each
    /// non-FD removes every candidate generalization of it and re-adds the
    /// minimal specializations that escape it. The order is Algorithm 2's,
    /// most specialized first: a non-FD `X ↛ A` only ever touches the RHS-`A`
    /// tree, so the per-RHS work lists are independent, and each is processed
    /// in the sorted order regardless of which worker runs it — the resulting
    /// cover is byte-identical for every thread count.
    ///
    /// Each shard checks `budget`'s token between non-FDs and polls its clock
    /// every [`POLL_STRIDE`] non-FDs. On a trip the shards stop, the non-FDs
    /// not yet processed are left in `non_fds` (most specialized first within
    /// each RHS), and the trip is returned: the caller decides between
    /// finishing the drain later (restoring soundness w.r.t. all sampled
    /// pairs) and abandoning it. Without a trip `non_fds` is drained. Under
    /// [`Budget::unlimited`] no shard ever stops early.
    ///
    /// Returns the summed churn and the trip, if there was one.
    pub fn invert_batch(
        &mut self,
        non_fds: &mut Vec<Fd>,
        threads: usize,
        budget: &Budget,
    ) -> (InvertDelta, Option<Termination>) {
        let n = self.n_attrs();
        // Stable sort: within one RHS, equal-length non-FDs keep arrival
        // order, exactly like the sequential sort-then-drain loop.
        non_fds.sort_by_key(|fd| std::cmp::Reverse(fd.lhs.len()));
        let mut per_rhs_work: Vec<Vec<AttrSet>> = vec![Vec::new(); n];
        let total = non_fds.len();
        for fd in non_fds.drain(..) {
            per_rhs_work[fd.rhs as usize].push(fd.lhs);
        }
        // Small batches invert inline: spawning threads costs more than the
        // tree surgery it would parallelize. The cutoff cannot change the
        // result, only the wall clock. One inversion costs ~2Ki units — the
        // per-item cost hint (in u32-compare-equivalent units) handed to the
        // shared adaptive policy.
        let n_jobs = per_rhs_work.iter().filter(|work| !work.is_empty()).count();
        let workers = crate::parallel::decide_at(
            "parallel.workers.cover_invert",
            total,
            INVERSION_COST_UNITS,
            threads,
        )
        .min(n_jobs.max(1));
        // One job per RHS tree with work. A non-FD only touches its own
        // RHS tree, and each job processes its list in the sorted order, so
        // the trees end up the same whichever worker claims which job.
        // Deltas and cancelled leftovers fold in job (= RHS) order, never
        // completion order, so `non_fds` is schedule-invariant too.
        let jobs = self
            .per_rhs
            .iter_mut()
            .zip(per_rhs_work)
            .enumerate()
            .filter(|(_, (_, work))| !work.is_empty());
        let mut delta = InvertDelta::default();
        crate::parallel::map_ordered(
            "cover_invert",
            workers,
            jobs,
            |(rhs, (tree, work))| {
                let rhs = rhs as AttrId;
                let mut job = InversionJob::new(tree, n, rhs);
                let mut job_delta = InvertDelta::default();
                for (done, lhs) in work.iter().enumerate() {
                    let poll = done.is_multiple_of(POLL_STRIDE as usize);
                    if budget.token().is_cancelled() || (poll && budget.poll_time().is_some()) {
                        return (rhs, job_delta, work[done..].to_vec());
                    }
                    job_delta += job.invert(lhs);
                }
                (rhs, job_delta, Vec::new())
            },
            |(rhs, job_delta, unprocessed)| {
                delta += job_delta;
                non_fds.extend(unprocessed.into_iter().map(|lhs| Fd::new(lhs, rhs)));
            },
        );
        self.len = self.len + delta.added - delta.removed;
        let trip = if non_fds.is_empty() { None } else { budget.token().reason() };
        (delta, trip)
    }

    /// Discards the RHS-`rhs` tree and re-derives it from scratch: the most
    /// general candidate `∅` is re-seeded and every non-FD LHS in `non_fds`
    /// is inverted, most specialized first (exactly the
    /// [`PCover::invert_batch`] order). This is the revival step of
    /// incremental maintenance after deletes: candidates killed by
    /// since-dead evidence reappear, bottom-up minimal, because the rebuilt
    /// tree is the exact complement of the surviving non-FDs (Algorithm 3 is
    /// deterministic in the inputs). The maximal non-FDs suffice: inverted
    /// longest first, a non-maximal one finds every candidate below it
    /// already removed by its superset, so it changes nothing.
    ///
    /// Returns the number of *revived* candidates — LHSs present in the
    /// rebuilt tree that were not candidates before the call.
    pub fn rebuild_rhs(&mut self, rhs: AttrId, mut non_fds: Vec<AttrSet>) -> usize {
        let n = self.n_attrs();
        let tree = &mut self.per_rhs[rhs as usize];
        let old: crate::hash::FastHashSet<AttrSet> = tree.to_vec().into_iter().collect();
        self.len -= tree.len();
        *tree = LhsTree::new();
        tree.insert(AttrSet::empty(), ());
        non_fds.sort_by_key(|lhs| std::cmp::Reverse(lhs.len()));
        let mut job = InversionJob::new(tree, n, rhs);
        for lhs in &non_fds {
            job.invert(lhs);
        }
        self.len += tree.len();
        let mut revived = 0usize;
        tree.for_each(|lhs, ()| {
            if !old.contains(&lhs) {
                revived += 1;
            }
        });
        revived
    }

    /// True if `fd` (or a generalization of it) is a current candidate.
    pub fn covers(&self, fd: &Fd) -> bool {
        self.per_rhs[fd.rhs as usize].contains_subset_of(&fd.lhs)
    }

    /// True if exactly `fd` is a current candidate.
    pub fn contains(&self, fd: &Fd) -> bool {
        // Each tree is an antichain, so a stored `fd.lhs` is its only
        // stored subset.
        self.per_rhs[fd.rhs as usize].find_subset_of(&fd.lhs) == Some(fd.lhs)
    }

    /// Invokes `f` on every current candidate, RHS by RHS (unspecified LHS
    /// order within one RHS).
    pub fn for_each(&self, mut f: impl FnMut(Fd)) {
        for (rhs, tree) in self.per_rhs.iter().enumerate() {
            tree.for_each(|lhs, ()| f(Fd::new(lhs, rhs as AttrId)));
        }
    }

    /// Extracts the final FD set. Candidates `∅ → A` are kept — they assert
    /// that column `A` is constant, expressed as the most general FD.
    pub fn to_fdset(&self) -> FdSet {
        let mut fds = Vec::with_capacity(self.len);
        for (rhs, tree) in self.per_rhs.iter().enumerate() {
            fds.extend(tree.leaves().map(|(lhs, ())| Fd::new(lhs, rhs as AttrId)));
        }
        // The candidates are distinct, so an unstable sort is exact, and the
        // set is then built from sorted input.
        fds.sort_unstable();
        fds.into_iter().collect()
    }
}

/// Measured cost of one non-FD's inversion in the policy's units, the cost
/// hint handed to [`crate::parallel::decide`] by [`PCover::invert_batch`].
/// Inverting the exact negative cover (Fdep's, over at most the first 4 000
/// rows) of plista 1 001, fd-reduced-30 20 000, lineitem 40 000, weather
/// 10 000 and adult 4 000 on one thread took 1.0Ki–15Ki units per non-FD,
/// median 1.8Ki, where a unit is the time of one attribute of the same
/// dataset's single-thread pair compare. With the policy's 64Ki-unit quantum
/// a second worker engages at 64 non-FDs.
const INVERSION_COST_UNITS: u64 = 2048;

/// One per-RHS inversion job: a run of non-FDs `X ↛ rhs` inverted into the
/// RHS tree, in the order given. Each per-RHS shard of
/// [`PCover::invert_batch`] is one job, and so is [`PCover::rebuild_rhs`].
///
/// The job owns the [`ExtensionIndex`] that answers its covered-extension
/// queries. It is built from the tree at the first general that uses it, kept
/// in step with every removal and insert after that, and dropped with the
/// job: a job whose non-FDs invalidate nothing never builds one, and no index
/// stays resident between inversions.
struct InversionJob<'t> {
    tree: &'t mut LhsTree,
    n_attrs: usize,
    rhs: AttrId,
    index: Option<ExtensionIndex>,
}

impl<'t> InversionJob<'t> {
    fn new(tree: &'t mut LhsTree, n_attrs: usize, rhs: AttrId) -> Self {
        InversionJob { tree, n_attrs, rhs, index: None }
    }

    /// One non-FD's inversion (Algorithm 3, `invert`).
    ///
    /// Every candidate generalization `G ⊆ X` of the non-FD `X ↛ rhs` is
    /// removed and replaced by each `G ∪ {a}` with `a ∉ X`, `a ≠ rhs` (which
    /// keeps candidates non-trivial) that no remaining candidate covers. Two
    /// facts make this a single pass with one covered-extension query per
    /// general:
    ///
    /// * Each per-RHS tree is an antichain: it starts as `{∅}`, an extension
    ///   is inserted only if no candidate lies below it, and a candidate above
    ///   `G ∪ {a}` would lie above `G`. So an extension `G' ∪ {a'}` inserted by
    ///   this call never covers a later `G ∪ {a}`: since `a' ∉ X ⊇ G` it would
    ///   need `a' = a` and `G' ⊆ G`, and two distinct sets of an antichain are
    ///   never nested. The blocked extensions of every general can therefore be
    ///   computed against the tree as it stands right after the removals.
    /// * Every inserted candidate contains an attribute outside `X`, so none is
    ///   a generalization of `X`: a second removal pass would find nothing.
    ///
    /// Inserts run generals in removal order and attributes ascending, so the
    /// tree shapes are the same as the textbook per-attribute loop's.
    fn invert(&mut self, non_fd_lhs: &AttrSet) -> InvertDelta {
        let generals = self.tree.remove_subsets_of(non_fd_lhs);
        if generals.is_empty() {
            return InvertDelta::default();
        }
        if let Some(index) = &mut self.index {
            for general in &generals {
                index.remove(general);
            }
        }
        let extensions = AttrSet::full(self.n_attrs).difference(non_fd_lhs).without(self.rhs);
        let blocked: Vec<AttrSet> =
            generals.iter().map(|general| self.blocked_extensions(general, &extensions)).collect();
        let mut delta = InvertDelta { removed: generals.len(), added: 0 };
        for (general, blocked) in generals.iter().zip(&blocked) {
            for attr in extensions.difference(blocked).iter() {
                let extension = general.with(attr);
                self.tree.insert(extension, ());
                if let Some(index) = &mut self.index {
                    index.insert(&extension);
                }
                delta.added += 1;
            }
        }
        delta
    }

    /// The attributes `a ∈ allowed` whose extension `general ∪ {a}` has a
    /// stored subset. The index answers with `2^|general|` lookups and the
    /// tree walk visits up to about twice `len()` nodes, so the index is used
    /// (and built, the first time) only when its lookups are no more than the
    /// tree's stored sets.
    fn blocked_extensions(&mut self, general: &AttrSet, allowed: &AttrSet) -> AttrSet {
        let lookups = 1usize.checked_shl(general.len() as u32).unwrap_or(usize::MAX);
        if lookups > self.tree.len() {
            return self.tree.blocked_extensions(general, allowed);
        }
        let tree = &*self.tree;
        let index = self.index.get_or_insert_with(|| ExtensionIndex::new(tree));
        index.blocked_extensions(general, allowed)
    }
}

/// The covered-extension index of one per-RHS candidate tree: for every
/// stored set `S` and every `b ∈ S`, the key `S \ {b}` maps to the set of all
/// such `b`.
///
/// During an inversion of `X ↛ A` every stored subset of `X` has just been
/// removed. A stored `S` then lies below an extension `G ∪ {a}` of a general
/// `G ⊆ X` with `a ∉ X` only if `a ∈ S` and `S \ {a} ⊆ G` (`S ⊆ G` would make
/// `S` a removed subset of `X`). So the extensions blocked for `G` are the
/// union of the entries at the `2^|G|` subsets of `G`, intersected with the
/// allowed attributes: [`ExtensionIndex::blocked_extensions`].
///
/// ```
/// use fd_core::{AttrSet, ExtensionIndex, LhsTree};
///
/// let mut tree = LhsTree::new();
/// tree.insert(AttrSet::from_attrs([1u16, 2]), ());
/// tree.insert(AttrSet::from_attrs([3u16, 4]), ());
/// let index = ExtensionIndex::new(&tree);
/// // {1,2} lies below {1} ∪ {2}; nothing lies below {1} ∪ {3}.
/// let allowed = AttrSet::from_attrs([2u16, 3]);
/// assert_eq!(index.blocked_extensions(&AttrSet::single(1), &allowed), AttrSet::single(2));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtensionIndex {
    ext: FastHashMap<AttrSet, AttrSet>,
}

impl ExtensionIndex {
    /// The index of every set stored in `tree`.
    pub fn new(tree: &LhsTree) -> Self {
        let mut index = ExtensionIndex::default();
        tree.for_each(|stored, ()| index.insert(&stored));
        index
    }

    /// Records a set just inserted into the indexed tree.
    pub fn insert(&mut self, stored: &AttrSet) {
        for b in stored.iter() {
            self.ext.entry(stored.without(b)).or_default().insert(b);
        }
    }

    /// Forgets a set just removed from the indexed tree.
    pub fn remove(&mut self, stored: &AttrSet) {
        for b in stored.iter() {
            let key = stored.without(b);
            if let Some(ext) = self.ext.get_mut(&key) {
                ext.remove(b);
                if ext.is_empty() {
                    self.ext.remove(&key);
                }
            }
        }
    }

    /// The attributes `a ∈ allowed` for which some indexed set is a subset
    /// of `base ∪ {a}`, given that no indexed set is a subset of `base`
    /// itself (an inversion's generals guarantee it). Equal to
    /// [`LhsTree::blocked_extensions`] under that condition, at the cost of
    /// one lookup per subset of `base`.
    pub fn blocked_extensions(&self, base: &AttrSet, allowed: &AttrSet) -> AttrSet {
        let mut blocked = AttrSet::empty();
        self.union_below(*base, AttrSet::empty(), &mut blocked);
        blocked.intersect(allowed)
    }

    /// Unions into `acc` the entries at `chosen ∪ T` for every `T ⊆ rest`.
    fn union_below(&self, rest: AttrSet, chosen: AttrSet, acc: &mut AttrSet) {
        match rest.first() {
            None => {
                if let Some(ext) = self.ext.get(&chosen) {
                    *acc = acc.union(ext);
                }
            }
            Some(a) => {
                let rest = rest.without(a);
                self.union_below(rest, chosen, acc);
                self.union_below(rest, chosen.with(a), acc);
            }
        }
    }
}

/// Builds the positive cover implied by a set of non-FDs: initializes the
/// most general candidates and inverts every non-FD (Algorithm 3 main loop)
/// in one unbudgeted, single-threaded [`PCover::invert_batch`].
pub fn invert_ncover(ncover: &NCover) -> PCover {
    let mut pcover = PCover::initialized(ncover.n_attrs());
    pcover.invert_batch(&mut ncover.to_fds(), 1, &Budget::unlimited());
    pcover
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bits: &[u16]) -> AttrSet {
        AttrSet::from_attrs(bits.iter().copied())
    }

    /// Inverts one non-FD: a batch of one under an unlimited budget.
    fn invert_one(pc: &mut PCover, non_fd: Fd) -> InvertDelta {
        pc.invert_batch(&mut vec![non_fd], 1, &Budget::unlimited()).0
    }

    #[test]
    fn ncover_keeps_only_maximal_non_fds() {
        let mut nc = NCover::new(5);
        assert!(nc.add(Fd::new(s(&[2, 3]), 0))); // BG ↛ N
        assert!(nc.add(Fd::new(s(&[2, 3, 4]), 0))); // MBG ↛ N specializes it
        assert_eq!(nc.len(), 1);
        // Re-adding the absorbed generalization is a no-op.
        assert!(!nc.add(Fd::new(s(&[2, 3]), 0)));
        assert_eq!(nc.len(), 1);
        assert!(nc.add(Fd::new(s(&[1, 3]), 0))); // AG ↛ N incomparable
        assert_eq!(nc.len(), 2);
    }

    #[test]
    fn ncover_invalidates_generalizations() {
        let mut nc = NCover::new(5);
        nc.add(Fd::new(s(&[2, 3, 4]), 0));
        assert!(nc.invalidates(&Fd::new(s(&[2]), 0)));
        assert!(nc.invalidates(&Fd::new(s(&[2, 3, 4]), 0)));
        assert!(!nc.invalidates(&Fd::new(s(&[1]), 0)));
        assert!(!nc.invalidates(&Fd::new(s(&[2]), 1)));
    }

    #[test]
    fn agree_set_expands_to_non_fds() {
        let mut nc = NCover::new(4);
        // Agree on {0,1}: non-FDs {0,1} ↛ 2 and {0,1} ↛ 3.
        assert_eq!(nc.add_agree_set(s(&[0, 1])), 2);
        assert_eq!(nc.len(), 2);
        // Same agree set again adds nothing.
        assert_eq!(nc.add_agree_set(s(&[0, 1])), 0);
        // A sub-agree-set is entirely absorbed.
        assert_eq!(nc.add_agree_set(s(&[0])), 1); // {0}↛1 is new; {0}↛2, {0}↛3 absorbed
    }

    /// Replays the paper's Figure 5 inversion for RHS N (ids: N=0, A=1, B=2,
    /// G=3, M=4) with non-FDs MBG, AG, AMB.
    #[test]
    fn figure_5_inversion() {
        let mut pc = PCover::initialized(5);
        // Restrict to RHS N for the walkthrough: other RHS trees untouched.
        // (a) invert MBG ↛ N: ∅→N removed, A→N created.
        let d = invert_one(&mut pc, Fd::new(s(&[4, 2, 3]), 0));
        assert_eq!(d.removed, 1);
        assert!(pc.contains(&Fd::new(s(&[1]), 0)));
        // (b) invert AG ↛ N: A→N replaced by AB→N and AM→N.
        invert_one(&mut pc, Fd::new(s(&[1, 3]), 0));
        assert!(!pc.contains(&Fd::new(s(&[1]), 0)));
        assert!(pc.contains(&Fd::new(s(&[1, 2]), 0)));
        assert!(pc.contains(&Fd::new(s(&[1, 4]), 0)));
        // (c) invert AMB ↛ N: both replaced by ABG→N and AMG→N.
        invert_one(&mut pc, Fd::new(s(&[1, 4, 2]), 0));
        assert!(!pc.contains(&Fd::new(s(&[1, 2]), 0)));
        assert!(!pc.contains(&Fd::new(s(&[1, 4]), 0)));
        assert!(pc.contains(&Fd::new(s(&[1, 2, 3]), 0)));
        assert!(pc.contains(&Fd::new(s(&[1, 4, 3]), 0)));
        // Exactly those two candidates remain for RHS N.
        let n_fds: Vec<Fd> = pc.to_fdset().with_rhs(0).copied().collect();
        assert_eq!(n_fds.len(), 2);
    }

    #[test]
    fn to_fdset_matches_the_for_each_set() {
        // Inversions free arena slots all over each tree, so the arena scan
        // must skip them and still see every candidate exactly once. Each
        // agree set misses three attributes, one past the 64-bit word.
        let mut nc = NCover::new(66);
        for i in 0..4u16 {
            nc.add_agree_set(AttrSet::full(66).difference(&s(&[i, i + 20, i + 62])));
        }
        let mut pc = invert_ncover(&nc);
        pc.rebuild_rhs(3, nc.lhss(3));
        let mut walked = FdSet::new();
        pc.for_each(|fd| {
            assert!(walked.insert(fd), "{fd:?} visited twice");
        });
        assert!(walked.len() > 70, "the inversion must specialize: {}", walked.len());
        assert_eq!(walked.len(), pc.len());
        assert_eq!(pc.to_fdset(), walked);
    }

    #[test]
    fn inversion_result_is_minimal_and_consistent() {
        let mut nc = NCover::new(4);
        nc.add_agree_set(s(&[0, 1]));
        nc.add_agree_set(s(&[1, 2]));
        nc.add_agree_set(s(&[0]));
        let pc = invert_ncover(&nc);
        let fds = pc.to_fdset();
        assert!(fds.is_minimal_cover());
        // No candidate may be invalidated by a stored non-FD.
        for fd in &fds {
            assert!(!nc.invalidates(fd), "{fd:?} contradicts the negative cover");
        }
        // Every dependency not covered must be invalidated (completeness of
        // the inversion): check exhaustively over all LHS ⊆ {0..3}.
        for rhs in 0..4u16 {
            for mask in 0u32..16 {
                let lhs = AttrSet::from_attrs((0..4u16).filter(|a| mask & (1 << a) != 0));
                if lhs.contains(rhs) {
                    continue;
                }
                let fd = Fd::new(lhs, rhs);
                assert_eq!(
                    pc.covers(&fd),
                    !nc.invalidates(&fd),
                    "cover disagreement on {fd:?}"
                );
            }
        }
    }

    #[test]
    fn inversion_under_a_live_budget_matches_unlimited() {
        let mut nc = NCover::new(6);
        for mask in [0b0011u16, 0b0110, 0b1100, 0b1010, 0b10001, 0b11000] {
            nc.add_agree_set(AttrSet::from_attrs((0..6u16).filter(|a| mask & (1 << a) != 0)));
        }
        let mut plain = PCover::initialized(6);
        let mut fds = nc.to_fds();
        plain.invert_batch(&mut fds, 2, &Budget::unlimited());
        let mut budgeted = PCover::initialized(6);
        let mut fds2 = nc.to_fds();
        let live = Budget::with_deadline(std::time::Duration::from_secs(3600));
        let (delta, trip) = budgeted.invert_batch(&mut fds2, 2, &live);
        assert_eq!(trip, None);
        assert!(fds2.is_empty(), "a budget that never trips drains everything");
        assert_eq!(plain.to_fdset(), budgeted.to_fdset());
        assert_eq!(plain.len(), budgeted.len());
        assert!(delta.churn() > 0);
    }

    #[test]
    fn precancelled_inversion_keeps_all_work() {
        let mut nc = NCover::new(4);
        nc.add_agree_set(s(&[0, 1]));
        nc.add_agree_set(s(&[1, 2]));
        let mut pc = PCover::initialized(4);
        let mut fds = nc.to_fds();
        let expected = fds.len();
        let budget = Budget::unlimited();
        budget.token().cancel();
        let (delta, trip) = pc.invert_batch(&mut fds, 1, &budget);
        // Nothing was processed; every non-FD survives for a later drain and
        // the cover is untouched (still the most general candidates).
        assert_eq!(trip, Some(Termination::Cancelled));
        assert_eq!(fds.len(), expected);
        assert_eq!(delta, InvertDelta::default());
        assert_eq!(pc.len(), 4);
        // Finishing the drain afterwards converges to the exact cover.
        pc.invert_batch(&mut fds, 1, &Budget::unlimited());
        assert_eq!(pc.to_fdset(), invert_ncover(&nc).to_fdset());
    }

    #[test]
    fn a_past_deadline_stops_every_shard_within_one_poll_stride() {
        // Every 5-subset of 12 attributes as an agree set: each RHS keeps
        // the C(11, 5) = 462 subsets without it, several strides per shard.
        let n = 12u16;
        let mut nc = NCover::new(n as usize);
        for mask in 0u32..1 << n {
            if mask.count_ones() == 5 {
                nc.add_agree_set(AttrSet::from_attrs((0..n).filter(|a| mask & (1 << a) != 0)));
            }
        }
        let mut fds = nc.to_fds();
        let per_rhs = |fds: &[Fd], rhs: AttrId| fds.iter().filter(|fd| fd.rhs == rhs).count();
        let before: Vec<usize> = (0..n).map(|rhs| per_rhs(&fds, rhs)).collect();
        assert!(before.iter().all(|&c| c > 2 * POLL_STRIDE as usize));
        let mut pc = PCover::initialized(n as usize);
        let past = Budget::with_deadline(std::time::Duration::ZERO);
        let (_, trip) = pc.invert_batch(&mut fds, 2, &past);
        assert_eq!(trip, Some(Termination::DeadlineExceeded));
        for rhs in 0..n {
            let done = before[rhs as usize] - per_rhs(&fds, rhs);
            assert!(done <= POLL_STRIDE as usize, "rhs {rhs} ran {done} non-FDs past the deadline");
        }
        // Finishing the drain converges to the exact cover.
        let (_, trip) = pc.invert_batch(&mut fds, 2, &Budget::unlimited());
        assert_eq!(trip, None);
        assert!(fds.is_empty());
        assert_eq!(pc.to_fdset(), invert_ncover(&nc).to_fdset());
    }

    #[test]
    fn ncover_rebuild_matches_a_fresh_cover() {
        let mut nc = NCover::new(4);
        nc.add_agree_set(s(&[0, 1]));
        nc.add_agree_set(s(&[1, 2]));
        nc.add_agree_set(s(&[0]));
        // Rebuild RHSs 2 and 3 from the surviving evidence {0,1} and {1,2}
        // only (evidence {0} "died"), seeding RHS 2: equals a cover built
        // from scratch.
        nc.rebuild(&s(&[2, 3]), &[s(&[0, 1]), s(&[1, 2])], &s(&[2]));
        let mut oracle = NCover::new(4);
        oracle.add_agree_set(s(&[0, 1]));
        oracle.add_agree_set(s(&[1, 2]));
        let sorted = |mut lhss: Vec<AttrSet>| {
            lhss.sort();
            lhss
        };
        for rhs in [2, 3] {
            assert_eq!(sorted(nc.lhss(rhs)), sorted(oracle.lhss(rhs)), "rhs {rhs}");
        }
        // Other RHSs untouched; len bookkeeping consistent.
        assert_eq!(sorted(nc.lhss(1)), vec![s(&[0])]);
        let total: usize = (0..4).map(|a| nc.lhss(a).len()).sum();
        assert_eq!(nc.len(), total);
        // Absorption still applies during a rebuild, and a seed enters only
        // where no key lacks its RHS.
        nc.rebuild(&s(&[2, 3]), &[s(&[0]), s(&[0, 1]), s(&[0, 1, 2])], &s(&[2, 3]));
        assert_eq!(nc.lhss(2), vec![s(&[0, 1])]);
        assert_eq!(nc.lhss(3), vec![s(&[0, 1, 2])]);
        nc.rebuild(&s(&[3]), &[], &s(&[3]));
        assert_eq!(nc.lhss(3), vec![AttrSet::empty()]);
    }

    #[test]
    fn pcover_rebuild_rhs_revives_candidates_killed_by_dead_evidence() {
        // Agree sets {0,1} and {2} over 3 attributes. For RHS 2 the only
        // non-FD is {0,1} ↛ 2, whose inversion empties the RHS-2 tree: ∅
        // cannot specialize outside {0,1} without using attribute 2 itself.
        let mut nc = NCover::new(3);
        nc.add_agree_set(s(&[0, 1]));
        nc.add_agree_set(s(&[2]));
        let mut pc = invert_ncover(&nc);
        let before = pc.to_fdset();
        assert!(!pc.covers(&Fd::new(s(&[]), 2)));
        // The pair behind {0,1} is deleted: no surviving evidence for RHS 2.
        let revived = pc.rebuild_rhs(2, vec![]);
        assert_eq!(revived, 1, "∅ → 2 is newly a candidate");
        assert!(pc.contains(&Fd::new(s(&[]), 2)));
        assert_eq!(pc.len(), before.len() + 1);
        // Rebuilding with the original evidence restores the old cover
        // exactly and revives nothing.
        let revived = pc.rebuild_rhs(2, vec![s(&[0, 1])]);
        assert_eq!(revived, 0);
        assert_eq!(pc.to_fdset(), before);
        assert_eq!(pc.len(), before.len());
    }

    #[test]
    fn a_job_whose_non_fds_remove_nothing_builds_no_index() {
        let mut tree = LhsTree::new();
        for lhs in [s(&[1]), s(&[2]), s(&[3]), s(&[4, 5])] {
            tree.insert(lhs, ());
        }
        let mut job = InversionJob::new(&mut tree, 6, 0);
        // Neither {4} nor {5} has a stored subset: nothing is removed.
        assert_eq!(job.invert(&s(&[4])), InvertDelta::default());
        assert_eq!(job.invert(&s(&[5])), InvertDelta::default());
        assert!(job.index.is_none());
        // {1, 4} ↛ 0 removes {1}; with three candidates left, the two
        // lookups for {1} fit under the cutoff, so the index is built. {2}
        // and {3} block {1, 2} and {1, 3}; {1, 5} is added.
        assert_eq!(job.invert(&s(&[1, 4])), InvertDelta { removed: 1, added: 1 });
        assert_eq!(job.index.as_ref(), Some(&ExtensionIndex::new(job.tree)));
        drop(job);
        let mut left = tree.to_vec();
        left.sort();
        let mut expect = vec![s(&[1, 5]), s(&[2]), s(&[3]), s(&[4, 5])];
        expect.sort();
        assert_eq!(left, expect);
    }

    #[test]
    fn empty_ncover_inverts_to_most_general() {
        let pc = invert_ncover(&NCover::new(3));
        let fds = pc.to_fdset();
        assert_eq!(fds.len(), 3);
        for fd in &fds {
            assert!(fd.lhs.is_empty());
        }
    }
}
