//! Property tests for the fd-core data structures, pitting the tree-backed
//! stores against the linear-scan [`NaiveLhsStore`] oracle and checking the
//! algebraic laws the covers rely on.

mod naive;

use fd_core::{
    invert_ncover, AgreeSetTable, AttrId, AttrSet, Budget, ExtensionIndex, FastHashSet, Fd, FdSet,
    InvertDelta, LhsTree, NCover, PCover, MAX_ATTRS,
};
use naive::NaiveLhsStore;
use proptest::prelude::*;

/// Inverts one non-FD: a batch of one under an unlimited budget.
fn invert_one(pc: &mut PCover, non_fd: Fd) -> InvertDelta {
    pc.invert_batch(&mut vec![non_fd], 1, &Budget::unlimited()).0
}

/// Attribute sets over a small universe so subset relations are common.
fn attr_set(max_attr: u16) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..max_attr, 0..6).prop_map(AttrSet::from_attrs)
}

/// A random operation on an LHS store.
#[derive(Clone, Debug)]
enum Op {
    Insert(AttrSet),
    Remove(AttrSet),
    RemoveSubsetsOf(AttrSet),
}

fn op(max_attr: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => attr_set(max_attr).prop_map(Op::Insert),
        1 => attr_set(max_attr).prop_map(Op::Remove),
        1 => attr_set(max_attr).prop_map(Op::RemoveSubsetsOf),
    ]
}

proptest! {
    /// The LhsTree agrees with the naive store on every query after any
    /// operation sequence.
    #[test]
    fn lhs_tree_matches_naive_oracle(
        ops in prop::collection::vec(op(10), 1..60),
        queries in prop::collection::vec(attr_set(10), 1..20),
    ) {
        let mut tree = LhsTree::new();
        let mut naive = NaiveLhsStore::new();
        for o in &ops {
            match o {
                Op::Insert(s) => {
                    prop_assert_eq!(tree.insert(*s), naive.insert(*s));
                }
                Op::Remove(s) => {
                    prop_assert_eq!(tree.remove(s), naive.remove(s));
                }
                Op::RemoveSubsetsOf(s) => {
                    let mut a = tree.remove_subsets_of(s);
                    let mut b = naive.collect_subsets_of(s);
                    for x in &b {
                        naive.remove(x);
                    }
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(tree.len(), naive.len());
        }
        for q in &queries {
            prop_assert_eq!(tree.contains_subset_of(q), naive.contains_subset_of(q));
            if let Some(found) = tree.find_subset_of(q) {
                prop_assert!(found.is_subset_of(q) && naive.iter().any(|s| *s == found));
            }
        }
        let mut a = tree.to_vec();
        let mut b: Vec<AttrSet> = naive.iter().copied().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// NCover invariant: stored non-FDs are pairwise incomparable (maximal),
    /// and `invalidates` answers exactly "is some stored superset present".
    #[test]
    fn ncover_stores_an_antichain(
        agrees in prop::collection::vec(attr_set(6), 1..30),
    ) {
        let mut nc = NCover::new(6);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let fds = nc.to_fds();
        prop_assert_eq!(fds.len(), nc.len());
        for x in &fds {
            for y in &fds {
                if x != y && x.rhs == y.rhs {
                    prop_assert!(
                        !x.lhs.is_subset_of(&y.lhs),
                        "{:?} and {:?} are comparable", x, y
                    );
                }
            }
        }
        // Every recorded agree set must be absorbed by some stored non-FD.
        for a in &agrees {
            for rhs in 0..6u16 {
                if !a.contains(rhs) {
                    prop_assert!(nc.invalidates(&Fd::new(*a, rhs)));
                }
            }
        }
    }

    /// Inversion is exactly the complement of the negative cover: a
    /// dependency is covered by the Pcover iff no stored non-FD invalidates
    /// it, checked exhaustively over the 5-attribute lattice.
    #[test]
    fn inversion_complements_ncover(
        agrees in prop::collection::vec(attr_set(5), 0..20),
    ) {
        let mut nc = NCover::new(5);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let pc = invert_ncover(&nc);
        let fds = pc.to_fdset();
        prop_assert!(fds.is_minimal_cover());
        for rhs in 0..5u16 {
            for mask in 0u32..32 {
                let lhs = AttrSet::from_attrs((0..5u16).filter(|a| mask & (1 << a) != 0));
                if lhs.contains(rhs) {
                    continue;
                }
                let fd = Fd::new(lhs, rhs);
                prop_assert_eq!(pc.covers(&fd), !nc.invalidates(&fd), "disagree on {:?}", fd);
            }
        }
    }

    /// Incremental inversion (non-FD at a time) produces the same Pcover as
    /// batch inversion regardless of arrival order.
    #[test]
    fn inversion_is_order_independent(
        agrees in prop::collection::vec(attr_set(5), 1..12),
        seed in 0u64..1000,
    ) {
        let mut nc = NCover::new(5);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let baseline = invert_ncover(&nc).to_fdset();

        // Shuffle the maximal non-FDs deterministically and invert one by one.
        let mut fds = nc.to_fds();
        let n = fds.len();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            fds.swap(i, j);
        }
        let mut pc = PCover::initialized(5);
        for fd in fds {
            invert_one(&mut pc, fd);
        }
        prop_assert_eq!(pc.to_fdset(), baseline);
    }

    /// Bitset algebra laws on random sets.
    #[test]
    fn attrset_algebra_laws(a in attr_set(200), b in attr_set(200), c in attr_set(200)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b).intersect(&c), a.intersect(&c).union(&b.intersect(&c)));
        prop_assert!(a.intersect(&b).is_subset_of(&a));
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a);
        prop_assert!(a.difference(&b).is_disjoint(&b));
        prop_assert_eq!(a.union(&b).len() + a.intersect(&b).len(), a.len() + b.len());
        // Iteration round-trips.
        prop_assert_eq!(AttrSet::from_attrs(a.iter()), a);
    }
}

/// A random small FD set over `max_attr` attributes.
fn fd_set(max_attr: u16) -> impl Strategy<Value = FdSet> {
    prop::collection::vec((attr_set(max_attr), 0..max_attr), 0..12).prop_map(|v| {
        v.into_iter()
            .map(|(lhs, rhs)| Fd::new(lhs.without(rhs), rhs))
            .collect()
    })
}

proptest! {
    /// Closure laws: extensive, monotone, idempotent; `implies` is
    /// consistent with direct closure membership.
    #[test]
    fn closure_laws(fds in fd_set(6), x in attr_set(6), y in attr_set(6)) {
        use fd_core::closure::{closure, implies};
        let cx = closure(&x, &fds);
        prop_assert!(x.is_subset_of(&cx), "extensive");
        prop_assert_eq!(closure(&cx, &fds), cx, "idempotent");
        if x.is_subset_of(&y) {
            prop_assert!(cx.is_subset_of(&closure(&y, &fds)), "monotone");
        }
        for rhs in 0..6u16 {
            prop_assert_eq!(
                implies(&fds, &Fd::new(x, rhs)),
                x.contains(rhs) || cx.contains(rhs)
            );
        }
    }

    /// Non-redundant covers stay logically equivalent to the original.
    #[test]
    fn non_redundant_cover_preserves_semantics(fds in fd_set(6)) {
        use fd_core::closure::{equivalent, non_redundant_cover};
        let reduced = non_redundant_cover(&fds);
        prop_assert!(reduced.len() <= fds.len());
        prop_assert!(equivalent(&fds, &reduced));
    }

    /// Candidate keys: every reported key closes to the full schema, keys
    /// are pairwise incomparable, and every attribute set that closes to the
    /// full schema contains some reported key (checked exhaustively on 5
    /// attributes).
    #[test]
    fn candidate_keys_are_sound_and_complete(fds in fd_set(5)) {
        use fd_core::closure::{candidate_keys, closure};
        let all = AttrSet::full(5);
        let keys = candidate_keys(5, &fds);
        for k in &keys {
            prop_assert_eq!(closure(k, &fds), all, "key must close to R");
            for other in &keys {
                if k != other {
                    prop_assert!(!k.is_subset_of(other), "keys form an antichain");
                }
            }
        }
        for mask in 0u32..32 {
            let x = AttrSet::from_attrs((0..5u16).filter(|a| mask & (1 << a) != 0));
            if closure(&x, &fds) == all {
                prop_assert!(
                    keys.iter().any(|k| k.is_subset_of(&x)),
                    "superkey {:?} contains no reported key {:?}", x, keys
                );
            }
        }
    }
}

proptest! {
    /// Per-RHS sharded inversion is indistinguishable from the sequential
    /// sort-then-drain loop, at every thread count, in both the final cover
    /// and the reported churn.
    #[test]
    fn parallel_inversion_matches_sequential(
        agrees in prop::collection::vec(attr_set(8), 1..40),
    ) {
        let mut nc = NCover::new(8);
        for agree in &agrees {
            nc.add_agree_set(*agree);
        }
        let baseline = invert_ncover(&nc);
        // Churn oracle: one non-FD at a time in sorted order.
        let mut pc = PCover::initialized(8);
        let mut non_fds = nc.to_fds();
        non_fds.sort_by_key(|fd| std::cmp::Reverse(fd.lhs.len()));
        let mut expect_delta = InvertDelta::default();
        for fd in non_fds {
            expect_delta += invert_one(&mut pc, fd);
        }
        prop_assert_eq!(pc.to_fdset(), baseline.to_fdset());
        for threads in [1usize, 2, 4] {
            let mut pc = PCover::initialized(8);
            let mut batch = nc.to_fds();
            let (delta, trip) = pc.invert_batch(&mut batch, threads, &Budget::unlimited());
            prop_assert_eq!(pc.to_fdset(), baseline.to_fdset(), "threads={}", threads);
            prop_assert_eq!(pc.len(), baseline.len(), "threads={}", threads);
            prop_assert_eq!(delta, expect_delta, "threads={}", threads);
            prop_assert_eq!(trip, None, "threads={}", threads);
            prop_assert!(batch.is_empty(), "invert_batch drains its input");
        }
    }
}

/// Attribute sets over three bands of ids (0..8, 62..70, 124..132), so they
/// cross the 64- and 128-bit word boundaries while subsets stay common.
fn banded_attr_set() -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..24u16, 0..7)
        .prop_map(|ids| AttrSet::from_attrs(ids.into_iter().map(|i| (i / 8) * 62 + i % 8)))
}

/// The textbook per-attribute Algorithm 3 step for one non-FD `X ↛ rhs`:
/// strip every generalization of `X`, then probe each extension `G ∪ {a}`
/// separately, repeating until no generalization is left.
fn textbook_invert(tree: &mut LhsTree, n_attrs: usize, rhs: AttrId, x: &AttrSet) -> InvertDelta {
    let mut delta = InvertDelta::default();
    loop {
        let generals = tree.remove_subsets_of(x);
        if generals.is_empty() {
            return delta;
        }
        delta.removed += generals.len();
        for general in generals {
            for a in 0..n_attrs as AttrId {
                if general.contains(a) || a == rhs || x.contains(a) {
                    continue;
                }
                let candidate = general.with(a);
                if !tree.contains_subset_of(&candidate) {
                    tree.insert(candidate);
                    delta.added += 1;
                }
            }
        }
    }
}

fn fdset_of(trees: &[LhsTree]) -> FdSet {
    let mut fds = FdSet::new();
    for (rhs, tree) in trees.iter().enumerate() {
        tree.for_each(|lhs| {
            fds.insert(Fd::new(lhs, rhs as AttrId));
        });
    }
    fds
}

/// Schema width of the wide inversion test: past one 64-bit word.
const WIDE: usize = 70;
/// The attributes on which the wide test's tuple pairs may disagree.
const WINDOW: std::ops::Range<u16> = 46..WIDE as u16;

proptest! {
    /// One `blocked_extensions` walk answers exactly what one
    /// `contains_subset_of` probe per allowed attribute would, on trees that
    /// have been through removals (freed slots reused, inner nodes
    /// collapsed).
    #[test]
    fn blocked_extensions_match_per_attribute_probes(
        ops in prop::collection::vec(
            prop_oneof![
                3 => banded_attr_set().prop_map(Op::Insert),
                1 => banded_attr_set().prop_map(Op::Remove),
                1 => banded_attr_set().prop_map(Op::RemoveSubsetsOf),
            ],
            1..80,
        ),
        queries in prop::collection::vec((banded_attr_set(), banded_attr_set()), 1..20),
    ) {
        let mut tree = LhsTree::new();
        for o in &ops {
            match o {
                Op::Insert(s) => {
                    tree.insert(*s);
                }
                Op::Remove(s) => {
                    tree.remove(s);
                }
                Op::RemoveSubsetsOf(s) => {
                    tree.remove_subsets_of(s);
                }
            }
        }
        for (base, extra) in &queries {
            // Allowed attributes: a random set plus a few fixed ones on each
            // side of the word boundaries, never inside `base`.
            let allowed = extra.union(&AttrSet::from_attrs([63u16, 64, 127, 128])).difference(base);
            let expect: AttrSet =
                allowed.iter().filter(|&a| tree.contains_subset_of(&base.with(a))).collect();
            prop_assert_eq!(tree.blocked_extensions(base, &allowed), expect, "base {:?}", base);
        }
    }

    /// An extension index kept in step with a tree's inserts and removals
    /// equals one built from the finished tree, and both answer exactly what
    /// one `contains_subset_of` probe per allowed attribute would once the
    /// base has no stored subset (as after an inversion's removals). Trees
    /// may start as the `{∅}` seed; bases run to six attributes, so many
    /// have more subsets than the tree has sets, past the cutoff at which an
    /// inversion walks the tree instead.
    #[test]
    fn extension_index_matches_per_attribute_probes(
        seeded in 0..2u8,
        ops in prop::collection::vec(
            prop_oneof![
                3 => banded_attr_set().prop_map(Op::Insert),
                1 => banded_attr_set().prop_map(Op::Remove),
                1 => banded_attr_set().prop_map(Op::RemoveSubsetsOf),
            ],
            0..80,
        ),
        queries in prop::collection::vec((banded_attr_set(), banded_attr_set()), 1..20),
    ) {
        let mut tree = LhsTree::new();
        if seeded == 1 {
            tree.insert(AttrSet::empty());
        }
        let mut kept = ExtensionIndex::new(&tree);
        for o in &ops {
            match o {
                Op::Insert(s) => {
                    if tree.insert(*s) {
                        kept.insert(s);
                    }
                }
                Op::Remove(s) => {
                    if tree.remove(s) {
                        kept.remove(s);
                    }
                }
                Op::RemoveSubsetsOf(s) => {
                    for removed in tree.remove_subsets_of(s) {
                        kept.remove(&removed);
                    }
                }
            }
        }
        let mut built = ExtensionIndex::new(&tree);
        prop_assert_eq!(&kept, &built);
        for (base, extra) in &queries {
            for removed in tree.remove_subsets_of(base) {
                kept.remove(&removed);
                built.remove(&removed);
            }
            let allowed = extra.union(&AttrSet::from_attrs([63u16, 64, 127, 128])).difference(base);
            let expect: AttrSet =
                allowed.iter().filter(|&a| tree.contains_subset_of(&base.with(a))).collect();
            prop_assert_eq!(kept.blocked_extensions(base, &allowed), expect, "base {:?}", base);
            prop_assert_eq!(built.blocked_extensions(base, &allowed), expect, "base {:?}", base);
        }
    }

    /// Over a 70-attribute schema, every inversion path — batch at 1 and 2
    /// threads, one non-FD at a time, and the per-RHS rebuild — matches the
    /// textbook per-attribute Algorithm 3 loop in the cover and the churn.
    #[test]
    fn wide_inversion_matches_textbook_algorithm_3(
        disagrees in prop::collection::vec(prop::collection::vec(WINDOW, 1..12), 1..16),
    ) {
        // Each sampled pair agrees everywhere except on a few attributes of
        // a window straddling the first word boundary.
        let mut nc = NCover::new(WIDE);
        for disagree in &disagrees {
            let disagree = AttrSet::from_attrs(disagree.iter().copied());
            nc.add_agree_set(AttrSet::full(WIDE).difference(&disagree));
        }
        let mut sorted = nc.to_fds();
        sorted.sort_by_key(|fd| std::cmp::Reverse(fd.lhs.len()));

        let mut reference: Vec<LhsTree> = (0..WIDE).map(|_| LhsTree::new()).collect();
        for tree in &mut reference {
            tree.insert(AttrSet::empty());
        }
        let mut expect_delta = InvertDelta::default();
        for fd in &sorted {
            expect_delta += textbook_invert(&mut reference[fd.rhs as usize], WIDE, fd.rhs, &fd.lhs);
        }
        let expect = fdset_of(&reference);

        for threads in [1usize, 2] {
            let mut pc = PCover::initialized(WIDE);
            let mut batch = nc.to_fds();
            let (delta, _) = pc.invert_batch(&mut batch, threads, &Budget::unlimited());
            prop_assert_eq!(pc.to_fdset(), expect.clone(), "threads={}", threads);
            prop_assert_eq!(delta, expect_delta, "threads={}", threads);
        }

        let mut pc = PCover::initialized(WIDE);
        let mut delta = InvertDelta::default();
        for fd in &sorted {
            delta += invert_one(&mut pc, *fd);
        }
        prop_assert_eq!(pc.to_fdset(), expect.clone());
        prop_assert_eq!(delta, expect_delta);

        let mut pc = PCover::initialized(WIDE);
        for rhs in 0..WIDE as AttrId {
            let lhss = nc.lhss(rhs);
            let revived = pc.rebuild_rhs(rhs, lhss);
            // Everything but a surviving `∅` is new against the seeded cover.
            let rebuilt = &reference[rhs as usize];
            let survivors = usize::from(rebuilt.contains_subset_of(&AttrSet::empty()));
            prop_assert_eq!(revived, rebuilt.len() - survivors, "rhs={}", rhs);
        }
        prop_assert_eq!(pc.to_fdset(), expect);
        prop_assert_eq!(pc.len(), reference.iter().map(LhsTree::len).sum::<usize>());
    }
}

/// Schema width of the negative-cover model: the three attribute bands of
/// [`banded_attr_set`] end at 132.
const BANDED: usize = 132;

/// One attribute id from the bands of [`banded_attr_set`].
fn banded_attr() -> impl Strategy<Value = AttrId> {
    (0..24u16).prop_map(|i| (i / 8) * 62 + i % 8)
}

/// A random operation on a negative cover.
#[derive(Clone, Debug)]
enum CoverOp {
    Add(AttrSet, AttrId),
    /// An agree set, folded through `add_agree_set_collect` if the flag is
    /// set and through `add_agree_set` otherwise.
    AgreeSet(AttrSet, bool),
    Rebuild(AttrId, Vec<AttrSet>),
}

/// Algorithm 2's textbook `add` on one RHS's linear-scan store: ignore a
/// non-FD with a stored specialization, else drop its stored
/// generalizations and insert it.
fn textbook_add(store: &mut NaiveLhsStore, lhs: AttrSet) -> bool {
    if store.contains_superset_of(&lhs) {
        return false;
    }
    for general in store.collect_subsets_of(&lhs) {
        store.remove(&general);
    }
    store.insert(lhs)
}

proptest! {
    /// The one-tree negative cover behaves exactly like one textbook store
    /// per RHS: the same non-FDs inserted, in the same order, the same
    /// size and insertion count after every step, the same maximal LHSs
    /// per RHS, and the same `invalidates` answers. Ids cross the 64- and
    /// 128-bit word boundaries in LHSs and RHSs alike.
    #[test]
    fn ncover_matches_textbook_per_rhs_cover(
        ops in prop::collection::vec(
            prop_oneof![
                2 => (banded_attr_set(), banded_attr())
                    .prop_map(|(lhs, rhs)| CoverOp::Add(lhs, rhs)),
                4 => (banded_attr_set(), 0..2u8)
                    .prop_map(|(agree, c)| CoverOp::AgreeSet(agree, c == 1)),
                1 => (banded_attr(), prop::collection::vec(banded_attr_set(), 0..6))
                    .prop_map(|(rhs, lhss)| CoverOp::Rebuild(rhs, lhss)),
            ],
            1..60,
        ),
        queries in prop::collection::vec((banded_attr_set(), banded_attr()), 1..20),
    ) {
        let mut nc = NCover::new(BANDED);
        let mut model: Vec<NaiveLhsStore> = (0..BANDED).map(|_| NaiveLhsStore::new()).collect();
        let mut insertions = 0usize;
        for op in &ops {
            match op {
                CoverOp::Add(lhs, rhs) => {
                    let expect = textbook_add(&mut model[*rhs as usize], *lhs);
                    insertions += usize::from(expect);
                    let added = nc.add(Fd::new(*lhs, *rhs));
                    prop_assert_eq!(added, expect, "add {:?} -> {}", lhs, rhs);
                }
                CoverOp::AgreeSet(agree, collect) => {
                    let mut expect = Vec::new();
                    for rhs in (0..BANDED as AttrId).filter(|&a| !agree.contains(a)) {
                        if textbook_add(&mut model[rhs as usize], *agree) {
                            expect.push(Fd::new(*agree, rhs));
                        }
                    }
                    insertions += expect.len();
                    if *collect {
                        let mut inserted = vec![Fd::new(AttrSet::empty(), 0)];
                        let added = nc.add_agree_set_collect(*agree, &mut inserted);
                        prop_assert_eq!(added, expect.len());
                        prop_assert_eq!(&inserted[1..], &expect[..], "agree set {:?}", agree);
                    } else {
                        prop_assert_eq!(nc.add_agree_set(*agree), expect.len());
                    }
                }
                CoverOp::Rebuild(rhs, lhss) => {
                    let store = &mut model[*rhs as usize];
                    *store = NaiveLhsStore::new();
                    for lhs in lhss {
                        insertions += usize::from(textbook_add(store, *lhs));
                    }
                    nc.rebuild_rhs(*rhs, lhss.iter().copied());
                }
            }
            prop_assert_eq!(nc.len(), model.iter().map(NaiveLhsStore::len).sum::<usize>());
            prop_assert_eq!(nc.insertions(), insertions);
        }
        for (rhs, store) in model.iter().enumerate() {
            let mut got = nc.lhss(rhs as AttrId);
            let mut expect: Vec<AttrSet> = store.iter().copied().collect();
            got.sort();
            expect.sort();
            prop_assert_eq!(got, expect, "rhs {}", rhs);
        }
        prop_assert_eq!(nc.to_fds().len(), nc.len());
        for (lhs, rhs) in &queries {
            let expect = model[*rhs as usize].contains_superset_of(lhs);
            prop_assert_eq!(nc.invalidates(&Fd::new(*lhs, *rhs)), expect, "{:?} -> {}", lhs, rhs);
        }
    }
}

/// Agree-set keys for the table model: sets within one of the four words,
/// sets spread over all four, and the prefixes `{0..n}` from the empty set
/// to `AttrSet::full(256)`. Small value ranges make repeats common.
fn table_key() -> impl Strategy<Value = AttrSet> {
    prop_oneof![
        4 => (0usize..4, 1u64..400).prop_map(|(word, bits)| {
            let mut words = [0u64; 4];
            words[word] = bits;
            AttrSet::from_words(words)
        }),
        2 => (0u64..6, 0u64..6, 0u64..6, 0u64..6)
            .prop_map(|(a, b, c, d)| AttrSet::from_words([a, b, c, d])),
        1 => (0usize..=MAX_ATTRS).prop_map(AttrSet::full),
    ]
}

proptest! {
    /// The open-addressing agree-set table answers every insert and
    /// contains like a `FastHashSet<AttrSet>`, through several growths of
    /// its slot array.
    #[test]
    fn agree_set_table_matches_hash_set_model(
        ops in prop::collection::vec((0u8..3, table_key()), 1..1500),
    ) {
        let mut table = AgreeSetTable::new();
        let mut model: FastHashSet<AttrSet> = FastHashSet::default();
        for (op, key) in &ops {
            if *op == 0 {
                prop_assert_eq!(table.contains(key), model.contains(key), "contains {:?}", key);
            } else {
                prop_assert_eq!(table.insert(*key), model.insert(*key), "insert {:?}", key);
            }
            prop_assert_eq!(table.len(), model.len());
        }
        for key in &model {
            prop_assert!(table.contains(key), "lost {:?}", key);
        }
    }
}

/// A deterministic regression: an FdSet built from a PCover equals the set
/// rebuilt from its own iterator.
#[test]
fn fdset_roundtrip_through_iterator() {
    let mut nc = NCover::new(4);
    nc.add_agree_set(AttrSet::from_attrs([0u16, 1]));
    nc.add_agree_set(AttrSet::from_attrs([2u16]));
    let fds = invert_ncover(&nc).to_fdset();
    let rebuilt: FdSet = fds.iter().copied().collect();
    assert_eq!(fds, rebuilt);
}
