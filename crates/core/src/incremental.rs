//! Incremental delta maintenance of a discovered FD cover.
//!
//! A [`DeltaEngine`] owns a relation together with the *exact* negative and
//! positive covers of its current contents, plus the evidence bookkeeping
//! needed to keep both covers correct across row inserts and deletes without
//! re-running discovery from scratch:
//!
//! * **Support multiset** — `support[S]` counts, for every non-empty agree
//!   set `S`, the number of *(pair, column)* incidences that produced it:
//!   `|S| ×` the number of unordered row pairs whose agree set is exactly
//!   `S`. The count therefore hits zero exactly when the last supporting
//!   pair dies.
//! * **Insert path** — only pairs involving an inserted row can create new
//!   evidence. Their agree sets are computed with the bit-packed
//!   [`RowMajor::agree_set`] kernel, folded into the negative cover, and the
//!   resulting non-FDs are inverted through the normal batch-inversion
//!   machinery. Inserts are monotone: existing candidates only specialize.
//! * **Delete path** — evidence can die. Agree sets whose support reaches
//!   zero (and `∅ ↛ a` seeds of columns that became constant) mark their
//!   RHS *affected*. The affected RHSs' non-FDs are rebuilt together from
//!   the surviving support keys, in one pass that folds each key once, and
//!   each affected RHS's candidates are re-inverted bottom-up from its
//!   rebuilt maximal non-FDs, reviving minimal FDs that the dead evidence
//!   had invalidated.
//!
//! **Cost.** A delta costs one linear pass per column (compacting the
//! relation and the engine's row-major mirror, gathering the delta rows'
//! cluster mates, flagging non-fresh labels, testing constancy) plus one
//! agree set per row pair that touches the delta and shares a value. No
//! pass hashes a cell, and the mirror is patched in place; only the cold
//! fallback transposes the table again. A delete that kills evidence also
//! scans the support keys once, to rebuild the affected RHSs.
//!
//! The result is byte-identical to a cold rebuild on the post-delta
//! relation — both covers are canonical functions of the *set* of surviving
//! agree sets plus per-column constancy, which is exactly what the engine
//! maintains. Under an injected `delta.apply` allocation failure the engine
//! falls back to that cold rebuild, trading time for a guaranteed answer —
//! never a wrong one.

use fd_core::{AttrId, AttrSet, Budget, FastHashMap, FastHashSet, Fd, FdSet, NCover, PCover};
use fd_relation::{PliCache, Relation, RowDelta, RowId, RowMajor};

/// Exact FD discovery state that can be patched in place after row updates.
///
/// Built once (the "cold" run) from a relation, then kept current with
/// [`DeltaEngine::apply_delta`] at a cost proportional to the rows the
/// delta touches plus linear passes over the columns, rather than to the
/// pairs of the whole relation.
#[derive(Clone, Debug)]
pub struct DeltaEngine {
    relation: Relation,
    /// Row-major mirror of `relation`, patched by every delta.
    mirror: RowMajor,
    threads: usize,
    /// `support[S]` = |S| × number of unordered pairs with agree set `S`.
    support: FastHashMap<AttrSet, u64>,
    ncover: NCover,
    pcover: PCover,
    /// Per-column constancy at the time of the last (re)build — compared
    /// against the post-delta relation to detect `∅ ↛ a` evidence flips.
    constant: Vec<bool>,
    stats: DeltaStats,
}

/// What one [`DeltaEngine::apply_delta`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Rows appended by this delta.
    pub rows_inserted: usize,
    /// Rows removed by this delta (after in-batch dedup).
    pub rows_deleted: usize,
    /// Agree sets whose last supporting pair died.
    pub dead_agree_sets: usize,
    /// Agree sets observed for the first time (no prior support).
    pub fresh_agree_sets: usize,
    /// RHS attributes whose cover trees were rebuilt from surviving evidence.
    pub rhs_rebuilt: usize,
    /// Candidate FDs revived by the rebuilds — minimal FDs that dead
    /// evidence had previously invalidated.
    pub candidates_revived: usize,
    /// True when a `delta.apply` fault forced the cold-rebuild fallback.
    pub cold_fallback: bool,
}

/// Lifetime counters across every delta the engine has absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// [`DeltaEngine::apply_delta`] calls, including cold fallbacks.
    pub deltas_applied: usize,
    /// Total rows inserted.
    pub rows_inserted: usize,
    /// Total rows deleted.
    pub rows_deleted: usize,
    /// Total agree sets whose support died.
    pub dead_agree_sets: usize,
    /// Total agree sets first observed by a delta.
    pub fresh_agree_sets: usize,
    /// Total per-RHS rebuilds.
    pub rhs_rebuilt: usize,
    /// Total candidates revived.
    pub candidates_revived: usize,
    /// Deltas that degraded to a cold rebuild (fault injection or caller
    /// request) instead of the incremental path.
    pub cold_fallbacks: usize,
}

impl DeltaStats {
    fn absorb(&mut self, r: &DeltaReport) {
        self.deltas_applied += 1;
        self.rows_inserted += r.rows_inserted;
        self.rows_deleted += r.rows_deleted;
        self.dead_agree_sets += r.dead_agree_sets;
        self.fresh_agree_sets += r.fresh_agree_sets;
        self.rhs_rebuilt += r.rhs_rebuilt;
        self.candidates_revived += r.candidates_revived;
        self.cold_fallbacks += r.cold_fallback as usize;
    }
}

impl DeltaEngine {
    /// Cold build: exhaustive evidence collection on `relation`, producing
    /// the exact minimal cover plus the support bookkeeping deltas need.
    pub fn new(relation: Relation, threads: usize) -> DeltaEngine {
        let threads = threads.max(1);
        let mirror = relation.row_major();
        let (support, ncover, pcover, constant) = cold_state(&relation, &mirror, threads);
        DeltaEngine {
            relation,
            mirror,
            threads,
            support,
            ncover,
            pcover,
            constant,
            stats: DeltaStats::default(),
        }
    }

    /// The relation the current cover describes (post any applied deltas).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The current exact minimal cover.
    pub fn fds(&self) -> FdSet {
        self.pcover.to_fdset()
    }

    /// Size of the current cover, `fds().len()` without materializing it.
    pub fn fd_count(&self) -> usize {
        self.pcover.len()
    }

    /// Lifetime delta counters.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Worker threads used for inversion.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct agree sets currently holding evidence.
    pub fn support_keys(&self) -> usize {
        self.support.len()
    }

    /// Applies a row delta (`inserts` appended, `deletes` removed by
    /// pre-delta row id) and incrementally repairs the covers. See the
    /// module docs for the insert/delete asymmetry and the cost.
    ///
    /// # Panics
    /// Panics, before anything mutates, if the delta fails
    /// [`Relation::check_delta`]: a deleted id out of range, an inserted
    /// row of the wrong width, or an inserted label on column `a` not below
    /// `n_distinct(a) + inserts.len() + FRESH_LABEL_HEADROOM`.
    ///
    /// [`FRESH_LABEL_HEADROOM`]: fd_relation::FRESH_LABEL_HEADROOM
    pub fn apply_delta(&mut self, inserts: &[Vec<u32>], deletes: &[RowId]) -> DeltaReport {
        self.apply_delta_inner(inserts, deletes).0
    }

    /// [`DeltaEngine::apply_delta`] plus surgical [`PliCache`] maintenance:
    /// after the covers are repaired, cached partitions are rebuilt
    /// (singles), remapped (derived entries, across deletes) or evicted
    /// (entries an inserted non-fresh label can reach) so the cache stays
    /// transparent.
    pub fn apply_delta_with_cache(
        &mut self,
        inserts: &[Vec<u32>],
        deletes: &[RowId],
        cache: &mut PliCache,
    ) -> DeltaReport {
        let (report, delta) = self.apply_delta_inner(inserts, deletes);
        let _patch = fd_telemetry::span!("delta.cache_patch");
        cache.apply_delta(&self.relation, &delta);
        report
    }

    fn apply_delta_inner(&mut self, inserts: &[Vec<u32>], deletes: &[RowId]) -> (DeltaReport, RowDelta) {
        if let Err(e) = self.relation.check_delta(inserts, deletes) {
            panic!("{e}");
        }
        let mut dels: Vec<RowId> = deletes.to_vec();
        dels.sort_unstable();
        dels.dedup();

        let mut report = DeltaReport {
            rows_inserted: inserts.len(),
            rows_deleted: dels.len(),
            ..DeltaReport::default()
        };
        fd_telemetry::counter!("delta.rows_inserted", inserts.len() as u64);
        fd_telemetry::counter!("delta.rows_deleted", dels.len() as u64);

        // Fault site: a failed allocation mid-delta degrades to the cold
        // path — the structural update still happens, then everything is
        // rebuilt from the new relation. Slower, never wrong.
        if fd_faults::inject!("delta.apply") == Some(fd_faults::Injected::AllocFail) {
            let delta = self.relation.apply_delta(inserts, &dels);
            self.mirror = self.relation.row_major();
            let (support, ncover, pcover, constant) =
                cold_state(&self.relation, &self.mirror, self.threads);
            self.support = support;
            self.ncover = ncover;
            self.pcover = pcover;
            self.constant = constant;
            report.cold_fallback = true;
            fd_telemetry::counter!("delta.candidates_revived", 0);
            self.stats.absorb(&report);
            return (report, delta);
        }

        let m = self.relation.n_attrs();

        // ── 1. Delete pass, on the *old* relation: retire every incidence a
        // deleted row participates in, once per dying pair.
        let mut dead: Vec<AttrSet> = Vec::new();
        if !dels.is_empty() {
            let _pass = fd_telemetry::span!("delta.delete_pass");
            let support = &mut self.support;
            for_each_pair_agree(&self.relation, &self.mirror, &dels, &mut |_, _, s| {
                match support.get_mut(&s) {
                    Some(count) => {
                        debug_assert!(*count >= s.len() as u64);
                        *count -= s.len() as u64;
                        if *count == 0 {
                            support.remove(&s);
                            dead.push(s);
                        }
                    }
                    None => debug_assert!(false, "deleted pair's agree set {s:?} not in support"),
                }
            });
        }

        // ── 2. Structural update: compact survivors, append inserts — in
        // the relation and, with the same compaction, in the mirror.
        let delta = {
            let _update = fd_telemetry::span!("delta.structural_update");
            let delta = self.relation.apply_delta(inserts, &dels);
            self.mirror.apply_delta(inserts, &delta.deleted);
            delta
        };

        // ── 3. Insert pass, on the *new* relation: only pairs with an
        // inserted member are new.
        let mut fresh: FastHashSet<AttrSet> = FastHashSet::default();
        if !delta.inserted.is_empty() {
            let _pass = fd_telemetry::span!("delta.insert_pass");
            let support = &mut self.support;
            for_each_pair_agree(&self.relation, &self.mirror, &delta.inserted, &mut |_, _, s| {
                let count = support.entry(s).or_insert(0);
                if *count == 0 {
                    fresh.insert(s);
                }
                *count += s.len() as u64;
            });
        }

        let _rebuild = fd_telemetry::span!("delta.rhs_rebuild");
        // ── 4. Constancy flips. `∅ ↛ a` evidence is not pair-supported (a
        // pair with an empty agree set is co-clustered nowhere), so it
        // tracks column constancy directly. Label holes after deletes mean
        // `n_distinct` is only a bound — `is_constant` scans values.
        let new_constant: Vec<bool> =
            (0..m).map(|a| self.relation.is_constant(a as AttrId)).collect();

        // ── 5. Affected RHS: every attribute outside a dead agree set lost
        // a non-FD, and every newly constant column lost its ∅ seed.
        let all = AttrSet::full(m);
        let mut affected = AttrSet::empty();
        for s in &dead {
            affected = affected.union(&all.difference(s));
        }
        for a in 0..m {
            if new_constant[a] && !self.constant[a] {
                affected.insert(a as AttrId);
            }
        }

        // ── 6. Rebuild the affected RHSs from surviving evidence: the
        // negative cover in one pass over the support keys that lack some
        // affected RHS, then each positive-cover tree by re-inversion from
        // {∅} — generalizing old candidates bottom-up is not enough, the
        // cover is a function of the maximal surviving non-FDs only, which
        // is exactly what the rebuilt negative cover holds per RHS.
        if !affected.is_empty() {
            let mut keys: Vec<AttrSet> =
                self.support.keys().filter(|s| !affected.is_subset_of(s)).copied().collect();
            keys.sort_unstable();
            let seeded: AttrSet = affected.iter().filter(|&a| !new_constant[a as usize]).collect();
            self.ncover.rebuild(&affected, &keys, &seeded);
            for rhs in affected.iter() {
                let mut maximal = self.ncover.lhss(rhs);
                maximal.sort_unstable();
                report.candidates_revived += self.pcover.rebuild_rhs(rhs, maximal);
                report.rhs_rebuilt += 1;
            }
        }

        // ── 7. Fold fresh insert evidence into the remaining trees. For an
        // affected RHS the rebuild above already consumed it (fresh keys are
        // support keys), so `add_agree_set_collect` is a no-op there and
        // `pending` only carries non-FDs for untouched trees.
        let mut pending: Vec<Fd> = Vec::new();
        let mut fresh_sorted: Vec<AttrSet> = fresh.into_iter().collect();
        fresh_sorted.sort_unstable();
        for &s in &fresh_sorted {
            self.ncover.add_agree_set_collect(s, &mut pending);
        }
        for a in 0..m {
            if !new_constant[a] && self.constant[a] {
                let seed = Fd::new(AttrSet::empty(), a as AttrId);
                if self.ncover.add(seed) {
                    pending.push(seed);
                }
            }
        }
        self.pcover.invert_batch(&mut pending, self.threads, &Budget::unlimited());

        report.dead_agree_sets = dead.len();
        report.fresh_agree_sets = fresh_sorted.len();
        fd_telemetry::counter!("delta.candidates_revived", report.candidates_revived as u64);
        self.constant = new_constant;
        self.stats.absorb(&report);
        (report, delta)
    }
}

/// Exhaustive evidence collection: the support multiset over all intra-
/// cluster pairs, the canonical negative cover (maximal non-FDs plus the
/// `∅ ↛ a` seed per non-constant column), and its inversion. `mirror` is
/// the row-major mirror of `relation`.
fn cold_state(
    relation: &Relation,
    mirror: &RowMajor,
    threads: usize,
) -> (FastHashMap<AttrSet, u64>, NCover, PCover, Vec<bool>) {
    let m = relation.n_attrs();
    let mut support: FastHashMap<AttrSet, u64> = FastHashMap::default();
    let all: Vec<RowId> = (0..relation.n_rows() as RowId).collect();
    for_each_pair_agree(relation, mirror, &all, &mut |_, _, s| {
        *support.entry(s).or_insert(0) += s.len() as u64;
    });
    let constant: Vec<bool> = (0..m).map(|a| relation.is_constant(a as AttrId)).collect();
    let mut ncover = NCover::new(m);
    for (a, &is_const) in constant.iter().enumerate() {
        if !is_const {
            ncover.add(Fd::new(AttrSet::empty(), a as AttrId));
        }
    }
    let mut keys: Vec<AttrSet> = support.keys().copied().collect();
    keys.sort_unstable();
    for s in keys {
        ncover.add_agree_set(s);
    }
    let mut pcover = PCover::initialized(m);
    pcover.invert_batch(&mut ncover.to_fds(), threads, &Budget::unlimited());
    (support, ncover, pcover, constant)
}

/// No group: the label slot of a label no target carries.
const NO_GROUP: u32 = u32::MAX;

/// Calls `f(r, u, agree_set(r, u))` exactly once per unordered row pair
/// that has a member in `targets` and shares at least one column value,
/// where `r` is the target member (the larger id when both are targets).
/// `targets` must be ascending and distinct. The agree set comes from the
/// bit-packed row-major kernel on `mirror`, the row-major copy of
/// `relation`.
///
/// One pass per column gathers the mate group of every target label: a
/// dense slot vector indexed by label (labels are `< n_distinct`) names the
/// group, and a counting sort lays the groups out flat. Each target then
/// walks its groups across all columns, and a per-row stamp skips the mates
/// already seen on an earlier column, so every pair's agree set is computed
/// once, however many columns it agrees on.
fn for_each_pair_agree(
    relation: &Relation,
    mirror: &RowMajor,
    targets: &[RowId],
    f: &mut dyn FnMut(RowId, RowId, AttrSet),
) {
    if targets.is_empty() || relation.n_rows() < 2 {
        return;
    }
    debug_assert!(targets.windows(2).all(|w| w[0] < w[1]), "targets must be ascending");
    let m = relation.n_attrs();
    let n = targets.len();
    // Group `g` holds `members[offsets[g]..offsets[g + 1]]`, ascending;
    // target `i`'s group on column `a` is `group_of[a * n + i]`.
    let mut group_of: Vec<u32> = Vec::with_capacity(m * n);
    let mut offsets: Vec<usize> = vec![0];
    let mut members: Vec<RowId> = Vec::new();
    let max_labels = (0..m).map(|a| relation.n_distinct(a as AttrId)).max().unwrap_or(0);
    let mut slot: Vec<u32> = vec![NO_GROUP; max_labels];
    let mut matched: Vec<(u32, RowId)> = Vec::new();
    for a in 0..m {
        let col = relation.column(a as AttrId);
        let first = offsets.len() - 1;
        for &r in targets {
            let s = &mut slot[col[r as usize] as usize];
            if *s == NO_GROUP {
                let g = offsets.len() - 1;
                assert!(g < NO_GROUP as usize, "mate group ids must fit in u32");
                *s = g as u32;
                offsets.push(0);
            }
            group_of.push(*s);
        }
        // One column pass finds the rows of the target labels; a counting
        // sort over just those rows lays the groups out, rows ascending.
        matched.clear();
        for (t, &label) in col.iter().enumerate() {
            let g = slot[label as usize];
            if g != NO_GROUP {
                matched.push((g, t as RowId));
            }
        }
        for &(g, _) in &matched {
            offsets[g as usize + 1] += 1;
        }
        for g in first..offsets.len() - 1 {
            offsets[g + 1] += offsets[g];
        }
        members.resize(offsets[offsets.len() - 1], 0);
        let mut cursor: Vec<usize> = offsets[first..offsets.len() - 1].to_vec();
        for &(g, t) in &matched {
            let c = &mut cursor[g as usize - first];
            members[*c] = t;
            *c += 1;
        }
        for &r in targets {
            slot[col[r as usize] as usize] = NO_GROUP;
        }
    }
    let mut is_target = vec![false; relation.n_rows()];
    for &r in targets {
        is_target[r as usize] = true;
    }
    // A pair of two targets counts from its larger id. When the targets are
    // the last rows (the insert pass, the cold build), every mate above `r`
    // is a target, so each group is cut at `r`.
    let suffix = targets[0] as usize == relation.n_rows() - n;
    let mut stamp: Vec<u32> = vec![0; relation.n_rows()];
    for (i, &r) in targets.iter().enumerate() {
        let mark = i as u32 + 1;
        stamp[r as usize] = mark;
        for a in 0..m {
            let g = group_of[a * n + i] as usize;
            let mut group = &members[offsets[g]..offsets[g + 1]];
            if suffix {
                group = &group[..group.partition_point(|&u| u < r)];
            }
            for &u in group {
                if stamp[u as usize] != mark {
                    stamp[u as usize] = mark;
                    if u < r || !is_target[u as usize] {
                        f(r, u, mirror.agree_set(r, u));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::invert_ncover;
    use fd_relation::synth::patient;

    /// Exhaustive pairwise induction — the ground-truth oracle.
    fn oracle(r: &Relation) -> FdSet {
        let mut nc = NCover::new(r.n_attrs());
        for a in 0..r.n_attrs() as AttrId {
            if !r.is_constant(a) {
                nc.add(Fd::new(AttrSet::empty(), a));
            }
        }
        for t in 0..r.n_rows() as u32 {
            for u in t + 1..r.n_rows() as u32 {
                nc.add_agree_set(r.agree_set(t, u));
            }
        }
        invert_ncover(&nc).to_fdset()
    }

    fn assert_engine_exact(engine: &DeltaEngine) {
        assert_eq!(engine.fds(), oracle(engine.relation()));
        // Byte-identity with a cold engine on the same relation.
        let cold = DeltaEngine::new(engine.relation().clone(), engine.threads());
        assert_eq!(engine.fds(), cold.fds());
        assert_eq!(engine.support, cold.support);
        assert_eq!(engine.constant, cold.constant);
    }

    #[test]
    fn cold_engine_matches_exhaustive_induction() {
        let engine = DeltaEngine::new(patient(), 2);
        assert_eq!(engine.fds(), oracle(engine.relation()));
        assert!(engine.support_keys() > 0);
    }

    #[test]
    fn insert_only_delta_is_exact() {
        let mut engine = DeltaEngine::new(patient(), 1);
        // One duplicate-ish row (all labels existing) and one fresh row.
        let inserts =
            vec![vec![0, 0, 0, 0, 0], vec![9, 5, 3, 2, 4]];
        let report = engine.apply_delta(&inserts, &[]);
        assert_eq!(report.rows_inserted, 2);
        assert_eq!(report.rows_deleted, 0);
        assert_eq!(report.rhs_rebuilt, 0, "inserts never rebuild");
        assert!(!report.cold_fallback);
        assert_eq!(engine.relation().n_rows(), 11);
        assert_engine_exact(&engine);
    }

    #[test]
    fn delete_only_delta_revives_killed_candidates() {
        // x = [0,0,1], y = [0,1,2]: pair (0,1) agrees on x but not y, so
        // x → y is invalidated. Deleting row 1 kills that evidence and the
        // minimal candidate x → y must come back.
        let r = Relation::from_encoded_columns(
            "revive",
            vec!["x".into(), "y".into()],
            vec![vec![0, 0, 1], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::single(0), 1)));
        let report = engine.apply_delta(&[], &[1]);
        assert_eq!(report.dead_agree_sets, 1);
        assert_eq!(report.rhs_rebuilt, 1);
        assert_eq!(report.candidates_revived, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::single(0), 1)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn delete_can_flip_a_column_to_constant() {
        // Deleting row 3 leaves column a constant: ∅ → a must appear even
        // though no pair-supported evidence changed (the dying pairs had
        // empty agree sets and were never enumerated).
        let r = Relation::from_encoded_columns(
            "flip",
            vec!["a".into(), "b".into()],
            vec![vec![0, 0, 0, 1], vec![0, 1, 2, 3]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        let report = engine.apply_delta(&[], &[3]);
        assert_eq!(report.dead_agree_sets, 0);
        assert_eq!(report.rhs_rebuilt, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn insert_can_flip_a_constant_column_back() {
        // A constant column gains a second value: its ∅ → a collapses to
        // b → a purely through the ∅ ↛ a seed (the new pairs agree on
        // nothing, so the support map never hears about them).
        let r = Relation::from_encoded_columns(
            "unflip",
            vec!["a".into(), "b".into()],
            vec![vec![0, 0, 0], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        let report = engine.apply_delta(&[vec![1, 3]], &[]);
        assert_eq!(report.fresh_agree_sets, 0);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        assert!(engine.fds().contains(&Fd::new(AttrSet::single(1), 0)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn mixed_delta_with_reused_and_fresh_labels_is_exact() {
        let mut engine = DeltaEngine::new(patient(), 2);
        let inserts = vec![
            vec![2, 1, 0, 1, 2], // existing labels only
            vec![9, 9, 9, 0, 9], // mostly fresh labels
            vec![2, 1, 0, 0, 2], // near-duplicate of the first insert
        ];
        let report = engine.apply_delta(&inserts, &[0, 4, 7]);
        assert_eq!(report.rows_inserted, 3);
        assert_eq!(report.rows_deleted, 3);
        assert_engine_exact(&engine);
        // A follow-up delta on the already-patched relation stays exact:
        // deltas compose.
        engine.apply_delta(&[vec![2, 1, 0, 1, 2]], &[2, 5]);
        assert_engine_exact(&engine);
        assert_eq!(engine.stats().deltas_applied, 2);
        assert_eq!(engine.stats().rows_inserted, 4);
        assert_eq!(engine.stats().rows_deleted, 5);
    }

    #[test]
    fn duplicate_delete_ids_are_collapsed() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let report = engine.apply_delta(&[], &[3, 3, 3]);
        assert_eq!(report.rows_deleted, 1);
        assert_eq!(engine.relation().n_rows(), 8);
        assert_engine_exact(&engine);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let before = engine.fds();
        let report = engine.apply_delta(&[], &[]);
        assert_eq!(report, DeltaReport::default());
        assert_eq!(engine.fds(), before);
    }

    #[test]
    fn delta_with_cache_keeps_cached_partitions_transparent() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let mut cache = PliCache::new(1 << 16);
        // Warm the cache with singles and a derived entry.
        for a in 0..engine.relation().n_attrs() as AttrId {
            cache.single(engine.relation(), a);
        }
        let derived = AttrSet::from_attrs([1u16, 2]);
        cache.get(engine.relation(), &derived);
        engine.apply_delta_with_cache(&[vec![0, 1, 2, 1, 4]], &[6], &mut cache);
        // Every cache read after the delta must equal a fresh computation.
        let fresh = fd_relation::Partition::of_column(engine.relation(), 0).stripped();
        assert_eq!(*cache.single(engine.relation(), 0), fresh);
        let got = cache.get(engine.relation(), &derived);
        let want = fd_relation::Partition::of_column(engine.relation(), 1)
            .stripped()
            .product(&fd_relation::Partition::of_column(engine.relation(), 2).stripped());
        assert_eq!(*got, want);
        assert_engine_exact(&engine);
    }

    #[test]
    fn mirror_and_support_track_random_waves() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(19);
        let columns: Vec<Vec<u32>> =
            (0..4).map(|a| (0..40).map(|_| rng.gen_range(0..2 + a as u32)).collect()).collect();
        let names = (0..4).map(|a| format!("c{a}")).collect();
        let relation = Relation::from_encoded_columns("waves", names, columns);
        let mut engine = DeltaEngine::new(relation, 1);
        for wave in 0..12 {
            let n = engine.relation().n_rows() as u32;
            let deletes: Vec<RowId> = (0..rng.gen_range(0..6usize))
                .filter(|_| n > 0)
                .map(|_| rng.gen_range(0..n))
                .collect();
            let inserts: Vec<Vec<u32>> = (0..rng.gen_range(0..6usize))
                .map(|_| (0..4).map(|a| rng.gen_range(0..3 + a as u32)).collect())
                .collect();
            engine.apply_delta(&inserts, &deletes);
            let fresh = engine.relation().row_major();
            assert_eq!(engine.mirror.n_rows(), fresh.n_rows(), "wave {wave}");
            for t in 0..fresh.n_rows() as RowId {
                assert_eq!(engine.mirror.row(t), fresh.row(t), "wave {wave}, row {t}");
            }
            let (support, ..) = cold_state(engine.relation(), &fresh, 1);
            assert_eq!(engine.support, support, "wave {wave}");
        }
    }

    #[test]
    fn pair_enumeration_reports_each_qualifying_pair_once() {
        let r = Relation::from_encoded_columns(
            "pairs",
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![0, 0, 1, 1, 0, 2, 2, 0],
                vec![0, 1, 1, 0, 0, 1, 2, 3],
                vec![0, 0, 0, 1, 1, 1, 2, 2],
            ],
        );
        let rm = r.row_major();
        let n = r.n_rows() as RowId;
        // Brute force over all unordered pairs: a pair touching the targets
        // that shares a value is reported once, from its target member (the
        // larger one when both are targets).
        let brute = |targets: &[RowId]| {
            let mut want = Vec::new();
            for t in 0..n {
                for u in t + 1..n {
                    let s = r.agree_set(t, u);
                    if s.is_empty() {
                        continue;
                    }
                    if targets.contains(&u) {
                        want.push((u, t, s));
                    } else if targets.contains(&t) {
                        want.push((t, u, s));
                    }
                }
            }
            want.sort_unstable();
            want
        };
        // Scattered targets (the delete pass), with and without the last
        // row; a tail (the insert pass); every row (the cold build).
        for targets in [vec![1, 4, 5], vec![0, 3, 7], vec![6, 7], (0..n).collect()] {
            let mut got = Vec::new();
            for_each_pair_agree(&r, &rm, &targets, &mut |t, u, s| got.push((t, u, s)));
            got.sort_unstable();
            assert_eq!(got, brute(&targets), "targets {targets:?}");
        }
    }

    #[test]
    fn deleting_everything_leaves_the_vacuous_cover() {
        let r = Relation::from_encoded_columns(
            "drain",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1, 0], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        engine.apply_delta(&[], &[0, 1, 2]);
        assert_eq!(engine.relation().n_rows(), 0);
        assert_eq!(engine.support_keys(), 0);
        // Vacuously constant columns: ∅ → a for every attribute.
        assert_eq!(engine.fds().len(), 2);
        assert!(engine.fds().iter().all(|fd| fd.lhs.is_empty()));
        assert_engine_exact(&engine);
    }
}
