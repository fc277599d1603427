//! FastFDs [36] — exact discovery via difference sets.
//!
//! The representative of the paper's second family (Section II-A,
//! "difference- and agree-set algorithms", with Dep-Miner [22] sharing the
//! same agree-set substrate). The algorithm:
//!
//! 1. collects the *agree sets* of all tuple pairs (intra-cluster pairs of
//!    the stripped partitions; pairs agreeing nowhere only affect `∅ → A`,
//!    which is decided directly by column constancy);
//! 2. for each RHS `A`, forms the *minimal difference sets*
//!    `D^A = { R ∖ S ∖ {A} : S maximal agree set, A ∉ S }` — an FD `X → A`
//!    holds iff `X` hits every member of `D^A`;
//! 3. enumerates the minimal hitting sets ("covers") of `D^A` with the
//!    original's depth-first search, ordering attributes by how many
//!    uncovered difference sets they hit.
//!
//! Quadratic in rows like Fdep (same pair enumeration), but with a very
//! different column-side profile — the DFS explores the attribute lattice
//! per RHS instead of inverting a negative cover.

use crate::agree::AgreeSetCollector;
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, LhsTree, Termination};
use fd_relation::{FdAlgorithm, Relation};

/// The FastFDs exact discovery algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastFds;

impl FastFds {
    /// FastFDs.
    pub fn new() -> Self {
        FastFds
    }
}

impl FdAlgorithm for FastFds {
    fn name(&self) -> &str {
        "FastFDs"
    }

    /// Polls the budget during agree-set collection, per RHS, and at every
    /// DFS node of the cover search.
    ///
    /// Partial-result semantics: covers emitted before a trip were each
    /// validated against the *complete* difference-set family, so they are
    /// true minimal FDs — only completeness is lost. If the budget trips
    /// during agree-set collection itself, the difference sets are
    /// incomplete and any cover computed from them could be a false FD, so
    /// an empty set is returned with the trip reason.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        let ncover = {
            let _phase = fd_telemetry::span!("fastfds.collect");
            match AgreeSetCollector::new().collect(relation, budget) {
                (Some(n), Termination::Converged) => n,
                (_, t) => return (FdSet::new(), t),
            }
        };
        let _phase = fd_telemetry::span!("fastfds.cover_search");
        let mut out = FdSet::new();
        let full = AttrSet::full(m);
        for rhs in 0..m as AttrId {
            if let Some(t) = budget.poll(0, out.len()) {
                return (out, t);
            }
            if relation.is_constant(rhs) {
                // Constant column: ∅ → rhs is the unique minimal FD. The
                // value scan (not the `n_distinct` label bound) keeps this
                // correct on delta-mutated relations.
                out.insert(Fd::new(AttrSet::empty(), rhs));
                continue;
            }
            // Minimal difference sets = complements of maximal agree sets.
            let diff_sets: Vec<AttrSet> = ncover
                .lhss(rhs)
                .into_iter()
                .map(|agree| full.difference(&agree).without(rhs))
                .collect();
            if diff_sets.iter().any(|d| d.is_empty()) {
                continue; // some pair agrees on R∖{rhs}: no FD determines rhs
            }
            let mut covers = LhsTree::new();
            let candidates = full.without(rhs);
            let tripped = search_covers(
                &diff_sets,
                &diff_sets,
                candidates,
                AttrSet::empty(),
                &mut covers,
                budget,
            );
            covers.for_each(|lhs| {
                out.insert(Fd::new(lhs, rhs));
            });
            if let Some(t) = tripped {
                return (out, t);
            }
        }
        (out, Termination::Converged)
    }
}

/// Depth-first minimal-cover search over the difference sets. `current` is
/// the partial cover; `allowed` restricts branching so every attribute set
/// is visited at most once (an attribute is excluded from all later sibling
/// branches once its own branch has been explored).
///
/// The budget is polled at every node; on a trip the search unwinds
/// immediately, returning the reason. Covers already stored stay valid —
/// each was checked against the full difference-set family at its leaf.
fn search_covers(
    all: &[AttrSet],
    remaining: &[AttrSet],
    allowed: AttrSet,
    current: AttrSet,
    covers: &mut LhsTree,
    budget: &Budget,
) -> Option<Termination> {
    if let Some(t) = budget.poll_time() {
        return Some(t);
    }
    if remaining.is_empty() {
        // `current` hits everything; keep it only if it is a *minimal*
        // cover — every member must be the sole hitter of some difference
        // set (the original FastFDs leaf check; a greedily chosen attribute
        // can turn redundant once later choices cover its sets too).
        let minimal = current
            .iter()
            .all(|a| all.iter().any(|d| d.intersect(&current) == AttrSet::single(a)));
        if minimal && !covers.contains_subset_of(&current) {
            covers.insert(current);
        }
        return None;
    }
    if allowed.is_empty() {
        return None;
    }
    // A quick dominance prune: a stored cover that is a subset of `current`
    // makes every extension non-minimal.
    if covers.contains_subset_of(&current) {
        return None;
    }
    // Order candidate attributes by how many remaining sets they hit.
    let mut counts: Vec<(usize, AttrId)> = allowed
        .iter()
        .map(|a| (remaining.iter().filter(|d| d.contains(a)).count(), a))
        .filter(|&(c, _)| c > 0)
        .collect();
    // Descending coverage, ascending id for determinism.
    counts.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    // If some remaining set is hit by no allowed attribute, dead end.
    let hittable = |d: &AttrSet| !d.intersect(&allowed).is_empty();
    if !remaining.iter().all(hittable) {
        return None;
    }
    let mut rest_allowed = allowed;
    for (_, attr) in counts {
        // Branch: include `attr`, recurse on sets it does not hit; later
        // branches exclude it entirely (classic DFS de-duplication).
        rest_allowed.remove(attr);
        let next: Vec<AttrSet> =
            remaining.iter().filter(|d| !d.contains(attr)).copied().collect();
        if let Some(t) =
            search_covers(all, &next, rest_allowed, current.with(attr), covers, budget)
        {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

    #[test]
    fn fastfds_matches_exhaustive_on_patient() {
        let r = patient();
        let fds = FastFds::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(verify_fds(&r, &fds).is_empty());
    }

    #[test]
    fn fastfds_matches_exhaustive_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        for seed in [4u64, 29, 61] {
            let g = Generator::new(
                "t",
                vec![
                    ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 5, skew: 0.0 }),
                    ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 3, skew: 0.4 }),
                    ColumnSpec::new(
                        "c",
                        ColumnKind::Derived { parents: vec![0, 1], cardinality: 4, noise: 0.0 },
                    ),
                    ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 7, skew: 0.0 }),
                    ColumnSpec::new("e", ColumnKind::Constant),
                ],
                seed,
            );
            let r = g.generate(250);
            assert_eq!(FastFds::new().discover(&r), Exhaustive.discover(&r), "seed {seed}");
        }
    }

    #[test]
    fn fastfds_handles_all_distinct_rows() {
        let r = Relation::from_encoded_columns(
            "keys",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2], vec![2, 1, 0]],
        );
        assert_eq!(FastFds::new().discover(&r), Exhaustive.discover(&r));
    }

    #[test]
    fn pair_limit_aborts() {
        let r = patient();
        let (fds, _) = FastFds::new().discover_budgeted(&r, &Budget::unlimited().pair_cap(1));
        assert!(fds.is_empty());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let r = patient();
        let (fds, t) = FastFds::new().discover_budgeted(&r, &Budget::unlimited());
        assert_eq!(t, Termination::Converged);
        assert_eq!(fds, FastFds::new().discover(&r));
    }

    #[test]
    fn expired_deadline_returns_sound_partial() {
        use std::time::Duration;
        let r = patient();
        let budget = Budget::with_deadline(Duration::ZERO);
        let (fds, t) = FastFds::new().discover_budgeted(&r, &budget);
        assert!(t.is_partial(), "zero deadline must trip");
        // Anything emitted must be a true FD of the instance.
        assert!(verify_fds(&r, &fds).is_empty());
    }

    #[test]
    fn structural_pair_guard_reports_pair_budget() {
        let r = patient();
        let (fds, t) = FastFds::new().discover_budgeted(&r, &Budget::unlimited().pair_cap(1));
        assert!(fds.is_empty());
        assert_eq!(t, Termination::PairBudget);
    }

    #[test]
    fn no_fd_when_a_pair_agrees_everywhere_else() {
        // Two rows agree on everything except the last column: nothing can
        // determine it, and its difference-set family contains ∅.
        let r = Relation::from_encoded_columns(
            "dup",
            vec!["x".into(), "y".into(), "z".into()],
            vec![vec![0, 0, 1], vec![0, 0, 1], vec![0, 1, 2]],
        );
        let fds = FastFds::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(fds.with_rhs(2).next().is_none(), "z must have no determinant");
    }
}
