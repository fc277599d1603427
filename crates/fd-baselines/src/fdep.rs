//! Fdep [11] — exact dependency induction.
//!
//! Compares **all** tuple pairs, collects the maximal non-FDs into a negative
//! cover, and inverts it into the positive cover (Section II-A, "dependency
//! induction algorithms"). Exact by construction; quadratic in the number of
//! tuples, which is precisely the row-scalability defect EulerFD's sampling
//! addresses.
//!
//! Comparing all `n·(n−1)/2` pairs naively is wasteful: only pairs agreeing
//! on at least one attribute produce a non-FD, and those pairs are exactly
//! the intra-cluster pairs of the stripped partitions. This implementation
//! therefore enumerates pairs per cluster (with a global dedup of agree
//! sets), which is the standard optimization and changes nothing about the
//! result.

use crate::agree::AgreeSetCollector;
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, NCover, PCover, Termination};
use fd_relation::{FdAlgorithm, Relation};

/// Adds `∅ ↛ A` for every non-constant column `A`. Every induction-based
/// algorithm needs this seed: cluster-driven pair enumeration never visits
/// pairs with empty agree sets, yet any non-constant column is violated by
/// one (Definition 2 with `X = ∅`).
pub(crate) fn seed_empty_lhs_non_fds(relation: &Relation, ncover: &mut NCover) {
    for a in 0..relation.n_attrs() {
        // Constancy is a value scan, not `n_distinct > 1`: after
        // `Relation::apply_delta` the distinct count is only a label bound
        // and may overshoot on a column whose last disagreeing rows were
        // deleted — seeding `∅ ↛ A` for such a column would assert a
        // violating pair that does not exist.
        if !relation.is_constant(a as AttrId) {
            ncover.add(Fd::new(AttrSet::empty(), a as AttrId));
        }
    }
}

/// The Fdep exact induction algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fdep {
    /// Worker threads for the pairwise enumeration (an extension over the
    /// single-threaded original; 0/1 = sequential).
    pub threads: usize,
}

impl Fdep {
    /// Sequential Fdep.
    pub fn new() -> Self {
        Fdep::default()
    }

    /// Fdep with parallel agree-set enumeration.
    pub fn with_threads(threads: usize) -> Self {
        Fdep { threads }
    }
}

impl FdAlgorithm for Fdep {
    fn name(&self) -> &str {
        "Fdep"
    }

    /// Polls the budget per cluster of the pair enumeration; a pair cap
    /// below the relation's intra-cluster pair count refuses the run before
    /// any pair is compared. The inversion polls it too. Any trip returns
    /// the empty set: inverting a truncated negative cover, or a cover
    /// half-way, would claim FDs that some pair violates.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let collector = AgreeSetCollector::new().with_threads(self.threads);
        let ncover = match collector.collect(relation, budget) {
            (Some(ncover), Termination::Converged) => ncover,
            (_, t) => return (FdSet::new(), t),
        };
        let mut pcover = PCover::initialized(ncover.n_attrs());
        match pcover.invert_batch(&mut ncover.to_fds(), 1, budget) {
            (_, None) => (pcover.to_fdset(), Termination::Converged),
            (_, Some(t)) => (FdSet::new(), t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

    #[test]
    fn fdep_matches_exhaustive_on_patient() {
        let r = patient();
        let fdep = Fdep::new().discover(&r);
        let truth = Exhaustive.discover(&r);
        assert_eq!(fdep, truth);
        assert!(verify_fds(&r, &fdep).is_empty());
    }

    #[test]
    fn fdep_matches_exhaustive_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        let g = Generator::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 4, skew: 0.0 }),
                ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 3, skew: 0.5 }),
                ColumnSpec::new(
                    "c",
                    ColumnKind::Derived { parents: vec![0], cardinality: 2, noise: 0.0 },
                ),
                ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 6, skew: 0.0 }),
            ],
            5,
        );
        let r = g.generate(200);
        assert_eq!(Fdep::new().discover(&r), Exhaustive.discover(&r));
    }

    #[test]
    fn pair_limit_aborts_gracefully() {
        let r = patient();
        let (fds, t) = Fdep::new().discover_budgeted(&r, &Budget::unlimited().pair_cap(1));
        assert_eq!(t, Termination::PairBudget);
        assert!(fds.is_empty());
    }

    #[test]
    fn all_distinct_rows_still_yield_correct_fds() {
        // No pair agrees on any attribute, so cluster enumeration alone sees
        // no non-FD; the ∅-level seed must prevent the bogus ∅ → A claims.
        let r = Relation::from_encoded_columns(
            "keys",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2], vec![2, 1, 0]],
        );
        let fds = Fdep::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(verify_fds(&r, &fds).is_empty());
        // Both columns are keys, so each determines the other.
        assert_eq!(fds.len(), 2);
    }

    #[test]
    fn stale_distinct_bound_does_not_misclassify_constant_column() {
        // Regression: after `apply_delta` deletes, `n_distinct` is only a
        // label bound (max present label + 1). Delete the sole row carrying
        // label 0 of column y so the survivors all carry label 2: y is now
        // constant but the bound stays 3 — deciding constancy from the bound
        // would seed the bogus non-FD `∅ ↛ y` and suppress the true FD
        // `∅ → y`.
        use crate::{DepMiner, FastFds};
        let mut r = Relation::from_encoded_columns(
            "d",
            vec!["k".into(), "y".into()],
            vec![vec![0, 1, 2, 3], vec![2, 0, 2, 2]],
        );
        r.apply_delta(&[], &[1]);
        assert!(r.n_distinct(1) > 1, "bound must stay stale for the test to bite");
        assert!(r.is_constant(1));
        let truth = Exhaustive.discover(&r);
        assert!(truth.contains(&fd_core::Fd::new(AttrSet::empty(), 1)));
        assert_eq!(Fdep::new().discover(&r), truth, "Fdep");
        assert_eq!(FastFds::new().discover(&r), truth, "FastFDs");
        assert_eq!(DepMiner::new().discover(&r), truth, "Dep-Miner");
        assert!(verify_fds(&r, &truth).is_empty());
    }

    #[test]
    fn constant_columns_keep_their_empty_lhs_fd() {
        let r = Relation::from_encoded_columns(
            "c",
            vec!["k".into(), "c".into()],
            vec![vec![0, 1, 2], vec![0, 0, 0]],
        );
        let fds = Fdep::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(fds.contains(&fd_core::Fd::new(AttrSet::empty(), 1)));
    }
}
