//! Dep-Miner [22] — exact discovery via agree-set maximization and
//! level-wise left-hand-side generation.
//!
//! The other member of the paper's difference-/agree-set family
//! (Section II-A). Dep-Miner shares FastFDs' substrate — maximal agree sets
//! per RHS — but replaces the depth-first cover search with an Apriori-style
//! level-wise generation of minimal transversals:
//!
//! 1. collect maximal agree sets (as in FastFDs);
//! 2. per RHS `A`, the complements `R ∖ S ∖ {A}` must each be *hit* by any
//!    valid LHS;
//! 3. level 1 candidates are the single attributes occurring in some
//!    complement; a candidate hitting every complement is a minimal FD LHS
//!    and is not extended; the rest are joined pairwise (shared prefix) into
//!    the next level, pruning supersets of found covers.
//!
//! Every minimal transversal is reached because all proper subsets of a
//! minimal transversal are non-covers and therefore survive to be joined.

use crate::agree::AgreeSetCollector;
use fd_core::budget::POLL_STRIDE;
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, Termination};
use fd_relation::{FdAlgorithm, Relation};

/// The Dep-Miner exact discovery algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepMiner;

impl DepMiner {
    /// Dep-Miner.
    pub fn new() -> Self {
        DepMiner
    }
}

impl FdAlgorithm for DepMiner {
    fn name(&self) -> &str {
        "Dep-Miner"
    }

    /// Polls the budget during agree-set collection, per RHS, per
    /// transversal level, and every [`POLL_STRIDE`] Apriori joins.
    ///
    /// Partial-result semantics mirror FastFDs: a transversal emitted before
    /// a trip hit *every* complement, so it is a true minimal FD of the
    /// instance; if collection itself was truncated the complements are
    /// incomplete, and an empty set is returned with the trip reason.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        let ncover = match AgreeSetCollector::new().collect(relation, budget) {
            (Some(n), Termination::Converged) => n,
            (_, t) => return (FdSet::new(), t),
        };
        let full = AttrSet::full(m);
        let mut out = FdSet::new();
        for rhs in 0..m as AttrId {
            if let Some(t) = budget.poll(0, out.len()) {
                return (out, t);
            }
            // Value scan, not the `n_distinct` label bound: a delta-mutated
            // relation can report `n_distinct > 1` for a constant column.
            if relation.is_constant(rhs) {
                out.insert(Fd::new(AttrSet::empty(), rhs));
                continue;
            }
            let complements: Vec<AttrSet> = ncover
                .lhss(rhs)
                .into_iter()
                .map(|agree| full.difference(&agree).without(rhs))
                .collect();
            if complements.iter().any(|d| d.is_empty()) {
                continue; // some pair agrees everywhere else: rhs underivable
            }
            let (transversals, tripped) = levelwise_transversals_budgeted(&complements, budget);
            for lhs in transversals {
                out.insert(Fd::new(lhs, rhs));
            }
            if let Some(t) = tripped {
                return (out, t);
            }
        }
        (out, Termination::Converged)
    }
}

/// Level-wise minimal-transversal enumeration (Dep-Miner's
/// `gen_lhs`/Apriori-style loop). Production code goes through the budgeted
/// variant; this unbudgeted form backs the family-level unit tests.
#[cfg(test)]
fn levelwise_transversals(complements: &[AttrSet]) -> Vec<AttrSet> {
    levelwise_transversals_budgeted(complements, &Budget::unlimited()).0
}

/// [`levelwise_transversals`] with budget polls at each level and every
/// [`POLL_STRIDE`] joins. On a trip, the covers found so far (each a
/// validated minimal transversal) are returned with the reason.
fn levelwise_transversals_budgeted(
    complements: &[AttrSet],
    budget: &Budget,
) -> (Vec<AttrSet>, Option<Termination>) {
    // Attributes that appear in some complement; others can never help.
    let mut universe = AttrSet::empty();
    for d in complements {
        universe = universe.union(d);
    }
    let hits_all = |x: &AttrSet| complements.iter().all(|d| !d.intersect(x).is_empty());

    let mut covers: Vec<AttrSet> = Vec::new();
    let mut level: Vec<AttrSet> = universe.iter().map(AttrSet::single).collect();
    let mut tick = 0u32;
    while !level.is_empty() {
        if let Some(t) = budget.poll(0, level.len() + covers.len()) {
            return (covers, Some(t));
        }
        // Split the level into covers (emitted, not extended) and the rest.
        let mut rest: Vec<AttrSet> = Vec::new();
        for x in level {
            if hits_all(&x) {
                covers.push(x);
            } else {
                rest.push(x);
            }
        }
        // Apriori join on shared prefixes; prune supersets of found covers.
        rest.sort();
        let mut next: Vec<AttrSet> = Vec::new();
        for i in 0..rest.len() {
            for j in i + 1..rest.len() {
                tick = tick.wrapping_add(1);
                if tick.is_multiple_of(POLL_STRIDE) {
                    if let Some(t) = budget.poll_time() {
                        return (covers, Some(t));
                    }
                }
                let (a, b) = (rest[i], rest[j]);
                let common = a.intersect(&b);
                if common.len() != a.len() - 1 {
                    continue; // not in the same prefix block (sorted order)
                }
                // Joining any two k-sets overlapping in k−1 attributes is a
                // (slightly generous) superset of the classic prefix join —
                // complete by the Apriori argument, deduplicated below.
                let joined = a.union(&b);
                if covers.iter().any(|c| c.is_subset_of(&joined)) {
                    continue; // would be a non-minimal cover
                }
                next.push(joined);
            }
        }
        next.sort();
        next.dedup();
        level = next;
    }
    (covers, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

    #[test]
    fn depminer_matches_exhaustive_on_patient() {
        let r = patient();
        let fds = DepMiner::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(verify_fds(&r, &fds).is_empty());
    }

    #[test]
    fn depminer_matches_exhaustive_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        for seed in [6u64, 31, 77] {
            let g = Generator::new(
                "t",
                vec![
                    ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 5, skew: 0.0 }),
                    ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 3, skew: 0.4 }),
                    ColumnSpec::new(
                        "c",
                        ColumnKind::Derived { parents: vec![0, 1], cardinality: 4, noise: 0.0 },
                    ),
                    ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 7, skew: 0.2 }),
                    ColumnSpec::new(
                        "e",
                        ColumnKind::Derived { parents: vec![3], cardinality: 3, noise: 0.05 },
                    ),
                ],
                seed,
            );
            let r = g.generate(220);
            assert_eq!(DepMiner::new().discover(&r), Exhaustive.discover(&r), "seed {seed}");
        }
    }

    #[test]
    fn transversals_on_known_family() {
        // Complements {0,1}, {1,2}: minimal transversals are {1}, {0,2}.
        let family = vec![
            AttrSet::from_attrs([0u16, 1]),
            AttrSet::from_attrs([1u16, 2]),
        ];
        let mut t = levelwise_transversals(&family);
        t.sort();
        let mut expect = vec![AttrSet::single(1), AttrSet::from_attrs([0u16, 2])];
        expect.sort();
        assert_eq!(t, expect);
    }

    #[test]
    fn transversals_of_disjoint_sets_take_one_from_each() {
        let family = vec![AttrSet::from_attrs([0u16]), AttrSet::from_attrs([1u16])];
        let t = levelwise_transversals(&family);
        assert_eq!(t, vec![AttrSet::from_attrs([0u16, 1])]);
    }

    #[test]
    fn pair_limit_aborts() {
        let r = patient();
        let (fds, _) = DepMiner::new().discover_budgeted(&r, &Budget::unlimited().pair_cap(1));
        assert!(fds.is_empty());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let r = patient();
        let (fds, t) = DepMiner::new().discover_budgeted(&r, &Budget::unlimited());
        assert_eq!(t, Termination::Converged);
        assert_eq!(fds, DepMiner::new().discover(&r));
    }

    #[test]
    fn expired_deadline_returns_sound_partial() {
        use std::time::Duration;
        let r = patient();
        let budget = Budget::with_deadline(Duration::ZERO);
        let (fds, t) = DepMiner::new().discover_budgeted(&r, &budget);
        assert!(t.is_partial(), "zero deadline must trip");
        assert!(verify_fds(&r, &fds).is_empty());
    }
}
