//! Exhaustive lattice-enumeration oracle.
//!
//! Checks every candidate `X → A` over the full subset lattice with direct
//! verification against the relation. Exponential in the number of columns —
//! strictly a ground-truth oracle for tests and tiny datasets (≲ 15 columns),
//! never a benchmark contender.

use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, Termination};
use fd_relation::{FdAlgorithm, Relation};

/// The brute-force oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exhaustive;

impl FdAlgorithm for Exhaustive {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    /// Polls the budget once per RHS; a trip returns the FDs of the RHSs
    /// already enumerated, each verified and minimal.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        assert!(m <= 24, "exhaustive oracle is exponential; {m} columns is too many");
        let mut out = FdSet::new();
        for rhs in 0..m as AttrId {
            if let Some(t) = budget.poll(0, out.len()) {
                return (out, t);
            }
            // Breadth-first over LHS size so minimality is by construction:
            // a candidate is emitted only if no emitted subset determines rhs.
            let mut minimal: Vec<AttrSet> = Vec::new();
            let others: Vec<AttrId> =
                (0..m as AttrId).filter(|&a| a != rhs).collect();
            let n_other = others.len();
            for size in 0..=n_other {
                for mask in 0u32..(1u32 << n_other) {
                    if mask.count_ones() as usize != size {
                        continue;
                    }
                    let lhs = AttrSet::from_attrs(
                        others.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &a)| a),
                    );
                    if minimal.iter().any(|g| g.is_subset_of(&lhs)) {
                        continue; // a more general FD already holds
                    }
                    if relation.fd_holds(&lhs, rhs) {
                        minimal.push(lhs);
                        out.insert(Fd::new(lhs, rhs));
                    }
                }
            }
        }
        (out, Termination::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

    #[test]
    fn patient_dataset_ground_truth_is_verified() {
        let r = patient();
        let fds = Exhaustive.discover(&r);
        assert!(fds.is_minimal_cover());
        assert!(verify_fds(&r, &fds).is_empty());
        // Name is a key, so N → X is minimal for every other attribute.
        for rhs in 1..5u16 {
            assert!(fds.contains(&Fd::new(AttrSet::single(0), rhs)));
        }
        // AB → M from Example 1 is in the ground truth.
        assert!(fds.contains(&Fd::new(AttrSet::from_attrs([1u16, 2]), 4)));
        // G → M is not (t2 vs t8 violate it).
        assert!(!fds.contains(&Fd::new(AttrSet::single(3), 4)));
    }

    #[test]
    fn constant_column_yields_empty_lhs_fd() {
        let r = Relation::from_encoded_columns(
            "c",
            vec!["k".into(), "c".into()],
            vec![vec![0, 1, 2], vec![0, 0, 0]],
        );
        let fds = Exhaustive.discover(&r);
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 1)));
        // k is a key: k → c is subsumed by ∅ → c, so only 2 FDs total... in
        // fact ∅ → c generalizes k → c, leaving {∅→c, c↛k ⇒ nothing}: k has
        // no determinant because c is constant and cannot distinguish rows.
        assert_eq!(fds.len(), 1);
    }

    #[test]
    fn single_column_relation_has_no_fds() {
        let r = Relation::from_encoded_columns("one", vec!["a".into()], vec![vec![0, 1, 0]]);
        assert!(Exhaustive.discover(&r).is_empty());
    }

    #[test]
    fn two_identical_columns_determine_each_other() {
        let r = Relation::from_encoded_columns(
            "dup",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2, 1], vec![0, 1, 2, 1]],
        );
        let fds = Exhaustive.discover(&r);
        assert!(fds.contains(&Fd::new(AttrSet::single(0), 1)));
        assert!(fds.contains(&Fd::new(AttrSet::single(1), 0)));
        assert_eq!(fds.len(), 2);
    }
}
