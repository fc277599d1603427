//! The common interface all FD discovery algorithms implement.
//!
//! Every algorithm in the workspace — the exact baselines, AID-FD, and
//! EulerFD itself — consumes a dictionary-encoded [`Relation`] and produces
//! the set of non-trivial minimal FDs it believes hold (the *target positive
//! cover* of Section III). The trait lives in the data crate so that the
//! algorithm crates stay independent of each other.

use crate::relation::Relation;
use fd_core::{Budget, FdSet, Termination};

/// A functional dependency discovery algorithm.
pub trait FdAlgorithm {
    /// Human-readable algorithm name, as used in the paper's tables.
    fn name(&self) -> &str;

    /// Discovers non-trivial minimal FDs of `relation` under `budget`,
    /// returning them with the [`Termination`] that ended the run. An
    /// unlimited budget gives the full answer and `Converged`; a trip
    /// returns the algorithm's partial result (DESIGN.md §9 lists what each
    /// algorithm keeps) with the trip's reason.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination);

    /// Discovers non-trivial minimal FDs of `relation` without limits.
    fn discover(&self, relation: &Relation) -> FdSet {
        self.discover_budgeted(relation, &Budget::unlimited()).0
    }
}

/// Verifies a discovered FD set against the full relation: every reported FD
/// must hold, and removing any single LHS attribute must break it
/// (semantic minimality). Returns the list of violations as human-readable
/// strings; empty means fully verified. Intended for tests and the harness —
/// it is exhaustive, not fast.
pub fn verify_fds(relation: &Relation, fds: &FdSet) -> Vec<String> {
    let schema = relation.column_names();
    let mut problems = Vec::new();
    for fd in fds {
        if !fd.is_non_trivial() {
            problems.push(format!("{} is trivial", fd.display(schema)));
            continue;
        }
        if !relation.fd_holds(&fd.lhs, fd.rhs) {
            problems.push(format!("{} does not hold", fd.display(schema)));
            continue;
        }
        for a in fd.lhs.iter() {
            let reduced = fd.lhs.without(a);
            if relation.fd_holds(&reduced, fd.rhs) {
                problems.push(format!(
                    "{} is not minimal: dropping {} still holds",
                    fd.display(schema),
                    schema.get(a as usize).cloned().unwrap_or_else(|| format!("#{a}"))
                ));
                break;
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::patient;
    use fd_core::{AttrSet, Fd};

    #[test]
    fn verify_accepts_true_minimal_fds() {
        let r = patient();
        let fds: FdSet = [
            Fd::new(AttrSet::from_attrs([1u16, 2]), 4), // AB → M (Example 1)
            Fd::new(AttrSet::single(0), 1),             // N → A (Name is a key)
        ]
        .into_iter()
        .collect();
        assert!(verify_fds(&r, &fds).is_empty());
    }

    #[test]
    fn verify_flags_invalid_trivial_and_non_minimal() {
        let r = patient();
        let fds: FdSet = [
            Fd::new(AttrSet::single(3), 4),             // G ↛ M: does not hold
            Fd::new(AttrSet::from_attrs([0u16, 4]), 4), // trivial
            Fd::new(AttrSet::from_attrs([0u16, 3]), 1), // NG → A: not minimal (N → A)
        ]
        .into_iter()
        .collect();
        let problems = verify_fds(&r, &fds);
        assert_eq!(problems.len(), 3);
        assert!(problems.iter().any(|p| p.contains("does not hold")));
        assert!(problems.iter().any(|p| p.contains("trivial")));
        assert!(problems.iter().any(|p| p.contains("not minimal")));
    }
}
