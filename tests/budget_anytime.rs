//! Budgeted anytime execution, end to end: unlimited budgets are invisible,
//! tripped budgets return sound minimal partials within the deadline, and the
//! benchmark harness survives panicking algorithms.

use std::time::{Duration, Instant};

use eulerfd_suite::algo::EulerFd;
use eulerfd_suite::baselines::Tane;
use eulerfd_suite::core::{Budget, FdSet, Termination};
use eulerfd_suite::relation::synth::{self, ColumnKind, ColumnSpec, Generator};
use eulerfd_suite::relation::{verify_fds, FdAlgorithm, Relation};
use fd_bench::{run_isolated_algorithm, Algo, RunGuard, RunOutcome};
use proptest::prelude::*;

/// Every FD must be non-trivial (RHS outside the LHS) and minimal within the
/// returned set (no other FD on the same RHS with a strictly smaller LHS).
fn assert_minimal_nontrivial(fds: &FdSet) {
    for fd in fds.iter() {
        assert!(!fd.lhs.contains(fd.rhs), "trivial FD {fd:?}");
    }
    for a in fds.iter() {
        for b in fds.iter() {
            if a.rhs == b.rhs && a.lhs != b.lhs {
                assert!(
                    !a.lhs.is_subset_of(&b.lhs),
                    "non-minimal pair: {a:?} generalizes {b:?}"
                );
            }
        }
    }
}

/// A wide relation TANE cannot finish quickly: 28 low-cardinality columns
/// (keys only form ~6 attributes deep, so the lattice reaches levels with
/// hundreds of thousands of nodes) plus a constant and one planted FD so the
/// early levels still yield real dependencies for the partial result.
fn hostile_relation() -> Relation {
    let mut cols: Vec<ColumnSpec> = (0..28)
        .map(|i| {
            ColumnSpec::new(format!("c{i}"), ColumnKind::Categorical { cardinality: 3, skew: 0.0 })
        })
        .collect();
    cols.push(ColumnSpec::new("const", ColumnKind::Constant));
    cols.push(ColumnSpec::new(
        "dep",
        ColumnKind::Derived { parents: vec![0, 1], cardinality: 4, noise: 0.0 },
    ));
    Generator::new("hostile", cols, 99).generate(500)
}

#[test]
fn unlimited_budget_is_invisible_for_eulerfd() {
    let second = Generator::new(
        "inv-fixed",
        vec![
            ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 5, skew: 0.5 }),
            ColumnSpec::new(
                "b",
                ColumnKind::Derived { parents: vec![0], cardinality: 3, noise: 0.0 },
            ),
            ColumnSpec::new("c", ColumnKind::Categorical { cardinality: 8, skew: 0.0 }),
            ColumnSpec::new("k", ColumnKind::Key),
        ],
        7,
    )
    .generate(150);
    for relation in [synth::patient(), second] {
        let (plain, plain_report) =
            EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
        let (budgeted, report) =
            EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
        assert_eq!(plain, budgeted, "{}: unlimited budget changed the cover", relation.name());
        assert_eq!(report.termination, Termination::Converged);
        assert_eq!(plain_report.termination, Termination::Converged);
    }
}

#[test]
fn unlimited_budget_is_invisible_for_tane() {
    let relation = synth::patient();
    let plain = Tane::new().discover(&relation);
    let (budgeted, t) = Tane::new().discover_budgeted(&relation, &Budget::unlimited());
    assert_eq!(t, Termination::Converged);
    assert_eq!(plain, budgeted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Budget invariance over randomized relations: with no limits set, the
    /// budgeted EulerFD path is bit-for-bit the legacy path.
    #[test]
    fn eulerfd_budget_invariance_over_seeds(seed in 0u64..1000) {
        let g = Generator::new(
            "inv",
            vec![
                ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 6, skew: 0.0 }),
                ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 4, skew: 0.5 }),
                ColumnSpec::new(
                    "c",
                    ColumnKind::Derived { parents: vec![0], cardinality: 3, noise: 0.0 },
                ),
                ColumnSpec::new(
                    "d",
                    ColumnKind::Derived { parents: vec![0, 1], cardinality: 8, noise: 0.05 },
                ),
                ColumnSpec::new("e", ColumnKind::Key),
            ],
            seed,
        );
        let relation = g.generate(120);
        let plain = EulerFd::new().discover(&relation);
        let (budgeted, report) =
            EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
        prop_assert_eq!(report.termination, Termination::Converged);
        prop_assert_eq!(plain, budgeted);
    }
}

#[test]
fn tripped_pair_budget_yields_minimal_nontrivial_partial() {
    // A moderate-width relation: on very wide random data even the *true*
    // minimal cover is exponentially large, so a sound pair-budget partial
    // (which still inverts every sampled non-FD) would be just as big. The
    // pair cap governs sampling work, not cover size — `cover_cap` guards
    // that axis and is exercised separately in the driver's unit tests.
    let relation = synth::dataset_spec("abalone")
        .expect("abalone generator is registered")
        .generate(1500);
    let budget = Budget::unlimited().pair_cap(500);
    let (fds, report) = EulerFd::new().discover_budgeted(&relation, &budget);
    assert_eq!(report.termination, Termination::PairBudget);
    assert!(report.is_partial());
    assert!(!fds.is_empty());
    assert_minimal_nontrivial(&fds);
}

#[test]
fn hostile_tane_respects_a_200ms_deadline() {
    let relation = hostile_relation();
    let deadline = Duration::from_millis(200);

    // Sanity: unbudgeted Tane would chew through a ~30-attribute lattice for
    // a very long time; do NOT run it here. Instead show the budgeted run
    // stops within ~2x the deadline (generous slack for debug builds and
    // loaded CI machines) and that what it returns is sound.
    let start = Instant::now();
    let (fds, termination) =
        Tane::new().discover_budgeted(&relation, &Budget::with_deadline(deadline));
    let elapsed = start.elapsed();

    assert_eq!(termination, Termination::DeadlineExceeded);
    assert!(
        elapsed < deadline * 2 + Duration::from_millis(400),
        "tane overshot the deadline: ran {elapsed:?} against {deadline:?}"
    );
    // Tane validates every FD against the full instance before emitting it,
    // so the partial set must verify exhaustively.
    assert!(!fds.is_empty(), "expected at least the early-level FDs");
    assert!(verify_fds(&relation, &fds).is_empty(), "partial Tane FDs failed verification");
    assert_minimal_nontrivial(&fds);
}

#[test]
fn harness_deadline_reports_partial_outcome() {
    let relation = hostile_relation();
    let outcome =
        Algo::Tane.run_isolated(&relation, RunGuard::with_deadline(Duration::from_millis(150)));
    match outcome {
        RunOutcome::Partial { termination, ref fds, .. } => {
            assert_eq!(termination, Termination::DeadlineExceeded);
            assert!(verify_fds(&relation, fds).is_empty());
        }
        other => panic!("expected a partial outcome, got {other:?}"),
    }
}

/// A fake algorithm that always panics, standing in for a baseline bug.
struct Detonator;

impl FdAlgorithm for Detonator {
    fn name(&self) -> &str {
        "detonator"
    }

    fn discover(&self, _relation: &Relation) -> FdSet {
        panic!("injected fault: detonator always explodes");
    }
}

#[test]
fn injected_panic_is_recorded_and_the_sweep_continues() {
    let relation = synth::patient();
    let algos: Vec<Box<dyn FdAlgorithm>> =
        vec![Box::new(Detonator), Box::new(Tane::new()), Box::new(Detonator)];

    let outcomes: Vec<RunOutcome> = algos
        .iter()
        .map(|a| run_isolated_algorithm(a.as_ref(), &relation, RunGuard::default()))
        .collect();

    // The panics are recorded as rows, not process aborts, and the healthy
    // run in between still completes with verified output.
    match &outcomes[0] {
        RunOutcome::Panicked { message } => assert!(message.contains("detonator")),
        other => panic!("expected a panic record, got {other:?}"),
    }
    match &outcomes[1] {
        RunOutcome::Completed { fds, .. } => {
            assert!(verify_fds(&relation, fds).is_empty());
        }
        other => panic!("expected a completed run, got {other:?}"),
    }
    assert_eq!(outcomes[2].time_cell(), "panic");
}
