//! The discovery contract every algorithm answers through
//! `FdAlgorithm::discover_budgeted`: an unlimited budget is the plain
//! `discover` and converges, an already-cancelled budget stops the run with
//! `Cancelled` (and an exact algorithm's partial FDs all hold), and the
//! agree-set collector refuses a pair cap it would exceed before comparing
//! anything.

use eulerfd_suite::algo::EulerFd;
use eulerfd_suite::baselines::{
    AgreeSetCollector, AidFd, DepMiner, Exhaustive, FastFds, Fdep, HyFd, Tane,
};
use eulerfd_suite::core::{Budget, Termination};
use eulerfd_suite::relation::synth::{self, ColumnKind, ColumnSpec, Generator};
use eulerfd_suite::relation::{verify_fds, FdAlgorithm, Relation};

/// Every algorithm in the workspace, each with whether it is exact.
fn algorithms() -> Vec<(Box<dyn FdAlgorithm>, bool)> {
    vec![
        (Box::new(Exhaustive), true),
        (Box::new(Tane::new()), true),
        (Box::new(Fdep::new()), true),
        (Box::new(FastFds::new()), true),
        (Box::new(DepMiner::new()), true),
        (Box::new(HyFd::default()), true),
        (Box::new(AidFd::default()), false),
        (Box::new(EulerFd::new()), false),
    ]
}

/// The paper's running example plus a generated table with a planted FD, a
/// noisy one and a constant column.
fn relations() -> Vec<Relation> {
    let generated = Generator::new(
        "contract",
        vec![
            ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 6, skew: 0.2 }),
            ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 4, skew: 0.0 }),
            ColumnSpec::new(
                "c",
                ColumnKind::Derived { parents: vec![0, 1], cardinality: 5, noise: 0.0 },
            ),
            ColumnSpec::new(
                "d",
                ColumnKind::Derived { parents: vec![0], cardinality: 3, noise: 0.05 },
            ),
            ColumnSpec::new("e", ColumnKind::Constant),
        ],
        11,
    )
    .generate(300);
    vec![synth::patient(), generated]
}

#[test]
fn an_unlimited_budget_is_discover_and_converges() {
    for relation in relations() {
        for (algo, _) in algorithms() {
            let run = format!("{} on {}", algo.name(), relation.name());
            let (fds, termination) = algo.discover_budgeted(&relation, &Budget::unlimited());
            assert_eq!(termination, Termination::Converged, "{run}");
            assert_eq!(fds, algo.discover(&relation), "{run}");
        }
    }
}

#[test]
fn a_cancelled_budget_stops_every_algorithm_with_sound_fds() {
    for relation in relations() {
        for (algo, exact) in algorithms() {
            let run = format!("{} on {}", algo.name(), relation.name());
            let budget = Budget::unlimited();
            budget.token().cancel();
            let (fds, termination) = algo.discover_budgeted(&relation, &budget);
            assert_eq!(termination, Termination::Cancelled, "{run}");
            if exact {
                assert_eq!(verify_fds(&relation, &fds), Vec::<String>::new(), "{run}");
            }
        }
    }
}

#[test]
fn the_collector_refuses_a_pair_cap_it_would_exceed() {
    let relation = synth::dataset_spec("abalone").expect("registered").generate(600);
    for threads in [1, 2] {
        let collector = AgreeSetCollector::new().with_threads(threads);
        let (cover, termination) = collector.collect(&relation, &Budget::unlimited().pair_cap(1));
        assert!(cover.is_none(), "threads={threads}");
        assert_eq!(termination, Termination::PairBudget, "threads={threads}");
    }
}
