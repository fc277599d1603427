//! Property tests for the EulerFD algorithm: exactness in the limit,
//! soundness of every reported FD against the sampled evidence, determinism,
//! and config monotonicity on randomly generated relations.

use eulerfd::{EulerFd, EulerFdConfig};
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, NCover};
use fd_relation::{FdAlgorithm, Relation};
use proptest::prelude::*;

/// Random small relations: up to 6 columns, up to 60 rows, per-column label
/// domains small enough that clusters (and thus non-FD evidence) are common.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=6, 2usize..=60).prop_flat_map(|(cols, rows)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..4, rows..=rows),
            cols..=cols,
        )
        .prop_map(move |columns| {
            // Densify labels per column so the Relation invariant holds.
            let columns = columns
                .into_iter()
                .map(|col| {
                    let mut map = std::collections::HashMap::new();
                    col.into_iter()
                        .map(|v| {
                            let next = map.len() as u32;
                            *map.entry(v).or_insert(next)
                        })
                        .collect::<Vec<u32>>()
                })
                .collect::<Vec<_>>();
            let names = (0..columns.len()).map(|i| format!("c{i}")).collect();
            Relation::from_encoded_columns("prop", names, columns)
        })
    })
}

/// Exhaustive induction over all tuple pairs — the exact reference.
fn exact_cover(r: &Relation) -> FdSet {
    let mut ncover = NCover::new(r.n_attrs());
    for a in 0..r.n_attrs() as AttrId {
        if r.n_distinct(a) > 1 {
            ncover.add(Fd::new(AttrSet::empty(), a));
        }
    }
    for t in 0..r.n_rows() as u32 {
        for u in t + 1..r.n_rows() as u32 {
            ncover.add_agree_set(r.agree_set(t, u));
        }
    }
    fd_core::invert_ncover(&ncover).to_fdset()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With both thresholds at zero EulerFD must recover the exact cover on
    /// any relation.
    #[test]
    fn zero_thresholds_are_exact(relation in relation_strategy()) {
        let algo = EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0));
        prop_assert_eq!(algo.discover(&relation), exact_cover(&relation));
    }

    /// Whatever the configuration, the output is a structurally minimal,
    /// non-trivial cover, and every *violated* FD it reports must genuinely
    /// be violated... i.e. no FD in the output may contradict the full
    /// pairwise evidence (sampling can only miss violations, never invent
    /// them — so reported FDs are a superset-consistent approximation).
    #[test]
    fn output_is_sound_wrt_sampled_evidence(
        relation in relation_strategy(),
        th in prop_oneof![Just(0.1f64), Just(0.01), Just(0.0)],
        queues in 1usize..=7,
    ) {
        let config = EulerFdConfig {
            th_ncover: th,
            th_pcover: th,
            n_queues: queues,
            ..Default::default()
        };
        let fds = EulerFd::with_config(config).discover(&relation);
        prop_assert!(fds.is_minimal_cover());
        // Completeness direction of approximation: every true FD must be
        // covered by the output (the output FD's LHS ⊆ true FD's LHS),
        // because missing evidence can only make candidates MORE general.
        let truth = exact_cover(&relation);
        for t in &truth {
            let covered = fds.iter().any(|f| f.rhs == t.rhs && f.lhs.is_subset_of(&t.lhs));
            prop_assert!(covered, "true FD {:?} has no (generalized) counterpart", t);
        }
    }

    /// Discovery is deterministic: two runs agree exactly, including reports.
    #[test]
    fn discovery_is_deterministic(relation in relation_strategy()) {
        let algo = EulerFd::new();
        let (fds_a, rep_a) = algo.discover_budgeted(&relation, &Budget::unlimited());
        let (fds_b, rep_b) = algo.discover_budgeted(&relation, &Budget::unlimited());
        prop_assert_eq!(fds_a, fds_b);
        prop_assert_eq!(rep_a.sampler.pairs_compared, rep_b.sampler.pairs_compared);
        prop_assert_eq!(rep_a.gr_ncover, rep_b.gr_ncover);
    }

    /// Tightening thresholds never reduces the amount of evidence gathered.
    #[test]
    fn tighter_thresholds_sample_at_least_as_much(relation in relation_strategy()) {
        let loose = EulerFd::with_config(EulerFdConfig::with_thresholds(0.1, 0.1));
        let tight = EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0));
        let (_, rep_loose) = loose.discover_budgeted(&relation, &Budget::unlimited());
        let (_, rep_tight) = tight.discover_budgeted(&relation, &Budget::unlimited());
        prop_assert!(rep_tight.sampler.pairs_compared >= rep_loose.sampler.pairs_compared);
    }

    /// The kernel thread count is pure wall-clock: threads ∈ {1, 2, 4} give
    /// an identical FD set and identical growth-rate histories, because the
    /// parallel compare/invert paths fold their results in plan order.
    #[test]
    fn thread_count_never_changes_the_answer(relation in relation_strategy()) {
        let base = EulerFd::with_config(EulerFdConfig::default().with_threads(1));
        let (fds_1, rep_1) = base.discover_budgeted(&relation, &Budget::unlimited());
        for threads in [2usize, 4] {
            let algo = EulerFd::with_config(EulerFdConfig::default().with_threads(threads));
            let (fds_t, rep_t) = algo.discover_budgeted(&relation, &Budget::unlimited());
            prop_assert_eq!(&fds_1, &fds_t, "threads={}", threads);
            prop_assert_eq!(&rep_1.gr_ncover, &rep_t.gr_ncover, "threads={}", threads);
            prop_assert_eq!(&rep_1.gr_pcover, &rep_t.gr_pcover, "threads={}", threads);
            prop_assert_eq!(rep_1.sampler.pairs_compared, rep_t.sampler.pairs_compared);
        }
    }

    /// The report's counters are internally consistent.
    #[test]
    fn report_invariants(relation in relation_strategy()) {
        let (fds, report) = EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
        prop_assert_eq!(report.pcover_size, fds.len());
        prop_assert_eq!(report.gr_pcover.len(), report.inversions);
        prop_assert!(report.inversions >= 1);
        prop_assert!(!report.gr_ncover.is_empty());
        // Every pair comparison came from some sample call.
        if report.sampler.samples == 0 {
            prop_assert_eq!(report.sampler.pairs_compared, 0);
        }
    }
}

/// One delta wave: the rows to insert and the raw ids to delete.
type Wave = (Vec<Vec<u32>>, Vec<u32>);

/// A base relation plus two successive insert/delete waves. Insert labels
/// range over 0..6 so both reused and fresh labels occur; delete ids are
/// drawn as raw integers and reduced modulo the live row count when each
/// wave is applied (the relation size after wave one is data-dependent).
fn delta_scenario_strategy() -> impl Strategy<Value = (Relation, [Wave; 2])> {
    relation_strategy().prop_flat_map(|relation| {
        let cols = relation.n_attrs();
        let wave = move || {
            (
                proptest::collection::vec(
                    proptest::collection::vec(0u32..6, cols..=cols),
                    0..=5,
                ),
                proptest::collection::vec(0u32..1000, 0..=8),
            )
        };
        (Just(relation), wave(), wave()).prop_map(|(r, w1, w2)| (r, [w1, w2]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delta engine's incremental answer after each wave is byte-
    /// identical to a cold re-discovery of the mutated relation — both the
    /// cold [`DeltaEngine`] and the exhaustive double-cycle driver — and
    /// does not depend on the inversion thread count.
    #[test]
    fn delta_engine_matches_cold_rediscovery(scenario in delta_scenario_strategy()) {
        use eulerfd::DeltaEngine;
        let (relation, waves) = scenario;
        let mut engines: Vec<DeltaEngine> =
            [1usize, 2, 4].iter().map(|&t| DeltaEngine::new(relation.clone(), t)).collect();
        let exhaustive = EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0));
        for (inserts, raw_deletes) in &waves {
            let n = engines[0].relation().n_rows() as u32;
            let deletes: Vec<u32> = if n == 0 {
                Vec::new()
            } else {
                raw_deletes.iter().map(|&d| d % n).collect()
            };
            for engine in &mut engines {
                engine.apply_delta(inserts, &deletes);
            }
            let cold = DeltaEngine::new(engines[0].relation().clone(), 1);
            prop_assert_eq!(engines[0].fds(), cold.fds());
            prop_assert_eq!(engines[0].fds(), exhaustive.discover(engines[0].relation()));
            for engine in &engines[1..] {
                prop_assert_eq!(engine.relation(), engines[0].relation());
                prop_assert_eq!(engine.fds(), engines[0].fds());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`DeltaEngine::fd_count`] counts the maintained cover without
    /// materializing it, and agrees with `fds().len()` after every wave.
    #[test]
    fn delta_engine_fd_count_matches_materialized_cover(scenario in delta_scenario_strategy()) {
        use eulerfd::DeltaEngine;
        let (relation, waves) = scenario;
        let mut engine = DeltaEngine::new(relation, 1);
        prop_assert_eq!(engine.fd_count(), engine.fds().len());
        for (inserts, raw_deletes) in &waves {
            let n = engine.relation().n_rows() as u32;
            let deletes: Vec<u32> = if n == 0 {
                Vec::new()
            } else {
                raw_deletes.iter().map(|&d| d % n).collect()
            };
            engine.apply_delta(inserts, &deletes);
            prop_assert_eq!(engine.fd_count(), engine.fds().len());
        }
    }
}
