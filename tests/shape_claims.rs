//! Integration tests pinning the paper's *qualitative* claims (the "shape"
//! this reproduction is accountable for; see EXPERIMENTS.md):
//!
//! * EulerFD's accuracy dominates AID-FD's on the same workload;
//! * lowering the thresholds trades runtime (pairs) for accuracy, with 0
//!   recovering exactness;
//! * the double cycle's revival mechanism is what closes the accuracy gap;
//! * exact algorithms blow up along their documented axes while EulerFD
//!   completes.

use eulerfd_suite::algo::{EulerFd, EulerFdConfig};
use eulerfd_suite::baselines::{AidFd, HyFd};
use eulerfd_suite::core::{Accuracy, Budget, Termination};
use eulerfd_suite::relation::synth;
use eulerfd_suite::relation::FdAlgorithm;

#[test]
fn eulerfd_accuracy_dominates_aidfd() {
    // The core Table III / Table V claim, on three differently-shaped
    // workloads. A small epsilon absorbs sampling-order luck.
    for (name, rows) in [("abalone", 2000), ("ncvoter", 700), ("breast-cancer", 699)] {
        let relation = synth::dataset_spec(name).unwrap().generate(rows);
        let truth = HyFd::default().discover(&relation);
        let euler = Accuracy::of(&EulerFd::new().discover(&relation), &truth);
        let aid = Accuracy::of(&AidFd::default().discover(&relation), &truth);
        assert!(
            euler.f1 >= aid.f1 - 0.02,
            "{name}: EulerFD F1 {:.3} < AID-FD F1 {:.3}",
            euler.f1,
            aid.f1
        );
        assert!(euler.f1 >= 0.85, "{name}: EulerFD F1 too low: {:.3}", euler.f1);
    }
}

#[test]
fn thresholds_trade_pairs_for_accuracy() {
    // Figure 11's monotone story, measured in compared pairs.
    let relation = synth::dataset_spec("abalone").unwrap().generate(2000);
    let truth = HyFd::default().discover(&relation);
    let mut prev_pairs = 0u64;
    let mut f1s = Vec::new();
    for th in [0.1, 0.01, 0.0] {
        let algo = EulerFd::with_config(EulerFdConfig::with_thresholds(th, th));
        let (fds, report) = algo.discover_budgeted(&relation, &Budget::unlimited());
        assert!(
            report.sampler.pairs_compared >= prev_pairs,
            "tightening Th must not reduce sampling"
        );
        prev_pairs = report.sampler.pairs_compared;
        f1s.push(Accuracy::of(&fds, &truth).f1);
    }
    // θ = 0 is exact.
    assert_eq!(*f1s.last().unwrap(), 1.0, "zero thresholds must be exact: {f1s:?}");
    // And never worse than the loosest setting.
    assert!(f1s.last().unwrap() >= f1s.first().unwrap());
}

#[test]
fn revival_is_what_closes_the_accuracy_gap() {
    // Ablation claim from DESIGN.md §3: without cycle-2 revival the second
    // cycle is a no-op and accuracy drops measurably.
    let relation = synth::dataset_spec("ncvoter").unwrap().generate(1000);
    let truth = HyFd::default().discover(&relation);
    let with = Accuracy::of(&EulerFd::new().discover(&relation), &truth);
    let without = EulerFd::with_config(EulerFdConfig {
        enable_revival: false,
        ..Default::default()
    });
    let without = Accuracy::of(&without.discover(&relation), &truth);
    assert!(
        with.f1 > without.f1,
        "revival must improve F1: with {:.3} vs without {:.3}",
        with.f1,
        without.f1
    );
}

#[test]
fn exact_guards_trip_where_the_paper_reports_limits() {
    // Column explosion kills Tane, row quadratic kills Fdep — without any
    // harness, directly on the algorithm guards.
    let wide = synth::dataset_spec("plista").unwrap().generate(300);
    // 63 columns put ≥ C(63,2) = 1953 candidates on lattice level 2 alone,
    // so a 1500-wide memory guard must always trip regardless of data.
    let tane = eulerfd_suite::baselines::Tane::with_level_limit(1500);
    let (_, t) = tane.discover_budgeted(&wide, &Budget::unlimited());
    assert!(t.is_partial(), "Tane must trip its lattice guard on 63 columns");
    let tall = synth::dataset_spec("lineitem").unwrap().generate(30_000);
    let fdep = eulerfd_suite::baselines::Fdep::new();
    let (_, t) = fdep.discover_budgeted(&tall, &Budget::unlimited().pair_cap(1_000_000));
    assert_eq!(t, Termination::PairBudget, "Fdep must trip its pair guard on 30k rows");
    // EulerFD completes both regimes (width projected to keep the true
    // cover — and thus this smoke test — small; full width is the job of
    // the fig8/fig9/table3 harness runs).
    assert!(EulerFd::new().discover(&wide.project_prefix(25)).is_minimal_cover());
    assert!(EulerFd::new().discover(&tall.head(5000)).is_minimal_cover());
}

/// The paper's flagship completeness claim: only EulerFD processes the
/// 223-column uniprot. At full width the true cover runs to 10⁵+ FDs (the
/// paper reports 146,319 after 4530 s), so this is an `--ignored` test for
/// explicit runs; the fig9/table3 binaries exercise the same path.
#[test]
#[ignore = "multi-minute full-width run; invoke with --ignored or use the fig9/table3 binaries"]
fn uniprot_only_eulerfd_scale() {
    let relation = synth::dataset_spec("uniprot").unwrap().generate_default();
    assert_eq!(relation.n_attrs(), 223);
    let fds = EulerFd::new().discover(&relation);
    assert!(!fds.is_empty());
    assert!(fds.is_minimal_cover());
}
