//! Chaos suite: EulerFD and Tane under seeded, deterministic fault
//! injection (`fd-faults`, feature `faults`).
//!
//! Run with `scripts/check.sh --chaos`, or directly:
//!
//! ```text
//! cargo test --features faults,telemetry --test chaos
//! ```
//!
//! The invariants enforced here (see DESIGN.md §13):
//!
//! 1. **No panic escapes.** Every injected panic is contained by the bench
//!    runner's `catch_unwind` isolation and surfaces as a `Panicked`
//!    outcome whose message carries the `fd-faults` prefix.
//! 2. **Partial results stay sound and minimal.** Forced budget trips wind
//!    runs down through the normal anytime drain; whatever comes back is a
//!    non-trivial minimal cover (and, for Tane, verifies exhaustively
//!    against the instance).
//! 3. **Non-lossy faults are invisible in the result.** Plans made only of
//!    delays and cache allocation failures must complete with an FD set
//!    byte-identical to a fault-free run — delays only stall, and cache
//!    degradation is covered by the PLI cache's transparency invariant.
//! 4. **Every fired fault is observable**: counted by `fd-faults` itself
//!    and, when telemetry is compiled+enabled, as a `faults.fired.<site>`
//!    counter.

#![cfg(feature = "faults")]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use eulerfd_suite::algo::EulerFd;
use eulerfd_suite::baselines::Tane;
use eulerfd_suite::core::{AttrSet, FdSet, Termination};
use eulerfd_suite::relation::csv::{read_csv_with_report, CsvError, CsvOptions};
use eulerfd_suite::relation::synth::patient;
use eulerfd_suite::relation::{verify_fds, FdAlgorithm, MemoryPressure, PliCache};
use fd_bench::{Algo, RunGuard, RunOutcome};
use fd_faults::{FaultAction, FaultPlan, Schedule};

/// fd-faults keeps one process-global plan; every test that installs one
/// must hold this lock (the suite still runs under the default parallel
/// test harness).
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Local splitmix64 for deriving plan ingredients from a sweep seed.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every injection site on the discovery paths (CSV ingestion is exercised
/// separately — it runs before discovery, not inside it).
const ALGO_SITES: &[&str] = &[
    "parallel.worker",
    "pli_cache.insert",
    "pli_cache.derive",
    "partition.product",
    "euler.cycle",
    "tane.level",
];

/// Derives a 1–3 rule plan from `seed`. Panic rules always get an `Nth`
/// schedule: the hit counter is global across worker threads, so the panic
/// fires on exactly one hit and exactly one worker unwinds — several
/// workers panicking in one `std::thread::scope` would double-panic during
/// the unwind and abort the process, which is not an interesting way to
/// fail a chaos suite.
fn plan_for_seed(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let n_rules = 1 + mix(seed, 0) % 3;
    for i in 0..n_rules {
        let site = ALGO_SITES[(mix(seed, 4 * i + 1) % ALGO_SITES.len() as u64) as usize];
        let action = match mix(seed, 4 * i + 2) % 4 {
            0 => FaultAction::Panic,
            1 => FaultAction::Delay(Duration::from_millis(1)),
            2 => FaultAction::AllocFail,
            _ => FaultAction::BudgetTrip,
        };
        let schedule = if action == FaultAction::Panic {
            Schedule::Nth(1 + mix(seed, 4 * i + 3) % 5)
        } else {
            match mix(seed, 4 * i + 3) % 3 {
                0 => Schedule::Always,
                1 => Schedule::Probability(0.2),
                _ => Schedule::Every(2 + mix(seed, 4 * i + 4) % 4),
            }
        };
        plan = plan.with(site, action, schedule);
    }
    plan
}

/// Non-trivial and minimal within the set (same check as budget_anytime).
fn assert_minimal_nontrivial(fds: &FdSet) {
    for fd in fds.iter() {
        assert!(!fd.lhs.contains(fd.rhs), "trivial FD {fd:?}");
    }
    for a in fds.iter() {
        for b in fds.iter() {
            if a.rhs == b.rhs && a.lhs != b.lhs {
                assert!(!a.lhs.is_subset_of(&b.lhs), "non-minimal: {a:?} generalizes {b:?}");
            }
        }
    }
}

/// The main sweep: 100 seeds × {EulerFD, Tane} = 200 seeded fault
/// schedules, all four invariants checked on every run.
#[test]
fn two_hundred_seeded_schedules_uphold_the_invariants() {
    let _l = chaos_lock();
    let relation = patient();
    let baseline_euler = {
        let _quiet = fd_faults::install_guard(FaultPlan::new(0));
        EulerFd::new().discover(&relation)
    };
    let baseline_tane = Tane::new().discover(&relation);

    let mut fired_total = 0u64;
    let mut panicked = 0u32;
    let mut partial = 0u32;
    for seed in 0..100u64 {
        for (algo, baseline) in
            [(Algo::EulerFd, &baseline_euler), (Algo::Tane, &baseline_tane)]
        {
            let plan = plan_for_seed(seed ^ (algo as u64) << 32);
            let non_lossy = plan.is_non_lossy();
            let _g = fd_faults::install_guard(plan);
            let out = algo.run_isolated(&relation, RunGuard::default());
            match &out {
                RunOutcome::Panicked { message } => {
                    assert!(
                        fd_faults::is_injected_panic(message),
                        "seed {seed} {algo:?}: a non-injected panic escaped: {message:?}"
                    );
                    panicked += 1;
                }
                RunOutcome::Completed { fds, .. } => {
                    assert_minimal_nontrivial(fds);
                    if algo == Algo::Tane {
                        assert!(verify_fds(&relation, fds).is_empty(), "seed {seed}");
                    }
                }
                RunOutcome::Partial { fds, termination, .. } => {
                    assert!(termination.is_partial(), "seed {seed}: {termination:?}");
                    assert_minimal_nontrivial(fds);
                    if algo == Algo::Tane {
                        assert!(verify_fds(&relation, fds).is_empty(), "seed {seed}");
                    }
                    partial += 1;
                }
                other => panic!("seed {seed} {algo:?}: unexpected outcome {other:?}"),
            }
            if non_lossy {
                match &out {
                    RunOutcome::Completed { fds, .. } => assert_eq!(
                        fds, baseline,
                        "seed {seed} {algo:?}: non-lossy faults changed the result"
                    ),
                    other => panic!(
                        "seed {seed} {algo:?}: non-lossy plan must complete, got {other:?}"
                    ),
                }
            }
            fired_total += fd_faults::total_fired();
        }
    }
    // The sweep must actually exercise faults, not vacuously pass: across
    // 200 schedules plenty fire, some panic, some trip budgets.
    assert!(fired_total > 100, "only {fired_total} faults fired across the sweep");
    assert!(panicked > 0, "no schedule panicked — the generator is too tame");
    assert!(partial > 0, "no schedule tripped a budget into a partial result");
}

#[test]
fn worker_delays_are_invisible_in_results() {
    let _l = chaos_lock();
    let relation = patient();
    let baseline = EulerFd::new().discover(&relation);
    let _g = fd_faults::install_guard(FaultPlan::new(1).with(
        "parallel.worker",
        FaultAction::Delay(Duration::from_millis(1)),
        Schedule::Every(3),
    ));
    // Stalled workers rebalance through the claim cursor: every chunk still
    // runs exactly once, so the summed result is schedule-invariant. (At one
    // worker every kernel runs inline through `map_ordered`, which has no
    // fault site, so the claim loop is exercised directly here.)
    let n_chunks = 12;
    let hits = std::sync::atomic::AtomicU64::new(0);
    let stats = eulerfd_suite::core::parallel::fan_out_stealing("chaos", n_chunks, 2, |i| {
        hits.fetch_add(1 + i as u64, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(stats.chunks_claimed, n_chunks as u64);
    assert_eq!(
        hits.load(std::sync::atomic::Ordering::Relaxed),
        (1..=n_chunks as u64).sum::<u64>(),
        "every chunk must run exactly once despite delays"
    );
    assert!(fd_faults::total_fired() > 0, "the delay schedule never fired");

    // And a whole discovery under worker delays is byte-identical.
    let out = Algo::EulerFd.run_isolated(&relation, RunGuard::default());
    match out {
        RunOutcome::Completed { fds, .. } => assert_eq!(fds, baseline),
        other => panic!("delays must not change the outcome: {other:?}"),
    }
}

#[test]
fn retry_with_backoff_recovers_an_injected_panic() {
    let _l = chaos_lock();
    let relation = patient();
    let baseline = EulerFd::new().discover(&relation);
    // Fires on the first cycle of the first attempt only: the retry's
    // cycles land on hits 2+, which Nth(1) leaves alone.
    let _g = fd_faults::install_guard(FaultPlan::new(2).with(
        "euler.cycle",
        FaultAction::Panic,
        Schedule::Nth(1),
    ));
    let guard = RunGuard::default().panic_retries(2);
    let out = Algo::EulerFd.run_isolated(&relation, guard);
    match out {
        RunOutcome::Completed { fds, .. } => assert_eq!(fds, baseline),
        other => panic!("the retry should have recovered: {other:?}"),
    }
    assert_eq!(fd_faults::fired_counts(), vec![("euler.cycle".to_string(), 1)]);

    // Without retries the same plan is recorded as a contained panic.
    let _g = fd_faults::install_guard(FaultPlan::new(2).with(
        "euler.cycle",
        FaultAction::Panic,
        Schedule::Nth(1),
    ));
    let out = Algo::EulerFd.run_isolated(&relation, RunGuard::default());
    match out {
        RunOutcome::Panicked { message } => {
            assert!(fd_faults::is_injected_panic(&message), "{message:?}")
        }
        other => panic!("expected a contained panic: {other:?}"),
    }
}

#[test]
fn cache_alloc_failures_degrade_without_changing_partitions() {
    let _l = chaos_lock();
    let relation = patient();
    // Fault-free reference partitions.
    let attrs = [
        AttrSet::from_attrs([1u16, 2]),
        AttrSet::from_attrs([2u16, 3]),
        AttrSet::from_attrs([1u16, 2, 3]),
    ];
    let mut reference = PliCache::with_default_budget();
    let expected: Vec<_> = attrs.iter().map(|a| reference.get(&relation, a)).collect();

    let _g = fd_faults::install_guard(FaultPlan::new(3).with(
        "pli_cache.*",
        FaultAction::AllocFail,
        Schedule::Always,
    ));
    let mut cache = PliCache::with_default_budget();
    for (a, want) in attrs.iter().zip(&expected) {
        let got = cache.get(&relation, a);
        assert_eq!(&got, want, "degraded derivation diverged on {a:?}");
    }
    let stats = cache.stats();
    assert!(stats.pressure_shrinks > 0, "alloc-fail must signal memory pressure");
    assert_eq!(
        stats.evictions,
        stats.evictions_row_budget + stats.evictions_entry_cap + stats.evictions_pressure
    );
    // Degraded derivations skip caching intermediates; donated entries are
    // refused outright.
    cache.insert(AttrSet::from_attrs([1u16, 3]), expected[0].clone());
    assert!(!cache.contains(&AttrSet::from_attrs([1u16, 3])));
}

#[test]
fn forced_budget_trips_yield_sound_partials() {
    let _l = chaos_lock();
    let relation = patient();
    let _g = fd_faults::install_guard(FaultPlan::new(4).with(
        "euler.cycle",
        FaultAction::BudgetTrip,
        Schedule::Nth(1),
    ));
    match Algo::EulerFd.run_isolated(&relation, RunGuard::default()) {
        RunOutcome::Partial { fds, termination, .. } => {
            assert_eq!(termination, Termination::DeadlineExceeded);
            assert_minimal_nontrivial(&fds);
        }
        other => panic!("expected a partial outcome: {other:?}"),
    }

    let _g = fd_faults::install_guard(FaultPlan::new(4).with(
        "tane.level",
        FaultAction::BudgetTrip,
        Schedule::Nth(2),
    ));
    match Algo::Tane.run_isolated(&relation, RunGuard::default()) {
        RunOutcome::Partial { fds, termination, .. } => {
            assert_eq!(termination, Termination::DeadlineExceeded);
            assert!(verify_fds(&relation, &fds).is_empty());
            assert_minimal_nontrivial(&fds);
        }
        other => panic!("expected a partial outcome: {other:?}"),
    }
}

#[test]
fn csv_alloc_failure_is_a_clean_error_not_a_panic() {
    let _l = chaos_lock();
    let _g = fd_faults::install_guard(FaultPlan::new(5).with(
        "csv.ingest",
        FaultAction::AllocFail,
        Schedule::Nth(2),
    ));
    let data = "a,b\n1,x\n2,y\n3,z\n";
    let err = read_csv_with_report(data.as_bytes(), "chaos", &CsvOptions::default())
        .expect_err("the injected allocation failure must fail the parse");
    match err {
        CsvError::Io(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::OutOfMemory);
            assert!(e.to_string().contains("fd-faults"));
        }
        other => panic!("expected an Io(OutOfMemory) error, got {other}"),
    }
    // Disarmed, the same bytes parse fine.
    drop(_g);
    let (relation, report) =
        read_csv_with_report(data.as_bytes(), "chaos", &CsvOptions::default())
            .expect("fault-free parse");
    assert_eq!(relation.n_rows(), 3);
    assert_eq!(report.rows_read, 3);
}

#[test]
fn same_seed_replays_identical_fired_counts() {
    let _l = chaos_lock();
    let relation = patient();
    let plan = FaultPlan::new(6)
        .with("pli_cache.derive", FaultAction::AllocFail, Schedule::Probability(0.5))
        .with("parallel.worker", FaultAction::Delay(Duration::from_millis(1)), Schedule::Every(7));
    let mut results = Vec::new();
    for _ in 0..2 {
        let _g = fd_faults::install_guard(plan.clone());
        let out = Algo::EulerFd.run_isolated(&relation, RunGuard::default());
        let fds = out.fds().expect("non-lossy plan completes").clone();
        results.push((fds, fd_faults::fired_counts()));
    }
    assert_eq!(results[0], results[1], "same seed must replay bit-for-bit");
}

#[test]
fn fired_faults_surface_as_telemetry_counters() {
    if !fd_telemetry::compiled() {
        return; // run via check.sh --chaos, which enables both features
    }
    let _l = chaos_lock();
    fd_telemetry::set_enabled(true);
    fd_telemetry::reset();
    let relation = patient();
    let _g = fd_faults::install_guard(
        FaultPlan::new(7)
            .with("euler.cycle", FaultAction::BudgetTrip, Schedule::Nth(1))
            .with("pli_cache.derive", FaultAction::AllocFail, Schedule::Always),
    );
    let _ = Algo::EulerFd.run_isolated(&relation, RunGuard::default());
    // The run may trip before ever touching the PLI cache; hit the derive
    // site deterministically so `cache.pressure_shrink` has to move.
    let mut cache = PliCache::with_default_budget();
    let _ = cache.get(&relation, &AttrSet::from_attrs([1u16, 2]));
    assert!(cache.stats().pressure_shrinks > 0);
    let fired = fd_faults::fired_counts();
    let snapshot = fd_telemetry::TelemetrySnapshot::capture();
    fd_telemetry::set_enabled(false);
    assert!(!fired.is_empty(), "the plan never fired");
    for (site, count) in fired {
        assert_eq!(
            snapshot.counter(&format!("faults.fired.{site}")),
            Some(count),
            "telemetry disagrees with fd-faults on {site}"
        );
    }
    // Cache degradation shows up on its own counter too.
    assert!(snapshot.counter("cache.pressure_shrink").unwrap_or(0) > 0);
}

/// `delta.apply` is deliberately NOT in [`ALGO_SITES`]: the sweep's 200
/// schedules never call the delta engine, so adding the site there would
/// only dilute the per-site fire rates the sweep asserts on. The dedicated
/// invariant — an allocation failure mid-delta degrades to a cold rebuild
/// and never to a wrong answer — is pinned here instead.
#[test]
fn delta_apply_alloc_failure_falls_back_to_cold_rebuild() {
    let _l = chaos_lock();
    use eulerfd_suite::algo::DeltaEngine;
    let relation = patient();
    let inserts = vec![vec![2, 1, 0, 1, 2], vec![9, 9, 9, 0, 9]];
    // Fault-free reference: the same two deltas on an unfaulted engine.
    let (expected_relation, expected_fds) = {
        let _quiet = fd_faults::install_guard(FaultPlan::new(0));
        let mut engine = DeltaEngine::new(relation.clone(), 2);
        engine.apply_delta(&inserts, &[0, 4]);
        engine.apply_delta(&[], &[2]);
        (engine.relation().clone(), engine.fds())
    };

    // Always-on allocation failure: every delta takes the cold fallback,
    // and both the relation and the cover still land exactly where the
    // incremental path would have put them.
    let _g = fd_faults::install_guard(FaultPlan::new(8).with(
        "delta.apply",
        FaultAction::AllocFail,
        Schedule::Always,
    ));
    let mut engine = DeltaEngine::new(relation.clone(), 2);
    let first = engine.apply_delta(&inserts, &[0, 4]);
    let second = engine.apply_delta(&[], &[2]);
    assert!(first.cold_fallback && second.cold_fallback);
    assert_eq!(engine.stats().cold_fallbacks, 2);
    assert_eq!(engine.relation(), &expected_relation);
    assert_eq!(engine.fds(), expected_fds);
    assert_eq!(fd_faults::fired_counts(), vec![("delta.apply".to_string(), 2)]);

    // Every(2): the run mixes incremental and fallback paths, and the mix
    // is invisible in the answer.
    let _g = fd_faults::install_guard(FaultPlan::new(9).with(
        "delta.apply",
        FaultAction::AllocFail,
        Schedule::Every(2),
    ));
    let mut engine = DeltaEngine::new(relation, 2);
    let first = engine.apply_delta(&inserts, &[0, 4]);
    let second = engine.apply_delta(&[], &[2]);
    assert_ne!(first.cold_fallback, second.cold_fallback, "Every(2) must mix both paths");
    assert_eq!(engine.stats().cold_fallbacks, 1);
    assert_eq!(engine.relation(), &expected_relation);
    assert_eq!(engine.fds(), expected_fds);
    assert!(fd_faults::total_fired() > 0, "the Every(2) schedule never fired");
}

#[test]
fn critical_pressure_mid_run_keeps_the_cache_transparent() {
    let _l = chaos_lock();
    let relation = patient();
    let mut cache = PliCache::with_default_budget();
    let attrs = AttrSet::from_attrs([1u16, 2, 3]);
    let before = cache.get(&relation, &attrs);
    cache.on_memory_pressure(MemoryPressure::Critical);
    let after = cache.get(&relation, &attrs);
    assert_eq!(before, after, "pressure must not change answers");
    assert!(cache.stats().pressure_shrinks == 1);
}
