//! Guarded algorithm execution and accuracy scoring.
//!
//! The paper's experiments impose a 4-hour time limit (`TL`) and a 32 GB
//! memory limit (`ML`) per run. This harness reproduces those outcomes with
//! *feasibility guards*: each algorithm declares structural limits (pair
//! budget for Fdep, lattice width for Tane) and shape-based cost predictions;
//! runs that would blow past them are reported as `TL`/`ML` without burning
//! hours, everything else runs for real and is timed.
//!
//! On top of the guards, [`Algo::run_isolated`] provides *fault isolation*:
//! each run executes under `catch_unwind` with an optional deadline enforced
//! by a [`Watchdog`]-cancelled [`Budget`], so a panicking or runaway
//! algorithm is recorded as a failed cell and the sweep continues. Budget
//! trips surface as [`RunOutcome::Partial`] carrying the sound partial FD
//! set and the [`Termination`] reason.

use fd_core::{Accuracy, Budget, DiscoveryError, FdSet, Termination, Watchdog};
use fd_relation::{FdAlgorithm, Relation};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// Outcome of one guarded run.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Completed within the guards.
    Completed {
        /// Wall-clock seconds.
        secs: f64,
        /// Discovered FDs.
        fds: FdSet,
    },
    /// A budget tripped mid-run; the partial FD set is sound (every FD was
    /// validated before the trip) but possibly incomplete.
    Partial {
        /// Wall-clock seconds until the trip was observed.
        secs: f64,
        /// FDs validated before the trip.
        fds: FdSet,
        /// Why the run stopped early.
        termination: Termination,
    },
    /// The run panicked; the harness isolated it and the sweep continued.
    Panicked {
        /// The rendered panic message.
        message: String,
    },
    /// Predicted or detected to exceed the time budget (paper: `TL`).
    TimeLimit,
    /// Predicted or detected to exceed the memory budget (paper: `ML`).
    MemoryLimit,
}

impl RunOutcome {
    /// The runtime as a display cell: seconds (suffixed `*` for a partial
    /// run), `TL`, `ML`, or `panic`.
    pub fn time_cell(&self) -> String {
        match self {
            RunOutcome::Completed { secs, .. } => format!("{secs:.3}"),
            RunOutcome::Partial { secs, .. } => format!("{secs:.3}*"),
            RunOutcome::Panicked { .. } => "panic".to_string(),
            RunOutcome::TimeLimit => "TL".to_string(),
            RunOutcome::MemoryLimit => "ML".to_string(),
        }
    }

    /// FD count as a display cell, `-` if unavailable; partial counts are
    /// suffixed `*`.
    pub fn fds_cell(&self) -> String {
        match self {
            RunOutcome::Completed { fds, .. } => fds.len().to_string(),
            RunOutcome::Partial { fds, .. } => format!("{}*", fds.len()),
            _ => "-".to_string(),
        }
    }

    /// F1 against a ground truth as a display cell. Partial runs are scored
    /// too — recall loss from truncation is exactly what the cell shows.
    pub fn f1_cell(&self, truth: Option<&FdSet>) -> String {
        match (self.fds(), truth) {
            (Some(fds), Some(t)) => format!("{:.3}", Accuracy::of(fds, t).f1),
            _ => "-".to_string(),
        }
    }

    /// The discovered FDs, if the run produced any (complete or partial).
    pub fn fds(&self) -> Option<&FdSet> {
        match self {
            RunOutcome::Completed { fds, .. } | RunOutcome::Partial { fds, .. } => Some(fds),
            _ => None,
        }
    }

    /// The runtime in seconds, if the run completed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            RunOutcome::Completed { secs, .. } => Some(*secs),
            _ => None,
        }
    }

    /// The [`Termination`] this outcome corresponds to in reports.
    pub fn termination(&self) -> Termination {
        match self {
            RunOutcome::Completed { .. } => Termination::Converged,
            RunOutcome::Partial { termination, .. } => *termination,
            RunOutcome::Panicked { .. } => Termination::Panicked,
            RunOutcome::TimeLimit => Termination::DeadlineExceeded,
            RunOutcome::MemoryLimit => Termination::MemoryBudget,
        }
    }
}

/// Per-run isolation policy for [`Algo::run_isolated`] and
/// [`run_isolated_algorithm`]: an optional wall-clock deadline (enforced
/// cooperatively through the run's [`Budget`] and, belt-and-braces, by a
/// [`Watchdog`] thread cancelling the shared token) and a bounded number of
/// retries after a panic.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunGuard {
    /// Cancel the run this long after it starts; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// How many times to retry after a *transient* panic (0 = record the
    /// first one). Only panics classified by [`is_transient_panic`] are
    /// retried — a deterministic bug would fail identically every attempt,
    /// so burning retries (and backoff sleeps) on it helps nobody.
    pub panic_retries: u32,
    /// Base delay slept before retry attempt `k` (1-based), doubling each
    /// attempt: `retry_backoff << (k-1)`. `ZERO` (the default) retries
    /// immediately, preserving the historical behavior.
    pub retry_backoff: Duration,
}

impl RunGuard {
    /// A guard with a deadline and no retries.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunGuard { deadline: Some(deadline), ..RunGuard::default() }
    }

    /// Builder: retry up to `n` times after a transient panic.
    pub fn panic_retries(mut self, n: u32) -> Self {
        self.panic_retries = n;
        self
    }

    /// Builder: exponential backoff base for retries (see
    /// [`RunGuard::retry_backoff`]).
    pub fn retry_backoff(mut self, base: Duration) -> Self {
        self.retry_backoff = base;
        self
    }

    /// Sleeps the backoff owed before retry attempt `attempt` (1-based) and
    /// counts the retry; no-op for the first attempt or a zero base.
    fn before_retry(&self, attempt: u32) {
        if attempt == 0 {
            return;
        }
        fd_telemetry::counter!("runner.panic_retries", 1);
        let backoff = self.retry_backoff * 2u32.saturating_pow(attempt - 1);
        if backoff > Duration::ZERO {
            std::thread::sleep(backoff);
        }
    }

    fn budget(&self) -> Budget {
        match self.deadline {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        }
    }
}

/// Which baseline to execute, with its shape guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Tane with a lattice-width memory guard.
    Tane,
    /// Fdep with a pair-comparison budget.
    Fdep,
    /// HyFD (exact), guarded by a column-count heuristic.
    HyFd,
    /// AID-FD with the paper's 0.01 threshold.
    AidFd,
    /// EulerFD with default configuration.
    EulerFd,
}

impl Algo {
    /// All five, in Table III column order.
    pub const ALL: [Algo; 5] = [Algo::Tane, Algo::Fdep, Algo::HyFd, Algo::AidFd, Algo::EulerFd];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Tane => "Tane",
            Algo::Fdep => "Fdep",
            Algo::HyFd => "HyFD",
            Algo::AidFd => "AID-FD",
            Algo::EulerFd => "EulerFD",
        }
    }

    /// Runs the algorithm with its structural guards and panic isolation,
    /// without a deadline. Legacy entry point: every pre-existing caller
    /// goes through here and sees the exact outcomes it always did, plus
    /// `Panicked` instead of a process abort.
    pub fn run(&self, relation: &Relation) -> RunOutcome {
        self.run_isolated(relation, RunGuard::default())
    }

    /// Runs the algorithm under `guard`: the body executes inside
    /// `catch_unwind`, a watchdog thread cancels the run's budget token at
    /// the deadline, and panics are retried up to `guard.panic_retries`
    /// times before being recorded as [`RunOutcome::Panicked`]. Each attempt
    /// gets a fresh budget (the token is sticky once cancelled).
    pub fn run_isolated(&self, relation: &Relation, guard: RunGuard) -> RunOutcome {
        let mut last_panic = String::new();
        for attempt in 0..=guard.panic_retries {
            guard.before_retry(attempt);
            let budget = guard.budget();
            let watchdog =
                guard.deadline.map(|d| Watchdog::arm(budget.token().clone(), d));
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_budgeted(relation, &budget)
            }));
            drop(watchdog);
            match result {
                Ok(outcome) => return outcome,
                Err(payload) => {
                    last_panic = DiscoveryError::panic_message(payload.as_ref());
                    if !is_transient_panic(&last_panic) {
                        break;
                    }
                }
            }
        }
        RunOutcome::Panicked { message: last_panic }
    }

    /// Runs the algorithm with its structural guards under an explicit
    /// budget (no `catch_unwind` — see [`Algo::run_isolated`] for that).
    ///
    /// Budget-aware algorithms (Tane, EulerFD) poll the budget and return
    /// partial results on a trip; the others (Fdep, HyFD, AID-FD) only
    /// observe an already-cancelled token before starting. An unlimited
    /// budget reproduces the legacy outcomes bit-for-bit.
    pub fn run_budgeted(&self, relation: &Relation, budget: &Budget) -> RunOutcome {
        let rows = relation.n_rows() as u64;
        let cols = relation.n_attrs() as u64;
        if let Some(reason) = budget.token().reason() {
            return RunOutcome::Partial { secs: 0.0, fds: FdSet::new(), termination: reason };
        }
        match self {
            Algo::Tane => {
                // Tane's lattice explodes in columns; the paper records ML on
                // plista (63), flight (109), uniprot (223) and on weather /
                // lineitem (row-heavy partitions at deep levels).
                if cols > 40 {
                    return RunOutcome::MemoryLimit;
                }
                if rows * cols > 4_000_000 {
                    return RunOutcome::MemoryLimit;
                }
                let tane = fd_baselines::Tane::with_level_limit(2_000_000);
                let start = Instant::now();
                match tane.discover_budgeted(relation, budget) {
                    (fds, Termination::Converged) => {
                        RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
                    }
                    // With no live budget the only trip is the structural
                    // width guard: the legacy ML cell.
                    (_, Termination::MemoryBudget) if budget.is_unlimited() => {
                        RunOutcome::MemoryLimit
                    }
                    (fds, termination) => RunOutcome::Partial {
                        secs: start.elapsed().as_secs_f64(),
                        fds,
                        termination,
                    },
                }
            }
            Algo::Fdep => {
                // Quadratic in rows: the paper records TL/ML on the largest
                // datasets while completing adult/chess/nursery in minutes;
                // the pair budget is sized to reproduce that split.
                let fdep = fd_baselines::Fdep::with_pair_limit(1_200_000_000);
                let start = Instant::now();
                match fdep.negative_cover(relation) {
                    Some(ncover) => {
                        let fds = fd_core::invert_ncover(&ncover).to_fdset();
                        RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
                    }
                    None => RunOutcome::TimeLimit,
                }
            }
            Algo::HyFd => {
                // HyFD validates against the whole instance; on very wide
                // schemas the candidate tree itself is the bottleneck (the
                // paper records TL on uniprot's 223 columns).
                if cols > 150 {
                    return RunOutcome::TimeLimit;
                }
                let start = Instant::now();
                let fds = fd_baselines::HyFd::default().discover(relation);
                RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
            }
            Algo::AidFd => {
                let start = Instant::now();
                let fds = fd_baselines::AidFd::default().discover(relation);
                RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
            }
            Algo::EulerFd => {
                let start = Instant::now();
                let (fds, report) = eulerfd::EulerFd::new().discover_budgeted(relation, budget);
                if report.termination.is_partial() {
                    RunOutcome::Partial {
                        secs: start.elapsed().as_secs_f64(),
                        fds,
                        termination: report.termination,
                    }
                } else {
                    RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
                }
            }
        }
    }
}

/// [`Algo::run_isolated`] for an arbitrary [`FdAlgorithm`]: times the run,
/// catches panics, and retries per the guard. The deadline is advisory here
/// — a plain `FdAlgorithm` has no budget to poll, so the watchdog cannot
/// stop it cooperatively; the guard still bounds budget-aware algorithms
/// invoked through their trait object and still isolates panics, which is
/// what sweep code needs to survive a hostile cell.
pub fn run_isolated_algorithm(
    algo: &dyn FdAlgorithm,
    relation: &Relation,
    guard: RunGuard,
) -> RunOutcome {
    let mut last_panic = String::new();
    for attempt in 0..=guard.panic_retries {
        guard.before_retry(attempt);
        let start = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| algo.discover(relation)));
        match result {
            Ok(fds) => {
                return RunOutcome::Completed { secs: start.elapsed().as_secs_f64(), fds }
            }
            Err(payload) => {
                last_panic = DiscoveryError::panic_message(payload.as_ref());
                if !is_transient_panic(&last_panic) {
                    break;
                }
            }
        }
    }
    RunOutcome::Panicked { message: last_panic }
}

/// Classifies a panic message as *transient* — worth one of a
/// [`RunGuard`]'s bounded retries. Injected `fd-faults` panics qualify (a
/// retry advances the site's hit counter past the firing schedule), as does
/// anything that self-describes as transient (e.g. a flaky I/O wrapper).
/// Everything else is assumed deterministic: retrying a real bug wastes the
/// attempts and the backoff sleeps.
pub fn is_transient_panic(message: &str) -> bool {
    fd_faults::is_injected_panic(message) || message.contains("transient")
}

/// Computes the exact FD set to score approximate algorithms against,
/// picking whichever exact algorithm the dataset's shape permits: Fdep for
/// few rows (it is column-scalable), Tane for few columns (it is
/// row-scalable and, unlike HyFD, does not degrade when the FD count
/// explodes — e.g. fd-reduced-30). `None` when no exact algorithm is
/// feasible, mirroring the paper's "unknown" on *uniprot*.
pub fn ground_truth(relation: &Relation) -> Option<FdSet> {
    let rows = relation.n_rows();
    let cols = relation.n_attrs();
    if rows <= 4000 && cols <= 150 {
        return Some(fd_baselines::Fdep::new().discover(relation));
    }
    if cols <= 35 {
        return fd_baselines::Tane::with_level_limit(4_000_000).try_discover(relation);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::patient;

    #[test]
    fn all_algorithms_complete_on_patient() {
        let r = patient();
        let truth = ground_truth(&r).unwrap();
        for algo in Algo::ALL {
            let out = algo.run(&r);
            let fds = out.fds().unwrap_or_else(|| panic!("{} should complete", algo.name()));
            // Exact algorithms match the truth; approximate ones on 9 rows
            // exhaust all pairs and match too.
            assert_eq!(fds, &truth, "{}", algo.name());
        }
    }

    #[test]
    fn guards_trip_on_wide_schemas() {
        let r = fd_relation::synth::dataset_spec("uniprot").unwrap().generate(50);
        assert!(matches!(Algo::Tane.run(&r), RunOutcome::MemoryLimit));
        assert!(matches!(Algo::HyFd.run(&r), RunOutcome::TimeLimit));
        assert!(ground_truth(&fd_relation::synth::dataset_spec("uniprot").unwrap().generate(5000)).is_none());
    }

    #[test]
    fn outcome_cells_format() {
        assert_eq!(RunOutcome::TimeLimit.time_cell(), "TL");
        assert_eq!(RunOutcome::MemoryLimit.time_cell(), "ML");
        assert_eq!(RunOutcome::TimeLimit.fds_cell(), "-");
        let done = RunOutcome::Completed { secs: 1.2345, fds: FdSet::new() };
        assert_eq!(done.time_cell(), "1.234");
        assert_eq!(done.fds_cell(), "0");
        let partial = RunOutcome::Partial {
            secs: 0.5,
            fds: FdSet::new(),
            termination: Termination::DeadlineExceeded,
        };
        assert_eq!(partial.time_cell(), "0.500*");
        assert_eq!(partial.fds_cell(), "0*");
        assert_eq!(partial.termination(), Termination::DeadlineExceeded);
        let dead = RunOutcome::Panicked { message: "boom".into() };
        assert_eq!(dead.time_cell(), "panic");
        assert_eq!(dead.termination(), Termination::Panicked);
    }

    /// An algorithm that always panics — a stand-in for a buggy baseline.
    struct Bomb;
    impl FdAlgorithm for Bomb {
        fn name(&self) -> &str {
            "Bomb"
        }
        fn discover(&self, _relation: &Relation) -> FdSet {
            panic!("injected fault")
        }
    }

    /// Panics on the first call, succeeds afterwards.
    struct FlakyOnce(std::sync::atomic::AtomicU32);
    impl FdAlgorithm for FlakyOnce {
        fn name(&self) -> &str {
            "FlakyOnce"
        }
        fn discover(&self, relation: &Relation) -> FdSet {
            if self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                panic!("transient fault");
            }
            fd_baselines::Tane::new().discover(relation)
        }
    }

    #[test]
    fn panicking_algorithm_is_recorded_not_fatal() {
        let r = patient();
        let out = run_isolated_algorithm(&Bomb, &r, RunGuard::default());
        match out {
            RunOutcome::Panicked { message } => assert_eq!(message, "injected fault"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The sweep can keep going: a healthy run afterwards still works.
        assert!(Algo::Tane.run(&r).fds().is_some());
    }

    /// Panics every call with a message that is *not* transient-classified,
    /// counting attempts.
    struct CountingBomb(std::sync::atomic::AtomicU32);
    impl FdAlgorithm for CountingBomb {
        fn name(&self) -> &str {
            "CountingBomb"
        }
        fn discover(&self, _relation: &Relation) -> FdSet {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            panic!("deterministic bug: index out of range")
        }
    }

    #[test]
    fn deterministic_panics_are_not_retried() {
        let r = patient();
        let bomb = CountingBomb(std::sync::atomic::AtomicU32::new(0));
        let out = run_isolated_algorithm(&bomb, &r, RunGuard::default().panic_retries(3));
        assert!(matches!(out, RunOutcome::Panicked { .. }));
        assert_eq!(
            bomb.0.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "a non-transient panic must consume exactly one attempt"
        );
        assert!(!is_transient_panic("deterministic bug: index out of range"));
        assert!(is_transient_panic("transient fault"));
        assert!(is_transient_panic(&format!("{}some.site", fd_faults::PANIC_PREFIX)));
    }

    #[test]
    fn retry_backoff_sleeps_between_attempts() {
        let r = patient();
        let flaky = FlakyOnce(std::sync::atomic::AtomicU32::new(0));
        let guard = RunGuard::default()
            .panic_retries(1)
            .retry_backoff(Duration::from_millis(10));
        let start = Instant::now();
        let out = run_isolated_algorithm(&flaky, &r, guard);
        assert!(out.fds().is_some(), "retry should recover: {out:?}");
        assert!(
            start.elapsed() >= Duration::from_millis(9),
            "backoff must be slept before the retry"
        );
    }

    #[test]
    fn panic_retry_recovers_transient_faults() {
        let r = patient();
        let flaky = FlakyOnce(std::sync::atomic::AtomicU32::new(0));
        let out = run_isolated_algorithm(&flaky, &r, RunGuard::default().panic_retries(1));
        assert!(out.fds().is_some(), "retry should recover: {out:?}");
        let flaky2 = FlakyOnce(std::sync::atomic::AtomicU32::new(0));
        let out2 = run_isolated_algorithm(&flaky2, &r, RunGuard::default());
        assert!(matches!(out2, RunOutcome::Panicked { .. }), "no retries: {out2:?}");
    }

    #[test]
    fn precancelled_budget_yields_empty_partial() {
        let r = patient();
        let budget = Budget::unlimited();
        budget.token().cancel();
        let out = Algo::EulerFd.run_budgeted(&r, &budget);
        match out {
            RunOutcome::Partial { fds, termination, .. } => {
                assert!(fds.is_empty());
                assert_eq!(termination, Termination::Cancelled);
            }
            other => panic!("expected Partial, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_isolated_run_matches_legacy() {
        let r = patient();
        for algo in Algo::ALL {
            let legacy = algo.run_budgeted(&r, &Budget::unlimited());
            let isolated = algo.run_isolated(&r, RunGuard::default());
            assert_eq!(legacy.fds(), isolated.fds(), "{}", algo.name());
        }
    }
}
