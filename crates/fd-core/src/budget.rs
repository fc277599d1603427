//! Budgeted anytime execution: run budgets, cooperative cancellation, and
//! termination reasons.
//!
//! EulerFD's double cycle is naturally *anytime* — the positive cover is a
//! valid approximate answer at every cycle boundary — and the lattice and
//! agree-set baselines can likewise stop at a level or RHS boundary and
//! return everything validated so far. This module provides the shared
//! substrate all of them cooperate through:
//!
//! * [`Budget`] — a wall-clock deadline plus resource caps (sampled-pair
//!   count, cover/lattice node count), polled at cheap boundaries;
//! * [`CancelToken`] — an atomic flag with a first-wins [`Termination`]
//!   reason, flipped by watchdogs or external callers and observed by
//!   workers between work items;
//! * [`Termination`] — why a run stopped, distinguishing a full answer from
//!   every flavour of truncation;
//! * [`Watchdog`] — a helper thread that cancels a token when a deadline
//!   passes, for guarding code that polls the token but not the clock.
//!
//! The contract every cooperating algorithm upholds: a run under
//! [`Budget::unlimited`] behaves **bit-for-bit identically** to the
//! unbudgeted code path (polling an unlimited budget is a single relaxed
//! atomic load), and a tripped budget still returns a sound, minimal,
//! non-trivial partial result together with the [`Termination`] that ended
//! the run.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How many work items a budgeted loop runs between polls of the clock: the
/// partition product's probe clusters, Tane's and Dep-Miner's inner loops,
/// the shards of [`crate::PCover::invert_batch`], and HyFD's sampler and
/// validation.
/// Checking the token is one relaxed atomic load, so the stride mainly
/// bounds how often a loop reads the clock.
pub const POLL_STRIDE: u32 = 64;

/// Why a discovery run stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The algorithm ran to its natural fixpoint; the result is the full
    /// answer the unbudgeted run would have produced.
    #[default]
    Converged,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The sampled/compared tuple-pair cap was reached.
    PairBudget,
    /// The cover/lattice node cap was reached (models a memory limit).
    MemoryBudget,
    /// An external caller cancelled the run.
    Cancelled,
    /// The run died in a panic that the harness isolated.
    Panicked,
}

impl Termination {
    /// True when the run was cut short — the result is a partial answer.
    pub fn is_partial(&self) -> bool {
        !matches!(self, Termination::Converged)
    }

    /// Short stable label, used in report tables and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::DeadlineExceeded => "deadline",
            Termination::PairBudget => "pair-budget",
            Termination::MemoryBudget => "memory-budget",
            Termination::Cancelled => "cancelled",
            Termination::Panicked => "panicked",
        }
    }

    fn code(self) -> u8 {
        match self {
            Termination::Converged => 0, // never stored in a token
            Termination::DeadlineExceeded => 1,
            Termination::PairBudget => 2,
            Termination::MemoryBudget => 3,
            Termination::Cancelled => 4,
            Termination::Panicked => 5,
        }
    }

    fn from_code(code: u8) -> Option<Termination> {
        match code {
            1 => Some(Termination::DeadlineExceeded),
            2 => Some(Termination::PairBudget),
            3 => Some(Termination::MemoryBudget),
            4 => Some(Termination::Cancelled),
            5 => Some(Termination::Panicked),
            _ => None,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// First-wins termination reason, stored *before* the flag is raised so
    /// an observer that sees the flag also sees a reason.
    reason: AtomicU8,
}

/// A cooperative cancellation token. Cloning shares the underlying flag, so
/// a watchdog (or the serving layer) holds one clone while the worker polls
/// another. Checking costs one relaxed atomic load.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation with the generic [`Termination::Cancelled`]
    /// reason. Idempotent; the first reason to arrive wins.
    pub fn cancel(&self) {
        self.cancel_with(Termination::Cancelled);
    }

    /// Requests cancellation with an explicit reason. Idempotent; the first
    /// reason to arrive wins (a deadline watchdog racing an external cancel
    /// reports whichever flipped the token first).
    pub fn cancel_with(&self, reason: Termination) {
        let code = reason.code();
        if code == 0 {
            return; // Converged is not a cancellation reason
        }
        // Publish the reason before the flag: Release on the flag store
        // pairs with Acquire in `reason()`.
        let _ = self.inner.reason.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once any party has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The termination reason, if cancelled.
    pub fn reason(&self) -> Option<Termination> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            Termination::from_code(self.inner.reason.load(Ordering::Relaxed))
                .or(Some(Termination::Cancelled))
        } else {
            None
        }
    }
}

/// A run budget: an optional wall-clock deadline and optional resource caps,
/// plus the [`CancelToken`] the run and its guardians share.
///
/// Cooperating code calls [`Budget::poll`] at cheap boundaries (a sampling
/// batch, a lattice level, an inversion shard). The first trip cancels the
/// shared token, so sibling workers observe it on their next check even if
/// they never consult the clock or the counters themselves.
///
/// Cloning shares the token but copies the limits.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_pairs: Option<u64>,
    max_cover_nodes: Option<usize>,
    token: CancelToken,
}

impl Budget {
    /// No limits at all: [`Budget::poll`] returns `None` forever (unless the
    /// token is cancelled externally) and budgeted code paths behave
    /// bit-for-bit like their unbudgeted originals.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget { deadline: Some(Instant::now() + timeout), ..Self::default() }
    }

    /// [`Budget::with_deadline`] for `Some(timeout)`, [`Budget::unlimited`]
    /// for `None`: the one rule turning an optional run deadline into a
    /// budget.
    pub fn from_deadline(timeout: Option<Duration>) -> Self {
        timeout.map_or_else(Self::unlimited, Self::with_deadline)
    }

    /// Builder: cap the number of tuple pairs sampled/compared.
    pub fn pair_cap(mut self, max_pairs: u64) -> Self {
        self.max_pairs = Some(max_pairs);
        self
    }

    /// Builder: cap the number of cover/lattice nodes held live (the
    /// workspace's proxy for a memory limit).
    pub fn cover_cap(mut self, max_cover_nodes: usize) -> Self {
        self.max_cover_nodes = Some(max_cover_nodes);
        self
    }

    /// Builder: set the deadline to `timeout` from now.
    pub fn deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Builder: replace the budget's token with an existing one, sharing
    /// cancellation with whoever else holds a clone (e.g. a serving layer's
    /// per-job cancel handle). Used together with [`Budget::share`], which
    /// deliberately hands each share a fresh token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Splits off one of `parts` equal shares of this budget, for fair
    /// apportionment of a tenant-level budget across concurrent jobs:
    ///
    /// * resource caps (pairs, cover nodes) are divided by `parts`,
    ///   rounding up so no share is zeroed by integer division;
    /// * the absolute deadline is kept as-is — wall-clock is a shared axis,
    ///   and every share racing the same instant is exactly the fairness a
    ///   deadline expresses;
    /// * the share gets a **fresh** token, so one job tripping (or being
    ///   cancelled) never cancels its siblings. Attach a job's own cancel
    ///   handle with [`Budget::with_token`].
    ///
    /// `parts` is clamped to at least 1.
    pub fn share(&self, parts: usize) -> Budget {
        let parts = parts.max(1);
        Budget {
            deadline: self.deadline,
            max_pairs: self.max_pairs.map(|cap| cap.div_ceil(parts as u64)),
            max_cover_nodes: self.max_cover_nodes.map(|cap| cap.div_ceil(parts)),
            token: CancelToken::new(),
        }
    }

    /// The shared cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// True when no deadline and no cap is configured. (The token can still
    /// be cancelled externally.)
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_pairs.is_none() && self.max_cover_nodes.is_none()
    }

    /// Checks the budget against the run's progress counters. Returns the
    /// [`Termination`] reason on the first violation and `None` while the
    /// run may continue. A trip cancels the shared token, so every sibling
    /// worker polling only the token stops too.
    ///
    /// Check order: token (one atomic load — the common case for unlimited
    /// budgets), then the caps, then the clock.
    pub fn poll(&self, pairs: u64, cover_nodes: usize) -> Option<Termination> {
        fd_telemetry::counter!("budget.polls", 1);
        if let Some(reason) = self.token.reason() {
            return Some(reason);
        }
        if let Some(cap) = self.max_pairs {
            if pairs > cap {
                return Some(self.trip(Termination::PairBudget));
            }
        }
        if let Some(cap) = self.max_cover_nodes {
            if cover_nodes > cap {
                return Some(self.trip(Termination::MemoryBudget));
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                // Trip latency: how far past the deadline the poll that
                // noticed it actually ran — the observability signal for
                // whether POLL_STRIDE is tight enough.
                fd_telemetry::observe!(
                    "budget.trip_latency_ns",
                    u64::try_from((now - deadline).as_nanos()).unwrap_or(u64::MAX)
                );
                return Some(self.trip(Termination::DeadlineExceeded));
            }
        }
        None
    }

    /// [`Budget::poll`] for loops that track no counters (lattice levels,
    /// DFS nodes): checks only the token and the clock.
    pub fn poll_time(&self) -> Option<Termination> {
        self.poll(0, 0)
    }

    fn trip(&self, reason: Termination) -> Termination {
        if fd_telemetry::is_enabled() {
            // Trips are rare (at most one per run per budget clone), so the
            // dynamic-name slow path is fine here.
            fd_telemetry::registry()
                .counter_add_by_name(&format!("budget.trip.{}", reason.as_str()), 1);
        }
        self.token.cancel_with(reason);
        // First reason wins even under a race with an external cancel.
        self.token.reason().unwrap_or(reason)
    }
}

/// A deadline watchdog: a helper thread that cancels a [`CancelToken`] with
/// [`Termination::DeadlineExceeded`] once the deadline passes, unless
/// disarmed first. Guards code that polls the token frequently but should
/// not pay for `Instant::now()` in its hot loop — and, armed by
/// [`crate::isolate`], bounds runs whose budget polls are sparse.
///
/// # Drop semantics
///
/// Dropping an armed watchdog — with or without calling
/// [`Watchdog::disarm`] first — disarms it: the helper thread is woken,
/// joined, and the token is left untouched if the deadline has not yet
/// passed. A guard going out of scope early (an attempt in
/// [`crate::isolate`] ending in a panic, an early return) therefore never fires a spurious
/// cancellation into a token that outlives it. The only asymmetry with an
/// explicit `disarm()` is lost-race timing: if the deadline elapses in the
/// instant before the drop takes the state lock, the cancellation stands —
/// exactly as it would for `disarm()`.
#[derive(Debug)]
pub struct Watchdog {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog that cancels `token` after `timeout`.
    pub fn arm(token: CancelToken, timeout: Duration) -> Self {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let deadline = Instant::now() + timeout;
        let handle = std::thread::spawn(move || {
            let (lock, condvar) = &*thread_state;
            let mut disarmed = lock.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if *disarmed {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    fd_telemetry::observe!(
                        "budget.watchdog_fire_latency_ns",
                        u64::try_from((now - deadline).as_nanos()).unwrap_or(u64::MAX)
                    );
                    token.cancel_with(Termination::DeadlineExceeded);
                    return;
                }
                let (guard, _) = condvar
                    .wait_timeout(disarmed, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                disarmed = guard;
            }
        });
        Watchdog { state, handle: Some(handle) }
    }

    /// Disarms the watchdog and joins the helper thread. If the deadline
    /// already passed, the token stays cancelled.
    pub fn disarm(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (lock, condvar) = &*self.state;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            condvar.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.poll(u64::MAX, usize::MAX), None);
        assert_eq!(b.poll_time(), None);
    }

    #[test]
    fn pair_cap_trips_and_cancels_the_token() {
        let b = Budget::unlimited().pair_cap(100);
        assert_eq!(b.poll(100, 0), None);
        assert_eq!(b.poll(101, 0), Some(Termination::PairBudget));
        // The trip is sticky via the token.
        assert!(b.token().is_cancelled());
        assert_eq!(b.poll(0, 0), Some(Termination::PairBudget));
    }

    #[test]
    fn share_divides_caps_and_isolates_tokens() {
        let b = Budget::unlimited().pair_cap(100).cover_cap(7);
        let s = b.share(4);
        assert_eq!(s.poll(25, 0), None);
        assert_eq!(s.poll(26, 0), Some(Termination::PairBudget));
        // cover cap 7 over 4 parts rounds up to 2, never to zero.
        let s2 = b.share(4);
        assert_eq!(s2.poll(0, 2), None);
        assert_eq!(s2.poll(0, 3), Some(Termination::MemoryBudget));
        // One share's trip must not leak into the parent or a sibling.
        assert!(!b.token().is_cancelled());
        let s3 = b.share(4);
        assert_eq!(s3.poll(0, 0), None);
        // parts = 0 clamps to one whole share.
        let whole = b.share(0);
        assert_eq!(whole.poll(100, 7), None);
        // Sharing an unlimited budget stays unlimited.
        assert!(Budget::unlimited().share(8).is_unlimited());
    }

    #[test]
    fn with_token_shares_external_cancellation() {
        let token = CancelToken::new();
        let b = Budget::unlimited().pair_cap(10).share(2).with_token(token.clone());
        assert_eq!(b.poll(0, 0), None);
        token.cancel();
        assert_eq!(b.poll(0, 0), Some(Termination::Cancelled));
    }

    #[test]
    fn cover_cap_trips_as_memory_budget() {
        let b = Budget::unlimited().cover_cap(10);
        assert_eq!(b.poll(0, 10), None);
        assert_eq!(b.poll(0, 11), Some(Termination::MemoryBudget));
    }

    #[test]
    fn deadline_trips() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.poll_time(), Some(Termination::DeadlineExceeded));
    }

    #[test]
    fn first_cancellation_reason_wins() {
        let t = CancelToken::new();
        assert_eq!(t.reason(), None);
        t.cancel_with(Termination::DeadlineExceeded);
        t.cancel_with(Termination::Cancelled);
        assert_eq!(t.reason(), Some(Termination::DeadlineExceeded));
        assert!(t.is_cancelled());
    }

    #[test]
    fn converged_is_not_a_cancellation() {
        let t = CancelToken::new();
        t.cancel_with(Termination::Converged);
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn clones_share_the_token() {
        let b = Budget::unlimited();
        let clone = b.clone();
        clone.token().cancel();
        assert_eq!(b.poll(0, 0), Some(Termination::Cancelled));
    }

    #[test]
    fn watchdog_fires_after_the_deadline() {
        let token = CancelToken::new();
        let _w = Watchdog::arm(token.clone(), Duration::from_millis(5));
        let start = Instant::now();
        while !token.is_cancelled() {
            assert!(start.elapsed() < Duration::from_secs(5), "watchdog never fired");
            std::thread::yield_now();
        }
        assert_eq!(token.reason(), Some(Termination::DeadlineExceeded));
    }

    #[test]
    fn disarmed_watchdog_leaves_the_token_alone() {
        let token = CancelToken::new();
        let w = Watchdog::arm(token.clone(), Duration::from_secs(60));
        w.disarm();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn dropping_an_armed_watchdog_does_not_fire_spuriously() {
        // Drop without disarm(): the Drop impl must behave exactly like
        // disarm() — join the helper and leave the token untouched when the
        // deadline has not passed (see the struct's "Drop semantics" doc).
        let token = CancelToken::new();
        {
            let _w = Watchdog::arm(token.clone(), Duration::from_secs(60));
            // _w dropped here, 60s before its deadline.
        }
        assert!(!token.is_cancelled(), "drop of an armed watchdog cancelled the token");
        assert_eq!(token.reason(), None);
        // And the token still works normally afterwards.
        token.cancel_with(Termination::Cancelled);
        assert_eq!(token.reason(), Some(Termination::Cancelled));
    }

    #[test]
    fn concurrent_cancellations_pick_exactly_one_reason() {
        // First-writer-wins under a real race: many threads cancel with
        // different reasons; whichever lands first is the reason every
        // observer sees, forever. A later cancel_with must never overwrite
        // a reason already observed through reason().
        let reasons = [
            Termination::DeadlineExceeded,
            Termination::PairBudget,
            Termination::MemoryBudget,
            Termination::Cancelled,
        ];
        for _ in 0..32 {
            let token = CancelToken::new();
            let first_seen = std::thread::scope(|s| {
                let handles: Vec<_> = reasons
                    .iter()
                    .map(|&r| {
                        let token = token.clone();
                        s.spawn(move || {
                            token.cancel_with(r);
                            token.reason().expect("cancelled token must carry a reason")
                        })
                    })
                    .collect();
                let seen: Vec<Termination> =
                    handles.into_iter().map(|h| h.join().expect("no panics")).collect();
                seen
            });
            // Every thread observed the same winning reason, including the
            // threads whose own cancel_with lost the race.
            let winner = first_seen[0];
            assert!(reasons.contains(&winner));
            assert!(first_seen.iter().all(|&r| r == winner), "observers disagree: {first_seen:?}");
            // And it is sticky against late overwrites.
            for &r in &reasons {
                token.cancel_with(r);
            }
            assert_eq!(token.reason(), Some(winner));
        }
    }

    #[test]
    fn termination_labels_are_stable() {
        assert_eq!(Termination::Converged.to_string(), "converged");
        assert_eq!(Termination::DeadlineExceeded.to_string(), "deadline");
        assert!(!Termination::Converged.is_partial());
        assert!(Termination::PairBudget.is_partial());
    }
}
