//! Panic isolation for discovery runs: the one place the workspace catches
//! an unwinding panic or arms a deadline [`Watchdog`].
//!
//! The bench runner and the server's job workers both run untrusted
//! discovery work through [`isolate`]: a panicking or runaway run becomes a
//! [`DiscoveryError`] (or a budget trip) instead of taking the sweep or the
//! worker down with it.

use crate::budget::{Budget, Watchdog};
use crate::error::DiscoveryError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs `run` under `catch_unwind`, retrying transient panics up to
/// `retries` times.
///
/// Each attempt gets a fresh budget from `budget`, because a cancelled token
/// is sticky and a retry must not inherit the failed attempt's trip. When
/// `deadline` is given, a [`Watchdog`] cancels the attempt's token with
/// [`crate::Termination::DeadlineExceeded`] that long after the attempt
/// starts; it backstops code stuck between budget polls and is disarmed
/// when the attempt ends, panics included.
///
/// A panic becomes [`DiscoveryError::Panicked`] carrying its message. It is
/// retried only while attempts remain and [`is_transient_panic`] calls it
/// transient: a deterministic bug fails identically on every attempt.
pub fn isolate<T>(
    mut budget: impl FnMut() -> Budget,
    deadline: Option<Duration>,
    retries: u32,
    mut run: impl FnMut(&Budget) -> T,
) -> Result<T, DiscoveryError> {
    let mut attempt = 0;
    loop {
        let budget = budget();
        let watchdog = deadline.map(|d| Watchdog::arm(budget.token().clone(), d));
        let result = catch_unwind(AssertUnwindSafe(|| run(&budget)));
        drop(watchdog);
        let message = match result {
            Ok(value) => return Ok(value),
            Err(payload) => DiscoveryError::panic_message(payload.as_ref()),
        };
        if attempt == retries || !is_transient_panic(&message) {
            return Err(DiscoveryError::Panicked { message });
        }
        attempt += 1;
        fd_telemetry::counter!("runner.panic_retries", 1);
    }
}

/// Classifies a panic message as *transient*, worth one of [`isolate`]'s
/// retries. Injected `fd-faults` panics qualify (a retry advances the
/// site's hit counter past the firing schedule), as does anything that
/// describes itself as transient (e.g. a flaky I/O wrapper). Everything
/// else is assumed deterministic.
pub fn is_transient_panic(message: &str) -> bool {
    fd_faults::is_injected_panic(message) || message.contains("transient")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Termination;
    use std::time::Instant;

    #[test]
    fn a_panic_becomes_panicked_with_its_message() {
        let out: Result<(), _> = isolate(Budget::unlimited, None, 0, |_| panic!("injected fault"));
        match out {
            Err(DiscoveryError::Panicked { message }) => assert_eq!(message, "injected fault"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The caller keeps going: a healthy run afterwards still works.
        assert_eq!(isolate(Budget::unlimited, None, 0, |_| 7).ok(), Some(7));
    }

    #[test]
    fn a_deadline_cancels_the_token_with_deadline_exceeded() {
        // The closure polls only the token, so only the watchdog can stop it.
        let out = isolate(Budget::unlimited, Some(Duration::from_millis(5)), 0, |budget| {
            let start = Instant::now();
            while !budget.token().is_cancelled() {
                assert!(start.elapsed() < Duration::from_secs(5), "watchdog never fired");
                std::thread::yield_now();
            }
            budget.token().reason()
        });
        assert_eq!(out.ok().flatten(), Some(Termination::DeadlineExceeded));
        // Without a deadline no watchdog is armed.
        let out = isolate(Budget::unlimited, None, 0, |budget| {
            std::thread::sleep(Duration::from_millis(10));
            budget.token().reason()
        });
        assert_eq!(out.ok().flatten(), None);
    }

    #[test]
    fn transient_panics_are_retried_up_to_the_count_with_a_fresh_budget() {
        let mut attempts = 0;
        let out = isolate(Budget::unlimited, None, 1, |budget| {
            attempts += 1;
            assert!(!budget.token().is_cancelled(), "a retry inherited a cancelled token");
            if attempts == 1 {
                budget.token().cancel();
                panic!("transient fault");
            }
            attempts
        });
        assert_eq!(out.ok(), Some(2), "the retry should recover");
        // Without retries the same fault is recorded.
        let mut attempts = 0;
        let out: Result<(), _> = isolate(Budget::unlimited, None, 0, |_| {
            attempts += 1;
            panic!("transient fault")
        });
        assert!(matches!(out, Err(DiscoveryError::Panicked { .. })));
        assert_eq!(attempts, 1);
        // A panic that stays transient uses every retry, then is recorded.
        let mut attempts = 0;
        let out: Result<(), _> = isolate(Budget::unlimited, None, 2, |_| {
            attempts += 1;
            panic!("transient fault")
        });
        assert!(matches!(out, Err(DiscoveryError::Panicked { .. })));
        assert_eq!(attempts, 3);
    }

    #[test]
    fn deterministic_panics_get_one_attempt() {
        let mut attempts = 0;
        let out: Result<(), _> = isolate(Budget::unlimited, None, 3, |_| {
            attempts += 1;
            panic!("deterministic bug: index out of range")
        });
        assert!(matches!(out, Err(DiscoveryError::Panicked { .. })));
        assert_eq!(attempts, 1, "a non-transient panic must consume exactly one attempt");
        assert!(!is_transient_panic("deterministic bug: index out of range"));
        assert!(is_transient_panic("transient fault"));
        assert!(is_transient_panic(&format!("{}some.site", fd_faults::PANIC_PREFIX)));
    }
}
