//! Structured errors for fallible discovery paths.
//!
//! Library crates in the workspace report failures through
//! [`DiscoveryError`] instead of `unwrap()`/`expect()` (which remain only in
//! test code — `fd-core` and `fd-relation` deny `clippy::unwrap_used`
//! outside tests). Budget trips are deliberately **not** errors: budgeted
//! runs return partial results tagged with a
//! [`Termination`](crate::budget::Termination); this type covers the cases
//! where no usable result exists at all.

use crate::budget::Termination;
use std::fmt;

/// A discovery run failed without producing a usable result.
#[derive(Debug)]
pub enum DiscoveryError {
    /// The run was cut short before any sound partial answer existed.
    Interrupted(Termination),
    /// The run (or one of its workers) panicked; the harness isolated it.
    Panicked {
        /// The panic payload rendered as text, when it was a string.
        message: String,
    },
    /// The input relation, configuration, or request was unusable.
    InvalidInput(String),
    /// An underlying I/O failure (ingestion, result spooling).
    Io(std::io::Error),
}

impl DiscoveryError {
    /// Renders a `catch_unwind` payload as the text of a
    /// [`DiscoveryError::Panicked`]: the message when the payload is a string
    /// (the common case for `panic!`/`assert!`), a fixed placeholder
    /// otherwise.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    }

    /// The termination reason this error maps to in run reports.
    pub fn termination(&self) -> Termination {
        match self {
            DiscoveryError::Interrupted(t) => *t,
            DiscoveryError::Panicked { .. } => Termination::Panicked,
            DiscoveryError::InvalidInput(_) | DiscoveryError::Io(_) => Termination::Cancelled,
        }
    }
}

impl fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryError::Interrupted(t) => write!(f, "run interrupted: {t}"),
            DiscoveryError::Panicked { message } => write!(f, "run panicked: {message}"),
            DiscoveryError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            DiscoveryError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DiscoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiscoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DiscoveryError {
    fn from(e: std::io::Error) -> Self {
        DiscoveryError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_render() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        let message = DiscoveryError::panic_message(payload.as_ref());
        assert_eq!(message, "boom 7");
        let err = DiscoveryError::Panicked { message };
        assert_eq!(err.termination(), Termination::Panicked);
        assert!(err.to_string().contains("boom 7"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: DiscoveryError = io.into();
        assert!(err.to_string().contains("gone"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn interrupted_carries_its_reason() {
        let err = DiscoveryError::Interrupted(Termination::DeadlineExceeded);
        assert_eq!(err.termination(), Termination::DeadlineExceeded);
        assert!(err.to_string().contains("deadline"));
    }
}
