//! # fd-telemetry — unified observability for the FD discovery stack
//!
//! A dependency-free registry of sharded-atomic counters, log2-bucketed
//! histograms, RAII spans, and a bounded structured-event buffer, with a
//! versioned JSON snapshot export (`fd-telemetry/v1`). Built in-repo under
//! the same shim policy as `rand`/`proptest`: no external crates, ever.
//!
//! ## Zero cost when disabled
//!
//! The crate is always compiled, but recording is gated twice:
//!
//! 1. **Compile time** — without the `telemetry` cargo feature,
//!    [`is_enabled`] is a `const`-foldable `false`. Every macro below
//!    checks it first, so `counter!`/`observe!`/`span!`/`event!` bodies are
//!    dead code the optimizer deletes: no atomics, no clock reads, no
//!    allocation, no registry.
//! 2. **Run time** — with the feature on, [`is_enabled`] reads a relaxed
//!    `AtomicBool` that defaults to **off** and is flipped by
//!    [`set_enabled`]. This lets one feature-on binary (e.g. the traced
//!    `fdbench` build) measure its own telemetry-off vs. telemetry-on
//!    overhead, and keeps a
//!    feature-on `fdtool` silent unless `--metrics-out`/`--metrics-summary`
//!    is passed.
//!
//! The gating deliberately lives in `is_enabled()` rather than in
//! `#[cfg(...)]` arms inside the exported macros: feature flags inside a
//! `macro_rules!` body would be evaluated against the *calling* crate's
//! features, which is exactly the wrong semantics for a shared facility.
//!
//! ## Recording model
//!
//! Every macro call site declares a hidden `static` site cache
//! ([`CounterSite`] / [`HistogramSite`]) that interns its metric name into
//! the fixed-size registry table on first use. Steady-state recording is a
//! relaxed atomic add — no locks, no hashing, no allocation.
//!
//! ```
//! fd_telemetry::counter!("pli.cache.hits", 1);
//! fd_telemetry::observe!("tane.level.width", 42u64);
//! {
//!     let _g = fd_telemetry::span!("tane.level");
//!     // ... work measured as span.tane.level.ns ...
//! }
//! fd_telemetry::event!("euler.cycle", cycle = 0.0, gr_pcover = 0.8);
//! let snap = fd_telemetry::snapshot();
//! assert_eq!(snap.version, fd_telemetry::SNAPSHOT_VERSION);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod json;
pub mod registry;
pub mod series;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use json::{json_string, JsonWriter};
pub use registry::{
    bucket_of, bucket_upper_bound, registry, Counter, CounterSite, Event, Histogram,
    HistogramSite, HIST_BUCKETS, MAX_COUNTERS, MAX_EVENTS, MAX_HISTOGRAMS,
};
pub use series::{Aggregate, TimeSeries, Window, DEFAULT_RETENTION};
pub use snapshot::{
    prom_name, EventSnapshot, HistogramSnapshot, TelemetrySnapshot, SCHEMA, SNAPSHOT_VERSION,
};
pub use span::{current_span, span_depth, SpanGuard};
pub use trace::{
    trace_active, trace_begin, trace_end, SpanRecord, TraceTree, DEFAULT_TRACE_CAP,
};

/// True when the `telemetry` cargo feature was compiled in (regardless of
/// the runtime switch).
#[inline]
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

#[cfg(feature = "telemetry")]
mod enabled_flag {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);

    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

/// Whether recording is active. Compile-time `false` without the
/// `telemetry` feature; a relaxed atomic load (default off) with it.
#[cfg(feature = "telemetry")]
#[inline]
pub fn is_enabled() -> bool {
    enabled_flag::is_enabled()
}

/// Whether recording is active. Compile-time `false` without the
/// `telemetry` feature; a relaxed atomic load (default off) with it.
#[cfg(not(feature = "telemetry"))]
#[inline]
pub const fn is_enabled() -> bool {
    false
}

/// Turns runtime recording on or off. A no-op without the `telemetry`
/// feature (recording can never activate), but always callable so callers
/// need no `cfg` of their own.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "telemetry")]
    enabled_flag::set_enabled(on);
    let _ = on;
}

/// Captures a [`TelemetrySnapshot`] of the registry's current state.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot::capture()
}

/// Zeroes all counters and histograms and clears the event buffer. Interned
/// names (and cached call-site ids) stay valid.
pub fn reset() {
    registry::registry().reset();
}

/// Buffers a structured event if recording is enabled. Prefer the
/// [`event!`] macro, which skips building `fields` entirely when disabled.
pub fn record_event(name: &'static str, fields: Vec<(&'static str, f64)>) {
    if is_enabled() {
        registry::registry().push_event(Event { name, fields });
    }
}

/// Adds to a named counter: `counter!("pli.cache.hits", 1)`.
///
/// The name must be a string literal (it is interned once per call site).
/// Compiles to nothing when the `telemetry` feature is off; the count
/// expression is not evaluated when recording is disabled.
#[macro_export]
macro_rules! counter {
    ($name:literal, $v:expr) => {{
        if $crate::is_enabled() {
            static SITE: $crate::CounterSite = $crate::CounterSite::new();
            SITE.add($name, $v);
        }
    }};
}

/// Observes a value into a named log2 histogram:
/// `observe!("tane.level.width", width as u64)`.
///
/// Same gating and interning rules as [`counter!`].
#[macro_export]
macro_rules! observe {
    ($name:literal, $v:expr) => {{
        if $crate::is_enabled() {
            static SITE: $crate::HistogramSite = $crate::HistogramSite::new();
            SITE.observe($name, $v);
        }
    }};
}

/// Opens a RAII span recording `span.<name>.ns` when the guard drops:
/// `let _g = span!("tane.level");`.
///
/// The guard must be bound (`let _g = ...`), not discarded with `let _ =`,
/// or it drops immediately. Inert (no clock reads) when disabled.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::HistogramSite = $crate::HistogramSite::new();
        $crate::SpanGuard::enter($name, &SITE)
    }};
}

/// Buffers a structured event with named numeric fields:
/// `event!("euler.cycle", cycle = c as f64, gr_pcover = gr);`.
///
/// Field values are coerced with `as f64`-compatible expressions supplied
/// by the caller (pass `f64`s). Nothing — including the field expressions —
/// is evaluated when recording is disabled.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {{
        if $crate::is_enabled() {
            $crate::registry().push_event($crate::Event {
                name: $name,
                fields: vec![$((stringify!($key), $val as f64)),*],
            });
        }
    }};
}

/// Serializes tests that flip the global enabled flag (the unit-test
/// harness runs tests in parallel against one process-global registry).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn compiled_matches_feature() {
        assert_eq!(super::compiled(), cfg!(feature = "telemetry"));
    }

    #[test]
    fn macros_are_inert_when_disabled() {
        let _l = super::test_lock();
        super::set_enabled(false);
        let mut evaluated = false;
        counter!("lib-test.never", {
            evaluated = true;
            1
        });
        observe!("lib-test.never.hist", {
            evaluated = true;
            1u64
        });
        event!("lib-test.never.event", x = {
            evaluated = true;
            1.0
        });
        assert!(!evaluated, "disabled macros must not evaluate arguments");
        let snap = super::snapshot();
        assert_eq!(snap.counter("lib-test.never"), None);
        assert!(snap.histogram("lib-test.never.hist").is_none());
        assert_eq!(snap.events_named("lib-test.never.event").count(), 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn macros_record_when_enabled() {
        let _l = super::test_lock();
        super::set_enabled(true);
        counter!("lib-test.hits", 2);
        counter!("lib-test.hits", 3);
        observe!("lib-test.sizes", 7u64);
        event!("lib-test.cycle", round = 1.0, gr = 0.5);
        {
            let _g = span!("lib-test-span");
        }
        let snap = super::snapshot();
        assert!(snap.compiled && snap.enabled);
        assert_eq!(snap.counter("lib-test.hits"), Some(5));
        let h = snap.histogram("lib-test.sizes").expect("histogram registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 7);
        let ev: Vec<_> = snap.events_named("lib-test.cycle").collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].fields, vec![("round".to_string(), 1.0), ("gr".to_string(), 0.5)]);
        assert!(snap.histogram("span.lib-test-span.ns").is_some());
        let json = snap.to_json();
        assert!(json.contains("\"lib-test.hits\": 5"));
        assert!(json.contains("fd-telemetry/v1"));
        let table = snap.summary();
        assert!(table.contains("lib-test.hits"));
        super::set_enabled(false);
    }
}
