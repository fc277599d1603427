//! Lightweight spans: RAII duration recording with a thread-local span
//! stack.
//!
//! A span records its wall-clock duration (nanoseconds) into a histogram
//! named `span.<name>.ns` when it drops. Spans nest: each thread keeps a
//! stack of active span names, so [`span_depth`] and [`current_span`] can
//! attribute nested work (the snapshot records durations per span name; the
//! stack exists so emitters can tag events with their enclosing span).

use crate::registry::HistogramSite;
use crate::is_enabled;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Number of spans currently open on this thread.
pub fn span_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Name of the innermost open span on this thread, if any.
pub fn current_span() -> Option<&'static str> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard produced by [`crate::span!`]. Records `span.<name>.ns` on drop
/// when telemetry is enabled; inert (no clock reads) otherwise.
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
    site: &'static HistogramSite,
    trace_slot: Option<u32>,
}

impl SpanGuard {
    /// Opens a span. Called by the [`crate::span!`] macro, which supplies the
    /// per-call-site histogram cache.
    #[inline]
    pub fn enter(name: &'static str, site: &'static HistogramSite) -> SpanGuard {
        if !is_enabled() {
            return SpanGuard { start: None, name, site, trace_slot: None };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        let trace_slot = crate::trace::trace_enter(name);
        SpanGuard { start: Some(Instant::now()), name, site, trace_slot }
    }

    /// True when this span is live (telemetry was enabled at entry).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Pop our own frame; drops run in reverse entry order, so the
                // top is ours unless a guard was leaked (then best-effort).
                if stack.last() == Some(&self.name) {
                    stack.pop();
                }
            });
            let name = self.name;
            self.site.observe_keyed(|| format!("span.{name}.ns"), nanos);
            if let Some(slot) = self.trace_slot {
                crate::trace::trace_exit(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "telemetry")]
    #[test]
    fn span_stack_tracks_nesting() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        static A: HistogramSite = HistogramSite::new();
        static B: HistogramSite = HistogramSite::new();
        let base = span_depth();
        {
            let outer = SpanGuard::enter("span-test-outer", &A);
            assert!(outer.is_recording());
            assert_eq!(span_depth(), base + 1);
            assert_eq!(current_span(), Some("span-test-outer"));
            {
                let _inner = SpanGuard::enter("span-test-inner", &B);
                assert_eq!(span_depth(), base + 2);
                assert_eq!(current_span(), Some("span-test-inner"));
            }
            assert_eq!(span_depth(), base + 1);
        }
        assert_eq!(span_depth(), base);
        let snap = crate::snapshot();
        assert!(snap.histogram("span.span-test-outer.ns").is_some());
        assert!(snap.histogram("span.span-test-inner.ns").is_some());
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn spans_are_inert_without_the_feature() {
        static SITE: HistogramSite = HistogramSite::new();
        let g = SpanGuard::enter("never", &SITE);
        assert!(!g.is_recording());
        assert_eq!(span_depth(), 0);
        assert_eq!(current_span(), None);
    }
}
