//! Per-job trace trees: parent/child span edges recorded into a bounded,
//! thread-local buffer.
//!
//! A trace is opened on the thread that will execute a job with
//! [`trace_begin`] and closed with [`trace_end`], which returns the
//! collected [`TraceTree`]. While a trace is open, every [`crate::span!`]
//! guard entered **on that thread** also appends a
//! [`SpanRecord`]: the parent edge comes from the innermost still-open
//! traced span, start offsets are relative to `trace_begin`, and wall times
//! are filled in when the guard drops. Spans opened on other threads (the
//! work-stealing kernel fan-out) still feed the global histograms but do
//! not join the tree — a trace is a single-thread causality record by
//! design, and the server executes each job synchronously on one worker.
//!
//! The buffer is bounded (`cap` spans per trace); overflow increments
//! `dropped` instead of reallocating without limit, so a pathological job
//! (e.g. one span per partition product) cannot balloon the server's
//! memory. Collection is active only while [`crate::is_enabled`] — in
//! feature-off builds everything here compiles to straight-line no-ops.

use std::cell::RefCell;
use std::time::Instant;

/// Default per-trace span capacity. Deep discovery jobs record a few dozen
/// spans; 4096 leaves two orders of magnitude of headroom.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// One completed (or still-open, if the trace ended early) span in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name as passed to `span!`.
    pub name: &'static str,
    /// Index of the parent span within the trace, `None` for roots.
    pub parent: Option<u32>,
    /// Start offset relative to `trace_begin`, nanoseconds.
    pub start_ns: u64,
    /// Wall time, nanoseconds (0 if the trace ended before the span closed).
    pub wall_ns: u64,
    /// False when the trace ended while this span was still open.
    pub finished: bool,
}

/// The collected span tree of one traced job.
#[derive(Clone, Debug, Default)]
pub struct TraceTree {
    /// Caller-supplied trace identifier (the server uses the job id).
    pub trace_id: u64,
    /// Spans in entry order; `parent` indices point into this vector.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the per-trace buffer was full.
    pub dropped: u64,
}

impl TraceTree {
    /// The first root span (entry order), if any.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Direct children of span `idx`, in entry order.
    pub fn children(&self, idx: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// Sum of wall times of the direct children of `idx` — the "accounted"
    /// share of a span; the remainder is time outside any child phase.
    pub fn accounted_ns(&self, idx: u32) -> u64 {
        self.children(idx).map(|s| s.wall_ns).sum()
    }
}

struct Collector {
    trace_id: u64,
    cap: usize,
    start: Instant,
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    open: Vec<u32>,
    dropped: u64,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Starts collecting spans on this thread into a new trace. Returns `false`
/// (and collects nothing) when telemetry recording is disabled or a trace
/// is already open on this thread. Pair with [`trace_end`].
pub fn trace_begin(trace_id: u64, cap: usize) -> bool {
    if !crate::is_enabled() {
        return false;
    }
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(Collector {
            trace_id,
            cap: cap.max(1),
            start: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        });
        true
    })
}

/// Stops collecting on this thread and returns the tree (`None` if no trace
/// was open). Spans still open are returned with `finished: false`.
pub fn trace_end() -> Option<TraceTree> {
    COLLECTOR.with(|c| c.borrow_mut().take()).map(|col| TraceTree {
        trace_id: col.trace_id,
        spans: col.spans,
        dropped: col.dropped,
    })
}

/// True while a trace is open on this thread.
pub fn trace_active() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Records a span entry if a trace is open on this thread. Returns the slot
/// to pass to [`trace_exit`] from the guard's drop. Called by
/// [`crate::SpanGuard`].
pub(crate) fn trace_enter(name: &'static str) -> Option<u32> {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let col = slot.as_mut()?;
        if col.spans.len() >= col.cap {
            col.dropped += 1;
            return None;
        }
        let idx = col.spans.len() as u32;
        col.spans.push(SpanRecord {
            name,
            parent: col.open.last().copied(),
            start_ns: u64::try_from(col.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            wall_ns: 0,
            finished: false,
        });
        col.open.push(idx);
        Some(idx)
    })
}

/// Closes the span in `slot`, filling in its wall time. Guards drop in
/// reverse entry order, so `slot` is normally the innermost open span; a
/// leaked guard just leaves deeper slots open until the trace ends.
pub(crate) fn trace_exit(slot: u32) {
    COLLECTOR.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(col) = borrow.as_mut() else { return };
        let now = u64::try_from(col.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(span) = col.spans.get_mut(slot as usize) {
            span.wall_ns = now.saturating_sub(span.start_ns);
            span.finished = true;
        }
        col.open.retain(|&i| i != slot);
    })
}

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "telemetry"))]
    use super::*;

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn trace_begin_is_inert_without_the_feature() {
        assert!(!trace_begin(1, 16));
        assert!(!trace_active());
        assert!(trace_end().is_none());
    }

    #[cfg(feature = "telemetry")]
    mod enabled {
        use super::super::*;

        #[test]
        fn records_nested_spans_with_parent_edges() {
            let _l = crate::test_lock();
            crate::set_enabled(true);
            assert!(trace_begin(42, 64));
            assert!(trace_active());
            {
                let _root = crate::span!("trace-test.root");
                {
                    let _a = crate::span!("trace-test.a");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let _b = crate::span!("trace-test.b");
            }
            let tree = trace_end().expect("trace was open");
            crate::set_enabled(false);
            assert_eq!(tree.trace_id, 42);
            assert_eq!(tree.dropped, 0);
            assert_eq!(tree.spans.len(), 3);
            let root = tree.root().expect("root span");
            assert_eq!(root.name, "trace-test.root");
            assert!(root.finished);
            let kids: Vec<_> = tree.children(0).map(|s| s.name).collect();
            assert_eq!(kids, vec!["trace-test.a", "trace-test.b"]);
            // The root's wall time covers its children.
            assert!(root.wall_ns >= tree.accounted_ns(0));
            assert!(tree.spans[1].wall_ns >= 1_000_000, "the sleep is visible in span a");
            // Start offsets are monotone in entry order.
            assert!(tree.spans[0].start_ns <= tree.spans[1].start_ns);
            assert!(tree.spans[1].start_ns <= tree.spans[2].start_ns);
        }

        #[test]
        fn cap_overflow_counts_dropped_spans() {
            let _l = crate::test_lock();
            crate::set_enabled(true);
            assert!(trace_begin(7, 2));
            {
                let _a = crate::span!("trace-cap.a");
                let _b = crate::span!("trace-cap.b");
                let _c = crate::span!("trace-cap.c");
                let _d = crate::span!("trace-cap.d");
            }
            let tree = trace_end().expect("trace was open");
            crate::set_enabled(false);
            assert_eq!(tree.spans.len(), 2);
            assert_eq!(tree.dropped, 2);
            // Every recorded span still closed cleanly.
            assert!(tree.spans.iter().all(|s| s.finished));
        }

        #[test]
        fn second_begin_on_same_thread_is_rejected() {
            let _l = crate::test_lock();
            crate::set_enabled(true);
            assert!(trace_begin(1, 16));
            assert!(!trace_begin(2, 16), "nested trace_begin must be rejected");
            let tree = trace_end().expect("first trace still open");
            crate::set_enabled(false);
            assert_eq!(tree.trace_id, 1);
            assert!(trace_end().is_none());
        }

        #[test]
        fn disabled_recording_never_opens_a_trace() {
            let _l = crate::test_lock();
            crate::set_enabled(false);
            assert!(!trace_begin(9, 16));
            assert!(trace_end().is_none());
        }

        #[test]
        fn spans_outside_a_trace_do_not_collect() {
            let _l = crate::test_lock();
            crate::set_enabled(true);
            {
                let _g = crate::span!("trace-free.span");
            }
            assert!(!trace_active());
            assert!(trace_begin(3, 16));
            let tree = trace_end().expect("open");
            crate::set_enabled(false);
            assert!(tree.spans.is_empty(), "pre-trace spans must not leak in");
        }
    }
}
