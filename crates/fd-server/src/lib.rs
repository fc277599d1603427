//! Always-on FD discovery serving: the Session/Catalog layer.
//!
//! The ROADMAP's north star is a service where datasets register **once**
//! and many clients run discovery against them. This crate is that layer,
//! deliberately free of any async runtime — plain threads, mutexes, and
//! condvars, so the whole stack stays driveable from ordinary integration
//! tests:
//!
//! * [`Catalog`] — owns registered datasets: the dictionary-encoded
//!   [`fd_relation::Relation`], its [`fd_relation::ColumnDictionaries`], a
//!   [`fd_relation::PliCache`] with the single-attribute partitions pinned,
//!   and a [`eulerfd::DeltaEngine`] that maintains the exact FD cover in
//!   place across row deltas. Every applied delta bumps the dataset
//!   *version*; discovery jobs run against an immutable `Arc<Relation>`
//!   snapshot of one version.
//! * [`Session`] — a per-client handle submitting jobs into the queue. Each
//!   session carries a scheduling *weight*; the dispatcher is a weighted
//!   round-robin across sessions, so one chatty tenant cannot starve the
//!   rest.
//! * [`Server`] — worker threads executing jobs under the existing
//!   [`fd_core::Budget`] machinery: per-job deadline plus pair/cover caps
//!   (the tenant-level caps are split across a tenant's outstanding jobs
//!   via [`fd_core::Budget::share`]), cancellation via
//!   [`fd_core::CancelToken`], and per-job panic isolation through
//!   [`fd_core::isolate`], the helper the bench runner uses too.
//!   Converged discovery results enter a cache keyed by
//!   `(dataset, version, config)` as one shared [`DiscoveredFds`] that
//!   carries its rendered JSON; applying a delta invalidates every entry
//!   of that dataset. Candidate keys are memoized per dataset version. A
//!   finished job is dropped once its session has waited on it, and
//!   unclaimed results are kept only in a bounded FIFO. Each finished job
//!   carries a scoped [`fd_telemetry::TelemetrySnapshot`] delta.
//! * [`protocol`] — the thin line protocol behind `fdtool serve`: one
//!   request per line over stdin/stdout or a Unix socket, one JSON object
//!   per response line, written by [`fd_telemetry::JsonWriter`].

mod catalog;
mod jobs;
pub mod metrics;
pub mod protocol;
mod server;

pub use catalog::{Catalog, CatalogError, DatasetInfo};
pub use jobs::{DiscoverOptions, DiscoveredFds, JobId, JobOutcome, JobResult, Request, RowsSpec};
pub use metrics::{MetricsConfig, MetricsPlane, TraceEntry};
pub use server::{Server, ServerConfig, ServerStats, Session};

/// Serializes this crate's unit tests that start a server: the telemetry
/// registry and its enable flag are process-global, so a test comparing
/// server counters against the registry must not overlap another server's
/// jobs.
#[cfg(test)]
pub(crate) fn server_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
