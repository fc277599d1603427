//! Job types and the fair queue.
//!
//! The queue is a plain `Mutex<QueueState>` + two condvars (work arrival,
//! job completion). Dispatch is **weighted round-robin across sessions**:
//! every session holds a credit counter refilled to its weight; the
//! dispatcher rotates through sessions in id order, taking one job per
//! visit from each session with pending work and credit left, and refills
//! all credits only when no session with work has credit. A session with
//! weight 3 therefore gets three dispatch slots per round for every one a
//! weight-1 session gets — and an idle session costs nothing.
//!
//! Finished jobs are retained only until their result is collected: the
//! owning session's `wait` claims a result and drops the record once no
//! other waiter still holds it, and results nobody claims wait in a FIFO
//! of at most [`FINISHED_RETAINED`] jobs. Pending and running jobs are
//! never dropped.

use crate::protocol::render_fds;
use fd_core::{AttrId, AttrSet, CancelToken, FdSet, Termination};
use fd_relation::RowId;
use fd_telemetry::TelemetrySnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Identifier of one submitted job, unique per server.
pub type JobId = u64;

/// Identifier of one session, unique per server.
pub(crate) type SessionId = u64;

/// Discovery parameters a client may override; everything else stays at the
/// EulerFD defaults. Kept small on purpose: these two values are the
/// result-cache key's config component, so they must identify the result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiscoverOptions {
    /// `Th_Ncover` override (`None` = paper default).
    pub th_ncover: Option<f64>,
    /// `Th_Pcover` override (`None` = paper default).
    pub th_pcover: Option<f64>,
}

impl DiscoverOptions {
    /// Canonical cache-key component: identical options ⇒ identical key.
    pub(crate) fn cache_key(&self) -> String {
        format!(
            "euler;th_n={};th_p={}",
            self.th_ncover.map_or("default".to_owned(), |v| format!("{v}")),
            self.th_pcover.map_or("default".to_owned(), |v| format!("{v}")),
        )
    }

    /// The full EulerFD config these options resolve to.
    pub(crate) fn to_config(self) -> eulerfd::EulerFdConfig {
        let mut config = eulerfd::EulerFdConfig::default();
        if let Some(v) = self.th_ncover {
            config.th_ncover = v;
        }
        if let Some(v) = self.th_pcover {
            config.th_pcover = v;
        }
        config
    }
}

/// Insert rows of a delta request: already dictionary-encoded, or raw
/// strings to be encoded through the dataset's registration dictionaries
/// (empty string = null).
#[derive(Clone, Debug)]
pub enum RowsSpec {
    /// Labels as stored; labels at or past the current bound denote fresh
    /// values.
    Encoded(Vec<Vec<u32>>),
    /// Raw string fields, one vector per row.
    Raw(Vec<Vec<String>>),
}

impl RowsSpec {
    /// True when no rows are carried.
    pub fn is_empty(&self) -> bool {
        match self {
            RowsSpec::Encoded(rows) => rows.is_empty(),
            RowsSpec::Raw(rows) => rows.is_empty(),
        }
    }
}

/// One unit of work a session submits.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run (budgeted, cached) EulerFD discovery against the dataset's
    /// current snapshot.
    Discover {
        /// Catalog name.
        dataset: String,
        /// Threshold overrides.
        options: DiscoverOptions,
    },
    /// Check whether `lhs → rhs` holds on the current snapshot.
    Validate {
        /// Catalog name.
        dataset: String,
        /// Determinant attributes (may be empty: constancy check).
        lhs: Vec<AttrId>,
        /// Dependent attribute.
        rhs: AttrId,
    },
    /// Candidate keys from the delta-maintained exact cover.
    Keys {
        /// Catalog name.
        dataset: String,
    },
    /// Apply a row delta (inserts and/or deletes) to the dataset.
    Delta {
        /// Catalog name.
        dataset: String,
        /// Rows to append.
        inserts: RowsSpec,
        /// Row ids (current version) to remove.
        deletes: Vec<RowId>,
    },
}

impl Request {
    /// The dataset a request targets.
    pub fn dataset(&self) -> &str {
        match self {
            Request::Discover { dataset, .. }
            | Request::Validate { dataset, .. }
            | Request::Keys { dataset }
            | Request::Delta { dataset, .. } => dataset,
        }
    }
}

/// Unclaimed finished jobs retained at most; the oldest beyond this is
/// dropped, and a later `wait` on it answers `unknown job N`.
pub(crate) const FINISHED_RETAINED: usize = 256;

/// A discovered FD set as the server shares it: the set plus its canonical
/// JSON array, rendered by [`render_fds`] at most once. The result cache
/// and every reply served from it hold the same `Arc`, so a cache hit
/// neither copies the set nor renders it again. Derefs to the [`FdSet`].
#[derive(Debug)]
pub struct DiscoveredFds {
    fds: FdSet,
    json: OnceLock<String>,
}

impl DiscoveredFds {
    pub(crate) fn new(fds: FdSet) -> Arc<DiscoveredFds> {
        Arc::new(DiscoveredFds { fds, json: OnceLock::new() })
    }

    /// The canonical JSON array, byte-identical to `render_fds(self)`.
    pub(crate) fn json(&self) -> &str {
        self.json.get_or_init(|| render_fds(&self.fds))
    }
}

impl Deref for DiscoveredFds {
    type Target = FdSet;

    fn deref(&self) -> &FdSet {
        &self.fds
    }
}

/// What a finished job produced.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Discovery finished (possibly partial — see `termination`).
    Discovered {
        /// Dataset version the run observed.
        version: u64,
        /// The discovered FD cover, shared with the result cache.
        fds: Arc<DiscoveredFds>,
        /// Why the run stopped.
        termination: Termination,
        /// True when served from the result cache.
        from_cache: bool,
    },
    /// Validation finished.
    Validated {
        /// Dataset version the check observed.
        version: u64,
        /// Whether `lhs → rhs` holds.
        holds: bool,
    },
    /// Key enumeration finished.
    Keys {
        /// Dataset version observed.
        version: u64,
        /// Candidate keys, in [`AttrSet`] order.
        keys: Vec<AttrSet>,
        /// Size of the exact cover they were derived from.
        fd_count: usize,
    },
    /// A delta was applied.
    DeltaApplied {
        /// The version after the delta.
        version: u64,
        /// Rows in the dataset after the delta.
        rows: usize,
        /// Rows appended.
        rows_inserted: usize,
        /// Rows removed.
        rows_deleted: usize,
    },
    /// The job was cancelled (before or during execution). The dataset and
    /// the result cache are untouched by a cancelled job.
    Cancelled {
        /// The token's first-wins reason.
        reason: Termination,
    },
    /// The job failed: unknown dataset, encode error, or an isolated panic.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// A finished job: outcome plus the telemetry scoped to its execution
/// window (a [`TelemetrySnapshot::delta_since`] of the shared registry —
/// exact in serial execution, approximate under overlapping jobs).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: JobId,
    /// What happened.
    pub outcome: JobOutcome,
    /// Scoped telemetry (`None` when recording is off).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Measured execution wall time (dispatch to completion; zero for jobs
    /// withdrawn before running or lost to a shutdown). The trace tree's
    /// root span is validated against this.
    pub wall: std::time::Duration,
}

pub(crate) enum JobState {
    Pending,
    Running,
    Done(Arc<JobResult>),
}

pub(crate) struct JobRecord {
    pub(crate) session: SessionId,
    pub(crate) request: Request,
    pub(crate) token: CancelToken,
    pub(crate) state: JobState,
    /// Threads blocked in `Session::wait` on this job.
    pub(crate) waiters: usize,
    /// Set once the owning session claimed the result or the job fell out
    /// of the unclaimed FIFO: the record goes when no waiter holds it.
    released: bool,
}

impl JobRecord {
    pub(crate) fn pending(session: SessionId, request: Request) -> JobRecord {
        JobRecord {
            session,
            request,
            token: CancelToken::new(),
            state: JobState::Pending,
            waiters: 0,
            released: false,
        }
    }
}

pub(crate) struct SessionState {
    pub(crate) weight: u32,
    pub(crate) credit: u32,
    pub(crate) pending: VecDeque<JobId>,
    /// Jobs submitted but not yet Done (pending + running) — the divisor
    /// for tenant budget sharing.
    pub(crate) outstanding: usize,
}

pub(crate) struct QueueState {
    pub(crate) sessions: BTreeMap<SessionId, SessionState>,
    pub(crate) jobs: BTreeMap<JobId, JobRecord>,
    /// Finished jobs whose owning session has not waited on them yet,
    /// oldest first, at most [`FINISHED_RETAINED`].
    pub(crate) unclaimed: VecDeque<JobId>,
    pub(crate) next_job: JobId,
    pub(crate) next_session: SessionId,
    /// Session id the last dispatch went to (round-robin rotation point).
    /// Starts at `MAX` so the first round begins at the smallest id.
    pub(crate) last_dispatched: SessionId,
    pub(crate) shutdown: bool,
}

impl Default for QueueState {
    fn default() -> Self {
        QueueState {
            sessions: BTreeMap::new(),
            jobs: BTreeMap::new(),
            unclaimed: VecDeque::new(),
            next_job: 0,
            next_session: 0,
            last_dispatched: SessionId::MAX,
            shutdown: false,
        }
    }
}

impl QueueState {
    /// Weighted round-robin pick: the next pending job, or `None` when no
    /// session has work. Decrements the chosen session's credit; refills
    /// every credit when all sessions with work are out.
    pub(crate) fn pick_next(&mut self) -> Option<JobId> {
        for _refill in 0..2 {
            // Rotate: sessions after the last dispatched one first.
            let ids: Vec<SessionId> = self
                .sessions
                .iter()
                .filter(|(_, s)| !s.pending.is_empty())
                .map(|(&id, _)| id)
                .collect();
            if ids.is_empty() {
                return None;
            }
            let start = ids.partition_point(|&id| id <= self.last_dispatched);
            for &id in ids[start..].iter().chain(&ids[..start]) {
                let session = self.sessions.get_mut(&id).expect("session exists");
                if session.credit == 0 {
                    continue;
                }
                session.credit -= 1;
                let job = session.pending.pop_front().expect("pending non-empty");
                self.last_dispatched = id;
                return Some(job);
            }
            // Every session with work is out of credit: new round.
            for session in self.sessions.values_mut() {
                session.credit = session.weight.max(1);
            }
        }
        None
    }

    /// Sessions with outstanding work — the tenant count active budget
    /// shares are measured against.
    pub(crate) fn outstanding_of(&self, session: SessionId) -> usize {
        self.sessions.get(&session).map_or(1, |s| s.outstanding.max(1))
    }

    /// Jobs queued but not yet dispatched, across all sessions.
    pub(crate) fn queue_depth(&self) -> usize {
        self.sessions.values().map(|s| s.pending.len()).sum()
    }

    /// `(session id, outstanding)` for every session with outstanding work
    /// (pending + running), in id order.
    pub(crate) fn outstanding_all(&self) -> Vec<(u64, u64)> {
        self.sessions
            .iter()
            .filter(|(_, s)| s.outstanding > 0)
            .map(|(&id, s)| (id, s.outstanding as u64))
            .collect()
    }

    /// Publishes a finished job's result and queues it as unclaimed,
    /// releasing the oldest unclaimed job past [`FINISHED_RETAINED`].
    pub(crate) fn finish(&mut self, job: JobId, result: Arc<JobResult>) {
        let Some(record) = self.jobs.get_mut(&job) else { return };
        let session = record.session;
        record.state = JobState::Done(result);
        if let Some(s) = self.sessions.get_mut(&session) {
            s.outstanding = s.outstanding.saturating_sub(1);
        }
        self.unclaimed.push_back(job);
        if self.unclaimed.len() > FINISHED_RETAINED {
            if let Some(oldest) = self.unclaimed.pop_front() {
                self.release(oldest);
            }
        }
    }

    /// The result of `job` if it has finished, handed to a waiter from
    /// `session` that is no longer blocked on it. The owning session's
    /// collection claims the result: the job leaves the unclaimed FIFO and
    /// is dropped once no other waiter still holds it.
    pub(crate) fn collect(&mut self, job: JobId, session: SessionId) -> Option<Arc<JobResult>> {
        let record = self.jobs.get(&job)?;
        let JobState::Done(result) = &record.state else { return None };
        let result = Arc::clone(result);
        if record.session == session {
            if let Some(at) = self.unclaimed.iter().rposition(|&j| j == job) {
                self.unclaimed.remove(at);
            }
            self.release(job);
        } else if record.released && record.waiters == 0 {
            self.jobs.remove(&job);
        }
        Some(result)
    }

    /// Marks `job` for dropping and drops it now unless a waiter holds it.
    fn release(&mut self, job: JobId) {
        if let Some(record) = self.jobs.get_mut(&job) {
            record.released = true;
            if record.waiters == 0 {
                self.jobs.remove(&job);
            }
        }
    }
}

/// The shared queue: state + condvars.
#[derive(Default)]
pub(crate) struct JobQueue {
    pub(crate) state: Mutex<QueueState>,
    /// Signalled on job submission and shutdown.
    pub(crate) work: Condvar,
    /// Signalled on job completion.
    pub(crate) done: Condvar,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut QueueState) -> Vec<SessionId> {
        let jobs: Vec<JobId> = std::iter::from_fn(|| q.pick_next()).collect();
        jobs.into_iter().map(|job| q.jobs[&job].session).collect()
    }

    fn seed_queue(weights: &[u32], jobs_per: usize) -> QueueState {
        let mut q = QueueState::default();
        for (i, &w) in weights.iter().enumerate() {
            let id = i as SessionId;
            let mut pending = VecDeque::new();
            for j in 0..jobs_per {
                let job = (i * jobs_per + j) as JobId;
                q.jobs.insert(job, JobRecord::pending(id, Request::Keys { dataset: "d".into() }));
                pending.push_back(job);
            }
            q.sessions.insert(
                id,
                SessionState { weight: w, credit: w, pending, outstanding: jobs_per },
            );
        }
        q
    }

    fn done(job: JobId) -> Arc<JobResult> {
        Arc::new(JobResult {
            job,
            outcome: JobOutcome::Validated { version: 0, holds: true },
            telemetry: None,
            wall: std::time::Duration::ZERO,
        })
    }

    #[test]
    fn a_blocked_waiter_keeps_a_claimed_or_evicted_job() {
        let mut q = seed_queue(&[1, 1], FINISHED_RETAINED + 1);
        // A thread of session 1 is blocked on session 0's jobs 0 and 1.
        for job in [0, 1] {
            q.jobs.get_mut(&job).expect("seeded").waiters = 1;
        }
        for job in 0..=FINISHED_RETAINED as JobId {
            q.finish(job, done(job));
        }
        // Job 0 fell out of the FIFO and job 1 is claimed by its owner:
        // both stay while the blocked thread still needs them.
        assert!(q.collect(1, 0).is_some());
        assert!(q.jobs.contains_key(&0) && q.jobs.contains_key(&1));
        for job in [0, 1] {
            q.jobs.get_mut(&job).expect("held").waiters -= 1;
            assert!(q.collect(job, 1).is_some());
            assert!(!q.jobs.contains_key(&job));
        }
        assert_eq!(q.unclaimed.len(), FINISHED_RETAINED - 1);
    }

    #[test]
    fn round_robin_alternates_between_equal_sessions() {
        let mut q = seed_queue(&[1, 1], 3);
        let order = drain_order(&mut q);
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_bias_dispatch_proportionally() {
        let mut q = seed_queue(&[3, 1], 4);
        let order = drain_order(&mut q);
        // Per refill round: session 0 three slots, session 1 one slot.
        let first_round = &order[..4];
        assert_eq!(first_round.iter().filter(|&&s| s == 0).count(), 3);
        assert_eq!(first_round.iter().filter(|&&s| s == 1).count(), 1);
        assert_eq!(order.len(), 8, "all jobs dispatched");
    }

    #[test]
    fn idle_sessions_are_skipped() {
        let mut q = seed_queue(&[2, 2], 2);
        q.sessions.get_mut(&1).expect("s1").pending.clear();
        let order = drain_order(&mut q);
        assert_eq!(order, vec![0, 0]);
    }
}
