//! The server: worker pool, budget apportionment, result cache, sessions.

use crate::catalog::{lock, Catalog, CatalogError, DatasetInfo};
use crate::jobs::{
    DiscoverOptions, DiscoveredFds, JobId, JobOutcome, JobQueue, JobRecord, JobResult, JobState,
    Request, RowsSpec, SessionId, SessionState,
};
use crate::metrics::{MetricsConfig, MetricsPlane, TraceEntry};
use eulerfd::EulerFd;
use fd_core::{candidate_keys, isolate, AttrSet, Budget, CancelToken, DiscoveryError, Termination};
use fd_relation::CsvOptions;
use fd_telemetry::TelemetrySnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra slack the per-job watchdog grants past the budget deadline: the
/// budget polls the clock cooperatively, the watchdog only backstops code
/// stuck between polls.
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Server tuning. Everything is optional; the defaults give an unlimited,
/// single-worker server suitable for tests.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-job wall-clock deadline, measured from dispatch.
    pub job_deadline: Option<Duration>,
    /// Tenant-level pair cap, split across a session's outstanding jobs at
    /// dispatch time via [`Budget::share`].
    pub tenant_pair_cap: Option<u64>,
    /// Tenant-level cover-node cap, split like the pair cap.
    pub tenant_cover_cap: Option<usize>,
    /// Kernel threads per job (EulerFD config / DeltaEngine inversions).
    pub job_threads: usize,
    /// Result-cache capacity in entries (FIFO eviction).
    pub result_cache_capacity: usize,
    /// CSV parse options for [`Server::register_csv`].
    pub csv: CsvOptions,
    /// Live metrics plane (sampler thread, trace rings, exposition).
    /// `None` (the default) leaves the plane off; also requires the
    /// `telemetry` feature to take effect.
    pub metrics: Option<MetricsConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            job_deadline: None,
            tenant_pair_cap: None,
            tenant_cover_cap: None,
            job_threads: 1,
            result_cache_capacity: 64,
            csv: CsvOptions::default(),
            metrics: None,
        }
    }
}

/// Point-in-time server counters (independent of the telemetry feature).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs that ran to a non-cancelled outcome (including failures).
    pub jobs_completed: u64,
    /// Jobs that ended cancelled (before or during execution).
    pub jobs_cancelled: u64,
    /// Discover jobs answered from the result cache.
    pub cache_hits: u64,
    /// Result-cache entries dropped by delta invalidation.
    pub cache_invalidations: u64,
    /// Jobs whose panic was isolated.
    pub jobs_panicked: u64,
    /// Jobs queued but not yet dispatched, across all sessions.
    pub queue_depth: u64,
    /// Workers currently executing a job.
    pub worker_busy: u64,
    /// `(session id, outstanding jobs)` for every session with outstanding
    /// work (pending + running), in session-id order.
    pub outstanding_jobs: Vec<(u64, u64)>,
}

#[derive(Default)]
struct StatCells {
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_invalidations: AtomicU64,
    jobs_panicked: AtomicU64,
    worker_busy: AtomicU64,
}

/// Converged discoveries, each shared with the replies it answers, plus
/// the FIFO order for eviction.
#[derive(Default)]
struct ResultCache {
    entries: BTreeMap<(String, u64, String), Arc<DiscoveredFds>>,
    order: VecDeque<(String, u64, String)>,
    capacity: usize,
}

impl ResultCache {
    fn get(&self, key: &(String, u64, String)) -> Option<Arc<DiscoveredFds>> {
        self.entries.get(key).cloned()
    }

    fn insert(&mut self, key: (String, u64, String), fds: Arc<DiscoveredFds>) {
        if self.entries.insert(key.clone(), fds).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity.max(1) {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    /// Drops every entry of `dataset` (all versions). Returns the count.
    fn invalidate_dataset(&mut self, dataset: &str) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(d, _, _), _| d != dataset);
        self.order.retain(|(d, _, _)| d != dataset);
        (before - self.entries.len()) as u64
    }
}

struct Shared {
    catalog: Catalog,
    queue: JobQueue,
    cache: Mutex<ResultCache>,
    stats: StatCells,
    config: ServerConfig,
    /// Present only with `ServerConfig::metrics` set and the `telemetry`
    /// feature compiled in.
    metrics: Option<Arc<MetricsPlane>>,
}

/// A per-client handle. Submitting is non-blocking; [`Session::wait`]
/// blocks until the job finishes. Dropping a session does not cancel its
/// in-flight jobs.
#[derive(Clone)]
pub struct Session {
    id: SessionId,
    shared: Arc<Shared>,
}

impl Session {
    /// Enqueues a job and returns its id immediately.
    pub fn submit(&self, request: Request) -> JobId {
        let shared = &self.shared;
        let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let job = state.next_job;
        state.next_job += 1;
        state.jobs.insert(job, JobRecord::pending(self.id, request));
        if let Some(session) = state.sessions.get_mut(&self.id) {
            session.pending.push_back(job);
            session.outstanding += 1;
        }
        fd_telemetry::counter!("server.jobs_submitted", 1);
        shared.queue.work.notify_one();
        job
    }

    /// Blocks until `job` finishes and returns its result. Waiting on one
    /// of this session's own jobs claims the result: the server then drops
    /// the job, so a second `wait` answers `unknown job N` (every thread
    /// already blocked on it still receives it). Unknown ids (or jobs lost
    /// to a shutdown) return a `Failed` outcome.
    pub fn wait(&self, job: JobId) -> Arc<JobResult> {
        let queue = &self.shared.queue;
        let failed = |error: String| {
            Arc::new(JobResult {
                job,
                outcome: JobOutcome::Failed { error },
                telemetry: None,
                wall: Duration::ZERO,
            })
        };
        let mut state = queue.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.jobs.contains_key(&job) {
                return failed(format!("unknown job {job}"));
            }
            if let Some(result) = state.collect(job, self.id) {
                return result;
            }
            if state.shutdown {
                return failed("server shut down".into());
            }
            // A registered waiter keeps the record alive until it collects.
            state.jobs.get_mut(&job).expect("checked above").waiters += 1;
            state = queue.done.wait(state).unwrap_or_else(|e| e.into_inner());
            if let Some(record) = state.jobs.get_mut(&job) {
                record.waiters -= 1;
            }
        }
    }

    /// Submits and waits.
    pub fn run(&self, request: Request) -> Arc<JobResult> {
        let job = self.submit(request);
        self.wait(job)
    }

    /// Requests cancellation of a job. True if the job exists and was not
    /// already done. A pending job is withdrawn without executing; a
    /// running job observes the token at its next budget poll.
    pub fn cancel(&self, job: JobId) -> bool {
        let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.jobs.get(&job) {
            Some(record) if !matches!(record.state, JobState::Done(_)) => {
                record.token.cancel();
                true
            }
            _ => false,
        }
    }

    /// The cancel token of a job (for external watchdogs / tests).
    pub fn cancel_token(&self, job: JobId) -> Option<CancelToken> {
        let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.get(&job).map(|r| r.token.clone())
    }
}

/// The running server. Dropping it shuts the worker pool down (pending
/// jobs fail with "server shut down").
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool (and the metrics sampler thread when
    /// [`ServerConfig::metrics`] is set and the `telemetry` feature is
    /// compiled in — starting the plane also arms recording via
    /// [`fd_telemetry::set_enabled`]).
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let metrics = match (&config.metrics, fd_telemetry::compiled()) {
            (Some(mc), true) => {
                fd_telemetry::set_enabled(true);
                Some(Arc::new(MetricsPlane::new(mc.clone())))
            }
            _ => None,
        };
        let shared = Arc::new(Shared {
            catalog: Catalog::new(),
            queue: JobQueue::default(),
            cache: Mutex::new(ResultCache {
                capacity: config.result_cache_capacity,
                ..Default::default()
            }),
            stats: StatCells::default(),
            config,
            metrics,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fd-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let sampler = shared.metrics.as_ref().map(|plane| {
            let shared = Arc::clone(&shared);
            let plane = Arc::clone(plane);
            std::thread::Builder::new()
                .name("fd-server-sampler".into())
                .spawn(move || {
                    while !plane.sleep_interval() {
                        plane.publish(gather_gauges(&shared));
                    }
                })
                .expect("spawn sampler")
        });
        Server { shared, workers: handles, sampler }
    }

    /// A server with default config (single worker, unlimited budgets).
    pub fn start_default() -> Server {
        Server::start(ServerConfig::default())
    }

    /// Opens a session with weight 1.
    pub fn session(&self) -> Session {
        self.session_with_weight(1)
    }

    /// Opens a session with an explicit scheduling weight (≥ 1): a
    /// weight-`w` session receives `w` dispatch slots per round-robin
    /// round.
    pub fn session_with_weight(&self, weight: u32) -> Session {
        let mut state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let id = state.next_session;
        state.next_session += 1;
        let weight = weight.max(1);
        state.sessions.insert(
            id,
            SessionState { weight, credit: weight, pending: VecDeque::new(), outstanding: 0 },
        );
        Session { id, shared: Arc::clone(&self.shared) }
    }

    /// Registers an already-encoded relation under `name`.
    pub fn register_relation(
        &self,
        name: &str,
        relation: fd_relation::Relation,
    ) -> Result<DatasetInfo, CatalogError> {
        self.shared.catalog.register_relation(name, relation, self.shared.config.job_threads)
    }

    /// Registers a dataset from a CSV file.
    pub fn register_csv(&self, name: &str, path: &str) -> Result<DatasetInfo, CatalogError> {
        self.shared.catalog.register_csv(
            name,
            path,
            &self.shared.config.csv,
            self.shared.config.job_threads,
        )
    }

    /// The dataset catalog (info/list).
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Current counters plus a point-in-time view of the queue: depth,
    /// busy workers, and per-session outstanding jobs.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        let (queue_depth, outstanding_jobs) = {
            let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            (state.queue_depth() as u64, state.outstanding_all())
        };
        ServerStats {
            jobs_completed: s.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: s.jobs_cancelled.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_invalidations: s.cache_invalidations.load(Ordering::Relaxed),
            jobs_panicked: s.jobs_panicked.load(Ordering::Relaxed),
            queue_depth,
            worker_busy: s.worker_busy.load(Ordering::Relaxed),
            outstanding_jobs,
        }
    }

    /// The live metrics plane, when the server runs one (requires
    /// [`ServerConfig::metrics`] and the `telemetry` feature).
    pub fn metrics_plane(&self) -> Option<&MetricsPlane> {
        self.shared.metrics.as_deref()
    }

    /// Publishes one metrics window immediately (registry delta + current
    /// gauges), bypassing the sampler cadence. Returns `None` when the
    /// plane is off. Tests drive this with a huge sampler interval to get
    /// deterministic windows.
    pub fn metrics_tick(&self) -> Option<Arc<fd_telemetry::Window>> {
        self.shared.metrics.as_ref().map(|p| p.publish(gather_gauges(&self.shared)))
    }

    /// The retained trace of a completed job, if the plane kept one.
    pub fn trace_of(&self, job: JobId) -> Option<TraceEntry> {
        self.shared.metrics.as_ref().and_then(|p| p.trace_of(job))
    }

    /// The slow-job ring, oldest first (empty when the plane is off).
    pub fn slow_jobs(&self) -> Vec<TraceEntry> {
        self.shared.metrics.as_ref().map(|p| p.slow_jobs()).unwrap_or_default()
    }

    /// Entries currently in the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.shared.cache.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// Stops the workers. Pending jobs fail with "server shut down";
    /// running jobs are cancelled and joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            for record in state.jobs.values() {
                if !matches!(record.state, JobState::Done(_)) {
                    record.token.cancel();
                }
            }
            self.shared.queue.work.notify_all();
            self.shared.queue.done.notify_all();
        }
        if let Some(plane) = &self.shared.metrics {
            plane.stop();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Dispatch under the queue lock.
        let (job, request, token, parts) = {
            let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            let job = loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.pick_next() {
                    break job;
                }
                state = shared.queue.work.wait(state).unwrap_or_else(|e| e.into_inner());
            };
            let session = state.jobs[&job].session;
            let parts = state.outstanding_of(session);
            let record = state.jobs.get_mut(&job).expect("picked job exists");
            record.state = JobState::Running;
            (job, record.request.clone(), record.token.clone(), parts)
        };

        shared.stats.worker_busy.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(execute_job(shared, job, &request, &token, parts));
        shared.stats.worker_busy.fetch_sub(1, Ordering::Relaxed);

        // Publish and account under the queue lock.
        let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let cancelled = matches!(result.outcome, JobOutcome::Cancelled { .. });
        if cancelled {
            shared.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            fd_telemetry::counter!("server.jobs_cancelled", 1);
        } else {
            shared.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            fd_telemetry::counter!("server.jobs_completed", 1);
        }
        state.finish(job, result);
        shared.queue.done.notify_all();
    }
}

/// Builds the job's budget: tenant caps split across the session's
/// outstanding jobs, the per-job deadline, and the job's own cancel token.
fn job_budget(config: &ServerConfig, parts: usize, token: CancelToken) -> Budget {
    let mut tenant = Budget::unlimited();
    if let Some(cap) = config.tenant_pair_cap {
        tenant = tenant.pair_cap(cap);
    }
    if let Some(cap) = config.tenant_cover_cap {
        tenant = tenant.cover_cap(cap);
    }
    let mut budget = tenant.share(parts).with_token(token);
    if let Some(deadline) = config.job_deadline {
        budget = budget.deadline_in(deadline);
    }
    budget
}

/// Point-in-time gauges attached to every published metrics window. Gauge
/// names are wire format (the exposition prefixes them `fd_`).
fn gather_gauges(shared: &Shared) -> Vec<(String, f64)> {
    let (queue_depth, outstanding) = {
        let state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let outstanding: u64 = state.outstanding_all().iter().map(|&(_, n)| n).sum();
        (state.queue_depth() as f64, outstanding as f64)
    };
    let (datasets, rows) = shared.catalog.totals();
    let cache_entries =
        shared.cache.lock().unwrap_or_else(|e| e.into_inner()).entries.len() as f64;
    vec![
        ("queue_depth".to_owned(), queue_depth),
        ("worker_busy".to_owned(), shared.stats.worker_busy.load(Ordering::Relaxed) as f64),
        ("outstanding_jobs".to_owned(), outstanding),
        ("catalog.datasets".to_owned(), datasets as f64),
        ("catalog.rows".to_owned(), rows as f64),
        ("result_cache.entries".to_owned(), cache_entries),
    ]
}

/// Runs one job with panic isolation, per-job telemetry scoping, wall-time
/// measurement, and (when the metrics plane is live) trace collection.
fn execute_job(
    shared: &Shared,
    job: JobId,
    request: &Request,
    token: &CancelToken,
    parts: usize,
) -> JobResult {
    // A job cancelled while queued is withdrawn without touching anything.
    if let Some(reason) = token.reason() {
        return JobResult {
            job,
            outcome: JobOutcome::Cancelled { reason },
            telemetry: None,
            wall: Duration::ZERO,
        };
    }
    let baseline = fd_telemetry::is_enabled().then(TelemetrySnapshot::capture);
    // The job id doubles as the trace id; collection is thread-local to
    // this worker, so spans from kernel fan-out threads stay out of the
    // tree (they still feed the global histograms).
    let traced =
        shared.metrics.is_some() && fd_telemetry::trace_begin(job, fd_telemetry::DEFAULT_TRACE_CAP);
    let started = Instant::now();
    let outcome = {
        let _root = fd_telemetry::span!("server.job");
        // The watchdog backstops code stuck between budget polls.
        let watchdog = shared.config.job_deadline.map(|d| d + WATCHDOG_GRACE);
        let budget = || job_budget(&shared.config, parts, token.clone());
        isolate(budget, watchdog, 0, |budget| run_request(shared, request, budget))
            .unwrap_or_else(|error| {
                shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                fd_telemetry::counter!("server.jobs_panicked", 1);
                token.cancel_with(Termination::Panicked);
                let msg = match error {
                    DiscoveryError::Panicked { message } => message,
                    other => other.to_string(),
                };
                JobOutcome::Failed { error: format!("job panicked (isolated): {msg}") }
            })
    };
    let wall = started.elapsed();
    fd_telemetry::observe!("server.job_wall_us", wall.as_micros() as u64);
    if traced {
        if let (Some(plane), Some(tree)) = (shared.metrics.as_ref(), fd_telemetry::trace_end()) {
            plane.retain_trace(TraceEntry {
                job,
                dataset: request.dataset().to_owned(),
                wall,
                trace: Arc::new(tree),
            });
        }
    }
    let telemetry =
        baseline.map(|base| TelemetrySnapshot::capture().delta_since(&base));
    JobResult { job, outcome, telemetry, wall }
}

fn run_request(shared: &Shared, request: &Request, budget: &Budget) -> JobOutcome {
    match request {
        Request::Discover { dataset, options } => {
            let _s = fd_telemetry::span!("server.discover");
            run_discover(shared, dataset, *options, budget)
        }
        Request::Validate { dataset, lhs, rhs } => {
            let _s = fd_telemetry::span!("server.validate");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            // Snapshot under a short lock; fd_holds runs lock-free.
            let (snapshot, version) = lock(&handle).snapshot();
            if (*rhs as usize) >= snapshot.n_attrs()
                || lhs.iter().any(|&a| a as usize >= snapshot.n_attrs())
            {
                return JobOutcome::Failed {
                    error: format!("attribute out of range (dataset has {})", snapshot.n_attrs()),
                };
            }
            let holds = snapshot.fd_holds(&AttrSet::from_attrs(lhs.iter().copied()), *rhs);
            JobOutcome::Validated { version, holds }
        }
        Request::Keys { dataset } => {
            let _s = fd_telemetry::span!("server.keys");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            let (fds, version, n_attrs) = {
                let ds = lock(&handle);
                if let Some(memo) = ds.memoized_keys() {
                    return memo;
                }
                (ds.fds(), ds.version(), ds.n_attrs())
            };
            // Computed outside the lock; the memo is kept only if no delta
            // moved the dataset on meanwhile.
            let keys = candidate_keys(n_attrs, &fds);
            lock(&handle).memoize_keys(version, &keys, fds.len());
            JobOutcome::Keys { version, keys, fd_count: fds.len() }
        }
        Request::Delta { dataset, inserts, deletes } => {
            let _s = fd_telemetry::span!("server.delta");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            let mut ds = lock(&handle);
            // Reject bad ids and encoded rows before anything mutates:
            // encoding raw inserts grows the dictionaries, the engine
            // indexes rows by these ids, and one huge label would size
            // every later per-label table. Raw rows get their labels from
            // the dictionaries, which stay within the bound.
            let encoded_inserts = match inserts {
                RowsSpec::Encoded(rows) => rows.as_slice(),
                RowsSpec::Raw(_) => &[],
            };
            if let Err(error) = ds.snapshot().0.check_delta(encoded_inserts, deletes) {
                return JobOutcome::Failed { error };
            }
            let encoded = match inserts {
                RowsSpec::Encoded(rows) => rows.clone(),
                RowsSpec::Raw(rows) => match ds.encode_rows(rows) {
                    Ok(rows) => rows,
                    Err(e) => return JobOutcome::Failed { error: e.to_string() },
                },
            };
            let (report, version) = ds.apply_delta(&encoded, deletes);
            let rows = ds.snapshot().0.n_rows();
            drop(ds);
            // Every cached result of this dataset is now stale: invalidate
            // (version-keyed lookups would already miss, this bounds the
            // cache's memory and makes staleness impossible by construction).
            let dropped = shared
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .invalidate_dataset(dataset);
            if dropped > 0 {
                shared.stats.cache_invalidations.fetch_add(dropped, Ordering::Relaxed);
                fd_telemetry::counter!("server.cache_invalidations", dropped);
            }
            JobOutcome::DeltaApplied {
                version,
                rows,
                rows_inserted: report.rows_inserted,
                rows_deleted: report.rows_deleted,
            }
        }
    }
}

fn run_discover(
    shared: &Shared,
    dataset: &str,
    options: DiscoverOptions,
    budget: &Budget,
) -> JobOutcome {
    let handle = match shared.catalog.handle(dataset) {
        Ok(h) => h,
        Err(e) => return JobOutcome::Failed { error: e.to_string() },
    };
    let mut ds = lock(&handle);
    let (snapshot, version) = ds.snapshot();
    let key = (dataset.to_owned(), version, options.cache_key());
    if let Some(fds) = shared.cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        fd_telemetry::counter!("server.cache_hits", 1);
        return JobOutcome::Discovered {
            version,
            fds,
            termination: Termination::Converged,
            from_cache: true,
        };
    }
    let mut config = options.to_config();
    config.threads = shared.config.job_threads;
    let euler = EulerFd::with_config(config);
    // The dataset lock is held for the run: the PLI cache is hot shared
    // state (pinned singles + derived partitions), and serializing
    // discovery per dataset keeps its maintenance trivially correct. Jobs
    // against *other* datasets proceed in parallel; cancellation still
    // lands mid-run via the budget's token.
    let (fds, report) = euler.discover_budgeted_cached(&snapshot, budget, Some(ds.pli_mut()));
    drop(ds);
    let fds = DiscoveredFds::new(fds);
    match report.termination {
        // A cancelled job must leave no trace in the result cache.
        Termination::Cancelled | Termination::Panicked => {
            JobOutcome::Cancelled { reason: report.termination }
        }
        termination => {
            if termination == Termination::Converged {
                shared
                    .cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, Arc::clone(&fds));
            }
            JobOutcome::Discovered { version, fds, termination, from_cache: false }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::FINISHED_RETAINED;
    use crate::protocol::{handle_command, render_fds};
    use eulerfd::{DeltaEngine, EulerFdConfig};
    use fd_relation::synth::dataset_spec;
    use fd_relation::Relation;

    fn gen(name: &str, rows: usize) -> Relation {
        dataset_spec(name).unwrap_or_else(|| panic!("unknown dataset {name}")).generate(rows)
    }

    fn tiny() -> Relation {
        Relation::from_encoded_columns(
            "tiny",
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![0, 1, 0, 1]],
        )
    }

    fn discover(dataset: &str) -> Request {
        Request::Discover { dataset: dataset.into(), options: DiscoverOptions::default() }
    }

    fn keys(dataset: &str) -> Request {
        Request::Keys { dataset: dataset.into() }
    }

    fn job_table_len(server: &Server) -> usize {
        server.shared.queue.state.lock().expect("queue lock").jobs.len()
    }

    fn discovered(result: &JobResult) -> &Arc<DiscoveredFds> {
        match &result.outcome {
            JobOutcome::Discovered { fds, .. } => fds,
            other => panic!("expected a discovery, got {other:?}"),
        }
    }

    fn assert_unknown(result: &JobResult, job: JobId) {
        match &result.outcome {
            JobOutcome::Failed { error } => assert_eq!(error, &format!("unknown job {job}")),
            other => panic!("job {job} should be gone, got {other:?}"),
        }
    }

    /// The job id in a `submit` reply.
    fn submitted_job(reply: &str) -> String {
        reply.split("\"job\":").nth(1).expect("job field").trim_end_matches('}').to_owned()
    }

    #[test]
    fn cache_hits_share_one_rendered_result() {
        let _serial = crate::server_test_lock();
        let relation = gen("abalone", 300);
        let (fds, _) = EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
        let expected = format!("\"fds\":{}", render_fds(&fds));
        let server = Server::start_default();
        server.register_relation("d", relation).expect("register");
        let session = server.session();

        let miss = handle_command(&server, &session, &["discover", "d"]);
        let hit = handle_command(&server, &session, &["discover", "d"]);
        let job = submitted_job(&handle_command(&server, &session, &["submit", "discover", "d"]));
        let waited = handle_command(&server, &session, &["wait", &job]);
        for (reply, from_cache) in [(&miss, false), (&hit, true), (&waited, true)] {
            assert!(reply.contains(&format!("\"from_cache\":{from_cache}")), "{reply}");
            let at = reply.find(&expected).unwrap_or_else(|| panic!("fds diverged: {reply}"));
            assert!(reply[at + expected.len()..].starts_with([',', '}']), "{reply}");
        }

        let first = session.run(discover("d"));
        let second = session.run(discover("d"));
        assert!(Arc::ptr_eq(discovered(&first), discovered(&second)), "a hit copied the result");
        assert_eq!(discovered(&first).json(), render_fds(&fds));
    }

    #[test]
    fn keys_are_memoized_per_dataset_version() {
        let _serial = crate::server_test_lock();
        // {a} and {b,c} are keys; the insert duplicates (b,c) = (0,0).
        let inserts = vec![vec![4, 0, 0]];
        let mut mutated = tiny();
        mutated.apply_delta(&inserts, &[]);
        let fresh = |r: &Relation| {
            let fds = DeltaEngine::new(r.clone(), 1).fds();
            (candidate_keys(r.n_attrs(), &fds), fds.len())
        };
        let (keys0, count0) = fresh(&tiny());
        let (keys1, count1) = fresh(&mutated);
        assert_ne!(keys0, keys1, "the delta must change the keys");

        let server = Server::start_default();
        server.register_relation("t", tiny()).expect("register");
        let session = server.session();
        let handle = server.shared.catalog.handle("t").expect("registered");
        let ask = || match &session.run(keys("t")).outcome {
            JobOutcome::Keys { version, keys, fd_count } => (*version, keys.clone(), *fd_count),
            other => panic!("keys -> {other:?}"),
        };
        assert!(lock(&handle).memoized_keys().is_none());
        assert_eq!(ask(), (0, keys0.clone(), count0));
        assert!(lock(&handle).memoized_keys().is_some(), "keys at version 0 were not memoized");
        assert_eq!(ask(), (0, keys0.clone(), count0));

        let delta = Request::Delta {
            dataset: "t".into(),
            inserts: RowsSpec::Encoded(inserts),
            deletes: vec![],
        };
        match &session.run(delta).outcome {
            JobOutcome::DeltaApplied { version: 1, .. } => {}
            other => panic!("delta -> {other:?}"),
        }
        // The version-0 memo is never served at version 1, and keys that
        // were computed at version 0 but land after the delta are dropped.
        assert!(lock(&handle).memoized_keys().is_none());
        lock(&handle).memoize_keys(0, &keys0, count0);
        assert!(lock(&handle).memoized_keys().is_none());
        assert_eq!(ask(), (1, keys1.clone(), count1));
        assert_eq!(ask(), (1, keys1, count1));
    }

    #[test]
    fn delta_with_an_oversized_label_fails_without_mutating() {
        let _serial = crate::server_test_lock();
        let server = Server::start_default();
        server.register_relation("t", tiny()).expect("register");
        let session = server.session();
        let info = |server: &Server| {
            let d = server.shared.catalog.info("t").expect("registered");
            (d.version, d.rows, d.fd_count)
        };
        let before = info(&server);
        let delta = Request::Delta {
            dataset: "t".into(),
            inserts: RowsSpec::Encoded(vec![vec![0, u32::MAX - 1, 0]]),
            deletes: vec![0],
        };
        match &session.run(delta).outcome {
            JobOutcome::Failed { error } => {
                assert!(error.contains("label 4294967294 on column 1"), "{error}")
            }
            other => panic!("delta -> {other:?}"),
        }
        assert_eq!(info(&server), before);
        // The dataset still takes a well-formed delta afterwards.
        let ok = Request::Delta {
            dataset: "t".into(),
            inserts: RowsSpec::Encoded(vec![vec![4, 2, 0]]),
            deletes: vec![0],
        };
        assert!(matches!(session.run(ok).outcome, JobOutcome::DeltaApplied { version: 1, .. }));
    }

    #[test]
    fn raw_deltas_follow_the_registered_null_convention() {
        let _serial = crate::server_test_lock();
        // With `?` as the null token, b's nulls share one label, so the
        // insert (3, ?) breaks b -> a; read as a plain value, `?` keeps it.
        let base = "a,b\n1,?\n2,x\n";
        let csv = CsvOptions { null_token: Some("?".into()), ..CsvOptions::default() };
        let path = std::env::temp_dir()
            .join(format!("fd-server-null-token-{}.csv", std::process::id()));
        std::fs::write(&path, base).expect("the temp dir is writable");
        let server = Server::start(ServerConfig { csv: csv.clone(), ..ServerConfig::default() });
        let registered = server.register_csv("t", path.to_str().expect("a UTF-8 temp path"));
        std::fs::remove_file(&path).expect("the temp CSV is removable");
        registered.expect("register");
        let delta = Request::Delta {
            dataset: "t".into(),
            inserts: RowsSpec::Raw(vec![vec!["3".into(), "?".into()]]),
            deletes: vec![],
        };
        let outcome = server.session().run(delta).outcome.clone();
        assert!(matches!(outcome, JobOutcome::DeltaApplied { version: 1, .. }), "{outcome:?}");
        let cold = fd_relation::read_csv(format!("{base}3,?\n").as_bytes(), "cold", &csv)
            .expect("the mutated table parses");
        let handle = server.shared.catalog.handle("t").expect("registered");
        assert_eq!(lock(&handle).fds(), DeltaEngine::new(cold, 1).fds());
    }

    #[test]
    fn waited_jobs_leave_the_job_table() {
        let _serial = crate::server_test_lock();
        let server = Server::start_default();
        server.register_relation("t", tiny()).expect("register");
        let session = server.session();
        for _ in 0..10_000 {
            session.run(keys("t"));
        }
        assert_eq!(job_table_len(&server), 0, "a waited job outlived its wait");
        // `wait` hands a job's result out once.
        let job = session.submit(keys("t"));
        assert!(matches!(session.wait(job).outcome, JobOutcome::Keys { .. }));
        assert_unknown(&session.wait(job), job);
    }

    #[test]
    fn unclaimed_results_are_capped_but_running_jobs_stay() {
        let _serial = crate::server_test_lock();
        let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() });
        server.register_relation("held", gen("abalone", 200)).expect("register held");
        server.register_relation("t", tiny()).expect("register t");
        let (holder, session) = (server.session(), server.session());
        let handle = server.shared.catalog.handle("held").expect("registered");
        let held = lock(&handle);
        // One worker takes the discover and blocks on the held dataset.
        let running = holder.submit(discover("held"));
        while !matches!(
            server.shared.queue.state.lock().expect("queue lock").jobs[&running].state,
            JobState::Running
        ) {
            std::thread::yield_now();
        }
        // The other worker serves this session alone, in submission order:
        // once the last job is back, every earlier one has finished. That
        // last result took the newest FIFO slot before its wait claimed it,
        // so the six oldest unclaimed results are gone.
        let unwaited: Vec<JobId> =
            (0..FINISHED_RETAINED + 5).map(|_| session.submit(keys("t"))).collect();
        session.run(keys("t"));
        assert_eq!(job_table_len(&server), FINISHED_RETAINED, "FIFO plus the running job");
        for &job in &unwaited[..6] {
            assert_unknown(&session.wait(job), job);
        }
        assert!(matches!(session.wait(unwaited[6]).outcome, JobOutcome::Keys { .. }));
        assert_eq!(job_table_len(&server), FINISHED_RETAINED - 1);
        drop(held);
        discovered(&holder.wait(running));
    }

    #[test]
    fn every_waiter_blocked_on_a_job_receives_it() {
        let _serial = crate::server_test_lock();
        let server = Server::start_default();
        server.register_relation("d", gen("abalone", 200)).expect("register");
        let (owner, other) = (server.session(), server.session());
        let handle = server.shared.catalog.handle("d").expect("registered");
        let held = lock(&handle);
        let job = owner.submit(discover("d"));
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| owner.wait(job));
            let b = scope.spawn(|| other.wait(job));
            // The job cannot finish while the dataset is held, so both
            // threads are blocked on it before it does.
            while server.shared.queue.state.lock().expect("queue lock").jobs[&job].waiters < 2 {
                std::thread::yield_now();
            }
            drop(held);
            (a.join().expect("owner waiter"), b.join().expect("other waiter"))
        });
        assert!(Arc::ptr_eq(&a, &b));
        discovered(&a);
        assert_eq!(job_table_len(&server), 0);
        assert_unknown(&owner.wait(job), job);
    }

    #[test]
    fn cancelled_job_never_mutates_the_result_cache() {
        let _serial = crate::server_test_lock();
        // One worker and the dataset held by the test: job A is dispatched
        // and blocks on the dataset lock, so B is provably still pending
        // when it is cancelled and is withdrawn without running.
        let relation = gen("letter", 500);
        let b_options = DiscoverOptions { th_ncover: Some(0.5), th_pcover: None };
        let b_config = EulerFdConfig { th_ncover: 0.5, ..EulerFdConfig::default() };
        let (b_fds, _) =
            EulerFd::with_config(b_config).discover_budgeted(&relation, &Budget::unlimited());
        let expected_b = render_fds(&b_fds);

        let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        server.register_relation("held", relation).expect("register");
        let session = server.session();
        let handle = server.shared.catalog.handle("held").expect("registered");
        let held = lock(&handle);

        let a = session.submit(discover("held"));
        let b = session.submit(Request::Discover { dataset: "held".into(), options: b_options });
        assert!(session.cancel(b), "pending job must be cancellable");
        drop(held);

        match &session.wait(a).outcome {
            JobOutcome::Discovered { termination, .. } => assert!(!termination.is_partial()),
            other => panic!("job A -> {other:?}"),
        }
        match &session.wait(b).outcome {
            JobOutcome::Cancelled { .. } => {}
            other => panic!("cancelled job B -> {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.jobs_cancelled, 1, "{stats:?}");
        assert_eq!(stats.jobs_completed, 1, "{stats:?}");
        assert_eq!(server.result_cache_len(), 1, "only A's converged result may be cached");

        // Re-running B's exact request must miss the cache (a cancelled job
        // left nothing behind) and then produce the full serial answer.
        match &session
            .run(Request::Discover { dataset: "held".into(), options: b_options })
            .outcome
        {
            JobOutcome::Discovered { from_cache, fds, termination, .. } => {
                assert!(!from_cache, "cancelled job B populated the result cache");
                assert!(!termination.is_partial());
                assert_eq!(render_fds(fds), expected_b);
            }
            other => panic!("B rerun -> {other:?}"),
        }
        assert_eq!(server.result_cache_len(), 2);
    }

    #[test]
    fn server_counters_join_the_snapshot() {
        if !fd_telemetry::compiled() {
            return; // plain build: recording is compiled out, nothing to assert
        }
        let _serial = crate::server_test_lock();
        fd_telemetry::set_enabled(true);
        let server = Server::start(ServerConfig::default());
        server.register_relation("m", gen("abalone", 600)).expect("register");
        let session = server.session();
        let discover =
            || Request::Discover { dataset: "m".into(), options: DiscoverOptions::default() };
        // The single worker is dispatched the first job and blocks on the
        // held dataset, so the doomed job is withdrawn while pending.
        let handle = server.shared.catalog.handle("m").expect("registered");
        let held = lock(&handle);
        let slow = session.submit(discover());
        let doomed = session.submit(Request::Discover {
            dataset: "m".into(),
            options: DiscoverOptions { th_ncover: Some(0.5), th_pcover: None },
        });
        session.cancel(doomed);
        drop(held);
        session.wait(slow);
        session.wait(doomed);
        // Two identical discovers: both hit the result cache seeded by `slow`.
        session.run(discover());
        session.run(discover());
        let stats = server.stats();
        let snap = fd_telemetry::snapshot();
        fd_telemetry::set_enabled(false);
        let json = snap.to_json();
        // Schema pin: the serving-layer counters are wire format now, mirrored
        // by the always-available `ServerStats` atomics.
        for key in ["server.jobs_completed", "server.jobs_cancelled", "server.cache_hits"] {
            assert!(json.contains(&format!("\"{key}\":")), "snapshot must serialize {key}");
        }
        assert!(
            snap.counter("server.jobs_completed").unwrap_or(0) >= 3,
            "two discovers plus the slow job must count as completed"
        );
        assert_eq!(
            snap.counter("server.jobs_cancelled"),
            Some(stats.jobs_cancelled),
            "telemetry disagrees with ServerStats on cancellations"
        );
        assert_eq!(
            snap.counter("server.cache_hits"),
            Some(stats.cache_hits),
            "telemetry disagrees with ServerStats on cache hits"
        );
        assert!(stats.cache_hits >= 1, "the identical repeat discover must hit the cache");
    }
}
