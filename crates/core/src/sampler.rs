//! The EulerFD sampling module (Section IV-C, Algorithm 1).
//!
//! Combines the MLFQ across clusters (which *suggests the sampling range*)
//! with a sliding window inside each cluster (which enumerates tuple pairs
//! without repetition). Each sample (one *step*) compares the pairs at the
//! cluster's current window distance, measures the step's contribution
//!
//! ```text
//! capa = new non-FDs / tuple pairs compared in this sample
//! ```
//!
//! and requeues the cluster by that capa — unless its average capa over the
//! most recent samples dropped to 0, in which case it retires.
//!
//! A step's pairs are never laid out anywhere: the plan records only the
//! cluster and its pair count, and the compare kernel reads each pair
//! `(rows[i], rows[i + window - 1])` straight from the cluster's row list.

use crate::config::EulerFdConfig;
use crate::mlfq::{ClusterId, Mlfq};
use fd_core::{AgreeSetTable, AttrSet, Budget, Fd, NCover, Termination};
use fd_relation::{sampling_clusters_parallel, window_pairs, Relation, RowId, RowMajor};
use std::collections::VecDeque;

/// Counters exposed in the discovery report.
#[derive(Clone, Debug, Default)]
pub struct SamplerStats {
    /// Total tuple pairs compared by folded steps.
    pub pairs_compared: u64,
    /// Agree sets that survived the comparison kernel's novelty pre-filter
    /// and reached the sequential cover fold. Diagnostic only: a set
    /// straddling two worker chunks is counted once per chunk, so this may
    /// grow slightly with the thread count (the fold collapses duplicates,
    /// keeping the covers themselves thread-invariant).
    pub fold_candidates: u64,
    /// Pairs compared for steps that were planned into a compare batch but
    /// never folded: the tail of a batch cut short by a budget trip or by
    /// the driver's step bound. Diagnostic only, like `fold_candidates`: at
    /// one thread every batch is a single step and this stays 0; batches,
    /// and so discards, grow with the thread count.
    pub discarded_pairs: u64,
    /// Agree sets that reached the fold but were already in the dedup set.
    /// Thread-dependent diagnostic, like `fold_candidates`: a set that
    /// straddled worker chunks reaches the fold once per chunk.
    pub duplicate_candidates: u64,
    /// Non-FDs the folded agree sets added to the negative cover.
    pub new_non_fds: u64,
    /// Folded steps (`sample()` invocations of Algorithm 1).
    pub samples: u64,
    /// Largest number of kernel worker threads any single compare batch
    /// used.
    pub peak_workers: usize,
    /// Clusters in the initial population.
    pub clusters_total: usize,
    /// Cluster retirement events under the zero-capa rule (a revived cluster
    /// can retire again).
    pub clusters_retired: usize,
    /// Clusters that ran out of window positions.
    pub clusters_exhausted: usize,
    /// Clusters re-enqueued by cycle 2 after the MLFQ drained.
    pub revivals: usize,
}

/// Sampling state of one cluster.
struct ClusterState {
    rows: Vec<RowId>,
    /// Current window size; the pair compared at position `i` is
    /// `(rows[i], rows[i + window - 1])`. Starts at 2 and grows by one per
    /// sample, so no pair is ever compared twice.
    window: usize,
    /// capa values of the most recent samples (bounded FIFO).
    recent: VecDeque<f64>,
}

/// The sampling module: cluster population + MLFQ + agree-set dedup.
///
/// Samples run in compare batches of three steps: **plan** (pop clusters
/// in Algorithm 1's order and record each one with the count of its
/// current window positions — sequential), **compare** (the data-parallel
/// [`RowMajor`] kernel walks each planned cluster's window in place over
/// its row list, computes agree sets and pre-filters already-seen ones),
/// and **fold** (each planned step's candidates enter the negative cover
/// sequentially, in plan order, and requeue its cluster). One step rarely
/// holds enough pairs to engage a second worker, so planning adds steps
/// until the batch reaches the kernel's full-width size
/// ([`RowMajor::full_width_pairs`]): at one thread that is exactly one step.
///
/// Batching must not change which steps run. The initial pass samples
/// clusters in id order whatever their capa, so its batches are exact. An
/// MLFQ batch plans only from the queue being drained: a fold that requeues
/// its cluster into a strictly higher queue means that cluster is popped
/// next, so it is sampled on its own before the planned tail folds. A tail
/// cut off by a budget trip or the step bound is discarded and goes back
/// to the front of its queue. Only folded steps count, so the discovered
/// covers, growth histories and pair counts are byte-identical for every
/// thread count (DESIGN.md §8).
pub struct Sampler {
    clusters: Vec<ClusterState>,
    mlfq: Mlfq,
    /// Clusters retired by the zero-capa rule but not yet fully enumerated;
    /// cycle 2 revives these when the positive cover is still unstable.
    retired: Vec<ClusterId>,
    seen_agree: AgreeSetTable,
    /// Row-major mirror of the relation: the compare step's layout.
    row_major: RowMajor,
    /// Kernel worker threads (resolved; ≥ 1).
    threads: usize,
    /// Pairs at which planning stops adding steps to a compare batch.
    batch_pairs: usize,
    /// The planned steps: each cluster with the end of its pairs in the
    /// batch, the steps' window positions counted back to back.
    plan: Vec<(ClusterId, usize)>,
    recent_window: usize,
    stats: SamplerStats,
    /// `stats` as of the last [`Sampler::publish_counters`].
    published: SamplerStats,
    /// Every folded step as (cluster, pairs, capa), in fold order.
    #[cfg(test)]
    trace: Vec<(ClusterId, usize, f64)>,
    /// Steps of promoted clusters folded ahead of a batch's planned tail.
    #[cfg(test)]
    followed: usize,
}

impl Sampler {
    /// Builds the cluster population from the relation's stripped
    /// partitions; the MLFQ starts empty until [`Sampler::initial_pass`].
    ///
    /// With a [`fd_relation::PliCache`] the single-attribute partitions are
    /// built, or reused, through it. That is the long-lived serving path: a
    /// catalog keeps the pinned singles resident across requests, so repeat
    /// discoveries skip the partition build. The cluster population, and
    /// with it every downstream result, is the same either way.
    pub fn new(
        relation: &Relation,
        config: &EulerFdConfig,
        cache: Option<&mut fd_relation::PliCache>,
    ) -> Self {
        let threads = config.resolved_threads();
        let clusters = match cache {
            Some(cache) => fd_relation::sampling_clusters_cached(relation, cache),
            None => sampling_clusters_parallel(relation, threads),
        };
        let clusters: Vec<ClusterState> = clusters
            .into_iter()
            .map(|rows| ClusterState { rows, window: 2, recent: VecDeque::new() })
            .collect();
        let stats = SamplerStats { clusters_total: clusters.len(), ..Default::default() };
        let row_major = relation.row_major();
        Sampler {
            clusters,
            mlfq: Mlfq::new(config.queue_bounds()),
            retired: Vec::new(),
            seen_agree: AgreeSetTable::new(),
            batch_pairs: row_major.full_width_pairs(threads),
            row_major,
            threads,
            plan: Vec::new(),
            recent_window: config.recent_window.max(1),
            stats,
            published: SamplerStats::default(),
            #[cfg(test)]
            trace: Vec::new(),
            #[cfg(test)]
            followed: 0,
        }
    }

    /// Algorithm 1 lines 2–4: sample every cluster once with the initial
    /// window of 2 and enqueue it by the observed capa. Polls `budget`
    /// before each compare batch and fold and stops early on a trip,
    /// returning the reason. Clusters not folded stay out of the MLFQ,
    /// exactly as if the queue had drained.
    pub fn initial_pass(
        &mut self,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
        budget: &Budget,
    ) -> Option<Termination> {
        let mut poll = |pairs, cover_nodes| budget.poll(pairs, cover_nodes);
        let n = self.clusters.len() as ClusterId;
        let mut next: ClusterId = 0;
        while next < n {
            if let Some(t) = poll(self.stats.pairs_compared, ncover.len()) {
                return Some(t);
            }
            // Every cluster is sampled once in id order whatever its capa,
            // so the batch is exact: no fold can change what comes next.
            while next < n && self.planned_pairs() < self.batch_pairs {
                self.plan_step(next);
                next += 1;
            }
            if let (_, Some(t)) =
                self.compare_and_fold(None, usize::MAX, ncover, pending, &mut poll)
            {
                return Some(t);
            }
        }
        None
    }

    /// Algorithm 1 lines 5–10 as one compare batch: polls the budget, then
    /// plans up to `max_steps` steps from the highest non-empty queue,
    /// compares them at once and folds them in pop order.
    ///
    /// `poll` gets `(pairs compared, negative-cover size)` and runs before
    /// the batch and before every fold but the first, i.e. once per step,
    /// exactly as if steps ran one at a time. Returns the steps folded and
    /// the budget trip, if any; no step and no trip means the MLFQ is
    /// empty.
    pub fn sample_batch(
        &mut self,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
        max_steps: usize,
        mut poll: impl FnMut(u64, usize) -> Option<Termination>,
    ) -> (usize, Option<Termination>) {
        if let Some(t) = poll(self.stats.pairs_compared, ncover.len()) {
            return (0, Some(t));
        }
        let Some(queue) = self.mlfq.head_queue() else {
            return (0, None);
        };
        while self.plan.len() < max_steps && self.planned_pairs() < self.batch_pairs {
            match self.mlfq.pop_from(queue) {
                Some(id) => self.plan_step(id),
                None => break,
            }
        }
        self.compare_and_fold(Some(queue), max_steps, ncover, pending, &mut poll)
    }

    /// Adds cluster `id`'s current window positions to the plan.
    fn plan_step(&mut self, id: ClusterId) {
        let state = &self.clusters[id as usize];
        let end = self.planned_pairs() + window_pairs(state.rows.len(), state.window);
        self.plan.push((id, end));
    }

    /// Pairs of the steps planned so far.
    fn planned_pairs(&self) -> usize {
        self.plan.last().map_or(0, |&(_, end)| end)
    }

    /// Compares the planned steps in one kernel call, then folds up to
    /// `max_steps` steps in pop order, polling before every fold but the
    /// first.
    ///
    /// With `queue` set (the batch drains that MLFQ queue), a fold may
    /// requeue its cluster into a strictly higher queue. That queue held
    /// nothing before, so one step at a time would pop the promoted cluster
    /// next: it is sampled as a batch of its own, as often as it stays above
    /// `queue`, before the next planned step folds. A budget trip or the
    /// step bound ends the batch early; its unfolded tail is discarded —
    /// back at the front of `queue` in order, or, in the initial pass, left
    /// out of the MLFQ. Returns the steps folded and the trip, if any.
    fn compare_and_fold(
        &mut self,
        queue: Option<usize>,
        max_steps: usize,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
        poll: &mut impl FnMut(u64, usize) -> Option<Termination>,
    ) -> (usize, Option<Termination>) {
        // Compare: agree sets of every planned pair, minus those already in
        // `seen_agree` (a read-only snapshot here — workers never mutate
        // shared state), each tagged with its pair so it folds with the
        // step that planned that pair. A planned cluster's window has not
        // moved since planning: only its own fold moves it.
        let steps = self.plan.iter().map(|&(id, _)| {
            let state = &self.clusters[id as usize];
            (state.rows.as_slice(), state.window)
        });
        let (candidates, batch) =
            self.row_major.novel_window_agree_sets(steps, &self.seen_agree, self.threads);
        self.stats.peak_workers = self.stats.peak_workers.max(batch.workers);
        let planned_pairs = self.planned_pairs();
        let mut candidates = candidates.into_iter().peekable();
        let plan = std::mem::take(&mut self.plan);
        let mut next = 0;
        let mut start = 0;
        let mut folded = 0;
        let mut trip = None;
        while next < plan.len() && folded < max_steps {
            if folded > 0 {
                trip = poll(self.stats.pairs_compared, ncover.len());
                if trip.is_some() {
                    break;
                }
            }
            match queue.and_then(|q| self.mlfq.head_queue().filter(|&h| h < q)) {
                Some(higher) => {
                    let id = self.mlfq.pop_from(higher).expect("head queue is non-empty");
                    self.plan_step(id);
                    self.compare_and_fold(Some(higher), 1, ncover, pending, poll);
                    #[cfg(test)]
                    {
                        self.followed += 1;
                    }
                }
                None => {
                    let (id, end) = plan[next];
                    let step = std::iter::from_fn(|| candidates.next_if(|&(pair, _)| pair < end));
                    self.fold_step(id, end - start, step, ncover, pending);
                    next += 1;
                    start = end;
                }
            }
            folded += 1;
        }
        if next < plan.len() {
            let discarded = (planned_pairs - start) as u64;
            self.stats.discarded_pairs += discarded;
            if let Some(q) = queue {
                let tail: Vec<ClusterId> = plan[next..].iter().map(|&(id, _)| id).collect();
                self.mlfq.restore_front(q, &tail);
            }
        }
        self.plan = plan;
        self.plan.clear();
        (folded, trip)
    }

    /// Algorithm 1 lines 13–21 (`sample(cluster)`) past the compare: folds
    /// one step's candidates, in pair order, and requeues, retires or
    /// exhausts the cluster.
    fn fold_step(
        &mut self,
        id: ClusterId,
        pairs: usize,
        candidates: impl Iterator<Item = (usize, AttrSet)>,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
    ) {
        if pairs == 0 {
            self.stats.clusters_exhausted += 1;
            return; // no pair left at any position; cluster is spent
        }
        // Re-checking `seen_agree.insert` keeps the cover semantics exact
        // when a set reached the candidate list once per worker chunk, or
        // was folded by an earlier step of the same batch.
        let mut new_non_fds = 0usize;
        let mut fold_candidates = 0u64;
        let mut duplicates = 0u64;
        for (_, agree) in candidates {
            fold_candidates += 1;
            if self.seen_agree.insert(agree) {
                new_non_fds += ncover.add_agree_set_collect(agree, pending);
            } else {
                duplicates += 1;
            }
        }
        self.stats.pairs_compared += pairs as u64;
        self.stats.fold_candidates += fold_candidates;
        self.stats.duplicate_candidates += duplicates;
        self.stats.new_non_fds += new_non_fds as u64;
        self.stats.samples += 1;

        let capa = new_non_fds as f64 / pairs as f64;
        #[cfg(test)]
        self.trace.push((id, pairs, capa));
        let state = &mut self.clusters[id as usize];
        if state.recent.len() == self.recent_window {
            state.recent.pop_front();
        }
        state.recent.push_back(capa);
        state.window += 1;

        // Requeue while the recent average capa is positive (line 17). A
        // cluster only retires once a full recent window of samples is all
        // zero — one unproductive sample first sinks it to the lowest queue
        // and "waits for continuous sampling" (Figure 3 narrative). The
        // window bound retires clusters that are fully enumerated.
        let avg: f64 = state.recent.iter().sum::<f64>() / state.recent.len() as f64;
        if state.window > state.rows.len() {
            self.stats.clusters_exhausted += 1;
        } else if avg > 0.0 || state.recent.len() < self.recent_window {
            self.mlfq.push(id, capa);
        } else {
            self.retired.push(id);
            self.stats.clusters_retired += 1;
        }
    }

    /// True when no cluster is queued for further sampling.
    pub fn is_exhausted(&self) -> bool {
        self.mlfq.is_empty()
    }

    /// Cycle 2's "return to the sampling module" when the queue has already
    /// drained: re-enqueues every retired-but-not-exhausted cluster (with a
    /// cleared capa history, so each gets a fresh recent window before it
    /// can retire again). Returns how many clusters were revived.
    pub fn revive_retired(&mut self) -> usize {
        let mut revived = 0;
        for id in std::mem::take(&mut self.retired) {
            let state = &mut self.clusters[id as usize];
            if state.window > state.rows.len() {
                continue; // fully enumerated since retirement bookkeeping
            }
            state.recent.clear();
            self.mlfq.push(id, 0.0);
            revived += 1;
        }
        self.stats.revivals += revived;
        revived
    }

    /// Counters so far.
    pub fn stats(&self) -> &SamplerStats {
        &self.stats
    }

    /// Adds the counters' growth since the last call to the
    /// `euler.sampler.*` telemetry counters. The driver calls this once per
    /// sampling phase and once at the end of a run, instead of the fold
    /// firing four counters on every step; the totals are the same. As
    /// before, the per-step counters appear once a step has folded, and the
    /// event counters once their event has happened.
    pub fn publish_counters(&mut self) {
        let (now, was) = (&self.stats, &self.published);
        if now.samples > was.samples {
            fd_telemetry::counter!("euler.sampler.samples", now.samples - was.samples);
            fd_telemetry::counter!(
                "euler.sampler.pairs_compared",
                now.pairs_compared - was.pairs_compared
            );
            fd_telemetry::counter!(
                "euler.sampler.duplicate_candidates",
                now.duplicate_candidates - was.duplicate_candidates
            );
            fd_telemetry::counter!("euler.sampler.new_non_fds", now.new_non_fds - was.new_non_fds);
        }
        if now.discarded_pairs > was.discarded_pairs {
            fd_telemetry::counter!(
                "euler.sampler.discarded_pairs",
                now.discarded_pairs - was.discarded_pairs
            );
        }
        if now.clusters_retired > was.clusters_retired {
            fd_telemetry::counter!(
                "euler.sampler.clusters_retired",
                (now.clusters_retired - was.clusters_retired) as u64
            );
        }
        if now.revivals > was.revivals {
            fd_telemetry::counter!("euler.sampler.revivals", (now.revivals - was.revivals) as u64);
        }
        self.published = self.stats.clone();
    }

    /// Current queue occupancy (diagnostics / report).
    pub fn mlfq_occupancy(&self) -> Vec<usize> {
        self.mlfq.occupancy()
    }

    /// MLFQ requeues into higher-priority queues so far (cycle trace).
    pub fn mlfq_promotions(&self) -> u64 {
        self.mlfq.promotions()
    }

    /// MLFQ requeues into lower-priority queues so far (cycle trace).
    pub fn mlfq_demotions(&self) -> u64 {
        self.mlfq.demotions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::patient;

    impl Sampler {
        /// One compare batch with no budget; false once the MLFQ is empty.
        fn sample_next(&mut self, ncover: &mut NCover, pending: &mut Vec<Fd>) -> bool {
            self.sample_batch(ncover, pending, usize::MAX, |_, _| None).0 > 0
        }

        /// One step of cluster `id`, outside the MLFQ's order.
        fn sample_cluster(&mut self, id: ClusterId, ncover: &mut NCover, pending: &mut Vec<Fd>) {
            self.plan_step(id);
            self.compare_and_fold(None, 1, ncover, pending, &mut |_, _| None);
        }
    }

    fn setup() -> (Sampler, NCover, Vec<Fd>) {
        let r = patient();
        let config = EulerFdConfig::default();
        let sampler = Sampler::new(&r, &config, None);
        let ncover = NCover::new(r.n_attrs());
        (sampler, ncover, Vec::new())
    }

    #[test]
    fn initial_pass_samples_every_cluster_once() {
        let (mut sampler, mut ncover, mut pending) = setup();
        let n_clusters = sampler.clusters.len();
        assert!(n_clusters > 0);
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        assert_eq!(sampler.stats().samples, n_clusters as u64);
        // Window-2 comparisons of clustered tuples must surface non-FDs on
        // the patient data (e.g. G ↛ N from the Gender cluster).
        assert!(!ncover.is_empty());
        assert!(!pending.is_empty());
    }

    #[test]
    fn window_grows_and_pairs_are_never_repeated() {
        let (mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        let mut total = sampler.stats().pairs_compared;
        while sampler.sample_next(&mut ncover, &mut pending) {
            let now = sampler.stats().pairs_compared;
            assert!(now >= total);
            total = now;
        }
        // Exhaustive bound: a cluster of size k has k·(k−1)/2 distinct pairs.
        let max_pairs: u64 = sampler
            .clusters
            .iter()
            .map(|c| (c.rows.len() * (c.rows.len() - 1) / 2) as u64)
            .sum();
        assert!(total <= max_pairs, "compared {total} > possible {max_pairs}");
    }

    #[test]
    fn figure_3_window_positions() {
        // The paper's Figure 3 cluster c1 = Gender's Female cluster
        // {t1,t3,t4,t5,t6,t7}: window 2 yields 5 pairs, window 3 yields 4,
        // window 4 yields 3.
        let (mut sampler, mut ncover, mut pending) = setup();
        let c1 = sampler
            .clusters
            .iter()
            .position(|c| c.rows == vec![0, 2, 3, 4, 5, 6])
            .expect("Female cluster present") as ClusterId;
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 5);
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 9);
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 12);
    }

    #[test]
    fn revival_requeues_only_unexhausted_clusters() {
        let (mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        while sampler.sample_next(&mut ncover, &mut pending) {}
        assert!(sampler.is_exhausted());
        let retired_before = sampler.retired.len();
        let revived = sampler.revive_retired();
        assert_eq!(revived, retired_before, "all retirees still have windows left");
        assert_eq!(sampler.stats().revivals, revived);
        if revived > 0 {
            assert!(!sampler.is_exhausted());
            // Revived clusters sample again without panicking and without
            // repeating pairs (window monotonicity is preserved).
            let pairs_before = sampler.stats().pairs_compared;
            while sampler.sample_next(&mut ncover, &mut pending) {}
            assert!(sampler.stats().pairs_compared >= pairs_before);
        }
        // Drain-revive loops terminate: windows only grow.
        let mut rounds = 0;
        while sampler.revive_retired() > 0 {
            while sampler.sample_next(&mut ncover, &mut pending) {}
            rounds += 1;
            assert!(rounds < 100, "revival must terminate");
        }
    }

    #[test]
    fn revival_clears_recent_history() {
        let (mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        while sampler.sample_next(&mut ncover, &mut pending) {}
        if sampler.revive_retired() > 0 {
            // Every revived cluster gets a full fresh recent window before it
            // can retire again: one zero-capa sample must not retire it.
            let before = sampler.stats().clusters_retired;
            let popped = sampler.mlfq.pop().expect("revived cluster queued");
            sampler.sample_cluster(popped, &mut ncover, &mut pending);
            let state = &sampler.clusters[popped as usize];
            if state.window <= state.rows.len() {
                assert_eq!(
                    sampler.stats().clusters_retired,
                    before,
                    "first post-revival sample must not retire the cluster"
                );
            }
        }
    }

    /// Samples `relation` to exhaustion — initial pass, then MLFQ batches
    /// of at most `max_steps` steps and revivals — planning each batch up
    /// to `batch_pairs` pairs. Returns the sampler and the cover's size.
    fn sample_to_exhaustion(
        relation: &Relation,
        batch_pairs: usize,
        max_steps: usize,
    ) -> (Sampler, usize) {
        let mut sampler = Sampler::new(relation, &EulerFdConfig::default(), None);
        sampler.batch_pairs = batch_pairs;
        let mut ncover = NCover::new(relation.n_attrs());
        let mut pending = Vec::new();
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        loop {
            while sampler.sample_batch(&mut ncover, &mut pending, max_steps, |_, _| None).0 > 0 {}
            if sampler.revive_retired() == 0 {
                break;
            }
        }
        (sampler, ncover.len())
    }

    #[test]
    fn batches_fold_the_steps_one_step_at_a_time_would() {
        let relation = fd_relation::synth::dataset_spec("adult").unwrap().generate(600);
        // One pair per batch plans exactly one step: the reference order.
        let (single, single_ncover) = sample_to_exhaustion(&relation, 1, usize::MAX);
        assert_eq!(single.followed, 0);
        assert_eq!(single.stats().discarded_pairs, 0);
        for max_steps in [usize::MAX, 3] {
            // Each batch plans the whole queue being drained (up to the
            // step bound), so some fold promotes a cluster above it while
            // planned steps are still waiting.
            let (batched, batched_ncover) = sample_to_exhaustion(&relation, usize::MAX, max_steps);
            assert!(batched.followed > 0, "no promotion mid-batch (max_steps={max_steps})");
            let diverged = batched.trace.iter().zip(&single.trace).position(|(a, b)| a != b);
            assert_eq!(diverged, None, "fold order diverged (max_steps={max_steps})");
            assert_eq!(batched.trace.len(), single.trace.len(), "max_steps={max_steps}");
            assert_eq!(batched_ncover, single_ncover);
            assert_eq!(batched.stats().pairs_compared, single.stats().pairs_compared);
            assert_eq!(batched.stats().samples, single.stats().samples);
            assert_eq!(batched.mlfq_promotions(), single.mlfq_promotions());
            if max_steps == 3 {
                // A followed promotion spends a step of the bound, so the
                // batch's last planned step went back to its queue unfolded.
                assert!(batched.stats().discarded_pairs > 0);
            } else {
                assert_eq!(batched.stats().discarded_pairs, 0);
            }
        }
    }

    #[test]
    fn zero_capa_twice_retires_a_cluster() {
        let (mut sampler, mut ncover, mut pending) = setup();
        // Exhaust all evidence first so every further sample has capa 0.
        sampler.initial_pass(&mut ncover, &mut pending, &Budget::unlimited());
        while sampler.sample_next(&mut ncover, &mut pending) {}
        assert!(sampler.is_exhausted());
        let s = sampler.stats();
        assert_eq!(
            s.clusters_total,
            s.clusters_retired + s.clusters_exhausted,
            "every cluster ends retired or exhausted: {s:?}"
        );
    }
}
