//! The EulerFD double-cycle driver (Section IV, Figure 1).
//!
//! Orchestrates the four modules:
//!
//! ```text
//!            ┌────────────┐   GR_Ncover > Th_Ncover   ┌──────────┐
//! preprocess │  sampling  │ ◀───────────────────────── │  Ncover  │
//! ────────▶  │ (MLFQ+win) │ ─────────────────────────▶ │  build   │ (cycle 1)
//!            └────────────┘                            └────┬─────┘
//!                  ▲                                        │ GR_Ncover ≤ Th
//!                  │ GR_Pcover > Th_Pcover             ┌────▼─────┐
//!                  └────────────────────────────────── │ inversion│ (cycle 2)
//!                                                      └────┬─────┘
//!                                                           ▼ GR_Pcover ≤ Th
//!                                                        Pcover (FDs)
//! ```
//!
//! Preprocessing is the dictionary encoding already carried by
//! [`fd_relation::Relation`]; negative-cover construction is incremental
//! (each sampled agree set is folded into the maximal-non-FD trees on the
//! spot), so the cycle-1 check reduces to measuring how much the cover grew
//! during the latest sampling batch.

use crate::config::EulerFdConfig;
use crate::sampler::{Sampler, SamplerStats};
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, InvertDelta, NCover, PCover, Termination};
use fd_relation::{FdAlgorithm, Relation};

/// The EulerFD approximate discovery algorithm.
#[derive(Clone, Debug, Default)]
pub struct EulerFd {
    config: EulerFdConfig,
}

/// Everything a run reports besides the FDs themselves — the harness feeds
/// these numbers into the paper's tables and figures.
#[derive(Clone, Debug, Default)]
pub struct EulerFdReport {
    /// Sampling counters.
    pub sampler: SamplerStats,
    /// `GR_Ncover` measured after each sampling batch (cycle 1 history).
    pub gr_ncover: Vec<f64>,
    /// `GR_Pcover` measured after each inversion (cycle 2 history).
    pub gr_pcover: Vec<f64>,
    /// Inversion phases executed.
    pub inversions: usize,
    /// Maximal non-FDs in the final negative cover.
    pub ncover_size: usize,
    /// FDs in the final positive cover.
    pub pcover_size: usize,
    /// Candidate churn summed over all inversions.
    pub invert_delta: InvertDelta,
    /// Why the run stopped. [`Termination::Converged`] means the double
    /// cycle reached its natural fixpoint; anything else means the budget
    /// tripped and the FDs are the best-so-far anytime answer.
    pub termination: Termination,
    /// Non-FDs that were still awaiting inversion when the budget tripped.
    /// For every reason except [`Termination::Cancelled`] the driver drains
    /// them before returning (keeping the answer sound w.r.t. all sampled
    /// pairs), so this counts the final drain's input; for `Cancelled` it
    /// counts evidence the returned cover does *not* reflect.
    pub pending_at_trip: usize,
}

impl EulerFdReport {
    /// True when the run was cut short by its budget (or a cancellation).
    pub fn is_partial(&self) -> bool {
        self.termination.is_partial()
    }
}

impl EulerFd {
    /// EulerFD with the paper's default parameters
    /// (`Th_Ncover = Th_Pcover = 0.01`, 6 MLFQ queues).
    pub fn new() -> Self {
        Self::default()
    }

    /// EulerFD with an explicit configuration.
    pub fn with_config(config: EulerFdConfig) -> Self {
        EulerFd { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EulerFdConfig {
        &self.config
    }

    /// Runs discovery under a [`Budget`]: anytime execution with cooperative
    /// cancellation, returning the FDs together with the run report. With
    /// [`Budget::unlimited`] this is the plain run [`FdAlgorithm::discover`]
    /// makes. When the budget trips (deadline, pair cap, cover cap, or an
    /// external cancel via the budget's token), the driver exits the current
    /// cycle and returns the best-so-far positive cover; `report.termination`
    /// tells a full answer from a truncated one.
    ///
    /// Checkpoints: the budget is polled once per sampling step (one MLFQ
    /// window pass) and at every cycle boundary, and the inversion shards
    /// watch the shared token between non-FDs. Except under an external
    /// [`Termination::Cancelled`], non-FDs already sampled are always
    /// inverted before returning, so the partial cover is minimal,
    /// non-trivial, and sound with respect to every tuple pair compared.
    pub fn discover_budgeted(
        &self,
        relation: &Relation,
        budget: &Budget,
    ) -> (FdSet, EulerFdReport) {
        self.discover_budgeted_cached(relation, budget, None)
    }

    /// [`EulerFd::discover_budgeted`] with the sampler's single-attribute
    /// partitions built through a shared [`fd_relation::PliCache`] when one
    /// is given. That is the serving entry point, where a catalog keeps
    /// pinned singles resident across requests and repeat discoveries skip
    /// the partition build. Results are byte-identical with and without a
    /// cache for any relation and budget; only the construction cost
    /// changes.
    pub fn discover_budgeted_cached(
        &self,
        relation: &Relation,
        budget: &Budget,
        cache: Option<&mut fd_relation::PliCache>,
    ) -> (FdSet, EulerFdReport) {
        let m = relation.n_attrs();
        let mut report = EulerFdReport::default();
        let mut ncover = NCover::new(m);
        let mut pcover = PCover::initialized(m);
        // Non-FDs awaiting inversion, in arrival order.
        let mut pending: Vec<Fd> = Vec::new();

        // ∅-level evidence is free: every non-constant column is violated by
        // some pair (pairs with empty agree sets are outside all clusters,
        // so sampling alone would never produce these non-FDs). Constancy is
        // a value scan, not `n_distinct > 1`: after `apply_delta` the
        // distinct count is only a label bound and may overshoot on columns
        // whose last disagreeing rows were deleted.
        for a in 0..m as AttrId {
            if !relation.is_constant(a) && ncover.add(Fd::new(AttrSet::empty(), a)) {
                pending.push(Fd::new(AttrSet::empty(), a));
            }
        }

        // Phase timing is telemetry only: each phase runs under a
        // `euler.phase.sample` / `euler.phase.invert` span, which records on
        // drop (every exit path, including `break 'run`).
        let mut sampler;
        let mut termination;
        {
            let _sample = fd_telemetry::span!("euler.phase.sample");
            sampler = Sampler::new(relation, &self.config, cache);
            termination =
                sampler.initial_pass(&mut ncover, &mut pending, budget).unwrap_or_default();
            sampler.publish_counters();
        }

        // Algorithm 1 runs the MLFQ to exhaustion per sampling phase; the
        // batch bound (ablation knob) can hand control back to the growth
        // check earlier. The default is a full drain, like the paper.
        let batch = if self.config.batch_factor.is_finite() {
            ((sampler.stats().clusters_total as f64 * self.config.batch_factor) as usize)
                .max(self.config.min_batch)
        } else {
            usize::MAX
        };

        'run: while termination == Termination::Converged {
            // Chaos hook at the cycle boundary: a forced budget trip cancels
            // the token, and the very next poll (first sampling step below)
            // winds the run down through the normal anytime drain — the
            // partial-result machinery, not a special case.
            if fd_faults::inject!("euler.cycle") == Some(fd_faults::Injected::BudgetTrip) {
                budget.token().cancel_with(Termination::DeadlineExceeded);
            }
            // ── Cycle 1: sample while the negative cover keeps growing.
            // GR_Ncover is the fraction of *additions* relative to the cover
            // size before the phase ("percentage of additions", V-F). When
            // the growth rate says "keep sampling" but the queue has
            // drained, retired clusters are revived for another pass.
            {
                let _sample = fd_telemetry::span!("euler.phase.sample");
                loop {
                    let size_before = ncover.len();
                    let adds_before = ncover.insertions();
                    let mut steps = 0;
                    while steps < batch {
                        // Budget checkpoint: the sampler polls once per
                        // sampling step, before the step's fold. A step is a
                        // full window pass over one cluster, so the poll is
                        // amortized over at least one pair comparison.
                        let poll = |pairs, n: usize| budget.poll(pairs, n + pcover.len());
                        let (folded, trip) =
                            sampler.sample_batch(&mut ncover, &mut pending, batch - steps, poll);
                        if let Some(t) = trip {
                            termination = t;
                            break 'run; // the span records on drop
                        }
                        if folded == 0 {
                            break;
                        }
                        steps += folded;
                    }
                    let sampled_any = steps > 0;
                    let added = ncover.insertions() - adds_before;
                    let gr = added as f64 / size_before.max(1) as f64;
                    report.gr_ncover.push(gr);
                    fd_telemetry::event!(
                        "euler.sample_round",
                        round = (report.gr_ncover.len() - 1) as f64,
                        ncover_size = ncover.len() as f64,
                        gr_ncover = gr,
                        th_ncover = self.config.th_ncover,
                        mlfq_promotions = sampler.mlfq_promotions() as f64,
                        mlfq_demotions = sampler.mlfq_demotions() as f64,
                    );
                    if gr <= self.config.th_ncover && sampled_any {
                        break; // the cover stabilized: move to inversion
                    }
                    if sampler.is_exhausted()
                        && (!self.config.enable_revival || sampler.revive_retired() == 0)
                    {
                        break; // nothing left to sample
                    }
                }
                sampler.publish_counters();
            }

            // ── Inversion + cycle 2: stop unless Pcover churns enough. ──
            // Processing the most specialized non-FDs first (Algorithm 2's
            // sort) prunes each candidate once instead of re-specializing it
            // repeatedly as more general evidence arrives. The shards watch
            // the budget, so a deadline, a watchdog or an external cancel
            // stops the inversion between non-FDs; whatever it skipped stays
            // in `pending` for the final drain below, and the poll after the
            // cycle's bookkeeping reports the trip.
            let before_p = pcover.len();
            let (delta, _) = {
                let _invert = fd_telemetry::span!("euler.phase.invert");
                pcover.invert_batch(&mut pending, self.config.resolved_threads(), budget)
            };
            report.inversions += 1;
            report.invert_delta += delta;
            let gr_p = delta.added as f64 / before_p.max(1) as f64;
            report.gr_pcover.push(gr_p);
            fd_telemetry::event!(
                "euler.cycle",
                cycle = (report.inversions - 1) as f64,
                ncover_size = ncover.len() as f64,
                pcover_size = pcover.len() as f64,
                gr_pcover = gr_p,
                th_pcover = self.config.th_pcover,
                invalidated = delta.removed as f64,
                specialized = delta.added as f64,
            );
            fd_telemetry::counter!("euler.invalidations", delta.removed as u64);
            if let Some(t) = budget.poll(sampler.stats().pairs_compared, ncover.len() + pcover.len())
            {
                termination = t;
                break 'run;
            }
            // A positive threshold stops on stability; a threshold of
            // exactly 0 demands full enumeration (an idle inversion does not
            // prove the remaining windows barren), so only the sampling
            // check below may terminate the run then.
            if self.config.th_pcover > 0.0 && gr_p <= self.config.th_pcover {
                break;
            }
            // Return to the sampling module. If the MLFQ drained during
            // cycle 1, revive the retired (but not yet fully enumerated)
            // clusters; when nothing is left to sample at all, more cycles
            // cannot change the answer.
            if sampler.is_exhausted()
                && (!self.config.enable_revival || sampler.revive_retired() == 0)
            {
                break;
            }
        }

        report.termination = termination;
        report.pending_at_trip = pending.len();
        if !pending.is_empty() && termination != Termination::Cancelled {
            // Graceful degradation: fold the evidence already paid for into
            // the cover so the partial answer stays sound w.r.t. every pair
            // actually compared. Skipped only on an external cancel, where
            // the caller asked to stop as fast as possible.
            let (delta, _) = {
                let _invert = fd_telemetry::span!("euler.phase.invert");
                let threads = self.config.resolved_threads();
                pcover.invert_batch(&mut pending, threads, &Budget::unlimited())
            };
            report.inversions += 1;
            report.invert_delta += delta;
            fd_telemetry::counter!("euler.invalidations", delta.removed as u64);
        }

        // Counters of a phase cut short by `break 'run`, and revivals made
        // outside a sampling phase.
        sampler.publish_counters();
        report.sampler = sampler.stats().clone();
        report.ncover_size = ncover.len();
        let fds = pcover.to_fdset();
        report.pcover_size = fds.len();
        (fds, report)
    }
}

impl FdAlgorithm for EulerFd {
    fn name(&self) -> &str {
        "EulerFD"
    }

    /// The inherent [`EulerFd::discover_budgeted`] without its report.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let (fds, report) = EulerFd::discover_budgeted(self, relation, budget);
        (fds, report.termination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::patient;

    #[test]
    fn eulerfd_is_exact_on_the_patient_dataset() {
        // Tiny data: sampling exhausts every pair, so the result must be
        // the exact cover of Table I — including the worked examples.
        let r = patient();
        let (fds, report) = EulerFd::new().discover_budgeted(&r, &Budget::unlimited());
        assert!(fds.is_minimal_cover());
        assert!(fds.contains(&Fd::new(AttrSet::from_attrs([1u16, 2]), 4))); // AB → M
        assert!(!fds.contains(&Fd::new(AttrSet::single(3), 4))); // G ↛ M
        assert!(report.inversions >= 1);
        assert_eq!(report.pcover_size, fds.len());
        assert!(report.sampler.pairs_compared > 0);
    }

    #[test]
    fn report_histories_are_populated() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(1000);
        let (_, report) = EulerFd::new().discover_budgeted(&r, &Budget::unlimited());
        assert!(!report.gr_ncover.is_empty());
        assert_eq!(report.gr_pcover.len(), report.inversions);
        assert!(report.ncover_size > 0);
    }

    #[test]
    fn zero_thresholds_exhaust_all_sampling() {
        // With both thresholds at 0, EulerFD keeps cycling until the MLFQ is
        // fully drained, making it equivalent to exhaustive induction.
        let r = patient();
        let euler =
            EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0));
        let fds = euler.discover(&r);
        let truth = fd_baselines_equiv(&r);
        assert_eq!(fds, truth);
    }

    /// Local exhaustive induction (mirrors Fdep) to avoid a dependency on
    /// the baselines crate from inside the core crate's tests.
    fn fd_baselines_equiv(r: &Relation) -> FdSet {
        let mut ncover = NCover::new(r.n_attrs());
        for a in 0..r.n_attrs() as AttrId {
            if r.n_distinct(a) > 1 {
                ncover.add(Fd::new(AttrSet::empty(), a));
            }
        }
        for t in 0..r.n_rows() as u32 {
            for u in t + 1..r.n_rows() as u32 {
                ncover.add_agree_set(r.agree_set(t, u));
            }
        }
        fd_core::invert_ncover(&ncover).to_fdset()
    }

    #[test]
    fn constant_column_reported_as_empty_lhs_fd() {
        let r = Relation::from_encoded_columns(
            "c",
            vec!["k".into(), "c".into(), "x".into()],
            vec![vec![0, 1, 2, 3], vec![0, 0, 0, 0], vec![0, 0, 1, 1]],
        );
        let fds = EulerFd::new().discover(&r);
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 1)));
    }

    #[test]
    fn queue_count_one_still_terminates() {
        let r = patient();
        let euler = EulerFd::with_config(EulerFdConfig::with_queues(1));
        let fds = euler.discover(&r);
        assert!(fds.is_minimal_cover());
    }

    #[test]
    fn single_row_relation_has_no_evidence() {
        // One tuple: no pairs exist, every column is "constant", so the
        // most general cover ∅ → A is correct for every attribute.
        let r = Relation::from_encoded_columns(
            "one",
            vec!["a".into(), "b".into()],
            vec![vec![0], vec![0]],
        );
        let fds = EulerFd::new().discover(&r);
        assert_eq!(fds.len(), 2);
        assert!(fds.iter().all(|fd| fd.lhs.is_empty()));
    }

    #[test]
    fn empty_relation_yields_constant_cover() {
        let r = Relation::from_encoded_columns(
            "empty",
            vec!["a".into(), "b".into()],
            vec![vec![], vec![]],
        );
        let (fds, report) = EulerFd::new().discover_budgeted(&r, &Budget::unlimited());
        // Vacuously, ∅ → A holds for every attribute; nothing was sampled.
        assert_eq!(fds.len(), 2);
        assert_eq!(report.sampler.pairs_compared, 0);
    }

    #[test]
    fn all_identical_rows_are_all_constants() {
        let r = Relation::from_encoded_columns(
            "same",
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![0; 5], vec![0; 5], vec![0; 5]],
        );
        let fds = EulerFd::new().discover(&r);
        assert_eq!(fds.len(), 3);
        assert!(fds.iter().all(|fd| fd.lhs.is_empty()));
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(800);
        let euler = EulerFd::new();
        let fds_plain = euler.discover(&r);
        let (fds_budget, rep_budget) = euler.discover_budgeted(&r, &Budget::unlimited());
        assert_eq!(fds_plain, fds_budget);
        assert_eq!(rep_budget.termination, Termination::Converged);
        assert!(!rep_budget.is_partial());
    }

    #[test]
    fn cached_entry_point_is_bit_identical_and_reuses_singles() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(600);
        let euler = EulerFd::new();
        let (plain, rep_plain) = euler.discover_budgeted(&r, &Budget::unlimited());
        let mut cache = fd_relation::PliCache::with_default_budget();
        let (cached, rep_cached) =
            euler.discover_budgeted_cached(&r, &Budget::unlimited(), Some(&mut cache));
        assert_eq!(plain, cached);
        assert_eq!(rep_plain.sampler.pairs_compared, rep_cached.sampler.pairs_compared);
        assert_eq!(rep_plain.gr_ncover, rep_cached.gr_ncover);
        // A second cached run hits every pinned single instead of rebuilding.
        let misses_after_first = cache.stats().misses;
        let (again, _) =
            euler.discover_budgeted_cached(&r, &Budget::unlimited(), Some(&mut cache));
        assert_eq!(again, plain);
        assert_eq!(cache.stats().misses, misses_after_first);
        assert!(cache.stats().hits >= r.n_attrs());
    }

    #[test]
    fn pair_budget_trips_and_partial_cover_is_sound() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(1500);
        // Tight pair cap: forces an early exit long before convergence.
        let budget = Budget::unlimited().pair_cap(50);
        let (fds, report) = EulerFd::new().discover_budgeted(&r, &budget);
        assert_eq!(report.termination, Termination::PairBudget);
        assert!(report.is_partial());
        // The cap bounds work: only one further sampling step may run after
        // the last passing poll.
        assert!(report.sampler.pairs_compared as usize <= 50 + r.n_rows());
        // The partial answer is still a minimal, non-trivial cover…
        assert!(!fds.is_empty());
        assert!(fds.is_minimal_cover());
        // …and sound w.r.t. the sampled pairs: no candidate contradicts the
        // evidence the run collected (checked indirectly: the exact cover of
        // the *sampled* evidence is exactly what inversion produces, so
        // every returned FD must cover-dominate the exact answer).
        let exact = EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0)).discover(&r);
        for fd in &exact {
            assert!(
                fds.iter().any(|c| c.rhs == fd.rhs && c.lhs.is_subset_of(&fd.lhs)),
                "partial cover must generalize the exact FD {fd:?}"
            );
        }
    }

    #[test]
    fn precancelled_token_returns_immediately() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(500);
        let budget = Budget::unlimited();
        budget.token().cancel();
        let (fds, report) = EulerFd::new().discover_budgeted(&r, &budget);
        assert_eq!(report.termination, Termination::Cancelled);
        // Nothing was sampled at all: the trip precedes the first cluster.
        assert_eq!(report.sampler.pairs_compared, 0);
        assert_eq!(report.sampler.samples, 0);
        // The most general candidates are still a (vacuously sound) answer.
        assert_eq!(fds.len(), r.n_attrs());
    }

    #[test]
    fn cover_cap_trips_as_memory_budget() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(1500);
        let budget = Budget::unlimited().cover_cap(16);
        let (fds, report) = EulerFd::new().discover_budgeted(&r, &budget);
        assert_eq!(report.termination, Termination::MemoryBudget);
        assert!(fds.is_minimal_cover());
    }

    #[test]
    fn two_column_duplicate_detection() {
        // Classic dictionary-equal columns: each determines the other,
        // regardless of sampling order.
        let r = Relation::from_encoded_columns(
            "dup",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2, 1, 0], vec![0, 1, 2, 1, 0]],
        );
        let fds = EulerFd::new().discover(&r);
        assert!(fds.contains(&Fd::new(AttrSet::single(0), 1)));
        assert!(fds.contains(&Fd::new(AttrSet::single(1), 0)));
    }
}
