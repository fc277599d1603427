//! HyFD [26] — exact hybrid discovery.
//!
//! Alternates between two phases until the candidate lattice is settled:
//!
//! 1. **Sampling / induction** (row-efficient): compare cluster-local tuple
//!    pairs at growing window distances, harvest non-FDs, and invert them
//!    into the candidate positive cover — cheap evidence that removes huge
//!    parts of the search space before any full validation runs.
//! 2. **Validation** (column-efficient): walk the candidates level by level
//!    and validate each against the full relation with stripped partition
//!    products; violations yield witness pairs that are fed back as new
//!    non-FDs, and the phase switches back to sampling when a level
//!    invalidates more than a configured fraction of its candidates.
//!
//! The result is exact: every reported FD was validated against the entire
//! instance, and minimality follows from candidates only ever being created
//! as minimal escapes of invalidated generalizations.
//!
//! The candidates live in a [`PCover`], the store every induction algorithm
//! inverts into, and each level's evidence reaches it in one
//! [`PCover::invert_batch`] (DESIGN.md §3 gives the rules that keep this as
//! fast as the original's FD-tree).
//!
//! Faithfulness notes (documented deviations from the original Java code):
//! the original sorts cluster members by a neighbouring attribute before
//! windowed comparison and manages per-cluster "efficiency queues"; we use
//! the shared cluster population of [`fd_relation::sampling_clusters`] with a
//! global window, which preserves the progressive-sampling behaviour with
//! less machinery. Validation uses partition refinement exactly like the
//! original.

use crate::fdep::seed_empty_lhs_non_fds;
use fd_core::budget::POLL_STRIDE;
use fd_core::{AgreeSetTable, AttrId, AttrSet, Budget, Fd, FdSet, NCover, PCover, Termination};
use fd_relation::{sampling_clusters_cached, FdAlgorithm, PliCache, Relation, RowId, RowMajor};
use std::cmp::Ordering;

/// The HyFD exact hybrid algorithm.
#[derive(Clone, Copy, Debug)]
pub struct HyFd {
    /// Sampling keeps running while (new non-FDs / comparisons) stays above
    /// this efficiency threshold.
    pub efficiency_threshold: f64,
    /// Switch from validation back to sampling when a level invalidates more
    /// than this fraction of its candidates.
    pub invalid_switch_ratio: f64,
}

impl Default for HyFd {
    fn default() -> Self {
        HyFd { efficiency_threshold: 0.01, invalid_switch_ratio: 0.2 }
    }
}

/// Sampling state shared across phases: the window distance grows
/// monotonically, so no tuple pair is ever compared twice.
struct Sampler {
    clusters: Vec<Vec<RowId>>,
    /// Row-major mirror for the windowed comparison loop: pair comparison is
    /// the sampler's hot path, and the bit-packed kernel wants contiguous
    /// rows, not a strided column gather.
    row_major: RowMajor,
    window: usize,
    exhausted: bool,
    seen_agree: AgreeSetTable,
}

impl Sampler {
    /// Builds the cluster population through the shared PLI cache, so the
    /// validator's single-attribute partitions are already resident.
    fn new(relation: &Relation, cache: &mut PliCache) -> Self {
        Sampler {
            clusters: sampling_clusters_cached(relation, cache),
            row_major: relation.row_major(),
            window: 1,
            exhausted: false,
            seen_agree: AgreeSetTable::new(),
        }
    }

    /// Runs windowed comparison rounds until efficiency drops below the
    /// threshold or the clusters are exhausted, appending every non-FD that
    /// changed the cover to `inserted` (only these need inverting). Polls
    /// the budget's clock every [`POLL_STRIDE`] comparisons and returns the
    /// trip, if there was one.
    fn run(
        &mut self,
        ncover: &mut NCover,
        threshold: f64,
        budget: &Budget,
        inserted: &mut Vec<Fd>,
    ) -> Option<Termination> {
        let _phase = fd_telemetry::span!("hyfd.sample");
        while !self.exhausted {
            let mut comparisons = 0usize;
            let mut new = 0usize;
            let mut any_pair = false;
            for cluster in &self.clusters {
                if cluster.len() <= self.window {
                    continue;
                }
                any_pair = true;
                for i in 0..cluster.len() - self.window {
                    if comparisons.is_multiple_of(POLL_STRIDE as usize) {
                        if let Some(t) = budget.poll_time() {
                            return Some(t);
                        }
                    }
                    let agree = self.row_major.agree_set(cluster[i], cluster[i + self.window]);
                    comparisons += 1;
                    if self.seen_agree.insert(agree) {
                        new += ncover.add_agree_set_collect(agree, inserted);
                    }
                }
            }
            self.window += 1;
            if !any_pair {
                self.exhausted = true;
                break;
            }
            let efficiency = if comparisons == 0 { 0.0 } else { new as f64 / comparisons as f64 };
            if efficiency < threshold {
                break;
            }
        }
        None
    }
}

/// The order of a prefix-tree walk over one level's candidates: LHSs by
/// their ascending attribute sequences, then RHSs. For LHSs of one size the
/// smaller sequence holds the smallest attribute of the symmetric
/// difference. Neighbours share the longest LHS prefixes, so validating in
/// this order keeps the PLI cache warm.
fn prefix_order(x: &Fd, y: &Fd) -> Ordering {
    for (a, b) in x.lhs.to_words().iter().zip(&y.lhs.to_words()) {
        let differ = a ^ b;
        if differ != 0 {
            let lowest = differ & differ.wrapping_neg();
            return if a & lowest != 0 { Ordering::Less } else { Ordering::Greater };
        }
    }
    x.rhs.cmp(&y.rhs)
}

/// The candidates of every level from `from` up, bucketed by LHS size in one
/// walk of the cover.
fn levels_from(pcover: &PCover, from: usize) -> Vec<Vec<Fd>> {
    let mut levels: Vec<Vec<Fd>> = Vec::new();
    pcover.for_each(|fd| {
        let level = fd.lhs.len();
        if level >= from {
            if levels.len() <= level {
                levels.resize_with(level + 1, Vec::new);
            }
            levels[level].push(fd);
        }
    });
    levels
}

/// The candidates whose LHS has fewer than `level` attributes.
fn below(pcover: &PCover, level: usize) -> FdSet {
    let mut fds = FdSet::new();
    pcover.for_each(|fd| {
        if fd.lhs.len() < level {
            fds.insert(fd);
        }
    });
    fds
}

/// Validates `lhs → rhs` against the full relation using the PLI-cached
/// stripped partition of `lhs`; returns a violating tuple pair on failure.
///
/// Partitions are canonical (clusters by first row, rows ascending), so the
/// *first* violating pair found here is the same whether `Π̂_lhs` was a cache
/// hit, derived from an ancestor, or computed fresh — witness selection, and
/// with it the rest of the run, does not depend on cache state.
fn validate(
    relation: &Relation,
    cache: &mut PliCache,
    lhs: &AttrSet,
    rhs: AttrId,
) -> Result<(), (RowId, RowId)> {
    if lhs.is_empty() {
        let col = relation.column(rhs);
        for t in 1..relation.n_rows() {
            if col[t] != col[0] {
                return Err((0, t as RowId));
            }
        }
        return Ok(());
    }
    let partition = cache.get(relation, lhs);
    let col = relation.column(rhs);
    for cluster in partition.clusters() {
        let first = cluster[0];
        for &t in &cluster[1..] {
            if col[t as usize] != col[first as usize] {
                return Err((first, t));
            }
        }
    }
    Ok(())
}

impl FdAlgorithm for HyFd {
    fn name(&self) -> &str {
        "HyFD"
    }

    /// Polls the budget at every validation level, every [`POLL_STRIDE`]
    /// validations and sampled pairs, and in the inversions. A trip while
    /// level `L` is being worked on returns the candidates below `L`: each
    /// was validated on the full instance, is minimal, and together they are
    /// every FD of the exact answer with fewer than `L` LHS attributes —
    /// only completeness is lost.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        let mut ncover = NCover::new(m);
        seed_empty_lhs_non_fds(relation, &mut ncover);
        // One PLI cache serves both phases: the sampler's cluster
        // construction pins the single-attribute partitions the validator
        // derives every LHS partition from.
        let mut cache = PliCache::with_default_budget();
        let mut sampler = Sampler::new(relation, &mut cache);
        let mut pcover = PCover::initialized(m);
        let mut pending = Vec::new();
        if let Some(t) = sampler.run(&mut ncover, self.efficiency_threshold, budget, &mut pending) {
            return (FdSet::new(), t);
        }
        // Induce the initial candidates from the sampled negative cover: its
        // maximal non-FDs are fewer than the insertions that built it.
        pending = ncover.to_fds();
        if let (_, Some(t)) = pcover.invert_batch(&mut pending, 1, budget) {
            return (FdSet::new(), t);
        }

        // Validate level by level with sampling switchbacks. Inversions only
        // ever add candidates above the level being validated (a validated
        // candidate holds, so no non-FD removes it, and an escape of a
        // removed one is one attribute larger), so the levels below are
        // final and the walk's buckets stay valid until an inversion
        // changes the cover.
        let mut levels = levels_from(&pcover, 0);
        let mut level = 0usize;
        while level < levels.len() {
            if let Some(t) = budget.poll(0, pcover.len()) {
                return (below(&pcover, level), t);
            }
            let mut candidates = std::mem::take(&mut levels[level]);
            if candidates.is_empty() {
                level += 1;
                continue;
            }
            candidates.sort_unstable_by(prefix_order);
            // The level is validated before any of its evidence is inverted;
            // a candidate a witness of this level already refutes is one the
            // inversion would remove, so it is skipped, not validated.
            let mut witnesses: Vec<AttrSet> = Vec::new();
            let validate_span = fd_telemetry::span!("hyfd.validate");
            for (i, fd) in candidates.iter().enumerate() {
                if i.is_multiple_of(POLL_STRIDE as usize) {
                    if let Some(t) = budget.poll_time() {
                        return (below(&pcover, level), t);
                    }
                }
                if witnesses.iter().any(|s| fd.lhs.is_subset_of(s) && !s.contains(fd.rhs)) {
                    continue;
                }
                if let Err((t, u)) = validate(relation, &mut cache, &fd.lhs, fd.rhs) {
                    let agree = relation.agree_set(t, u);
                    ncover.add_agree_set_collect(agree, &mut pending);
                    witnesses.push(agree);
                }
            }
            drop(validate_span);
            let invalid = witnesses.len();
            fd_telemetry::counter!("hyfd.invalidations", invalid as u64);
            // Switch back to sampling when validation was wasteful.
            let ratio = invalid as f64 / candidates.len() as f64;
            if ratio > self.invalid_switch_ratio && !sampler.exhausted {
                fd_telemetry::counter!("hyfd.switchbacks", 1);
                let threshold = self.efficiency_threshold;
                if let Some(t) = sampler.run(&mut ncover, threshold, budget, &mut pending) {
                    return (below(&pcover, level), t);
                }
            }
            // One inversion per level: each call indexes the trees it
            // touches afresh, so per-witness calls would rebuild that index
            // once per witness.
            let (delta, trip) = pcover.invert_batch(&mut pending, 1, budget);
            if let Some(t) = trip {
                return (below(&pcover, level), t);
            }
            level += 1;
            if delta.churn() > 0 {
                levels = levels_from(&pcover, level);
            }
            // The PLI cache's LRU budget bounds growth; no manual clearing.
        }
        (pcover.to_fdset(), Termination::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use crate::tane::Tane;
    use fd_relation::synth::{dataset_spec, patient};
    use fd_relation::verify_fds;

    /// Letter at 1 000 or 2 000 rows: HyFD's validation finds witnesses on
    /// levels 3, 4 and 5, so later levels validate candidates that earlier
    /// levels' evidence specialized.
    fn letter(rows: usize) -> Relation {
        dataset_spec("letter").expect("registered").generate(rows)
    }

    #[test]
    fn hyfd_matches_exhaustive_on_patient() {
        let r = patient();
        let fds = HyFd::default().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(verify_fds(&r, &fds).is_empty());
    }

    #[test]
    fn hyfd_is_exact_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        for seed in [1u64, 8, 21] {
            let g = Generator::new(
                "t",
                vec![
                    ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 6, skew: 0.0 }),
                    ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 4, skew: 0.4 }),
                    ColumnSpec::new(
                        "c",
                        ColumnKind::Derived { parents: vec![0], cardinality: 3, noise: 0.05 },
                    ),
                    ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 10, skew: 0.0 }),
                    ColumnSpec::new(
                        "e",
                        ColumnKind::Derived { parents: vec![1, 3], cardinality: 5, noise: 0.0 },
                    ),
                    ColumnSpec::new("f", ColumnKind::Constant),
                ],
                seed,
            );
            let r = g.generate(400);
            assert_eq!(
                HyFd::default().discover(&r),
                Exhaustive.discover(&r),
                "seed {seed}"
            );
        }
        let r = letter(1000);
        assert_eq!(HyFd::default().discover(&r), Tane::new().discover(&r), "letter");
    }

    #[test]
    fn a_trip_returns_every_exact_fd_below_some_level() {
        let r = letter(2000);
        let exact = HyFd::default().discover(&r);
        let top = exact.iter().map(|fd| fd.lhs.len()).max().expect("letter has FDs");
        let below =
            |k: usize| -> FdSet { exact.iter().filter(|fd| fd.lhs.len() < k).copied().collect() };
        let mut levels = Vec::new();
        let mut converged = false;
        for cap in (0..=30).map(|i| i * 100) {
            let budget = Budget::unlimited().cover_cap(cap);
            let (fds, termination) = HyFd::default().discover_budgeted(&r, &budget);
            if termination == Termination::Converged {
                assert_eq!(fds, exact, "cap {cap}");
                converged = true;
                continue;
            }
            assert_eq!(termination, Termination::MemoryBudget, "cap {cap}");
            let k = (0..=top).find(|&k| fds == below(k));
            assert!(k.is_some(), "cap {cap}: {} FDs, not the exact ones below a level", fds.len());
            levels.extend(k);
        }
        levels.dedup();
        // The sweep trips before the first level, after some levels, and
        // converges at its largest caps.
        assert!(levels.len() >= 3 && levels[0] == 0, "trip levels {levels:?}");
        assert!(converged, "no cap in the sweep let the run converge");
    }

    #[test]
    fn hyfd_handles_all_distinct_rows() {
        let r = Relation::from_encoded_columns(
            "keys",
            vec!["x".into(), "y".into(), "z".into()],
            vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]],
        );
        let fds = HyFd::default().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        assert!(verify_fds(&r, &fds).is_empty());
    }
}
