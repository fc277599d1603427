//! HyFD [26] — exact hybrid discovery.
//!
//! Alternates between two phases until the candidate lattice is settled:
//!
//! 1. **Sampling / induction** (row-efficient): compare cluster-local tuple
//!    pairs at growing window distances, harvest non-FDs, and invert them
//!    into the candidate FD-tree — cheap evidence that removes huge parts of
//!    the search space before any full validation runs.
//! 2. **Validation** (column-efficient): walk the FD-tree level by level and
//!    validate each candidate against the full relation with stripped
//!    partition products; violations yield witness pairs that are fed back
//!    as new non-FDs, and the phase switches back to sampling when a level
//!    invalidates more than a configured fraction of its candidates.
//!
//! The result is exact: every reported FD was validated against the entire
//! instance, and minimality follows from candidates only ever being created
//! as minimal escapes of invalidated generalizations.
//!
//! Faithfulness notes (documented deviations from the original Java code):
//! the original sorts cluster members by a neighbouring attribute before
//! windowed comparison and manages per-cluster "efficiency queues"; we use
//! the shared cluster population of [`fd_relation::sampling_clusters`] with a
//! global window, which preserves the progressive-sampling behaviour with
//! less machinery. Validation uses partition refinement exactly like the
//! original.

use crate::fdep::seed_empty_lhs_non_fds;
use fd_core::{
    AgreeSetTable, AttrId, AttrSet, Budget, FastHashSet, Fd, FdSet, FdTree, NCover, Termination,
};
use fd_relation::{sampling_clusters_cached, FdAlgorithm, PliCache, Relation, RowId, RowMajor};

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
    /// threshold or the clusters are exhausted. Returns the fresh agree sets
    /// whose non-FDs changed the cover (only these need inverting).
    fn run(&mut self, ncover: &mut NCover, threshold: f64) -> Vec<AttrSet> {
        let _phase = fd_telemetry::span!("hyfd.sample");
        let mut fresh = Vec::new();
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
                    let agree = self.row_major.agree_set(cluster[i], cluster[i + self.window]);
                    comparisons += 1;
                    if self.seen_agree.insert(agree) {
                        let added = ncover.add_agree_set(agree);
                        if added > 0 {
                            fresh.push(agree);
                            new += added;
                        }
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
        fresh
    }
}

/// Inverts a non-FD into the candidate tree (the induction step).
///
/// Validation never needs to revisit a level below the one it is on: a
/// validated candidate holds, so it is never a generalization of a true
/// non-FD and never removed; by induction every removed general lies at or
/// above the current level `L`, and every candidate made from one lands at
/// `L + 1` or above.
fn invert_into_tree(tree: &mut FdTree, non_fd: &Fd, n_attrs: usize) {
    loop {
        let generals = tree.remove_generalizations(&non_fd.lhs, non_fd.rhs);
        if generals.is_empty() {
            break;
        }
        for general in generals {
            for attr in 0..n_attrs as AttrId {
                if general.contains(attr) || attr == non_fd.rhs || non_fd.lhs.contains(attr) {
                    continue;
                }
                let candidate = general.with(attr);
                if tree.contains_generalization(&candidate, non_fd.rhs) {
                    continue;
                }
                tree.add(candidate, non_fd.rhs);
            }
        }
    }
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

    /// Polls the budget once per validation level. On a trip it returns the
    /// FDs validated so far: each holds on the full instance and, being
    /// validated level by level, is minimal — only completeness is lost.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        let mut ncover = NCover::new(m);
        seed_empty_lhs_non_fds(relation, &mut ncover);
        // One PLI cache serves both phases: the sampler's cluster
        // construction pins the single-attribute partitions the validator
        // derives every LHS partition from.
        let mut cache = PliCache::with_default_budget();
        let mut sampler = Sampler::new(relation, &mut cache);
        sampler.run(&mut ncover, self.efficiency_threshold);

        // Induce the initial candidate tree from the sampled negative cover.
        let mut tree = FdTree::new(m);
        tree.add_most_general();
        for non_fd in ncover.to_fds() {
            invert_into_tree(&mut tree, &non_fd, m);
        }

        // Validate level by level with sampling switchbacks.
        let mut validated: FastHashSet<Fd> = FastHashSet::default();
        let mut level = 0usize;
        while level <= tree.depth() {
            if let Some(t) = budget.poll(0, tree.len()) {
                return (validated.into_iter().collect(), t);
            }
            // Levels are visited once and candidates only ever land above the
            // current level, so none of these has been validated yet.
            let candidates = tree.level(level);
            if candidates.is_empty() {
                level += 1;
                continue;
            }
            let mut invalid = 0usize;
            let validate_span = fd_telemetry::span!("hyfd.validate");
            for fd in &candidates {
                // A concurrent invalidation this level may have removed it.
                if !tree.contains(&fd.lhs, fd.rhs) {
                    continue;
                }
                match validate(relation, &mut cache, &fd.lhs, fd.rhs) {
                    Ok(()) => {
                        validated.insert(*fd);
                    }
                    Err((t, u)) => {
                        invalid += 1;
                        let agree = relation.agree_set(t, u);
                        // Feed the witness back as evidence and specialize.
                        ncover.add_agree_set(agree);
                        for rhs in 0..m as AttrId {
                            if agree.contains(rhs) {
                                continue;
                            }
                            invert_into_tree(&mut tree, &Fd::new(agree, rhs), m);
                        }
                    }
                }
            }
            drop(validate_span);
            fd_telemetry::counter!("hyfd.invalidations", invalid as u64);
            // Switch back to sampling when validation was wasteful.
            let ratio = invalid as f64 / candidates.len() as f64;
            if ratio > self.invalid_switch_ratio && !sampler.exhausted {
                fd_telemetry::counter!("hyfd.switchbacks", 1);
                for agree in sampler.run(&mut ncover, self.efficiency_threshold) {
                    for rhs in 0..m as AttrId {
                        if agree.contains(rhs) {
                            continue;
                        }
                        invert_into_tree(&mut tree, &Fd::new(agree, rhs), m);
                    }
                }
            }
            level += 1;
            // The PLI cache's LRU budget bounds growth; no manual clearing.
        }
        (tree.to_fds().into_iter().collect(), Termination::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

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
