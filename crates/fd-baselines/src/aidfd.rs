//! AID-FD [3] — approximate discovery by uniform round-robin sampling.
//!
//! The representative approximate baseline the paper compares against.
//! AID-FD samples tuple pairs without repetition — here realized as uniform
//! sliding-window rounds over every cluster, the same pair enumeration
//! EulerFD uses — but, as Section II-B stresses, it (a) treats all clusters
//! alike, ignoring how much each contributed in earlier rounds, and (b) stops
//! for good once the negative-cover growth rate drops below its threshold,
//! with no second cycle to re-sample after inversion. Both limitations are
//! exactly what EulerFD's MLFQ and double-cycle structure address.

use crate::fdep::seed_empty_lhs_non_fds;
use fd_core::{invert_ncover, AgreeSetTable, Budget, FdSet, NCover, Termination};
use fd_relation::{sampling_clusters, FdAlgorithm, Relation};

/// The AID-FD approximate discovery algorithm.
#[derive(Clone, Copy, Debug)]
pub struct AidFd {
    /// Sampling terminates once the per-round negative-cover growth rate
    /// falls to or below this threshold (0.01 in the paper's experiments).
    pub th_ncover: f64,
}

impl Default for AidFd {
    fn default() -> Self {
        AidFd { th_ncover: 0.01 }
    }
}

/// Run statistics reported by [`AidFd::discover_with_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AidFdStats {
    /// Sampling rounds executed (one window distance per round).
    pub rounds: usize,
    /// Tuple pairs compared.
    pub pairs_compared: u64,
    /// Maximal non-FDs in the final negative cover.
    pub ncover_size: usize,
    /// Successful negative-cover insertions over the run. Unlike the net
    /// `ncover_size`, this count is monotone in the evidence gathered
    /// (absorption of generalized non-FDs can shrink the net size).
    pub ncover_insertions: usize,
}

impl AidFd {
    /// AID-FD with an explicit termination threshold.
    pub fn with_threshold(th_ncover: f64) -> Self {
        AidFd { th_ncover }
    }

    /// Discovery with run statistics.
    pub fn discover_with_stats(&self, relation: &Relation) -> (FdSet, AidFdStats) {
        let (fds, stats, _) = self.sample_and_invert(relation, &Budget::unlimited());
        (fds, stats)
    }

    /// The sampling rounds and the final inversion. The budget is polled
    /// once per round; a trip ends sampling, and the cover built so far is
    /// inverted all the same, as EulerFD's final drain does.
    fn sample_and_invert(
        &self,
        relation: &Relation,
        budget: &Budget,
    ) -> (FdSet, AidFdStats, Termination) {
        let mut ncover = NCover::new(relation.n_attrs());
        seed_empty_lhs_non_fds(relation, &mut ncover);
        let clusters = sampling_clusters(relation);
        let row_major = relation.row_major();
        let mut seen_agree = AgreeSetTable::new();
        let mut stats = AidFdStats::default();
        let mut termination = Termination::Converged;

        let mut window = 1usize;
        loop {
            if let Some(t) = budget.poll(stats.pairs_compared, ncover.len()) {
                termination = t;
                break;
            }
            let size_before = ncover.len();
            let adds_before = ncover.insertions();
            let mut any_pair = false;
            for cluster in &clusters {
                if cluster.len() <= window {
                    continue;
                }
                any_pair = true;
                for i in 0..cluster.len() - window {
                    let agree = row_major.agree_set(cluster[i], cluster[i + window]);
                    stats.pairs_compared += 1;
                    if seen_agree.insert(agree) {
                        ncover.add_agree_set(agree);
                    }
                }
            }
            stats.rounds += 1;
            window += 1;
            if !any_pair {
                break; // every cluster fully enumerated
            }
            // Growth rate: additions relative to the cover before the round.
            let added = ncover.insertions() - adds_before;
            let growth = if size_before == 0 {
                if added > 0 { f64::INFINITY } else { 0.0 }
            } else {
                added as f64 / size_before as f64
            };
            // Single-shot termination: AID-FD never re-samples. A threshold
            // of exactly 0 means "run until the clusters are exhausted"
            // (an unproductive round does not prove future rounds barren).
            if self.th_ncover > 0.0 && growth <= self.th_ncover {
                break;
            }
        }
        stats.ncover_size = ncover.len();
        stats.ncover_insertions = ncover.insertions();
        let fds = invert_ncover(&ncover).to_fdset();
        (fds, stats, termination)
    }
}

impl FdAlgorithm for AidFd {
    fn name(&self) -> &str {
        "AID-FD"
    }

    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let (fds, _, termination) = self.sample_and_invert(relation, budget);
        (fds, termination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_core::Accuracy;
    use fd_relation::synth::patient;

    #[test]
    fn aidfd_is_exact_on_tiny_data() {
        // With threshold 0 every round runs until the clusters are
        // exhausted, making AID-FD equivalent to Fdep on small data.
        let r = patient();
        let fds = AidFd::with_threshold(0.0).discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
    }

    #[test]
    fn aidfd_output_is_always_a_minimal_cover() {
        let r = patient();
        let fds = AidFd::default().discover(&r);
        assert!(fds.is_minimal_cover());
    }

    #[test]
    fn aidfd_accuracy_is_high_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        let g = Generator::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 8, skew: 0.3 }),
                ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 5, skew: 0.0 }),
                ColumnSpec::new(
                    "c",
                    ColumnKind::Derived { parents: vec![0, 1], cardinality: 6, noise: 0.02 },
                ),
                ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 12, skew: 0.4 }),
            ],
            77,
        );
        let r = g.generate(1500);
        let truth = Exhaustive.discover(&r);
        let (found, stats) = AidFd::default().discover_with_stats(&r);
        let acc = Accuracy::of(&found, &truth);
        assert!(acc.f1 > 0.8, "F1 too low: {acc:?}");
        assert!(stats.rounds >= 1);
        assert!(stats.pairs_compared > 0);
    }

    #[test]
    fn lower_threshold_never_reduces_evidence() {
        let r = fd_relation::synth::dataset_spec("abalone").unwrap().generate(800);
        let (_, loose) = AidFd::with_threshold(0.1).discover_with_stats(&r);
        let (_, tight) = AidFd::with_threshold(0.0).discover_with_stats(&r);
        assert!(tight.pairs_compared >= loose.pairs_compared);
        // The *net* cover size is not monotone in evidence (new specialized
        // non-FDs absorb stored generalizations), but the insertion count is.
        assert!(tight.ncover_insertions >= loose.ncover_insertions);
    }
}
