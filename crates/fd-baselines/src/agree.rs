//! Shared agree-set collection for the exhaustive-enumeration algorithms
//! (Fdep, FastFDs, Dep-Miner): every intra-cluster tuple pair's agree set,
//! folded into a maximal-non-FD negative cover, under a [`Budget`] and with
//! an optional parallel enumeration path.
//!
//! Parallelism is embarrassing here: clusters are independent, agree-set
//! computation is pure, and deduplication merges cheaply — each cluster chunk
//! keeps a local hash set of distinct agree sets and only the union is folded
//! into the (sequential) cover construction. The paper's implementations are
//! single-threaded; parallel collection is an extension, off by default.

use crate::fdep::seed_empty_lhs_non_fds;
use fd_core::{AttrSet, Budget, FastHashSet, NCover, Termination};
use fd_relation::{sampling_clusters, Relation, RowId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration for agree-set collection.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgreeSetCollector {
    /// Worker threads; 0 or 1 = sequential.
    pub threads: usize,
}

impl AgreeSetCollector {
    /// Sequential collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Collects the negative cover (all maximal non-FDs of the instance,
    /// plus the `∅`-level seeds) under `budget`.
    ///
    /// The budget's pair cap is checked against the relation's total
    /// intra-cluster pair count before anything is compared: a collection
    /// that would exceed it returns `(None, PairBudget)` without doing any
    /// work. Otherwise the budget is polled per cluster, and a trip
    /// mid-collection returns the cover built from the clusters processed so
    /// far. **Caution:** a truncated cover is sound only w.r.t. the pairs
    /// processed — difference sets derived from it are incomplete, so
    /// downstream cover searches must not treat their output as validated
    /// FDs of the full instance.
    pub fn collect(&self, relation: &Relation, budget: &Budget) -> (Option<NCover>, Termination) {
        let clusters = sampling_clusters(relation);
        let total: u64 = clusters.iter().map(|c| pairs_in(c)).sum();
        // Any other trip cancels the token, and the first per-cluster poll
        // below reports it.
        if budget.poll(total, 0) == Some(Termination::PairBudget) {
            return (None, Termination::PairBudget);
        }
        // Cost hint in u32-compare-equivalent units per item (= cluster):
        // one pair costs one label comparison per attribute, so the hint is
        // the mean pair count per cluster times the width.
        let cost_hint = total
            .saturating_mul(relation.n_attrs() as u64)
            .checked_div(clusters.len() as u64)
            .unwrap_or(0);
        let workers = fd_core::parallel::decide_at(
            "parallel.workers.agree_sets",
            clusters.len(),
            cost_hint,
            self.threads,
        );
        // All pair comparisons below run on the row-major mirror: built once
        // per collection, it turns every agree set into a contiguous scan
        // the bit-packed kernel handles word-wide.
        let row_major = relation.row_major();
        // Every chunk polls the budget once per cluster against one shared
        // counter of distinct agree sets held (the pair cap was settled
        // above). At one worker it is exactly the size of the one dedup set;
        // across workers it sums their local sets — the sets actually
        // resident — so the cover cap bounds memory at every thread count.
        // The first trip cancels the token, which stops the sibling chunks
        // too.
        let distinct_held = AtomicUsize::new(0);
        let mut distinct: FastHashSet<AttrSet> = FastHashSet::default();
        let mut tripped = None;
        fd_core::parallel::map_ordered(
            "agree_sets",
            workers,
            // Chunks are cut by pair count: cluster sizes are heavily skewed
            // and pairs grow quadratically.
            fd_core::parallel::chunks(&clusters, workers, 1, |c| pairs_in(c)),
            |chunk| {
                let mut seen: FastHashSet<AttrSet> = FastHashSet::default();
                for cluster in chunk {
                    if let Some(t) = budget.poll(0, distinct_held.load(Ordering::Relaxed)) {
                        return (seen, Some(t));
                    }
                    let held = seen.len();
                    for i in 0..cluster.len() {
                        for j in i + 1..cluster.len() {
                            seen.insert(row_major.agree_set(cluster[i], cluster[j]));
                        }
                    }
                    distinct_held.fetch_add(seen.len() - held, Ordering::Relaxed);
                }
                (seen, None)
            },
            |(seen, chunk_trip)| {
                if distinct.is_empty() {
                    distinct = seen;
                } else {
                    distinct.extend(seen);
                }
                tripped = tripped.or(chunk_trip);
            },
        );
        let mut ncover = NCover::new(relation.n_attrs());
        seed_empty_lhs_non_fds(relation, &mut ncover);
        for agree in distinct {
            ncover.add_agree_set(agree);
        }
        (Some(ncover), tripped.unwrap_or_default())
    }
}

fn pairs_in(cluster: &[RowId]) -> u64 {
    (cluster.len() as u64) * (cluster.len() as u64 - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::{dataset_spec, patient};

    fn collect_all(collector: AgreeSetCollector, r: &Relation) -> Option<NCover> {
        match collector.collect(r, &Budget::unlimited()) {
            (cover, Termination::Converged) => cover,
            _ => None,
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let r = dataset_spec("abalone").unwrap().generate(600);
        let seq = collect_all(AgreeSetCollector::new(), &r).unwrap();
        let par = collect_all(AgreeSetCollector::new().with_threads(4), &r).unwrap();
        assert_eq!(seq.len(), par.len());
        let mut a = seq.to_fds();
        let mut b = par.to_fds();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn budget_trips() {
        let r = patient();
        let capped = |cap| AgreeSetCollector::new().collect(&r, &Budget::unlimited().pair_cap(cap));
        assert!(capped(1).0.is_none());
        assert!(capped(1_000_000).0.is_some());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let r = patient();
        let plain = collect_all(AgreeSetCollector::new(), &r).unwrap();
        let (cover, t) = AgreeSetCollector::new().collect(&r, &Budget::unlimited());
        assert_eq!(t, Termination::Converged);
        assert_eq!(cover.unwrap().len(), plain.len());
    }

    #[test]
    fn cancelled_token_stops_collection() {
        let r = patient();
        let budget = Budget::unlimited();
        budget.token().cancel();
        let (cover, t) = AgreeSetCollector::new().collect(&r, &budget);
        assert_eq!(t, Termination::Cancelled);
        // Only the ∅-level seeds survive: no cluster was processed.
        assert!(cover.is_some());
    }

    #[test]
    fn parallel_budgeted_converges_like_sequential() {
        let r = dataset_spec("abalone").unwrap().generate(400);
        let (seq, ts) = AgreeSetCollector::new().collect(&r, &Budget::unlimited());
        let (par, tp) = AgreeSetCollector::new().with_threads(4).collect(&r, &Budget::unlimited());
        assert_eq!(ts, Termination::Converged);
        assert_eq!(tp, Termination::Converged);
        assert_eq!(seq.unwrap().len(), par.unwrap().len());
    }

    #[test]
    fn cover_and_pair_caps_trip_at_every_thread_count() {
        let r = dataset_spec("abalone").unwrap().generate(600);
        let clusters = sampling_clusters(&r);
        let total: u64 = clusters.iter().map(|c| pairs_in(c)).sum();
        let cost_hint = total * r.n_attrs() as u64 / clusters.len() as u64;
        for threads in [2, 4] {
            assert!(
                fd_core::decide(clusters.len(), cost_hint, threads) >= 2,
                "collection must fan out at threads={threads}"
            );
        }
        for threads in [1, 2, 4] {
            let collector = AgreeSetCollector::new().with_threads(threads);
            let (_, t) = collector.collect(&r, &Budget::unlimited().cover_cap(8));
            assert_eq!(t, Termination::MemoryBudget, "cover cap at threads={threads}");
            let (_, t) = collector.collect(&r, &Budget::unlimited().pair_cap(total / 100));
            assert_eq!(t, Termination::PairBudget, "pair cap at threads={threads}");
        }
    }

    #[test]
    fn single_thread_requested_stays_sequential() {
        let r = patient();
        let a = collect_all(AgreeSetCollector::new().with_threads(1), &r).unwrap();
        let b = collect_all(AgreeSetCollector::new(), &r).unwrap();
        assert_eq!(a.len(), b.len());
    }
}
