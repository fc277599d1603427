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
use fd_core::budget::POLL_STRIDE;
use fd_core::{AttrSet, Budget, FastHashSet, NCover, Termination};
use fd_relation::{sampling_clusters, Relation, RowId, RowMajor};
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
    /// work. Otherwise the budget is polled every [`POLL_STRIDE`] pairs, and
    /// a trip mid-collection returns the cover built from the pairs compared
    /// so far. **Caution:** a truncated cover is sound only w.r.t. the pairs
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
            |chunk| collect_chunk(chunk, &row_major, budget, &distinct_held),
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

/// The distinct agree sets of every pair in `chunk`'s clusters, and the
/// trip if the budget stopped the chunk early.
///
/// The budget is polled every [`POLL_STRIDE`] pairs, inside a cluster as
/// well as across clusters, against `distinct_held`: the shared count of
/// distinct agree sets resident in all chunks (the pair cap is settled
/// before any chunk runs). Each poll first publishes the sets this chunk
/// added since the last one. At one worker the count is exactly the size of
/// the one dedup set; across workers it sums their local sets, so the cover
/// cap bounds memory at every thread count.
fn collect_chunk(
    chunk: &[Vec<RowId>],
    row_major: &RowMajor,
    budget: &Budget,
    distinct_held: &AtomicUsize,
) -> (FastHashSet<AttrSet>, Option<Termination>) {
    let mut seen: FastHashSet<AttrSet> = FastHashSet::default();
    let mut published = 0;
    let mut pairs = 0u64;
    for cluster in chunk {
        for i in 0..cluster.len() {
            for j in i + 1..cluster.len() {
                if pairs.is_multiple_of(POLL_STRIDE.into()) {
                    let added = seen.len() - published;
                    published = seen.len();
                    let held = distinct_held.fetch_add(added, Ordering::Relaxed) + added;
                    if let Some(t) = budget.poll(0, held) {
                        return (seen, Some(t));
                    }
                }
                pairs += 1;
                seen.insert(row_major.agree_set(cluster[i], cluster[j]));
            }
        }
    }
    distinct_held.fetch_add(seen.len() - published, Ordering::Relaxed);
    (seen, None)
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
    fn a_cover_cap_stops_a_large_cluster_within_one_poll_stride() {
        // One constant column puts all 200 rows in one cluster of 19 900
        // pairs; ten pseudo-random binary columns give its pairs hundreds
        // of distinct agree sets.
        let columns: Vec<String> = (0..11).map(|c| format!("c{c}")).collect();
        let mut builder = fd_relation::RelationBuilder::new("one-cluster", columns);
        let mut state = 7u64;
        for _ in 0..200 {
            let mut row = vec!["k".to_string()];
            for _ in 0..10 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                row.push(((state >> 40) & 1).to_string());
            }
            builder.push_row(&row);
        }
        let r = builder.finish();
        let cluster: Vec<RowId> = (0..200).collect();
        let chunk = [cluster];
        let row_major = r.row_major();
        let unlimited = Budget::unlimited();
        let (all, t) = collect_chunk(&chunk, &row_major, &unlimited, &AtomicUsize::new(0));
        assert_eq!(t, None);
        let stride = POLL_STRIDE as usize;
        let cap = 2 * stride;
        assert!(all.len() > cap + stride, "only {} distinct agree sets", all.len());
        // The cap trips at the first poll past it. A poll falls every
        // stride of pairs, and a pair adds at most one distinct set, so the
        // chunk holds at most one stride more than the cap when it stops.
        let held = AtomicUsize::new(0);
        let (seen, t) =
            collect_chunk(&chunk, &row_major, &Budget::unlimited().cover_cap(cap), &held);
        assert_eq!(t, Some(Termination::MemoryBudget));
        assert!(seen.len() > cap && seen.len() <= cap + stride, "held {}", seen.len());
        assert_eq!(held.load(Ordering::Relaxed), seen.len());
    }

    #[test]
    fn single_thread_requested_stays_sequential() {
        let r = patient();
        let a = collect_all(AgreeSetCollector::new().with_threads(1), &r).unwrap();
        let b = collect_all(AgreeSetCollector::new(), &r).unwrap();
        assert_eq!(a.len(), b.len());
    }
}
