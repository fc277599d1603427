//! Tane [14] — exact level-wise lattice traversal.
//!
//! Traverses the power-set lattice of attributes breadth-first, validating
//! candidate FDs `X\{A} → A` with stripped-partition refinement (`e(X\{A}) =
//! e(X)`), pruning with RHS-candidate sets `C⁺(X)` and the (super)key rule,
//! and generating the next level from prefix blocks. This is the classic
//! algorithm that scales well in rows but explodes in columns — exactly the
//! behaviour Table III shows (`ML` on *plista*, *flight*, *uniprot*).

use fd_core::budget::POLL_STRIDE;
use fd_core::{AttrId, AttrSet, Budget, Fd, FdSet, Termination};
use fd_relation::{FdAlgorithm, Partition, PliCache, ProductScratch, Relation};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-candidate state carried between levels. The partition is shared
/// (`Arc`) between the level map and the PLI cache it is donated to.
struct Node {
    /// Stripped partition `Π̂_X`.
    partition: Arc<Partition>,
    /// `Σ(|c|−1)` over stripped clusters; equal values across a refinement
    /// mean the partitions are identical (the Tane validity test).
    error_num: usize,
}

/// The Tane exact discovery algorithm.
#[derive(Clone, Copy, Debug)]
#[derive(Default)]
pub struct Tane {
    /// Abort when a lattice level holds more candidate sets than this
    /// (models the paper's 32 GB memory limit; `None` = unbounded).
    pub max_level_width: Option<usize>,
    /// Worker threads for the per-level partition products; `0` = one per
    /// available core. The discovered FD set is identical for every value —
    /// generation merges results in plan order.
    pub threads: usize,
}


/// Memoized `C⁺` store over the whole traversal. Pruned and never-generated
/// sets keep (or lazily compute) their `C⁺` values because the key-pruning
/// rule consults siblings that may not exist in the current level —
/// the TANE paper defines those recursively as
/// `C⁺(Y) = ⋂_{B∈Y} C⁺(Y\{B})`.
struct CPlusMap {
    map: HashMap<AttrSet, AttrSet>,
    full: AttrSet,
}

impl CPlusMap {
    fn new(m: usize) -> Self {
        let full = AttrSet::full(m);
        let mut map = HashMap::new();
        map.insert(AttrSet::empty(), full);
        CPlusMap { map, full }
    }

    fn set(&mut self, x: AttrSet, cplus: AttrSet) {
        self.map.insert(x, cplus);
    }

    /// `C⁺(x)`, computing absent entries by the recursive definition.
    fn get(&mut self, x: AttrSet) -> AttrSet {
        if let Some(&c) = self.map.get(&x) {
            return c;
        }
        let mut c = self.full;
        for a in x.iter() {
            c = c.intersect(&self.get(x.without(a)));
        }
        self.map.insert(x, c);
        c
    }
}

impl Tane {
    /// Unbounded Tane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tane that aborts when a level exceeds `width` candidates.
    pub fn with_level_limit(width: usize) -> Self {
        Tane { max_level_width: Some(width), ..Default::default() }
    }

    /// Sets the worker-thread knob (builder style); `0` = auto.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl FdAlgorithm for Tane {
    fn name(&self) -> &str {
        "Tane"
    }

    /// Budgeted anytime traversal. Polls the budget at every lattice level
    /// and every [`POLL_STRIDE`] candidates inside a level (validation and
    /// next-level generation both), so a watchdog-cancelled token or a
    /// passed deadline stops the run between candidates rather than between
    /// levels — wide schemas can spend minutes inside a single level.
    ///
    /// On a trip the FDs validated so far are returned: each was proven
    /// against the full instance and emitted minimal, so the partial set is
    /// sound and minimal — only completeness is lost. The structural
    /// [`Tane::max_level_width`] guard reports as
    /// [`Termination::MemoryBudget`], as does the budget's cover cap when
    /// the live lattice level outgrows it.
    fn discover_budgeted(&self, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
        let m = relation.n_attrs();
        let n = relation.n_rows();
        let threads = fd_core::clamp_threads(self.threads);
        let mut fds = FdSet::new();
        let mut cplus = CPlusMap::new(m);
        let mut tick = 0u32;

        // Level 0: Π_∅ is one cluster of all rows; its error numerator is n−1.
        let mut prev_errors: HashMap<AttrSet, usize> = HashMap::new();
        prev_errors.insert(AttrSet::empty(), n.saturating_sub(1));

        // Level 1, via a PLI cache (pinned singles).
        let mut cache = PliCache::with_default_budget();
        let mut current: HashMap<AttrSet, Node> = HashMap::new();
        for a in 0..m as AttrId {
            if let Some(t) = budget.poll_time() {
                return (fds, t);
            }
            let partition = cache.single(relation, a);
            let error_num = partition.error_num();
            current.insert(AttrSet::single(a), Node { partition, error_num });
        }

        let mut level = 1usize;
        while !current.is_empty() {
            // Chaos hook at the level boundary: a forced trip cancels the
            // token so the poll just below returns the sound partial set.
            if fd_faults::inject!("tane.level") == Some(fd_faults::Injected::BudgetTrip) {
                budget.token().cancel_with(Termination::DeadlineExceeded);
            }
            let _level_span = fd_telemetry::span!("tane.level");
            fd_telemetry::observe!("tane.level.width", current.len() as u64);
            fd_telemetry::event!(
                "tane.level",
                level = level as f64,
                width = current.len() as f64,
                fds_so_far = fds.len() as f64,
            );
            if let Some(limit) = self.max_level_width {
                if current.len() > limit {
                    return (fds, Termination::MemoryBudget);
                }
            }
            if let Some(t) = budget.poll(0, current.len() + fds.len()) {
                return (fds, t);
            }
            let keys: Vec<AttrSet> = current.keys().copied().collect();

            // compute_dependencies: C⁺(X) = ⋂ C⁺(X\{A}), then test each
            // X\{A} → A for A ∈ X ∩ C⁺(X).
            let mut level_cplus: HashMap<AttrSet, AttrSet> = HashMap::with_capacity(keys.len());
            for x in &keys {
                tick = tick.wrapping_add(1);
                if tick.is_multiple_of(POLL_STRIDE) {
                    if let Some(t) = budget.poll_time() {
                        return (fds, t);
                    }
                }
                let mut c = cplus.full;
                for a in x.iter() {
                    c = c.intersect(&cplus.get(x.without(a)));
                }
                let x_error = current[x].error_num;
                for a in x.intersect(&c).iter() {
                    let sub = x.without(a);
                    // Every ℓ−1 subset was generated (prefix-block closure);
                    // degrade to "not validated" rather than panic if not.
                    let Some(&sub_error) = prev_errors.get(&sub) else { continue };
                    if sub_error == x_error {
                        fds.insert(Fd::new(sub, a));
                        c.remove(a);
                        // Minimality: drop every B ∈ R\X from C⁺(X).
                        c = c.intersect(x);
                    }
                }
                level_cplus.insert(*x, c);
            }
            for (x, c) in &level_cplus {
                cplus.set(*x, *c);
            }

            // prune: delete C⁺ = ∅ sets; emit key dependencies and delete
            // superkeys.
            // Snapshot this level's errors for the next level's validity
            // checks before anything is pruned.
            let this_level_errors: HashMap<AttrSet, usize> =
                keys.iter().map(|x| (*x, current[x].error_num)).collect();

            let mut pruned: Vec<AttrSet> = Vec::new();
            for x in &keys {
                tick = tick.wrapping_add(1);
                if tick.is_multiple_of(POLL_STRIDE) {
                    if let Some(t) = budget.poll_time() {
                        return (fds, t);
                    }
                }
                let c = level_cplus[x];
                if c.is_empty() {
                    pruned.push(*x);
                    continue;
                }
                if current[x].partition.n_clusters() == 0 {
                    // X is a (super)key: X → A for each A ∈ C⁺(X)\X that
                    // survives the sibling minimality rule.
                    for a in c.difference(x).iter() {
                        let ok = x.iter().all(|b| {
                            let sibling = x.with(a).without(b);
                            cplus.get(sibling).contains(a)
                        });
                        if ok {
                            fds.insert(Fd::new(*x, a));
                        }
                    }
                    pruned.push(*x);
                }
            }
            for x in &pruned {
                current.remove(x);
            }

            // generate_next_level from prefix blocks: enumerate the
            // candidate (X, Y1, Y2) triples first (cheap set algebra), then
            // compute the partition products — the expensive part — with a
            // worker count picked by the adaptive policy.
            let mut sorted: Vec<AttrSet> = current.keys().copied().collect();
            sorted.sort();
            let mut cands: Vec<(AttrSet, AttrSet, AttrSet)> = Vec::new();
            let mut seen: std::collections::HashSet<AttrSet> = std::collections::HashSet::new();
            for i in 0..sorted.len() {
                for j in i + 1..sorted.len() {
                    tick = tick.wrapping_add(1);
                    if tick.is_multiple_of(POLL_STRIDE) {
                        if let Some(t) = budget.poll_time() {
                            return (fds, t);
                        }
                    }
                    let (y1, y2) = (sorted[i], sorted[j]);
                    let common = y1.intersect(&y2);
                    if common.len() != y1.len() - 1 {
                        continue;
                    }
                    // Prefix block: the two sets differ only in their
                    // maximum attribute.
                    let l1 = y1.difference(&common).first();
                    let l2 = y2.difference(&common).first();
                    let (l1, l2) = match (l1, l2) {
                        (Some(a), Some(b)) => (a, b),
                        _ => continue,
                    };
                    if y1.iter().max() != Some(l1) || y2.iter().max() != Some(l2) {
                        continue;
                    }
                    let x = y1.union(&y2);
                    if !seen.insert(x) {
                        continue;
                    }
                    // All ℓ-subsets of X must have survived pruning.
                    if x.iter().any(|a| !current.contains_key(&x.without(a))) {
                        continue;
                    }
                    cands.push((x, y1, y2));
                }
            }
            let products = match generate_products(&cands, &current, n, threads, budget) {
                Ok(products) => products,
                Err(t) => return (fds, t),
            };
            let mut next: HashMap<AttrSet, Node> = HashMap::with_capacity(products.len());
            for (x, partition) in products {
                tick = tick.wrapping_add(1);
                if tick.is_multiple_of(POLL_STRIDE) {
                    if let Some(t) = budget.poll_time() {
                        return (fds, t);
                    }
                }
                let error_num = partition.error_num();
                let partition = Arc::new(partition);
                // Donate to the run's cache (bounded by its LRU budget).
                cache.insert(x, Arc::clone(&partition));
                next.insert(x, Node { partition, error_num });
            }
            prev_errors = this_level_errors;
            current = next;
            level += 1;
        }
        (fds, Termination::Converged)
    }
}

/// Computes the partition products of one generated lattice level.
///
/// Workers are chosen by [`fd_core::parallel::decide`] with the relation's
/// row count as the per-product cost hint, and candidate chunks run through
/// [`fd_core::parallel::map_ordered`] (inline on the caller's thread at one
/// worker). Each chunk owns its scratch and polls the budget between
/// candidates and (stride 64) inside each product. Chunk results are
/// concatenated in plan order, never completion order, and the first `Err`
/// in chunk order wins, so the generated level — and with it the whole
/// traversal — is identical for every thread count.
fn generate_products(
    cands: &[(AttrSet, AttrSet, AttrSet)],
    current: &HashMap<AttrSet, Node>,
    n_rows: usize,
    threads: usize,
    budget: &Budget,
) -> Result<Vec<(AttrSet, Partition)>, Termination> {
    // Cost hint (per-item, u32-compare-equivalent units): one partition
    // product scans every row once, so `n_rows` per candidate.
    let workers = fd_core::parallel::decide_at(
        "parallel.workers.tane_products",
        cands.len(),
        n_rows as u64,
        threads,
    );
    let products_of = |chunk: &[(AttrSet, AttrSet, AttrSet)]| {
        let mut scratch = ProductScratch::default();
        let mut out = Vec::with_capacity(chunk.len());
        for (i, &(x, y1, y2)) in chunk.iter().enumerate() {
            // The in-product stride only fires on partitions with ≥ 64
            // clusters; low-cardinality schemas (few big clusters, tens of
            // thousands of candidates per level) need this between-candidate
            // poll to honor the deadline.
            if (i as u32).is_multiple_of(POLL_STRIDE) {
                if let Some(t) = budget.poll_time() {
                    return Err(t);
                }
            }
            let p = current[&y1].partition.product_with_budget(
                &current[&y2].partition,
                &mut scratch,
                budget,
            )?;
            out.push((x, p));
        }
        Ok(out)
    };
    let mut out = Vec::new();
    let mut failed = None;
    fd_core::parallel::map_ordered(
        "tane_products",
        workers,
        fd_core::parallel::chunks(cands, workers, 1, |_| 1),
        products_of,
        |chunk| match chunk {
            Ok(products) => fd_core::parallel::concat_chunk(&mut out, products),
            Err(t) => {
                failed.get_or_insert(t);
            }
        },
    );
    failed.map_or(Ok(out), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use fd_relation::synth::patient;
    use fd_relation::verify_fds;

    #[test]
    fn tane_matches_exhaustive_on_patient() {
        let r = patient();
        let tane = Tane::new().discover(&r);
        let truth = Exhaustive.discover(&r);
        assert_eq!(tane, truth, "Tane must equal ground truth");
        assert!(verify_fds(&r, &tane).is_empty());
    }

    #[test]
    fn tane_handles_constant_and_key_columns() {
        let r = Relation::from_encoded_columns(
            "mix",
            vec!["key".into(), "const".into(), "dup".into()],
            vec![vec![0, 1, 2, 3], vec![0, 0, 0, 0], vec![0, 0, 1, 1]],
        );
        let fds = Tane::new().discover(&r);
        assert_eq!(fds, Exhaustive.discover(&r));
        // ∅ → const is found at level 1.
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 1)));
    }

    #[test]
    fn tane_matches_exhaustive_on_generated_data() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        for seed in [3u64, 17, 99] {
            let g = Generator::new(
                "t",
                vec![
                    ColumnSpec::new("a", ColumnKind::Categorical { cardinality: 5, skew: 0.0 }),
                    ColumnSpec::new("b", ColumnKind::Categorical { cardinality: 3, skew: 0.3 }),
                    ColumnSpec::new(
                        "c",
                        ColumnKind::Derived { parents: vec![0, 1], cardinality: 4, noise: 0.0 },
                    ),
                    ColumnSpec::new("d", ColumnKind::Categorical { cardinality: 8, skew: 0.0 }),
                    ColumnSpec::new(
                        "e",
                        ColumnKind::Derived { parents: vec![3], cardinality: 2, noise: 0.1 },
                    ),
                ],
                seed,
            );
            let r = g.generate(300);
            assert_eq!(
                Tane::new().discover(&r),
                Exhaustive.discover(&r),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn tane_is_thread_count_invariant() {
        use fd_relation::synth::{ColumnKind, ColumnSpec, Generator};
        // Twelve independent 32-value columns: none is constant or a key, so
        // every single survives level 1 and level 2 generates all 66 pairs,
        // each product scanning every row.
        let columns = (0..12)
            .map(|c| {
                let kind = ColumnKind::Categorical { cardinality: 32, skew: 0.0 };
                ColumnSpec::new(format!("c{c}"), kind)
            })
            .collect();
        let r = Generator::new("wide-tane", columns, 7).generate(2048);
        for threads in [2, 4] {
            assert!(
                fd_core::decide(66, r.n_rows() as u64, threads) >= 2,
                "level 2 must fan out at threads={threads}"
            );
        }
        let (expected, t) = Tane::new().with_threads(1).discover_budgeted(&r, &Budget::unlimited());
        assert_eq!(t, Termination::Converged);
        assert!(!expected.is_empty());
        for threads in [2, 4] {
            let (fds, t) =
                Tane::new().with_threads(threads).discover_budgeted(&r, &Budget::unlimited());
            assert_eq!(t, Termination::Converged, "threads={threads}");
            assert_eq!(fds, expected, "threads={threads}");
        }
        for threads in [1, 2, 4] {
            let budget = Budget::unlimited();
            budget.token().cancel();
            let (_, t) = Tane::new().with_threads(threads).discover_budgeted(&r, &budget);
            assert_eq!(t, Termination::Cancelled, "threads={threads}");
        }
    }

    #[test]
    fn tane_all_distinct_rows() {
        let r = Relation::from_encoded_columns(
            "keys",
            vec!["x".into(), "y".into(), "z".into()],
            vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]],
        );
        assert_eq!(Tane::new().discover(&r), Exhaustive.discover(&r));
    }

    #[test]
    fn level_limit_aborts() {
        let r = patient();
        let (fds, t) = Tane::with_level_limit(1).discover_budgeted(&r, &Budget::unlimited());
        assert!(t.is_partial());
        assert!(fds.is_empty());
        assert!(Tane::with_level_limit(1).discover(&r).is_empty());
        assert_eq!(t, Termination::MemoryBudget);
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let r = patient();
        let (fds, t) = Tane::new().discover_budgeted(&r, &Budget::unlimited());
        assert_eq!(t, Termination::Converged);
        assert_eq!(fds, Tane::new().discover(&r));
    }

    #[test]
    fn expired_deadline_returns_sound_partial() {
        use std::time::Duration;
        let r = patient();
        let budget = Budget::with_deadline(Duration::ZERO);
        let (fds, t) = Tane::new().discover_budgeted(&r, &budget);
        assert_eq!(t, Termination::DeadlineExceeded);
        // Whatever was validated before the trip must hold on the instance.
        assert!(verify_fds(&r, &fds).is_empty());
        let truth = Exhaustive.discover(&r);
        for fd in fds.iter() {
            assert!(truth.contains(fd), "partial FD {fd:?} must be minimal/true");
        }
    }

    #[test]
    fn cancelled_token_stops_traversal() {
        let r = patient();
        let budget = Budget::unlimited();
        budget.token().cancel();
        let (fds, t) = Tane::new().discover_budgeted(&r, &budget);
        assert_eq!(t, Termination::Cancelled);
        assert!(verify_fds(&r, &fds).is_empty());
    }
}
