//! A memoized, size-bounded cache of stripped partitions (PLIs).
//!
//! Tane recomputes `Π̂_X` for every lattice node, approx-FD validation
//! recomputes `Π̂_lhs` for every scored FD, and the samplers rebuild every
//! single-attribute partition from scratch — even though those partitions
//! overlap heavily. This module memoizes them behind one attribute-set-keyed
//! LRU cache, the PLI-centric design HyFD (Papenbrock & Naumann) builds its
//! validator around.
//!
//! # Derivation policy
//!
//! A miss on `X` is served by finding the **cheapest cached ancestor**: the
//! cached strict subset of `X` with the smallest `covered_rows` (fewest rows
//! still to probe — ties broken by the `AttrSet` ordering so the choice is
//! deterministic regardless of hash-map iteration order). The remaining
//! attributes are multiplied in ascending order, one single-attribute
//! partition at a time, and every intermediate is cached too — a Tane-style
//! access pattern then finds `Π̂_{X∪{A}}` one product away from `Π̂_X`.
//!
//! Because every [`Partition`] is canonical (clusters ordered by first row,
//! rows ascending — see [`crate::partition`]), the partition of `X` is
//! **bit-identical no matter which derivation path produced it**. A cache
//! hit therefore returns exactly the bytes a fresh computation would, which
//! the invariance property tests assert.
//!
//! # Eviction
//!
//! The budget bounds the total `covered_rows` resident in the cache (a
//! direct proxy for bytes: 4 bytes per covered row plus offsets). Single
//! attributes are pinned — they are the derivation base and together cost at
//! most one relation's worth of rows. Over budget, the least-recently-used
//! unpinned entry goes first (ties again broken by `AttrSet` order).

use crate::delta::RowDelta;
use crate::partition::{Partition, ProductScratch};
use crate::relation::Relation;
use fd_core::{AttrSet, Budget, FastHashMap, Termination};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Default budget: resident rows across unpinned entries. 16M rows ≈ 64 MB
/// of row ids — generous for the evaluation fleet, bounded for production.
pub const DEFAULT_PLI_BUDGET_ROWS: usize = 16 << 20;

/// Hard cap on unpinned entries regardless of row budget. Near-key
/// partitions are almost empty, so a row budget alone would admit unbounded
/// entry counts — and the LRU victim scan is linear in the entry count.
pub const MAX_UNPINNED_ENTRIES: usize = 4096;

/// Floor that memory-pressure shrinks never push the row budget below —
/// except when the budget was already smaller (tests run 4-row caches;
/// pressure must only ever *shrink* a budget, never grow one).
pub const MIN_PRESSURE_BUDGET_ROWS: usize = 4096;

/// Severity of an external memory-pressure signal delivered to
/// [`PliCache::on_memory_pressure`] — e.g. from an allocation failure
/// (real or injected by `fd-faults`) or a future server-side RSS monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryPressure {
    /// Halve the row budget (not below [`MIN_PRESSURE_BUDGET_ROWS`]) and
    /// evict down to it. Repeated moderate signals converge on the floor.
    Moderate,
    /// Clamp the budget to [`MIN_PRESSURE_BUDGET_ROWS`] and drop every
    /// unpinned entry immediately. Pinned singles survive — they are the
    /// derivation base and together cost at most one relation of rows.
    Critical,
}

/// Hit/miss/eviction counters (observability; reported by the bench harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PliCacheStats {
    /// Requests served directly from the cache.
    pub hits: usize,
    /// Requests that computed at least one product.
    pub misses: usize,
    /// Partition products computed on behalf of misses.
    pub products: usize,
    /// Total entries evicted (always `evictions_row_budget +
    /// evictions_entry_cap + evictions_pressure`).
    pub evictions: usize,
    /// Evictions forced by the resident-row budget.
    pub evictions_row_budget: usize,
    /// Evictions forced by [`MAX_UNPINNED_ENTRIES`].
    pub evictions_entry_cap: usize,
    /// Evictions forced by a [`MemoryPressure`] signal.
    pub evictions_pressure: usize,
    /// Times [`PliCache::on_memory_pressure`] shrank the budget.
    pub pressure_shrinks: usize,
    /// Derived entries dropped by [`PliCache::apply_delta`] because an
    /// inserted row could have changed their clusters. Correctness-driven,
    /// so *not* part of the capacity-driven `evictions` partition.
    pub surgical_evictions: usize,
    /// High-water mark of unpinned resident rows.
    pub resident_rows_hwm: usize,
}

impl PliCacheStats {
    /// Hit rate over all lookups, or 0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    partition: Arc<Partition>,
    last_used: u64,
    /// Pinned entries (single attributes) are exempt from eviction.
    pinned: bool,
}

/// A size-bounded LRU cache of stripped partitions keyed by attribute set.
pub struct PliCache {
    entries: FastHashMap<AttrSet, Entry>,
    /// Unpinned entries ordered by `(last_used, key)` — the eviction order.
    /// Kept in lockstep with `entries` so a victim is `pop_first()`, not a
    /// linear scan (Tane donates tens of thousands of level partitions per
    /// run; an O(entries) scan per insert made donation quadratic).
    lru: BTreeSet<(u64, AttrSet)>,
    budget_rows: usize,
    resident_rows: usize,
    unpinned: usize,
    tick: u64,
    scratch: ProductScratch,
    stats: PliCacheStats,
}

impl PliCache {
    /// A cache bounding unpinned residency to `budget_rows` covered rows.
    pub fn new(budget_rows: usize) -> PliCache {
        PliCache {
            entries: FastHashMap::default(),
            lru: BTreeSet::new(),
            budget_rows,
            resident_rows: 0,
            unpinned: 0,
            tick: 0,
            scratch: ProductScratch::default(),
            stats: PliCacheStats::default(),
        }
    }

    /// A cache with the default row budget.
    pub fn with_default_budget() -> PliCache {
        PliCache::new(DEFAULT_PLI_BUDGET_ROWS)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PliCacheStats {
        self.stats
    }

    /// Number of cached partitions (pinned singles included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `Π̂_attrs` is currently resident (without touching LRU
    /// order). Lets the transparency tests assert pinned singles survive
    /// every eviction wave.
    pub fn contains(&self, attrs: &AttrSet) -> bool {
        self.entries.contains_key(attrs)
    }

    /// The stripped partition `Π̂_attrs`, served from the cache or derived
    /// from the cheapest cached ancestor.
    ///
    /// # Panics
    /// Panics if `attrs` is empty (`Π_∅` is one all-rows cluster; callers
    /// special-case it).
    pub fn get(&mut self, relation: &Relation, attrs: &AttrSet) -> Arc<Partition> {
        match self.get_impl(relation, attrs, None) {
            Ok(p) => p,
            // Unreachable: only budget polls produce errors.
            Err(_) => unreachable!("unbudgeted PLI lookup cannot trip"),
        }
    }

    /// [`PliCache::get`] polling `budget` inside every product it computes
    /// (the `POLL_STRIDE` convention). On a trip the cache keeps every
    /// intermediate finished so far; re-running after the trip resumes from
    /// them.
    pub fn get_budgeted(
        &mut self,
        relation: &Relation,
        attrs: &AttrSet,
        budget: &Budget,
    ) -> Result<Arc<Partition>, Termination> {
        self.get_impl(relation, attrs, Some(budget))
    }

    /// The stripped single-attribute partition `Π̂_{a}` (always a hit after
    /// first use; pinned).
    pub fn single(&mut self, relation: &Relation, a: fd_core::AttrId) -> Arc<Partition> {
        self.get(relation, &AttrSet::single(a))
    }

    /// Current unpinned row budget (shrinks under [`MemoryPressure`]).
    pub fn row_budget(&self) -> usize {
        self.budget_rows
    }

    /// Reacts to an external memory-pressure signal by shrinking the row
    /// budget and evicting down to it (see [`MemoryPressure`] for the two
    /// severities). The budget only ever shrinks — repeated signals are
    /// safe — and pinned singles always survive, so derivation stays
    /// possible and results stay byte-identical (the cache is transparent).
    pub fn on_memory_pressure(&mut self, level: MemoryPressure) {
        self.stats.pressure_shrinks += 1;
        fd_telemetry::counter!("cache.pressure_shrink", 1);
        match level {
            MemoryPressure::Moderate => {
                self.budget_rows =
                    self.budget_rows.min((self.budget_rows / 2).max(MIN_PRESSURE_BUDGET_ROWS));
                self.evict_down_to_budget(true);
            }
            MemoryPressure::Critical => {
                self.budget_rows = self.budget_rows.min(MIN_PRESSURE_BUDGET_ROWS);
                while let Some((_, key)) = self.lru.pop_first() {
                    self.drop_unpinned(key, EvictReason::Pressure);
                }
            }
        }
    }

    /// Patches every resident partition across a row delta instead of
    /// flushing the cache. `relation` must be the *post-delta* relation the
    /// delta was produced from.
    ///
    /// Three rules, in order:
    ///
    /// 1. **Deletes patch derived entries.** Removing rows induces the
    ///    partition of the surviving sub-relation exactly, so every derived
    ///    entry is remapped in place via [`Partition::remap_rows`]. No
    ///    eviction is ever needed for a delete.
    /// 2. **Inserts evict only provably-at-risk derived entries.** A
    ///    derived `Π̂_X` can only change if some inserted row joins (or
    ///    forms) a cluster, which requires its labels on *all* of `X` to be
    ///    non-fresh ([`RowDelta::nonfresh_attrs`]). Entries failing that
    ///    test for every inserted row are kept verbatim; the rest are
    ///    dropped and counted as `surgical_evictions`.
    /// 3. **Singles are rebuilt.** Every single-attribute entry becomes
    ///    [`Partition::of_column`] of the new column, stripped: an
    ///    O(rows + labels) counting sort with no hashing. Partitions are
    ///    canonical, so this equals patching the old entry in place.
    ///
    /// Returns the number of entries surgically evicted.
    pub fn apply_delta(&mut self, relation: &Relation, delta: &RowDelta) -> usize {
        if delta.is_empty() {
            return 0;
        }
        // Rule 2 first: drop derived entries an inserted row could reach.
        let mut evicted = 0usize;
        if !delta.inserted.is_empty() {
            let mut victims: Vec<AttrSet> = self
                .entries
                .keys()
                .filter(|k| k.len() > 1 && delta.nonfresh_attrs.iter().any(|m| k.is_subset_of(m)))
                .copied()
                .collect();
            victims.sort();
            for key in victims {
                if let Some(old) = self.entries.remove(&key) {
                    if !old.pinned {
                        self.resident_rows -= old.partition.covered_rows();
                        self.unpinned -= 1;
                        self.lru.remove(&(old.last_used, key));
                    }
                    self.stats.surgical_evictions += 1;
                    fd_telemetry::counter!("cache.surgical_evictions", 1);
                    evicted += 1;
                }
            }
        }
        // Rules 1 and 3: patch every survivor in place. LRU positions are
        // untouched (a patch is maintenance, not a use); only the resident
        // row accounting moves with the new cluster sizes.
        let remap = (!delta.deleted.is_empty()).then(|| delta.row_remap());
        let keys: Vec<AttrSet> = self.entries.keys().copied().collect();
        for key in keys {
            let Some(entry) = self.entries.get(&key) else { continue };
            let patched = if delta.new_n_rows == 0 {
                // The delta emptied the table (all rows deleted, nothing
                // inserted — `new_n_rows` counts post-insert rows). Every
                // partition collapses to the canonical empty form; stating
                // it directly guarantees the offsets fence stays `[0]`, so
                // derivation over the emptied cache never walks an empty
                // fence.
                Partition::empty(0)
            } else if key.len() == 1 {
                Partition::of_column(relation, key.first().unwrap_or_default()).stripped()
            } else {
                match &remap {
                    Some(r) => entry.partition.remap_rows(r, delta.new_n_rows),
                    None => entry.partition.with_total_rows(delta.new_n_rows),
                }
            };
            let Some(entry) = self.entries.get_mut(&key) else { continue };
            if !entry.pinned {
                self.resident_rows -= entry.partition.covered_rows();
                self.resident_rows += patched.covered_rows();
            }
            entry.partition = Arc::new(patched);
        }
        self.evict_over_budget();
        evicted
    }

    /// Donates an externally computed partition (e.g. a Tane level node) to
    /// the cache, making it available as a derivation ancestor.
    pub fn insert(&mut self, attrs: AttrSet, partition: Arc<Partition>) {
        if fd_faults::inject!("pli_cache.insert") == Some(fd_faults::Injected::AllocFail) {
            // Simulated allocation failure: a donation is pure optimization,
            // so refuse it and shed load — discovery proceeds uncached.
            self.on_memory_pressure(MemoryPressure::Moderate);
            return;
        }
        self.store(attrs, partition, false);
        self.evict_over_budget();
    }

    fn get_impl(
        &mut self,
        relation: &Relation,
        attrs: &AttrSet,
        budget: Option<&Budget>,
    ) -> Result<Arc<Partition>, Termination> {
        assert!(!attrs.is_empty(), "PliCache::get requires a non-empty attribute set");
        if let Some(p) = self.bump(attrs) {
            self.stats.hits += 1;
            fd_telemetry::counter!("pli_cache.hits", 1);
            return Ok(p);
        }
        self.stats.misses += 1;
        fd_telemetry::counter!("pli_cache.misses", 1);
        // One span per miss (not per product): the derive phase shows up in
        // job traces without flooding the bounded trace buffer.
        let _derive = fd_telemetry::span!("pli_cache.derive");
        // Simulated allocation failure on the derive path: degrade to an
        // uncached derivation (intermediates are computed but not stored)
        // and shed resident load. Canonical partitions make the degraded
        // result byte-identical to the cached one — only future hit rates
        // suffer. Discovery must never abort on cache memory pressure.
        let degraded =
            fd_faults::inject!("pli_cache.derive") == Some(fd_faults::Injected::AllocFail);
        if degraded {
            self.on_memory_pressure(MemoryPressure::Moderate);
        }
        if attrs.len() == 1 {
            let a = attrs.iter().next().unwrap_or_default();
            let p = Arc::new(Partition::of_column(relation, a).stripped());
            self.store(*attrs, Arc::clone(&p), true);
            return Ok(p);
        }
        // Cheapest cached strict-subset ancestor: smallest covered_rows,
        // ties broken by AttrSet order (deterministic under hash iteration).
        let ancestor_key = self
            .entries
            .iter()
            .filter(|(k, _)| k.is_proper_subset_of(attrs))
            .map(|(k, e)| (e.partition.covered_rows(), *k))
            .min();
        let (mut acc_key, mut acc) = match ancestor_key {
            Some((_, k)) => {
                let p = match self.bump(&k) {
                    Some(p) => p,
                    None => unreachable!("ancestor key vanished"),
                };
                (k, p)
            }
            None => {
                // Nothing cached below `attrs`: start from its first single.
                let a = attrs.iter().next().unwrap_or_default();
                let k = AttrSet::single(a);
                let p = Arc::new(Partition::of_column(relation, a).stripped());
                self.store(k, Arc::clone(&p), true);
                (k, p)
            }
        };
        // Derivation depth: how many products separate the chosen ancestor
        // from the requested set (0 would have been a hit).
        fd_telemetry::observe!(
            "pli_cache.derivation_depth",
            (attrs.len().saturating_sub(acc_key.len())) as u64
        );
        // Multiply in the remaining singles in ascending order, caching
        // every intermediate. Canonical form makes the end result identical
        // for every ancestor choice.
        for a in attrs.iter() {
            if acc_key.contains(a) {
                continue;
            }
            let single = match self.bump(&AttrSet::single(a)) {
                Some(p) => p,
                None => {
                    let p = Arc::new(Partition::of_column(relation, a).stripped());
                    self.store(AttrSet::single(a), Arc::clone(&p), true);
                    p
                }
            };
            self.stats.products += 1;
            fd_telemetry::counter!("pli_cache.products", 1);
            let next = match budget {
                Some(b) => acc.product_with_budget(&single, &mut self.scratch, b)?,
                None => acc.product_with(&single, &mut self.scratch),
            };
            acc_key.insert(a);
            acc = Arc::new(next);
            if !degraded {
                self.store(acc_key, Arc::clone(&acc), false);
            }
        }
        self.evict_over_budget();
        Ok(acc)
    }

    /// Marks `key` used now and returns its partition, maintaining the LRU
    /// index for unpinned entries. `None` on a miss.
    fn bump(&mut self, key: &AttrSet) -> Option<Arc<Partition>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        if !entry.pinned {
            self.lru.remove(&(entry.last_used, *key));
            self.lru.insert((tick, *key));
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.partition))
    }

    fn store(&mut self, attrs: AttrSet, partition: Arc<Partition>, pinned: bool) {
        self.tick += 1;
        let rows = partition.covered_rows();
        let entry = Entry { partition, last_used: self.tick, pinned };
        if let Some(old) = self.entries.insert(attrs, entry) {
            if !old.pinned {
                self.resident_rows -= old.partition.covered_rows();
                self.unpinned -= 1;
                self.lru.remove(&(old.last_used, attrs));
            }
        }
        if !pinned {
            self.resident_rows += rows;
            self.unpinned += 1;
            self.lru.insert((self.tick, attrs));
            if self.resident_rows > self.stats.resident_rows_hwm {
                self.stats.resident_rows_hwm = self.resident_rows;
                fd_telemetry::observe!("pli_cache.resident_rows", self.resident_rows as u64);
            }
        }
    }

    /// Evicts least-recently-used unpinned entries until within both the
    /// row budget and the entry cap. The victim order — min `(last_used,
    /// key)` — is exactly the BTreeSet order, so this is a `pop_first`.
    ///
    /// Each eviction is tagged with its reason: whichever bound is violated
    /// at the moment the victim is popped (row budget takes precedence when
    /// both are — the row bound is the one that models memory).
    fn evict_over_budget(&mut self) {
        self.evict_down_to_budget(false);
    }

    /// The eviction loop behind [`PliCache::evict_over_budget`]; when
    /// `pressure` is set the evictions are tagged [`EvictReason::Pressure`]
    /// instead of the bound that happens to be violated (the *cause* was
    /// the external signal that just shrank the budget).
    fn evict_down_to_budget(&mut self, pressure: bool) {
        while self.resident_rows > self.budget_rows || self.unpinned > MAX_UNPINNED_ENTRIES {
            let reason = if pressure {
                EvictReason::Pressure
            } else if self.resident_rows > self.budget_rows {
                EvictReason::RowBudget
            } else {
                EvictReason::EntryCap
            };
            let Some((_, key)) = self.lru.pop_first() else { return };
            self.drop_unpinned(key, reason);
        }
    }

    /// Removes one unpinned entry (already popped from the LRU index) and
    /// records the reason-tagged eviction counters.
    fn drop_unpinned(&mut self, key: AttrSet, reason: EvictReason) {
        if let Some(old) = self.entries.remove(&key) {
            self.resident_rows -= old.partition.covered_rows();
            self.unpinned -= 1;
            self.stats.evictions += 1;
            match reason {
                EvictReason::RowBudget => {
                    self.stats.evictions_row_budget += 1;
                    fd_telemetry::counter!("pli_cache.evictions.row_budget", 1);
                }
                EvictReason::EntryCap => {
                    self.stats.evictions_entry_cap += 1;
                    fd_telemetry::counter!("pli_cache.evictions.entry_cap", 1);
                }
                EvictReason::Pressure => {
                    self.stats.evictions_pressure += 1;
                    fd_telemetry::counter!("pli_cache.evictions.pressure", 1);
                }
            }
        }
    }
}

/// Why an entry was evicted (partitions the `evictions` counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvictReason {
    RowBudget,
    EntryCap,
    Pressure,
}

/// [`crate::partition::sampling_clusters`] through the cache: the
/// single-attribute stripped partitions are built (or reused) via `cache`,
/// then deduplicated in attribute order exactly like the uncached path.
pub fn sampling_clusters_cached(
    relation: &Relation,
    cache: &mut PliCache,
) -> Vec<Vec<crate::relation::RowId>> {
    let singles: Vec<Arc<Partition>> =
        (0..relation.n_attrs() as fd_core::AttrId).map(|a| cache.single(relation, a)).collect();
    crate::partition::dedup_clusters(singles.iter().map(Arc::as_ref))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::sampling_clusters;
    use crate::relation::RowId;
    use crate::synth::patient;
    use fd_core::AttrId;

    fn fresh(relation: &Relation, attrs: &AttrSet) -> Partition {
        let mut it = attrs.iter();
        let first = it.next().expect("non-empty");
        let mut p = Partition::of_column(relation, first).stripped();
        for a in it {
            p = p.product(&Partition::of_column(relation, a).stripped());
        }
        p
    }

    #[test]
    fn cache_hits_return_identical_partitions() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let attrs = AttrSet::from_attrs([1u16, 2, 3]);
        let first = cache.get(&r, &attrs);
        let second = cache.get(&r, &attrs);
        assert_eq!(*first, fresh(&r, &attrs));
        assert_eq!(first, second);
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn ancestor_derivation_matches_fresh_computation() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        // Prime {1,2}; then {1,2,3} must derive from it with one product.
        let _ = cache.get(&r, &AttrSet::from_attrs([1u16, 2]));
        let products_before = cache.stats().products;
        let derived = cache.get(&r, &AttrSet::from_attrs([1u16, 2, 3]));
        assert_eq!(cache.stats().products, products_before + 1);
        assert_eq!(*derived, fresh(&r, &AttrSet::from_attrs([1u16, 2, 3])));
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        let r = patient();
        let mut cache = PliCache::new(4); // almost nothing fits
        for attrs in [
            AttrSet::from_attrs([1u16, 2]),
            AttrSet::from_attrs([2u16, 3]),
            AttrSet::from_attrs([1u16, 3]),
            AttrSet::from_attrs([1u16, 2, 3]),
        ] {
            let got = cache.get(&r, &attrs);
            assert_eq!(*got, fresh(&r, &attrs), "{attrs:?}");
        }
        assert!(cache.stats().evictions > 0, "budget of 4 rows must evict");
        // Every eviction carries exactly one reason tag, and a 4-row budget
        // (with far fewer than MAX_UNPINNED_ENTRIES entries) means all of
        // them are row-budget evictions.
        let stats = cache.stats();
        assert_eq!(
            stats.evictions,
            stats.evictions_row_budget + stats.evictions_entry_cap + stats.evictions_pressure
        );
        assert_eq!(stats.evictions_entry_cap, 0);
        assert_eq!(stats.evictions_pressure, 0);
        assert!(stats.resident_rows_hwm > 0);
        // Singles stay pinned through every eviction.
        for a in [1u16, 2, 3] {
            assert!(cache.entries.contains_key(&AttrSet::single(a)));
            assert!(cache.contains(&AttrSet::single(a)));
        }
    }

    #[test]
    fn moderate_pressure_halves_budget_and_never_grows_it() {
        let r = patient();
        let mut cache = PliCache::new(1 << 20);
        let _ = cache.get(&r, &AttrSet::from_attrs([1u16, 2]));
        let _ = cache.get(&r, &AttrSet::from_attrs([2u16, 3]));
        cache.on_memory_pressure(MemoryPressure::Moderate);
        assert_eq!(cache.row_budget(), 1 << 19);
        // Shrinks converge on the floor and stop.
        for _ in 0..16 {
            cache.on_memory_pressure(MemoryPressure::Moderate);
        }
        assert_eq!(cache.row_budget(), MIN_PRESSURE_BUDGET_ROWS);
        let stats = cache.stats();
        assert_eq!(stats.pressure_shrinks, 17);
        assert_eq!(
            stats.evictions,
            stats.evictions_row_budget + stats.evictions_entry_cap + stats.evictions_pressure
        );
        // A tiny budget must only ever shrink further, never jump to the floor.
        let mut tiny = PliCache::new(4);
        tiny.on_memory_pressure(MemoryPressure::Moderate);
        assert_eq!(tiny.row_budget(), 4);
        tiny.on_memory_pressure(MemoryPressure::Critical);
        assert_eq!(tiny.row_budget(), 4);
    }

    #[test]
    fn critical_pressure_drops_all_unpinned_but_spares_singles() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let _ = cache.get(&r, &AttrSet::from_attrs([1u16, 2]));
        let _ = cache.get(&r, &AttrSet::from_attrs([1u16, 2, 3]));
        assert!(cache.contains(&AttrSet::from_attrs([1u16, 2])));
        cache.on_memory_pressure(MemoryPressure::Critical);
        assert!(!cache.contains(&AttrSet::from_attrs([1u16, 2])));
        assert!(!cache.contains(&AttrSet::from_attrs([1u16, 2, 3])));
        for a in [1u16, 2, 3] {
            assert!(cache.contains(&AttrSet::single(a)), "pinned single {a} must survive");
        }
        let stats = cache.stats();
        assert!(stats.evictions_pressure >= 2);
        assert_eq!(
            stats.evictions,
            stats.evictions_row_budget + stats.evictions_entry_cap + stats.evictions_pressure
        );
        // The cache still answers correctly afterwards (re-derives from singles).
        let attrs = AttrSet::from_attrs([1u16, 2, 3]);
        assert_eq!(*cache.get(&r, &attrs), fresh(&r, &attrs));
    }

    #[test]
    fn delta_deleting_every_row_keeps_cache_transparent() {
        let mut r = patient();
        let mut cache = PliCache::with_default_budget();
        let keys = [
            AttrSet::single(1),
            AttrSet::from_attrs([1u16, 2]),
            AttrSet::from_attrs([1u16, 2, 3]),
        ];
        for k in &keys {
            let _ = cache.get(&r, k);
        }
        let all: Vec<RowId> = (0..r.n_rows() as RowId).collect();
        let delta = r.apply_delta(&[], &all);
        cache.apply_delta(&r, &delta);
        assert_eq!(r.n_rows(), 0);
        for k in &keys {
            let got = cache.get(&r, k);
            assert_eq!(*got, fresh(&r, k), "{k:?}");
            assert_eq!(got.n_clusters(), 0);
            assert_eq!(got.covered_rows(), 0);
            assert_eq!(got.n_rows(), 0);
        }
        // Deriving an uncached superset walks the product over the emptied
        // ancestors — it must terminate cleanly, never indexing past the
        // `[0]` offsets fence.
        let sup = AttrSet::from_attrs([1u16, 2, 4]);
        assert_eq!(*cache.get(&r, &sup), fresh(&r, &sup));
        // Refilling the emptied table stays transparent too (insert-only
        // delta on a zero-row base: every label is fresh, singles rebuild).
        let delta2 = r.apply_delta(&[vec![0, 0, 1, 0, 2], vec![0, 1, 1, 0, 2]], &[]);
        cache.apply_delta(&r, &delta2);
        assert_eq!(r.n_rows(), 2);
        for k in keys.iter().chain([&sup]) {
            assert_eq!(*cache.get(&r, k), fresh(&r, k), "{k:?} after refill");
        }
    }

    #[test]
    fn hit_rate_reflects_lookups() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        let attrs = AttrSet::from_attrs([1u16, 2]);
        let _ = cache.get(&r, &attrs); // miss
        let _ = cache.get(&r, &attrs); // hit
        let s = cache.stats();
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
    }

    #[test]
    fn budgeted_get_trips_on_cancelled_token() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let budget = Budget::unlimited();
        let ok = cache.get_budgeted(&r, &AttrSet::from_attrs([1u16, 3]), &budget);
        assert!(ok.is_ok());
        // Note: small relations finish products between poll strides, so a
        // cancel mid-product is exercised in the partition tests; here we
        // check the plumbing accepts a budget at all and hits stay cheap.
        let hit = cache.get_budgeted(&r, &AttrSet::from_attrs([1u16, 3]), &budget);
        assert!(hit.is_ok());
    }

    #[test]
    fn delete_only_delta_patches_every_entry_without_eviction() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let keys = [
            AttrSet::single(1),
            AttrSet::single(3),
            AttrSet::from_attrs([1u16, 2]),
            AttrSet::from_attrs([1u16, 3]),
            AttrSet::from_attrs([2u16, 3, 4]),
        ];
        for attrs in &keys {
            let _ = cache.get(&r, attrs);
        }
        let len_before = cache.len();
        let mut mutated = r.clone();
        let delta = mutated.apply_delta(&[], &[1, 4, 6]);
        let evicted = cache.apply_delta(&mutated, &delta);
        assert_eq!(evicted, 0, "deletes are exactly patchable");
        assert_eq!(cache.len(), len_before);
        // Every resident partition now equals a fresh computation on the
        // mutated relation — checked directly, no miss-path recompute.
        for (key, entry) in &cache.entries {
            assert_eq!(*entry.partition, fresh(&mutated, key), "{key:?}");
        }
    }

    #[test]
    fn insert_delta_patches_singles_and_evicts_only_reachable_deriveds() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let derived = [
            AttrSet::from_attrs([1u16, 2]),
            AttrSet::from_attrs([1u16, 3]),
            AttrSet::from_attrs([2u16, 3, 4]),
        ];
        for attrs in &derived {
            let _ = cache.get(&r, attrs);
        }
        let mut mutated = r.clone();
        // One row duplicating row 0 (non-fresh on every attribute: every
        // derived entry is reachable) plus one row of entirely fresh labels
        // (reaches nothing).
        let dup: Vec<u32> = (0..r.n_attrs()).map(|a| r.label(0, a as AttrId)).collect();
        let fresh_row: Vec<u32> =
            (0..r.n_attrs()).map(|a| r.n_distinct(a as AttrId) as u32 + 7).collect();
        // Derivation caches intermediates too ({2,3} on the way to
        // {2,3,4}): every multi-attribute entry counts.
        let deriveds_resident = cache.entries.keys().filter(|k| k.len() > 1).count();
        let delta = mutated.apply_delta(&[dup, fresh_row], &[2]);
        let evicted = cache.apply_delta(&mutated, &delta);
        assert_eq!(evicted, deriveds_resident, "all deriveds sat under the duplicate's mask");
        assert_eq!(cache.stats().surgical_evictions, evicted);
        for attrs in &derived {
            assert!(!cache.contains(attrs));
        }
        // Pinned singles were rebuilt, and exactly.
        for a in 0..r.n_attrs() as AttrId {
            let key = AttrSet::single(a);
            if cache.contains(&key) {
                assert_eq!(*cache.get(&mutated, &key), fresh(&mutated, &key), "single {a}");
            }
        }
        // The cache stays transparent for the evicted sets too (re-derived).
        for attrs in &derived {
            assert_eq!(*cache.get(&mutated, attrs), fresh(&mutated, attrs), "{attrs:?}");
        }
    }

    #[test]
    fn fresh_label_only_insert_keeps_derived_entries() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        let attrs = AttrSet::from_attrs([1u16, 2]);
        let _ = cache.get(&r, &attrs);
        let mut mutated = r.clone();
        let fresh_row: Vec<u32> =
            (0..r.n_attrs()).map(|a| r.n_distinct(a as AttrId) as u32 + 3).collect();
        let delta = mutated.apply_delta(&[fresh_row], &[]);
        let evicted = cache.apply_delta(&mutated, &delta);
        assert_eq!(evicted, 0, "a fully-fresh row cannot join any cluster");
        assert!(cache.contains(&attrs));
        for (key, entry) in &cache.entries {
            assert_eq!(*entry.partition, fresh(&mutated, key), "{key:?}");
            assert_eq!(entry.partition.n_rows(), mutated.n_rows());
        }
    }

    #[test]
    fn cached_sampling_clusters_match_uncached() {
        let r = patient();
        let mut cache = PliCache::with_default_budget();
        assert_eq!(sampling_clusters_cached(&r, &mut cache), sampling_clusters(&r));
        // Second call is all hits.
        let hits_before = cache.stats().hits;
        let _ = sampling_clusters_cached(&r, &mut cache);
        assert_eq!(cache.stats().hits, hits_before + r.n_attrs());
    }
}
