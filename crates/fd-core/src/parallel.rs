//! Adaptive parallelism policy and the one fan-out shared by every
//! data-parallel kernel.
//!
//! Each kernel used to carry its own hard-coded engagement threshold
//! (`MIN_PAIRS_PER_WORKER`, `MIN_INVERSIONS_PARALLEL`, …) and trust the
//! caller's thread knob blindly. That breaks on a 1-core host: an explicit
//! `--threads 4` spawned four workers anyway and *lost* 10–14% of
//! wall-clock to scheduling overhead. This module centralises both
//! decisions:
//!
//! * [`clamp_threads`] resolves a user-facing thread knob against the
//!   machine (`0` = auto; explicit values are capped at the available
//!   core count, so oversubscription is impossible by construction);
//! * [`decide`] is the pure per-batch policy: given the number of work
//!   items, a per-item cost hint, and an already-clamped thread budget, it
//!   returns how many workers to actually spawn. Small batches fall back to
//!   the sequential path.
//!
//! `decide` deliberately does **not** consult the machine — it is a pure
//! function of its arguments, so the thread-invariance property tests can
//! drive the parallel code paths on any host. All machine awareness lives in
//! [`clamp_threads`], which is applied once at the configuration boundary.
//!
//! Once `decide` has chosen a worker count, [`map_ordered`] runs the batch.
//! It is the one fan-out every kernel goes through, and it owns the whole
//! split–run–merge decision:
//!
//! * **inline cutoff** — with one worker the items are mapped on the
//!   caller's thread, straight into the caller's fold: no claim cursor, no
//!   slot, no allocation, no `parallel.worker` fault site;
//! * **slots** — otherwise each item is parked in its own slot (the only
//!   per-chunk slots in the workspace) and claimed through
//!   [`fan_out_stealing`]'s atomic cursor, so a worker that drew cheap
//!   chunks steals the next index instead of idling behind a fixed
//!   `div_ceil` split;
//! * **order** — results reach the caller's fold in item order, never
//!   completion order, which is what makes the schedule's nondeterminism
//!   invisible to callers;
//! * **panics** — a worker panic is re-raised on the caller's thread before
//!   the fold sees any result.
//!
//! [`chunks`] cuts a slice into the items a fan-out claims: the whole slice
//! when the batch runs inline, otherwise about [`STEAL_CHUNKS_PER_WORKER`]
//! chunks of equal weight per worker, none lighter than the site's minimum.
//!
//! | site                | kernel                                | item                |
//! |---------------------|---------------------------------------|---------------------|
//! | `pair_compare`      | `RowMajor` batch compares             | ≥ 1024 tuple pairs  |
//! | `sampling_clusters` | `sampling_clusters_parallel`          | one attribute       |
//! | `cover_invert`      | `PCover::invert_batch*`               | one RHS tree's work |
//! | `tane_products`     | Tane's per-level `generate_products`  | candidate chunk     |
//! | `agree_sets`        | `AgreeSetCollector::collect`          | cluster chunk       |
//!
//! ## Cost-hint units
//!
//! `decide`'s `cost_hint` is the **approximate per-item cost in
//! u32-compare-equivalent units** — one label comparison, one row move, or
//! one tree-node visit all count as roughly one unit. Every call site must
//! pass a *per-item* figure, never a batch total:
//!
//! | site                | items        | per-item cost hint                  |
//! |---------------------|--------------|-------------------------------------|
//! | `pair_compare`      | tuple pairs  | `width` (one compare per attribute) |
//! | `cover_invert`      | non-FDs      | ~2Ki, measured per inversion        |
//! | `sampling_clusters` | attributes   | `n_rows` (counting sort row moves)  |
//! | `tane_products`     | candidates   | `n_rows` (one row move per product) |
//! | `agree_sets`        | clusters     | mean `pairs_in(c) × width`          |
//!
//! The bit-packed kernel compares ~8 attributes per cycle, so `pair_compare`
//! slightly overstates its cost in these units; that only makes the policy
//! engage parallelism a little early, which the per-worker quantum absorbs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Minimum work units per worker before spawning is worth it.
///
/// A *unit* is roughly one `u32` comparison (one label probe, one row move).
/// The pair kernel reaches it at 4096 pairs × ~16 attrs ≈ 64Ki units per
/// worker, and cover inversion at 32 non-FDs × ~2Ki units per worker.
pub const MIN_UNITS_PER_WORKER: u64 = 65_536;

/// Chunks per worker a work-stealing fan-out aims for. More chunks mean
/// finer rebalancing under skew but more claim traffic; 4 keeps the claim
/// cost negligible while letting one slow chunk be offset by three cheap
/// ones elsewhere.
pub const STEAL_CHUNKS_PER_WORKER: usize = 4;

/// Cached `available_parallelism()` (the syscall is not free and the value
/// cannot change mid-process for our purposes). 0 = not yet queried.
static AVAILABLE_CORES: AtomicUsize = AtomicUsize::new(0);

/// Number of available cores, queried once and cached.
pub fn available_cores() -> usize {
    let cached = AVAILABLE_CORES.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    AVAILABLE_CORES.store(cores, Ordering::Relaxed);
    cores
}

/// Resolves a user-facing thread knob: `0` means one worker per available
/// core; explicit values are clamped to the available core count so a
/// `--threads 8` run on a 1-core container degrades to the sequential path
/// instead of oversubscribing.
pub fn clamp_threads(requested: usize) -> usize {
    let cores = available_cores();
    if requested == 0 {
        cores
    } else {
        requested.min(cores)
    }
}

/// The adaptive engagement policy: how many workers to spawn for a batch of
/// `work_items` items costing roughly `cost_hint` units each, given an
/// already-clamped budget of `threads`.
///
/// `cost_hint` is the approximate **per-item** cost in u32-compare-equivalent
/// units (see the module docs for the unit table) — callers must not pass a
/// batch total, or the policy over-engages by a factor of `work_items`.
///
/// Returns a value in `1..=threads.max(1)`, never exceeding `work_items`
/// (an idle worker is pure overhead) and never splitting the batch finer
/// than [`MIN_UNITS_PER_WORKER`] units per worker.
pub fn decide(work_items: usize, cost_hint: u64, threads: usize) -> usize {
    if threads <= 1 || work_items <= 1 {
        return 1;
    }
    let total_units = (work_items as u64).saturating_mul(cost_hint.max(1));
    let by_cost = (total_units / MIN_UNITS_PER_WORKER).max(1);
    threads.min(work_items).min(usize::try_from(by_cost).unwrap_or(usize::MAX))
}

/// The inverse of [`decide`]: the fewest work items of cost `cost_hint` for
/// which `decide` grants all `threads` workers (1 when `threads <= 1`).
///
/// A caller that can merge small batches — the EulerFD sampler plans several
/// window steps into one compare — fills a batch up to this size, so the
/// merged batch engages every worker without growing past what they need.
pub fn saturating_items(cost_hint: u64, threads: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    let units = (threads as u64).saturating_mul(MIN_UNITS_PER_WORKER);
    let by_cost = units.div_ceil(cost_hint.max(1));
    usize::try_from(by_cost).unwrap_or(usize::MAX).max(threads)
}

/// [`decide`] with a call-site histogram: records the chosen worker count
/// into `histogram` (by convention `parallel.workers.<site>`) when telemetry
/// is enabled, so a run's snapshot shows where the policy engaged
/// parallelism and at what width. The name is passed whole so a traced call
/// allocates nothing. Identical to [`decide`] in every other respect.
pub fn decide_at(
    histogram: &'static str,
    work_items: usize,
    cost_hint: u64,
    threads: usize,
) -> usize {
    let workers = decide(work_items, cost_hint, threads);
    if fd_telemetry::is_enabled() {
        fd_telemetry::registry().observe_by_name(histogram, workers as u64);
    }
    workers
}

/// Counters of one fan-out ([`map_ordered`] or [`fan_out_stealing`]),
/// summed over its workers.
///
/// All fields are *diagnostics*: which worker claims which chunk depends on
/// scheduling, so `steals` varies run to run. Nothing downstream of a
/// fan-out may depend on these values.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Chunks claimed in total (equals the fan-out's chunk count).
    pub chunks_claimed: u64,
    /// Claims that diverged from the fixed `div_ceil` split — the chunk ran
    /// on a different worker than a static split would have assigned it to.
    /// 0 means the static split would have balanced perfectly; high values
    /// mean skew made workers redistribute.
    pub steals: u64,
    /// Worker threads that participated (1 = the batch ran inline).
    pub workers: usize,
}

/// Runs `run_chunk(i)` for every `i in 0..n_chunks` on up to `workers`
/// workers — the caller plus `workers - 1` scoped threads — with chunk
/// indices handed out by an atomic claim cursor:
/// a worker finishing its chunk immediately steals the next unclaimed index,
/// so skewed per-chunk costs no longer idle workers the way a fixed
/// `div_ceil` split did.
///
/// This is the claim loop under [`map_ordered`], which supplies the
/// per-chunk slots; kernels call `map_ordered`, never this directly.
///
/// **Determinism contract:** every chunk index is claimed exactly once, and
/// `run_chunk` must write only to state owned by its chunk index (a
/// pre-assigned output slot). Under that contract the set of executed
/// chunks — and therefore the caller-visible result — is byte-identical for
/// every worker count and schedule; only the wall clock and the
/// [`StealStats`] vary.
///
/// When telemetry is enabled, records per-site steal counters
/// (`parallel.steal_count`, `parallel.chunks_claimed`,
/// `parallel.steals.<site>`) and a per-worker busy-fraction histogram
/// (`parallel.busy_pct.<site>`, percent of scope wall-clock spent inside
/// `run_chunk`). Panics in `run_chunk` are re-raised on the caller's thread.
pub fn fan_out_stealing<F>(site: &str, n_chunks: usize, workers: usize, run_chunk: F) -> StealStats
where
    F: Fn(usize) + Sync,
{
    if n_chunks == 0 {
        return StealStats::default();
    }
    if workers <= 1 || n_chunks == 1 {
        for i in 0..n_chunks {
            // Cooperative faults have no meaning for a pure compute chunk;
            // panics and delays are performed inside the macro.
            let _ = fd_faults::inject!("parallel.worker");
            run_chunk(i);
        }
        return StealStats { chunks_claimed: n_chunks as u64, steals: 0, workers: 1 };
    }
    let telemetry = fd_telemetry::is_enabled();
    let cursor = AtomicUsize::new(0);
    let steal_total = AtomicU64::new(0);
    // The static split a non-stealing fan-out would have used; claims
    // outside a worker's static share count as steals.
    let static_share = n_chunks.div_ceil(workers).max(1);
    let scope_start = Instant::now();
    // One worker's claim loop; returns its time inside `run_chunk`.
    let work = |w: usize| {
        let mut steals = 0u64;
        let mut busy = std::time::Duration::ZERO;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            if i / static_share != w {
                steals += 1;
            }
            // A delay here stalls one worker and lets the claim cursor
            // rebalance the remaining chunks; a panic on a spawned worker
            // is re-raised on the caller's thread by the join below.
            let _ = fd_faults::inject!("parallel.worker");
            if telemetry {
                let t0 = Instant::now();
                run_chunk(i);
                busy += t0.elapsed();
            } else {
                run_chunk(i);
            }
        }
        steal_total.fetch_add(steals, Ordering::Relaxed);
        busy
    };
    let record_busy = |busy: std::time::Duration| {
        if telemetry {
            let wall = scope_start.elapsed().as_secs_f64().max(1e-9);
            let pct = ((busy.as_secs_f64() / wall) * 100.0).min(100.0) as u64;
            fd_telemetry::registry().observe_by_name(&format!("parallel.busy_pct.{site}"), pct);
        }
    };
    // The caller is worker 0: a spawn costs tens of microseconds, about
    // what a second worker saves on the smallest batch `decide` splits, so
    // only the other workers get a thread of their own.
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        record_busy(work(0));
        for handle in handles {
            let busy = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            record_busy(busy);
        }
    });
    let stats = StealStats {
        chunks_claimed: n_chunks as u64,
        steals: steal_total.load(Ordering::Relaxed),
        workers,
    };
    fd_telemetry::counter!("parallel.steal_count", stats.steals);
    fd_telemetry::counter!("parallel.chunks_claimed", stats.chunks_claimed);
    if telemetry {
        fd_telemetry::registry()
            .counter_add_by_name(&format!("parallel.steals.{site}"), stats.steals);
    }
    stats
}

/// The ordered map every data-parallel kernel runs through: `work` maps
/// each of `items` to a result, and `take` receives the results **in item
/// order** on the caller's thread.
///
/// With `workers <= 1` each item is mapped inline, one after another,
/// straight into `take` — no claim cursor, no slot, no allocation and no
/// `parallel.worker` fault site, so the one-worker path costs what a plain
/// sequential loop costs. Otherwise every item is parked in its own
/// slot, the slots are claimed through [`fan_out_stealing`] on up to
/// `workers` threads (telemetry under `site`), and after the join the
/// results are handed to `take` in slot order. Because `take` never sees
/// completion order, a caller whose fold is a function of the item
/// sequence gets the same answer for every worker count and schedule. A
/// panic in `work` is re-raised here before `take` sees any result.
pub fn map_ordered<T, R>(
    site: &str,
    workers: usize,
    items: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
    mut take: impl FnMut(R),
) -> StealStats
where
    T: Send,
    R: Send,
{
    if workers <= 1 {
        let mut chunks_claimed = 0;
        for item in items {
            take(work(item));
            chunks_claimed += 1;
        }
        return StealStats { chunks_claimed, steals: 0, workers: 1 };
    }
    enum Slot<T, R> {
        Todo(T),
        Done(R),
        Claimed,
    }
    let slots: Vec<Mutex<Slot<T, R>>> =
        items.into_iter().map(|item| Mutex::new(Slot::Todo(item))).collect();
    let stats = fan_out_stealing(site, slots.len(), workers, |i| {
        // Each index is claimed exactly once, so the lock is uncontended;
        // it only makes the slot `Sync`. A panic in `work` leaves the slot
        // `Claimed` (a valid state) and is re-raised before the fold below.
        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        if let Slot::Todo(item) = std::mem::replace(&mut *slot, Slot::Claimed) {
            *slot = Slot::Done(work(item));
        }
    });
    for slot in slots {
        if let Slot::Done(result) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            take(result);
        }
    }
    stats
}

/// Cuts `items` into the contiguous chunks a [`map_ordered`] over `workers`
/// should claim. An inline batch (`workers <= 1`) is one chunk. Otherwise
/// chunks aim at an equal share of the total `weight`, about
/// [`STEAL_CHUNKS_PER_WORKER`] per worker, and never weigh less than
/// `min_weight` (claim and slot overhead must stay amortized) unless the
/// items run out. An item heavier than the share closes its chunk by
/// itself, so skewed items — a few giant clusters — land in separate
/// claimable chunks. An empty slice yields no chunk.
pub fn chunks<T>(
    items: &[T],
    workers: usize,
    min_weight: u64,
    weight: impl Fn(&T) -> u64,
) -> impl Iterator<Item = &[T]> {
    let share = if workers <= 1 {
        None
    } else {
        let total: u64 = items.iter().map(&weight).sum();
        let n_chunks = (workers * STEAL_CHUNKS_PER_WORKER) as u64;
        Some(total.div_ceil(n_chunks).max(min_weight))
    };
    let mut rest = items;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut end = rest.len();
        if let Some(share) = share {
            let mut acc = 0u64;
            end = rest
                .iter()
                .position(|item| {
                    acc += weight(item);
                    acc >= share
                })
                .map_or(rest.len(), |last| last + 1);
        }
        let (chunk, tail) = rest.split_at(end);
        rest = tail;
        Some(chunk)
    })
}

/// Appends one chunk's output to a result being assembled in chunk order.
/// The first chunk is moved rather than copied, so a one-chunk (inline)
/// batch builds its result without a second buffer.
pub fn concat_chunk<T>(out: &mut Vec<T>, chunk: Vec<T>) {
    if out.is_empty() {
        *out = chunk;
    } else {
        out.extend(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_budget_stays_sequential() {
        assert_eq!(decide(1_000_000, 1_000, 1), 1);
        assert_eq!(decide(1_000_000, 1_000, 0), 1);
    }

    #[test]
    fn tiny_batches_fall_back_to_sequential() {
        // 100 pairs × 16 attrs = 1.6K units — far below one worker's quantum.
        assert_eq!(decide(100, 16, 8), 1);
        assert_eq!(decide(0, 16, 8), 1);
        assert_eq!(decide(1, u64::MAX, 8), 1);
    }

    #[test]
    fn large_batches_use_the_full_budget() {
        // 1M pairs × 16 attrs = 16M units → 244 workers by cost; capped at 8.
        assert_eq!(decide(1_000_000, 16, 8), 8);
    }

    #[test]
    fn worker_count_never_exceeds_items() {
        assert_eq!(decide(3, u64::MAX, 8), 3);
    }

    #[test]
    fn intermediate_batches_scale_down() {
        // 8192 pairs × 16 attrs = 128Ki units → 2 workers even with 8 budget.
        assert_eq!(decide(8192, 16, 8), 2);
        // PR 1's engagement point: 4096 pairs × 16 attrs = exactly one quantum.
        assert_eq!(decide(4096, 16, 8), 1);
    }

    #[test]
    fn zero_cost_hint_is_treated_as_one_unit() {
        assert_eq!(decide(1 << 20, 0, 4), 4);
    }

    #[test]
    fn saturating_items_is_the_smallest_full_width_batch() {
        assert_eq!(saturating_items(9, 1), 1);
        assert_eq!(saturating_items(9, 0), 1);
        // Abalone's width 9 at 2 threads: 2 × 64Ki / 9, rounded up.
        assert_eq!(saturating_items(9, 2), 14_564);
        for (cost, threads) in [(9, 2), (16, 8), (1, 4), (0, 3), (u64::MAX, 8), (63, 5)] {
            let n = saturating_items(cost, threads);
            assert_eq!(decide(n, cost, threads), threads, "cost={cost} threads={threads}");
            assert!(decide(n - 1, cost, threads) < threads, "cost={cost} threads={threads}");
        }
    }

    #[test]
    fn decide_at_matches_decide() {
        for (items, cost, threads) in [(1_000_000, 16, 8), (100, 16, 8), (3, u64::MAX, 8)] {
            let at = decide_at("parallel.workers.test_site", items, cost, threads);
            assert_eq!(at, decide(items, cost, threads));
        }
    }

    #[test]
    fn clamp_respects_the_machine() {
        let cores = available_cores();
        assert!(cores >= 1);
        assert_eq!(clamp_threads(0), cores);
        assert_eq!(clamp_threads(1), 1);
        assert!(clamp_threads(usize::MAX) <= cores);
    }

    #[test]
    fn decide_is_monotone_in_items() {
        let mut prev = 0;
        for items in [0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let w = decide(items, 64, 16);
            assert!(w >= prev, "items={items}: {w} < {prev}");
            prev = w;
        }
    }

    #[test]
    fn stealing_claims_every_chunk_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for workers in [1usize, 2, 3, 8] {
            let n_chunks = 23;
            let hits: Vec<AtomicU32> = (0..n_chunks).map(|_| AtomicU32::new(0)).collect();
            let stats = fan_out_stealing("test.claims", n_chunks, workers, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "chunk {i} at workers={workers}");
            }
            assert_eq!(stats.chunks_claimed, n_chunks as u64);
            assert!(stats.workers >= 1 && stats.workers <= workers.max(1));
        }
    }

    #[test]
    fn stealing_results_match_sequential_for_any_worker_count() {
        // Each chunk writes a pure function of its index into its own slot;
        // the assembled output must be schedule-invariant.
        let n_chunks = 64;
        let sequential: Vec<u64> = (0..n_chunks as u64).map(|i| i * i + 1).collect();
        for workers in [1usize, 2, 3, 4, 7, 16] {
            let out: Vec<std::sync::Mutex<u64>> =
                (0..n_chunks).map(|_| std::sync::Mutex::new(0)).collect();
            fan_out_stealing("test.slots", n_chunks, workers, |i| {
                *out[i].lock().unwrap_or_else(|e| e.into_inner()) = (i as u64) * (i as u64) + 1;
            });
            let got: Vec<u64> =
                out.iter().map(|m| *m.lock().unwrap_or_else(|e| e.into_inner())).collect();
            assert_eq!(got, sequential, "workers={workers}");
        }
    }

    #[test]
    fn stealing_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            fan_out_stealing("test.panic", 8, 2, |i| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("chunk 5 exploded"), "original panic message lost: {msg:?}");
    }

    #[test]
    fn map_ordered_folds_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let sequential: Vec<u64> = items.iter().map(|i| i * i + 1).collect();
        for workers in [1usize, 2, 3, 4, 8] {
            let mut got = Vec::new();
            let stats =
                map_ordered("test.ordered", workers, items.iter(), |&i| i * i + 1, |r| got.push(r));
            assert_eq!(got, sequential, "workers={workers}");
            assert_eq!(stats.chunks_claimed, items.len() as u64);
            assert!(stats.workers >= 1 && stats.workers <= workers);
        }
    }

    #[test]
    fn map_ordered_runs_one_worker_inline() {
        let caller = std::thread::current().id();
        let stats = map_ordered(
            "test.inline",
            1,
            0..5,
            |_| std::thread::current().id(),
            |id| assert_eq!(id, caller, "the one-worker path must not spawn"),
        );
        assert_eq!(stats, StealStats { chunks_claimed: 5, steals: 0, workers: 1 });
    }

    #[test]
    fn map_ordered_propagates_worker_panics_before_folding() {
        let mut folded = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_ordered(
                "test.ordered_panic",
                2,
                0..8,
                |i| {
                    if i == 5 {
                        panic!("item 5 exploded");
                    }
                },
                |()| folded += 1,
            );
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(folded, 0, "no result may be folded from a panicked fan-out");
    }

    #[test]
    fn chunks_cover_the_slice_in_order() {
        let items: Vec<u32> = (0..1000).collect();
        let count = |workers, min| chunks(&items, workers, min, |_| 1).count();
        assert_eq!(count(1, 256), 1, "inline batches are one chunk");
        // 4 chunks per worker when the minimum allows...
        assert_eq!(count(4, 1), 16);
        // ...never lighter than the minimum.
        assert_eq!(count(2, 256), 4);
        assert_eq!(count(8, 600), 2);
        for workers in [1usize, 2, 3, 8] {
            let joined: Vec<u32> = chunks(&items, workers, 7, |_| 1).flatten().copied().collect();
            assert_eq!(joined, items, "workers={workers}");
        }
        assert_eq!(chunks::<u32>(&[], 1, 256, |_| 1).count(), 0);
        assert_eq!(chunks::<u32>(&[], 4, 256, |_| 1).count(), 0);
    }

    #[test]
    fn chunks_balance_by_weight() {
        // Three giant items up front, then many light ones: each giant
        // closes a chunk of its own instead of piling into the first chunk.
        let items: Vec<u64> = [1_000, 1_000, 1_000].into_iter().chain([1; 900]).collect();
        let cut: Vec<&[u64]> = chunks(&items, 2, 1, |&w| w).collect();
        assert_eq!(&cut[..3], &[&[1_000][..], &[1_000][..], &[1_000][..]]);
        assert_eq!(cut.iter().map(|c| c.len()).sum::<usize>(), items.len());
        let share = items.iter().sum::<u64>().div_ceil(8);
        assert!(cut.iter().all(|c| c.iter().sum::<u64>() <= share + 1_000));
    }

    #[test]
    fn concat_chunk_moves_the_first_chunk() {
        let first = vec![1, 2, 3];
        let ptr = first.as_ptr();
        let mut out = Vec::new();
        concat_chunk(&mut out, first);
        assert_eq!(out.as_ptr(), ptr, "the first chunk must be moved, not copied");
        concat_chunk(&mut out, vec![4]);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn empty_fan_out_is_a_no_op() {
        let stats = fan_out_stealing("test.empty", 0, 4, |_| panic!("must not run"));
        assert_eq!(stats, StealStats::default());
    }
}
