//! Partitions and stripped partitions (Definitions 6–7).
//!
//! A partition `Π_A` groups the tuples of a relation by their value on
//! attribute `A`; a *stripped* partition `Π̂_A` drops singleton clusters,
//! which can neither produce a non-FD nor distinguish candidate FDs. The
//! partition *product* `Π_X · Π_Y = Π_{X∪Y}` is the work-horse of Tane's
//! validation step, and cluster lists drive the samplers of EulerFD, AID-FD,
//! and HyFD.
//!
//! # Representation
//!
//! Partitions are stored in flat CSR (compressed-sparse-row) form: one
//! contiguous `rows` buffer holding every covered row id, plus an `offsets`
//! array with `n_clusters + 1` entries delimiting the clusters. Compared to
//! the nested `Vec<Vec<RowId>>` layout this removes one heap allocation per
//! cluster, makes cluster iteration a pointer walk over one cache-resident
//! buffer, and turns `covered_rows` (and with it the error measure `e(Π)`)
//! into an O(1) field read — the product maintains it incrementally simply
//! by pushing rows, with no second pass over the result.
//!
//! Every `Partition` is kept in **canonical form**: clusters ordered by
//! their first (smallest) row, rows ascending inside each cluster. The
//! constructors establish this by construction — no defensive re-sorting on
//! the hot path — and it is what makes partitions for the same attribute set
//! bit-identical regardless of the product order that produced them, which
//! the PLI cache (see [`crate::pli_cache`]) relies on.

use crate::relation::{Relation, RowId};
use fd_core::budget::POLL_STRIDE;
use fd_core::{AttrId, Budget, FastHashSet, Termination};

/// A (possibly stripped) partition in flat CSR form: `rows` holds the
/// covered row ids cluster by cluster, `offsets[i]..offsets[i+1]` delimits
/// cluster `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    rows: Vec<RowId>,
    /// `n_clusters + 1` cluster boundaries into `rows`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Number of rows of the underlying relation (needed by the error
    /// measure because stripped singletons are not stored).
    n_rows: usize,
}

impl Partition {
    /// The full partition of `relation` on attribute `a`, with clusters in
    /// first-occurrence order and rows ascending inside each cluster.
    ///
    /// Dictionary labels are *usually* already assigned in first-occurrence
    /// order (the CSV reader and `Relation::reencode` guarantee it), in
    /// which case the rank remap below is the identity. Callers that encode
    /// columns themselves ([`Relation::from_encoded_columns`]) may violate
    /// it, so the remap — an O(n + distinct) pass, replacing the old
    /// O(k log k) defensive cluster sort — restores first-occurrence order
    /// unconditionally; a `debug_assert!` checks the canonical invariant on
    /// the way out.
    pub fn of_column(relation: &Relation, a: AttrId) -> Partition {
        let col = relation.column(a);
        let distinct = relation.n_distinct(a);
        // Rank labels by first occurrence (identity for densified columns).
        let mut rank: Vec<u32> = vec![u32::MAX; distinct];
        let mut counts: Vec<u32> = vec![0; distinct];
        let mut next = 0u32;
        for &label in col {
            let r = &mut rank[label as usize];
            if *r == u32::MAX {
                *r = next;
                next += 1;
            }
            counts[*r as usize] += 1;
        }
        // Prefix-sum the counts into offsets, then place rows with a
        // counting sort. Scanning tuples in ascending order leaves rows
        // ascending inside each cluster automatically.
        let n_clusters = next as usize;
        let mut offsets: Vec<u32> = Vec::with_capacity(n_clusters + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts[..n_clusters] {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..n_clusters].to_vec();
        let mut rows: Vec<RowId> = vec![0; col.len()];
        for (t, &label) in col.iter().enumerate() {
            let r = rank[label as usize] as usize;
            rows[cursor[r] as usize] = t as RowId;
            cursor[r] += 1;
        }
        let p = Partition { rows, offsets, n_rows: relation.n_rows() };
        debug_assert!(p.is_canonical(), "of_column produced a non-canonical partition");
        p
    }

    /// The stripped partition: singleton clusters removed (Definition 7).
    /// Compacts the CSR buffers in place — no per-cluster allocation.
    pub fn stripped(mut self) -> Partition {
        let mut write = 0usize;
        let mut kept = 1usize; // offsets[0] stays 0
        for i in 0..self.n_clusters() {
            let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            if end - start > 1 {
                self.rows.copy_within(start..end, write);
                write += end - start;
                self.offsets[kept] = write as u32;
                kept += 1;
            }
        }
        self.rows.truncate(write);
        self.offsets.truncate(kept);
        self
    }

    /// Builds directly from nested cluster lists (tests and samplers).
    /// The clusters must already be canonical: ordered by first row, rows
    /// ascending within each cluster.
    pub fn from_clusters(clusters: Vec<Vec<RowId>>, n_rows: usize) -> Partition {
        let covered = clusters.iter().map(|c| c.len()).sum();
        let mut rows = Vec::with_capacity(covered);
        let mut offsets = Vec::with_capacity(clusters.len() + 1);
        offsets.push(0);
        for cluster in &clusters {
            rows.extend_from_slice(cluster);
            offsets.push(rows.len() as u32);
        }
        let p = Partition { rows, offsets, n_rows };
        debug_assert!(p.is_canonical(), "from_clusters requires canonical cluster order");
        p
    }

    /// The empty partition over a relation with `n_rows` total rows: no
    /// clusters, offsets fence `[0]`. This is the canonical degenerate form
    /// every constructor produces when nothing is covered — exposed so
    /// callers that *know* the result is empty (e.g. a delta that deletes
    /// every row) can state it directly instead of remapping into it.
    pub fn empty(n_rows: usize) -> Partition {
        Partition { rows: Vec::new(), offsets: vec![0], n_rows }
    }

    /// Iterates the clusters as row-id slices, in canonical order.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[RowId]> + Clone + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// The `i`-th cluster.
    pub fn cluster(&self, i: usize) -> &[RowId] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Copies the clusters into nested vectors (test/oracle convenience).
    pub fn to_nested(&self) -> Vec<Vec<RowId>> {
        self.clusters().map(<[RowId]>::to_vec).collect()
    }

    /// Number of clusters stored.
    pub fn n_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total rows covered by stored clusters. O(1) in the CSR layout.
    pub fn covered_rows(&self) -> usize {
        self.rows.len()
    }

    /// Tane's integer error numerator `covered − #clusters`: the minimum
    /// number of rows to remove for the partition to become a key. O(1).
    pub fn error_num(&self) -> usize {
        self.rows.len() - self.n_clusters()
    }

    /// Tane's error measure `e(Π) = (covered − #clusters) / n`.
    /// `Π_X` refines `Π_{X∪{A}}` exactly when their errors coincide.
    pub fn error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.error_num() as f64 / self.n_rows as f64
    }

    /// True when clusters are ordered by first row with rows ascending
    /// inside each cluster (the canonical form every constructor upholds).
    pub fn is_canonical(&self) -> bool {
        let mut prev_first = None;
        for cluster in self.clusters() {
            if cluster.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            let first = cluster.first().copied();
            if first.is_none() || prev_first >= first {
                return false;
            }
            prev_first = first;
        }
        true
    }

    /// The product `self · other` (stripped): clusters of rows that are
    /// together in both partitions.
    pub fn product(&self, other: &Partition) -> Partition {
        self.product_with(other, &mut ProductScratch::default())
    }

    /// [`Partition::product`] with caller-owned scratch space. Tane's
    /// level-wise generation computes products in a tight nested loop;
    /// reusing the probe buffers across calls keeps every allocation out of
    /// that loop (steady-state the product allocates only the result).
    pub fn product_with(&self, other: &Partition, scratch: &mut ProductScratch) -> Partition {
        match self.product_impl(other, scratch, None) {
            Ok(p) => p,
            // Unreachable: product_impl only errs when polling a budget.
            Err(_) => unreachable!("unbudgeted product cannot trip"),
        }
    }

    /// [`Partition::product_with`] polling `budget` every [`POLL_STRIDE`]
    /// probe clusters. On a trip the scratch space is restored to its
    /// reusable state (sentinels re-armed) before the error returns, so the
    /// caller may keep using it.
    pub fn product_with_budget(
        &self,
        other: &Partition,
        scratch: &mut ProductScratch,
        budget: &Budget,
    ) -> Result<Partition, Termination> {
        self.product_impl(other, scratch, Some(budget))
    }

    /// Shared body of the two product entry points: the allocation-free
    /// probe algorithm over stripped inputs.
    ///
    /// Pass 1 marks every row covered by `self` with its cluster index in a
    /// flat `owner` table (`u32::MAX` = uncovered). Pass 2 walks `other`'s
    /// clusters and splits each by owner into pooled buckets; groups of two
    /// or more rows become result clusters. Because `other`'s rows ascend
    /// within a cluster, each bucket's rows ascend too, and buckets emit in
    /// first-occurrence order — the result is then canonicalised by a
    /// cluster-level permutation (usually a no-op, checked in O(k)).
    fn product_impl(
        &self,
        other: &Partition,
        scratch: &mut ProductScratch,
        budget: Option<&Budget>,
    ) -> Result<Partition, Termination> {
        debug_assert_eq!(self.n_rows, other.n_rows);
        // Chaos hook: a forced budget trip cancels the token up front, so
        // the normal poll below observes it — exercising the exact trip
        // path (scratch restore included) without waiting out a deadline.
        if fd_faults::inject!("partition.product") == Some(fd_faults::Injected::BudgetTrip) {
            if let Some(b) = budget {
                b.token().cancel_with(Termination::DeadlineExceeded);
            }
        }
        let ProductScratch { owner, bucket_of, touched, buckets } = scratch;
        if owner.len() < self.n_rows {
            owner.resize(self.n_rows, u32::MAX);
        }
        if bucket_of.len() < self.n_clusters() {
            bucket_of.resize(self.n_clusters(), u32::MAX);
        }
        for (i, cluster) in self.clusters().enumerate() {
            for &t in cluster {
                owner[t as usize] = i as u32;
            }
        }
        let mut rows: Vec<RowId> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut stride = 0u32;
        let mut tripped = None;
        for cluster in other.clusters() {
            stride += 1;
            if stride == POLL_STRIDE {
                stride = 0;
                if let Some(t) = budget.and_then(Budget::poll_time) {
                    tripped = Some(t);
                    break;
                }
            }
            // Split this probe cluster by `self`-owner.
            for &t in cluster {
                let o = owner[t as usize];
                if o == u32::MAX {
                    continue;
                }
                let b = bucket_of[o as usize];
                let bucket = if b == u32::MAX {
                    let b = touched.len();
                    bucket_of[o as usize] = b as u32;
                    touched.push(o);
                    if buckets.len() == b {
                        buckets.push(Vec::new());
                    }
                    &mut buckets[b]
                } else {
                    &mut buckets[b as usize]
                };
                bucket.push(t);
            }
            // Emit groups of ≥2 rows; re-arm the sentinels for the next
            // probe cluster while draining.
            for (b, &o) in touched.iter().enumerate() {
                bucket_of[o as usize] = u32::MAX;
                let bucket = &mut buckets[b];
                if bucket.len() > 1 {
                    rows.extend_from_slice(bucket);
                    offsets.push(rows.len() as u32);
                }
                bucket.clear();
            }
            touched.clear();
        }
        // Reset the owner table by walking only the rows we marked.
        for &t in &self.rows {
            owner[t as usize] = u32::MAX;
        }
        if let Some(t) = tripped {
            return Err(t);
        }
        let mut out = Partition { rows, offsets, n_rows: self.n_rows };
        out.canonicalize_cluster_order();
        debug_assert!(out.is_canonical());
        Ok(out)
    }

    /// Restores canonical cluster order (sorted by first row) via a
    /// cluster-level permutation. Rows inside clusters are already
    /// ascending; the already-sorted fast path is an O(k) scan.
    fn canonicalize_cluster_order(&mut self) {
        let k = self.n_clusters();
        let sorted = (1..k).all(|i| {
            self.rows[self.offsets[i - 1] as usize] < self.rows[self.offsets[i] as usize]
        });
        if sorted {
            return;
        }
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&i| self.rows[self.offsets[i as usize] as usize]);
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0);
        for &i in &order {
            rows.extend_from_slice(self.cluster(i as usize));
            offsets.push(rows.len() as u32);
        }
        self.rows = rows;
        self.offsets = offsets;
    }

    /// The partition induced on the relation that remains after deleting
    /// rows: `remap[t]` gives each old row's new id (`u32::MAX` = deleted,
    /// see [`crate::RowDelta::row_remap`]). Deleted rows drop out of their
    /// clusters, clusters shrinking below two rows are stripped, and the
    /// result is re-canonicalised (a cluster whose first row died may sort
    /// differently). Because deleting rows *exactly* induces the partition
    /// of the surviving sub-relation, this is a lossless patch for any
    /// attribute set — single columns and derived products alike.
    ///
    /// # Panics
    /// Panics if `remap` is shorter than this partition's row ids require.
    pub fn remap_rows(&self, remap: &[u32], new_n_rows: usize) -> Partition {
        let mut rows: Vec<RowId> = Vec::with_capacity(self.rows.len());
        let mut offsets: Vec<u32> = vec![0];
        for cluster in self.clusters() {
            let start = rows.len();
            rows.extend(cluster.iter().filter_map(|&t| {
                let v = remap[t as usize];
                (v != u32::MAX).then_some(v)
            }));
            if rows.len() - start > 1 {
                offsets.push(rows.len() as u32);
            } else {
                rows.truncate(start);
            }
        }
        let mut out = Partition { rows, offsets, n_rows: new_n_rows };
        out.canonicalize_cluster_order();
        debug_assert!(out.is_canonical());
        out
    }

    /// The same clusters reinterpreted over a relation with `n_rows` total
    /// rows — used after an insert batch whose rows joined no stored
    /// cluster, where only the error denominator changes.
    pub fn with_total_rows(&self, n_rows: usize) -> Partition {
        Partition { rows: self.rows.clone(), offsets: self.offsets.clone(), n_rows }
    }

    /// True if every cluster of `self` is contained in some cluster of
    /// `other` — i.e. `self` refines `other`. With `self = Π̂_X` and
    /// `other = Π_A` this decides `X → A` (used as a test oracle).
    pub fn refines(&self, other: &Partition) -> bool {
        let mut owner: Vec<u32> = vec![u32::MAX; self.n_rows];
        for (i, cluster) in other.clusters().enumerate() {
            for &t in cluster {
                owner[t as usize] = i as u32;
            }
        }
        for cluster in self.clusters() {
            let mut it = cluster.iter();
            let first = match it.next() {
                Some(&t) => owner[t as usize],
                None => continue,
            };
            for &t in it {
                if owner[t as usize] != first {
                    return false;
                }
            }
        }
        true
    }
}

/// Reusable buffers for [`Partition::product_with`]: the flat row→cluster
/// probe table (`u32::MAX` = uncovered), the per-probe-cluster bucket index,
/// the list of touched owners, and the pooled group buffers. All sentinels
/// are re-armed before each call returns, so one scratch serves any sequence
/// of products over relations of any (growing) size.
#[derive(Default)]
pub struct ProductScratch {
    owner: Vec<u32>,
    bucket_of: Vec<u32>,
    touched: Vec<u32>,
    buckets: Vec<Vec<RowId>>,
}

/// The cluster population the samplers draw from: every cluster of every
/// attribute's stripped partition, deduplicated by content (identical
/// clusters recur across correlated columns and would be sampled repeatedly
/// for no new information).
pub fn sampling_clusters(relation: &Relation) -> Vec<Vec<RowId>> {
    sampling_clusters_parallel(relation, 1)
}

/// [`sampling_clusters`] with the per-attribute partitioning pass fanned out
/// over [`fd_core::parallel::map_ordered`], one item per attribute. The
/// worker count is chosen by the adaptive policy
/// [`fd_core::parallel::decide`] — small relations run inline. The stripped
/// partitions come back in attribute order and deduplication runs
/// sequentially over them, so the result is identical for every thread
/// count.
pub fn sampling_clusters_parallel(relation: &Relation, threads: usize) -> Vec<Vec<RowId>> {
    let n_attrs = relation.n_attrs();
    // Cost hint (per-item, u32-compare-equivalent units): one partitioning
    // pass touches every row of the column, so `n_rows` per attribute.
    let workers = fd_core::parallel::decide_at(
        "parallel.workers.sampling_clusters",
        n_attrs,
        relation.n_rows() as u64,
        threads,
    );
    let mut stripped = Vec::with_capacity(n_attrs);
    fd_core::parallel::map_ordered(
        "sampling_clusters",
        workers,
        0..n_attrs as AttrId,
        |a| Partition::of_column(relation, a).stripped(),
        |partition| stripped.push(partition),
    );
    dedup_clusters(stripped.iter())
}

/// Deduplicates the clusters of the given stripped partitions by content,
/// preserving first-encounter order.
pub(crate) fn dedup_clusters<'a>(
    partitions: impl Iterator<Item = &'a Partition>,
) -> Vec<Vec<RowId>> {
    let mut seen: FastHashSet<Vec<RowId>> = FastHashSet::default();
    let mut out = Vec::new();
    for partition in partitions {
        for cluster in partition.clusters() {
            if !seen.contains(cluster) {
                let owned = cluster.to_vec();
                seen.insert(owned.clone());
                out.push(owned);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::patient;
    use fd_core::AttrSet;

    #[test]
    fn example_5_partitions() {
        let r = patient();
        // Π_Age = {{t1},{t2,t5,t7},{t3},{t4,t6},{t8},{t9}} (Example 5).
        let age = Partition::of_column(&r, 1);
        assert_eq!(age.n_clusters(), 6);
        let age_clusters = age.to_nested();
        assert!(age_clusters.contains(&vec![1, 4, 6]));
        assert!(age_clusters.contains(&vec![3, 5]));
        // Π_Gender = {{t1,t3..t7 minus t2}, {t2,t8}, {t9}}.
        let gender = Partition::of_column(&r, 3);
        assert_eq!(gender.n_clusters(), 3);
        assert!(gender.to_nested().contains(&vec![0, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn example_6_stripped_partitions() {
        let r = patient();
        let age = Partition::of_column(&r, 1).stripped();
        assert_eq!(age.to_nested(), vec![vec![1, 4, 6], vec![3, 5]]);
        let gender = Partition::of_column(&r, 3).stripped();
        assert_eq!(gender.to_nested(), vec![vec![0, 2, 3, 4, 5, 6], vec![1, 7]]);
        // Name is a key: its stripped partition is empty.
        let name = Partition::of_column(&r, 0).stripped();
        assert_eq!(name.n_clusters(), 0);
        assert_eq!(name.covered_rows(), 0);
    }

    #[test]
    fn of_column_handles_non_first_occurrence_labels() {
        // `from_encoded_columns` does not densify: labels 3,2,1,0 are in
        // reverse first-occurrence order. The rank remap must restore
        // canonical order without the old defensive sort.
        let r = Relation::from_encoded_columns(
            "rev",
            vec!["x".into()],
            vec![vec![3, 2, 1, 0, 3, 1]],
        );
        let p = Partition::of_column(&r, 0);
        assert!(p.is_canonical());
        assert_eq!(p.to_nested(), vec![vec![0, 4], vec![1], vec![2, 5], vec![3]]);
    }

    #[test]
    fn product_computes_joint_partition() {
        let r = patient();
        // Π̂_{Age,Gender}: rows agreeing on both Age and Gender.
        let age = Partition::of_column(&r, 1).stripped();
        let gender = Partition::of_column(&r, 3).stripped();
        let joint = age.product(&gender);
        // Rows 1,4,6 share Age=32; genders are M,F,F → cluster {4,6}.
        // Rows 3,5 share Age=49, both Female → {3,5}.
        assert_eq!(joint.to_nested(), vec![vec![3, 5], vec![4, 6]]);
        // Product is commutative on cluster content.
        let joint2 = gender.product(&age);
        assert_eq!(joint.to_nested(), joint2.to_nested());
    }

    #[test]
    fn product_matches_direct_grouping() {
        let r = patient();
        let mut scratch = ProductScratch::default();
        for a in 0..r.n_attrs() as u16 {
            for b in 0..r.n_attrs() as u16 {
                let pa = Partition::of_column(&r, a).stripped();
                let pb = Partition::of_column(&r, b).stripped();
                let prod = pa.product_with(&pb, &mut scratch);
                // Oracle: group rows by the (label_a, label_b) pair.
                let mut groups: std::collections::BTreeMap<(u32, u32), Vec<RowId>> =
                    Default::default();
                for t in 0..r.n_rows() as u32 {
                    groups.entry((r.label(t, a), r.label(t, b))).or_default().push(t);
                }
                let mut expect: Vec<Vec<RowId>> =
                    groups.into_values().filter(|c| c.len() > 1).collect();
                expect.sort_by_key(|c| c[0]);
                assert_eq!(prod.to_nested(), expect, "attrs {a},{b}");
                // Incremental error bookkeeping agrees with the oracle.
                let covered: usize = expect.iter().map(Vec::len).sum();
                assert_eq!(prod.covered_rows(), covered);
                assert_eq!(prod.error_num(), covered - expect.len());
            }
        }
    }

    #[test]
    fn budgeted_product_matches_unbudgeted_and_trips_cleanly() {
        let r = patient();
        let mut scratch = ProductScratch::default();
        let pa = Partition::of_column(&r, 1).stripped();
        let pb = Partition::of_column(&r, 3).stripped();
        let unlimited = Budget::unlimited();
        let budgeted = pa
            .product_with_budget(&pb, &mut scratch, &unlimited)
            .expect("unlimited budget cannot trip");
        assert_eq!(budgeted, pa.product(&pb));
        // A pre-cancelled budget trips; the scratch stays usable.
        let cancelled = Budget::unlimited();
        cancelled.token().cancel();
        // Need ≥ POLL_STRIDE probe clusters to reach a poll point: build a
        // relation whose second column has many non-singleton clusters.
        let n = 4 * POLL_STRIDE as usize;
        let col_a: Vec<u32> = (0..n as u32).map(|t| t / 2).collect();
        let col_b: Vec<u32> = (0..n as u32).map(|t| t % (n as u32 / 2)).collect();
        let big = Relation::from_encoded_columns(
            "big",
            vec!["a".into(), "b".into()],
            vec![col_a, col_b],
        );
        let ba = Partition::of_column(&big, 0).stripped();
        let bb = Partition::of_column(&big, 1).stripped();
        assert!(ba.product_with_budget(&bb, &mut scratch, &cancelled).is_err());
        // Scratch sentinels were restored: the next product is correct.
        let after = ba.product_with_budget(&bb, &mut scratch, &unlimited).expect("clean run");
        assert_eq!(after, ba.product(&bb));
    }

    #[test]
    fn refinement_decides_fds() {
        let r = patient();
        // AB → M holds: Π̂_{A,B} refines Π_M.
        let ab = Partition::of_column(&r, 1)
            .stripped()
            .product(&Partition::of_column(&r, 2).stripped());
        assert!(ab.refines(&Partition::of_column(&r, 4)));
        // G ↛ M: Π̂_G does not refine Π_M.
        let g = Partition::of_column(&r, 3).stripped();
        assert!(!g.refines(&Partition::of_column(&r, 4)));
        // Consistency with the hash-based verifier.
        assert_eq!(
            ab.refines(&Partition::of_column(&r, 4)),
            r.fd_holds(&AttrSet::from_attrs([1u16, 2]), 4)
        );
    }

    #[test]
    fn error_measure() {
        let p = Partition::from_clusters(vec![vec![0, 1, 2], vec![3, 4]], 6);
        // covered = 5, clusters = 2 → e = 3/6.
        assert_eq!(p.error_num(), 3);
        assert!((p.error() - 0.5).abs() < 1e-12);
        let key = Partition::from_clusters(vec![], 6);
        assert_eq!(key.error(), 0.0);
        assert_eq!(key.error_num(), 0);
    }

    #[test]
    fn remap_rows_matches_partition_of_the_surviving_relation() {
        let r = patient();
        let mut mutated = r.clone();
        let delta = mutated.apply_delta(&[], &[1, 4, 8]);
        let remap = delta.row_remap();
        for a in 0..r.n_attrs() as AttrId {
            for b in 0..r.n_attrs() as AttrId {
                // Patch an old derived partition and compare with the one
                // computed fresh on the surviving relation.
                let old = Partition::of_column(&r, a)
                    .stripped()
                    .product(&Partition::of_column(&r, b).stripped());
                let patched = old.remap_rows(&remap, mutated.n_rows());
                let fresh = Partition::of_column(&mutated, a)
                    .stripped()
                    .product(&Partition::of_column(&mutated, b).stripped());
                assert_eq!(patched, fresh, "attrs {a},{b}");
            }
        }
    }

    #[test]
    fn with_total_rows_only_rescales_the_error() {
        let p = Partition::from_clusters(vec![vec![0, 1, 2]], 4);
        let grown = p.with_total_rows(8);
        assert_eq!(grown.to_nested(), p.to_nested());
        assert_eq!(grown.n_rows(), 8);
        assert_eq!(grown.error_num(), p.error_num());
        assert!((grown.error() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_clusters_dedupe_identical_content() {
        // Two perfectly correlated columns produce identical clusters.
        let r = Relation::from_encoded_columns(
            "c",
            vec!["x".into(), "y".into(), "z".into()],
            vec![vec![0, 0, 1, 1], vec![0, 0, 1, 1], vec![0, 1, 2, 3]],
        );
        let clusters = sampling_clusters(&r);
        assert_eq!(clusters.len(), 2); // {0,1} and {2,3}, each only once
    }

    #[test]
    fn parallel_sampling_clusters_engage_and_match_sequential() {
        // 16 attributes × 10k rows is enough work for `decide` to hand out
        // more than one worker, so the fan-out path really runs.
        let r = crate::synth::dataset_spec("lineitem").unwrap().generate(10_000);
        let sequential = sampling_clusters(&r);
        for threads in [2, 4, 8] {
            assert!(fd_core::parallel::decide(r.n_attrs(), r.n_rows() as u64, threads) > 1);
            assert_eq!(sampling_clusters_parallel(&r, threads), sequential, "threads={threads}");
        }
    }
}
