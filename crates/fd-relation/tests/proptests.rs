//! Property tests for the data substrate: partition algebra, CSV
//! round-trips, relation invariants, and agree-set consistency.

use fd_core::{AgreeSetTable, AttrId, AttrSet, MAX_ATTRS};
use fd_relation::{
    agree_of_rows, packed_agree_of_rows, read_csv, read_csv_rows, read_csv_with_dictionaries,
    read_csv_with_report, sampling_clusters, sampling_clusters_cached, sampling_clusters_parallel,
    synth, write_csv, CsvOptions, MemoryPressure, Partition, PliCache, RaggedPolicy, Relation,
    RelationBuilder, RowAction, RowId, RowMajor,
};
use proptest::prelude::*;

/// Random dense-labeled relations (up to 5 columns × 40 rows).
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (1usize..=5, 1usize..=40).prop_flat_map(|(cols, rows)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..5, rows..=rows),
            cols..=cols,
        )
        .prop_map(move |columns| {
            let columns = columns
                .into_iter()
                .map(|col| {
                    let mut map = std::collections::HashMap::new();
                    col.into_iter()
                        .map(|v| {
                            let next = map.len() as u32;
                            *map.entry(v).or_insert(next)
                        })
                        .collect::<Vec<u32>>()
                })
                .collect::<Vec<_>>();
            let names = (0..columns.len()).map(|i| format!("c{i}")).collect();
            Relation::from_encoded_columns("prop", names, columns)
        })
    })
}

/// Oracle partition: group rows by label directly.
fn oracle_partition(r: &Relation, a: AttrId) -> Vec<Vec<u32>> {
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for t in 0..r.n_rows() as u32 {
        groups.entry(r.label(t, a)).or_default().push(t);
    }
    let mut clusters: Vec<Vec<u32>> = groups.into_values().collect();
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// The legacy nested-vec partition representation, with the exact product
/// and stripping algorithms the CSR engine replaced. Serves as the semantic
/// oracle for the flat representation.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LegacyPartition {
    clusters: Vec<Vec<RowId>>,
    n_rows: usize,
}

impl LegacyPartition {
    fn of_column(r: &Relation, a: AttrId) -> LegacyPartition {
        let mut clusters = oracle_partition(r, a);
        clusters.sort_by_key(|c| c.first().copied().unwrap_or(u32::MAX));
        LegacyPartition { clusters, n_rows: r.n_rows() }
    }

    fn stripped(mut self) -> LegacyPartition {
        self.clusters.retain(|c| c.len() > 1);
        self
    }

    fn covered_rows(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    fn error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.covered_rows() - self.clusters.len()) as f64 / self.n_rows as f64
    }

    /// The old two-pass hash-probe product.
    fn product(&self, other: &LegacyPartition) -> LegacyPartition {
        let mut owner: std::collections::HashMap<RowId, u32> = Default::default();
        for (i, cluster) in self.clusters.iter().enumerate() {
            for &t in cluster {
                owner.insert(t, i as u32);
            }
        }
        let mut out: Vec<Vec<RowId>> = Vec::new();
        for cluster in &other.clusters {
            let mut groups: std::collections::HashMap<u32, Vec<RowId>> = Default::default();
            for &t in cluster {
                if let Some(&o) = owner.get(&t) {
                    groups.entry(o).or_default().push(t);
                }
            }
            for (_, mut rows) in groups {
                if rows.len() > 1 {
                    rows.sort_unstable();
                    out.push(rows);
                }
            }
        }
        out.sort_by_key(|c| c.first().copied().unwrap_or(u32::MAX));
        LegacyPartition { clusters: out, n_rows: self.n_rows }
    }
}

proptest! {
    /// Partitions group exactly the rows with equal labels.
    #[test]
    fn partition_matches_direct_grouping(r in relation_strategy()) {
        for a in 0..r.n_attrs() as AttrId {
            let p = Partition::of_column(&r, a);
            prop_assert_eq!(p.to_nested(), oracle_partition(&r, a));
            let stripped = p.stripped();
            prop_assert!(stripped.clusters().all(|c| c.len() > 1));
        }
    }

    /// The CSR engine is semantically equal to the legacy nested-vec
    /// implementation it replaced: construction, stripping, products, the
    /// error measure, and cluster iteration all agree.
    #[test]
    fn csr_partitions_match_legacy_nested_vec(r in relation_strategy()) {
        for a in 0..r.n_attrs() as AttrId {
            let csr = Partition::of_column(&r, a);
            let legacy = LegacyPartition::of_column(&r, a);
            prop_assert_eq!(csr.to_nested(), legacy.clusters.clone());
            let (csr, legacy) = (csr.stripped(), legacy.stripped());
            prop_assert_eq!(csr.to_nested(), legacy.clusters.clone());
            prop_assert_eq!(csr.covered_rows(), legacy.covered_rows());
            prop_assert!((csr.error() - legacy.error()).abs() < 1e-15);
            // Cluster-by-cluster iteration visits the same slices.
            for (i, (cs, ls)) in csr.clusters().zip(&legacy.clusters).enumerate() {
                prop_assert_eq!(cs, &ls[..], "cluster {}", i);
                prop_assert_eq!(csr.cluster(i), &ls[..]);
            }
            for b in 0..r.n_attrs() as AttrId {
                let csr_prod = csr.product(&Partition::of_column(&r, b).stripped());
                let legacy_prod = legacy.product(&LegacyPartition::of_column(&r, b).stripped());
                prop_assert_eq!(csr_prod.to_nested(), legacy_prod.clusters.clone());
                prop_assert_eq!(csr_prod.covered_rows(), legacy_prod.covered_rows());
                prop_assert!((csr_prod.error() - legacy_prod.error()).abs() < 1e-15);
            }
        }
    }

    /// `Π_X · Π_Y = Π_{X∪Y}`: the product groups rows agreeing on both
    /// attributes, and it is commutative and idempotent.
    #[test]
    fn partition_product_laws(r in relation_strategy()) {
        if r.n_attrs() < 2 {
            return Ok(());
        }
        let pa = Partition::of_column(&r, 0).stripped();
        let pb = Partition::of_column(&r, 1).stripped();
        let ab = pa.product(&pb);
        let ba = pb.product(&pa);
        prop_assert_eq!(&ab, &ba);
        // Idempotence: Π·Π = Π for stripped partitions.
        let aa = pa.product(&pa);
        prop_assert_eq!(&aa, &pa);
        // Oracle: group by the label pair.
        let mut groups: std::collections::BTreeMap<(u32, u32), Vec<u32>> = Default::default();
        for t in 0..r.n_rows() as u32 {
            groups.entry((r.label(t, 0), r.label(t, 1))).or_default().push(t);
        }
        let mut expect: Vec<Vec<u32>> = groups.into_values().filter(|c| c.len() > 1).collect();
        expect.sort_by_key(|c| c[0]);
        prop_assert_eq!(ab.to_nested(), expect);
    }

    /// A budgeted product under an unlimited budget is byte-identical to the
    /// plain product (the poll points change nothing but cancellability).
    #[test]
    fn budgeted_product_matches_plain(r in relation_strategy()) {
        if r.n_attrs() < 2 {
            return Ok(());
        }
        let budget = fd_core::Budget::unlimited();
        let mut scratch = fd_relation::ProductScratch::default();
        let pa = Partition::of_column(&r, 0).stripped();
        let pb = Partition::of_column(&r, 1).stripped();
        let plain = pa.product(&pb);
        let budgeted = pa.product_with_budget(&pb, &mut scratch, &budget);
        prop_assert_eq!(budgeted.as_ref(), Ok(&plain));
    }

    /// Cache-served partitions are bit-identical to fresh computations
    /// under arbitrary access sequences with a budget small enough to force
    /// evictions on nearly every insert — and with memory-pressure signals
    /// shrinking the row budget mid-sequence (0 = none, 1 = moderate,
    /// 2 = critical per access).
    #[test]
    fn pli_cache_is_transparent_under_random_access_and_eviction(
        r in relation_strategy(),
        accesses in proptest::collection::vec(
            proptest::collection::vec(0u16..5, 1..4),
            1..12,
        ),
        pressure in proptest::collection::vec(0u8..3, 1..12),
        budget_rows in 0usize..64,
    ) {
        let mut cache = PliCache::new(budget_rows);
        let mut touched = AttrSet::empty();
        for (i, attrs) in accesses.into_iter().enumerate() {
            let lhs: AttrSet = AttrSet::from_attrs(
                attrs.into_iter().filter(|&a| (a as usize) < r.n_attrs()),
            );
            if lhs.is_empty() {
                continue;
            }
            touched = touched.union(&lhs);
            // Fresh oracle: fold single-attribute partitions in set order.
            let mut it = lhs.iter();
            let first = it.next().expect("non-empty");
            let mut fresh = Partition::of_column(&r, first).stripped();
            for a in it {
                fresh = fresh.product(&Partition::of_column(&r, a).stripped());
            }
            let served = cache.get(&r, &lhs);
            prop_assert_eq!(&*served, &fresh, "attrs {:?}", lhs);
            // A pressure signal between accesses must never change answers,
            // and the budget must only ever shrink.
            let budget_before = cache.row_budget();
            match pressure.get(i % pressure.len()) {
                Some(1) => cache.on_memory_pressure(MemoryPressure::Moderate),
                Some(2) => cache.on_memory_pressure(MemoryPressure::Critical),
                _ => {}
            }
            prop_assert!(
                cache.row_budget() <= budget_before,
                "pressure grew the budget: {} -> {}", budget_before, cache.row_budget()
            );
        }
        // Eviction accounting: every eviction carries exactly one reason tag.
        let stats = cache.stats();
        prop_assert_eq!(
            stats.evictions,
            stats.evictions_row_budget + stats.evictions_entry_cap + stats.evictions_pressure,
            "reason tags must partition the eviction count"
        );
        // Pinned single-attribute partitions are exempt from all three
        // eviction policies: every single materialized as a derivation base
        // must still be resident, however tiny the (possibly pressure-shrunk)
        // row budget — so no reported eviction can have been a pinned single.
        for a in touched.iter() {
            prop_assert!(
                cache.contains(&AttrSet::single(a)),
                "pinned single {{{a}}} was evicted (budget_rows = {budget_rows})"
            );
        }
    }

    /// The cached sampler population equals the uncached one exactly.
    #[test]
    fn cached_sampling_clusters_match_plain(r in relation_strategy()) {
        let mut cache = PliCache::with_default_budget();
        let cached = sampling_clusters_cached(&r, &mut cache);
        prop_assert_eq!(cached, sampling_clusters(&r));
    }

    /// The refinement test decides FDs exactly like the hash verifier.
    #[test]
    fn refinement_agrees_with_fd_holds(r in relation_strategy()) {
        if r.n_attrs() < 2 {
            return Ok(());
        }
        for lhs_attr in 0..r.n_attrs() as AttrId {
            for rhs in 0..r.n_attrs() as AttrId {
                if lhs_attr == rhs {
                    continue;
                }
                let p = Partition::of_column(&r, lhs_attr).stripped();
                let target = Partition::of_column(&r, rhs);
                prop_assert_eq!(
                    p.refines(&target),
                    r.fd_holds(&AttrSet::single(lhs_attr), rhs),
                    "attr {} -> {}", lhs_attr, rhs
                );
            }
        }
    }

    /// Agree sets are symmetric, reflexive on identical rows, and consistent
    /// with per-column labels.
    #[test]
    fn agree_sets_are_consistent(r in relation_strategy()) {
        let n = r.n_rows() as u32;
        if n < 2 {
            return Ok(());
        }
        for t in 0..n.min(8) {
            for u in 0..n.min(8) {
                let a = r.agree_set(t, u);
                prop_assert_eq!(a, r.agree_set(u, t));
                for attr in 0..r.n_attrs() as AttrId {
                    prop_assert_eq!(
                        a.contains(attr),
                        r.label(t, attr) == r.label(u, attr)
                    );
                }
                if t == u {
                    prop_assert_eq!(a.len(), r.n_attrs());
                }
            }
        }
    }

    /// Sampling clusters cover exactly the rows appearing in some non-
    /// singleton equivalence class, with no duplicate cluster content.
    #[test]
    fn sampling_clusters_are_deduped_and_valid(r in relation_strategy()) {
        let clusters = sampling_clusters(&r);
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            prop_assert!(c.len() > 1);
            prop_assert!(seen.insert(c.clone()), "duplicate cluster {c:?}");
            // Every cluster is an equivalence class of some attribute.
            let found = (0..r.n_attrs() as AttrId).any(|a| {
                let label = r.label(c[0], a);
                c.iter().all(|&t| r.label(t, a) == label)
                    && (0..r.n_rows() as u32)
                        .filter(|&t| r.label(t, a) == label)
                        .count() == c.len()
            });
            prop_assert!(found, "cluster {c:?} is no attribute's class");
        }
    }

    /// The row-major mirror is a faithful re-layout: its agree sets match
    /// the column-major computation pairwise, and the batched kernel returns
    /// the same sets in pair order at every thread count.
    #[test]
    fn row_major_agrees_with_column_major(r in relation_strategy()) {
        let n = r.n_rows() as RowId;
        if n < 2 {
            return Ok(());
        }
        let rm = r.row_major();
        prop_assert_eq!(rm.n_rows(), r.n_rows());
        prop_assert_eq!(rm.n_attrs(), r.n_attrs());
        let mut pairs: Vec<(RowId, RowId)> = Vec::new();
        for t in 0..n.min(12) {
            for u in 0..n.min(12) {
                pairs.push((t, u));
            }
        }
        let expect: Vec<AttrSet> = pairs.iter().map(|&(t, u)| r.agree_set(t, u)).collect();
        for (&(t, u), want) in pairs.iter().zip(&expect) {
            prop_assert_eq!(rm.agree_set(t, u), *want, "pair ({}, {})", t, u);
        }
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(rm.agree_sets_batch(&pairs, threads), expect.clone());
        }
    }

    /// The bit-packed kernel is exactly the scalar reference for arbitrary
    /// rows: widths sweep 1..=MAX_ATTRS, so the 4-lane tail meets every
    /// 64-attribute word boundary, with labels drawn from a small
    /// domain so agree bits are dense enough to exercise every lane.
    #[test]
    fn packed_kernel_matches_scalar_reference(
        width in 1usize..=MAX_ATTRS,
        seed in proptest::collection::vec(0u32..4, 2 * MAX_ATTRS..=2 * MAX_ATTRS),
    ) {
        let a = &seed[..width];
        let b = &seed[MAX_ATTRS..MAX_ATTRS + width];
        prop_assert_eq!(packed_agree_of_rows(a, b), agree_of_rows(a, b));
        // Self-comparison: every attribute agrees, all lanes saturate.
        prop_assert_eq!(packed_agree_of_rows(a, a), agree_of_rows(a, a));
        prop_assert_eq!(packed_agree_of_rows(a, a).len(), width);
    }

    /// The parallel cluster population equals the sequential one exactly
    /// (per-attribute partitions are merged and deduped in attribute order).
    #[test]
    fn parallel_sampling_clusters_match_sequential(r in relation_strategy()) {
        let sequential = sampling_clusters(&r);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                sampling_clusters_parallel(&r, threads),
                sequential.clone(),
                "threads={}", threads
            );
        }
    }

    /// head(n) keeps the first n rows and re-densifies labels.
    #[test]
    fn head_preserves_prefix_equality_structure(r in relation_strategy(), n in 1usize..=40) {
        let h = r.head(n);
        let n = n.min(r.n_rows());
        prop_assert_eq!(h.n_rows(), n);
        for a in 0..r.n_attrs() as AttrId {
            // Labels may be renumbered but equality of cells is preserved.
            for t in 0..n as u32 {
                for u in 0..n as u32 {
                    prop_assert_eq!(
                        h.label(t, a) == h.label(u, a),
                        r.label(t, a) == r.label(u, a)
                    );
                }
            }
            // Dense labels: max label + 1 == distinct count.
            let max = (0..n as u32).map(|t| h.label(t, a)).max().unwrap_or(0);
            prop_assert_eq!(h.n_distinct(a), (max + 1) as usize);
        }
    }

    /// CSV round-trips arbitrary field content, including separators,
    /// quotes, and line breaks with or without `\r`.
    #[test]
    fn csv_roundtrip_arbitrary_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[ -~\n\r]{0,12}", 3..=3),
            1..10,
        ),
    ) {
        let header = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.clone().into_iter(), b',').unwrap();
        let relation = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        prop_assert_eq!(relation.n_rows(), rows.len());
        prop_assert_eq!(relation.n_attrs(), 3);
        // Equality structure must match the original strings exactly.
        for a in 0..3u16 {
            for t in 0..rows.len() {
                for u in 0..rows.len() {
                    prop_assert_eq!(
                        relation.label(t as u32, a) == relation.label(u as u32, a),
                        rows[t][a as usize] == rows[u][a as usize],
                        "col {} rows {} vs {}", a, t, u
                    );
                }
            }
        }
    }

    /// Written fields read back verbatim, and the CSV reader encodes exactly
    /// as a [`RelationBuilder`] fed the same strings — label for label,
    /// `n_distinct` included — whatever the fields hold (separators,
    /// quotes, CR/LF, non-ASCII, nothing) and at any width, one column
    /// (where an empty field is written `""`) included; the
    /// dictionary-keeping reader returns the same relation.
    #[test]
    fn csv_reader_matches_builder_label_for_label(
        case in (1usize..=3).prop_flat_map(|width| {
            proptest::collection::vec(
                proptest::collection::vec("[ab ,\"\r\né日𝄞]{0,5}", width..=width),
                1..12,
            )
            .prop_map(move |rows| (width, rows))
        }),
    ) {
        let (width, rows) = case;
        let header: Vec<String> = (0..width).map(|a| format!("c{a}")).collect();
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.clone().into_iter(), b',').unwrap();
        let raw = read_csv_rows(&buf[..], &CsvOptions::default()).unwrap();
        prop_assert_eq!(raw, (header.clone(), rows.clone()));
        let read = read_csv(&buf[..], "t", &CsvOptions::default()).unwrap();
        // Every byte its own read: states and `\r`s carried across refills.
        let trickled = read_csv(OneByteReads(&buf), "t", &CsvOptions::default()).unwrap();
        prop_assert_eq!(&trickled, &read);
        let mut builder = RelationBuilder::new("t", header);
        for row in &rows {
            builder.push_row(row);
        }
        prop_assert_eq!(&read, &builder.finish());
        let (kept, _, _) =
            read_csv_with_dictionaries(&buf[..], "t", &CsvOptions::default()).unwrap();
        prop_assert_eq!(&kept, &read);
    }

    /// Hostile-input fuzz: the parser must never panic on arbitrary bytes —
    /// including invalid UTF-8, unterminated quotes, and ragged shapes —
    /// under any ragged policy. Parsing either succeeds or returns a
    /// structured [`fd_relation::CsvError`].
    #[test]
    fn csv_parser_never_panics_on_arbitrary_bytes(
        data in proptest::collection::vec(0u8..=255u8, 0..200),
        policy in 0u8..3,
    ) {
        let on_ragged = match policy {
            0 => RaggedPolicy::Error,
            1 => RaggedPolicy::Skip,
            _ => RaggedPolicy::Pad,
        };
        let opts = CsvOptions { on_ragged, ..Default::default() };
        if let Ok((relation, report)) = read_csv_with_report(&data[..], "fuzz", &opts) {
            prop_assert_eq!(relation.n_rows(), report.rows_kept);
            prop_assert!(report.rows_kept <= report.rows_read);
        }
    }

    /// Ragged-row diagnostics carry the correct 1-based row numbers and a
    /// consistent kept-row count.
    #[test]
    fn ragged_diagnostics_carry_correct_row_numbers(
        widths in proptest::collection::vec(1usize..6, 1..20),
    ) {
        // A 3-wide header; any data row with a different width is ragged.
        let mut text = String::from("a,b,c\n");
        for w in &widths {
            text.push_str(&vec!["x"; *w].join(","));
            text.push('\n');
        }
        let opts = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (relation, report) = read_csv_with_report(text.as_bytes(), "t", &opts).unwrap();
        // Row numbers count the header as row 1, data from row 2.
        let expect_bad: Vec<usize> = widths
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 3)
            .map(|(i, _)| i + 2)
            .collect();
        prop_assert_eq!(report.rows_read, widths.len());
        prop_assert_eq!(report.rows_kept, widths.len() - expect_bad.len());
        prop_assert_eq!(relation.n_rows(), report.rows_kept);
        let got: Vec<usize> = report.issues.iter().map(|i| i.row).collect();
        prop_assert_eq!(got, expect_bad);
        for issue in &report.issues {
            prop_assert_eq!(issue.action, RowAction::Skipped);
            prop_assert_eq!(issue.expected, 3);
            prop_assert!(issue.found != 3);
        }
    }

    /// Multi-byte UTF-8 content (2-, 3-, and 4-byte sequences) round-trips
    /// through write + parse with the equality structure intact.
    #[test]
    fn csv_roundtrip_non_ascii_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[aé日𝄞,\n\"]{0,8}", 2..=2),
            1..8,
        ),
    ) {
        let header = vec!["naïve".to_string(), "日本".to_string()];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.clone().into_iter(), b',').unwrap();
        let relation = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        prop_assert_eq!(relation.column_names(), &header[..]);
        prop_assert_eq!(relation.n_rows(), rows.len());
        for a in 0..2u16 {
            for t in 0..rows.len() {
                for u in 0..rows.len() {
                    prop_assert_eq!(
                        relation.label(t as u32, a) == relation.label(u as u32, a),
                        rows[t][a as usize] == rows[u][a as usize],
                        "col {} rows {} vs {}", a, t, u
                    );
                }
            }
        }
    }
}

/// A reader that hands out one byte per `read` call.
struct OneByteReads<'a>(&'a [u8]);

impl std::io::Read for OneByteReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A batch large enough that the kernel genuinely spawns workers (the
/// proptest relations above stay below the spawn threshold and run inline).
fn big_batch() -> (Relation, Vec<(RowId, RowId)>) {
    let relation = synth::dataset_spec("abalone").unwrap().generate(12_000);
    let n = relation.n_rows() as RowId;
    let pairs: Vec<(RowId, RowId)> = (0..n - 1).map(|t| (t, t + 1)).chain((0..n / 2).map(|t| (t, n - 1 - t))).collect();
    (relation, pairs)
}

#[test]
fn large_batches_split_across_workers_without_changing_results() {
    let (relation, pairs) = big_batch();
    let rm = relation.row_major();
    let sequential = rm.agree_sets_batch(&pairs, 1);
    assert_eq!(sequential.len(), pairs.len());
    // Odd worker counts exercise ragged chunk splits under work stealing.
    for threads in [2usize, 3, 4, 5, 8] {
        assert_eq!(rm.agree_sets_batch(&pairs, threads), sequential, "threads={threads}");
    }
}

/// `big_batch`'s relation and its row-major mirror, built once.
fn big_relation() -> &'static (Relation, RowMajor) {
    static BIG: std::sync::OnceLock<(Relation, RowMajor)> = std::sync::OnceLock::new();
    BIG.get_or_init(|| {
        let relation = big_batch().0;
        let row_major = relation.row_major();
        (relation, row_major)
    })
}

/// A window step over `big_relation`: `len` scattered rows from `start` on,
/// compared at `window`.
fn scattered_step(start: u32, len: usize, window: usize) -> (Vec<RowId>, usize) {
    let n = big_relation().0.n_rows() as u32;
    ((0..len as u32).map(|k| (start + k * 7_919) % n).collect(), window)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The window kernel against a per-pair oracle: lay every step's pairs
    /// out in order, keep each agree set's first occurrence that `seen` does
    /// not hold. Small steps include 1-row clusters and windows past the end
    /// of their cluster (no pair at all). The two large steps hold at least
    /// 8 971 pairs each, which engages a second worker from two threads on,
    /// and no chunk is then longer than ~3 300 pairs, so each large step is
    /// split across chunks.
    #[test]
    fn window_kernel_matches_per_pair_first_occurrences(
        small in proptest::collection::vec((0u32..12_000, 1usize..=40, 2usize..=45), 0..=60),
        big in proptest::collection::vec((0u32..12_000, 9_000usize..=12_000, 2usize..=30), 2..=2),
        cut in (0usize..=60, 0usize..=60),
        prefill in 0usize..=300,
        threads in 1usize..=8,
    ) {
        let (relation, row_major) = big_relation();
        let mut layout: Vec<(Vec<RowId>, usize)> =
            small.iter().map(|&(start, len, window)| scattered_step(start, len, window)).collect();
        let (first, second) = (cut.0.min(layout.len()), cut.1.min(layout.len()));
        layout.insert(second, scattered_step(big[1].0, big[1].1, big[1].2));
        layout.insert(first, scattered_step(big[0].0, big[0].1, big[0].2));
        let steps: Vec<(&[RowId], usize)> =
            layout.iter().map(|(rows, window)| (rows.as_slice(), *window)).collect();
        let pairs: Vec<(RowId, RowId)> = steps
            .iter()
            .flat_map(|&(rows, window)| {
                rows.windows(window).map(move |w| (w[0], w[window - 1]))
            })
            .collect();
        let mut seen = AgreeSetTable::new();
        for &(t, u) in pairs.iter().take(prefill) {
            seen.insert(relation.agree_set(t, u));
        }
        let mut oracle_seen = seen.clone();
        let oracle: Vec<(usize, AttrSet)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(t, u))| (i, relation.agree_set(t, u)))
            .filter(|&(_, agree)| oracle_seen.insert(agree))
            .collect();

        let (candidates, stats) =
            row_major.novel_window_agree_sets(steps.iter().copied(), &seen, threads);
        prop_assert_eq!(stats.pairs_compared, pairs.len() as u64);
        prop_assert_eq!(stats.candidates, candidates.len() as u64);
        prop_assert_eq!(stats.workers >= 2, threads >= 2, "workers={}", stats.workers);
        // Each set is tagged with the pair that produced it, in pair order.
        prop_assert!(candidates.windows(2).all(|w| w[0].0 < w[1].0));
        for &(pair, agree) in &candidates {
            let (t, u) = pairs[pair];
            prop_assert_eq!(relation.agree_set(t, u), agree);
        }
        if stats.workers == 1 {
            prop_assert_eq!(&candidates, &oracle);
        }
        // A set straddling chunks may appear once per chunk; the sequential
        // fold collapses those to the global first occurrences.
        let mut fold_seen = seen.clone();
        let folded: Vec<(usize, AttrSet)> =
            candidates.into_iter().filter(|&(_, agree)| fold_seen.insert(agree)).collect();
        prop_assert_eq!(folded, oracle);
    }
}

/// A relation plus one insert/delete wave for delta-maintenance tests.
/// Insert labels range over 0..6 so both reused and fresh labels occur.
/// One scenario in eight deletes *every* row, exercising the empty-relation
/// edge where remapped partitions collapse to the `[0]` offsets fence.
fn delta_strategy() -> impl Strategy<Value = (Relation, Vec<Vec<u32>>, Vec<RowId>)> {
    relation_strategy().prop_flat_map(|relation| {
        let cols = relation.n_attrs();
        let rows = relation.n_rows() as u32;
        let deletes = proptest::prop_oneof![
            7 => proptest::collection::vec(0..rows, 0..=6),
            1 => Just((0..rows).collect::<Vec<RowId>>()),
        ];
        (
            Just(relation),
            proptest::collection::vec(
                proptest::collection::vec(0u32..6, cols..=cols),
                0..=4,
            ),
            deletes,
        )
    })
}

/// Fresh (uncached) stripped partition for an attribute set.
fn fresh_partition(r: &Relation, attrs: &AttrSet) -> Partition {
    let mut iter = attrs.iter();
    let first = iter.next().expect("non-empty attribute set");
    let mut p = Partition::of_column(r, first).stripped();
    for a in iter {
        p = p.product(&Partition::of_column(r, a).stripped());
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After `PliCache::apply_delta`, every cached key reads back as the
    /// partition a cold computation on the mutated relation would produce —
    /// surgical eviction plus in-place patching never leaves a stale entry.
    #[test]
    fn pli_cache_stays_transparent_across_deltas(scenario in delta_strategy()) {
        let (relation, inserts, deletes) = scenario;
        let mut cache = PliCache::new(1 << 20);
        let m = relation.n_attrs() as AttrId;
        let mut keys: Vec<AttrSet> = (0..m).map(AttrSet::single).collect();
        for a in 0..m {
            for b in (a + 1)..m {
                keys.push(AttrSet::from_attrs([a, b]));
            }
        }
        if m >= 3 {
            keys.push(AttrSet::from_attrs(0..3));
        }
        for key in &keys {
            cache.get(&relation, key);
        }
        let mut mutated = relation.clone();
        let delta = mutated.apply_delta(&inserts, &deletes);
        cache.apply_delta(&mutated, &delta);
        for key in &keys {
            let got = cache.get(&mutated, key);
            prop_assert_eq!(&*got, &fresh_partition(&mutated, key), "key {:?}", key);
        }
    }
}
