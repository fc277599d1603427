//! Dictionary-encoded relational instances.
//!
//! The preprocessing module of EulerFD (Section IV-B) replaces raw values of
//! every attribute with dense numerical labels — two cells compare equal iff
//! their labels are equal, which is all any FD algorithm ever asks of the
//! data. [`Relation`] stores exactly that encoded form, column-major
//! (`Vec<u32>` per attribute), which is both the paper's Table II
//! representation and the cache-friendly layout for the pairwise row
//! comparisons that dominate discovery time.

use crate::delta::RowDelta;
use crate::dictionary::ColumnDictionaries;
use fd_core::{AgreeSetTable, AttrId, AttrSet, FastHashMap, ATTR_WORDS, MAX_ATTRS};

/// Identifier of a row (tuple) within a relation.
pub type RowId = u32;

/// A dictionary-encoded relational instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    name: String,
    column_names: Vec<String>,
    /// Column-major labels: `columns[a][t]` is the label of tuple `t` on
    /// attribute `a`. Every label is below `n_distinct(a)`; after
    /// [`Relation::apply_delta`] some labels below it may be unused.
    columns: Vec<Vec<u32>>,
    /// Label bound per column: one past the largest label the column has
    /// held (see [`Relation::n_distinct`]).
    distinct: Vec<u32>,
    n_rows: usize,
}

impl Relation {
    /// Builds a relation from encoded columns. Each column must already use
    /// dense labels `0..k`; use [`RelationBuilder`] to encode raw values.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths, if the schema exceeds
    /// [`MAX_ATTRS`] attributes, or if names and columns disagree in count.
    pub fn from_encoded_columns(
        name: impl Into<String>,
        column_names: Vec<String>,
        columns: Vec<Vec<u32>>,
    ) -> Self {
        let distinct = columns
            .iter()
            .map(|c| c.iter().max().map_or(0, |&m| m + 1))
            .collect();
        Relation::from_counted_columns(name.into(), column_names, columns, distinct)
    }

    /// [`Relation::from_encoded_columns`] for columns whose label counts the
    /// encoder already knows: `distinct[a]` is one past the largest label
    /// of column `a`.
    fn from_counted_columns(
        name: String,
        column_names: Vec<String>,
        columns: Vec<Vec<u32>>,
        distinct: Vec<u32>,
    ) -> Self {
        assert_eq!(column_names.len(), columns.len(), "one name per column required");
        assert!(columns.len() <= MAX_ATTRS, "schema exceeds {MAX_ATTRS} attributes");
        let n_rows = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == n_rows),
            "all columns must have the same number of rows"
        );
        assert!(n_rows <= u32::MAX as usize, "row count exceeds u32 range");
        debug_assert!(columns
            .iter()
            .zip(&distinct)
            .all(|(c, &d)| c.iter().max().map_or(0, |&m| m + 1) == d));
        Relation { name, column_names, columns, distinct, n_rows }
    }

    /// Dataset name (used in reports and benchmark tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation (generators use this when deriving variants).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Column (attribute) names, indexed by [`AttrId`].
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of distinct values in column `a`.
    ///
    /// After [`Relation::apply_delta`] this is only an **upper bound** on
    /// the labels present: one past the largest label the column has held
    /// (a delete can remove the last row of a label without compacting the
    /// label space, and never lowers the bound). That bound is exactly what
    /// [`crate::Partition::of_column`] needs for sizing, but it must never
    /// drive semantic decisions — use [`Relation::is_constant`] for those.
    pub fn n_distinct(&self, a: AttrId) -> usize {
        self.distinct[a as usize] as usize
    }

    /// The encoded labels of column `a`.
    #[inline]
    pub fn column(&self, a: AttrId) -> &[u32] {
        &self.columns[a as usize]
    }

    /// The label of tuple `t` on attribute `a`.
    #[inline]
    pub fn label(&self, t: RowId, a: AttrId) -> u32 {
        self.columns[a as usize][t as usize]
    }

    /// The agree set of tuples `t` and `u`: all attributes on which they
    /// share a label. A sampled pair's agree set `S` yields the non-FDs
    /// `S ↛ a` for every `a ∉ S` (Section IV-C).
    pub fn agree_set(&self, t: RowId, u: RowId) -> AttrSet {
        let mut agree = AttrSet::empty();
        for (a, col) in self.columns.iter().enumerate() {
            if col[t as usize] == col[u as usize] {
                agree.insert(a as AttrId);
            }
        }
        agree
    }

    /// Builds the row-major packed mirror of this relation (see
    /// [`RowMajor`]). Costs one pass over the data and doubles the encoded
    /// footprint; pays for itself as soon as tuple pairs are compared in
    /// bulk.
    pub fn row_major(&self) -> RowMajor {
        let width = self.n_attrs();
        let mut data = vec![0u32; width * self.n_rows];
        for (a, col) in self.columns.iter().enumerate() {
            for (t, &label) in col.iter().enumerate() {
                data[t * width + a] = label;
            }
        }
        RowMajor { data, width, n_rows: self.n_rows }
    }

    /// True if the FD `lhs → rhs` holds on the full instance (Definition 1),
    /// verified with a single hash pass over all tuples.
    pub fn fd_holds(&self, lhs: &AttrSet, rhs: AttrId) -> bool {
        let rhs_col = self.column(rhs);
        if lhs.is_empty() {
            // ∅ → A holds iff column A is constant.
            return rhs_col.windows(2).all(|w| w[0] == w[1]);
        }
        // Unpack the LHS onto the stack: `fd_holds` runs in validation tight
        // loops, and a per-call heap Vec shows up there.
        let mut lhs_buf = [0 as AttrId; MAX_ATTRS];
        let mut n_lhs = 0;
        for a in lhs.iter() {
            lhs_buf[n_lhs] = a;
            n_lhs += 1;
        }
        let lhs_attrs = &lhs_buf[..n_lhs];
        let mut seen: FastHashMap<Vec<u32>, u32> = FastHashMap::default();
        seen.reserve(self.n_rows);
        let mut key = Vec::with_capacity(lhs_attrs.len());
        for (t, &rhs_val) in rhs_col.iter().enumerate() {
            key.clear();
            key.extend(lhs_attrs.iter().map(|&a| self.columns[a as usize][t]));
            match seen.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != rhs_val {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rhs_val);
                }
            }
        }
        true
    }

    /// Restricts the relation to its first `n` rows (used by the row
    /// scalability sweeps, Figures 6–7).
    pub fn head(&self, n: usize) -> Relation {
        let n = n.min(self.n_rows);
        let columns = self.columns.iter().map(|c| c[..n].to_vec()).collect();
        let mut r = Relation::from_encoded_columns(
            format!("{}[rows={n}]", self.name),
            self.column_names.clone(),
            columns,
        );
        r.reencode();
        r
    }

    /// Restricts the relation to its first `k` columns (used by the column
    /// scalability sweeps, Figures 8–9).
    pub fn project_prefix(&self, k: usize) -> Relation {
        let k = k.min(self.n_attrs());
        Relation::from_encoded_columns(
            format!("{}[cols={k}]", self.name),
            self.column_names[..k].to_vec(),
            self.columns[..k].to_vec(),
        )
    }

    /// True when column `a` holds at most one distinct value. Unlike
    /// `n_distinct(a) <= 1`, this stays correct on delta-mutated relations,
    /// where `n_distinct` is only an upper bound on the labels present (a
    /// delete can remove the last row of a label without shrinking the
    /// bound). Early-exits on the first disagreeing adjacent pair.
    pub fn is_constant(&self, a: AttrId) -> bool {
        if self.n_distinct(a) <= 1 {
            return true;
        }
        self.column(a).windows(2).all(|w| w[0] == w[1])
    }

    /// Checks that a row delta fits this relation, before anything mutates:
    /// every deleted id names a row, every inserted row has the schema's
    /// width, and every inserted label on column `a` is below
    /// `n_distinct(a) + inserts.len() + FRESH_LABEL_HEADROOM`.
    ///
    /// Labels at or past `n_distinct(a)` name values the column has never
    /// held, and a dictionary hands out at most one per inserted row; the
    /// headroom lets callers that pick fresh labels themselves leave gaps.
    /// The bound keeps every per-label table that a delta or a later
    /// [`crate::Partition::of_column`] sizes by `n_distinct` proportional to
    /// the rows inserted, however large a label the caller sends.
    pub fn check_delta(&self, inserts: &[Vec<u32>], deletes: &[RowId]) -> Result<(), String> {
        if let Some(&bad) = deletes.iter().find(|&&d| d as usize >= self.n_rows) {
            return Err(format!(
                "deleted row id {bad} out of range (dataset has {} rows)",
                self.n_rows
            ));
        }
        for row in inserts {
            if row.len() != self.n_attrs() {
                return Err(format!(
                    "insert row has {} fields, dataset has {}",
                    row.len(),
                    self.n_attrs()
                ));
            }
            for (a, &label) in row.iter().enumerate() {
                let bound =
                    self.distinct[a] as u64 + inserts.len() as u64 + FRESH_LABEL_HEADROOM as u64;
                if label as u64 >= bound {
                    return Err(format!(
                        "inserted label {label} on column {a} is not below {bound} \
                         (the column's label bound plus one per inserted row \
                         plus {FRESH_LABEL_HEADROOM})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Applies one batch of row deletes and inserts in place and describes
    /// the outcome as a [`RowDelta`].
    ///
    /// Deletes go first: surviving rows are compacted to the front of every
    /// column, keeping their relative order. Inserted rows (already encoded
    /// — labels at or past the current `n_distinct` bound denote values
    /// unseen in the base dictionary) are then appended in batch order.
    /// `n_distinct(a)` becomes the label bound `max(n_distinct(a), largest
    /// inserted label + 1)`: deletes never lower it, so a dictionary that
    /// keeps encoding after deletes stays within [`Relation::check_delta`].
    /// It is only an upper bound on the labels present (deletes leave
    /// holes), which is exactly the contract
    /// [`crate::Partition::of_column`] needs. Use [`Relation::is_constant`]
    /// rather than `n_distinct` to test constancy after a delta.
    ///
    /// Costs one pass over each column plus the inserted cells, with no
    /// hashing: the non-fresh masks come from one label flag vector per
    /// column.
    ///
    /// # Panics
    /// Panics if the delta fails [`Relation::check_delta`].
    pub fn apply_delta(&mut self, inserts: &[Vec<u32>], deletes: &[RowId]) -> RowDelta {
        if let Err(e) = self.check_delta(inserts, deletes) {
            panic!("{e}");
        }
        let old_n_rows = self.n_rows;
        let mut deleted: Vec<RowId> = deletes.to_vec();
        deleted.sort_unstable();
        deleted.dedup();
        for col in &mut self.columns {
            compact_rows(col, 1, old_n_rows, &deleted);
        }
        let base_rows = old_n_rows - deleted.len();
        self.n_rows = base_rows + inserts.len();
        assert!(self.n_rows <= u32::MAX as usize, "row count exceeds u32 range");
        // Append inserts, recording per row which labels were already
        // present (in the post-delete base, or on an earlier batch row).
        let mut nonfresh_attrs = vec![AttrSet::empty(); inserts.len()];
        if !inserts.is_empty() {
            let mut present: Vec<bool> = Vec::new();
            let columns = self.columns.iter_mut().zip(&mut self.distinct);
            for (a, (col, distinct)) in columns.enumerate() {
                *distinct = inserts.iter().map(|row| row[a] + 1).fold(*distinct, u32::max);
                present.clear();
                present.resize(*distinct as usize, false);
                for &label in col.iter() {
                    present[label as usize] = true;
                }
                for (row, mask) in inserts.iter().zip(&mut nonfresh_attrs) {
                    let label = row[a];
                    if std::mem::replace(&mut present[label as usize], true) {
                        mask.insert(a as AttrId);
                    }
                    col.push(label);
                }
            }
        }
        RowDelta {
            old_n_rows,
            new_n_rows: self.n_rows,
            inserted: (base_rows as RowId..self.n_rows as RowId).collect(),
            deleted,
            nonfresh_attrs,
        }
    }

    /// Re-encodes every column to dense labels (dropping labels that no
    /// longer occur after a row restriction).
    fn reencode(&mut self) {
        for (col, distinct) in self.columns.iter_mut().zip(self.distinct.iter_mut()) {
            let mut remap: FastHashMap<u32, u32> = FastHashMap::default();
            for v in col.iter_mut() {
                let next = remap.len() as u32;
                let label = *remap.entry(*v).or_insert(next);
                *v = label;
            }
            *distinct = remap.len() as u32;
        }
    }
}

/// Inserted labels may run this far past `n_distinct(a) + inserts.len()`
/// (see [`Relation::check_delta`]).
pub const FRESH_LABEL_HEADROOM: u32 = 1024;

/// Removes the rows `sorted_deletes` (ascending, deduplicated) from a
/// row-ordered buffer of `n_rows` rows of `width` cells, keeping the survivors in
/// order: one `copy_within` per run of surviving rows. The one compaction
/// behind [`Relation::apply_delta`] (`width` 1, per column) and
/// [`RowMajor::apply_delta`], so the two layouts stay row-for-row equal.
fn compact_rows(data: &mut Vec<u32>, width: usize, n_rows: usize, sorted_deletes: &[RowId]) {
    if sorted_deletes.is_empty() {
        return;
    }
    let mut write = 0usize;
    let mut start = 0usize;
    for end in sorted_deletes.iter().map(|&d| d as usize).chain(std::iter::once(n_rows)) {
        data.copy_within(start * width..end * width, write * width);
        write += end - start;
        start = end + 1;
    }
    data.truncate(write * width);
}

/// Per-batch counters of the pair-comparison kernel, derived from the
/// batch and its ordered result after the fan-out returns — workers share
/// no counters on the hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tuple pairs whose agree sets were computed.
    pub pairs_compared: u64,
    /// Agree sets that survived the chunk-side novelty filter (not yet in
    /// the caller's seen-set, first occurrence within their pair chunk).
    pub candidates: u64,
    /// Worker threads that participated (1 = the batch ran inline).
    pub workers: usize,
}

/// A row-major packed mirror of a [`Relation`].
///
/// The column-major master layout is ideal for per-attribute passes
/// (partitioning, verification) but makes `agree_set` a strided gather: one
/// cache line per attribute per tuple. This mirror packs each tuple's labels
/// contiguously (`data[t * width ..][..width]`), so an agree set is a linear
/// scan of two short `u32` slices — the layout the sampling loop, which
/// dominates EulerFD's runtime, actually wants. Batched comparison fans a
/// pair list, or the sampler's window steps, out through
/// [`fd_core::parallel::map_ordered`]; results always come back in pair
/// order, so downstream folds are deterministic for any thread count.
#[derive(Clone, Debug)]
pub struct RowMajor {
    /// `data[t * width + a]` is the label of tuple `t` on attribute `a`.
    data: Vec<u32>,
    width: usize,
    n_rows: usize,
}

impl RowMajor {
    /// Number of attributes per row.
    pub fn n_attrs(&self) -> usize {
        self.width
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The packed labels of tuple `t`.
    #[inline]
    pub fn row(&self, t: RowId) -> &[u32] {
        let start = t as usize * self.width;
        &self.data[start..start + self.width]
    }

    /// Applies a row delta exactly as [`Relation::apply_delta`] does to the
    /// relation this mirrors: the rows `sorted_deletes` (ascending,
    /// deduplicated, in range) are removed with the same compaction, then
    /// `inserts` are appended in batch order. Patching in place keeps a
    /// long-lived mirror current at the cost of one pass over the rows,
    /// where [`Relation::row_major`] would transpose the whole table.
    pub fn apply_delta(&mut self, inserts: &[Vec<u32>], sorted_deletes: &[RowId]) {
        compact_rows(&mut self.data, self.width, self.n_rows, sorted_deletes);
        for row in inserts {
            debug_assert_eq!(row.len(), self.width, "inserted row width mismatch");
            self.data.extend_from_slice(row);
        }
        self.n_rows = self.n_rows - sorted_deletes.len() + inserts.len();
    }

    /// The agree set of tuples `t` and `u`, computed by the bit-packed
    /// word-wide kernel over two contiguous slices. Matches
    /// [`Relation::agree_set`] (and the scalar reference [`agree_of_rows`])
    /// exactly.
    #[inline]
    pub fn agree_set(&self, t: RowId, u: RowId) -> AttrSet {
        packed_agree_of_rows(self.row(t), self.row(u))
    }

    /// Agree sets of every pair in `pairs`, in pair order, computed on up to
    /// `threads` worker threads with work-stealing chunk claiming.
    pub fn agree_sets_batch(&self, pairs: &[(RowId, RowId)], threads: usize) -> Vec<AttrSet> {
        let workers = self.plan_workers(pairs.len(), threads);
        let mut out = Vec::new();
        fd_core::parallel::map_ordered(
            "pair_compare",
            workers,
            fd_core::parallel::chunks(pairs, workers, MIN_PAIRS_PER_CHUNK, |_| 1),
            |chunk| chunk.iter().map(|&(t, u)| self.agree_set(t, u)).collect(),
            |agree| fd_core::parallel::concat_chunk(&mut out, agree),
        );
        out
    }

    /// The comparison kernel of the sampling module. Each step is one
    /// cluster's row list with a window size; position `i` of the step is
    /// the pair `(rows[i], rows[i + window - 1])`, compared where it lies in
    /// the list. The kernel computes the agree set of every position of
    /// every step and keeps only *novel* ones — not present in `seen` (a
    /// read-only snapshot of the caller's dedup set) and not repeated within
    /// the chunk that produced them. Every window is at least 1. Each set
    /// comes tagged with its pair's index in the batch (the steps' positions
    /// back to back), so a caller that packed several steps into one batch
    /// can hand each step its own sets.
    ///
    /// The batch's pair indices are cut into chunks exactly as a list of its
    /// pairs would be ([`fd_core::parallel::ranges`]), so a chunk may end in
    /// the middle of a large step. A chunk works in blocks of 128 pairs: it
    /// first computes the block's agree sets into one reused buffer, then
    /// filters the buffer against `seen` and its own dedup set. The returned
    /// sets preserve pair order (chunks are concatenated in plan order,
    /// never completion order). A set straddling two chunks may appear once
    /// per chunk; the caller's sequential fold deduplicates across chunks,
    /// so the *folded* outcome is byte-identical for every thread count.
    pub fn novel_window_agree_sets<'r>(
        &self,
        steps: impl Iterator<Item = (&'r [RowId], usize)> + Clone + Sync,
        seen: &AgreeSetTable,
        threads: usize,
    ) -> (Vec<(usize, AttrSet)>, BatchStats) {
        let pairs: usize =
            steps.clone().map(|(rows, window)| window_pairs(rows.len(), window)).sum();
        let workers = self.plan_workers(pairs, threads);
        let mut out = Vec::new();
        let steal = fd_core::parallel::map_ordered(
            "pair_compare",
            workers,
            fd_core::parallel::ranges(pairs, workers, MIN_PAIRS_PER_CHUNK),
            |range| self.novel_window_chunk(steps.clone(), range, seen),
            |novel| fd_core::parallel::concat_chunk(&mut out, novel),
        );
        let stats = BatchStats {
            pairs_compared: pairs as u64,
            candidates: out.len() as u64,
            workers: steal.workers,
        };
        (out, stats)
    }

    /// One chunk's share of [`RowMajor::novel_window_agree_sets`]: the
    /// batch's pairs with indices in `range`.
    fn novel_window_chunk<'r>(
        &self,
        steps: impl Iterator<Item = (&'r [RowId], usize)>,
        range: std::ops::Range<usize>,
        seen: &AgreeSetTable,
    ) -> Vec<(usize, AttrSet)> {
        let mut buf = [AttrSet::empty(); BLOCK_PAIRS];
        let mut filled = 0;
        let mut novel =
            NoveltyFilter { seen, next: range.start, local: AgreeSetTable::new(), out: Vec::new() };
        let mut step_start = 0;
        for (rows, window) in steps {
            if step_start >= range.end {
                break;
            }
            let step_end = step_start + window_pairs(rows.len(), window);
            let mut i = range.start.max(step_start) - step_start;
            let end = range.end.min(step_end).saturating_sub(step_start);
            while i < end {
                let take = (end - i).min(BLOCK_PAIRS - filled);
                let near = &rows[i..i + take];
                let far = &rows[i + window - 1..][..take];
                for ((slot, &t), &u) in buf[filled..filled + take].iter_mut().zip(near).zip(far) {
                    *slot = self.agree_set(t, u);
                }
                filled += take;
                i += take;
                if filled == BLOCK_PAIRS {
                    novel.filter(&buf[..filled]);
                    filled = 0;
                }
            }
            step_start = step_end;
        }
        novel.filter(&buf[..filled]);
        novel.out
    }

    /// The fewest pairs a compare batch needs before the shared policy
    /// engages all `threads` workers on it (1 when `threads <= 1`).
    pub fn full_width_pairs(&self, threads: usize) -> usize {
        fd_core::parallel::saturating_items(self.width as u64, threads)
    }

    /// Number of workers a batch of `pairs` merits under `threads`, per the
    /// shared adaptive policy. The cost hint is the approximate per-item
    /// cost in u32-compare-equivalent units: one pair costs one label
    /// comparison per attribute, so `width` is the hint (see the unit table
    /// in `fd_core::parallel`).
    fn plan_workers(&self, pairs: usize, threads: usize) -> usize {
        let width = self.width as u64;
        fd_core::parallel::decide_at("parallel.workers.pair_compare", pairs, width, threads)
    }
}

/// Fewest pairs worth a claimable chunk of their own: below this, the
/// atomic-cursor claim round-trip rivals the comparison work itself.
const MIN_PAIRS_PER_CHUNK: u64 = 1024;

/// Pairs per block of the window kernel: the agree sets it computes before
/// filtering them. The block lives on the stack, 4 KiB that stay in L1
/// between the two phases; a chunk initializes it once, which a typical
/// step of a few dozen pairs pays for as a whole (256 measured ~1 ns per
/// pair slower on tall's window steps).
const BLOCK_PAIRS: usize = 128;

/// Number of pairs one window step compares: the positions `i` of a
/// cluster of `len` rows with `i + window - 1 < len`.
pub fn window_pairs(len: usize, window: usize) -> usize {
    (len + 1).saturating_sub(window)
}

/// The second phase of a window-kernel block: keeps each agree set that is
/// neither in the caller's `seen` snapshot nor earlier in the chunk, tagged
/// with its pair index.
struct NoveltyFilter<'s> {
    seen: &'s AgreeSetTable,
    /// Pair index of the next block's first set.
    next: usize,
    /// The chunk's own dedup set.
    local: AgreeSetTable,
    out: Vec<(usize, AttrSet)>,
}

impl NoveltyFilter<'_> {
    /// Filters one computed block; the next block follows it in the batch.
    fn filter(&mut self, block: &[AttrSet]) {
        for (pair, &agree) in (self.next..).zip(block.iter()) {
            if !self.seen.contains(&agree) && self.local.insert(agree) {
                self.out.push((pair, agree));
            }
        }
        self.next += block.len();
    }
}

/// Linear-scan agree set of two packed rows — the scalar reference kernel.
///
/// [`packed_agree_of_rows`] is the production kernel; this per-attribute
/// loop stays as the independently-obvious implementation the property
/// tests compare it against.
#[inline]
pub fn agree_of_rows(a: &[u32], b: &[u32]) -> AttrSet {
    let mut agree = AttrSet::empty();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x == y {
            agree.insert(i as AttrId);
        }
    }
    agree
}

/// Bit-packed agree set of two packed rows.
///
/// Instead of one branch + bitmap insert per attribute, labels are compared
/// four at a time: each chunk is copied into a `[u32; 4]`, the four
/// equalities form a `[bool; 4]`, and their 4-bit mask is OR-shifted into
/// the output word `idx / 64` at offset `idx % 64` (bit *i* of word *w* is
/// attribute `w*64 + i`, exactly [`AttrSet`]'s layout, so the words become
/// the set with no per-bit inserts). LLVM lowers the fixed-size compare and
/// mask to one vector compare and a move-mask on x86-64 (`pcmpeqd` +
/// `movmskps`) from this safe code; a sub-4 tail falls back to the
/// per-attribute path.
///
/// Equivalent to [`agree_of_rows`] for every input (property-tested across
/// every width up to [`MAX_ATTRS`], so the tail meets each word boundary).
#[inline]
pub fn packed_agree_of_rows(a: &[u32], b: &[u32]) -> AttrSet {
    let mut words = [0u64; ATTR_WORDS];
    let mut ia = a.chunks_exact(4);
    let mut ib = b.chunks_exact(4);
    let mut idx = 0usize;
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        let mut x = [0u32; 4];
        let mut y = [0u32; 4];
        x.copy_from_slice(ca);
        y.copy_from_slice(cb);
        let eq: [bool; 4] = std::array::from_fn(|i| x[i] == y[i]);
        let bits = eq.iter().enumerate().fold(0u64, |m, (i, &e)| m | (e as u64) << i);
        // idx is always a multiple of 4, so a 4-bit fragment never
        // straddles a word boundary.
        words[idx >> 6] |= bits << (idx & 63);
        idx += 4;
    }
    for (x, y) in ia.remainder().iter().zip(ib.remainder()) {
        if x == y {
            words[idx >> 6] |= 1u64 << (idx & 63);
        }
        idx += 1;
    }
    AttrSet::from_words(words)
}

/// How missing values are labeled by [`RelationBuilder::push_nullable_row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NullLabeling {
    /// All nulls of a column share one label (`null = null`).
    #[default]
    Shared,
    /// Every null gets a fresh label (`null ≠ null`), so no pair of tuples
    /// ever agrees on a missing value.
    Distinct,
}

/// Incrementally dictionary-encodes raw string rows into a [`Relation`]
/// through a [`ColumnDictionaries`].
#[derive(Debug)]
pub struct RelationBuilder {
    name: String,
    column_names: Vec<String>,
    columns: Vec<Vec<u32>>,
    dicts: ColumnDictionaries,
}

impl RelationBuilder {
    /// Starts a relation with the given column names. Its dictionaries read
    /// raw rows with the default CSV null convention (the empty field is a
    /// shared null).
    pub fn new(name: impl Into<String>, column_names: Vec<String>) -> Self {
        let dicts = ColumnDictionaries::new(column_names.len(), None, NullLabeling::Shared);
        RelationBuilder::with_dictionaries(name, column_names, dicts)
    }

    /// Starts a relation that encodes through `dicts`, which must cover
    /// one column per name.
    pub(crate) fn with_dictionaries(
        name: impl Into<String>,
        column_names: Vec<String>,
        dicts: ColumnDictionaries,
    ) -> Self {
        let n = column_names.len();
        assert!(n <= MAX_ATTRS, "schema exceeds {MAX_ATTRS} attributes");
        debug_assert_eq!(dicts.n_attrs(), n);
        RelationBuilder {
            name: name.into(),
            column_names,
            columns: (0..n).map(|_| Vec::new()).collect(),
            dicts,
        }
    }

    /// Appends one row of raw values.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) {
        assert_eq!(row.len(), self.column_names.len(), "row width mismatch");
        for (a, value) in row.iter().enumerate() {
            let label = self.dicts.encode_value(a, value.as_ref().as_bytes());
            self.columns[a].push(label);
        }
    }

    /// Appends one row where `None` marks a missing value, labeled per
    /// `labeling`.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn push_nullable_row(&mut self, row: &[Option<&str>], labeling: NullLabeling) {
        assert_eq!(row.len(), self.column_names.len(), "row width mismatch");
        for (a, value) in row.iter().enumerate() {
            let label = match value {
                Some(v) => self.dicts.encode_value(a, v.as_bytes()),
                None => self.dicts.encode_null(a, labeling),
            };
            self.columns[a].push(label);
        }
    }

    /// Appends one row of raw CSV fields, one per column, under the
    /// dictionaries' null convention.
    pub(crate) fn push_fields<'f>(&mut self, fields: impl Iterator<Item = &'f [u8]>) {
        for (a, field) in fields.enumerate() {
            let label = self.dicts.encode_field(a, field);
            self.columns[a].push(label);
        }
    }

    /// Number of rows appended so far.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Finishes encoding.
    pub fn finish(self) -> Relation {
        self.finish_with_dictionaries().0
    }

    /// Finishes encoding, also handing back the per-column dictionaries so
    /// later delta rows can be encoded consistently with the base table
    /// (see [`ColumnDictionaries`]).
    pub fn finish_with_dictionaries(self) -> (Relation, ColumnDictionaries) {
        let distinct = self.dicts.label_counts();
        let relation =
            Relation::from_counted_columns(self.name, self.column_names, self.columns, distinct);
        (relation, self.dicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::patient;

    #[test]
    fn builder_assigns_dense_labels_per_column() {
        let mut b = RelationBuilder::new("t", vec!["x".into(), "y".into()]);
        b.push_row(&["a", "p"]);
        b.push_row(&["b", "p"]);
        b.push_row(&["a", "q"]);
        let r = b.finish();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.column(0), &[0, 1, 0]);
        assert_eq!(r.column(1), &[0, 0, 1]);
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }

    #[test]
    fn patient_encoding_matches_table_2() {
        // Table II of the paper: the patient data after preprocessing.
        let r = patient();
        assert_eq!(r.n_rows(), 9);
        assert_eq!(r.n_attrs(), 5);
        // Age column (attribute 1): 1,2,3,4,2,4,2,5,6 → zero-based labels.
        assert_eq!(r.column(1), &[0, 1, 2, 3, 1, 3, 1, 4, 5]);
        // Gender column (attribute 3): 1,2,1,1,1,1,1,2,3 → zero-based.
        assert_eq!(r.column(3), &[0, 1, 0, 0, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn agree_sets_follow_example_1() {
        let r = patient();
        // t2 and t8 agree exactly on Gender (G ↛ M comes from them).
        let agree = r.agree_set(1, 7);
        assert_eq!(agree, AttrSet::single(3));
        // t2 and t7 agree on Age and Medicine (AB → M example pair).
        let agree = r.agree_set(1, 6);
        assert_eq!(agree, AttrSet::from_attrs([1u16, 2, 4]));
    }

    #[test]
    fn fd_holds_verifies_example_1() {
        let r = patient();
        // AB → M holds (Example 1). Attribute ids: N=0,A=1,B=2,G=3,M=4.
        assert!(r.fd_holds(&AttrSet::from_attrs([1u16, 2]), 4));
        // N → B holds vacuously (Name is a key).
        assert!(r.fd_holds(&AttrSet::single(0), 2));
        // G ↛ M (t2 vs t8).
        assert!(!r.fd_holds(&AttrSet::single(3), 4));
        // ∅ → A only for constant columns; none here.
        assert!(!r.fd_holds(&AttrSet::empty(), 3));
    }

    #[test]
    fn head_restricts_and_reencodes() {
        let r = patient();
        let h = r.head(3);
        assert_eq!(h.n_rows(), 3);
        assert_eq!(h.n_attrs(), 5);
        // After restriction Gender has two distinct values (F, M).
        assert_eq!(h.n_distinct(3), 2);
        // Oversized head is the identity on rows.
        assert_eq!(r.head(100).n_rows(), 9);
    }

    #[test]
    fn project_prefix_keeps_leading_columns() {
        let r = patient();
        let p = r.project_prefix(2);
        assert_eq!(p.n_attrs(), 2);
        assert_eq!(p.column_names(), &["Name".to_string(), "Age".to_string()]);
        assert_eq!(p.column(1), r.column(1));
    }

    #[test]
    #[should_panic]
    fn ragged_columns_are_rejected() {
        let _ = Relation::from_encoded_columns(
            "bad",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1], vec![0]],
        );
    }

    #[test]
    fn packed_kernel_matches_scalar_on_lane_boundaries() {
        // Every width, so the 4-lane tail meets each 64-bit word boundary;
        // labels chosen so some lanes agree and some do not.
        for width in 1..=MAX_ATTRS {
            let a: Vec<u32> = (0..width as u32).collect();
            let b: Vec<u32> = (0..width as u32).map(|i| if i % 3 == 0 { i } else { i + 1 }).collect();
            assert_eq!(packed_agree_of_rows(&a, &b), agree_of_rows(&a, &b), "width {width}");
        }
    }

    #[test]
    fn row_major_agree_set_matches_column_major() {
        let r = patient();
        let rm = r.row_major();
        for t in 0..r.n_rows() as RowId {
            for u in 0..r.n_rows() as RowId {
                assert_eq!(rm.agree_set(t, u), r.agree_set(t, u));
            }
        }
    }

    #[test]
    fn apply_delta_compacts_deletes_and_appends_inserts() {
        let mut r = Relation::from_encoded_columns(
            "d",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2, 1], vec![0, 0, 1, 1]],
        );
        let delta = r.apply_delta(&[vec![1, 2], vec![5, 0]], &[0, 2]);
        // Survivors (rows 1 and 3) compact to the front, inserts append.
        assert_eq!(r.column(0), &[1, 1, 1, 5]);
        assert_eq!(r.column(1), &[0, 1, 2, 0]);
        assert_eq!(r.n_rows(), 4);
        assert_eq!(delta.old_n_rows, 4);
        assert_eq!(delta.new_n_rows, 4);
        assert_eq!(delta.deleted, vec![0, 2]);
        assert_eq!(delta.inserted, vec![2, 3]);
        // Insert 1: x-label 1 pre-exists, y-label 2 is fresh.
        assert_eq!(delta.nonfresh_attrs[0], AttrSet::single(0));
        // Insert 2: x-label 5 fresh, y-label 0 pre-exists.
        assert_eq!(delta.nonfresh_attrs[1], AttrSet::single(1));
        // distinct stays a valid bound: the largest label ever held + 1.
        assert_eq!(r.n_distinct(0), 6);
        assert_eq!(r.n_distinct(1), 3);
        assert_eq!(delta.row_remap(), vec![u32::MAX, 0, u32::MAX, 1]);
        // The mirror patched with the same delta equals a fresh transpose.
        let mut base = Relation::from_encoded_columns(
            "d",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2, 1], vec![0, 0, 1, 1]],
        );
        let mut rm = base.row_major();
        base.apply_delta(&[vec![1, 2], vec![5, 0]], &[0, 2]);
        rm.apply_delta(&[vec![1, 2], vec![5, 0]], &[0, 2]);
        let fresh = base.row_major();
        assert_eq!(rm.n_rows(), 4);
        for t in 0..4 {
            assert_eq!(rm.row(t), fresh.row(t));
        }
    }

    #[test]
    fn nonfresh_masks_see_labels_past_the_old_bound_and_repeats_in_the_batch() {
        // Bounds before the delta: x has 3 labels, y has 2.
        let mut r = Relation::from_encoded_columns(
            "d",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2], vec![0, 1, 1]],
        );
        let delta = r.apply_delta(&[vec![3, 5], vec![4, 1], vec![4, 5], vec![2, 9]], &[2]);
        // Row 1: x=3 and y=5 lie past both old bounds, so both are fresh.
        assert_eq!(delta.nonfresh_attrs[0], AttrSet::empty());
        // Row 2: x=4 is past the bound, y=1 survives in the base.
        assert_eq!(delta.nonfresh_attrs[1], AttrSet::single(1));
        // Row 3 repeats x=4 and y=5 from earlier rows of the batch.
        assert_eq!(delta.nonfresh_attrs[2], AttrSet::from_attrs([0u16, 1]));
        // Row 4: x=2 was deleted with row 2, so it is fresh again.
        assert_eq!(delta.nonfresh_attrs[3], AttrSet::empty());
        assert_eq!(r.n_distinct(0), 5);
        assert_eq!(r.n_distinct(1), 10);
        assert_eq!(delta.changed_columns(), AttrSet::from_attrs([0u16, 1]));
    }

    #[test]
    fn check_delta_rejects_what_apply_delta_cannot_take() {
        let r = Relation::from_encoded_columns(
            "d",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2], vec![0, 1, 1]],
        );
        let top = 3 + 2 + FRESH_LABEL_HEADROOM;
        assert_eq!(r.check_delta(&[vec![top - 1, 0], vec![0, 0]], &[0, 2]), Ok(()));
        let label = r.check_delta(&[vec![top, 0], vec![0, 0]], &[]).unwrap_err();
        assert!(label.contains(&format!("label {top} on column 0")), "{label}");
        assert!(r.check_delta(&[vec![0, u32::MAX]], &[]).is_err());
        assert!(r.check_delta(&[vec![0]], &[]).unwrap_err().contains("1 fields"));
        assert_eq!(
            r.check_delta(&[], &[3]),
            Err("deleted row id 3 out of range (dataset has 3 rows)".to_owned())
        );
    }

    #[test]
    fn nonfresh_catches_labels_introduced_earlier_in_the_batch() {
        let mut r =
            Relation::from_encoded_columns("d", vec!["x".into()], vec![vec![0, 1]]);
        let delta = r.apply_delta(&[vec![7], vec![7]], &[]);
        // First use of 7 is fresh; the second row must see it as present,
        // otherwise a new two-row cluster would slip past cache eviction.
        assert_eq!(delta.nonfresh_attrs[0], AttrSet::empty());
        assert_eq!(delta.nonfresh_attrs[1], AttrSet::single(0));
    }

    #[test]
    fn is_constant_survives_delta_label_holes() {
        let mut r = Relation::from_encoded_columns(
            "c",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 1], vec![0, 1, 2]],
        );
        assert!(!r.is_constant(0));
        let _ = r.apply_delta(&[], &[0]);
        // Column x now holds only label 1, but the distinct bound stays 2.
        assert!(r.n_distinct(0) > 1);
        assert!(r.is_constant(0));
        assert!(!r.is_constant(1));
        // Empty relation: every column is vacuously constant.
        let _ = r.apply_delta(&[], &[0, 1]);
        assert!(r.is_constant(1));
    }

    #[test]
    fn is_constant_sees_through_delta_label_holes() {
        let mut r = Relation::from_encoded_columns(
            "c",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 1, 2], vec![0, 1, 2, 3]],
        );
        // Delete rows 0 and 3: column x keeps only label 1, but the bound
        // stays 3.
        let _ = r.apply_delta(&[], &[0, 3]);
        assert!(r.n_distinct(0) > 1, "stale bound overshoots");
        assert!(r.is_constant(0));
    }

    #[test]
    fn constant_column_fd_holds_from_empty_lhs() {
        let r = Relation::from_encoded_columns(
            "c",
            vec!["k".into(), "c".into()],
            vec![vec![0, 1, 2], vec![0, 0, 0]],
        );
        assert!(r.fd_holds(&AttrSet::empty(), 1));
        assert!(!r.fd_holds(&AttrSet::empty(), 0));
    }
}
