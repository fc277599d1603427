//! Row-delta descriptors for incremental maintenance.
//!
//! Batch discovery treats the relation as immutable; a long-lived service
//! over a mutating table instead applies small insert/delete batches and
//! wants the FD set repaired, not recomputed. [`Relation::apply_delta`]
//! (in [`crate::relation`]) mutates the encoded columns in place and
//! returns a [`RowDelta`] — a precise record of which row ids appeared,
//! which disappeared, and which inserted labels were already present in
//! each column. Downstream consumers read the delta instead of re-deriving
//! it: the incremental engine (`core::incremental`) uses the id lists to
//! scope its pair enumeration, and the PLI cache uses the per-row
//! "non-fresh attribute" masks to decide which derived partitions can
//! survive the batch.
//!
//! [`ColumnDictionaries`] carries the string→label maps of a
//! [`crate::RelationBuilder`] past `finish()`, so raw delta rows (e.g. from
//! `fdtool --delta-csv`) can be encoded consistently with the base table:
//! a value seen before maps to its old label, an unseen value gets a fresh
//! one.
//!
//! [`Relation::apply_delta`]: crate::Relation::apply_delta

use crate::relation::{NullLabeling, RowId};
use fd_core::{AttrSet, FastHashMap};

/// The outcome of one [`Relation::apply_delta`] batch: which rows appeared
/// and disappeared, and how the inserted labels relate to the surviving
/// column contents.
///
/// Deletes are applied before inserts; surviving rows are compacted to the
/// front (keeping their relative order), inserted rows are appended after
/// them. [`RowDelta::row_remap`] reconstructs the old-id → new-id mapping.
///
/// [`Relation::apply_delta`]: crate::Relation::apply_delta
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowDelta {
    /// Row count before the batch.
    pub old_n_rows: usize,
    /// Row count after the batch.
    pub new_n_rows: usize,
    /// Deleted row ids in the *pre-delta* numbering, sorted and deduplicated.
    pub deleted: Vec<RowId>,
    /// Inserted row ids in the *post-delta* numbering: the contiguous tail
    /// `new_n_rows - inserts.len() .. new_n_rows`, ascending.
    pub inserted: Vec<RowId>,
    /// For each inserted row (parallel to `inserted`): the attributes on
    /// which its label was already present — either in the post-delete base
    /// column or on an *earlier* row of the same insert batch. A derived
    /// partition over attribute set `X` can only gain or grow a cluster
    /// through an inserted row whose labels are non-fresh on all of `X`,
    /// which is exactly the PLI cache's surgical-eviction test.
    pub nonfresh_attrs: Vec<AttrSet>,
}

impl RowDelta {
    /// True when the batch contained no inserts and no deletes.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.inserted.is_empty()
    }

    /// The attributes on which *some* inserted row carries a non-fresh
    /// label — the columns whose partitions may have changed beyond pure
    /// row removal.
    pub fn changed_columns(&self) -> AttrSet {
        let mut set = AttrSet::empty();
        for mask in &self.nonfresh_attrs {
            set = set.union(mask);
        }
        set
    }

    /// The old-id → new-id mapping induced by the deletes: `remap[t]` is
    /// the post-delta id of pre-delta row `t`, or `u32::MAX` if `t` was
    /// deleted. Survivor ids are assigned in order, so the map is strictly
    /// increasing on survivors.
    pub fn row_remap(&self) -> Vec<u32> {
        let mut remap = Vec::with_capacity(self.old_n_rows);
        let mut del = self.deleted.iter().peekable();
        let mut next = 0u32;
        for t in 0..self.old_n_rows as u32 {
            if del.peek() == Some(&&t) {
                del.next();
                remap.push(u32::MAX);
            } else {
                remap.push(next);
                next += 1;
            }
        }
        remap
    }
}

/// The per-column string→label dictionaries of a finished
/// [`crate::RelationBuilder`], kept alive so later raw rows encode
/// consistently with the base table.
#[derive(Clone, Debug)]
pub struct ColumnDictionaries {
    dictionaries: Vec<FastHashMap<String, u32>>,
    shared_null: Vec<Option<u32>>,
    next_label: Vec<u32>,
}

impl ColumnDictionaries {
    pub(crate) fn new(
        dictionaries: Vec<FastHashMap<String, u32>>,
        shared_null: Vec<Option<u32>>,
        next_label: Vec<u32>,
    ) -> Self {
        ColumnDictionaries { dictionaries, shared_null, next_label }
    }

    /// Number of columns the dictionaries cover.
    pub fn n_attrs(&self) -> usize {
        self.dictionaries.len()
    }

    /// Encodes one raw row, allocating fresh labels for unseen values.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_row<S: AsRef<str>>(&mut self, row: &[S]) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter().enumerate().map(|(a, v)| self.encode(a, v.as_ref())).collect()
    }

    /// Encodes one raw row where `None` marks a missing value, labeled per
    /// `labeling` exactly as [`crate::RelationBuilder::push_nullable_row`]
    /// would have.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_nullable_row(
        &mut self,
        row: &[Option<&str>],
        labeling: NullLabeling,
    ) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter()
            .enumerate()
            .map(|(a, value)| match value {
                Some(v) => self.encode(a, v),
                None => match labeling {
                    NullLabeling::Shared => match self.shared_null[a] {
                        Some(l) => l,
                        None => {
                            let l = self.fresh(a);
                            self.shared_null[a] = Some(l);
                            l
                        }
                    },
                    NullLabeling::Distinct => self.fresh(a),
                },
            })
            .collect()
    }

    fn encode(&mut self, a: usize, value: &str) -> u32 {
        let next = self.next_label[a];
        let label = *self.dictionaries[a].entry(value.to_owned()).or_insert(next);
        if label == next {
            self.next_label[a] += 1;
        }
        label
    }

    fn fresh(&mut self, a: usize) -> u32 {
        let l = self.next_label[a];
        self.next_label[a] += 1;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    #[test]
    fn row_remap_skips_deleted_ids() {
        let delta = RowDelta {
            old_n_rows: 5,
            new_n_rows: 3,
            deleted: vec![1, 3],
            inserted: vec![],
            nonfresh_attrs: vec![],
        };
        assert_eq!(delta.row_remap(), vec![0, u32::MAX, 1, u32::MAX, 2]);
        assert!(!delta.is_empty());
        assert!(delta.changed_columns().is_empty());
    }

    #[test]
    fn dictionaries_reuse_base_labels_and_allocate_fresh_ones() {
        let mut b = RelationBuilder::new("t", vec!["x".into(), "y".into()]);
        b.push_row(&["a", "p"]);
        b.push_row(&["b", "q"]);
        let (r, mut dicts) = b.finish_with_dictionaries();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(dicts.n_attrs(), 2);
        // Known values keep their labels; new values extend the range.
        assert_eq!(dicts.encode_row(&["b", "p"]), vec![1, 0]);
        assert_eq!(dicts.encode_row(&["c", "p"]), vec![2, 0]);
        // Shared nulls allocate one label and stick to it.
        let n1 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Shared);
        let n2 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Shared);
        assert_eq!(n1, n2);
        // Distinct nulls never repeat.
        let d1 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Distinct);
        let d2 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Distinct);
        assert_ne!(d1[0], d2[0]);
    }
}
