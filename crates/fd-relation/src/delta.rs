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
//! survive the batch. Raw delta rows get their labels from the base table's
//! [`crate::ColumnDictionaries`].
//!
//! [`Relation::apply_delta`]: crate::Relation::apply_delta

use crate::relation::RowId;
use fd_core::AttrSet;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
