//! Value → label dictionaries: the one encoder behind every ingest path.
//!
//! The preprocessing module (Section IV-B) replaces each raw value with a
//! dense per-column label, handed out in first-occurrence order with nulls
//! drawing from the same counter. [`ColumnDictionaries`] does exactly that
//! for [`crate::RelationBuilder`] and the CSV reader, and outlives the
//! relation it built so raw delta rows (`fdtool --delta-csv`, the server's
//! `delta` verb) encode consistently with the base table: a value seen
//! before maps to its old label, an unseen value gets a fresh one.
//!
//! Each column interns its values' bytes in one arena behind an
//! open-addressing table, so a lookup that hits allocates nothing and a new
//! value is copied exactly once.

use crate::relation::NullLabeling;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The per-column value → label dictionaries of an encoded relation, plus
/// the null convention its raw rows were read with.
#[derive(Clone, Debug)]
pub struct ColumnDictionaries {
    columns: Vec<ColumnDictionary>,
    /// Besides the empty field, the field that [`Self::encode_csv_row`]
    /// reads as null.
    null_token: Option<Box<[u8]>>,
    /// How [`Self::encode_csv_row`] labels nulls.
    labeling: NullLabeling,
}

impl ColumnDictionaries {
    /// Empty dictionaries for `n_attrs` columns whose raw rows treat the
    /// empty field (and `null_token`, if any) as null, labeled per
    /// `labeling`.
    pub(crate) fn new(n_attrs: usize, null_token: Option<&str>, labeling: NullLabeling) -> Self {
        ColumnDictionaries {
            columns: (0..n_attrs).map(|_| ColumnDictionary::default()).collect(),
            null_token: null_token.map(|t| t.as_bytes().into()),
            labeling,
        }
    }

    /// Number of columns the dictionaries cover.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Encodes one row in which every field, the empty one included, is a
    /// value; unseen values get fresh labels.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_row<S: AsRef<str>>(&mut self, row: &[S]) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter().enumerate().map(|(a, v)| self.encode_value(a, v.as_ref().as_bytes())).collect()
    }

    /// Encodes one row of raw CSV fields under the null convention the
    /// dictionaries were read with: the empty field and the CSV options'
    /// `null_token` are nulls, labeled per their `null_policy`. Rows encoded
    /// this way get the labels the base table's reader would have given
    /// them.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_csv_row<S: AsRef<str>>(&mut self, row: &[S]) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter().enumerate().map(|(a, v)| self.encode_field(a, v.as_ref().as_bytes())).collect()
    }

    /// The label of raw field `field` in column `a` under the remembered
    /// null convention.
    pub(crate) fn encode_field(&mut self, a: usize, field: &[u8]) -> u32 {
        if field.is_empty() || self.null_token.as_deref() == Some(field) {
            self.encode_null(a, self.labeling)
        } else {
            self.encode_value(a, field)
        }
    }

    /// The label of value `value` in column `a`, fresh if unseen.
    pub(crate) fn encode_value(&mut self, a: usize, value: &[u8]) -> u32 {
        let column = &mut self.columns[a];
        let next = column.next_label;
        let label = column.values.get_or_insert(value, next);
        if label == next {
            column.next_label += 1;
        }
        label
    }

    /// The label of a null in column `a`: the column's shared null label
    /// (allocated on first use) or a fresh one.
    pub(crate) fn encode_null(&mut self, a: usize, labeling: NullLabeling) -> u32 {
        let column = &mut self.columns[a];
        match (labeling, column.shared_null) {
            (NullLabeling::Shared, Some(label)) => label,
            _ => {
                let label = column.next_label;
                column.next_label += 1;
                if labeling == NullLabeling::Shared {
                    column.shared_null = Some(label);
                }
                label
            }
        }
    }

    /// Labels handed out so far, per column: one past the largest label.
    pub(crate) fn label_counts(&self) -> Vec<u32> {
        self.columns.iter().map(|c| c.next_label).collect()
    }
}

/// One column's dictionary. Values and nulls draw labels from one counter,
/// so labels follow first occurrence across both.
#[derive(Clone, Debug, Default)]
struct ColumnDictionary {
    values: Interner,
    /// The shared-null label, allocated on first use.
    shared_null: Option<u32>,
    next_label: u32,
}

/// A byte-string → label map: every distinct value's bytes back to back in
/// one arena, found through a linear-probing table of entry indices.
#[derive(Clone, Debug)]
struct Interner {
    /// The distinct values' bytes, in insertion order.
    arena: Vec<u8>,
    /// Entry `e` is `arena[ends[e]..ends[e + 1]]`; starts with a 0.
    ends: Vec<usize>,
    /// Entry `e`'s label.
    labels: Vec<u32>,
    /// Power-of-two table, at most half full. A slot is 0 (empty) or holds
    /// an entry's hash in its high half and the entry index + 1 in its low
    /// half; the hash's low bits pick the home slot.
    slots: Vec<u64>,
    /// Per-interner hash key, so no fixed input collides on every run.
    seed: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            arena: Vec::new(),
            ends: vec![0],
            labels: Vec::new(),
            slots: vec![0; 16],
            seed: RandomState::new().hash_one(0u8),
        }
    }
}

impl Interner {
    fn entry(&self, e: usize) -> &[u8] {
        &self.arena[self.ends[e]..self.ends[e + 1]]
    }

    /// The label of `key`, inserting it with label `fresh` if it is new.
    fn get_or_insert(&mut self, key: &[u8], fresh: u32) -> u32 {
        let hash = short_hash(key, self.seed);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            if (slot >> 32) as u32 == hash {
                let e = (slot as u32 - 1) as usize;
                if self.entry(e) == key {
                    return self.labels[e];
                }
            }
            i = (i + 1) & mask;
        }
        let index = u32::try_from(self.labels.len() + 1)
            .expect("a column holds fewer than 2^32 - 1 distinct values");
        self.arena.extend_from_slice(key);
        self.ends.push(self.arena.len());
        self.labels.push(fresh);
        self.slots[i] = (u64::from(hash) << 32) | u64::from(index);
        if 2 * self.labels.len() > self.slots.len() {
            self.grow();
        }
        fresh
    }

    /// Doubles the table, re-placing every slot by its stored hash.
    fn grow(&mut self) {
        let mut slots = vec![0u64; 2 * self.slots.len()];
        let mask = slots.len() - 1;
        for &slot in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = slot;
        }
        self.slots = slots;
    }
}

/// Hash of a short byte string: 8-byte words folded in through a 128-bit
/// multiply whose halves are xored, a final fold mixing every input bit
/// into the returned high half. `FxHasher` has no final mix, so digit
/// strings that differ only in their last bytes crowd a few low-bit buckets.
fn short_hash(key: &[u8], seed: u64) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |x: u64| {
        let m = u128::from(x) * u128::from(K);
        (m as u64) ^ ((m >> 64) as u64)
    };
    let mut h = seed ^ key.len() as u64;
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
        h = fold(h ^ u64::from_le_bytes(word));
    }
    let tail = words.remainder().iter().rev().fold(0u64, |t, &b| (t << 8) | u64::from(b));
    (fold(h ^ tail) >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    #[test]
    fn dictionaries_reuse_base_labels_and_allocate_fresh_ones() {
        let mut b = RelationBuilder::new("t", vec!["x".into(), "y".into()]);
        b.push_row(&["a", "p"]);
        b.push_nullable_row(&[None, Some("q")], NullLabeling::Distinct);
        b.push_nullable_row(&[None, Some("q")], NullLabeling::Shared);
        b.push_nullable_row(&[None, Some("p")], NullLabeling::Shared);
        let (r, mut dicts) = b.finish_with_dictionaries();
        // A distinct null takes a label of its own; the shared null one
        // label for all.
        assert_eq!(r.column(0), &[0, 1, 2, 2]);
        assert_eq!(r.column(1), &[0, 1, 1, 0]);
        assert_eq!(dicts.n_attrs(), 2);
        // Known values keep their labels; new values extend the range.
        assert_eq!(dicts.encode_row(&["a", "p"]), vec![0, 0]);
        assert_eq!(dicts.encode_row(&["c", "p"]), vec![3, 0]);
        // Under the builder's convention an empty CSV field is the shared
        // null.
        assert_eq!(dicts.encode_csv_row(&["", "r"]), vec![2, 2]);
    }

    #[test]
    fn interner_keeps_labels_across_table_growth_with_nulls_interleaved() {
        // 5 000 values grow the table from 16 slots through nine doublings;
        // a shared null and distinct nulls take labels between them.
        let mut dicts = ColumnDictionaries::new(1, Some("?"), NullLabeling::Shared);
        let mut expected = Vec::new();
        let mut next = 0u32;
        let mut shared = None;
        for i in 0..5_000u32 {
            let value = format!("{}", i * 7919);
            assert_eq!(dicts.encode_value(0, value.as_bytes()), next, "value {i}");
            expected.push((value, next));
            next += 1;
            if i % 97 == 0 {
                let null = dicts.encode_field(0, b"?");
                assert_eq!(null, *shared.get_or_insert(next), "shared null at {i}");
                if null == next {
                    next += 1;
                }
                assert_eq!(dicts.encode_null(0, NullLabeling::Distinct), next);
                next += 1;
            }
        }
        assert!(dicts.columns[0].values.slots.len() >= 2 * 5_000);
        for (value, label) in &expected {
            assert_eq!(dicts.encode_field(0, value.as_bytes()), *label, "{value}");
        }
        assert_eq!(dicts.encode_field(0, b""), shared.expect("a null was encoded"));
        assert_eq!(dicts.label_counts(), vec![next]);
        // A value extending a known one is still new.
        assert_eq!(dicts.encode_value(0, b"79190 "), next);
    }
}
