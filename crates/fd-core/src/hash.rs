//! A fast, non-cryptographic hasher for hot hash tables.
//!
//! Cluster signatures, PLI-cache keys and the delta engine's support map sit
//! in hash tables on hot paths; SipHash (std's default) is measurably slower
//! for these short fixed-size keys. (The sampling loops' seen agree sets
//! live in [`crate::AgreeSetTable`] instead.) This is the FxHash
//! multiply-fold scheme used by rustc, implemented locally to keep the
//! dependency set minimal.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: rotate, xor, multiply per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // chunks_exact(8) guarantees the length; avoid the fallible cast.
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashSet` keyed by [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
/// `HashMap` keyed by [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;

    #[test]
    fn set_and_map_behave_like_std() {
        let mut set: FastHashSet<AttrSet> = FastHashSet::default();
        let a = AttrSet::from_attrs([1u16, 200]);
        let b = AttrSet::from_attrs([1u16, 201]);
        assert!(set.insert(a));
        assert!(!set.insert(a));
        assert!(set.insert(b));
        assert_eq!(set.len(), 2);

        let mut map: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..1000u64 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&999], 1998);
    }

    #[test]
    fn hashes_differ_for_similar_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh = BuildHasherDefault::<FxHasher>::default();
        let h1 = bh.hash_one(AttrSet::from_attrs([0u16]));
        let h2 = bh.hash_one(AttrSet::from_attrs([1u16]));
        let h3 = bh.hash_one(AttrSet::empty());
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn partial_tail_bytes_hash_stably() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(bh.hash_one("abc"), bh.hash_one("abc"));
        assert_ne!(bh.hash_one("abc"), bh.hash_one("abd"));
    }
}
