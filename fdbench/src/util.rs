//! Small helpers shared by the workloads: the seeded generator, order
//! statistics, CSV encoding, output fingerprints and peak memory.

use fd_core::FdSet;
use fd_relation::{write_csv, Relation};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// SplitMix64. The benchmark owns its generator so that its inputs stay the
/// same function of `--seed` whatever the repository's own `rand` does.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one seed: distinct `stream`s give
    /// independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `k` distinct values from `0..n` (`k <= n`), in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let v = self.below(n);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// Linearly interpolated `p`-quantile (`p` in `[0, 1]`); 0 for no samples.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Row `t` of `relation` as label strings.
fn row_strings(relation: &Relation, t: usize) -> Vec<String> {
    (0..relation.n_attrs())
        .map(|a| relation.label(t as u32, a as u16).to_string())
        .collect()
}

/// `relation` as CSV bytes with its rows in `order`.
pub fn csv_bytes(relation: &Relation, order: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(
        &mut out,
        relation.column_names(),
        order.iter().map(|&t| row_strings(relation, t)),
        b',',
    )
    .expect("writing CSV to memory cannot fail");
    out
}

/// Identity of an FD set: equal sets have equal fingerprints.
pub fn fds_fingerprint(fds: &FdSet) -> u64 {
    let mut h = DefaultHasher::new();
    fds.iter().for_each(|fd| fd.hash(&mut h));
    h.finish()
}

pub fn str_fingerprint(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
