//! DMS fleet simulation (Table V substitute).
//!
//! The paper reports a go-live week of EulerFD on Alibaba Cloud's DMS,
//! processing 500k production datasets whose shapes range from 2 to 312
//! columns and up to millions of rows, aggregated into a row×column bucket
//! grid with the size-weighted ratios τe (runtime) and τa (F1). Production
//! data being proprietary, this module generates a seeded fleet of random
//! relations whose shapes are drawn per bucket of the paper's grid, so the
//! harness can run both EulerFD and AID-FD over the same fleet and compute
//! the same weighted ratios.

use super::{ColumnKind, ColumnSpec, Generator};
use crate::relation::Relation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Row-bucket boundaries of Table V (upper bounds, inclusive).
pub const ROW_BUCKETS: &[(usize, usize, &str)] = &[
    (2, 10, "1~10"),
    (11, 100, "11~100"),
    (101, 1000, "101~1000"),
    (1001, 10_000, "1001~10000"),
    (10_001, 100_000, "10001~100000"),
    (100_001, 200_000, "100000+"),
];

/// Column-bucket boundaries of Table V.
pub const COL_BUCKETS: &[(usize, usize, &str)] = &[
    (2, 10, "1~10"),
    (11, 50, "11~50"),
    (51, 100, "51~100"),
    (101, 160, "100+"),
];

/// Configuration of a simulated fleet.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Datasets generated per (row bucket × column bucket) cell.
    pub per_cell: usize,
    /// Master seed.
    pub seed: u64,
    /// Hard cap on rows (keeps the big buckets laptop-sized); the paper's
    /// production fleet goes far higher.
    pub max_rows: usize,
    /// Hard cap on columns.
    pub max_cols: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec { per_cell: 1, seed: 0xD45, max_rows: 24_000, max_cols: 120 }
    }
}

/// One simulated production dataset together with its grid cell.
pub struct FleetDataset {
    /// The generated relation.
    pub relation: Relation,
    /// Index into [`ROW_BUCKETS`].
    pub row_bucket: usize,
    /// Index into [`COL_BUCKETS`].
    pub col_bucket: usize,
}

impl FleetSpec {
    /// Generates the whole fleet, cell by cell.
    pub fn generate(&self) -> Vec<FleetDataset> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        for (rb, &(rlo, rhi, _)) in ROW_BUCKETS.iter().enumerate() {
            for (cb, &(clo, chi, _)) in COL_BUCKETS.iter().enumerate() {
                for i in 0..self.per_cell {
                    // Clamp the bucket to the configured caps; a fully capped
                    // bucket degenerates to its (clamped) lower bound.
                    let cap_r = self.max_rows.max(2);
                    let cap_c = self.max_cols.max(2);
                    let (rlo, rhi) = (rlo.clamp(2, cap_r), rhi.clamp(2, cap_r));
                    let (clo, chi) = (clo.clamp(2, cap_c), chi.clamp(2, cap_c));
                    let rows = rng.gen_range(rlo.min(rhi)..=rhi);
                    let cols = rng.gen_range(clo.min(chi)..=chi);
                    let seed = rng.gen::<u64>();
                    let name = format!("dms-r{rb}c{cb}-{i}");
                    let relation = random_relation(&name, rows, cols, seed);
                    out.push(FleetDataset { relation, row_bucket: rb, col_bucket: cb });
                }
            }
        }
        out
    }
}

/// A random production-shaped relation: ids, low-card enum columns, free-text
/// style high-card columns, and derived columns (the dependency structure DMS
/// mines for data obfuscation).
fn random_relation(name: &str, rows: usize, cols: usize, seed: u64) -> Relation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut specs: Vec<ColumnSpec> = Vec::with_capacity(cols);
    specs.push(ColumnSpec::new("id", ColumnKind::Key));
    if rows < 50 {
        // Tiny tables: values are effectively distinct (headers, configs).
        // Anything else is a combinatorial trap — a handful of mid-sized
        // agree sets over 100+ columns has a minimal cover in the millions,
        // which no algorithm (nor DMS's 34 ms/dataset average) could touch.
        for i in 1..cols {
            specs.push(ColumnSpec::new(
                format!("c{i}"),
                ColumnKind::Categorical { cardinality: rows * 3, skew: 0.0 },
            ));
        }
        return Generator::new(name, specs, seed).generate(rows);
    }
    for i in 1..cols {
        let roll = rng.gen_range(0..100);
        let kind = if roll < 12 {
            ColumnKind::Categorical { cardinality: rng.gen_range(2..10), skew: 0.5 }
        } else if roll < 40 {
            ColumnKind::Categorical {
                cardinality: rng.gen_range(10..200.min(rows.max(11))),
                skew: 0.3,
            }
        } else if roll < 78 {
            // Near-unique id/text-like columns dominate production schemas
            // (and keep wide cells' covers from exploding combinatorially).
            // The domain must exceed the row count even for tiny tables —
            // a 7-row, 133-column cell with card-3 "ids" has huge agree
            // sets, whose minimal transversals blow up exponentially.
            ColumnKind::Categorical {
                cardinality: (rows * 2).clamp(4, 100_000),
                skew: 0.05,
            }
        } else {
            // Parent must precede this column; the first data column (i = 1)
            // can only derive from the id column.
            let parent = if i == 1 { 0 } else { rng.gen_range(1..i) };
            ColumnKind::Derived {
                parents: vec![parent],
                cardinality: rng.gen_range(2..50),
                noise: if rng.gen_bool(0.3) { 0.01 } else { 0.0 },
            }
        };
        specs.push(ColumnSpec::new(format!("c{i}"), kind));
    }
    Generator::new(name, specs, seed).generate(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_covers_every_grid_cell() {
        let spec = FleetSpec { per_cell: 1, max_rows: 2000, max_cols: 120, seed: 7 };
        let fleet = spec.generate();
        assert_eq!(fleet.len(), ROW_BUCKETS.len() * COL_BUCKETS.len());
        for ds in &fleet {
            let (_, rhi, _) = ROW_BUCKETS[ds.row_bucket];
            let (clo, chi, _) = COL_BUCKETS[ds.col_bucket];
            assert!(ds.relation.n_rows() <= rhi.clamp(2, 2000));
            assert!(ds.relation.n_attrs() >= clo.min(2) && ds.relation.n_attrs() <= chi);
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let spec = FleetSpec { per_cell: 1, max_rows: 500, max_cols: 60, seed: 9 };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.relation, y.relation);
        }
    }
}
