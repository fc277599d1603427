//! Experiment harness for the EulerFD reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation (Section V)
//! as plain-text tables on stdout and CSV files under `results/`. One binary
//! per experiment:
//!
//! ```text
//! cargo run --release -p fd-bench --bin table3            # Table III
//! cargo run --release -p fd-bench --bin fig6_rows_fdreduced
//! cargo run --release -p fd-bench --bin fig7_rows_lineitem
//! cargo run --release -p fd-bench --bin fig8_cols_plista
//! cargo run --release -p fd-bench --bin fig9_cols_uniprot
//! cargo run --release -p fd-bench --bin fig10_mlfq        # + Table IV
//! cargo run --release -p fd-bench --bin fig11_thresholds
//! cargo run --release -p fd-bench --bin table5_dms        # Table V
//! cargo run --release -p fd-bench --bin all_experiments   # everything
//! cargo run --release -p fd-bench --bin ablation          # design ablations
//! cargo run --release -p fd-bench --bin inspect -- horse  # run diagnostics
//! ```
//!
//! Each binary accepts `--scale <f64>` to shrink/grow the workload and
//! `--quick` as shorthand for a fast smoke configuration. Performance
//! regressions are tracked by the separate `fdbench` benchmark
//! (`python3 fdbench/run.py`), not by this crate.

#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod opts;
pub mod runner;
pub mod table;

pub use chart::{render as render_chart, ChartOptions, Series};
pub use runner::{
    ground_truth, run_isolated_algorithm, Algo, RunGuard, RunOutcome,
};
pub use table::{results_dir, Table};
