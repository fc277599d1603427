//! Figure 10 (and Table IV) — MLFQ parameter evaluation.
//!
//! Sweeps the number of MLFQ queues from 1 to 7 (capa ranges per Table IV)
//! on *adult*, *letter*, *plista*, and *flight*, measuring EulerFD's runtime
//! and F1. The paper's findings to reproduce: F1 rises with more queues,
//! runtime is U-shaped with its minimum around 6 queues.

use crate::runner::ground_truth;
use crate::table::Table;
use eulerfd::{mlfq_ranges, EulerFd, EulerFdConfig};
use fd_core::{Accuracy, Budget};
use fd_relation::synth::dataset_spec;
use std::time::Instant;

/// Options for the MLFQ sweep.
#[derive(Clone, Debug)]
pub struct MlfqSweepOptions {
    /// Datasets to sweep (paper: adult, letter, plista, flight).
    pub datasets: Vec<String>,
    /// Queue counts to evaluate (paper: 1..=7).
    pub queue_counts: Vec<usize>,
    /// Row scale multiplier on each dataset's default size.
    pub row_scale: f64,
    /// Repetitions per cell (runtimes averaged).
    pub repetitions: usize,
}

impl Default for MlfqSweepOptions {
    fn default() -> Self {
        MlfqSweepOptions {
            datasets: vec!["adult".into(), "letter".into(), "plista".into(), "flight".into()],
            queue_counts: (1..=7).collect(),
            row_scale: 1.0,
            repetitions: 1,
        }
    }
}

/// Prints Table IV (the capa ranges per queue count) for the configured
/// sweep — the paper's parameter table, generated from the same code the
/// algorithm uses.
pub fn table4(queue_counts: &[usize]) -> Table {
    let mut table = Table::new(vec!["# of queues", "capa ranges (q_z to q_1)"]);
    for &z in queue_counts {
        let bounds = mlfq_ranges(z);
        // Paper order: lowest priority (q_z) first.
        let mut parts: Vec<String> = Vec::new();
        for i in (0..z).rev() {
            let lo = bounds[i];
            let hi = if i == 0 { "+inf".to_string() } else { format!("{}", bounds[i - 1]) };
            parts.push(format!("[{lo}, {hi})"));
        }
        table.push(vec![z.to_string(), parts.join(", ")]);
    }
    table
}

/// Runs the Figure 10 sweep: one row per (dataset, queue count).
pub fn run(options: &MlfqSweepOptions) -> Table {
    let mut table =
        Table::new(vec!["Dataset", "Queues", "Runtime[s]", "F1", "Pairs", "FDs"]);
    for name in &options.datasets {
        let spec = dataset_spec(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
        let rows = spec.scaled_rows(options.row_scale);
        let relation = spec.generate(rows);
        eprintln!("[mlfq] {name}: computing ground truth ...");
        let truth = ground_truth(&relation);
        for &z in &options.queue_counts {
            eprintln!("[mlfq] {name}: {z} queues ...");
            let algo = EulerFd::with_config(EulerFdConfig::with_queues(z));
            let mut secs = 0.0;
            let mut last = None;
            for _ in 0..options.repetitions.max(1) {
                let start = Instant::now();
                let (fds, report) = algo.discover_budgeted(&relation, &Budget::unlimited());
                secs += start.elapsed().as_secs_f64();
                last = Some((fds, report));
            }
            let (fds, report) = last.expect("at least one repetition");
            let f1 = truth
                .as_ref()
                .map_or("-".to_string(), |t| format!("{:.3}", Accuracy::of(&fds, t).f1));
            table.push(vec![
                name.clone(),
                z.to_string(),
                format!("{:.3}", secs / options.repetitions.max(1) as f64),
                f1,
                report.sampler.pairs_compared.to_string(),
                fds.len().to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_the_paper_for_three_queues() {
        let t = table4(&[3]);
        let rendered = t.render();
        assert!(rendered.contains("[0, 1), [1, 10), [10, +inf)"), "{rendered}");
    }

    #[test]
    fn sweep_runs_on_a_small_config() {
        let options = MlfqSweepOptions {
            datasets: vec!["adult".into()],
            queue_counts: vec![1, 6],
            row_scale: 0.02,
            repetitions: 1,
        };
        let table = run(&options);
        assert_eq!(table.n_rows(), 2);
    }
}
