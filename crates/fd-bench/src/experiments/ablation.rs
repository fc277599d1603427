//! Ablation study of EulerFD's design choices (not a paper figure — this
//! backs the claims DESIGN.md §3 makes about why each mechanism exists):
//!
//! * **MLFQ scheduling** — 1 queue degenerates the scheduler to round-robin;
//! * **cycle-2 revival** — without it, "return to the sampling module" is a
//!   no-op once the queue drains, collapsing the double cycle;
//! * **batch factor** — how often control returns to the growth-rate check;
//! * **recent capa window** — how quickly unproductive clusters retire.

use crate::runner::ground_truth;
use crate::table::Table;
use eulerfd::{EulerFd, EulerFdConfig};
use fd_core::{Accuracy, Budget};
use fd_relation::synth::dataset_spec;
use std::time::Instant;

/// Options for the ablation sweep.
#[derive(Clone, Debug)]
pub struct AblationOptions {
    /// Dataset name.
    pub dataset: String,
    /// Rows to generate.
    pub rows: usize,
}

impl Default for AblationOptions {
    fn default() -> Self {
        AblationOptions { dataset: "lineitem".into(), rows: 32_000 }
    }
}

/// One configuration variant under test.
struct Variant {
    label: &'static str,
    config: EulerFdConfig,
}

fn variants() -> Vec<Variant> {
    let base = EulerFdConfig::default;
    vec![
        Variant { label: "default (6q, revival, full-drain, rw=2)", config: base() },
        Variant { label: "no MLFQ (1 queue)", config: EulerFdConfig { n_queues: 1, ..base() } },
        Variant {
            label: "no revival (single-shot cycle 2)",
            config: EulerFdConfig { enable_revival: false, ..base() },
        },
        Variant {
            label: "batch x0.25 (frequent GR checks)",
            config: EulerFdConfig { batch_factor: 0.25, ..base() },
        },
        Variant {
            label: "batch x1 (per-pass GR checks)",
            config: EulerFdConfig { batch_factor: 1.0, ..base() },
        },
        Variant {
            label: "recent window 1 (eager retire)",
            config: EulerFdConfig { recent_window: 1, ..base() },
        },
        Variant {
            label: "recent window 4 (patient retire)",
            config: EulerFdConfig { recent_window: 4, ..base() },
        },
    ]
}

/// Runs the sweep: one row per variant.
pub fn run(options: &AblationOptions) -> Table {
    let spec = dataset_spec(&options.dataset)
        .unwrap_or_else(|| panic!("unknown dataset {}", options.dataset));
    let relation = spec.generate(options.rows);
    let truth = ground_truth(&relation);

    let mut table = Table::new(vec![
        "Variant", "Runtime[s]", "F1", "Pairs", "Inversions", "Revivals", "FDs",
    ]);
    for variant in variants() {
        let algo = EulerFd::with_config(variant.config);
        let start = Instant::now();
        let (fds, report) = algo.discover_budgeted(&relation, &Budget::unlimited());
        let secs = start.elapsed().as_secs_f64();
        let f1 = truth
            .as_ref()
            .map_or("-".to_string(), |t| format!("{:.3}", Accuracy::of(&fds, t).f1));
        table.push(vec![
            variant.label.to_string(),
            format!("{secs:.3}"),
            f1,
            report.sampler.pairs_compared.to_string(),
            report.inversions.to_string(),
            report.sampler.revivals.to_string(),
            fds.len().to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_all_variants() {
        let options = AblationOptions { dataset: "abalone".into(), rows: 400 };
        let table = run(&options);
        assert_eq!(table.n_rows(), 7);
    }
}
