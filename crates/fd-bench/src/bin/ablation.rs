//! Ablation study of EulerFD's design choices (MLFQ, revival, batching,
//! retirement) — backs DESIGN.md §3; not a paper figure.

use fd_bench::experiments::ablation::{run, AblationOptions};
use fd_bench::opts::{emit, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let dataset = common.only.first().cloned().unwrap_or_else(|| "lineitem".to_string());
    let options =
        AblationOptions { dataset, rows: ((32_000.0 * common.scale) as usize).max(500) };
    let table = run(&options);
    emit("Ablation: EulerFD design choices", "ablation", &table, common.scale);
}
