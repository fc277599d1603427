//! Regenerates Figure 11: `Th_Ncover` / `Th_Pcover` sweeps on flight,
//! fd-reduced-30, ncvoter, and horse, for EulerFD and AID-FD.

use fd_bench::experiments::thresholds::{run, ThresholdSweepOptions};
use fd_bench::opts::{emit, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let mut options = ThresholdSweepOptions { row_scale: common.scale, ..Default::default() };
    if !common.only.is_empty() {
        options.datasets = common.only;
    }
    let table = run(&options);
    emit("Figure 11: threshold evaluation", "fig11_thresholds", &table, common.scale);
}
