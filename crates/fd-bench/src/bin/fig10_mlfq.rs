//! Regenerates Figure 10 (MLFQ queue-count sweep on adult, letter, plista,
//! flight) together with Table IV (the capa ranges per queue count).

use fd_bench::experiments::mlfq::{run, table4, MlfqSweepOptions};
use fd_bench::opts::{emit, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let mut options = MlfqSweepOptions { row_scale: common.scale, ..Default::default() };
    if !common.only.is_empty() {
        options.datasets = common.only;
    }
    let t4 = table4(&options.queue_counts);
    emit("Table IV: MLFQ capa ranges", "table4_mlfq_ranges", &t4, common.scale);
    let table = run(&options);
    emit("Figure 10: MLFQ parameter evaluation", "fig10_mlfq", &table, common.scale);
}
