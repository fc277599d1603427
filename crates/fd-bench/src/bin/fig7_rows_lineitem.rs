//! Regenerates Figure 7: row scalability on *lineitem*
//! (paper: 8k→4096k rows geometric; default here up to 64k, scalable).

use fd_bench::experiments::rows::{run, RowSweepOptions};
use fd_bench::opts::{emit, emit_runtime_chart, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let max_rows = ((64_000.0 * common.scale) as usize).max(1000);
    let options = RowSweepOptions::figure7(max_rows);
    let table = run(&options);
    emit("Figure 7: row scalability on lineitem", "fig7_rows_lineitem", &table, common.scale);
    emit_runtime_chart(&table, "rows");
}
