//! Regenerates Figure 6: row scalability on *fd-reduced-30*
//! (paper: 50k→250k rows; default here 8k→40k, scalable with `--scale`).

use fd_bench::experiments::rows::{run, RowSweepOptions};
use fd_bench::opts::{emit, emit_runtime_chart, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let max_rows = ((40_000.0 * common.scale) as usize).max(500);
    let options = RowSweepOptions::figure6(max_rows);
    let table = run(&options);
    emit("Figure 6: row scalability on fd-reduced-30", "fig6_rows_fdreduced", &table, common.scale);
    emit_runtime_chart(&table, "rows");
}
