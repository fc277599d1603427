//! Regenerates Figure 8: column scalability on *plista* (10→60 columns).

use fd_bench::experiments::cols::{run, ColSweepOptions};
use fd_bench::opts::{emit, emit_runtime_chart, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let mut options = ColSweepOptions::figure8();
    options.rows = ((options.rows as f64 * common.scale) as usize).max(100);
    let table = run(&options);
    emit("Figure 8: column scalability on plista", "fig8_cols_plista", &table, common.scale);
    emit_runtime_chart(&table, "columns");
}
