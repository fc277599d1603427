//! Regenerates Table III: overall performance of the five algorithms on the
//! 19 evaluation datasets (scaled stand-ins; see DESIGN.md §5).

use fd_bench::experiments::table3::{run, Table3Options};
use fd_bench::opts::{emit, CommonOpts};

fn main() {
    let common = CommonOpts::parse();
    let options = Table3Options { row_scale: common.scale, only: common.only };
    let table = run(&options);
    // A single-dataset run saves under its own name so it cannot clobber a
    // previously saved full table (the reproduction script runs the
    // heavyweight uniprot row separately).
    let name = match options.only.as_slice() {
        [single] => format!("table3_{single}"),
        _ => "table3".to_string(),
    };
    emit("Table III: overall performance", &name, &table, common.scale);
}
