//! Regenerates Table V: the DMS fleet τe/τa grid (EulerFD vs AID-FD,
//! size-weighted, per row×column bucket) on the simulated fleet.

use fd_bench::experiments::dms::{run, DmsOptions};
use fd_bench::opts::{emit, CommonOpts};
use fd_relation::synth::FleetSpec;

fn main() {
    let common = CommonOpts::parse();
    let mut fleet = FleetSpec::default();
    fleet.max_rows = ((fleet.max_rows as f64 * common.scale) as usize).max(100);
    let options = DmsOptions { fleet };
    let table = run(&options);
    emit("Table V: DMS fleet performance (τe / τa)", "table5_dms", &table, common.scale);
}
