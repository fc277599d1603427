//! Runs every experiment in sequence at the given scale — the one-shot
//! reproduction driver referenced by EXPERIMENTS.md.

use fd_bench::experiments::{cols, dms, mlfq, rows, table3, thresholds};
use fd_bench::opts::{emit, CommonOpts};
use fd_relation::synth::FleetSpec;

fn main() {
    let common = CommonOpts::parse();
    let scale = common.scale;

    let t3 = table3::run(&table3::Table3Options { row_scale: scale, only: common.only.clone() });
    emit("Table III: overall performance", "table3", &t3, scale);

    let f6 = rows::run(&rows::RowSweepOptions::figure6(((40_000.0 * scale) as usize).max(500)));
    emit("Figure 6: row scalability on fd-reduced-30", "fig6_rows_fdreduced", &f6, scale);

    let f7 = rows::run(&rows::RowSweepOptions::figure7(((64_000.0 * scale) as usize).max(1000)));
    emit("Figure 7: row scalability on lineitem", "fig7_rows_lineitem", &f7, scale);

    let mut o8 = cols::ColSweepOptions::figure8();
    o8.rows = ((o8.rows as f64 * scale) as usize).max(100);
    emit("Figure 8: column scalability on plista", "fig8_cols_plista", &cols::run(&o8), scale);

    let mut o9 = cols::ColSweepOptions::figure9();
    o9.rows = ((o9.rows as f64 * scale) as usize).max(100);
    emit("Figure 9: column scalability on uniprot", "fig9_cols_uniprot", &cols::run(&o9), scale);

    let o10 = mlfq::MlfqSweepOptions { row_scale: scale, repetitions: 1, ..Default::default() };
    let t4 = mlfq::table4(&o10.queue_counts);
    emit("Table IV: MLFQ capa ranges", "table4_mlfq_ranges", &t4, scale);
    emit("Figure 10: MLFQ parameter evaluation", "fig10_mlfq", &mlfq::run(&o10), scale);

    let o11 = thresholds::ThresholdSweepOptions { row_scale: scale, ..Default::default() };
    emit("Figure 11: threshold evaluation", "fig11_thresholds", &thresholds::run(&o11), scale);

    let mut fleet = FleetSpec::default();
    fleet.max_rows = ((fleet.max_rows as f64 * scale) as usize).max(100);
    let t5 = dms::run(&dms::DmsOptions { fleet });
    emit("Table V: DMS fleet performance (τe / τa)", "table5_dms", &t5, scale);
}
