//! Timing gates run by `scripts/check.sh`: the agree-set kernel and worker
//! scaling (`scaling_gate`), and incremental delta maintenance
//! (`delta_gate`). Both measure wall clock, so they are `#[ignore]`d in the
//! plain test run and must be built optimized:
//!
//! ```text
//! cargo test --release --test gates -- --ignored --nocapture
//! ```
//!
//! The two gates take a shared lock, so they never time each other even
//! under the default parallel test runner.

use eulerfd_suite::algo::{DeltaEngine, EulerFd, EulerFdConfig};
use eulerfd_suite::core::FdSet;
use eulerfd_suite::relation::synth::{self, ColumnKind, ColumnSpec, Generator};
use eulerfd_suite::relation::{agree_of_rows, packed_agree_of_rows, FdAlgorithm, Relation, RowId};
use std::sync::Mutex;
use std::time::Instant;

/// Serializes the gates: each one's clock must not see the other's load.
static SERIAL: Mutex<()> = Mutex::new(());

/// Floor the packed kernel must clear over the scalar reference.
/// Deliberately below the measured ~3.4× (3.1–4.0× over three runs of this
/// gate on a shared 2-core host) so routine jitter does not flake the gate;
/// a kernel regression to scalar-equivalent speed still trips it.
const GATE_MIN_KERNEL_SPEEDUP: f64 = 1.5;

/// Floor for 2-worker batched sampling throughput over 1-worker, applied
/// only when the host actually has ≥2 cores.
const GATE_MIN_2WORKER_SPEEDUP: f64 = 1.2;

/// Ceiling the 1%-delta incremental/cold wall ratio must stay under.
/// Measured ratios sit around 3–6%; 25% is far enough out that scheduler
/// jitter cannot flake it while a regression to cold-equivalent cost still
/// trips it.
const GATE_MAX_DELTA_RATIO: f64 = 0.25;

/// Row-delta fractions measured by the delta gate: 0.1%, 1%, 5%.
const DELTA_FRACS: [f64; 3] = [0.001, 0.01, 0.05];

/// A fixed LCG walk of `count` row pairs, like window sampling inside large
/// clusters (the sampler compares rows far apart, not neighbors).
fn scattered_pairs(relation: &Relation, count: usize) -> Vec<(RowId, RowId)> {
    let n = relation.n_rows().max(1) as u64;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % n) as u32
    };
    (0..count).map(|_| (next(), next())).collect()
}

/// A canonical, order-independent rendering of an FD set; byte equality of
/// two renderings is byte equality of the discovered covers.
fn canonical_fds(fds: &FdSet) -> String {
    let mut lines: Vec<String> =
        fds.iter().map(|fd| format!("{:?}->{}", fd.lhs.to_words(), fd.rhs)).collect();
    lines.sort();
    lines.join(";")
}

/// Times the scalar per-attribute reference loop against the bit-packed
/// kernel on a width-24 relation, both reading the same row-major rows.
/// Returns (scalar pairs/s, packed pairs/s, speedup).
fn packed_kernel_speedup() -> (f64, f64, f64) {
    let cols: Vec<ColumnSpec> = (0..24)
        .map(|i| {
            ColumnSpec::new(format!("c{i}"), ColumnKind::Categorical { cardinality: 8, skew: 0.0 })
        })
        .collect();
    let relation = Generator::new("kernel24", cols, 7).generate(4000);
    let rm = relation.row_major();
    let pairs = scattered_pairs(&relation, 2_000_000);
    // Equivalence spot check before the clocks start.
    for &(t, u) in &pairs[..1000] {
        assert_eq!(
            packed_agree_of_rows(rm.row(t), rm.row(u)),
            agree_of_rows(rm.row(t), rm.row(u)),
            "kernel mismatch on pair ({t}, {u})"
        );
    }
    let mut sink = 0usize;
    let start = Instant::now();
    for &(t, u) in &pairs {
        sink ^= agree_of_rows(rm.row(t), rm.row(u)).len();
    }
    let scalar_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &(t, u) in &pairs {
        sink ^= packed_agree_of_rows(rm.row(t), rm.row(u)).len();
    }
    let packed_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let pps_scalar = pairs.len() as f64 / scalar_secs;
    let pps_packed = pairs.len() as f64 / packed_secs;
    (pps_scalar, pps_packed, scalar_secs / packed_secs)
}

/// Packed-kernel speedup tripwire, byte-identical discovery at every worker
/// tier up to the core count, and, on multi-core hosts only, the 2-worker
/// batched sampling-throughput floor.
#[test]
#[ignore = "timing gate; run with --release -- --ignored"]
fn scaling_gate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (pps_scalar, pps_packed, kernel_speedup) = packed_kernel_speedup();
    println!(
        "gate: packed kernel {pps_packed:.0} pairs/s vs scalar {pps_scalar:.0} pairs/s \
         ({kernel_speedup:.2}x, floor {GATE_MIN_KERNEL_SPEEDUP}x)"
    );
    assert!(
        kernel_speedup >= GATE_MIN_KERNEL_SPEEDUP,
        "packed kernel regressed: {kernel_speedup:.2}x < {GATE_MIN_KERNEL_SPEEDUP}x over scalar"
    );

    let full = synth::dataset_spec("lineitem").unwrap().generate(30_000);
    let rm = full.row_major();
    let pairs = scattered_pairs(&full, 1_000_000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut baseline: Option<String> = None;
    let mut batch_pps = Vec::new();
    for workers in [1usize, 2, 4, 8].into_iter().filter(|&w| w <= cores) {
        let algo = EulerFd::with_config(EulerFdConfig::default().with_threads(workers));
        let start = Instant::now();
        let fds = algo.discover(&full);
        let wall_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::hint::black_box(rm.agree_sets_batch(&pairs, workers).len());
        let pps = pairs.len() as f64 / start.elapsed().as_secs_f64();
        let canon = canonical_fds(&fds);
        let identical_fds = *baseline.get_or_insert_with(|| canon.clone()) == canon;
        println!(
            "gate: {workers} worker(s): wall {wall_s:.3}s, batch {pps:.0} pairs/s, \
             identical_fds={identical_fds}"
        );
        assert!(identical_fds, "{workers} workers disagreed with 1 worker on the FD set");
        batch_pps.push(pps);
    }

    if cores < 2 {
        println!(
            "gate: scaling floor skipped ({cores} core available; \
             multi-worker throughput would measure oversubscription)"
        );
        return;
    }
    let ratio = batch_pps[1] / batch_pps[0];
    println!("gate: 2-worker sampling {ratio:.2}x over 1-worker (floor {GATE_MIN_2WORKER_SPEEDUP}x)");
    assert!(
        ratio >= GATE_MIN_2WORKER_SPEEDUP,
        "2-worker sampling scaled only {ratio:.2}x (< {GATE_MIN_2WORKER_SPEEDUP}x) on a {cores}-core host"
    );
}

/// At 0.1% / 1% / 5% row deltas (half inserts from a held-out tail of the
/// same generator run, half evenly spaced deletes) the [`DeltaEngine`]'s FD
/// set must be byte-identical to a cold rebuild, and the 1% point must cost
/// at most [`GATE_MAX_DELTA_RATIO`] of the cold wall.
#[test]
#[ignore = "timing gate; run with --release -- --ignored"]
fn delta_gate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BASE_ROWS: usize = 8_000;
    const THREADS: usize = 4;
    let max_k = (BASE_ROWS as f64 * DELTA_FRACS[DELTA_FRACS.len() - 1]).ceil() as usize;
    let source = synth::dataset_spec("lineitem").unwrap().generate(BASE_ROWS + max_k);
    // A raw column slice keeps labels verbatim, so the held-out tail rows
    // share the base's label space (`head()` would re-encode and break it).
    let base = Relation::from_encoded_columns(
        format!("lineitem[delta-base rows={BASE_ROWS}]"),
        source.column_names().to_vec(),
        (0..source.n_attrs())
            .map(|a| source.column(a as u16)[..BASE_ROWS].to_vec())
            .collect(),
    );

    let mut cold_build_s = f64::INFINITY;
    let mut one_pct_ratio = None;
    for &frac in &DELTA_FRACS {
        let k = ((BASE_ROWS as f64 * frac).round() as usize).max(1);
        let inserts: Vec<Vec<u32>> = (BASE_ROWS..BASE_ROWS + k)
            .map(|r| (0..source.n_attrs()).map(|a| source.label(r as RowId, a as u16)).collect())
            .collect();
        let deletes: Vec<RowId> =
            (0..k).map(|i| (i as u64 * BASE_ROWS as u64 / k as u64) as RowId).collect();

        let start = Instant::now();
        let mut engine = DeltaEngine::new(base.clone(), THREADS);
        cold_build_s = cold_build_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let report = engine.apply_delta(&inserts, &deletes);
        let incremental_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let cold = DeltaEngine::new(engine.relation().clone(), THREADS);
        let cold_s = start.elapsed().as_secs_f64();

        let ratio = incremental_s / cold_s;
        let identical_fds = canonical_fds(&engine.fds()) == canonical_fds(&cold.fds());
        println!(
            "delta: {:>5.1}% (+{} / -{} rows): incremental {incremental_s:.4}s vs cold \
             {cold_s:.4}s ({:.1}% of cold, {:.1}x), revived {}, identical_fds={identical_fds}",
            frac * 100.0,
            report.rows_inserted,
            report.rows_deleted,
            ratio * 100.0,
            cold_s / incremental_s,
            report.candidates_revived,
        );
        assert!(identical_fds, "incremental and cold FD sets diverged at the {frac} delta");
        if frac == 0.01 {
            one_pct_ratio = Some(ratio);
        }
    }
    println!("gate: delta base {BASE_ROWS} rows, cold build {cold_build_s:.3}s");
    let ratio = one_pct_ratio.expect("the 1% point is always measured");
    println!(
        "gate: 1% delta at {:.1}% of cold wall (ceiling {:.0}%)",
        ratio * 100.0,
        GATE_MAX_DELTA_RATIO * 100.0
    );
    assert!(
        ratio <= GATE_MAX_DELTA_RATIO,
        "1% delta took {:.1}% of the cold wall (gate: <= {:.0}%)",
        ratio * 100.0,
        GATE_MAX_DELTA_RATIO * 100.0
    );
}
