//! The batch workloads: CSV bytes in, FD set out, through the library.
//!
//! Every timed run parses its own seeded permutation of one generated table.
//! EulerFD's sampling depends on row order, so a run's median averages over
//! row orders instead of resting on the luck of one.

use crate::report::{Report, ServerLayers, Tracer};
use crate::util::{csv_bytes, fds_fingerprint, mean, median, quantile, ratio, secs_since, Rng};
use crate::Ctx;
use eulerfd::{EulerFd, EulerFdConfig};
use fd_baselines::HyFd;
use fd_core::{Accuracy, Budget, FdSet, Termination};
use fd_relation::{read_csv, sampling_clusters_parallel, synth, CsvOptions, FdAlgorithm, Relation};
use fd_server::protocol::render_fds;
use std::hint::black_box;
use std::time::Instant;

/// Kernel threads of every run. One: on the two-core reference host the
/// second core comes and goes with the host's other load, so at two threads
/// a median measured that load (wide moved between 0.70 and 1.0 s per run
/// from one process to the next, against 1% at one thread).
const THREADS: usize = 1;
/// Fewest timed runs, however long they take.
const MIN_RUNS: usize = 3;
/// Timed runs repeated after the window, to check that the same input gives
/// the same FD set and to score F1 against the exact cover.
const CHECKED_RUNS: usize = 3;

/// lineitem, 40 000 × 16: ingest and sampling over large clusters. At
/// 120 000 rows the median moved by up to 30% from one process to the next.
pub fn tall(ctx: &Ctx) -> Report {
    run(ctx, "lineitem", 40_000)
}

/// plista, 1 001 × 63: inversion of a large cover.
pub fn wide(ctx: &Ctx) -> Report {
    run(ctx, "plista", 1_001)
}

/// fd-reduced-30, 20 000 × 30: sampling over small clusters.
pub fn small_clusters(ctx: &Ctx) -> Report {
    run(ctx, "fd-reduced-30", 20_000)
}

/// The input of run `i`: the table's rows in the run's own seeded order.
fn input(table: &Relation, seed: u64, i: usize) -> Vec<u8> {
    let mut order: Vec<usize> = (0..table.n_rows()).collect();
    Rng::new(seed, i as u64).shuffle(&mut order);
    csv_bytes(table, &order)
}

/// One CSV bytes → FD set run. Returns the FD set with the seconds spent
/// reading the CSV and in total.
fn discover(euler: &EulerFd, csv: &[u8]) -> Result<(FdSet, f64, f64), String> {
    let start = Instant::now();
    let relation = read_csv(csv, "input", &CsvOptions::default()).map_err(|e| e.to_string())?;
    let read_s = secs_since(start);
    let (fds, report) = euler.discover_budgeted(&relation, &Budget::unlimited());
    let total_s = secs_since(start);
    if report.termination != Termination::Converged {
        return Err(format!("stopped early: {}", report.termination.as_str()));
    }
    Ok((fds, read_s, total_s))
}

/// What is kept of a timed run. The FD set is dropped at once, so the peak
/// memory is that of one run.
struct Timed {
    i: usize,
    csv_mb: f64,
    read_s: f64,
    total_s: f64,
    fingerprint: u64,
    traced: bool,
}

fn run(ctx: &Ctx, dataset: &str, rows: usize) -> Report {
    let mut report = Report::default();
    let table = synth::dataset_spec(dataset)
        .expect("dataset is registered")
        .generate(rows);
    let euler = EulerFd::with_config(EulerFdConfig::default().with_threads(THREADS));
    let epoch = Instant::now();
    let tracer = Tracer::new(ctx.trace);
    let mut timed: Vec<Timed> = Vec::new();
    let mut measure = |report: &mut Report, i: usize, csv: &[u8], traced: bool| {
        if traced {
            tracer.resume();
        }
        let start_us = epoch.elapsed().as_secs_f64() * 1e6;
        let result = discover(&euler, csv);
        tracer.pause();
        let (fds, read_s, total_s) = match result {
            Ok(run) => run,
            Err(e) => return report.fail(format!("run {i}: {e}")),
        };
        if traced {
            let (read_end, end) = (start_us + read_s * 1e6, start_us + total_s * 1e6);
            let fields = vec![("fds", fds.len() as f64)];
            let root = report.span("run", i as u64, None, (start_us, end), fields);
            report.span(
                "csv.read",
                i as u64,
                Some(root),
                (start_us, read_end),
                Vec::new(),
            );
            report.span(
                "euler.discover",
                i as u64,
                Some(root),
                (read_end, end),
                Vec::new(),
            );
        }
        let csv_mb = csv.len() as f64 / 1e6;
        let fingerprint = fds_fingerprint(&fds);
        timed.push(Timed {
            i,
            csv_mb,
            read_s,
            total_s,
            fingerprint,
            traced,
        });
    };

    // Run 0 warms allocator and caches, untimed and untraced.
    measure(&mut report, 0, &input(&table, ctx.seed, 0), false);
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let (half, end) = (start + ctx.window / 2, start + ctx.window);
    let mut i = 1;
    while Instant::now() < end || i <= MIN_RUNS {
        let prepared = Instant::now();
        let csv = input(&table, ctx.seed, i);
        setup_s.push(secs_since(prepared));
        report.attempted += 1;
        measure(&mut report, i, &csv, ctx.trace && Instant::now() >= half);
        i += 1;
    }
    let peak_rss_mb = crate::util::peak_rss_mb();
    let traced = tracer.finish();

    // Checks, after the window: repeat the first timed runs and score them
    // against the exact cover.
    let truth = HyFd::default().discover(&table);
    let mut f1 = Vec::new();
    let mut render_ms = Vec::new();
    for run in timed.iter().filter(|r| (1..=CHECKED_RUNS).contains(&r.i)) {
        match discover(&euler, &input(&table, ctx.seed, run.i)) {
            Ok((fds, ..)) => {
                report.check(fds_fingerprint(&fds) == run.fingerprint, || {
                    format!(
                        "run {}: the same input gave another FD set on repeat",
                        run.i
                    )
                });
                f1.push(Accuracy::of(&fds, &truth).f1);
                let rendered = Instant::now();
                black_box(render_fds(&fds));
                render_ms.push(secs_since(rendered) * 1e3);
            }
            Err(e) => report.fail(format!("repeat of run {}: {e}", run.i)),
        }
    }

    // End to end, over the untraced timed runs.
    let op_s: Vec<f64> = timed
        .iter()
        .filter(|r| r.i > 0 && !r.traced)
        .map(|r| r.total_s)
        .collect();
    report.e2e("op_ms_p50", median(&op_s) * 1e3, "ms", op_s.len());
    report.e2e(
        "ops_per_s",
        ratio(op_s.len() as f64, op_s.iter().sum()),
        "1/s",
        op_s.len(),
    );
    report.e2e("f1", mean(&f1), "ratio", f1.len());
    report.e2e("setup_s", median(&setup_s), "s", setup_s.len());
    report.e2e("peak_rss_mb", peak_rss_mb, "MiB", 1);
    report.info("op_ms_p90", quantile(&op_s, 0.9) * 1e3, "ms", op_s.len());

    let Some(traced) = traced else { return report };
    let runs: Vec<&Timed> = timed.iter().filter(|r| r.traced).collect();
    let n = runs.len();
    let avg = |f: fn(&Timed) -> f64| mean(&runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let (read_s, total_s) = (avg(|r| r.read_s), avg(|r| r.total_s));
    report.layer("csv.read_s", read_s, "s", n);
    report.layer("csv.mb_per_s", ratio(avg(|r| r.csv_mb), read_s), "MB/s", n);
    let clusters_s: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(sampling_clusters_parallel(&table, THREADS));
            black_box(table.row_major());
            secs_since(t)
        })
        .collect();
    report.layer(
        "partition.clusters_s",
        median(&clusters_s),
        "s",
        clusters_s.len(),
    );
    let (sample_s, invert_s) = traced.euler_layers(&mut report, n);
    let other_s = total_s - read_s - sample_s - invert_s;
    report.layer("driver.other_s", other_s, "s", n);
    report.layer(
        "protocol.render_fds_ms",
        mean(&render_ms),
        "ms",
        render_ms.len(),
    );
    ServerLayers::default().report(&mut report);
    let traced_op: Vec<f64> = runs.iter().map(|r| r.total_s).collect();
    report.layer(
        "tracing_overhead_pct",
        100.0 * (ratio(median(&traced_op), median(&op_s)) - 1.0),
        "%",
        traced_op.len(),
    );
    report.layer_table = vec![
        ("csv.read", read_s),
        ("sampler", sample_s),
        ("cover.invert", invert_s),
        ("driver.other", other_s),
    ];
    report.layer_refs = vec![
        ("traced op_ms_p50", median(&traced_op)),
        ("untraced op_ms_p50", median(&op_s)),
    ];
    report.telemetry = Some(traced.delta);
    report
}
