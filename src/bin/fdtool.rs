//! `fdtool` — command-line front end for the EulerFD suite.
//!
//! ```text
//! fdtool discover <file.csv> [--algo euler|aid|hyfd|tane|fdep|fastfds] [--sep ;] [--no-header]
//!                            [--budget-ms N] [--on-ragged error|skip|pad]
//!                            [--metrics-out <path>] [--metrics-summary]
//!                            [--delta-csv <rows.csv>] [--delete-rows 3,17,99]
//! fdtool keys     <file.csv> [--sep ;] [--no-header]
//! fdtool profile  <file.csv>            # column statistics
//! fdtool compare  <file.csv>            # all algorithms side by side
//! fdtool generate <dataset> <rows> <out.csv>   # materialize a benchmark dataset
//! fdtool datasets                       # list generatable datasets
//! fdtool serve    [--socket PATH] [--load name=file.csv ...] [--workers N]
//!                 [--budget-ms N] [--sep C] [--no-header]
//!                 [--metrics-interval-ms N] [--prom-out PATH] [--slow-ms N]
//! fdtool top      <socket> [--interval-ms N] [--iterations N]
//! ```
//!
//! This is the "DMS-shaped" entry point: point it at a CSV and get the
//! dependency structure, candidate keys, or a cross-algorithm comparison.
//! `--budget-ms` gives discovery a wall-clock deadline (anytime execution:
//! a tripped run reports its sound partial result); `--on-ragged` chooses
//! what to do with rows whose field count disagrees with the header.
//!
//! `--delta-csv <rows.csv>` and/or `--delete-rows <ids>` switch `discover`
//! into incremental mode: the base table is discovered cold with the exact
//! delta-maintenance engine, the delta is applied incrementally (new rows
//! encoded against the base table's value dictionaries, deletes by 0-based
//! row id), and the timings of the incremental repair and a cold re-run on
//! the mutated table are printed side by side, with an identity check on
//! the two FD sets.
//!
//! `serve` turns the binary into an always-on discovery server speaking the
//! [`eulerfd_suite::server::protocol`] line protocol — one request per line,
//! one JSON object per response line — over stdin/stdout by default or a
//! Unix socket with `--socket`. `--load name=file.csv` registers datasets at
//! startup; clients can also `register` at runtime.
//!
//! `--metrics-out <path>` writes one versioned `fd-telemetry/v1` JSON
//! snapshot of every counter, histogram, and cycle-trace event the run
//! emitted; `--metrics-summary` prints the human-readable table to stderr.
//! Both switch recording on for the run; the binary must be built with
//! `--features telemetry` for the snapshot to carry data (an untelemetered
//! build writes a valid, empty snapshot with `"compiled": false`).

use eulerfd::{DeltaEngine, EulerFd};
use eulerfd_suite::baselines::{AidFd, FastFds, Fdep, HyFd, Tane};
use eulerfd_suite::core::{bcnf_violations, candidate_keys, Accuracy, Budget, FdSet, Termination};
use eulerfd_suite::relation::synth::{dataset_names, dataset_spec};
use eulerfd_suite::relation::{
    read_csv_file_with_dictionaries, read_csv_file_with_report, read_csv_rows_file, write_csv,
    CsvOptions, FdAlgorithm, RaggedPolicy, Relation,
};
use std::io::Write;
use std::process::exit;
use std::time::{Duration, Instant};

/// Writes bulk output, exiting quietly when the consumer (e.g. `head`)
/// closes the pipe instead of panicking on `println!`.
fn emit_lines<I: IntoIterator<Item = String>>(lines: I) {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for line in lines {
        if writeln!(out, "{line}").is_err() {
            exit(0);
        }
    }
    if out.flush().is_err() {
        exit(0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        Some("discover") => discover(&args[1..]),
        Some("keys") => keys(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("generate") => generate(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("datasets") => {
            emit_lines(dataset_names().into_iter().filter_map(dataset_spec).map(|spec| {
                format!(
                    "{:<16} {} cols, paper {} rows, default {} rows",
                    spec.name, spec.paper_cols, spec.paper_rows, spec.default_rows
                )
            }));
        }
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  fdtool discover <file.csv> [--algo euler|aid|hyfd|tane|fdep|fastfds] [--sep C] [--no-header] [--budget-ms N] [--on-ragged error|skip|pad] [--metrics-out PATH] [--metrics-summary] [--delta-csv ROWS.csv] [--delete-rows 3,17,99]\n  fdtool keys <file.csv> [--sep C] [--no-header] [--budget-ms N] [--on-ragged P]\n  fdtool profile <file.csv> [--sep C] [--no-header] [--on-ragged P]\n  fdtool compare <file.csv> [--sep C] [--no-header] [--budget-ms N] [--on-ragged P] [--metrics-out PATH] [--metrics-summary]\n  fdtool generate <dataset> <rows> <out.csv>\n  fdtool datasets\n  fdtool serve [--socket PATH] [--load name=file.csv ...] [--workers N] [--budget-ms N] [--sep C] [--no-header] [--metrics-interval-ms N] [--prom-out PATH] [--slow-ms N]\n  fdtool top <socket> [--interval-ms N] [--iterations N]"
    );
    exit(2);
}

struct FileArgs {
    path: String,
    options: CsvOptions,
    algo: String,
    deadline: Option<Duration>,
    metrics_out: Option<String>,
    metrics_summary: bool,
    delta_csv: Option<String>,
    delete_rows: Vec<u32>,
}

impl FileArgs {
    /// Switches telemetry recording on when either metrics flag was given.
    fn arm_metrics(&self) {
        if self.metrics_out.is_some() || self.metrics_summary {
            if !fd_telemetry::compiled() {
                eprintln!(
                    "note: this build has no `telemetry` feature; the snapshot will be empty"
                );
            }
            fd_telemetry::set_enabled(true);
        }
    }

    /// Serializes/prints the telemetry snapshot per the metrics flags.
    fn emit_metrics(&self) {
        if self.metrics_out.is_none() && !self.metrics_summary {
            return;
        }
        let snap = fd_telemetry::snapshot();
        if let Some(path) = &self.metrics_out {
            if let Err(e) = std::fs::write(path, snap.to_json()) {
                eprintln!("cannot write metrics to {path}: {e}");
                exit(1);
            }
            eprintln!("metrics written to {path}");
        }
        if self.metrics_summary {
            eprint!("{}", snap.summary());
        }
    }
}

/// Parses a `--sep` value: exactly one byte, or exit 2 with usage. The old
/// behaviour silently fell back to `,` on an empty or multi-byte value,
/// which made `--sep ";;"` parse the file with the wrong separator and
/// report nonsense FDs instead of failing fast.
fn parse_sep(v: &str) -> u8 {
    match v.as_bytes() {
        [b] => *b,
        _ => {
            eprintln!("--sep takes exactly one byte, got '{v}'");
            usage()
        }
    }
}

fn parse_file_args(args: &[String]) -> FileArgs {
    let mut path = None;
    let mut options = CsvOptions::default();
    let mut algo = "euler".to_string();
    let mut deadline = None;
    let mut metrics_out = None;
    let mut metrics_summary = false;
    let mut delta_csv = None;
    let mut delete_rows = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--delta-csv" => delta_csv = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--delete-rows" => {
                let v = it.next().unwrap_or_else(|| usage());
                delete_rows = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<u32>().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--sep" => {
                options.separator = parse_sep(it.next().unwrap_or_else(|| usage()));
            }
            "--no-header" => options.has_header = false,
            "--algo" => algo = it.next().unwrap_or_else(|| usage()).clone(),
            "--budget-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                let ms: u64 = v.parse().unwrap_or_else(|_| usage());
                deadline = Some(Duration::from_millis(ms));
            }
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-summary" => metrics_summary = true,
            "--on-ragged" => {
                options.on_ragged = match it.next().unwrap_or_else(|| usage()).as_str() {
                    "error" => RaggedPolicy::Error,
                    "skip" => RaggedPolicy::Skip,
                    "pad" => RaggedPolicy::Pad,
                    _ => usage(),
                };
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    FileArgs {
        path: path.unwrap_or_else(|| usage()),
        options,
        algo,
        deadline,
        metrics_out,
        metrics_summary,
        delta_csv,
        delete_rows,
    }
}

fn load(path: &str, options: &CsvOptions) -> Relation {
    match read_csv_file_with_report(path, options) {
        Ok((r, report)) => {
            if !report.issues.is_empty() {
                eprintln!(
                    "{path}: kept {} of {} data rows; {} shape issue(s):",
                    report.rows_kept,
                    report.rows_read,
                    report.issues.len()
                );
                for issue in report.issues.iter().take(5) {
                    eprintln!(
                        "  row {}: {} fields, expected {} -> {:?}",
                        issue.row, issue.found, issue.expected, issue.action
                    );
                }
                if report.issues.len() > 5 {
                    eprintln!("  ... and {} more", report.issues.len() - 5);
                }
            }
            r
        }
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            exit(1);
        }
    }
}

/// Runs one algorithm under `budget`. Algorithms without a budgeted path
/// (Fdep, HyFD, AID-FD) run to completion and the deadline is advisory.
fn run_algo(name: &str, relation: &Relation, budget: &Budget) -> (FdSet, Termination) {
    let note_unbudgeted = |algo: &str| {
        if !budget.is_unlimited() {
            eprintln!("note: {algo} has no budgeted path; --budget-ms is ignored for it");
        }
    };
    match name {
        "euler" => {
            let (fds, report) = EulerFd::new().discover_budgeted(relation, budget);
            (fds, report.termination)
        }
        "tane" => Tane::new().discover_budgeted(relation, budget),
        "fastfds" => FastFds::new().discover_budgeted(relation, budget),
        "aid" => {
            note_unbudgeted("aid");
            (AidFd::default().discover(relation), Termination::Converged)
        }
        "hyfd" => {
            note_unbudgeted("hyfd");
            (HyFd::default().discover(relation), Termination::Converged)
        }
        "fdep" => {
            note_unbudgeted("fdep");
            (Fdep::new().discover(relation), Termination::Converged)
        }
        other => {
            eprintln!("unknown algorithm {other}");
            exit(2);
        }
    }
}

fn discover(args: &[String]) {
    let fa = parse_file_args(args);
    if fa.delta_csv.is_some() || !fa.delete_rows.is_empty() {
        discover_delta(&fa);
        return;
    }
    fa.arm_metrics();
    let relation = load(&fa.path, &fa.options);
    eprintln!(
        "{}: {} rows x {} attributes, algorithm {}",
        relation.name(),
        relation.n_rows(),
        relation.n_attrs(),
        fa.algo
    );
    let start = Instant::now();
    let (fds, termination) = run_algo(&fa.algo, &relation, &Budget::from_deadline(fa.deadline));
    if termination.is_partial() {
        eprintln!(
            "{} FDs in {:.3}s (budget tripped: {termination}; partial result)",
            fds.len(),
            start.elapsed().as_secs_f64()
        );
    } else {
        eprintln!("{} FDs in {:.3}s", fds.len(), start.elapsed().as_secs_f64());
    }
    fa.emit_metrics();
    emit_lines(fds.iter().map(|fd| fd.display(relation.column_names()).to_string()));
}

/// Incremental discovery: cold run on the base table, then an in-place
/// delta repair, timed against a cold re-run on the mutated table.
fn discover_delta(fa: &FileArgs) {
    if fa.algo != "euler" {
        eprintln!("--delta-csv/--delete-rows use the exact incremental EulerFD engine; --algo {} is not supported", fa.algo);
        exit(2);
    }
    fa.arm_metrics();
    let (relation, mut dicts, report) =
        match read_csv_file_with_dictionaries(&fa.path, &fa.options) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error reading {}: {e}", fa.path);
                exit(1);
            }
        };
    if !report.issues.is_empty() {
        eprintln!(
            "{}: kept {} of {} data rows ({} shape issue(s))",
            fa.path,
            report.rows_kept,
            report.rows_read,
            report.issues.len()
        );
    }
    eprintln!(
        "{}: {} rows x {} attributes (base table)",
        relation.name(),
        relation.n_rows(),
        relation.n_attrs()
    );
    for &d in &fa.delete_rows {
        if d as usize >= relation.n_rows() {
            eprintln!("--delete-rows: row id {d} is out of range (base table has {} rows)", relation.n_rows());
            exit(2);
        }
    }

    // Encode the delta rows against the base table's dictionaries: known
    // values keep their labels, unseen values get fresh ones, and nulls
    // follow the same token + policy as the base ingestion.
    let mut inserts: Vec<Vec<u32>> = Vec::new();
    if let Some(delta_path) = &fa.delta_csv {
        let (names, rows) = match read_csv_rows_file(delta_path, &fa.options) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error reading {delta_path}: {e}");
                exit(1);
            }
        };
        if names.len() != relation.n_attrs() {
            eprintln!(
                "{delta_path}: {} columns, but the base table has {}",
                names.len(),
                relation.n_attrs()
            );
            exit(2);
        }
        inserts.extend(rows.iter().map(|row| dicts.encode_csv_row(row)));
    }

    let start = Instant::now();
    let mut engine = DeltaEngine::new(relation.clone(), 1);
    let cold_s = start.elapsed().as_secs_f64();
    eprintln!("cold discovery: {} FDs in {cold_s:.3}s", engine.fds().len());

    let start = Instant::now();
    let delta_report = engine.apply_delta(&inserts, &fa.delete_rows);
    let incremental_s = start.elapsed().as_secs_f64();
    eprintln!(
        "delta: +{} rows, -{} rows -> {} rows; {} agree set(s) died, {} fresh, {} candidate(s) revived",
        delta_report.rows_inserted,
        delta_report.rows_deleted,
        engine.relation().n_rows(),
        delta_report.dead_agree_sets,
        delta_report.fresh_agree_sets,
        delta_report.candidates_revived,
    );

    // Reference: what a from-scratch run on the mutated table costs.
    let start = Instant::now();
    let cold_engine = DeltaEngine::new(engine.relation().clone(), 1);
    let recold_s = start.elapsed().as_secs_f64();
    let identical = cold_engine.fds() == engine.fds();
    let fds = engine.fds();
    eprintln!(
        "incremental re-discovery: {} FDs in {incremental_s:.3}s ({:.1}% of the {recold_s:.3}s cold re-run); FD sets {}",
        fds.len(),
        100.0 * incremental_s / recold_s.max(1e-9),
        if identical { "identical" } else { "DIVERGED" },
    );
    fa.emit_metrics();
    if !identical {
        exit(1);
    }
    emit_lines(fds.iter().map(|fd| fd.display(relation.column_names()).to_string()));
}

fn profile_cmd(args: &[String]) {
    let fa = parse_file_args(args);
    let relation = load(&fa.path, &fa.options);
    print!("{}", eulerfd_suite::relation::profile(&relation).render());
}

fn keys(args: &[String]) {
    let fa = parse_file_args(args);
    fa.arm_metrics();
    let relation = load(&fa.path, &fa.options);
    let (fds, termination) = run_algo(&fa.algo, &relation, &Budget::from_deadline(fa.deadline));
    fa.emit_metrics();
    if termination.is_partial() {
        eprintln!("budget tripped ({termination}): keys below reflect a partial FD set");
    }
    let keys = candidate_keys(relation.n_attrs(), &fds);
    println!("candidate keys:");
    for key in &keys {
        println!("  {}", key.display(relation.column_names()));
    }
    let violations = bcnf_violations(relation.n_attrs(), &fds);
    if violations.is_empty() {
        println!("schema is in BCNF under the discovered FDs");
    } else {
        println!("BCNF violations:");
        for fd in &violations {
            println!("  {}", fd.display(relation.column_names()));
        }
    }
}

fn compare(args: &[String]) {
    let fa = parse_file_args(args);
    fa.arm_metrics();
    let relation = load(&fa.path, &fa.options);
    println!(
        "{}: {} rows x {} attributes",
        relation.name(),
        relation.n_rows(),
        relation.n_attrs()
    );
    // HyFD is exact and usually feasible on CLI-sized inputs: use it as the
    // accuracy reference.
    let truth = HyFd::default().discover(&relation);
    println!("{:<8} {:>10} {:>8} {:>7}", "algo", "time[ms]", "FDs", "F1");
    for name in ["tane", "fdep", "fastfds", "hyfd", "aid", "euler"] {
        let start = Instant::now();
        // A budget per run: its deadline clock starts with the run, so
        // every algorithm gets the same allowance.
        let (fds, termination) = run_algo(name, &relation, &Budget::from_deadline(fa.deadline));
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let f1 = Accuracy::of(&fds, &truth).f1;
        let mark = if termination.is_partial() { "*" } else { "" };
        println!("{name:<8} {ms:>10.2} {:>8} {f1:>7.3}{mark}", fds.len());
    }
    fa.emit_metrics();
}

fn generate(args: &[String]) {
    let (name, rows, out) = match args {
        [name, rows, out] => (name, rows, out),
        _ => usage(),
    };
    let spec = dataset_spec(name).unwrap_or_else(|| {
        eprintln!("unknown dataset {name}; run `fdtool datasets` for the list");
        exit(2);
    });
    let rows: usize = rows.parse().unwrap_or_else(|_| usage());
    let relation = spec.generate(rows);
    let header = relation.column_names().to_vec();
    let row_iter = (0..relation.n_rows()).map(|t| {
        (0..relation.n_attrs())
            .map(|a| relation.label(t as u32, a as u16).to_string())
            .collect::<Vec<String>>()
    });
    let file = std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1);
    });
    if let Err(e) = write_csv(file, &header, row_iter, b',') {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    }
    eprintln!("wrote {} rows x {} cols to {out}", relation.n_rows(), relation.n_attrs());
}

/// `fdtool serve`: the always-on discovery server. Speaks the line protocol
/// over stdin/stdout (the default, so `echo "discover d" | fdtool serve
/// --load d=t.csv` works from a shell) or a Unix socket with `--socket`.
fn serve(args: &[String]) {
    use eulerfd_suite::server::{protocol, MetricsConfig, Server, ServerConfig};
    let mut config = ServerConfig::default();
    let mut socket: Option<String> = None;
    let mut preload: Vec<(String, String)> = Vec::new();
    // Metrics default ON at a 1 s sampling window when the build carries the
    // telemetry feature; `--metrics-interval-ms 0` switches the plane off.
    let mut metrics_interval_ms: u64 = 1000;
    let mut prom_out: Option<String> = None;
    let mut slow_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--metrics-interval-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                metrics_interval_ms = v.parse().unwrap_or_else(|_| usage());
            }
            "--prom-out" => prom_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--slow-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                slow_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--load" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (name, path) = spec.split_once('=').unwrap_or_else(|| {
                    eprintln!("--load takes name=file.csv, got '{spec}'");
                    usage()
                });
                preload.push((name.to_owned(), path.to_owned()));
            }
            "--workers" => {
                let v = it.next().unwrap_or_else(|| usage());
                config.workers = v.parse().unwrap_or_else(|_| usage());
                if config.workers == 0 {
                    eprintln!("--workers must be at least 1");
                    usage()
                }
            }
            "--budget-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                let ms: u64 = v.parse().unwrap_or_else(|_| usage());
                config.job_deadline = Some(Duration::from_millis(ms));
            }
            "--sep" => {
                config.csv.separator = parse_sep(it.next().unwrap_or_else(|| usage()));
            }
            "--no-header" => config.csv.has_header = false,
            _ => usage(),
        }
    }
    if metrics_interval_ms > 0 && fd_telemetry::compiled() {
        let mut mc = MetricsConfig {
            interval: Duration::from_millis(metrics_interval_ms),
            prom_out: prom_out.clone(),
            ..MetricsConfig::default()
        };
        if let Some(ms) = slow_ms {
            mc.slow_job_threshold = Duration::from_millis(ms);
        }
        config.metrics = Some(mc);
    } else if prom_out.is_some() || slow_ms.is_some() {
        eprintln!(
            "note: metrics plane is off ({}); --prom-out/--slow-ms have no effect",
            if fd_telemetry::compiled() {
                "--metrics-interval-ms 0"
            } else {
                "build without the `telemetry` feature"
            }
        );
    }
    let server = Server::start(config);
    for (name, path) in &preload {
        match server.register_csv(name, path) {
            Ok(info) => eprintln!(
                "loaded {}: {} rows x {} cols, {} FDs",
                info.name, info.rows, info.cols, info.fd_count
            ),
            Err(e) => {
                eprintln!("cannot load {name} from {path}: {e}");
                exit(1);
            }
        }
    }
    let served = match &socket {
        Some(path) => {
            eprintln!("serving on unix socket {path}");
            protocol::serve_unix(&server, path)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            protocol::serve_lines(&server, stdin.lock(), stdout.lock())
        }
    };
    if let Err(e) = served {
        eprintln!("serve error: {e}");
        exit(1);
    }
}

/// `fdtool top`: a live terminal view of a running server's metrics plane.
/// Connects to the server's Unix socket, issues `metrics` once per interval,
/// and renders the aggregate reply — gauges, the hottest counter rates, and
/// the slow-job ring — as a compact dashboard.
fn top(args: &[String]) {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;
    let mut socket: Option<String> = None;
    let mut interval_ms: u64 = 2000;
    let mut iterations: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                interval_ms = v.parse().unwrap_or_else(|_| usage());
            }
            "--iterations" => {
                let v = it.next().unwrap_or_else(|| usage());
                iterations = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            other if socket.is_none() && !other.starts_with("--") => {
                socket = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    let path = socket.unwrap_or_else(|| usage());
    let stream = UnixStream::connect(&path).unwrap_or_else(|e| {
        eprintln!("cannot connect to {path}: {e}");
        exit(1);
    });
    let mut reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| {
        eprintln!("cannot clone socket: {e}");
        exit(1);
    }));
    let mut writer = stream;
    let mut shown = 0u64;
    loop {
        if writer.write_all(b"metrics\n").and_then(|()| writer.flush()).is_err() {
            eprintln!("server closed the connection");
            exit(1);
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                eprintln!("server closed the connection");
                exit(1);
            }
            Ok(_) => render_top(&path, line.trim()),
        }
        shown += 1;
        if iterations.is_some_and(|n| shown >= n) {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Renders one `metrics` reply as a dashboard frame. The scanning is naive
/// string slicing, not a JSON parser: the suite's replies are single-line,
/// with unescaped keys and flat number-valued `gauges`/`rates` objects,
/// which is all this needs.
fn render_top(path: &str, line: &str) {
    if !line.contains("\"ok\":true") {
        eprintln!("server error: {line}");
        exit(1);
    }
    let windows = scan_number(line, "windows").unwrap_or(0.0);
    let span_ms = scan_number(line, "span_ms").unwrap_or(0.0);
    println!(
        "fd-server top — {path} | {windows:.0} window(s), {:.1}s span",
        span_ms / 1000.0
    );
    if let Some(body) = scan_object(line, "gauges") {
        println!("  gauges:");
        for (k, v) in flat_pairs(body) {
            println!("    {k:<28} {v}");
        }
    }
    if let Some(body) = scan_object(line, "rates") {
        let mut pairs: Vec<(String, f64)> = flat_pairs(body)
            .into_iter()
            .filter_map(|(k, v)| v.parse::<f64>().ok().map(|n| (k, n)))
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        println!("  rates (/s):");
        for (k, v) in pairs.into_iter().take(12) {
            println!("    {k:<28} {v:.1}");
        }
    }
    if let Some(body) = scan_array(line, "slow_jobs") {
        if !body.is_empty() {
            println!("  slow jobs:");
            for entry in body.split("},{") {
                let job = scan_number(entry, "job").unwrap_or(0.0);
                let wall = scan_number(entry, "wall_ms").unwrap_or(0.0);
                let dataset = scan_string(entry, "dataset").unwrap_or("?");
                println!("    job {job:.0} on {dataset}: {wall:.1} ms");
            }
        }
    }
    println!();
}

/// Extracts the body of `"key":{...}` from a single-line reply by brace
/// counting (handles nested objects).
fn scan_object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = line.find(&pat)? + pat.len();
    let mut depth = 1usize;
    for (i, c) in line[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the body of `"key":[...]` (no nested arrays in our replies).
fn scan_array<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":[");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find(']')?;
    Some(&line[start..start + end])
}

/// Reads the number following `"key":`.
fn scan_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the string following `"key":"` up to the closing quote.
fn scan_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Splits a flat `"k":v` object body (number values only) into pairs.
fn flat_pairs(body: &str) -> Vec<(String, String)> {
    body.split(',')
        .filter_map(|item| {
            let (k, v) = item.split_once(':')?;
            Some((k.trim_matches('"').to_string(), v.to_string()))
        })
        .collect()
}
