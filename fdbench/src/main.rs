//! fdbench: one seeded benchmark for batch FD discovery (CSV bytes → FD set)
//! and for the served line protocol (request → reply), end to end and layer
//! by layer. `run.py` builds this binary and runs it once per workload; see
//! README.md for the workloads and for what each metric should move.
//!
//! ```text
//! fdbench --workload <name> --seed <n> --seconds <n> --trace <0|1> --out-dir <dir>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod batch;
mod report;
mod serve;
mod util;

use report::Report;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// What every workload receives from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Per-layer run: the first half of the window runs untraced, the second
    /// half with telemetry recording on.
    pub trace: bool,
    /// Served CSV files and the trace file go here.
    pub out_dir: PathBuf,
}

type Workload = fn(&Ctx) -> Report;

const WORKLOADS: [(&str, Workload); 5] = [
    ("tall", batch::tall),
    ("wide", batch::wide),
    ("small-clusters", batch::small_clusters),
    ("serve-read", serve::serve_read),
    ("serve-write", serve::serve_write),
];

fn usage(msg: &str) -> ! {
    eprintln!("fdbench: {msg}");
    eprintln!(
        "usage: fdbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] --out-dir DIR",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15u64;
    let mut trace = false;
    let mut out_dir = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            usage(&format!("missing value for {}", pair[0]))
        };
        let bad = || -> ! { usage(&format!("bad value '{value}' for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let Some(&(name, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        usage(&format!("unknown workload '{workload}'"))
    };
    let out_dir = out_dir.unwrap_or_else(|| usage("--out-dir is required"));
    if trace && !fd_telemetry::compiled() {
        eprintln!(
            "fdbench: --trace 1 needs the telemetry build (cargo build --features telemetry)"
        );
        exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("fdbench: cannot create {}: {e}", out_dir.display());
        exit(1);
    }
    let ctx = Ctx {
        seed,
        window: Duration::from_secs(seconds),
        trace,
        out_dir,
    };
    let report = run(&ctx);
    report.print(name, &ctx);
}
