//! Tuning walkthrough: how the double cycle's knobs move runtime and
//! accuracy, read off EulerFD's run report — the workflow Section V-F's
//! threshold study automates.
//!
//! ```text
//! cargo run --release --example tuning_report [dataset] [rows]
//! ```

use eulerfd::{EulerFd, EulerFdConfig};
use fd_baselines::HyFd;
use fd_core::{Accuracy, Budget};
use fd_relation::synth::dataset_spec;
use fd_relation::FdAlgorithm;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "abalone".to_string());
    let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3000);
    let spec = dataset_spec(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset {name}");
        std::process::exit(2);
    });
    let relation = spec.generate(rows);
    println!("{}: {} rows x {} cols", name, relation.n_rows(), relation.n_attrs());

    // Exact reference for scoring.
    let truth = HyFd::default().discover(&relation);
    println!("exact cover: {} FDs\n", truth.len());

    println!(
        "{:>8} {:>8}   {:>9} {:>7} {:>10} {:>7} {:>9}",
        "ThNcover", "ThPcover", "time[ms]", "F1", "pairs", "cycles", "ncover"
    );
    for (th_n, th_p) in [
        (0.1, 0.1),
        (0.1, 0.01),
        (0.01, 0.1),
        (0.01, 0.01), // the paper's default
        (0.001, 0.001),
        (0.0, 0.0), // exact limit
    ] {
        let algo = EulerFd::with_config(EulerFdConfig::with_thresholds(th_n, th_p));
        let start = Instant::now();
        let (fds, report) = algo.discover_budgeted(&relation, &Budget::unlimited());
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let f1 = Accuracy::of(&fds, &truth).f1;
        println!(
            "{th_n:>8} {th_p:>8}   {ms:>9.2} {f1:>7.3} {:>10} {:>7} {:>9}",
            report.sampler.pairs_compared,
            report.inversions,
            report.ncover_size,
        );
    }

    // Show the growth-rate traces of the default configuration: the two
    // cycles' stopping signals.
    let (_, report) = EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
    let fmt = |v: &[f64]| {
        v.iter().map(|g| format!("{g:.4}")).collect::<Vec<_>>().join("  ")
    };
    println!("\ndefault run cycle traces:");
    println!("  GR_Ncover per sampling phase : {}", fmt(&report.gr_ncover));
    println!("  GR_Pcover per inversion      : {}", fmt(&report.gr_pcover));
    println!(
        "  clusters: {} total, {} retire events, {} revived",
        report.sampler.clusters_total, report.sampler.clusters_retired, report.sampler.revivals
    );
}
