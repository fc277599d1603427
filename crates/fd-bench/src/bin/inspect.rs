//! Diagnostic tool: run EulerFD and AID-FD on one dataset and dump the full
//! run reports (pairs compared, growth-rate histories, cover sizes) next to
//! the accuracy scores. Not part of the paper's tables — this is the
//! debugging lens for the double cycle.
//!
//! ```text
//! cargo run --release -p fd-bench --bin inspect -- <dataset> [rows]
//! ```

use eulerfd::EulerFd;
use fd_baselines::AidFd;
use fd_bench::ground_truth;
use fd_core::{Accuracy, Budget};
use fd_relation::synth::dataset_spec;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "abalone".to_string());
    let spec = dataset_spec(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset {name}");
        std::process::exit(2);
    });
    let rows: usize = args
        .next()
        .map(|s| s.parse().expect("rows must be a number"))
        .unwrap_or(spec.default_rows);
    let relation = spec.generate(rows);
    println!("{name}: {} rows x {} cols", relation.n_rows(), relation.n_attrs());

    let truth = ground_truth(&relation);
    if let Some(t) = &truth {
        println!("ground truth: {} FDs", t.len());
    }

    let start = Instant::now();
    let (euler_fds, report) = EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
    let euler_secs = start.elapsed().as_secs_f64();
    println!("\nEulerFD: {} FDs in {euler_secs:.3}s", euler_fds.len());
    println!("  pairs compared : {}", report.sampler.pairs_compared);
    println!("  samples        : {}", report.sampler.samples);
    println!(
        "  clusters       : {} total / {} retired / {} exhausted",
        report.sampler.clusters_total,
        report.sampler.clusters_retired,
        report.sampler.clusters_exhausted
    );
    println!("  inversions     : {}", report.inversions);
    println!("  ncover size    : {}", report.ncover_size);
    println!("  invert churn   : +{} -{}", report.invert_delta.added, report.invert_delta.removed);
    let fmt = |v: &[f64]| {
        v.iter().map(|g| format!("{g:.4}")).collect::<Vec<_>>().join(" ")
    };
    println!("  GR_Ncover hist : {}", fmt(&report.gr_ncover));
    println!("  GR_Pcover hist : {}", fmt(&report.gr_pcover));
    if let Some(t) = &truth {
        println!("  accuracy       : {:?}", Accuracy::of(&euler_fds, t));
        // How wrong are the false positives? Sampling errors should be
        // near-FDs (tiny g3), per Section V-B's "rare non-FDs" analysis.
        let false_pos: fd_core::FdSet =
            euler_fds.iter().filter(|fd| !t.contains(fd)).copied().collect();
        if !false_pos.is_empty() {
            println!("  g3 of FPs      : {:?}", fd_relation::g3_report(&relation, &false_pos));
        }
    }

    let start = Instant::now();
    let (aid_fds, stats) = AidFd::default().discover_with_stats(&relation);
    let aid_secs = start.elapsed().as_secs_f64();
    println!("\nAID-FD: {} FDs in {aid_secs:.3}s", aid_fds.len());
    println!("  pairs compared : {}", stats.pairs_compared);
    println!("  rounds         : {}", stats.rounds);
    println!("  ncover size    : {}", stats.ncover_size);
    if let Some(t) = &truth {
        println!("  accuracy       : {:?}", Accuracy::of(&aid_fds, t));
    }
}
