//! Quickstart: discover the functional dependencies of the paper's running
//! example (the patient dataset of Table I) with EulerFD.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use eulerfd::EulerFd;
use fd_core::Budget;
use fd_relation::{synth, verify_fds};

fn main() {
    // Table I: nine patients, five attributes.
    let relation = synth::patient();
    println!(
        "dataset: {} ({} rows x {} attributes)",
        relation.name(),
        relation.n_rows(),
        relation.n_attrs()
    );

    // Run EulerFD with the paper's default configuration
    // (Th_Ncover = Th_Pcover = 0.01, 6 MLFQ queues). An unlimited budget
    // runs the double cycle to convergence; the report comes with the FDs.
    let algo = EulerFd::new();
    let (fds, report) = algo.discover_budgeted(&relation, &Budget::unlimited());

    println!("\ndiscovered {} non-trivial minimal FDs:", fds.len());
    for fd in &fds {
        println!("  {}", fd.display(relation.column_names()));
    }

    println!("\nrun report:");
    println!("  tuple pairs compared : {}", report.sampler.pairs_compared);
    println!("  sampling calls       : {}", report.sampler.samples);
    println!("  inversion phases     : {}", report.inversions);
    println!("  negative cover size  : {}", report.ncover_size);

    // On nine rows sampling exhausts all evidence, so the result is exact:
    // every reported FD holds on the full relation and is minimal.
    let problems = verify_fds(&relation, &fds);
    if problems.is_empty() {
        println!("\nverification: all {} FDs hold and are minimal ✓", fds.len());
    } else {
        println!("\nverification problems:");
        for p in &problems {
            println!("  {p}");
        }
    }
}
