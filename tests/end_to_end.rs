//! End-to-end pipeline tests: CSV on disk → dictionary-encoded relation →
//! discovery → verification, exactly the path a downstream user runs.

use eulerfd_suite::algo::EulerFd;
use eulerfd_suite::baselines::HyFd;
use eulerfd_suite::core::{Accuracy, AttrSet, Budget, Fd};
use eulerfd_suite::relation::{
    read_csv, read_csv_file, synth, verify_fds, write_csv, CsvOptions, FdAlgorithm,
};

#[test]
fn csv_roundtrip_preserves_discovery_results() {
    let relation = synth::dataset_spec("breast-cancer").unwrap().generate(699);
    // Serialize the encoded relation as CSV…
    let header = relation.column_names().to_vec();
    let rows = (0..relation.n_rows()).map(|t| {
        (0..relation.n_attrs())
            .map(|a| format!("v{}", relation.label(t as u32, a as u16)))
            .collect::<Vec<String>>()
    });
    let mut buf = Vec::new();
    write_csv(&mut buf, &header, rows, b',').unwrap();
    // …read it back and discover on both forms.
    let reread = read_csv(&buf[..], "roundtrip", &CsvOptions::default()).unwrap();
    assert_eq!(reread.n_rows(), relation.n_rows());
    assert_eq!(reread.n_attrs(), relation.n_attrs());
    let a = EulerFd::new().discover(&relation);
    let b = EulerFd::new().discover(&reread);
    // Dictionary labels differ but equality structure is identical, so the
    // discovered FDs must match exactly.
    assert_eq!(a, b);
}

#[test]
fn csv_file_to_verified_fds() {
    let dir = std::env::temp_dir().join("eulerfd-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("patients.csv");
    std::fs::write(
        &path,
        "name,age,bp,gender,medicine\n\
         Kelly,60,High,Female,drugA\n\
         Jack,32,Low,Male,drugC\n\
         Nancy,28,Normal,Female,drugX\n\
         Lily,49,Low,Female,drugY\n\
         Ophelia,32,Normal,Female,drugX\n\
         Anna,49,Normal,Female,drugX\n\
         Esther,32,Low,Female,drugC\n\
         Richard,41,Normal,Male,drugY\n\
         Taylor,25,Low,Gender-queer,drugC\n",
    )
    .unwrap();

    let relation = read_csv_file(&path, &CsvOptions::default()).unwrap();
    assert_eq!(relation.name(), "patients");
    let fds = EulerFd::new().discover(&relation);
    assert!(verify_fds(&relation, &fds).is_empty());
    // Example 1 of the paper on the file-loaded data: {age, bp} → medicine.
    assert!(fds.contains(&Fd::new(AttrSet::from_attrs([1u16, 2]), 4)));
}

#[test]
fn medium_dataset_f1_against_exact_reference() {
    // A mid-size workload through the whole stack: generate, discover with
    // the approximate algorithm, score against an exact baseline.
    let relation = synth::dataset_spec("abalone").unwrap().generate(4177);
    let truth = HyFd::default().discover(&relation);
    let (found, report) = EulerFd::new().discover_budgeted(&relation, &Budget::unlimited());
    let acc = Accuracy::of(&found, &truth);
    assert!(acc.f1 >= 0.9, "EulerFD F1 on abalone-shaped data: {:?}", acc);
    // Sampling must have actually sampled (not fallen through to a trivial
    // answer): the negative cover and pair counters are populated.
    assert!(report.sampler.pairs_compared > 1000);
    assert!(report.ncover_size > 10);
}

#[test]
fn scaled_registry_datasets_discover_without_panicking() {
    // Smoke-run EulerFD over every registry dataset at a small scale; the
    // results must always be structurally minimal covers. Wide schemas are
    // projected down: at tiny row counts the *true* cover of a 100+-column
    // relation explodes combinatorially (the paper's flight/uniprot rows in
    // Table III run to 10⁵–10⁶ FDs), which is full-scale-harness territory,
    // not smoke-test territory.
    for name in synth::dataset_names() {
        let spec = synth::dataset_spec(name).unwrap();
        let rows = spec.default_rows.min(150);
        let relation = spec.generate(rows).project_prefix(24);
        let fds = EulerFd::new().discover(&relation);
        assert!(fds.is_minimal_cover(), "{name}: non-minimal cover");
    }
}
