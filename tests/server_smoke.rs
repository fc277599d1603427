//! Concurrent smoke test for the `fd-server` Session/Catalog layer.
//!
//! The contract under test: N client threads hammering one server with a
//! mix of discover/validate/keys/delta jobs observe **exactly** the results
//! a serial run would produce — byte-identical FD sets (via the protocol's
//! canonical rendering), correct dataset versioning across deltas, and
//! result caching that never serves a stale or partial answer. The
//! cancellation interleavings live in `fd-server`'s unit tests, which hold
//! the dataset lock to force them.

use eulerfd_suite::algo::EulerFd;
use eulerfd_suite::core::Budget;
use eulerfd_suite::relation::synth::dataset_spec;
use eulerfd_suite::relation::Relation;
use eulerfd_suite::server::protocol::render_fds;
use eulerfd_suite::server::{
    DiscoverOptions, JobOutcome, Request, RowsSpec, Server, ServerConfig,
};

fn gen(name: &str, rows: usize) -> Relation {
    dataset_spec(name).unwrap_or_else(|| panic!("unknown dataset {name}")).generate(rows)
}

/// The serial reference: what one unbudgeted in-process run produces.
fn serial_fds(relation: &Relation) -> String {
    let (fds, report) = EulerFd::new().discover_budgeted(relation, &Budget::unlimited());
    assert!(!report.termination.is_partial());
    render_fds(&fds)
}

fn discover(dataset: &str) -> Request {
    Request::Discover { dataset: dataset.into(), options: DiscoverOptions::default() }
}

#[test]
fn concurrent_mixed_jobs_match_serial() {
    let d1 = gen("abalone", 500);
    let d2 = gen("bridges", 108);
    let expected1 = serial_fds(&d1);
    let expected2 = serial_fds(&d2);
    if fd_telemetry::compiled() {
        fd_telemetry::set_enabled(true);
    }

    let server = Server::start(ServerConfig { workers: 4, ..ServerConfig::default() });
    server.register_relation("d1", d1).expect("register d1");
    server.register_relation("d2", d2).expect("register d2");

    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let (expected1, expected2) = (&expected1, &expected2);
            scope.spawn(move || {
                let session = server.session_with_weight(1 + (client % 3) as u32);
                // First discover of d1: may or may not hit the cache
                // depending on sibling progress, but the FDs are the FDs.
                let first = session.run(discover("d1"));
                match &first.outcome {
                    JobOutcome::Discovered { version, fds, termination, .. } => {
                        assert_eq!(*version, 0);
                        assert!(!termination.is_partial(), "unlimited budget tripped");
                        assert_eq!(&render_fds(fds), expected1, "client {client}: d1 diverged");
                    }
                    other => panic!("client {client}: d1 discover -> {other:?}"),
                }
                // Second identical discover: this session already completed
                // one, so the cache holds the converged result — guaranteed
                // hit (no deltas run in this test).
                let again = session.run(discover("d1"));
                match &again.outcome {
                    JobOutcome::Discovered { fds, from_cache, .. } => {
                        assert!(*from_cache, "client {client}: repeat discover missed the cache");
                        assert_eq!(&render_fds(fds), expected1);
                    }
                    other => panic!("client {client}: repeat discover -> {other:?}"),
                }
                match &session.run(discover("d2")).outcome {
                    JobOutcome::Discovered { fds, .. } => {
                        assert_eq!(&render_fds(fds), expected2, "client {client}: d2 diverged");
                    }
                    other => panic!("client {client}: d2 discover -> {other:?}"),
                }
                // Validate + keys ride along on both datasets.
                match &session
                    .run(Request::Validate { dataset: "d1".into(), lhs: vec![0], rhs: 1 })
                    .outcome
                {
                    JobOutcome::Validated { version: 0, .. } => {}
                    other => panic!("client {client}: validate -> {other:?}"),
                }
                match &session.run(Request::Keys { dataset: "d2".into() }).outcome {
                    JobOutcome::Keys { keys, fd_count, .. } => {
                        assert!(!keys.is_empty(), "client {client}: no candidate keys");
                        assert!(*fd_count > 0);
                    }
                    other => panic!("client {client}: keys -> {other:?}"),
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.jobs_completed, (CLIENTS * 5) as u64, "every job ran to completion");
    assert_eq!(stats.jobs_cancelled, 0);
    assert!(
        stats.cache_hits >= CLIENTS as u64,
        "each client's repeat discover must hit: {stats:?}"
    );

    // Per-job telemetry export: scoped snapshots when the feature is
    // compiled in (and armed above), None otherwise.
    let session = server.session();
    let result = session.run(discover("d1"));
    if fd_telemetry::compiled() {
        let snapshot = result.telemetry.as_ref().expect("telemetry armed but not exported");
        let json = snapshot.to_json();
        assert!(json.contains("\"schema\": \"fd-telemetry/v1\""), "{json}");
        fd_telemetry::set_enabled(false);
    } else {
        assert!(result.telemetry.is_none());
    }
}

#[test]
fn delta_invalidates_cache_and_rediscovery_matches_serial() {
    let base = gen("abalone", 400);
    let n_attrs = base.n_attrs();
    // The delta: drop the first 25 rows, append copies of three survivors
    // (in-bounds labels, so the encoded path needs no dictionaries).
    let deletes: Vec<u32> = (0..25).collect();
    let inserts: Vec<Vec<u32>> = [40u32, 41, 42]
        .iter()
        .map(|&t| (0..n_attrs).map(|a| base.label(t, a as u16)).collect())
        .collect();
    let mut mutated = base.clone();
    mutated.apply_delta(&inserts, &deletes);
    let expected_v0 = serial_fds(&base);
    let expected_v1 = serial_fds(&mutated);

    let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.register_relation("d", base).expect("register");
    let session = server.session();

    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version: 0, fds, .. } => assert_eq!(render_fds(fds), expected_v0),
        other => panic!("v0 discover -> {other:?}"),
    }
    match &session
        .run(Request::Delta {
            dataset: "d".into(),
            inserts: RowsSpec::Encoded(inserts),
            deletes,
        })
        .outcome
    {
        JobOutcome::DeltaApplied { version, rows, rows_inserted, rows_deleted } => {
            assert_eq!(*version, 1);
            assert_eq!(*rows, 400 - 25 + 3);
            assert_eq!((*rows_inserted, *rows_deleted), (3, 25));
        }
        other => panic!("delta -> {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.cache_invalidations >= 1, "delta must invalidate the v0 entry: {stats:?}");

    // Post-delta discovery: fresh version, cache miss, byte-identical to a
    // cold serial run on the mutated table.
    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version, fds, from_cache, .. } => {
            assert_eq!(*version, 1);
            assert!(!from_cache, "stale cache served across a delta");
            assert_eq!(render_fds(fds), expected_v1, "post-delta FD set diverged from serial");
        }
        other => panic!("v1 discover -> {other:?}"),
    }
    // And the repeat is a hit at the new version.
    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version: 1, from_cache: true, fds, .. } => {
            assert_eq!(render_fds(fds), expected_v1);
        }
        other => panic!("v1 repeat -> {other:?}"),
    }
    assert_eq!(server.catalog().info("d").expect("info").version, 1);
}

#[test]
fn unknown_dataset_fails_cleanly_and_server_survives() {
    let server = Server::start(ServerConfig::default());
    let session = server.session();
    match &session.run(discover("ghost")).outcome {
        JobOutcome::Failed { error } => assert!(error.contains("unknown dataset"), "{error}"),
        other => panic!("ghost discover -> {other:?}"),
    }
    // The failure counts as completed work and the server keeps serving.
    server.register_relation("tiny", gen("iris", 150)).expect("register");
    match &session.run(discover("tiny")).outcome {
        JobOutcome::Discovered { termination, .. } => assert!(!termination.is_partial()),
        other => panic!("post-failure discover -> {other:?}"),
    }
    assert_eq!(server.stats().jobs_completed, 2);
}
