//! TelemetrySnapshot schema gate (`fd-telemetry/v1`).
//!
//! Two layers: an in-process check that a freshly captured snapshot always
//! serializes every schema key, and a file-based check driven by
//! `scripts/check.sh`, which builds `fdtool --features telemetry`, runs
//! `fdtool discover data/patient.csv --metrics-out <tmp>`, and points the
//! `METRICS_JSON` environment variable at the result. The file check is a
//! no-op when the variable is unset so plain `cargo test` stays hermetic.
//!
//! The checks are deliberately string-level (no JSON parser in the tree):
//! the serializer is hand-rolled, so asserting on the exact rendered tokens
//! is what actually pins the wire format.

/// Every top-level key `TelemetrySnapshot::to_json` must emit, in the
/// `fd-telemetry/v1` schema.
const REQUIRED_KEYS: [&str; 8] = [
    "schema",
    "version",
    "compiled",
    "enabled",
    "counters",
    "histograms",
    "events",
    "events_dropped",
];

fn assert_schema(json: &str, origin: &str) {
    for key in REQUIRED_KEYS {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "{origin}: missing schema key \"{key}\""
        );
    }
    assert!(
        json.contains(&format!("\"schema\": \"{}\"", fd_telemetry::SCHEMA)),
        "{origin}: schema tag is not {:?}",
        fd_telemetry::SCHEMA
    );
    assert!(
        json.contains(&format!("\"version\": {}", fd_telemetry::SNAPSHOT_VERSION)),
        "{origin}: snapshot version is not {}",
        fd_telemetry::SNAPSHOT_VERSION
    );
    // A snapshot is one JSON object: first byte `{`, last byte `}`.
    let trimmed = json.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{origin}: not a JSON object");
}

#[test]
fn captured_snapshot_serializes_all_schema_keys() {
    let snap = fd_telemetry::snapshot();
    assert_schema(&snap.to_json(), "in-process snapshot");
}

#[test]
fn snapshot_reports_compile_state_honestly() {
    let json = fd_telemetry::snapshot().to_json();
    let expected = format!("\"compiled\": {}", fd_telemetry::compiled());
    assert!(json.contains(&expected), "snapshot must record the feature state: {expected}");
}

/// Serializes the tests that flip the global `fd_telemetry` enable flag so
/// one probe can't disable recording while another is mid-measurement.
fn enable_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn work_stealing_counters_and_busy_histogram_join_the_snapshot() {
    if !fd_telemetry::compiled() {
        return; // plain build: recording is compiled out, nothing to assert
    }
    let _flag = enable_lock();
    use std::sync::atomic::{AtomicUsize, Ordering};
    fd_telemetry::set_enabled(true);
    let hits = AtomicUsize::new(0);
    let stats = fd_core::fan_out_stealing("schema_probe", 8, 2, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    fd_telemetry::set_enabled(false);
    assert_eq!(hits.load(Ordering::Relaxed), 8, "every chunk must run exactly once");
    assert_eq!(stats.chunks_claimed, 8);

    let snap = fd_telemetry::snapshot();
    let json = snap.to_json();
    // Counters: every fan-out reports its claims; steals may be zero but the
    // counter key must exist once any stealing fan-out has run.
    assert!(
        snap.counter("parallel.chunks_claimed").unwrap_or(0) >= 8,
        "parallel.chunks_claimed must count the probe's chunks"
    );
    assert!(
        json.contains("\"parallel.chunks_claimed\":"),
        "snapshot must serialize parallel.chunks_claimed"
    );
    assert!(
        json.contains("\"parallel.steal_count\":"),
        "snapshot must serialize parallel.steal_count"
    );
    // Histogram: one busy-fraction observation per worker, per site.
    let busy = snap
        .histogram("parallel.busy_pct.schema_probe")
        .expect("per-site worker-busy histogram must be recorded");
    assert_eq!(busy.count, stats.workers as u64, "one busy-pct sample per worker");
    assert!(busy.max <= 100, "busy fraction is a percentage");
    assert!(
        json.contains("\"parallel.busy_pct.schema_probe\":"),
        "snapshot must serialize the per-site busy histogram"
    );
}

#[test]
fn fault_and_pressure_counters_join_the_snapshot() {
    if !fd_telemetry::compiled() || !fd_faults::compiled() {
        return; // needs --features faults,telemetry (the check.sh --chaos build)
    }
    use eulerfd_suite::core::AttrSet;
    use eulerfd_suite::relation::{synth::patient, PliCache};
    let _flag = enable_lock();
    fd_telemetry::set_enabled(true);
    let _plan = fd_faults::install_guard(fd_faults::FaultPlan::new(11).with(
        "pli_cache.derive",
        fd_faults::FaultAction::AllocFail,
        fd_faults::Schedule::Always,
    ));
    let relation = patient();
    let mut cache = PliCache::with_default_budget();
    let _ = cache.get(&relation, &AttrSet::from_attrs([1u16, 2]));
    let fired = fd_faults::fired_counts();
    let snap = fd_telemetry::snapshot();
    fd_telemetry::set_enabled(false);
    let json = snap.to_json();
    // Schema pin: every fired fault serializes under `faults.fired.<site>`,
    // and cache degradation under `cache.pressure_shrink` — these names are
    // wire format now, referenced by dashboards and the chaos suite alike.
    assert!(!fired.is_empty(), "the derive alloc-fail plan never fired");
    for (site, count) in fired {
        assert_eq!(
            snap.counter(&format!("faults.fired.{site}")),
            Some(count),
            "telemetry disagrees with fd-faults on {site}"
        );
        assert!(
            json.contains(&format!("\"faults.fired.{site}\":")),
            "snapshot must serialize faults.fired.{site}"
        );
    }
    assert!(
        snap.counter("cache.pressure_shrink").unwrap_or(0) > 0,
        "alloc-fail degradation must tick cache.pressure_shrink"
    );
    assert!(
        json.contains("\"cache.pressure_shrink\":"),
        "snapshot must serialize cache.pressure_shrink"
    );
}

#[test]
fn delta_counters_join_the_snapshot() {
    if !fd_telemetry::compiled() {
        return; // plain build: recording is compiled out, nothing to assert
    }
    use eulerfd_suite::algo::DeltaEngine;
    use eulerfd_suite::core::AttrSet;
    use eulerfd_suite::relation::{synth::patient, PliCache};
    let _flag = enable_lock();
    fd_telemetry::set_enabled(true);
    let mut engine = DeltaEngine::new(patient(), 1);
    let mut cache = PliCache::with_default_budget();
    let _ = cache.get(engine.relation(), &AttrSet::from_attrs([1u16, 2]));
    // A duplicate of row 0 is non-fresh on every column, so the resident
    // derived partition must be surgically evicted; the row-8 delete drives
    // the delete counter. The revive counter records even when zero — the
    // site runs unconditionally — so its key must serialize regardless.
    let row0: Vec<u32> = (0..engine.relation().n_attrs())
        .map(|a| engine.relation().label(0, a as u16))
        .collect();
    engine.apply_delta_with_cache(&[row0], &[8], &mut cache);
    let snap = fd_telemetry::snapshot();
    fd_telemetry::set_enabled(false);
    let json = snap.to_json();
    // Schema pin: the four delta-maintenance counters are wire format now.
    for key in [
        "delta.rows_inserted",
        "delta.rows_deleted",
        "delta.candidates_revived",
        "cache.surgical_evictions",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "snapshot must serialize {key}");
    }
    assert!(snap.counter("delta.rows_inserted").unwrap_or(0) >= 1);
    assert!(snap.counter("delta.rows_deleted").unwrap_or(0) >= 1);
    assert!(
        snap.counter("cache.surgical_evictions").unwrap_or(0) >= 1,
        "the non-fresh duplicate row must evict the cached derived partition"
    );
}

#[test]
fn prometheus_exposition_pins_wire_format() {
    if !fd_telemetry::compiled() {
        return; // plain build: recording is compiled out, nothing to assert
    }
    let _flag = enable_lock();
    fd_telemetry::set_enabled(true);
    fd_telemetry::counter!("schema.prom_probe", 3);
    fd_telemetry::observe!("schema.prom_lat_us", 900);
    let snap = fd_telemetry::snapshot();
    fd_telemetry::set_enabled(false);
    let text = snap.to_prometheus(&[("queue_depth".to_string(), 2.0)]);
    // Counters: `fd_` prefix, dots sanitized to underscores, TYPE line.
    assert!(text.contains("# TYPE fd_schema_prom_probe counter\n"), "{text}");
    assert!(text.contains("fd_schema_prom_probe 3\n"), "{text}");
    // Histograms: summary type with the three pinned quantile labels plus
    // _sum/_count.
    assert!(text.contains("# TYPE fd_schema_prom_lat_us summary\n"), "{text}");
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            text.contains(&format!("fd_schema_prom_lat_us{{quantile=\"{q}\"}} ")),
            "{text}"
        );
    }
    assert!(text.contains("fd_schema_prom_lat_us_sum 900\n"), "{text}");
    assert!(text.contains("fd_schema_prom_lat_us_count 1\n"), "{text}");
    // Gauges ride along from the sampler.
    assert!(text.contains("# TYPE fd_queue_depth gauge\nfd_queue_depth 2\n"), "{text}");
    // Exposition format: every line is `# ...`, `name value`, or
    // `name{labels} value` — no JSON punctuation leaks in.
    for line in text.lines() {
        assert!(
            line.starts_with('#')
                || line.split_whitespace().count() == 2
                || line.contains("{quantile="),
            "malformed exposition line: {line}"
        );
    }
}

#[test]
fn metrics_and_trace_replies_pin_schema() {
    if !fd_telemetry::compiled() {
        return; // plain build: the verbs answer "telemetry disabled"
    }
    use eulerfd_suite::relation::synth::dataset_spec;
    use eulerfd_suite::server::{
        protocol, DiscoverOptions, MetricsConfig, Request, Server, ServerConfig,
    };
    let _flag = enable_lock();
    let server = Server::start(ServerConfig {
        metrics: Some(MetricsConfig {
            // Manual ticks only: the sampler thread must not race the pins.
            interval: std::time::Duration::from_secs(3600),
            slow_job_threshold: std::time::Duration::ZERO,
            ..Default::default()
        }),
        ..Default::default()
    });
    let relation = dataset_spec("abalone").expect("abalone spec").generate(400);
    server.register_relation("m", relation).expect("register");
    let session = server.session();
    let result = session.run(Request::Discover {
        dataset: "m".into(),
        options: DiscoverOptions::default(),
    });
    server.metrics_tick().expect("plane exists");
    fd_telemetry::set_enabled(false);

    // The `metrics` reply: aggregate identity, gauge/counter/rate objects,
    // per-histogram quantiles, and the slow-job ring. These keys are wire
    // format now — `fdtool top` and the obs gate scan for them by name.
    let metrics = protocol::handle_command(&server, &session, &["metrics"]);
    assert!(metrics.starts_with("{\"ok\":true"), "{metrics}");
    for key in [
        "windows",
        "seq_first",
        "seq_last",
        "span_ms",
        "gauges",
        "counters",
        "rates",
        "quantiles",
        "slow_jobs",
    ] {
        assert!(metrics.contains(&format!("\"{key}\":")), "metrics reply needs {key}: {metrics}");
    }
    assert!(metrics.contains("\"server.jobs_completed\":"), "{metrics}");
    assert!(metrics.contains("\"queue_depth\":"), "{metrics}");
    for q in ["p50", "p95", "p99"] {
        assert!(metrics.contains(&format!("\"{q}\":")), "quantiles need {q}: {metrics}");
    }
    assert!(!metrics.contains('\n'), "one line per reply: {metrics}");

    // The `trace <job>` reply: identity, root wall, and the span records
    // with parent edges.
    let trace =
        protocol::handle_command(&server, &session, &["trace", &result.job.to_string()]);
    assert!(trace.starts_with("{\"ok\":true"), "{trace}");
    for key in
        ["job", "dataset", "wall_ms", "root_wall_ms", "dropped", "spans", "parent", "name", "start_us", "wall_us"]
    {
        assert!(trace.contains(&format!("\"{key}\":")), "trace reply needs {key}: {trace}");
    }
    assert!(trace.contains("\"name\":\"server.job\""), "{trace}");
    assert!(trace.contains("\"parent\":-1"), "the root span renders parent -1: {trace}");
    assert!(!trace.contains('\n'), "one line per reply: {trace}");
}

#[test]
fn metrics_file_from_env_matches_schema() {
    let Ok(path) = std::env::var("METRICS_JSON") else {
        return; // not running under scripts/check.sh
    };
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("METRICS_JSON={path} is unreadable: {e}"));
    assert_schema(&json, &path);
    // check.sh builds fdtool with --features telemetry and arms the flag via
    // --metrics-out, so the exported file must reflect a live registry.
    assert!(
        json.contains("\"compiled\": true"),
        "{path}: fdtool was not built with --features telemetry"
    );
    assert!(
        json.contains("\"enabled\": true"),
        "{path}: --metrics-out did not arm the registry"
    );
}
