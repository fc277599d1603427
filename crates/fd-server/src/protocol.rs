//! The line protocol behind `fdtool serve`.
//!
//! One request per input line, whitespace-separated tokens; one JSON object
//! per response line. Deliberately minimal — no async runtime, no framing
//! beyond newlines — so the server is driveable from a shell pipe, an
//! integration test, or `nc -U` against the Unix socket.
//!
//! Commands (`submit <cmd...>` makes any of the blocking ones asynchronous):
//!
//! ```text
//! register <name> <csv-path>
//! discover <name> [th_ncover=V] [th_pcover=V]
//! validate <name> <lhs-csv|-> <rhs>
//! keys <name>
//! delta <name> [delete=0,1,2] [insert=a|b|c;d|e|f]
//! submit <subcommand...>         -> {"ok":true,"job":N}
//! wait <job>                     -> the job's result, once
//! cancel <job>
//! stats
//! metrics                        -> aggregated metrics window
//! subscribe [n] [from=N]         -> one JSON line per published window
//! trace <job>                    -> span tree of a completed job
//! quit
//! ```
//!
//! The three observability verbs need the live metrics plane: a
//! `telemetry`-feature build started with a metrics interval. Without the
//! feature they answer a clean `"telemetry disabled"` error; with the
//! feature but no plane, `"metrics plane not enabled"`. `subscribe` is the
//! one streaming verb — it blocks the connection pushing each newly
//! published window (optionally only `n` of them; `from=N` replays retained
//! windows starting at sequence `N`, `from=0`/`from=1` meaning "oldest
//! retained") until the count is reached, the client disconnects, or the
//! server shuts down.
//!
//! `wait` hands out a job's result once: the connection that submitted the
//! job claims it by waiting, and the server then forgets the job, so a
//! second `wait` answers `unknown job N`. A result nobody waits for is kept
//! among a bounded number of recent unclaimed ones and then dropped too.
//!
//! FDs are rendered as sorted `"0,1->2"` strings (attribute ids, empty LHS
//! renders as `"->2"`), so two responses are comparable byte-for-byte. A
//! cached discovery is rendered once and the same text answers every hit.

use crate::jobs::{DiscoverOptions, JobOutcome, JobResult, Request, RowsSpec};
use crate::metrics::TraceEntry;
use crate::server::{Server, Session};
use fd_core::{AttrId, AttrSet, FdSet};
use fd_telemetry::{Aggregate, JsonWriter, Window};
use std::io::{BufRead, BufReader, Write};

/// Serves the line protocol over any reader/writer pair until EOF or
/// `quit`. Each call gets its own [`Session`] (weight 1), so concurrent
/// connections are scheduled fairly against each other.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &Server,
    reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let session = server.session();
    for line in reader.lines() {
        let line = line?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        if tokens[0] == "quit" {
            writeln!(writer, "{}", ok_reply(0, |w| { w.key("bye").bool(true); }))?;
            writer.flush()?;
            break;
        }
        if tokens[0] == "subscribe" {
            serve_subscribe(server, &tokens, &mut writer)?;
            continue;
        }
        let response = handle_command(server, &session, &tokens);
        writeln!(writer, "{response}")?;
        writer.flush()?;
    }
    Ok(())
}

/// Serves connections on a Unix socket, one thread per connection. Blocks
/// until the listener errors (e.g. the socket file is removed). The socket
/// file is created fresh; a stale file from a previous run is removed.
pub fn serve_unix(server: &Server, path: &str) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = stream?;
            scope.spawn(move || {
                let reader = BufReader::new(stream.try_clone().expect("clone unix stream"));
                let _ = serve_lines(server, reader, stream);
            });
        }
        Ok(())
    })
}

/// Executes one parsed command line and returns the JSON response line.
/// Public so integration tests can drive the protocol without I/O plumbing.
pub fn handle_command(server: &Server, session: &Session, tokens: &[&str]) -> String {
    match tokens {
        ["register", name, path] => match server.register_csv(name, path) {
            Ok(info) => ok_reply(0, |w| {
                w.key("dataset").string(&info.name).key("version").uint(info.version);
                w.key("rows").uint(info.rows as u64).key("cols").uint(info.cols as u64);
                w.key("fd_count").uint(info.fd_count as u64);
            }),
            Err(e) => err_line(&e.to_string()),
        },
        ["submit", rest @ ..] if !rest.is_empty() => match parse_request(rest) {
            Ok(request) => {
                let job = session.submit(request);
                ok_reply(0, |w| { w.key("job").uint(job); })
            }
            Err(e) => err_line(&e),
        },
        ["wait", job] => match job.parse::<u64>() {
            Ok(job) => render_result(&session.wait(job)),
            Err(_) => err_line("wait: job id must be an integer"),
        },
        ["cancel", job] => match job.parse::<u64>() {
            Ok(job) => {
                let cancelled = session.cancel(job);
                ok_reply(0, |w| { w.key("cancelled").bool(cancelled); })
            }
            Err(_) => err_line("cancel: job id must be an integer"),
        },
        ["stats"] => {
            let stats = server.stats();
            let datasets = server.catalog().list().len() as u64;
            ok_reply(0, |w| {
                w.key("jobs_completed").uint(stats.jobs_completed);
                w.key("jobs_cancelled").uint(stats.jobs_cancelled);
                w.key("cache_hits").uint(stats.cache_hits);
                w.key("cache_invalidations").uint(stats.cache_invalidations);
                w.key("jobs_panicked").uint(stats.jobs_panicked);
                w.key("datasets").uint(datasets);
                w.key("queue_depth").uint(stats.queue_depth);
                w.key("worker_busy").uint(stats.worker_busy);
                w.key("outstanding_jobs").begin_object();
                for &(session, n) in &stats.outstanding_jobs {
                    w.key(&session.to_string()).uint(n);
                }
                w.end_object();
            })
        }
        ["metrics"] => match metrics_unavailable(server) {
            Some(err) => err,
            None => render_metrics(server),
        },
        ["trace", job] => match job.parse::<u64>() {
            Ok(job) => match metrics_unavailable(server) {
                Some(err) => err,
                None => match server.trace_of(job) {
                    Some(entry) => render_trace(&entry),
                    None => err_line(&format!("no trace retained for job {job}")),
                },
            },
            Err(_) => err_line("trace: job id must be an integer"),
        },
        ["subscribe", ..] => {
            // serve_lines intercepts subscribe before dispatching here; a
            // direct handle_command call has no stream to push windows into.
            metrics_unavailable(server)
                .unwrap_or_else(|| err_line("subscribe requires a streaming connection"))
        }
        rest => match parse_request(rest) {
            Ok(request) => render_result(&session.run(request)),
            Err(e) => err_line(&e),
        },
    }
}

/// Parses the blocking subcommands (`discover`/`validate`/`keys`/`delta`)
/// into a [`Request`].
fn parse_request(tokens: &[&str]) -> Result<Request, String> {
    match tokens {
        ["discover", name, opts @ ..] => {
            let mut options = DiscoverOptions::default();
            for opt in opts {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("discover: expected key=value, got '{opt}'"))?;
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("discover: '{key}' needs a number, got '{value}'"))?;
                match key {
                    "th_ncover" => options.th_ncover = Some(parsed),
                    "th_pcover" => options.th_pcover = Some(parsed),
                    _ => return Err(format!("discover: unknown option '{key}'")),
                }
            }
            Ok(Request::Discover { dataset: (*name).to_owned(), options })
        }
        ["validate", name, lhs, rhs] => {
            let lhs: Vec<AttrId> = if *lhs == "-" {
                Vec::new()
            } else {
                lhs.split(',')
                    .map(|a| a.parse().map_err(|_| format!("validate: bad attribute '{a}'")))
                    .collect::<Result<_, _>>()?
            };
            let rhs: AttrId =
                rhs.parse().map_err(|_| format!("validate: bad attribute '{rhs}'"))?;
            Ok(Request::Validate { dataset: (*name).to_owned(), lhs, rhs })
        }
        ["keys", name] => Ok(Request::Keys { dataset: (*name).to_owned() }),
        ["delta", name, opts @ ..] => {
            let mut deletes = Vec::new();
            let mut inserts = Vec::new();
            for opt in opts {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("delta: expected key=value, got '{opt}'"))?;
                match key {
                    "delete" => {
                        for id in value.split(',').filter(|s| !s.is_empty()) {
                            deletes.push(
                                id.parse()
                                    .map_err(|_| format!("delta: bad row id '{id}'"))?,
                            );
                        }
                    }
                    "insert" => {
                        for row in value.split(';').filter(|s| !s.is_empty()) {
                            inserts.push(row.split('|').map(str::to_owned).collect());
                        }
                    }
                    _ => return Err(format!("delta: unknown option '{key}'")),
                }
            }
            if deletes.is_empty() && inserts.is_empty() {
                return Err("delta: need delete= and/or insert=".to_owned());
            }
            Ok(Request::Delta {
                dataset: (*name).to_owned(),
                inserts: RowsSpec::Raw(inserts),
                deletes,
            })
        }
        [cmd, ..] => Err(format!("unknown command '{cmd}'")),
        [] => Err("empty command".to_owned()),
    }
}

/// Renders one FD as the canonical `"0,1->2"` form.
fn render_fd(lhs: &AttrSet, rhs: AttrId) -> String {
    let lhs: Vec<String> = lhs.iter().map(|a| a.to_string()).collect();
    format!("{}->{rhs}", lhs.join(","))
}

/// Renders an [`FdSet`] as a sorted JSON array of canonical FD strings:
/// byte-identical sets compare equal as strings.
pub fn render_fds(fds: &FdSet) -> String {
    let mut rendered: Vec<String> = fds.iter().map(|fd| render_fd(&fd.lhs, fd.rhs)).collect();
    rendered.sort_unstable();
    let bytes: usize = rendered.iter().map(|s| s.len() + 3).sum();
    let mut w = JsonWriter::with_capacity(bytes + 2);
    w.begin_array();
    for fd in &rendered {
        w.string(fd);
    }
    w.end_array();
    w.finish()
}

fn render_result(result: &JobResult) -> String {
    // Sized up front: a discovery reply carries its pre-rendered FD array.
    let fds_bytes = match &result.outcome {
        JobOutcome::Failed { error } => return err_line(error),
        JobOutcome::Discovered { fds, .. } => fds.json().len(),
        _ => 0,
    };
    ok_reply(fds_bytes, |w| {
        w.key("job").uint(result.job).key("wall_ms").number(result.wall.as_secs_f64() * 1e3);
        match &result.outcome {
            JobOutcome::Discovered { version, fds, termination, from_cache } => {
                w.key("version").uint(*version).key("termination").string(termination.as_str());
                w.key("from_cache").bool(*from_cache).key("fd_count").uint(fds.len() as u64);
                w.key("fds").raw(fds.json());
            }
            JobOutcome::Validated { version, holds } => {
                w.key("version").uint(*version).key("holds").bool(*holds);
            }
            JobOutcome::Keys { version, keys, fd_count } => {
                w.key("version").uint(*version).key("fd_count").uint(*fd_count as u64);
                w.key("keys").begin_array();
                for key in keys {
                    let attrs: Vec<String> = key.iter().map(|a| a.to_string()).collect();
                    w.string(&attrs.join(","));
                }
                w.end_array();
            }
            JobOutcome::DeltaApplied { version, rows, rows_inserted, rows_deleted } => {
                w.key("version").uint(*version).key("rows").uint(*rows as u64);
                w.key("rows_inserted").uint(*rows_inserted as u64);
                w.key("rows_deleted").uint(*rows_deleted as u64);
            }
            JobOutcome::Cancelled { reason } => {
                w.key("cancelled").bool(true).key("reason").string(reason.as_str());
            }
            JobOutcome::Failed { .. } => {} // answered above
        }
        if let Some(snapshot) = &result.telemetry {
            w.key("telemetry");
            snapshot.write_json(w);
        }
    })
}

/// `Some(error line)` when the observability verbs cannot be served:
/// feature-off builds compile the plane away entirely; feature-on servers
/// may still run without one.
fn metrics_unavailable(server: &Server) -> Option<String> {
    if !fd_telemetry::compiled() {
        return Some(err_line("telemetry disabled: rebuild with --features telemetry"));
    }
    if server.metrics_plane().is_none() {
        return Some(err_line("metrics plane not enabled: serve with a metrics interval"));
    }
    None
}

/// The `subscribe [n] [from=N]` streaming loop: one JSON line per window,
/// pushed as the sampler publishes them. Runs on the connection's thread;
/// returns to the command loop after `n` windows (or streams until the
/// plane stops / the client disconnects when no count is given).
fn serve_subscribe<W: Write>(
    server: &Server,
    tokens: &[&str],
    writer: &mut W,
) -> std::io::Result<()> {
    let mut count: Option<u64> = None;
    let mut from: Option<u64> = None;
    for token in &tokens[1..] {
        if let Some(value) = token.strip_prefix("from=") {
            match value.parse::<u64>() {
                Ok(v) => from = Some(v),
                Err(_) => {
                    writeln!(writer, "{}", err_line("subscribe: from= needs an integer"))?;
                    return writer.flush();
                }
            }
        } else {
            match token.parse::<u64>() {
                Ok(v) => count = Some(v),
                Err(_) => {
                    writeln!(
                        writer,
                        "{}",
                        err_line(&format!("subscribe: bad argument '{token}'"))
                    )?;
                    return writer.flush();
                }
            }
        }
    }
    if let Some(err) = metrics_unavailable(server) {
        writeln!(writer, "{err}")?;
        return writer.flush();
    }
    let plane = server.metrics_plane().expect("checked above");
    // Default: live windows only (published after this call); `from=N`
    // replays retained history first.
    let mut next = from.map_or_else(|| plane.latest_seq() + 1, |f| f.max(1));
    let mut sent = 0u64;
    while count.is_none_or(|c| sent < c) {
        let Some(window) = plane.wait_for(next) else {
            // Server shutting down: end the stream cleanly.
            break;
        };
        writeln!(writer, "{}", render_window(&window))?;
        writer.flush()?;
        next = window.seq + 1;
        sent += 1;
    }
    Ok(())
}

/// One `subscribe` stream line: the window's identity, its counter deltas,
/// and per-second rates over the window's own duration.
fn render_window(window: &Window) -> String {
    let secs = window.duration.as_secs_f64();
    let counters = &window.delta.counters;
    ok_reply(0, |w| {
        w.key("window").bool(true).key("seq").uint(window.seq);
        w.key("unix_ms").uint(window.unix_ms).key("window_ms").number(secs * 1e3);
        w.number_map("gauges", window.gauges.iter().map(|(k, v)| (k, *v)));
        w.number_map("counters", counters.iter().map(|(k, v)| (k, *v as f64)));
        let rate = |v: u64| if secs > 0.0 { v as f64 / secs } else { 0.0 };
        w.number_map("rates", counters.iter().map(|(k, v)| (k, rate(*v))));
    })
}

/// The `metrics` reply: the fold of every retained window — counter sums
/// and rates over the covered wall time, histogram quantiles, the newest
/// gauges, and the slow-job ring.
fn render_metrics(server: &Server) -> String {
    let plane = server.metrics_plane().expect("caller checked metrics_unavailable");
    render_aggregate(&plane.aggregate(), &plane.slow_jobs())
}

/// The `metrics` reply for an aggregate and the slow-job ring.
fn render_aggregate(agg: &Aggregate, slow_jobs: &[TraceEntry]) -> String {
    ok_reply(0, |w| {
        w.key("windows").uint(agg.windows as u64);
        w.key("seq_first").uint(agg.seq_first).key("seq_last").uint(agg.seq_last);
        w.key("span_ms").number(agg.duration.as_secs_f64() * 1e3);
        w.number_map("gauges", agg.gauges.iter().map(|(k, v)| (k, *v)));
        w.number_map("counters", agg.counters.iter().map(|(k, v)| (k, *v as f64)));
        w.number_map("rates", agg.rates());
        w.key("quantiles").begin_object();
        for (name, h) in &agg.histograms {
            let quantiles = [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)];
            w.number_map(name, quantiles.map(|(label, p)| (label, h.quantile(p))));
        }
        w.end_object().key("slow_jobs").begin_array();
        for e in slow_jobs {
            w.begin_object().key("job").uint(e.job).key("dataset").string(&e.dataset);
            w.key("wall_ms").number(e.wall.as_secs_f64() * 1e3).end_object();
        }
        w.end_array();
    })
}

/// The `trace <job>` reply: the retained span tree, spans in entry order
/// with parent indices (`-1` for roots).
fn render_trace(entry: &TraceEntry) -> String {
    let root_wall_ms = entry.trace.root().map_or(0.0, |r| r.wall_ns as f64 / 1e6);
    ok_reply(0, |w| {
        w.key("job").uint(entry.job).key("dataset").string(&entry.dataset);
        w.key("wall_ms").number(entry.wall.as_secs_f64() * 1e3);
        w.key("root_wall_ms").number(root_wall_ms).key("dropped").uint(entry.trace.dropped);
        w.key("spans").begin_array();
        for (i, s) in entry.trace.spans.iter().enumerate() {
            w.begin_object().key("id").uint(i as u64);
            w.key("parent").number(s.parent.map_or(-1.0, f64::from));
            w.key("name").string(s.name);
            w.key("start_us").uint(s.start_ns / 1_000).key("wall_us").uint(s.wall_ns / 1_000);
            w.end_object();
        }
        w.end_array();
    })
}

/// A success reply, `{"ok":true,...}`, with the fields `fill` writes; sized
/// for `extra` bytes of them beyond a short reply.
fn ok_reply(extra: usize, fill: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::with_capacity(extra + 256);
    w.begin_object().key("ok").bool(true);
    fill(&mut w);
    w.end_object();
    w.finish()
}

fn err_line(error: &str) -> String {
    let mut w = JsonWriter::with_capacity(error.len() + 32);
    w.begin_object().key("ok").bool(false).key("error").string(error).end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use fd_relation::Relation;

    fn tiny_server() -> Server {
        let server = Server::start(ServerConfig::default());
        let relation = Relation::from_encoded_columns(
            "tiny",
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![0, 0, 1, 1]],
        );
        server.register_relation("tiny", relation).expect("register");
        server
    }

    #[test]
    fn discover_line_returns_sorted_fds() {
        let _serial = crate::server_test_lock();
        let server = tiny_server();
        let session = server.session();
        let response = handle_command(&server, &session, &["discover", "tiny"]);
        assert!(response.starts_with("{\"ok\":true"), "{response}");
        assert!(response.contains("\"termination\":\"converged\""), "{response}");
        // b and c determine each other on this table.
        assert!(response.contains("\"1->2\""), "{response}");
        assert!(response.contains("\"2->1\""), "{response}");
    }

    #[test]
    fn validate_and_keys_lines() {
        let _serial = crate::server_test_lock();
        let server = tiny_server();
        let session = server.session();
        let holds = handle_command(&server, &session, &["validate", "tiny", "0", "1"]);
        assert!(holds.contains("\"holds\":true"), "{holds}");
        let fails = handle_command(&server, &session, &["validate", "tiny", "1", "0"]);
        assert!(fails.contains("\"holds\":false"), "{fails}");
        let keys = handle_command(&server, &session, &["keys", "tiny"]);
        assert!(keys.contains("\"keys\":[\"0\"]"), "{keys}");
    }

    #[test]
    fn submit_wait_cancel_roundtrip() {
        let _serial = crate::server_test_lock();
        let server = tiny_server();
        let session = server.session();
        let submitted = handle_command(&server, &session, &["submit", "keys", "tiny"]);
        assert!(submitted.contains("\"job\":"), "{submitted}");
        let job: u64 = submitted
            .split("\"job\":")
            .nth(1)
            .and_then(|s| s.trim_end_matches('}').parse().ok())
            .expect("job id");
        let waited = handle_command(&server, &session, &["wait", &job.to_string()]);
        assert!(waited.contains("\"keys\":"), "{waited}");
        // Cancelling a finished job reports false.
        let cancel =
            handle_command(&server, &session, &["cancel", &job.to_string()]);
        assert!(cancel.contains("\"cancelled\":false"), "{cancel}");
    }

    #[test]
    fn errors_are_json_lines() {
        let _serial = crate::server_test_lock();
        let server = tiny_server();
        let session = server.session();
        let unknown = handle_command(&server, &session, &["discover", "nope"]);
        assert!(unknown.starts_with("{\"ok\":false"), "{unknown}");
        let bad = handle_command(&server, &session, &["frobnicate"]);
        assert!(bad.contains("unknown command"), "{bad}");
        let empty_delta = handle_command(&server, &session, &["delta", "tiny"]);
        assert!(empty_delta.contains("need delete= and/or insert="), "{empty_delta}");
        // An out-of-range delete id is refused before the dataset changes
        // (its dictionaries included), not isolated as a panic in the engine.
        let csv = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/patient.csv");
        let registered = handle_command(&server, &session, &["register", "patient", csv]);
        assert!(registered.contains("\"rows\":9"), "{registered}");
        let insert = "insert=Zed|70|High|Male|drugZ";
        let bad_delete =
            handle_command(&server, &session, &["delta", "patient", "delete=1,9", insert]);
        assert_eq!(
            bad_delete,
            "{\"ok\":false,\"error\":\"deleted row id 9 out of range (dataset has 9 rows)\"}"
        );
        assert_eq!(server.stats().jobs_panicked, 0);
        let good_delete =
            handle_command(&server, &session, &["delta", "patient", "delete=1", insert]);
        assert!(good_delete.contains("\"version\":1,\"rows\":9"), "{good_delete}");
    }

    #[test]
    fn serve_lines_speaks_newline_json() {
        let _serial = crate::server_test_lock();
        let server = tiny_server();
        let input = b"keys tiny\nstats\nquit\n";
        let mut output = Vec::new();
        serve_lines(&server, &input[..], &mut output).expect("serve");
        let text = String::from_utf8(output).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"keys\":"), "{text}");
        assert!(lines[1].contains("\"jobs_completed\":"), "{text}");
        assert!(lines[2].contains("\"bye\":true"), "{text}");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_carrying_replies_stay_single_line() {
        use crate::metrics::MetricsConfig;
        let _serial = crate::server_test_lock();
        let server = Server::start(ServerConfig {
            metrics: Some(MetricsConfig {
                interval: std::time::Duration::from_secs(3600),
                ..Default::default()
            }),
            ..ServerConfig::default()
        });
        let relation = Relation::from_encoded_columns(
            "tiny",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1, 2], vec![0, 0, 1]],
        );
        server.register_relation("tiny", relation).expect("register");
        let session = server.session();
        let reply = handle_command(&server, &session, &["discover", "tiny"]);
        fd_telemetry::set_enabled(false);
        assert!(reply.contains("\"telemetry\":{"), "armed server attaches the snapshot: {reply}");
        assert!(!reply.contains('\n'), "line protocol demands one line: {reply}");
    }

    /// Exact reply bytes, one per outcome, built from fixed inputs so that
    /// no wall clock or scheduling enters them. Any change to how replies
    /// are written must leave these bytes alone.
    mod golden {
        use super::*;
        use crate::jobs::DiscoveredFds;
        use fd_core::{Fd, Termination};
        use fd_telemetry::{EventSnapshot, HistogramSnapshot, SpanRecord, TelemetrySnapshot, TraceTree};
        use std::sync::Arc;
        use std::time::Duration;

        fn result(job: u64, wall: Duration, outcome: JobOutcome) -> JobResult {
            JobResult { job, outcome, telemetry: None, wall }
        }

        fn discovered(from_cache: bool) -> JobOutcome {
            let fds: FdSet = [
                Fd::new(AttrSet::from_attrs([1u16, 2]), 0),
                Fd::new(AttrSet::single(0), 1),
                Fd::new(AttrSet::empty(), 3),
            ]
            .into_iter()
            .collect();
            JobOutcome::Discovered {
                version: 1,
                fds: DiscoveredFds::new(fds),
                termination: Termination::Converged,
                from_cache,
            }
        }

        fn snapshot() -> TelemetrySnapshot {
            TelemetrySnapshot {
                version: 1,
                compiled: true,
                enabled: true,
                counters: vec![("server.cache_hits".into(), 1), ("sampler.pairs".into(), 120)],
                histograms: vec![(
                    "span.server.job.ns".into(),
                    HistogramSnapshot { count: 2, sum: 3000, max: 2000, buckets: vec![(10, 1), (11, 1)] },
                )],
                events: vec![EventSnapshot {
                    name: "euler.cycle".into(),
                    fields: vec![("cycle".into(), 0.0), ("gr_pcover".into(), 0.25)],
                }],
                events_dropped: 0,
            }
        }

        #[test]
        fn discover_miss_and_hit_replies() {
            let miss = render_result(&result(1, Duration::from_micros(1500), discovered(false)));
            assert_eq!(
                miss,
                r#"{"ok":true,"job":1,"wall_ms":1.5,"version":1,"termination":"converged","from_cache":false,"fd_count":3,"fds":["->3","0->1","1,2->0"]}"#
            );
            let hit = render_result(&result(2, Duration::from_micros(21), discovered(true)));
            assert_eq!(
                hit,
                r#"{"ok":true,"job":2,"wall_ms":0.020999999999999998,"version":1,"termination":"converged","from_cache":true,"fd_count":3,"fds":["->3","0->1","1,2->0"]}"#
            );
        }

        #[test]
        fn validate_keys_and_delta_replies() {
            let validated = JobOutcome::Validated { version: 2, holds: false };
            assert_eq!(
                render_result(&result(3, Duration::from_micros(250), validated)),
                r#"{"ok":true,"job":3,"wall_ms":0.25,"version":2,"holds":false}"#
            );
            let keys = JobOutcome::Keys {
                version: 3,
                keys: vec![AttrSet::single(0), AttrSet::from_attrs([1u16, 2])],
                fd_count: 4,
            };
            assert_eq!(
                render_result(&result(4, Duration::from_millis(2), keys)),
                r#"{"ok":true,"job":4,"wall_ms":2,"version":3,"fd_count":4,"keys":["0","1,2"]}"#
            );
            let delta =
                JobOutcome::DeltaApplied { version: 4, rows: 10, rows_inserted: 2, rows_deleted: 1 };
            assert_eq!(
                render_result(&result(5, Duration::from_nanos(1_234_567), delta)),
                r#"{"ok":true,"job":5,"wall_ms":1.234567,"version":4,"rows":10,"rows_inserted":2,"rows_deleted":1}"#
            );
        }

        #[test]
        fn cancelled_and_error_replies() {
            let cancelled = JobOutcome::Cancelled { reason: Termination::DeadlineExceeded };
            assert_eq!(
                render_result(&result(6, Duration::ZERO, cancelled)),
                r#"{"ok":true,"job":6,"wall_ms":0,"cancelled":true,"reason":"deadline"}"#
            );
            let failed = JobOutcome::Failed { error: "unknown dataset \"x\"\n\tgone".into() };
            assert_eq!(
                render_result(&result(7, Duration::from_millis(1), failed)),
                r#"{"ok":false,"error":"unknown dataset \"x\"\n\tgone"}"#
            );
        }

        #[test]
        fn command_replies() {
            let _serial = crate::server_test_lock();
            let server = tiny_server();
            let session = server.session();
            assert_eq!(
                handle_command(&server, &session, &["stats"]),
                r#"{"ok":true,"jobs_completed":0,"jobs_cancelled":0,"cache_hits":0,"cache_invalidations":0,"jobs_panicked":0,"datasets":1,"queue_depth":0,"worker_busy":0,"outstanding_jobs":{}}"#
            );
            assert_eq!(
                handle_command(&server, &session, &["frobnicate", "x"]),
                r#"{"ok":false,"error":"unknown command 'frobnicate'"}"#
            );
            assert_eq!(
                handle_command(&server, &session, &["cancel", "99"]),
                r#"{"ok":true,"cancelled":false}"#
            );
            let mut output = Vec::new();
            serve_lines(&server, &b"quit\n"[..], &mut output).expect("serve");
            assert_eq!(String::from_utf8(output).expect("utf8"), "{\"ok\":true,\"bye\":true}\n");
        }

        #[test]
        fn job_reply_carrying_telemetry() {
            let mut with_snapshot =
                result(8, Duration::from_micros(500), JobOutcome::Validated { version: 0, holds: true });
            with_snapshot.telemetry = Some(snapshot());
            assert_eq!(
                render_result(&with_snapshot),
                r#"{"ok":true,"job":8,"wall_ms":0.5,"version":0,"holds":true,"telemetry":{"schema":"fd-telemetry/v1","version":1,"compiled":true,"enabled":true,"counters":{"server.cache_hits":1,"sampler.pairs":120},"histograms":{"span.server.job.ns":{"count":2,"sum":3000,"max":2000,"buckets":[[10,1],[11,1]]}},"events":[{"name":"euler.cycle","fields":{"cycle":0,"gr_pcover":0.25}}],"events_dropped":0}}"#
            );
        }

        #[test]
        fn subscribe_window_reply() {
            let window = Window {
                seq: 7,
                unix_ms: 1_700_000_000_123,
                duration: Duration::from_secs(2),
                delta: TelemetrySnapshot {
                    counters: vec![("server.jobs_completed".into(), 5), ("server.cache_hits".into(), 3)],
                    ..TelemetrySnapshot::default()
                },
                gauges: vec![("queue_depth".into(), 2.0), ("worker_busy".into(), 0.5)],
            };
            assert_eq!(
                render_window(&window),
                r#"{"ok":true,"window":true,"seq":7,"unix_ms":1700000000123,"window_ms":2000,"gauges":{"queue_depth":2,"worker_busy":0.5},"counters":{"server.jobs_completed":5,"server.cache_hits":3},"rates":{"server.jobs_completed":2.5,"server.cache_hits":1.5}}"#
            );
        }

        #[test]
        fn metrics_reply() {
            let agg = Aggregate {
                windows: 3,
                seq_first: 5,
                seq_last: 7,
                duration: Duration::from_secs(3),
                counters: vec![("server.jobs_completed".into(), 9)],
                histograms: vec![(
                    "server.job_wall_us".into(),
                    HistogramSnapshot { count: 4, sum: 10000, max: 5000, buckets: vec![(10, 2), (13, 2)] },
                )],
                gauges: vec![("queue_depth".into(), 1.0)],
            };
            let slow = TraceEntry {
                job: 4,
                dataset: "weather".into(),
                wall: Duration::from_millis(300),
                trace: Arc::new(TraceTree::default()),
            };
            assert_eq!(
                render_aggregate(&agg, &[slow]),
                r#"{"ok":true,"windows":3,"seq_first":5,"seq_last":7,"span_ms":3000,"gauges":{"queue_depth":1},"counters":{"server.jobs_completed":9},"rates":{"server.jobs_completed":3},"quantiles":{"server.job_wall_us":{"p50":895.25,"p95":5000,"p99":5000}},"slow_jobs":[{"job":4,"dataset":"weather","wall_ms":300}]}"#
            );
        }

        #[test]
        fn trace_reply() {
            let span = |name, parent, start_ns, wall_ns| SpanRecord {
                name,
                parent,
                start_ns,
                wall_ns,
                finished: true,
            };
            let entry = TraceEntry {
                job: 9,
                dataset: "adult".into(),
                wall: Duration::from_micros(2500),
                trace: Arc::new(TraceTree {
                    trace_id: 9,
                    spans: vec![
                        span("server.job", None, 0, 2_400_000),
                        span("server.discover", Some(0), 10_000, 2_300_000),
                    ],
                    dropped: 0,
                }),
            };
            assert_eq!(
                render_trace(&entry),
                r#"{"ok":true,"job":9,"dataset":"adult","wall_ms":2.5,"root_wall_ms":2.4,"dropped":0,"spans":[{"id":0,"parent":-1,"name":"server.job","start_us":0,"wall_us":2400},{"id":1,"parent":0,"name":"server.discover","start_us":10,"wall_us":2300}]}"#
            );
        }
    }
}
