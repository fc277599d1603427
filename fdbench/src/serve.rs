//! The served workloads: request lines in, JSON reply lines out, through
//! `fd_server::protocol::handle_command` on an in-process server. Each client
//! is a closed loop on its own thread with its own `Session`.

use crate::report::{Report, ServerLayers, Traced, Tracer};
use crate::util::{
    csv_bytes, mean, median, peak_rss_mb, quantile, ratio, secs_since, str_fingerprint, Rng,
};
use crate::Ctx;
use eulerfd::{DeltaEngine, EulerFd, EulerFdConfig};
use fd_baselines::HyFd;
use fd_core::{candidate_keys, Accuracy, AttrSet, FdSet};
use fd_relation::{
    read_csv, read_csv_with_dictionaries, sampling_clusters_parallel, synth, CsvOptions,
    FdAlgorithm, Relation,
};
use fd_server::protocol::{handle_command, render_fds};
use fd_server::{Server, ServerConfig, ServerStats};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 2;
/// Kernel threads per job: the two workers already fill the two cores.
const JOB_THREADS: usize = 1;
/// Set-up registers the datasets this many times, on fresh servers.
const SETUP_ROUNDS: usize = 3;
/// Length of each reader's seeded request sequence; a client that reaches
/// the end starts over.
const LINES_PER_CLIENT: usize = 1200;
/// serve-write checks discover and keys replies at this many of the
/// versions they observed, against a from-scratch computation there.
const CHECKED_VERSIONS: usize = 4;

/// A dataset the server loads: the CSV file it registers and its bytes.
struct Dataset {
    name: &'static str,
    path: String,
    csv: Vec<u8>,
    n_attrs: usize,
}

impl Dataset {
    fn write(
        ctx: &Ctx,
        workload: &str,
        name: &'static str,
        table: &Relation,
        order: &[usize],
    ) -> Dataset {
        let csv = csv_bytes(table, order);
        let path = ctx.out_dir.join(format!("{workload}-{name}.csv"));
        std::fs::write(&path, &csv).expect("the out dir is writable");
        let path = path.to_string_lossy().into_owned();
        // The line protocol splits requests on whitespace.
        assert!(
            !path.contains(char::is_whitespace),
            "out dir path has whitespace: {path}"
        );
        Dataset {
            name,
            path,
            csv,
            n_attrs: table.n_attrs(),
        }
    }
}

#[derive(Clone)]
enum Req {
    Discover { ds: usize },
    Validate { ds: usize, lhs: Vec<u16>, rhs: u16 },
    Keys { ds: usize },
    Delta { rows: usize },
}

impl Req {
    fn verb(&self) -> &'static str {
        match self {
            Req::Discover { .. } => "discover",
            Req::Validate { .. } => "validate",
            Req::Keys { .. } => "keys",
            Req::Delta { .. } => "delta",
        }
    }
}

#[derive(Clone)]
struct Line {
    req: Req,
    tokens: Vec<String>,
}

fn discover_line(datasets: &[Dataset], ds: usize) -> Line {
    Line {
        req: Req::Discover { ds },
        tokens: vec!["discover".to_owned(), datasets[ds].name.to_owned()],
    }
}

fn keys_line(datasets: &[Dataset], ds: usize) -> Line {
    Line {
        req: Req::Keys { ds },
        tokens: vec!["keys".to_owned(), datasets[ds].name.to_owned()],
    }
}

/// A reader's request sequence. The verbs repeat `cycle` (`d` discover,
/// `v` validate, `k` keys) and the datasets of discover and keys requests
/// follow fixed patterns, so every seed sends the same mix in the same
/// rhythm: a latency percentile then stays inside one kind of request
/// instead of landing between two. The seed picks the validated FDs and
/// their datasets.
fn reader_lines(datasets: &[Dataset], rng: &mut Rng, cycle: &str) -> Vec<Line> {
    let last = datasets.len() - 1;
    let (mut discovers, mut keys) = (0, 0);
    (0..LINES_PER_CLIENT)
        .map(|i| match cycle.as_bytes()[i % cycle.len()] {
            b'd' => {
                // Three discovers in four go to the first (larger) dataset.
                discovers += 1;
                discover_line(datasets, if discovers % 4 == 0 { last } else { 0 })
            }
            b'k' => {
                keys += 1;
                keys_line(datasets, keys % datasets.len())
            }
            _ => {
                let ds = rng.below(datasets.len());
                let width = 2 + rng.below(2);
                let attrs = rng.distinct(width, datasets[ds].n_attrs);
                let (rhs, lhs) = attrs.split_last().expect("two or more attributes");
                let lhs: Vec<u16> = lhs.iter().map(|&a| a as u16).collect();
                let lhs_token: Vec<String> = lhs.iter().map(u16::to_string).collect();
                let tokens = vec![
                    "validate".to_owned(),
                    datasets[ds].name.to_owned(),
                    lhs_token.join(","),
                    rhs.to_string(),
                ];
                Line {
                    req: Req::Validate {
                        ds,
                        lhs,
                        rhs: *rhs as u16,
                    },
                    tokens,
                }
            }
        })
        .collect()
}

/// One reply as the client saw it, reduced to what the checks need.
struct Reply {
    req: Req,
    /// Seconds from the workload's epoch to sending the request.
    start_s: f64,
    latency_s: f64,
    ok: bool,
    error: String,
    /// The job's execution time, as the server reports it.
    wall_ms: f64,
    version: u64,
    from_cache: bool,
    holds: Option<bool>,
    fd_count: u64,
    fds_fingerprint: Option<u64>,
    keys: Option<String>,
    rows: u64,
    rows_inserted: u64,
    rows_deleted: u64,
}

/// The raw JSON value of `key` in a reply line: a scalar, or an array whose
/// elements contain no `]`.
fn value<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let at = reply.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &reply[at..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

impl Reply {
    fn parse(req: Req, text: &str, start_s: f64, latency_s: f64) -> Reply {
        let num = |key| {
            value(text, key)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let ok = text.starts_with("{\"ok\":true");
        Reply {
            req,
            start_s,
            latency_s,
            ok,
            error: if ok {
                String::new()
            } else {
                text.chars().take(200).collect()
            },
            wall_ms: num("wall_ms"),
            version: num("version") as u64,
            from_cache: value(text, "from_cache") == Some("true"),
            holds: value(text, "holds").map(|v| v == "true"),
            fd_count: num("fd_count") as u64,
            fds_fingerprint: value(text, "fds").map(str_fingerprint),
            keys: value(text, "keys").map(str::to_owned),
            rows: num("rows") as u64,
            rows_inserted: num("rows_inserted") as u64,
            rows_deleted: num("rows_deleted") as u64,
        }
    }

    fn end_s(&self) -> f64 {
        self.start_s + self.latency_s
    }
}

/// Sends one line through the protocol and parses the reply.
fn send(server: &Server, session: &fd_server::Session, line: Line, epoch: Instant) -> Reply {
    let tokens: Vec<&str> = line.tokens.iter().map(String::as_str).collect();
    let start = Instant::now();
    let text = handle_command(server, session, &tokens);
    let latency_s = secs_since(start);
    Reply::parse(line.req, &text, (start - epoch).as_secs_f64(), latency_s)
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: WORKERS,
        job_threads: JOB_THREADS,
        ..Default::default()
    })
}

/// Registers `datasets` through the protocol on a fresh server, once per
/// set-up round, and keeps the last server. Returns it with each round's
/// seconds.
fn setup(report: &mut Report, datasets: &[Dataset]) -> (Server, Vec<f64>) {
    let mut rounds = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_ROUNDS {
        drop(server.take());
        let fresh = start_server();
        let session = fresh.session();
        let start = Instant::now();
        for d in datasets {
            let reply = handle_command(&fresh, &session, &["register", d.name, &d.path]);
            report.check(reply.starts_with("{\"ok\":true"), || {
                format!("register {}: {reply}", d.name)
            });
        }
        rounds.push(secs_since(start));
        server = Some(fresh);
    }
    (server.expect("at least one set-up round"), rounds)
}

/// The replies of the measured window, split into an untraced first part
/// and, in a traced run, a traced second half.
struct Window {
    replies: Vec<Reply>,
    /// Seconds from the epoch to the window's start, to the traced half
    /// (the window's end when untraced), and to the last reply.
    start_s: f64,
    split_s: f64,
    end_s: f64,
    /// Server counters at the split and at the end.
    stats: (ServerStats, ServerStats),
}

impl Window {
    fn untraced(&self) -> impl Iterator<Item = &Reply> {
        self.replies.iter().filter(|r| r.start_s < self.split_s)
    }

    fn traced(&self) -> impl Iterator<Item = &Reply> {
        self.replies.iter().filter(|r| r.start_s >= self.split_s)
    }
}

type Client<'a> = Box<dyn FnMut() -> Line + Send + 'a>;

/// Runs every client as a closed loop until the window ends; in a traced
/// run, telemetry records during the second half.
fn run_window(
    ctx: &Ctx,
    server: &Server,
    tracer: &Tracer,
    epoch: Instant,
    clients: Vec<Client>,
) -> Window {
    let start = Instant::now();
    let end = start + ctx.window;
    let split = if ctx.trace {
        start + ctx.window / 2
    } else {
        end
    };
    let (replies, stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let session = server.session();
                    let mut replies = Vec::new();
                    while Instant::now() < end {
                        replies.push(send(server, &session, next(), epoch));
                    }
                    replies
                })
            })
            .collect();
        std::thread::sleep(split.saturating_duration_since(Instant::now()));
        let at_split = server.stats();
        tracer.resume();
        let replies: Vec<Reply> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        tracer.pause();
        (replies, (at_split, server.stats()))
    });
    let since = |t: Instant| (t - epoch).as_secs_f64();
    let end_s = replies.iter().map(Reply::end_s).fold(since(end), f64::max);
    Window {
        replies,
        start_s: since(start),
        split_s: since(split),
        end_s,
        stats,
    }
}

/// Expected replies for one dataset at one version, computed on demand from
/// the relation the server should hold.
struct Expect {
    relation: Relation,
    truth: Option<FdSet>,
    keys: Option<Vec<Vec<u16>>>,
    /// Fingerprint of the rendered EulerFD result and its F1.
    discovered: Option<(u64, f64)>,
    validated: HashMap<(Vec<u16>, u16), bool>,
}

impl Expect {
    fn new(relation: Relation) -> Expect {
        Expect {
            relation,
            truth: None,
            keys: None,
            discovered: None,
            validated: HashMap::new(),
        }
    }

    fn truth(&mut self) -> &FdSet {
        self.truth
            .get_or_insert_with(|| HyFd::default().discover(&self.relation))
    }

    fn holds(&mut self, lhs: &[u16], rhs: u16) -> bool {
        let relation = &self.relation;
        *self
            .validated
            .entry((lhs.to_vec(), rhs))
            .or_insert_with(|| relation.fd_holds(&AttrSet::from_attrs(lhs.iter().copied()), rhs))
    }

    /// The library's EulerFD result, configured as the server runs it; the
    /// time to render it is pushed to `render_ms`.
    fn discovered(&mut self, render_ms: &mut Vec<f64>) -> u64 {
        if let Some((fp, _)) = self.discovered {
            return fp;
        }
        let config = EulerFdConfig {
            threads: JOB_THREADS,
            ..EulerFdConfig::default()
        };
        let fds = EulerFd::with_config(config).discover(&self.relation);
        let start = Instant::now();
        let fp = str_fingerprint(&render_fds(&fds));
        render_ms.push(secs_since(start) * 1e3);
        let f1 = Accuracy::of(&fds, self.truth()).f1;
        self.discovered = Some((fp, f1));
        fp
    }

    fn keys(&mut self) -> Vec<Vec<u16>> {
        if self.keys.is_none() {
            let n_attrs = self.relation.n_attrs();
            let mut keys: Vec<Vec<u16>> = candidate_keys(n_attrs, self.truth())
                .iter()
                .map(|k| k.iter().collect())
                .collect();
            keys.sort();
            self.keys = Some(keys);
        }
        self.keys.clone().unwrap_or_default()
    }

    /// Checks a read reply observed on this dataset version. Discover and
    /// keys replies are checked only when `deep`.
    fn check(&mut self, report: &mut Report, reply: &Reply, deep: bool, render_ms: &mut Vec<f64>) {
        if !reply.ok {
            return report.fail(format!("{}: {}", reply.req.verb(), reply.error));
        }
        match &reply.req {
            Req::Validate { lhs, rhs, .. } => {
                let want = self.holds(lhs, *rhs);
                report.check(reply.holds == Some(want), || {
                    format!(
                        "validate {lhs:?}->{rhs} at version {}: want {want}",
                        reply.version
                    )
                });
            }
            Req::Discover { .. } if deep => {
                let want = self.discovered(render_ms);
                report.check(reply.fds_fingerprint == Some(want), || {
                    format!("discover at version {}: FD set differs", reply.version)
                });
            }
            Req::Keys { .. } if deep => {
                let want = self.keys();
                let got = reply.keys.as_deref().map(parse_keys);
                let fd_count = self.truth().len() as u64;
                report.check(
                    got.as_ref() == Some(&want) && reply.fd_count == fd_count,
                    || {
                        format!(
                            "keys at version {}: want {want:?} over {fd_count} FDs",
                            reply.version
                        )
                    },
                );
            }
            _ => {}
        }
    }

    fn f1(&self) -> Option<f64> {
        self.discovered.map(|(_, f1)| f1)
    }
}

/// `["0,1","5"]` → sorted attribute lists.
fn parse_keys(raw: &str) -> Vec<Vec<u16>> {
    let mut keys: Vec<Vec<u16>> = raw
        .split('"')
        .skip(1)
        .step_by(2)
        .map(|key| key.split(',').filter_map(|a| a.parse().ok()).collect())
        .collect();
    keys.sort();
    keys
}

/// serve-read's verb cycle: 30% discover, 65% validate, 5% keys. The server
/// keeps every finished job's result, so the discover share sets how fast
/// this workload's memory grows.
const READ_CYCLE: &str = "dvvdvvdvvdvvdvvdvvvk";
/// serve-write's reader: 20% discover, 70% validate, 10% keys. Each
/// discover holds the dataset lock and stalls one delta; the rest of the
/// cycle leaves room for about three unstalled deltas per stalled one, so
/// the delta median is an unstalled delta and the p90 a stalled one.
const WRITE_CYCLE: &str = "dvvvkdvvvv";

/// serve-read: weather (10 000 rows) and adult (4 000 rows), two readers
/// sending `READ_CYCLE`. The measured operation is
/// `discover`, answered from the result cache the warm-up filled.
pub fn serve_read(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let datasets: Vec<Dataset> = [("weather", 10_000), ("adult", 4_000)]
        .into_iter()
        .map(|(name, rows)| {
            let table = synth::dataset_spec(name)
                .expect("dataset is registered")
                .generate(rows);
            let order: Vec<usize> = (0..rows).collect();
            Dataset::write(ctx, "serve-read", name, &table, &order)
        })
        .collect();
    let epoch = Instant::now();
    let (server, setup_s) = setup(&mut report, &datasets);
    let tracer = Tracer::new(ctx.trace);

    // Fill the result cache. Traced, because these are the workload's only
    // EulerFD runs.
    tracer.resume();
    let session = server.session();
    let mut warm = Vec::new();
    for ds in 0..datasets.len() {
        warm.push(send(&server, &session, discover_line(&datasets, ds), epoch));
        warm.push(send(&server, &session, keys_line(&datasets, ds), epoch));
    }
    tracer.pause();

    let readers: Vec<Vec<Line>> = (0..2)
        .map(|c| reader_lines(&datasets, &mut Rng::new(ctx.seed, 100 + c), READ_CYCLE))
        .collect();
    let clients: Vec<Client> = readers
        .iter()
        .map(|lines| {
            let mut next = lines.iter().cycle().cloned();
            Box::new(move || next.next().expect("cycling a non-empty sequence")) as Client
        })
        .collect();
    let window = run_window(ctx, &server, &tracer, epoch, clients);
    let peak = peak_rss_mb();
    let traced = tracer.finish();
    report.attempted = window.replies.len() as u64;

    // Checks: every reply against the library on the same CSV.
    let mut render_ms = Vec::new();
    let mut expects: Vec<Expect> = datasets
        .iter()
        .map(|d| {
            Expect::new(read_csv(&d.csv[..], d.name, &CsvOptions::default()).expect("CSV parses"))
        })
        .collect();
    for reply in warm.iter().chain(&window.replies) {
        let ds = match &reply.req {
            Req::Discover { ds, .. } | Req::Validate { ds, .. } | Req::Keys { ds } => *ds,
            Req::Delta { .. } => unreachable!("serve-read sends no deltas"),
        };
        expects[ds].check(&mut report, reply, true, &mut render_ms);
    }
    let f1: Vec<f64> = expects.iter().filter_map(Expect::f1).collect();
    serve_e2e(&mut report, &window, "discover", &setup_s, peak, &f1);
    if let Some(traced) = traced {
        let relations: Vec<&Relation> = expects.iter().map(|e| &e.relation).collect();
        serve_layers(
            &mut report,
            &traced,
            &window,
            &warm,
            &datasets,
            &relations,
            &render_ms,
        );
    }
    report
}

/// The writer of serve-write. `rows` mirrors the served table as generated
/// labels in the server's row order; every delta inserts `k` held-out rows
/// and deletes `k` current rows, which join the held-out pool.
struct Writer {
    rows: Vec<Vec<u32>>,
    pool: VecDeque<Vec<u32>>,
    rng: Rng,
    /// Every delta sent: inserted rows and sorted deleted row ids.
    log: Vec<(Vec<Vec<u32>>, Vec<usize>)>,
}

/// Applies a delta the way `Relation::apply_delta` does: survivors keep
/// their order, inserts are appended. Returns the deleted rows.
fn apply_delta<T>(rows: &mut Vec<T>, inserts: Vec<T>, sorted_deletes: &[usize]) -> Vec<T> {
    let mut deletes = sorted_deletes.iter().peekable();
    let mut removed = Vec::new();
    let mut kept = Vec::with_capacity(rows.len());
    for (t, row) in rows.drain(..).enumerate() {
        if deletes.next_if_eq(&&t).is_some() {
            removed.push(row);
        } else {
            kept.push(row);
        }
    }
    kept.extend(inserts);
    *rows = kept;
    removed
}

fn labels(row: &[u32]) -> Vec<String> {
    row.iter().map(u32::to_string).collect()
}

impl Writer {
    fn next_line(&mut self) -> Line {
        let k = 1 + self.rng.below(10);
        let inserts: Vec<Vec<u32>> = (0..k)
            .map(|_| self.pool.pop_front().expect("the pool keeps its size"))
            .collect();
        let mut deletes = self.rng.distinct(k, self.rows.len());
        deletes.sort_unstable();
        let ids: Vec<String> = deletes.iter().map(usize::to_string).collect();
        let rows: Vec<String> = inserts.iter().map(|r| labels(r).join("|")).collect();
        let tokens = vec![
            "delta".to_owned(),
            "weather".to_owned(),
            format!("delete={}", ids.join(",")),
            format!("insert={}", rows.join(";")),
        ];
        let removed = apply_delta(&mut self.rows, inserts.clone(), &deletes);
        self.pool.extend(removed);
        self.log.push((inserts, deletes));
        Line {
            req: Req::Delta { rows: k },
            tokens,
        }
    }
}

/// Evenly spaced picks of at most `CHECKED_VERSIONS` from `versions`.
fn spread(mut versions: Vec<u64>) -> Vec<u64> {
    versions.sort_unstable();
    versions.dedup();
    let n = versions.len();
    (0..CHECKED_VERSIONS.min(n))
        .map(|i| versions[i * n / CHECKED_VERSIONS.min(n)])
        .collect()
}

/// serve-write: weather, 10 000 rows served and 2 000 held out. One writer
/// sends deltas of 1..=10 inserted and as many deleted rows; one reader
/// sends `WRITE_CYCLE`. The measured operation is
/// `delta`.
pub fn serve_write(ctx: &Ctx) -> Report {
    const SERVED: usize = 10_000;
    let mut report = Report::default();
    let table = synth::dataset_spec("weather")
        .expect("dataset is registered")
        .generate(12_000);
    let mut order: Vec<usize> = (0..table.n_rows()).collect();
    Rng::new(ctx.seed, 200).shuffle(&mut order);
    let row = |t: usize| -> Vec<u32> {
        (0..table.n_attrs())
            .map(|a| table.label(t as u32, a as u16))
            .collect()
    };
    let datasets = [Dataset::write(
        ctx,
        "serve-write",
        "weather",
        &table,
        &order[..SERVED],
    )];
    let epoch = Instant::now();
    let (server, setup_s) = setup(&mut report, &datasets);
    let tracer = Tracer::new(ctx.trace);

    tracer.resume();
    let session = server.session();
    let warm = vec![
        send(&server, &session, discover_line(&datasets, 0), epoch),
        send(&server, &session, keys_line(&datasets, 0), epoch),
    ];
    tracer.pause();

    let mut writer = Writer {
        rows: order[..SERVED].iter().map(|&t| row(t)).collect(),
        pool: order[SERVED..].iter().map(|&t| row(t)).collect(),
        rng: Rng::new(ctx.seed, 300),
        log: Vec::new(),
    };
    let reader = reader_lines(&datasets, &mut Rng::new(ctx.seed, 100), WRITE_CYCLE);
    let mut reads = reader.iter().cycle().cloned();
    let clients: Vec<Client> = vec![
        Box::new(|| writer.next_line()),
        Box::new(move || reads.next().expect("cycling a non-empty sequence")),
    ];
    let window = run_window(ctx, &server, &tracer, epoch, clients);
    let peak = peak_rss_mb();
    let traced = tracer.finish();
    report.attempted = window.replies.len() as u64;
    let last_keys = send(&server, &session, keys_line(&datasets, 0), epoch);

    // Checks. Deltas apply in the order sent, so delta i yields version i+1.
    let deltas: Vec<&Reply> = window
        .replies
        .iter()
        .filter(|r| r.req.verb() == "delta")
        .collect();
    for (i, reply) in deltas.iter().enumerate() {
        let Req::Delta { rows } = reply.req else {
            unreachable!("filtered on the verb")
        };
        report.check(
            reply.ok
                && reply.version == i as u64 + 1
                && reply.rows == SERVED as u64
                && reply.rows_inserted == rows as u64
                && reply.rows_deleted == rows as u64,
            || {
                format!(
                    "delta {i}: {}",
                    if reply.ok {
                        "wrong counts"
                    } else {
                        &reply.error
                    }
                )
            },
        );
    }
    // Replay the deltas through the registration dictionaries, so the
    // expected relation at each version carries the server's own labels.
    let reads: Vec<&Reply> = warm
        .iter()
        .chain(window.replies.iter().filter(|r| r.req.verb() != "delta"))
        .chain([&last_keys])
        .collect();
    let versions_of = |verb: &str| {
        spread(
            reads
                .iter()
                .filter(|r| r.req.verb() == verb)
                .map(|r| r.version)
                .collect(),
        )
    };
    let (deep_discover, deep_keys) = (versions_of("discover"), versions_of("keys"));
    let mut by_version: BTreeMap<u64, Vec<&Reply>> = BTreeMap::new();
    for reply in &reads {
        by_version.entry(reply.version).or_default().push(reply);
    }
    let d = &datasets[0];
    let (base, mut dicts, _) =
        read_csv_with_dictionaries(&d.csv[..], d.name, &CsvOptions::default()).expect("CSV parses");
    let names = base.column_names().to_vec();
    let mut encoded: Vec<Vec<u32>> = (0..base.n_rows())
        .map(|t| {
            (0..base.n_attrs())
                .map(|a| base.label(t as u32, a as u16))
                .collect()
        })
        .collect();
    let mut render_ms = Vec::new();
    let mut f1 = Vec::new();
    report.check(last_keys.version == writer.log.len() as u64, || {
        format!(
            "final version {}, but {} deltas were sent",
            last_keys.version,
            writer.log.len()
        )
    });
    for version in 0..=writer.log.len() as u64 {
        if version > 0 {
            let (inserts, deletes) = &writer.log[version as usize - 1];
            let inserts = inserts
                .iter()
                .map(|r| dicts.encode_row(&labels(r)))
                .collect();
            apply_delta(&mut encoded, inserts, deletes);
        }
        let Some(replies) = by_version.get(&version) else {
            continue;
        };
        let columns = (0..names.len())
            .map(|a| encoded.iter().map(|r| r[a]).collect())
            .collect();
        let mut expect = Expect::new(Relation::from_encoded_columns(
            d.name,
            names.clone(),
            columns,
        ));
        for reply in replies {
            let deep = match reply.req.verb() {
                "discover" => deep_discover.contains(&version),
                "keys" => deep_keys.contains(&version) || std::ptr::eq(*reply, &last_keys),
                _ => false,
            };
            expect.check(&mut report, reply, deep, &mut render_ms);
        }
        f1.extend(expect.f1());
    }
    serve_e2e(&mut report, &window, "delta", &setup_s, peak, &f1);
    if let Some(traced) = traced {
        serve_layers(
            &mut report,
            &traced,
            &window,
            &warm,
            &datasets,
            &[&base],
            &render_ms,
        );
    }
    report
}

/// The end-to-end metrics of a served workload: latency of its operation
/// `op`, throughput over all requests, and set-up, F1 and memory.
fn serve_e2e(
    report: &mut Report,
    window: &Window,
    op: &str,
    setup_s: &[f64],
    peak: f64,
    f1: &[f64],
) {
    let untraced: Vec<&Reply> = window.untraced().collect();
    let latency = |verb: &str| -> Vec<f64> {
        untraced
            .iter()
            .filter(|r| r.req.verb() == verb)
            .map(|r| r.latency_s)
            .collect()
    };
    let op_s = latency(op);
    let span_s = untraced
        .iter()
        .map(|r| r.end_s())
        .fold(window.start_s, f64::max)
        - window.start_s;
    report.e2e("op_ms_p50", median(&op_s) * 1e3, "ms", op_s.len());
    report.e2e(
        "ops_per_s",
        ratio(untraced.len() as f64, span_s),
        "1/s",
        untraced.len(),
    );
    report.e2e("f1", mean(f1), "ratio", f1.len());
    report.e2e("setup_s", median(setup_s), "s", setup_s.len());
    report.e2e("peak_rss_mb", peak, "MiB", 1);
    report.info("op_ms_p90", quantile(&op_s, 0.9) * 1e3, "ms", op_s.len());
    for verb in ["discover", "validate", "keys", "delta"] {
        let s = latency(verb);
        if !s.is_empty() {
            report.info(
                &format!("client.{verb}_ms_p50"),
                median(&s) * 1e3,
                "ms",
                s.len(),
            );
            report.info(
                &format!("client.{verb}_ms_p90"),
                quantile(&s, 0.9) * 1e3,
                "ms",
                s.len(),
            );
        }
        let exec: Vec<f64> = untraced
            .iter()
            .filter(|r| r.req.verb() == verb)
            .map(|r| r.wall_ms)
            .collect();
        if !exec.is_empty() {
            report.info(
                &format!("server.exec_{verb}_ms_p50"),
                median(&exec),
                "ms",
                exec.len(),
            );
        }
    }
    let outside: Vec<f64> = untraced
        .iter()
        .map(|r| r.latency_s * 1e3 - r.wall_ms)
        .collect();
    report.info(
        "server.outside_exec_ms_p50",
        median(&outside),
        "ms",
        outside.len(),
    );
    report.info(
        "server.outside_exec_ms_p90",
        quantile(&outside, 0.9),
        "ms",
        outside.len(),
    );
}

/// The per-layer metrics of a served workload, from the traced half of the
/// window plus the traced warm-up, and standalone calls on its data.
fn serve_layers(
    report: &mut Report,
    traced: &Traced,
    window: &Window,
    warm: &[Reply],
    datasets: &[Dataset],
    relations: &[&Relation],
    render_ms: &[f64],
) {
    let timed = |f: &dyn Fn()| {
        let rounds: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                f();
                secs_since(start)
            })
            .collect();
        median(&rounds)
    };
    let read_s = timed(&|| {
        for d in datasets {
            black_box(read_csv_with_dictionaries(&d.csv[..], d.name, &CsvOptions::default()).ok());
        }
    });
    let csv_mb = datasets
        .iter()
        .map(|d| d.csv.len() as f64 / 1e6)
        .sum::<f64>();
    report.layer("csv.read_s", read_s, "s", datasets.len());
    report.layer(
        "csv.mb_per_s",
        ratio(csv_mb, read_s),
        "MB/s",
        datasets.len(),
    );
    let clusters_s = timed(&|| {
        for r in relations {
            black_box(sampling_clusters_parallel(r, JOB_THREADS));
            black_box(r.row_major());
        }
    });
    report.layer("partition.clusters_s", clusters_s, "s", relations.len());
    let cold_exact_s = timed(&|| {
        for r in relations {
            black_box(DeltaEngine::new((*r).clone(), JOB_THREADS));
        }
    });
    report.info("catalog.cold_exact_s", cold_exact_s, "s", relations.len());

    let traced_replies: Vec<&Reply> = window.traced().collect();
    for (i, r) in traced_replies.iter().enumerate() {
        let fields = vec![
            ("version", r.version as f64),
            ("wall_ms", r.wall_ms),
            ("from_cache", f64::from(u8::from(r.from_cache))),
        ];
        report.span(
            r.req.verb(),
            i as u64,
            None,
            (r.start_s * 1e6, r.end_s() * 1e6),
            fields,
        );
    }
    let misses: Vec<f64> = warm
        .iter()
        .chain(traced_replies.iter().copied())
        .filter(|r| r.ok && r.req.verb() == "discover" && !r.from_cache)
        .map(|r| r.wall_ms / 1e3)
        .collect();
    let (sample_s, invert_s) = traced.euler_layers(report, misses.len());
    report.layer(
        "driver.other_s",
        mean(&misses) - sample_s - invert_s,
        "s",
        misses.len(),
    );
    report.layer(
        "protocol.render_fds_ms",
        mean(render_ms),
        "ms",
        render_ms.len(),
    );

    let n = traced_replies.len();
    let latency_s: f64 = traced_replies.iter().map(|r| r.latency_s).sum();
    let exec_s: f64 = traced_replies.iter().map(|r| r.wall_ms / 1e3).sum();
    let count = |verb: &str| {
        traced_replies
            .iter()
            .filter(|r| r.req.verb() == verb)
            .count() as f64
    };
    let deltas = count("delta");
    let (at_split, at_end) = &window.stats;
    let pli_hits = traced.counter("pli_cache.hits");
    ServerLayers {
        outside_exec_pct: 100.0 * ratio(latency_s - exec_s, latency_s),
        worker_util: ratio(exec_s, WORKERS as f64 * (window.end_s - window.split_s)),
        result_cache_hit_rate: ratio(
            (at_end.cache_hits - at_split.cache_hits) as f64,
            count("discover"),
        ),
        result_cache_invalidations_per_delta: ratio(
            (at_end.cache_invalidations - at_split.cache_invalidations) as f64,
            deltas,
        ),
        pli_cache_hit_rate: ratio(pli_hits, pli_hits + traced.counter("pli_cache.misses")),
        pli_cache_surgical_evictions_per_delta: ratio(
            traced.counter("cache.surgical_evictions"),
            deltas,
        ),
        candidates_revived_per_delta: ratio(traced.counter("delta.candidates_revived"), deltas),
        rows_per_delta: ratio(
            traced.counter("delta.rows_inserted") + traced.counter("delta.rows_deleted"),
            deltas,
        ),
        n,
    }
    .report(report);

    let op_p50 = |replies: Vec<&Reply>, op: &str| {
        median(
            &replies
                .iter()
                .filter(|r| r.req.verb() == op)
                .map(|r| r.latency_s)
                .collect::<Vec<_>>(),
        )
    };
    let op = if deltas > 0.0 { "delta" } else { "discover" };
    report.layer(
        "tracing_overhead_pct",
        100.0
            * (ratio(
                op_p50(traced_replies.clone(), op),
                op_p50(window.untraced().collect(), op),
            ) - 1.0),
        "%",
        n,
    );
    let mut table: Vec<(&'static str, f64)> = Vec::new();
    for (layer, verb) in [
        ("server.exec.discover", "discover"),
        ("server.exec.validate", "validate"),
        ("server.exec.keys", "keys"),
        ("server.exec.delta", "delta"),
    ] {
        let exec: Vec<f64> = traced_replies
            .iter()
            .filter(|r| r.req.verb() == verb)
            .map(|r| r.wall_ms / 1e3)
            .collect();
        if !exec.is_empty() {
            table.push((layer, ratio(exec.iter().sum(), n as f64)));
        }
    }
    table.push(("outside_exec", ratio(latency_s - exec_s, n as f64)));
    report.layer_table = table;
    let untraced: Vec<f64> = window.untraced().map(|r| r.latency_s).collect();
    report.layer_refs = vec![("untraced mean request", mean(&untraced))];
    report.telemetry = Some(traced.delta.clone());
}
