//! What a workload hands back, and how it is printed: one line per metric,
//! the per-layer table and trace file of a traced run, and the final JSON
//! line.

use crate::util::ratio;
use crate::Ctx;
use fd_telemetry::{EventSnapshot, TelemetrySnapshot};
use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// One span the benchmark recorded around a call into the program. `id` is
/// the run or request the span belongs to; times are microseconds since the
/// workload started.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    pub fields: Vec<(&'static str, f64)>,
}

#[derive(Default)]
pub struct Report {
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations whose output was wrong or missing, plus failed checks.
    pub failed: u64,
    problems: Vec<String>,
    /// The `end_to_end` metrics of BENCHMARK.json.
    pub e2e: Vec<Metric>,
    /// The `per_layer` metrics of BENCHMARK.json (traced runs only).
    pub layers: Vec<Metric>,
    /// Printed breakdowns that are not in BENCHMARK.json.
    pub info: Vec<Metric>,
    /// Traced runs: self time per operation of each layer, in seconds. The
    /// last layer is the remainder, so the rows add up to the mean traced
    /// operation.
    pub layer_table: Vec<(&'static str, f64)>,
    /// Operation times, in seconds, to print next to the layer sum.
    pub layer_refs: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub telemetry: Option<TelemetrySnapshot>,
}

impl Report {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks a condition, counting a failure when it does not hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.info.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
        });
    }

    /// Records a span and returns its index, for children to name as parent.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        (start_us, end_us): (f64, f64),
        fields: Vec<(&'static str, f64)>,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us,
            end_us,
            fields,
        });
        self.spans.len() - 1
    }

    /// Prints every metric line, the traced extras, and the JSON result.
    pub fn print(mut self, workload: &str, ctx: &Ctx) {
        let printed = if ctx.trace { &self.layers } else { &self.e2e };
        let bad: Vec<String> = printed
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.fail(format!("metric {name} is not a finite number"));
        }
        for m in self.e2e.iter().chain(&self.info).chain(&self.layers) {
            println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        if ctx.trace {
            self.print_layer_table(workload);
            self.write_trace(workload, ctx);
        }
        for problem in &self.problems {
            eprintln!("fdbench: {workload}: {problem}");
        }
        let metrics: Vec<String> = (if ctx.trace { &self.layers } else { &self.e2e })
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }

    fn print_layer_table(&self, workload: &str) {
        let total: f64 = self.layer_table.iter().map(|(_, s)| s).sum();
        println!("{workload} layer table: self time per operation (traced)");
        for (layer, s) in &self.layer_table {
            println!(
                "{workload}   {layer:<24} {:>10.3} ms {:>6.1}%",
                s * 1e3,
                100.0 * ratio(*s, total)
            );
        }
        println!(
            "{workload}   {:<24} {:>10.3} ms (the mean traced operation)",
            "sum",
            total * 1e3
        );
        for (label, s) in &self.layer_refs {
            println!(
                "{workload}   {label:<24} {:>10.3} ms ({:+.1}% from the sum)",
                s * 1e3,
                100.0 * (ratio(*s, total) - 1.0)
            );
        }
    }

    /// Writes the spans and the telemetry delta of the traced activity to
    /// `<out-dir>/trace-<workload>-seed<N>.json`.
    fn write_trace(&self, workload: &str, ctx: &Ctx) {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"fdbench-trace/v1\",\"workload\":{},\"seed\":{},\"spans\":[",
            json_str(workload),
            ctx.seed
        );
        for (i, s) in self.spans.iter().enumerate() {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            let _ = write!(
                out,
                "{}{{\"i\":{i},\"name\":{},\"id\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"fields\":{{{}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(s.name),
                s.id,
                s.parent.map_or(-1, |p| p as i64),
                s.start_us,
                s.end_us,
                fields.join(",")
            );
        }
        let telemetry = self
            .telemetry
            .as_ref()
            .map_or("null".to_owned(), |t| t.to_json());
        let _ = write!(out, "],\n\"telemetry\":{telemetry}}}\n");
        let path = ctx
            .out_dir
            .join(format!("trace-{workload}-seed{}.json", ctx.seed));
        match std::fs::write(&path, out) {
            Ok(()) => println!("{workload} trace written to {}", path.display()),
            Err(e) => eprintln!("fdbench: cannot write {}: {e}", path.display()),
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Layer metrics of the serving stack. A batch run has no server and
/// reports the zero default.
#[derive(Default)]
pub struct ServerLayers {
    /// Share of client-observed latency spent outside job execution
    /// (which includes waiting on the dataset lock): queueing for a worker,
    /// parsing the request and rendering the reply.
    pub outside_exec_pct: f64,
    /// Job execution time over the workers' wall time.
    pub worker_util: f64,
    pub result_cache_hit_rate: f64,
    pub result_cache_invalidations_per_delta: f64,
    pub pli_cache_hit_rate: f64,
    pub pli_cache_surgical_evictions_per_delta: f64,
    pub candidates_revived_per_delta: f64,
    pub rows_per_delta: f64,
    /// Requests behind the values.
    pub n: usize,
}

impl ServerLayers {
    pub fn report(&self, report: &mut Report) {
        let n = self.n;
        report.layer("server.outside_exec_pct", self.outside_exec_pct, "%", n);
        report.layer("server.worker_util", self.worker_util, "ratio", n);
        report.layer(
            "result_cache.hit_rate",
            self.result_cache_hit_rate,
            "ratio",
            n,
        );
        report.layer(
            "result_cache.invalidations_per_delta",
            self.result_cache_invalidations_per_delta,
            "count",
            n,
        );
        report.layer("pli_cache.hit_rate", self.pli_cache_hit_rate, "ratio", n);
        report.layer(
            "pli_cache.surgical_evictions_per_delta",
            self.pli_cache_surgical_evictions_per_delta,
            "count",
            n,
        );
        report.layer(
            "incremental.candidates_revived_per_delta",
            self.candidates_revived_per_delta,
            "count",
            n,
        );
        report.layer(
            "incremental.rows_per_delta",
            self.rows_per_delta,
            "count",
            n,
        );
    }
}

/// Telemetry recorded while the traced parts of a workload ran: the
/// registry delta plus the structured events emitted in between.
pub struct Traced {
    pub delta: TelemetrySnapshot,
    pub events: Vec<EventSnapshot>,
}

/// Brackets the traced parts of a workload. Recording is switched on only
/// between `resume` and `pause`, so one delta covers every traced part.
pub struct Tracer {
    base: Option<TelemetrySnapshot>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            base: enabled.then(TelemetrySnapshot::capture),
        }
    }

    pub fn resume(&self) {
        if self.base.is_some() {
            fd_telemetry::set_enabled(true);
        }
    }

    pub fn pause(&self) {
        fd_telemetry::set_enabled(false);
    }

    pub fn finish(self) -> Option<Traced> {
        fd_telemetry::set_enabled(false);
        let base = self.base?;
        let end = TelemetrySnapshot::capture();
        let events = end
            .events
            .get(base.events.len()..)
            .unwrap_or_default()
            .to_vec();
        Some(Traced {
            delta: end.delta_since(&base),
            events,
        })
    }
}

impl Traced {
    pub fn counter(&self, name: &str) -> f64 {
        self.delta.counter(name).unwrap_or(0) as f64
    }

    /// Total seconds recorded by the program's span `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.delta
            .histogram(&format!("span.{name}.ns"))
            .map_or(0.0, |h| h.sum as f64 / 1e9)
    }

    pub fn span_count(&self, name: &str) -> f64 {
        self.delta
            .histogram(&format!("span.{name}.ns"))
            .map_or(0.0, |h| h.count as f64)
    }

    /// The EulerFD layers of `runs` traced discovery runs, per run. Returns
    /// the sampling and inversion seconds per run for the layer table.
    pub fn euler_layers(&self, report: &mut Report, runs: usize) -> (f64, f64) {
        let n = runs as f64;
        let sample_s = self.span_s("euler.phase.sample");
        let invert_s = self.span_s("euler.phase.invert");
        let pairs = self.counter("euler.sampler.pairs_compared");
        report.layer("sampler.s", ratio(sample_s, n), "s", runs);
        report.layer("sampler.pairs", ratio(pairs, n), "count", runs);
        report.layer("sampler.pairs_per_s", ratio(pairs, sample_s), "1/s", runs);
        report.layer(
            "sampler.useful_ratio",
            ratio(self.counter("euler.sampler.new_non_fds"), pairs),
            "ratio",
            runs,
        );
        report.layer("cover.invert_s", ratio(invert_s, n), "s", runs);
        report.layer(
            "cover.invalidations",
            ratio(self.counter("euler.invalidations"), n),
            "count",
            runs,
        );
        // A run's final sizes are those of its last cycle event; a run starts
        // with sampling round 0.
        let mut finals: Vec<(f64, f64)> = Vec::new();
        let mut rounds = 0usize;
        for e in &self.events {
            let field = |k: &str| {
                e.fields
                    .iter()
                    .find(|(f, _)| f == k)
                    .map_or(0.0, |&(_, v)| v)
            };
            match e.name.as_str() {
                "euler.sample_round" => {
                    rounds += 1;
                    if field("round") == 0.0 {
                        finals.push((0.0, 0.0));
                    }
                }
                "euler.cycle" => {
                    if let Some(last) = finals.last_mut() {
                        *last = (field("ncover_size"), field("pcover_size"));
                    }
                }
                _ => {}
            }
        }
        let seen = finals.len();
        report.layer(
            "cover.ncover_size",
            ratio(finals.iter().map(|f| f.0).sum(), seen as f64),
            "count",
            seen,
        );
        report.layer(
            "cover.pcover_size",
            ratio(finals.iter().map(|f| f.1).sum(), seen as f64),
            "count",
            seen,
        );
        report.layer(
            "driver.inversions",
            ratio(self.span_count("euler.phase.invert"), n),
            "count",
            runs,
        );
        report.layer(
            "driver.sample_rounds",
            ratio(rounds as f64, n),
            "count",
            runs,
        );
        (ratio(sample_s, n), ratio(invert_s, n))
    }
}
