//! # fast-benchmark — how this repository's performance is measured
//!
//! Four workloads, each aimed at different layers, run as a sequence of
//! *segments*. A segment is one process: it sets up (compile, artifact
//! build and decode, server start, input generation, warm pass), runs a
//! fixed amount of timed work, checks every output against an
//! independent reference, and reports a [`Segment`]. The interner, the
//! memos and the `fast_obs` counters are process-global, so a fresh
//! process per segment is the only way to make set-up honest and keep
//! their state from leaking between workloads. `src/main.rs` documents
//! the command, the workloads and the metrics.
//!
//! Layers are measured only from outside: the benchmark times calls into
//! public functions of the workspace crates and reads the `fast_obs`
//! counters, gauges and histograms those crates already record.

#![warn(missing_docs)]

mod batch;
mod calibrate;
mod checkar;
mod pages;
mod serve;
mod spans;

use fast_json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A warmed `fast-serve` server answering a repeated working set.
    ServeRepeat,
    /// The same server answering pages it has never seen.
    ServeFresh,
    /// The sanitizer plan over a §5.1-shaped corpus, against the
    /// hand-written rewriter.
    BatchSanitize,
    /// The §5.2 conflict check over generated taggers, plus the semantic
    /// checker over `programs/*.fast`.
    CheckAr,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeRepeat,
        Workload::ServeFresh,
        Workload::BatchSanitize,
        Workload::CheckAr,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRepeat => "serve-repeat",
            Workload::ServeFresh => "serve-fresh",
            Workload::BatchSanitize => "batch-sanitize",
            Workload::CheckAr => "check-ar",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one segment does. `Full` is what the command runs;
/// `Tiny` keeps every code path but finishes in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's real segment size.
    Full,
    /// A smoke-test size.
    Tiny,
}

/// What one segment measured.
///
/// `raw` holds quantities that add across segments (counts, summed
/// milliseconds, counter deltas over the timed window); `levels` holds
/// point readings (residency at the end of the window), which combine by
/// median.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Which segment of the run this is (it selects the inputs' seed).
    pub index: u64,
    /// Whether the bench-side span recorder was on.
    pub traced: bool,
    /// Seconds from process start to the first timed operation, at the
    /// reference machine speed (see the `calibrate` module), as are all
    /// the times below.
    pub setup_s: f64,
    /// Seconds the timed operations took (the window).
    pub window_s: f64,
    /// One latency per timed operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// How much slower than the reference the machine ran during the
    /// window (the mean probe over its reference).
    pub slowdown: f64,
    /// Operations attempted in the window.
    pub attempted: u64,
    /// Operations that failed or whose output did not match the reference.
    pub failed: u64,
    /// The process's peak resident set (`VmHWM`) at the end of the
    /// window, in MB.
    pub peak_rss_mb: f64,
    /// Additive quantities (see the type docs).
    pub raw: BTreeMap<String, f64>,
    /// Point readings (see the type docs).
    pub levels: BTreeMap<String, f64>,
    /// The first few failure descriptions, for the log.
    pub errors: Vec<String>,
}

impl Segment {
    fn new(index: u64, traced: bool) -> Segment {
        Segment {
            index,
            traced,
            ..Segment::default()
        }
    }

    /// Adds `v` to the additive quantity `key`.
    fn add(&mut self, key: &str, v: f64) {
        *self.raw.entry(key.to_string()).or_default() += v;
    }

    /// Records one failed check (operations were already counted).
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Serializes for the child-to-parent hand-off (one JSON line).
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Float(*v))))
        };
        let list = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Float(x)).collect());
        Json::obj([
            ("index", Json::Int(self.index as i64)),
            ("traced", Json::Bool(self.traced)),
            ("setup_s", Json::Float(self.setup_s)),
            ("window_s", Json::Float(self.window_s)),
            ("latencies_ms", list(&self.latencies_ms)),
            ("slowdown", Json::Float(self.slowdown)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("peak_rss_mb", Json::Float(self.peak_rss_mb)),
            ("raw", map(&self.raw)),
            ("levels", map(&self.levels)),
            (
                "errors",
                Json::Array(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Parses what [`Segment::to_json`] wrote.
    pub fn from_json(j: &Json) -> Option<Segment> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        let list = |k: &str| -> Option<Vec<f64>> {
            j.get(k)?.as_array()?.iter().map(Json::as_f64).collect()
        };
        let map = |k: &str| -> Option<BTreeMap<String, f64>> {
            j.get(k)?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(Segment {
            index: num("index")? as u64,
            traced: j.get("traced")?.as_bool()?,
            setup_s: num("setup_s")?,
            window_s: num("window_s")?,
            latencies_ms: list("latencies_ms")?,
            slowdown: num("slowdown")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            raw: map("raw")?,
            levels: map("levels")?,
            errors: j
                .get("errors")?
                .as_array()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// Runs one segment of `workload` in this process. `started` is when
/// the process started: set-up time counts from it. With a `trace_dir`
/// the segment is traced, and segment 0 writes `trace_<workload>.json` into it.
pub fn run_segment(
    workload: Workload,
    seed: u64,
    index: u64,
    size: Size,
    started: Instant,
    trace_dir: Option<&Path>,
) -> Segment {
    let mut seg = Segment::new(index, trace_dir.is_some());
    let seed = pages::sub_seed(seed, index);
    let threads = match workload {
        Workload::ServeRepeat => serve::segment(&mut seg, false, seed, size, started),
        Workload::ServeFresh => serve::segment(&mut seg, true, seed, size, started),
        Workload::BatchSanitize => batch::segment(&mut seg, seed, size, started),
        Workload::CheckAr => checkar::segment(&mut seg, seed, size, started),
    };
    if let (0, Some(dir)) = (index, trace_dir) {
        let path = dir.join(format!("trace_{}.json", workload.name()));
        if let Err(e) = std::fs::write(&path, spans::chrome_trace(&threads)) {
            seg.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    seg
}

/// Counters whose window deltas feed per-layer metrics.
const WINDOW_COUNTERS: &[&str] = &[
    "intern.hits",
    "intern.misses",
    "intern.contended",
    "rt.memo_hits",
    "rt.memo_misses",
    "rt.memo_evictions",
    "rt.la_cache_hits",
    "compose.reduce_iterations",
    "compose.pair_states",
    "automata.product_states",
    "automata.det_states",
    "smt.sat_queries",
    "smt.cache_misses",
    "smt.unknown_results",
    "sv.unknown",
];

/// The semantic checker's per-FA-code timers.
const FA_CODES: &[&str] = &[
    "fa001", "fa002", "fa003", "fa004", "fa005", "fa006", "fa007", "fa100", "fa101",
];

/// Histograms whose window sums (and counts) feed per-layer metrics.
fn window_hists() -> impl Iterator<Item = String> {
    ["serve.request", "rt.item", "smt.check"]
        .into_iter()
        .map(String::from)
        .chain(FA_CODES.iter().map(|c| format!("analysis.check.{c}")))
}

/// Records the `fast_obs` deltas of the timed window into `seg`, and the
/// residency gauges and peak RSS as of its end (before any checking).
fn record_window(seg: &mut Segment, before: &fast_obs::Snapshot) {
    seg.peak_rss_mb = peak_rss_mb();
    let after = fast_obs::snapshot();
    let d = after.delta_from(before);
    for c in WINDOW_COUNTERS {
        seg.add(c, d.get(c) as f64);
    }
    seg.add(
        "smt.cache_hits",
        d.sum_prefix("smt.cache_hits.shard") as f64,
    );
    for h in window_hists() {
        let (count, sum_ns) = d.hists.get(&h).map_or((0, 0), |s| (s.count, s.sum_ns));
        seg.add(&format!("{h}.count"), count as f64);
        seg.add(&format!("{h}.ms"), sum_ns as f64 / 1e6);
    }
    let mb = |g: &str| after.gauge(g) as f64 / 1e6;
    seg.levels
        .insert("intern.resident_mb".into(), mb("intern.resident_bytes"));
    seg.levels.insert(
        "rt.memo.resident_mb".into(),
        mb("rt.memo.bytes") + mb("rt.la.bytes"),
    );
}

/// Records the traced op spans (roots and their direct children).
fn record_trace(seg: &mut Segment, spans: &[spans::Span]) {
    let (ops, op_ns, layers) = spans::layer_totals(spans);
    seg.add("trace.ops", ops as f64);
    seg.add("trace.op_ms", op_ns as f64 / 1e6);
    let mut children = 0u64;
    for (name, ns) in layers {
        seg.add(&format!("trace.layer.{name}.ms"), ns as f64 / 1e6);
        children += ns;
    }
    seg.add("trace.glue.ms", (op_ns - children) as f64 / 1e6);
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Seconds since `t`.
fn s_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set size in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1e3)
        })
        .unwrap_or(0.0)
}

/// The `q`-quantile of `xs` (linear interpolation between closest
/// ranks, as `numpy.percentile` does by default); 0 when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn sum(segs: &[Segment], key: &str) -> f64 {
    // A fold from +0.0: an empty f64 `sum()` is -0.0, which prints as "-0".
    segs.iter()
        .filter_map(|s| s.raw.get(key))
        .fold(0.0, |a, b| a + b)
}

fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    quantile(&v, 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never reaches).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics of a run (its untraced segments), each the
/// median over the segments of that segment's value. Times are at the
/// reference machine speed (see the `calibrate` module).
pub fn end_to_end(segs: &[Segment]) -> Vec<Metric> {
    let median = |f: fn(&Segment) -> f64| median_of(segs.iter().map(f));
    vec![
        metric("setup_s", median(|s| s.setup_s), "s"),
        metric(
            "ops_per_s",
            median(|s| ratio(s.latencies_ms.len() as f64, s.window_s)),
            "op/s",
        ),
        metric(
            "latency_p50_ms",
            median(|s| quantile(&s.latencies_ms, 0.50)),
            "ms",
        ),
        metric(
            "latency_p90_ms",
            median(|s| quantile(&s.latencies_ms, 0.90)),
            "ms",
        ),
        metric("peak_rss_mb", median(|s| s.peak_rss_mb), "MB"),
    ]
}

/// Trace layers, named after the modules whose public functions the
/// spans wrap. Each becomes a `<layer>_pct` metric: its share of the
/// traced op.
const TRACE_LAYERS: &[&str] = &[
    "serve.proto.read",
    "json.parse",
    "trees.parse",
    "rt.plan.eval",
    "trees.display",
    "serve.proto.write",
    "core.compose",
    "core.restrict",
    "core.restrict_out",
    "core.is_empty",
    "lang.compile",
    "analysis.check",
];

/// The per-layer metrics of a traced run: window rows from its untraced
/// segments, trace rows from its traced segments (same seeds and work).
pub fn per_layer(untraced: &[Segment], traced: &[Segment]) -> Vec<Metric> {
    let u = |k: &str| sum(untraced, k);
    let t = |k: &str| sum(traced, k);
    let ops = untraced.iter().map(|s| s.latencies_ms.len()).sum::<usize>() as f64;
    // Shares of op and set-up time compare wall-clock times: `fast_obs`
    // timers, like these sums, are not scaled to reference speed.
    let op_ms = u("op.ms");
    let window = |segs: &[Segment]| segs.iter().map(|s| s.window_s).sum::<f64>();
    let level = |k: &str| median_of(untraced.iter().filter_map(|s| s.levels.get(k).copied()));
    let per_op = |k: &str| ratio(u(k), ops);
    let pct = |a: f64, b: f64| 100.0 * ratio(a, b);
    let trace_ms = t("trace.op_ms");

    let mut m = vec![
        metric(
            "machine.slowdown",
            median_of(untraced.iter().map(|s| s.slowdown)),
            "x",
        ),
        metric("trace.op_ms", ratio(trace_ms, t("trace.ops")), "ms"),
        metric(
            "trace.overhead_pct",
            pct(window(traced) - window(untraced), window(untraced)),
            "%",
        ),
    ];
    for layer in TRACE_LAYERS {
        let ms = t(&format!("trace.layer.{layer}.ms"));
        m.push(metric(format!("{layer}_pct"), pct(ms, trace_ms), "%"));
    }
    m.push(metric(
        "trace.glue_pct",
        pct(t("trace.glue.ms"), trace_ms),
        "%",
    ));
    m.extend([
        metric("serve.server_pct", pct(u("serve.request.ms"), op_ms), "%"),
        metric("rt.plan.item_pct", pct(u("rt.item.ms"), op_ms), "%"),
        metric("smt.check_pct", pct(u("smt.check.ms"), op_ms), "%"),
        metric(
            "trees.intern.hits_per_op",
            per_op("intern.hits"),
            "count/op",
        ),
        metric(
            "trees.intern.misses_per_op",
            per_op("intern.misses"),
            "count/op",
        ),
        metric(
            "trees.intern.contended_per_op",
            per_op("intern.contended"),
            "count/op",
        ),
        metric(
            "trees.intern.resident_mb",
            level("intern.resident_mb"),
            "MB",
        ),
        metric(
            "rt.memo.hit_rate",
            ratio(u("rt.memo_hits"), u("rt.memo_hits") + u("rt.memo_misses")),
            "ratio",
        ),
        metric(
            "rt.memo.misses_per_op",
            per_op("rt.memo_misses"),
            "count/op",
        ),
        metric(
            "rt.memo.evictions_per_op",
            per_op("rt.memo_evictions"),
            "count/op",
        ),
        metric("rt.la.hits_per_op", per_op("rt.la_cache_hits"), "count/op"),
        metric("rt.memo.resident_mb", level("rt.memo.resident_mb"), "MB"),
        metric(
            "core.compose.reduce_iterations_per_op",
            per_op("compose.reduce_iterations"),
            "count/op",
        ),
        metric(
            "core.compose.pair_states_per_op",
            per_op("compose.pair_states"),
            "count/op",
        ),
        metric(
            "automata.product_states_per_op",
            per_op("automata.product_states"),
            "count/op",
        ),
        metric(
            "automata.det_states_per_op",
            per_op("automata.det_states"),
            "count/op",
        ),
        metric(
            "smt.sat_queries_per_op",
            per_op("smt.sat_queries"),
            "count/op",
        ),
        metric(
            "smt.cache_hit_rate",
            ratio(
                u("smt.cache_hits"),
                u("smt.cache_hits") + u("smt.cache_misses"),
            ),
            "ratio",
        ),
    ]);
    let program_ms = u("program.ms");
    for code in FA_CODES {
        let ms = u(&format!("analysis.check.{code}.ms"));
        m.push(metric(
            format!("analysis.{code}_pct"),
            pct(ms, program_ms),
            "%",
        ));
    }
    let first = untraced
        .iter()
        .find(|s| s.index == 0)
        .map_or(0.0, |s| s.raw.get("conflicts").copied().unwrap_or(0.0));
    let setup = u("setup.s");
    m.extend([
        metric("check.conflicts", first, "count"),
        metric("check.unknown", u("unknown"), "count"),
        metric(
            "bench.fast_manual_ratio",
            ratio(op_ms, u("baseline.ms")),
            "x",
        ),
        metric(
            "bench.baseline_mb_s",
            ratio(u("baseline.mb"), u("baseline.ms") / 1e3),
            "MB/s",
        ),
        metric("bench.samples", ops, "count"),
    ]);
    for phase in ["compile", "artifact", "server_start", "inputs", "warm"] {
        let s = u(&format!("setup.{phase}.s"));
        m.push(metric(format!("setup.{phase}_pct"), pct(s, setup), "%"));
    }
    m
}

/// The traced op, layer by layer, as printable rows of mean milliseconds
/// per op and share: the rows plus the glue add up to the traced total.
/// For the serve workloads the replayed request is also set against the
/// server's own `serve.request` mean (its timer starts after dequeue, so
/// it leaves out queueing) and the client's mean latency.
pub fn waterfall(untraced: &[Segment], traced: &[Segment]) -> Vec<String> {
    let ops = sum(traced, "trace.ops");
    let total = sum(traced, "trace.op_ms");
    if ops == 0.0 {
        return Vec::new();
    }
    let row = |label: &str, ms: f64| {
        format!(
            "  {label:<20} {:>10.3} ms {:>6.1}%",
            ms / ops,
            100.0 * ms / total
        )
    };
    let mut rows = vec![format!("waterfall of {ops} traced op(s), mean per op")];
    for layer in TRACE_LAYERS {
        let ms = sum(traced, &format!("trace.layer.{layer}.ms"));
        if ms > 0.0 {
            rows.push(row(layer, ms));
        }
    }
    rows.push(row("glue", sum(traced, "trace.glue.ms")));
    rows.push(row("total", total));
    let served = sum(untraced, "serve.request.count");
    if served > 0.0 {
        let client: Vec<f64> = untraced
            .iter()
            .flat_map(|s| s.latencies_ms.clone())
            .collect();
        rows.push(format!(
            "  server serve.request mean {:.3} ms, client mean {:.3} ms (untraced windows)",
            sum(untraced, "serve.request.ms") / served,
            client.iter().sum::<f64>() / client.len() as f64
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }

    #[test]
    fn segments_round_trip_through_json() {
        let mut s = Segment::new(3, true);
        s.latencies_ms = vec![1.25, 2.5];
        s.add("intern.hits", 7.0);
        s.levels.insert("rt.memo.resident_mb".into(), 1.5);
        s.fail("mismatch".into());
        let text = s.to_json().to_string();
        let back = Segment::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text);
    }
}
