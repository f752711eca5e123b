//! `benchmark` — the repository's benchmark: four workloads, their
//! end-to-end metrics, and a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//! ```
//!
//! Run it from the repository root (check-ar reads `programs/*.fast`).
//! Without `--workload` all four workloads run, one after another. Each
//! metric is printed as `workload metric value unit`, and each workload
//! ends with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. Inputs are a pure function of `--seed`.
//!
//! ## Segments
//!
//! A run is a sequence of *segments*, each a child process of this one
//! (the interner, memos and `fast_obs` counters are process-global). A
//! segment sets up, does a fixed amount of timed work, and checks every
//! output after its window. The number of segments depends only on the
//! workload and `--seconds`: `--seconds` over the workload's nominal
//! segment window (a constant, see `nominal_window_s`), at least three,
//! so set-up is measured several times; halved under `--trace`, where
//! each segment also runs traced. Segment `k` draws its inputs from the
//! seed `(S, k)`, so two commits, and every rerun, do identical work
//! segment by segment however fast each runs.
//!
//! ## Workloads
//!
//! | workload | what one segment runs | why |
//! |---|---|---|
//! | `serve-repeat` | In-process `fast_serve::start` serving `sani` from a decoded `Artifact`, configured like `serve_load` (depth 1024, 8 MiB frames, 2 executors). 24 pages, rendered sizes log-uniform in 5–50 KB; one warm pass in set-up, then 10 shuffled passes over 2 connections. | Every request hits the shared memo at the root, so the time goes to frame read, JSON decode, parse+intern (interner hits), render and write: the ROADMAP's ingress and egress items. Evaluation shows only in `setup_s`. |
//! | `serve-fresh` | The same server; 140 never-seen pages, 2–20 KB, each sent once; 8 warm-up pages from a disjoint sub-seed in set-up. | A cold memo and interner *inserts*: guard evaluation, lookahead, memo misses and interner growth dominate. It is the write-side partner of serve-repeat, so a change that speeds lookups by slowing inserts shows on one of the two. |
//! | `batch-sanitize` | The `sani` plan on one worker over the §5.1 corpus's ten-page size ladder scaled to 2–41 KB, encoded in set-up; 6 passes, each one `Plan::run_batch_with` call (so a fresh memo per pass), each followed by `baseline_sanitize` on the same pages. | Pure plan evaluation: no wire, JSON, parse or render. The bypass workload for ingress changes and the home of the §5.1 fast/manual ratio, one thread against one thread. |
//! | `check-ar` | The §5.2 conflict check (`compose` → `restrict` → `restrict_out` → `is_empty_transducer`) on every pair within 20 groups of 4 seeded taggers (120 pairs), plus `fast_analysis::analyze` and `check_pipeline` over every `programs/*.fast`, in one shuffled order. | Core, automata, SMT and analysis: the ROADMAP's checker item. It bypasses rt, serve and `Tree::parse` entirely. |
//!
//! Page sizes, tagger sizes and tagger guard kinds are stratified, not
//! drawn independently: every seed gets the same size mix, so a run's
//! median does not depend on whether its seed drew a few large inputs.
//! The full-size §5.1 corpus and the paper's 1–95-state taggers are
//! left to `tab51_sanitizer` and `fig6_ar`: at that size a run would
//! hold a handful of ops.
//!
//! ## Load model
//!
//! The serve workloads are a **closed loop**: two generator threads,
//! one connection each, and each sends its next request when the
//! previous reply arrives. Every 8 requests both connections drain, so
//! the server is idle while the machine-speed probe runs (below); the
//! barrier costs a connection at most one request's wait per chunk, the
//! same on every commit. Every request frame is built before the
//! window; replies are read with `proto::read_frame` and checked after
//! it (serve-repeat keeps a hash per reply, serve-fresh the raw bytes).
//! The page text is written by `pages::tree_text`, so the generator
//! never interns what the server will parse. No fixed-rate open-loop
//! workload exists: no ROADMAP item targets queueing yet.
//!
//! ## Machine speed
//!
//! On the shared 2-vCPU host the bounds were set on, the same work runs
//! up to ~1.8× slower from one moment to the next, and each vCPU drifts
//! on its own. Unscaled, ten runs of a workload spread by 0.15–0.6 of
//! their median. So each window is timed in chunks (8 requests, 8
//! check-ar ops, or one batch pass), and between chunks, with nothing of
//! the program running, the thread that drives the work times a fixed
//! probe job; each chunk's times are scaled by how slow the probes on
//! either side of it ran (the `calibrate` module has the details and the
//! evidence). End-to-end times therefore read as times at the reference
//! machine speed; the per-layer `machine.slowdown` is how much slower
//! than that reference the machine ran.
//!
//! ## Metrics
//!
//! An op is a request (serve-*), a pass over the corpus
//! (batch-sanitize), or a pair or program check (check-ar).
//!
//! End to end, at reference speed: `setup_s` (from process start to the
//! first timed op), `ops_per_s`, `latency_p50_ms`, `latency_p90_ms` and
//! `peak_rss_mb` (`VmHWM` at the end of the window), each computed per
//! segment and reported as the median over the run's segments, so a
//! segment the host slowed more than the probes show moves the result
//! only as far as its neighbours' values. A segment's p90 has at least
//! ten samples beyond it, except on batch-sanitize, whose six passes per
//! segment make it a near-maximum; `bench.samples` gives the run's op
//! count.
//! Failures (non-ok replies, transport errors, outputs that differ from
//! the reference, contradicted verdicts) are the JSON line's `failed`.
//!
//! Per layer: trace rows are shares of the traced op (`<layer>_pct`,
//! plus `trace.glue_pct` for what the layer spans do not cover, so the
//! rows add up to 100%, and `trace.op_ms` for the op itself); window
//! rows are `fast_obs` deltas over the untraced windows, per op, as
//! shares of op time, or as rates. Shares, not milliseconds, so that a
//! layer a workload never calls reads 0 instead of a constant time.
//! Per-layer times are wall clock, not scaled: a share compares a
//! `fast_obs` timer or a span with the wall-clock op or set-up time.
//!
//! ## Tracing
//!
//! `--trace 1` runs each segment twice with the same seed: untraced
//! (window rows) and traced (the bench-side span recorder on around
//! every call the timed loop makes). `trace.overhead_pct` is the traced
//! windows' excess over the untraced ones; end-to-end numbers come only
//! from untraced segments. For the serve workloads the traced segment
//! then replays requests in-process on one thread — read frame → decode
//! → parse+intern → eval → render → write — serve-repeat over its warmed
//! working set, serve-fresh over pages of a further disjoint sub-seed.
//! batch-sanitize's traced op is one pass's plan call, check-ar's one
//! pair or program check. The run prints a waterfall and writes
//! `trace_<workload>.json` (Chrome `trace_event` format) into the
//! working directory.
//!
//! ## Bounds
//!
//! Every bound in `BENCHMARK.json` is a share of the parent commit's
//! median, set per metric from two interleaved sets of ten untraced
//! runs each (seeds 1–10 in both, `--seconds 15`, one command per run
//! from a fresh checkout) on a 2-vCPU shared VM whose probes ran
//! 1.1–1.4× slower than the reference. The table gives each set's
//! spread, the interquartile range over the median:
//!
//! | metric | bound | serve-repeat | serve-fresh | batch-sanitize | check-ar |
//! |---|---|---|---|---|---|
//! | `setup_s` | 0.25 | 0.262 / 0.183 | 0.203 / 0.097 | 0.098 / 0.075 | 0.173 / 0.103 |
//! | `ops_per_s` | 0.20 | 0.051 / 0.065 | 0.045 / 0.106 | 0.064 / 0.036 | 0.099 / 0.095 |
//! | `latency_p50_ms` | 0.20 | 0.060 / 0.084 | 0.055 / 0.124 | 0.055 / 0.039 | 0.086 / 0.080 |
//! | `latency_p90_ms` | 0.20 | 0.058 / 0.076 | 0.085 / 0.079 | 0.076 / 0.039 | 0.116 / 0.127 |
//! | `peak_rss_mb` | 0.10 | 0.006 / 0.009 | 0.003 / 0.003 | 0.020 / 0.019 | 0.036 / 0.034 |
//!
//! The two sets' medians differed by at most 5.2% (serve-fresh
//! `latency_p50_ms`), `setup_s` by at most 2.0%. A bound is shared by
//! all workloads, so the noisiest one sets it, and it must cover the
//! spread of ten runs with room for that spread's own sampling error:
//! hence 0.20 for times, whose spreads reach 0.13, and 0.10 for memory.
//! `setup_s` is only compared by median; it gets the largest bound.
//! Unscaled, the same kind of runs spread 0.14–0.25 on the serve and
//! batch workloads and 0.4–0.6 on check-ar: without the calibration no
//! bound the benchmark may fix would hold.

use fast_benchmark::{
    end_to_end, per_layer, run_segment, waterfall, Metric, Segment, Size, Workload,
};
use fast_json::Json;
use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-up is reported as a median, so every run has at least this many
/// segments.
const MIN_SEGMENTS: u64 = 3;

/// Each workload's segment window, in seconds, as measured on the 2-core
/// machine the bounds were set on. It only converts `--seconds` into a
/// segment count, so a faster or slower commit runs the same segments.
fn nominal_window_s(w: Workload) -> f64 {
    match w {
        Workload::ServeRepeat => 3.5,
        Workload::ServeFresh => 2.5,
        Workload::BatchSanitize => 2.0,
        Workload::CheckAr => 1.0,
    }
}

/// The run's segment count: a function of the workload and the
/// command line only.
fn segment_count(w: Workload, seconds: f64, trace: bool) -> u64 {
    let budget = if trace { seconds / 2.0 } else { seconds };
    ((budget / nominal_window_s(w)).round() as u64).max(MIN_SEGMENTS)
}

/// A segment still running after this long is killed and the run fails.
const SEGMENT_TIMEOUT: Duration = Duration::from_secs(60);

const USAGE: &str =
    "usage: benchmark [--workload serve-repeat|serve-fresh|batch-sanitize|check-ar] \
     [--seed S] [--seconds T] [--trace [0|1]]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: run this one segment and print it.
    segment: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        segment: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| argv.get(i + 1).ok_or(format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                i += 1;
            }
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                i += 1;
            }
            "--segment" => {
                args.segment = Some(
                    value(i)?
                        .parse()
                        .map_err(|_| "--segment takes an integer")?,
                );
                i += 1;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unexpected argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.segment {
        let Some(w) = args.workload else {
            eprintln!("benchmark: --segment needs --workload");
            return ExitCode::from(2);
        };
        let seg = run_segment(
            w,
            args.seed,
            index,
            Size::Full,
            started,
            args.trace.then_some(Path::new(".")),
        );
        println!("{}", seg.to_json());
        return ExitCode::SUCCESS;
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for w in workloads {
        if let Err(e) = run_workload(w, &args) {
            eprintln!("benchmark: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one segment in a child process and parses its report.
fn spawn_segment(w: Workload, seed: u64, index: u64, traced: bool) -> Result<Segment, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--segment", &index.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting segment {index}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let deadline = Instant::now() + SEGMENT_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("segment {index} timed out"));
            }
            Err(e) => break Err(format!("waiting for segment {index}: {e}")),
        }
    };
    let out = reader
        .join()
        .expect("segment reader thread")
        .map_err(|e| format!("reading segment {index}: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("segment {index} exited with {status}"));
    }
    let line = out.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(Segment::from_json)
        .ok_or_else(|| format!("segment {index} printed no report"))
}

fn run_workload(w: Workload, args: &Args) -> Result<(), String> {
    let name = w.name();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for index in 0..segment_count(w, args.seconds, args.trace) {
        untraced.push(spawn_segment(w, args.seed, index, false)?);
        if args.trace {
            traced.push(spawn_segment(w, args.seed, index, true)?);
        }
    }
    let all = || untraced.iter().chain(&traced);
    for s in all() {
        for e in &s.errors {
            eprintln!("{name}: segment {}: {e}", s.index);
        }
    }
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();

    let e2e = end_to_end(&untraced);
    let samples: usize = untraced.iter().map(|s| s.latencies_ms.len()).sum();
    println!(
        "{name}: {} segment(s), {samples} timed op(s), {failed} failed",
        untraced.len()
    );
    print_metrics(name, &e2e);
    let reported = if args.trace {
        let layers = per_layer(&untraced, &traced);
        print_metrics(name, &layers);
        for row in waterfall(&untraced, &traced) {
            println!("{name}: {row}");
        }
        layers
    } else {
        e2e
    };
    let metrics = Json::obj(reported.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Float(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", metrics),
        ])
    );
    Ok(())
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}
