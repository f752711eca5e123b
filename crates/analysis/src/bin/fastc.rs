//! `fastc` — compile, run, build, serve, profile, and statically check
//! Fast programs.
//!
//! Five modes:
//!
//! - **run** (default): `fastc <file.fast> [--quiet|-q] [--stats|-s]
//!   [--trace FILE]` compiles the program, evaluates every definition
//!   and assertion, prints the assertion report (and with `--stats` the
//!   sizes of every compiled language and transformation plus the
//!   `fast-obs` telemetry snapshot as JSON). Exits 1 if compilation
//!   fails or any assertion fails. With `--pipeline t1,t2,...` the
//!   named transformations are chained into a `fast_rt::Pipeline`
//!   instead: the per-boundary fusion report is printed (which
//!   boundaries fused via Theorem 4, which cascade, and why), then
//!   `--trees N` random inputs are evaluated through the chain. With
//!   `--trans NAME` (or `--all-trans`) the named transducer(s) are
//!   batch-run over generated trees and the per-input output multisets
//!   printed under `--print-outputs`. With `--artifact FILE` instead
//!   of a source path, a compiled `.fastc` artifact is loaded
//!   (`fast_rt::Artifact::load`) and the same runs execute without
//!   reparsing or recompiling anything. A source run builds in memory
//!   the artifact `fastc build` would write and runs it through the
//!   same function, so the two print the same report and can be diffed.
//! - **build**: `fastc build <file.fast> [-o FILE]
//!   [--pipeline t1,t2,...]` compiles the program once and serializes
//!   every transformation (plus any requested pre-compiled pipelines)
//!   into a versioned binary `.fastc` artifact next to the source
//!   (override with `-o`). Artifacts are byte-deterministic: building
//!   the same source twice yields identical files.
//! - **serve**: `fastc serve <file.fastc>... [--addr HOST:PORT]
//!   [--workers N] [--queue N] [--max-conns N] [--timeout-ms N]
//!   [--slo FILE]` loads one or more `.fastc` artifacts and serves
//!   their transducers and pipelines over TCP (`fast-serve`:
//!   length-prefixed JSON frames, admission control, shared memos, a
//!   background telemetry engine, and — with `--slo` — an SLO verdict
//!   on every closed telemetry window, surfaced through the `stats`
//!   operation). A malformed or unknown SLO spec exits 2 before the
//!   server binds. Runs until killed.
//! - **check**: `fastc check <file.fast> [--json] [--deny-warnings]
//!   [--stats|-s] [--trace FILE]` runs the `fast-analysis` semantic
//!   checks (dead rules, guard overlap, exhaustiveness, reachability,
//!   vacuous lookahead, contract typechecking) and renders every
//!   diagnostic with a source excerpt; `--json` emits the
//!   machine-readable form on stdout instead. With `--pipeline
//!   t1,t2,...` the named transformations are additionally checked as a
//!   staged chain: per-stage FA007 single-valuedness verdicts,
//!   per-boundary Theorem 4 fusability, and the FA101 pipeline contract
//!   check (iterated pre-images backward, counterexample replay
//!   forward) against `--input`/`--output` languages — defaulting to
//!   the first stage's contract input and the last stage's contract
//!   output. A violated pipeline contract exits 2.
//! - **profile**: `fastc profile <file.fast> [--trees N] [--seed S]
//!   [--top K] [--trans NAME] [--trace FILE] [--jsonl FILE]` compiles
//!   the program with tracing on, generates `N` random input trees for
//!   one transducer (the largest by states/rules unless `--trans` picks
//!   one), runs them through a compiled `fast-rt` plan with per-rule
//!   profiling, and prints a phase-time tree plus the hot-rules table.
//!   `--trace` exports the span buffer as Chrome `trace_event` JSON
//!   (loadable in Perfetto / `chrome://tracing`), `--jsonl` as
//!   line-delimited JSON. The slow-items table (the process-wide
//!   `rt.item` exemplars: TreeId, state, latency, output size) is
//!   printed after the hot-rules table.
//!
//! `--trace FILE` on run, check and profile enables span tracing for the
//! whole invocation and writes the Chrome trace on exit.
//!
//! Each mode declares its flags in one [`Mode`] table, and one parser,
//! [`parse_args`], reads every mode's command line.
//!
//! Exit codes: 0 clean; 1 run-mode failure, or check-mode warnings under
//! `--deny-warnings`; 2 usage/IO errors, or check-mode error diagnostics
//! (including compile errors).

use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: fastc <file.fast> [--quiet|-q] [--stats|-s] [--trace FILE]
                     [--pipeline t1,t2,... [--trees N] [--seed S]]
                     [--trans NAME | --all-trans [--print-outputs]]
       fastc --artifact <file.fastc> [--pipeline t1,t2,... | --trans NAME | --all-trans]
                     [--trees N] [--seed S] [--print-outputs] [--quiet|-q]
       fastc build <file.fast> [-o FILE] [--pipeline t1,t2,...]
       fastc serve <file.fastc>... [--addr HOST:PORT] [--workers N] [--queue N]
                     [--max-conns N] [--timeout-ms N] [--slo FILE]
       fastc check <file.fast> [--json] [--deny-warnings] [--stats|-s] [--trace FILE]
             [--pipeline t1,t2,... [--input LANG] [--output LANG]]
       fastc profile <file.fast> [--trees N] [--seed S] [--top K] [--trans NAME]
                     [--trace FILE] [--jsonl FILE] [--stats|-s]
       fastc --help

modes:
  (default)        compile, evaluate definitions, and run assertions;
                   with --artifact, load a prebuilt .fastc artifact and
                   run its transducers/pipelines without recompiling
  build            compile once and write a versioned binary .fastc
                   artifact (transducers, lookahead STAs, interned
                   formula pool, pre-decided pipeline fusion) loadable
                   with --artifact
  serve            load .fastc artifact(s) and serve their transducers
                   and pipelines over TCP (length-prefixed JSON frames)
                   with admission control, process-wide shared memos,
                   and continuous windowed telemetry; runs until killed
  check            run semantic analysis (FA001-FA101) without failing
                   on assertions; see --json for machine-readable output
  profile          batch-run one transducer over generated trees and
                   report phase times, the hottest rules, and the
                   slowest items (exemplars)

options:
  --trace FILE     (run/check/profile) record hierarchical spans and
                   write a Chrome trace_event JSON file (open in Perfetto)
  --artifact FILE  (run) load FILE as a .fastc artifact instead of
                   compiling a source program
  -o FILE          (build) artifact output path [<file>.fastc]
  --pipeline LIST  (run) chain the comma-separated transformations into
                   a fast-rt pipeline: print the fusion report (fused vs
                   cascaded boundaries, Theorem 4 verdicts) and evaluate
                   generated inputs through the chain
                   (build) additionally pre-compile the chain into the
                   artifact under the normalized name \"t1,t2,...\"
                   (check) typecheck the chain end to end: per-stage
                   FA007 single-valuedness, per-boundary fusability, and
                   the FA101 contract check with counterexample replay
  --trans NAME     (run) batch-run one transducer over generated trees
                   (profile) transducer to profile [largest]
  --all-trans      (run) batch-run every transducer, in name order
  --print-outputs  (run --trans/--all-trans) print each input's output
                   multiset, sorted, for byte-for-byte diffing
  --input LANG     (check --pipeline) input language of the chain
                   [first stage's contract input]
  --output LANG    (check --pipeline) output language the chain must
                   land in [last stage's contract output]
  --jsonl FILE     (profile) write the span buffer as JSON lines
  --trees N        (profile/pipeline/trans) number of generated input
                   trees [200 / 100]
  --seed S         (profile/pipeline/trans) tree-generator seed [42]
  --top K          (profile) rows in the hot-rules table [10]
  --slo FILE       (serve) JSON SLO spec: any of p99_latency_ms,
                   min_memo_hit_rate, max_intern_resident_bytes,
                   max_error_rate; evaluated over the server's sliding
                   window each time a telemetry window closes, the
                   violation state reported by the 'stats' operation
  --addr HOST:PORT (serve) listen address [127.0.0.1:7878]
  --workers N      (serve) executor threads [one per core, max 8]
  --queue N        (serve) bounded work-queue depth; a full queue sheds
                   requests with 429 responses [64]
  --max-conns N    (serve) concurrent connection cap [64]
  --timeout-ms N   (serve) per-request deadline ceiling [10000]

exit codes:
  0  clean (run: all assertions passed; check: no errors, and no
     warnings when --deny-warnings is set)
  1  run: compile error, failed or undecided assertion, or corrupt
     artifact; check: warnings present under --deny-warnings
  2  usage or I/O error; check: error diagnostics (e.g. FA100/FA101
     contract violations or compile errors)";

/// One mode's command line. A flag with a short alias is written
/// `--long|-s`; the parsed [`Args`] know it by its first name.
struct Mode {
    /// The word that selects the mode; the run mode's is empty.
    name: &'static str,
    /// Flags that take no value.
    switches: &'static [&'static str],
    /// Flags that take the next word, whatever it is, as their value.
    values: &'static [&'static str],
    /// Flags whose value must be a non-negative integer.
    numbers: &'static [&'static str],
    /// Whether the mode takes any number of positional arguments
    /// (serve's artifacts) rather than at most one program path.
    many_paths: bool,
    run: fn(Args) -> ExitCode,
}

/// The run mode first: it is the default.
const MODES: [Mode; 5] = [
    Mode {
        name: "",
        switches: &["--quiet|-q", "--stats|-s", "--all-trans", "--print-outputs"],
        values: &["--trace", "--pipeline", "--artifact", "--trans"],
        numbers: &["--trees", "--seed"],
        many_paths: false,
        run: run_mode,
    },
    Mode {
        name: "build",
        switches: &[],
        values: &["-o", "--pipeline"],
        numbers: &[],
        many_paths: false,
        run: build_mode,
    },
    Mode {
        name: "serve",
        switches: &[],
        values: &["--addr", "--slo"],
        numbers: &["--workers", "--queue", "--max-conns", "--timeout-ms"],
        many_paths: true,
        run: serve_mode,
    },
    Mode {
        name: "check",
        switches: &["--json", "--deny-warnings", "--stats|-s"],
        values: &["--trace", "--pipeline", "--input", "--output"],
        numbers: &[],
        many_paths: false,
        run: check_mode,
    },
    Mode {
        name: "profile",
        switches: &["--stats|-s"],
        values: &["--trans", "--trace", "--jsonl"],
        numbers: &["--trees", "--seed", "--top"],
        many_paths: false,
        run: profile_mode,
    },
];

/// `print!` for every mode's standard output, through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for every mode's standard output, through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that stops early (`fastc … | head -1`)
/// closes the pipe: the process then ends quietly with status 0, as
/// though it had finished, instead of panicking. Any other write error
/// is reported, with the usage/IO status 2.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("fastc: cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    let (mode, rest) = match MODES[1..].iter().find(|m| first == Some(m.name)) {
        Some(mode) => (mode, &args[1..]),
        None => (&MODES[0], &args[..]),
    };
    match parse_args(mode, rest) {
        Ok(parsed) => (mode.run)(parsed),
        Err(code) => code,
    }
}

/// A parsed command line.
struct Args {
    /// Every flag given, in order, by its first name, with its value
    /// (empty for a switch).
    flags: Vec<(&'static str, String)>,
    paths: Vec<String>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given for `flag`, in order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for the number flag `flag`, or `default`.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        // `parse_args` has checked every number flag's value.
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The program path, the first positional argument.
    fn path(&self) -> Option<&str> {
        self.paths.first().map(String::as_str)
    }
}

/// Reads `args` against `mode`'s flags. `--help` anywhere prints the
/// usage and ends the run with exit 0; a bad command line is reported
/// and ends it with exit 2.
fn parse_args(mode: &Mode, args: &[String]) -> Result<Args, ExitCode> {
    let mut parsed = Args {
        flags: Vec::new(),
        paths: Vec::new(),
    };
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            outln!("{USAGE}");
            return Err(ExitCode::SUCCESS);
        }
        let find = |list: &[&'static str]| {
            let flag = list.iter().find(|f| f.split('|').any(|n| n == word))?;
            flag.split('|').next()
        };
        if let Some(name) = find(mode.switches) {
            parsed.flags.push((name, String::new()));
            continue;
        }
        let Some(name) = find(mode.values).or_else(|| find(mode.numbers)) else {
            if !word.starts_with('-') && (mode.many_paths || parsed.paths.is_empty()) {
                parsed.paths.push(word.clone());
                continue;
            }
            return Err(usage_error(&format!("unexpected argument '{word}'")));
        };
        let Some(value) = words.next() else {
            eprintln!("fastc: '{word}' needs a value");
            return Err(ExitCode::from(2));
        };
        if mode.numbers.contains(&name) && value.parse::<u64>().is_err() {
            return Err(usage_error(&format!(
                "'{word}' needs a non-negative integer, got '{value}'"
            )));
        }
        parsed.flags.push((name, value.clone()));
    }
    Ok(parsed)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fastc: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn read_source(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("fastc: cannot read '{path}': {e}");
        ExitCode::from(2)
    })
}

/// Reads and compiles the program at `path`. A compile error is printed
/// with the path and exits 1.
fn load_program(path: &str) -> Result<fast_lang::Compiled, ExitCode> {
    fast_lang::compile(&read_source(path)?).map_err(|d| {
        eprintln!("{path}:{d}");
        ExitCode::FAILURE
    })
}

/// Drains the span buffer and writes it to `path` as Chrome
/// `trace_event` JSON. Returns exit code 2 on I/O failure.
fn write_trace(path: &str) -> Result<(), ExitCode> {
    let events = fast_obs::drain_events();
    let json = fast_obs::trace::chrome_trace(&events).pretty();
    std::fs::write(path, json).map_err(|e| {
        eprintln!("fastc: cannot write trace '{path}': {e}");
        ExitCode::from(2)
    })
}

/// The epilogue of the run and check modes: under `--stats`, the
/// telemetry accumulated over the whole run as one JSON object (see
/// ARCHITECTURE.md for the counters); under `--trace`, the span file.
/// Returns `code` unless the trace cannot be written.
fn finish_run(code: ExitCode, stats: bool, trace: Option<&str>) -> ExitCode {
    if stats {
        outln!("{}", fast_obs::snapshot().to_json().pretty());
    }
    if let Some(out) = trace {
        if let Err(code) = write_trace(out) {
            return code;
        }
    }
    code
}

/// What a batch run over generated trees runs and prints.
struct BatchRun<'a> {
    pipeline: Option<&'a str>,
    trans: Option<&'a str>,
    trees: usize,
    seed: u64,
    print_outputs: bool,
    quiet: bool,
}

fn run_mode(args: Args) -> ExitCode {
    let stats = args.has("--stats");
    let trace = args.value("--trace");
    if trace.is_some() {
        fast_obs::set_tracing(true);
    }
    let run = BatchRun {
        pipeline: args.value("--pipeline"),
        trans: args.value("--trans"),
        trees: args.number("--trees", 100),
        seed: args.number("--seed", 42),
        print_outputs: args.has("--print-outputs"),
        quiet: args.has("--quiet"),
    };
    let code = if let Some(art_path) = args.value("--artifact") {
        if args.path().is_some() {
            return usage_error("give either a <file.fast> source or --artifact, not both");
        }
        match fast_rt::Artifact::load(art_path) {
            Ok(art) => batch_run(&art, art_path, &run),
            Err(e) => {
                eprintln!("fastc: cannot load artifact '{art_path}': {e}");
                // I/O errors are environment problems (exit 2, like an
                // unreadable source); anything else means the artifact
                // itself is bad (exit 1, like a compile failure).
                if matches!(e, fast_rt::ArtifactError::Io(_)) {
                    ExitCode::from(2)
                } else {
                    ExitCode::FAILURE
                }
            }
        }
    } else {
        let Some(path) = args.path() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let compiled = match load_program(path) {
            Ok(c) => c,
            Err(code) => return code,
        };
        if run.pipeline.is_some() || run.trans.is_some() || args.has("--all-trans") {
            match build_artifact(&compiled, path, run.pipeline.as_slice()) {
                Ok(art) => batch_run(&art, path, &run),
                Err(code) => code,
            }
        } else {
            assertion_run(&compiled, path, stats, run.quiet)
        }
    };
    finish_run(code, stats, trace)
}

/// Prints the program's assertion report (under `--stats` preceded by
/// the size of every language, transformation and tree); exit 1 if an
/// assertion failed.
fn assertion_run(compiled: &fast_lang::Compiled, path: &str, stats: bool, quiet: bool) -> ExitCode {
    if stats {
        for name in compiled.lang_names() {
            let sta = compiled.lang(name).unwrap();
            outln!(
                "lang  {name}: {} states, {} rules",
                sta.state_count(),
                sta.rule_count()
            );
        }
        for name in compiled.transducer_names() {
            let t = compiled.transducer(name).unwrap();
            outln!(
                "trans {name}: {} states, {} rules, {} lookahead states",
                t.state_count(),
                t.rule_count(),
                t.lookahead_sta().state_count()
            );
        }
        for name in compiled.tree_names() {
            let t = compiled.tree(name).unwrap();
            outln!("tree  {name}: {} nodes", t.size());
        }
    }
    let report = compiled.report();
    let (mut failed, mut undecided) = (0usize, 0usize);
    for a in &report.assertions {
        let status = match (a.passed(), &a.undecided) {
            (true, _) => "PASS",
            (false, None) => "FAIL",
            (false, Some(_)) => "UNDECIDED",
        };
        if !quiet || !a.passed() {
            outln!(
                "{status} {path}:{} assert-{} {}",
                a.span.start,
                if a.expected { "true" } else { "false" },
                a.description
            );
            if let Some(cx) = &a.counterexample {
                outln!("     counterexample: {cx}");
            }
            if let Some(reason) = &a.undecided {
                outln!("     undecided: {reason}");
            }
        }
        failed += usize::from(status == "FAIL");
        undecided += usize::from(status == "UNDECIDED");
    }
    if !quiet {
        let note = (undecided > 0).then(|| format!(", {undecided} undecided"));
        outln!(
            "{} assertion(s), {} failed{}",
            report.assertions.len(),
            failed,
            note.unwrap_or_default()
        );
    }
    if failed + undecided == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs generated trees through an artifact, loaded from `path` or built
/// from the source at `path`: through the stored pipeline `--pipeline`
/// names (printing its fusion report first), else through the transducer
/// `--trans` names, else through every transducer in name order.
fn batch_run(art: &fast_rt::Artifact, path: &str, run: &BatchRun) -> ExitCode {
    if let Some(list) = run.pipeline {
        let name = split_stage_list(list).join(",");
        let Some(p) = art.pipeline(&name) else {
            let have: Vec<&str> = art.pipeline_names().collect();
            eprintln!(
                "fastc: no pipeline '{name}' in '{path}' (have: {})",
                have.join(", ")
            );
            return ExitCode::from(2);
        };
        out!("{}", p.report());
        pipeline_batch(p, art.pipeline_type(&name).unwrap(), run);
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = match run.trans {
        Some(n) if art.transducer(n).is_none() => {
            let have: Vec<&str> = art.transducer_names().collect();
            eprintln!(
                "fastc: no transducer '{n}' in '{path}' (have: {})",
                have.join(", ")
            );
            return ExitCode::from(2);
        }
        Some(n) => vec![n],
        None => {
            let mut all: Vec<&str> = art.transducer_names().collect();
            all.sort();
            all
        }
    };
    for name in names {
        let plan = art.transducer(name).unwrap();
        let ty = art.transducer_type(name).unwrap();
        trans_batch(name, plan, ty, run);
    }
    ExitCode::SUCCESS
}

/// Evaluates the generated inputs through a compiled pipeline and
/// prints the run summary (plus per-segment memo stats unless `quiet`).
/// Diff source and artifact runs with `--quiet`: memo hit counts depend
/// on worker scheduling, and the interner line on process history.
fn pipeline_batch(p: &fast_rt::Pipeline, ty: &fast_trees::TreeType, run: &BatchRun) {
    let inputs = fast_trees::TreeGen::new(run.seed).trees(ty, run.trees);
    let opts = fast_rt::RunOptions::default();
    let (results, seg_stats) = p.run_batch_with(&inputs, &opts);
    outln!("ran {}", batch_summary(&results, run.seed));
    if !run.quiet {
        for (si, s) in seg_stats.iter().enumerate() {
            let (plan, first, last) = p.segment(si);
            outln!(
                "segment {si} (stages {first}..={last}, {} states): {} items, memo {} hits / {} \
                 misses / {} evictions",
                plan.sttr().state_count(),
                s.items,
                s.memo_hits,
                s.memo_misses,
                s.memo_evictions,
            );
        }
        outln!(
            "interner: {} canonical tree nodes live (process-wide)",
            fast_trees::intern::table_len(),
        );
    }
}

/// The `N trees (seed S): K ok / E err, O output trees` summary of a
/// batch run over generated inputs, shared by transducer and pipeline
/// runs.
fn batch_summary(
    results: &[Result<Vec<fast_trees::Tree>, fast_core::TransducerError>],
    seed: u64,
) -> String {
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let outputs: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().map(Vec::len))
        .sum();
    format!(
        "{} trees (seed {seed}): {ok} ok / {} err, {outputs} output trees",
        results.len(),
        results.len() - ok,
    )
}

/// Batch-runs one compiled plan over the generated trees and prints the
/// summary line (and, under `--print-outputs`, every input's sorted
/// output multiset).
fn trans_batch(name: &str, plan: &fast_rt::Plan, ty: &fast_trees::TreeType, run: &BatchRun) {
    let inputs = fast_trees::TreeGen::new(run.seed).trees(ty, run.trees);
    let results = plan.run_batch(&inputs);
    outln!("trans {name}: {}", batch_summary(&results, run.seed));
    if run.print_outputs {
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(outs) => {
                    // Sorted display strings: outputs come in the order
                    // the plan's rules fired, which nothing pins between
                    // two builds of a plan, and CI diffs the printed
                    // lines of a source run and an artifact run.
                    let mut shown: Vec<String> =
                        outs.iter().map(|t| t.display(ty).to_string()).collect();
                    shown.sort();
                    for s in shown {
                        outln!("  {name}[{i}] {s}");
                    }
                }
                Err(e) => outln!("  {name}[{i}] error: {e}"),
            }
        }
    }
}

/// Splits a `--pipeline` stage list and normalizes it to the canonical
/// comma-joined artifact entry name (whitespace trimmed, empties
/// dropped), so `--pipeline \"a, b\"` at build and run time agree.
fn split_stage_list(list: &str) -> Vec<&str> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// A `--pipeline` stage list resolved against a compiled program.
struct Stages<'a> {
    /// The stage names, as [`split_stage_list`] gives them.
    names: Vec<&'a str>,
    sttrs: Vec<&'a fast_core::Sttr>,
    /// The tree type every stage is over, by name and resolved.
    ty_name: &'a str,
    ty: &'a fast_trees::TreeType,
}

/// Resolves the stage list `list` of the program at `path`. An empty
/// list, an unknown stage, stages over different tree types, or a type
/// that does not resolve is a usage error (exit 2).
fn resolve_stages<'a>(
    compiled: &'a fast_lang::Compiled,
    path: &str,
    list: &'a str,
) -> Result<Stages<'a>, ExitCode> {
    let names = split_stage_list(list);
    if names.is_empty() {
        return Err(usage_error(
            "'--pipeline' needs a comma-separated list of transformation names",
        ));
    }
    // An unknown first stage is reported in the first iteration, before
    // any stage is compared with this type.
    let ty_name = compiled.transducer_type(names[0]).unwrap_or_default();
    let mut sttrs = Vec::with_capacity(names.len());
    for n in &names {
        let Some(sttr) = compiled.transducer(n) else {
            eprintln!(
                "fastc: no transformation '{n}' in '{path}' (have: {})",
                compiled.transducer_names().join(", ")
            );
            return Err(ExitCode::from(2));
        };
        let t = compiled.transducer_type(n).unwrap_or_default();
        if t != ty_name {
            eprintln!(
                "fastc: pipeline stages disagree on tree type: '{}' is over '{ty_name}' \
                 but '{n}' is over '{t}'",
                names[0]
            );
            return Err(ExitCode::from(2));
        }
        sttrs.push(sttr);
    }
    let Some(ty) = compiled.tree_type(ty_name) else {
        eprintln!("fastc: cannot resolve the pipeline's tree type");
        return Err(ExitCode::from(2));
    };
    Ok(Stages {
        names,
        sttrs,
        ty_name,
        ty,
    })
}

/// The artifact `fastc build` writes for the program at `path`: every
/// transformation in name order, then the pre-compiled chain of each
/// `--pipeline` list under its normalized comma-joined name.
fn build_artifact(
    compiled: &fast_lang::Compiled,
    path: &str,
    pipelines: &[&str],
) -> Result<fast_rt::Artifact, ExitCode> {
    let mut builder = fast_rt::ArtifactBuilder::new();
    for name in compiled.transducer_names() {
        builder.add_transducer(name, compiled.transducer(name).unwrap());
    }
    let mut seen = Vec::new();
    for list in pipelines {
        let stages = resolve_stages(compiled, path, list)?;
        let entry_name = stages.names.join(",");
        if seen.contains(&entry_name) {
            return Err(usage_error(&format!(
                "pipeline '{entry_name}' given more than once"
            )));
        }
        let stage_names: Vec<String> = stages.names.iter().map(|s| s.to_string()).collect();
        let sttrs: Vec<Arc<fast_core::Sttr>> = stages
            .sttrs
            .iter()
            .map(|s| Arc::new((*s).clone()))
            .collect();
        builder.add_pipeline(&entry_name, &stage_names, &sttrs);
        seen.push(entry_name);
    }
    Ok(builder.build())
}

/// `fastc build <file.fast> [-o FILE] [--pipeline t1,t2,...]`: compiles
/// the program once and serializes every transformation — its states,
/// rules and lookahead STA, guards in an interned pool — into a
/// versioned binary `.fastc` artifact ([`fast_rt::Artifact`]). `--pipeline` additionally
/// stores the pre-compiled chain (fusion already decided) under the
/// normalized comma-joined name, so `--artifact --pipeline` runs skip
/// composition and the solver entirely.
fn build_mode(args: Args) -> ExitCode {
    let Some(path) = args.path() else {
        return usage_error("build mode needs a <file.fast> argument");
    };
    let compiled = match load_program(path) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let pipelines: Vec<&str> = args.values("--pipeline").collect();
    let art = match build_artifact(&compiled, path, &pipelines) {
        Ok(art) => art,
        Err(code) => return code,
    };

    let out_path = args.value("-o").map_or_else(
        || {
            std::path::Path::new(path)
                .with_extension("fastc")
                .to_string_lossy()
                .into_owned()
        },
        str::to_string,
    );
    let bytes = art.encode();
    // The loader caps the plan tables an artifact may ask for at a few
    // cells per byte; refuse here what it would refuse there.
    if let Some(what) = art.oversized_plan(bytes.len()) {
        eprintln!(
            "fastc: {what} is too wide to load: its plan tables pass the \
             artifact loader's cap for a {}-byte artifact; nothing written",
            bytes.len()
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out_path, &bytes) {
        eprintln!("fastc: cannot write artifact '{out_path}': {e}");
        return ExitCode::from(2);
    }
    outln!(
        "wrote {out_path}: {} types, {} transducers, {} pipelines, {} bytes",
        art.types().len(),
        art.transducer_names().count(),
        art.pipeline_names().count(),
        bytes.len(),
    );
    ExitCode::SUCCESS
}

fn serve_mode(args: Args) -> ExitCode {
    if args.paths.is_empty() {
        return usage_error("serve mode needs at least one <file.fastc> argument");
    }
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let mut cfg = fast_serve::ServeConfig::default();
    cfg.workers = args.number("--workers", cfg.workers);
    cfg.queue_depth = args.number("--queue", cfg.queue_depth).max(1);
    cfg.max_connections = args.number("--max-conns", cfg.max_connections).max(1);
    let timeout_ms = args.number("--timeout-ms", cfg.timeout.as_millis() as u64);
    cfg.timeout = std::time::Duration::from_millis(timeout_ms);
    if let Some(p) = args.value("--slo") {
        let text = match read_source(p) {
            Ok(t) => t,
            Err(code) => return code,
        };
        match fast_obs::slo::SloSpec::parse(&text) {
            Ok(s) => cfg.slo = Some(s),
            Err(e) => {
                eprintln!("fastc: bad SLO spec '{p}': {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut artifacts = Vec::with_capacity(args.paths.len());
    for p in &args.paths {
        match fast_rt::Artifact::load(p) {
            Ok(a) => artifacts.push(a),
            Err(e) => {
                eprintln!("fastc: cannot load artifact '{p}': {e}");
                return ExitCode::from(2);
            }
        }
    }
    let (n_trans, n_pipes) = artifacts.iter().fold((0, 0), |(t, p), a| {
        (
            t + a.transducer_names().count(),
            p + a.pipeline_names().count(),
        )
    });
    match fast_serve::start(artifacts, addr, cfg) {
        Ok(handle) => {
            outln!(
                "fastc serve: {n_trans} transducer(s), {n_pipes} pipeline(s) on {}",
                handle.addr()
            );
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fastc: cannot bind '{addr}': {e}");
            ExitCode::from(2)
        }
    }
}

fn check_mode(args: Args) -> ExitCode {
    let Some(path) = args.path() else {
        return usage_error("check mode needs a <file.fast> argument");
    };
    let src = match read_source(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let trace = args.value("--trace");
    if trace.is_some() {
        fast_obs::set_tracing(true);
    }

    // Collecting compile: every compile error is reported, not just the
    // first; analysis runs only when compilation succeeded.
    let mut sink = fast_lang::DiagSink::new();
    let mut diags = Vec::new();
    let mut compiled_opt = None;
    match fast_lang::parse(&src) {
        Err(d) => sink.push(d),
        Ok(program) => {
            if let Some(compiled) = fast_lang::compile_ast(&program, &mut sink) {
                diags = fast_obs::time!("analysis.total", || {
                    fast_analysis::analyze(&program, &compiled)
                });
                compiled_opt = Some(compiled);
            }
        }
    }
    let mut all = sink.into_vec();
    all.extend(diags);
    let mut errors = all.iter().filter(|d| d.is_error()).count();
    let warnings = all.len() - errors;

    if args.has("--json") {
        outln!(
            "{}",
            fast_analysis::diagnostics_to_json(path, &all).pretty()
        );
    } else {
        for d in &all {
            eprint!("{path}:{}", fast_lang::render_diagnostic(&src, d));
        }
        eprintln!("fastc check: {path}: {errors} error(s), {warnings} warning(s)");
    }
    if let Some(list) = args.value("--pipeline") {
        match &compiled_opt {
            None => eprintln!("fastc: skipping --pipeline check: compilation failed"),
            Some(compiled) => match pipeline_check(
                compiled,
                path,
                list,
                args.value("--input"),
                args.value("--output"),
            ) {
                Ok(violations) => errors += violations,
                Err(code) => return code,
            },
        }
    }
    let code = if errors > 0 {
        ExitCode::from(2)
    } else if args.has("--deny-warnings") && warnings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };
    finish_run(code, args.has("--stats"), trace)
}

/// `fastc check <file> --pipeline t1,t2,...`: prints per-stage FA007
/// single-valuedness verdicts and per-boundary Theorem 4 exactness, then
/// runs the FA101 pipeline contract check ([`fast_analysis::check_pipeline`])
/// against the resolved input/output languages and renders the replayed
/// counterexample on violation. Returns the number of contract violations
/// (0 or 1), or an exit code for usage errors.
fn pipeline_check(
    compiled: &fast_lang::Compiled,
    path: &str,
    list: &str,
    input_lang: Option<&str>,
    output_lang: Option<&str>,
) -> Result<usize, ExitCode> {
    let Stages {
        names,
        sttrs: stages,
        ty_name: stage_ty,
        ty,
    } = resolve_stages(compiled, path, list)?;

    eprintln!("pipeline check: {}", names.join(" ; "));
    fast_obs::time!("analysis.check.fa007", || {
        for (i, (n, s)) in names.iter().zip(&stages).enumerate() {
            let v = s.single_valuedness(fast_core::SvBudget::default());
            eprintln!("  stage {} '{}': {}", i + 1, n, v.display(ty));
        }
    });
    for i in 0..stages.len() - 1 {
        let ex = fast_core::compose_exactness(stages[i], stages[i + 1]);
        let verb = if matches!(ex, fast_core::Exactness::Overapproximate { .. }) {
            "cascades"
        } else {
            "fuses"
        };
        eprintln!(
            "  boundary '{}' ; '{}': {verb} ({ex})",
            names[i],
            names[i + 1]
        );
    }

    // Contract resolution: explicit flags win; otherwise the first
    // stage's contract input and the last stage's contract output.
    let contract_of = |t: &str| compiled.contracts().iter().find(|c| c.trans == t);
    let in_name = input_lang
        .map(str::to_string)
        .or_else(|| contract_of(names[0]).and_then(|c| c.input.clone()));
    let out_name = output_lang
        .map(str::to_string)
        .or_else(|| contract_of(names[names.len() - 1]).and_then(|c| c.output.clone()));
    let Some(out_name) = out_name else {
        eprintln!(
            "  no output language to check against (give --output LANG or declare a \
             contract on '{}'); skipping the FA101 contract check",
            names[names.len() - 1]
        );
        return Ok(0);
    };
    // Both languages must exist and be over the stages' tree type.
    let lang = |n: &str| match (compiled.lang(n), compiled.lang_type(n)) {
        (Some(sta), Some(t)) if t == stage_ty => Ok(sta),
        (Some(_), Some(t)) => {
            eprintln!(
                "fastc: language '{n}' is over tree type '{t}', but the pipeline's stages \
                 are over '{stage_ty}'"
            );
            Err(ExitCode::from(2))
        }
        _ => {
            eprintln!("fastc: no language '{n}' in '{path}'");
            Err(ExitCode::from(2))
        }
    };
    let l2 = lang(&out_name)?;
    let l1 = in_name.as_deref().map(lang).transpose()?;

    let outcome = fast_obs::time!("analysis.check.fa101", || {
        fast_analysis::check_pipeline(&stages, l1, l2)
    });
    let contract = format!(
        "{} -> {out_name}",
        in_name.as_deref().unwrap_or("<any input>")
    );
    match outcome {
        fast_analysis::PipelineOutcome::Satisfied => {
            eprintln!("  contract {contract}: satisfied (FA101)");
            Ok(0)
        }
        fast_analysis::PipelineOutcome::Violated(v) => {
            eprintln!("  contract {contract}: VIOLATED (FA101)");
            for note in v.notes(&names, ty) {
                eprintln!("    {note}");
            }
            Ok(1)
        }
        fast_analysis::PipelineOutcome::Unknown(reason) => {
            eprintln!("  contract {contract}: not verified ({reason})");
            Ok(0)
        }
    }
}

/// The transducer the profile workload drives, with its name and input
/// type: the `--trans` name if given, else the largest transducer by
/// (states, rules) with the name as a deterministic tie-break. An
/// unknown name, or a type that does not resolve, is a usage error
/// (exit 2).
fn pick_transducer<'c>(
    compiled: &'c fast_lang::Compiled,
    trans: Option<&str>,
    path: &str,
) -> Result<(String, &'c fast_core::Sttr, &'c fast_trees::TreeType), ExitCode> {
    let name = match trans {
        Some(n) => n.to_string(),
        None => {
            let mut names = compiled.transducer_names();
            names.sort_by_key(|n| {
                let t = compiled.transducer(n).unwrap();
                (
                    std::cmp::Reverse(t.state_count()),
                    std::cmp::Reverse(t.rule_count()),
                    n.to_string(),
                )
            });
            match names.first() {
                Some(first) => first.to_string(),
                None => {
                    eprintln!("fastc: '{path}' defines no transducers");
                    return Err(ExitCode::from(2));
                }
            }
        }
    };
    let Some(sttr) = compiled.transducer(&name) else {
        eprintln!(
            "fastc: no transducer '{name}' in '{path}' (have: {})",
            compiled.transducer_names().join(", ")
        );
        return Err(ExitCode::from(2));
    };
    let ty_name = compiled.transducer_type(&name).unwrap_or_default();
    let Some(ty) = compiled.tree_type(ty_name) else {
        eprintln!("fastc: cannot resolve input type '{ty_name}' of transducer '{name}'");
        return Err(ExitCode::from(2));
    };
    Ok((name, sttr, ty))
}

/// Renders nanoseconds human-readably (`850ns`, `3.2µs`, `14.8ms`).
fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

fn profile_mode(args: Args) -> ExitCode {
    let Some(path) = args.path() else {
        return usage_error("profile mode needs a <file.fast> argument");
    };
    let trees: usize = args.number("--trees", 200);
    let seed: u64 = args.number("--seed", 42);
    let top: usize = args.number("--top", 10);

    // Tracing is always on in profile mode: the phase tree printed at
    // the end is reconstructed from the span buffer.
    fast_obs::set_tracing(true);

    let compiled = {
        let _span = fast_obs::span!("profile.compile");
        match load_program(path) {
            Ok(c) => c,
            Err(code) => return code,
        }
    };

    let (name, sttr, ty) = match pick_transducer(&compiled, args.value("--trans"), path) {
        Ok(found) => found,
        Err(code) => return code,
    };

    let inputs = fast_trees::TreeGen::new(seed).trees(ty, trees);
    let plan = {
        let _span = fast_obs::span!("profile.plan_compile");
        fast_rt::Plan::compile(sttr)
    };
    let opts = fast_rt::RunOptions {
        profile: true,
        ..Default::default()
    };
    let (results, batch) = {
        let _span = fast_obs::span!("profile.run");
        plan.run_batch_with(&inputs, &opts)
    };
    let profile = batch.profile.as_ref().expect("profiling was requested");
    let ok = results.iter().filter(|r| r.is_ok()).count();

    outln!(
        "profile {path}: transducer '{name}' ({} states, {} rules), {} trees (seed {seed}), \
         {ok} ok / {} err",
        sttr.state_count(),
        sttr.rule_count(),
        inputs.len(),
        results.len() - ok,
    );
    outln!(
        "batch: {} workers, memo {} hits / {} misses / {} evictions",
        batch.workers,
        batch.memo_hits,
        batch.memo_misses,
        batch.memo_evictions
    );

    let events = fast_obs::drain_events();
    let phases = fast_obs::trace::phase_tree(&events);
    outln!("\nphase times ({} spans):", events.len());
    out!("{}", fast_obs::trace::render_tree(&phases));
    outln!("\nhot rules (top {top}):");
    out!("{}", profile.render_hot(top));

    let snap = fast_obs::snapshot();
    if let Some(exemplars) = snap.exemplars.get("rt.item") {
        outln!("\nslow items (top {} by latency):", exemplars.len());
        outln!(
            "  {:>12} {:>7} {:>10} {:>8}",
            "tree id",
            "state",
            "latency",
            "outputs"
        );
        for e in exemplars {
            outln!(
                "  {:>12} {:>7} {:>10} {:>8}",
                e.item,
                e.state,
                format_ns(e.latency_ns),
                e.output_size
            );
        }
    }

    if let Some(out) = args.value("--trace") {
        let json = fast_obs::trace::chrome_trace(&events).pretty();
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("fastc: cannot write trace '{out}': {e}");
            return ExitCode::from(2);
        }
        outln!("\ntrace: {} events -> {out}", events.len());
    }
    if let Some(out) = args.value("--jsonl") {
        if let Err(e) = std::fs::write(out, fast_obs::trace::jsonl(&events)) {
            eprintln!("fastc: cannot write jsonl '{out}': {e}");
            return ExitCode::from(2);
        }
    }
    finish_run(ExitCode::SUCCESS, args.has("--stats"), None)
}

#[cfg(test)]
mod tests {
    use super::{Mode, MODES, USAGE};

    /// Every name, long and short, of every flag `mode` accepts.
    fn accepted(mode: &Mode) -> impl Iterator<Item = &'static str> {
        [mode.switches, mode.values, mode.numbers]
            .into_iter()
            .flatten()
            .flat_map(|f| f.split('|'))
    }

    /// The words of `text` that look like flags: `--long` or `-s`.
    fn flag_words(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .filter(|w| w.starts_with("--") || (w.len() == 2 && w.starts_with('-')))
            .collect()
    }

    /// Every mode's synopsis lines in USAGE name exactly the flags its
    /// table accepts (and `--help`, which every mode accepts), and every
    /// flag the options list documents is accepted by some mode.
    #[test]
    fn usage_matches_the_flag_tables() {
        let (synopsis, options) = USAGE.split_once("\nmodes:").unwrap();
        // One synopsis per `fastc` line; a line whose second word is not
        // a mode name belongs to the run mode.
        let mut named: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in synopsis.lines() {
            let line = line.trim_start().trim_start_matches("usage: ");
            match line.strip_prefix("fastc ") {
                Some(rest) => {
                    let word = rest.split(' ').next().unwrap();
                    let mode = MODES.iter().find(|m| m.name == word).map_or("", |m| m.name);
                    named.push((mode, flag_words(rest)));
                }
                None => named.last_mut().unwrap().1.extend(flag_words(line)),
            }
        }
        for mode in &MODES {
            let mut documented: Vec<&str> = named
                .iter()
                .filter(|(m, _)| *m == mode.name)
                .flat_map(|(_, words)| words.iter().copied())
                .filter(|w| *w != "--help")
                .collect();
            documented.sort_unstable();
            documented.dedup();
            let mut flags: Vec<&str> = accepted(mode).collect();
            flags.sort_unstable();
            assert_eq!(documented, flags, "mode '{}'", mode.name);
        }
        for word in flag_words(options) {
            let known = word == "--help" || MODES.iter().any(|m| accepted(m).any(|f| f == word));
            assert!(known, "USAGE documents '{word}', which no mode accepts");
        }
    }
}
