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
//!   printed under `--print-outputs` — the same report an artifact run
//!   produces, so the two can be diffed. With `--artifact FILE` instead
//!   of a source path, a compiled `.fastc` artifact is loaded
//!   (`fast_rt::Artifact::load`) and the same runs execute without
//!   reparsing or recompiling anything.
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
//! `--trace FILE` on any mode enables span tracing for the whole
//! invocation and writes the Chrome trace on exit.
//!
//! Exit codes: 0 clean; 1 run-mode failure, or check-mode warnings under
//! `--deny-warnings`; 2 usage/IO errors, or check-mode error diagnostics
//! (including compile errors).

use std::process::ExitCode;

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
  --trace FILE     record hierarchical spans and write a Chrome
                   trace_event JSON file (open in Perfetto)
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
  1  run: compile error, failed assertion, or corrupt artifact; check:
     warnings present under --deny-warnings
  2  usage or I/O error; check: error diagnostics (e.g. FA100/FA101
     contract violations or compile errors)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => build_mode(&args[1..]),
        Some("serve") => serve_mode(&args[1..]),
        Some("check") => check_mode(&args[1..]),
        Some("profile") => profile_mode(&args[1..]),
        _ => run_mode(&args),
    }
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

/// Parses a value-taking flag; `args[i]` is the flag itself.
fn flag_value(args: &[String], i: usize) -> Result<String, ExitCode> {
    args.get(i + 1).cloned().ok_or_else(|| {
        eprintln!("fastc: '{}' needs a value", args[i]);
        ExitCode::from(2)
    })
}

/// Parses a flag taking a non-negative integer; `args[i]` is the flag
/// itself.
fn flag_number(args: &[String], i: usize) -> Result<u64, ExitCode> {
    let v = flag_value(args, i)?;
    v.parse().map_err(|_| {
        usage_error(&format!(
            "'{}' needs a non-negative integer, got '{v}'",
            args[i]
        ))
    })
}

fn run_mode(args: &[String]) -> ExitCode {
    let mut quiet = false;
    let mut stats = false;
    let mut trace: Option<String> = None;
    let mut pipeline: Option<String> = None;
    let mut artifact: Option<String> = None;
    let mut trans: Option<String> = None;
    let mut all_trans = false;
    let mut print_outputs = false;
    let mut trees = 100usize;
    let mut seed = 42u64;
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quiet" | "-q" => quiet = true,
            "--stats" | "-s" => stats = true,
            "--all-trans" => all_trans = true,
            "--print-outputs" => print_outputs = true,
            flag @ ("--trace" | "--pipeline" | "--artifact" | "--trans") => {
                let v = match flag_value(args, i) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match flag {
                    "--trace" => trace = Some(v),
                    "--pipeline" => pipeline = Some(v),
                    "--artifact" => artifact = Some(v),
                    _ => trans = Some(v),
                }
                i += 1;
            }
            flag @ ("--trees" | "--seed") => {
                let n = match flag_number(args, i) {
                    Ok(n) => n,
                    Err(code) => return code,
                };
                if flag == "--trees" {
                    trees = n as usize;
                } else {
                    seed = n;
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    if trace.is_some() {
        fast_obs::set_tracing(true);
    }
    if let Some(art_path) = &artifact {
        if path.is_some() {
            return usage_error("give either a <file.fast> source or --artifact, not both");
        }
        let code = artifact_run(
            art_path,
            pipeline.as_deref(),
            trans.as_deref(),
            trees,
            seed,
            print_outputs,
            quiet,
        );
        return finish_run(code, stats, trace.as_deref());
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let src = match read_source(&path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let compiled = match fast_lang::compile(&src) {
        Ok(c) => c,
        Err(d) => {
            eprintln!("{path}:{d}");
            return ExitCode::FAILURE;
        }
    };
    if pipeline.is_some() || trans.is_some() || all_trans {
        let code = if let Some(list) = &pipeline {
            pipeline_run(&compiled, &path, list, trees, seed, quiet)
        } else {
            source_trans_run(
                &compiled,
                &path,
                trans.as_deref(),
                trees,
                seed,
                print_outputs,
            )
        };
        return finish_run(code, stats, trace.as_deref());
    }
    if stats {
        for name in compiled.lang_names() {
            let sta = compiled.lang(name).unwrap();
            println!(
                "lang  {name}: {} states, {} rules",
                sta.state_count(),
                sta.rule_count()
            );
        }
        for name in compiled.transducer_names() {
            let t = compiled.transducer(name).unwrap();
            println!(
                "trans {name}: {} states, {} rules, {} lookahead states",
                t.state_count(),
                t.rule_count(),
                t.lookahead_sta().state_count()
            );
        }
        for name in compiled.tree_names() {
            let t = compiled.tree(name).unwrap();
            println!("tree  {name}: {} nodes", t.size());
        }
    }
    let report = compiled.report();
    let mut failed = 0usize;
    for a in &report.assertions {
        let status = if a.passed() { "PASS" } else { "FAIL" };
        if !quiet || !a.passed() {
            println!(
                "{status} {path}:{} assert-{} {}",
                a.span.start,
                if a.expected { "true" } else { "false" },
                a.description
            );
            if let Some(cx) = &a.counterexample {
                println!("     counterexample: {cx}");
            }
        }
        if !a.passed() {
            failed += 1;
        }
    }
    if !quiet {
        println!(
            "{} assertion(s), {} failed",
            report.assertions.len(),
            failed
        );
    }
    let code = if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    finish_run(code, stats, trace.as_deref())
}

/// The epilogue of every `run_mode` path: under `--stats`, the telemetry
/// accumulated over the whole run as one JSON object (see
/// ARCHITECTURE.md for the counters); under `--trace`, the span file.
/// Returns `code` unless the trace cannot be written.
fn finish_run(code: ExitCode, stats: bool, trace: Option<&str>) -> ExitCode {
    if stats {
        println!("{}", fast_obs::snapshot().to_json().pretty());
    }
    if let Some(out) = trace {
        if let Err(code) = write_trace(out) {
            return code;
        }
    }
    code
}

/// `fastc <file> --pipeline t1,t2,...`: chains the named transformations
/// into a [`fast_rt::Pipeline`], prints the fusion report, and evaluates
/// generated input trees through the chain.
fn pipeline_run(
    compiled: &fast_lang::Compiled,
    path: &str,
    list: &str,
    trees: usize,
    seed: u64,
    quiet: bool,
) -> ExitCode {
    let names = split_stage_list(list);
    if names.is_empty() {
        return usage_error("'--pipeline' needs a comma-separated list of transformation names");
    }
    let mut stages = Vec::with_capacity(names.len());
    let mut ty_name: Option<&str> = None;
    for n in &names {
        let Some(sttr) = compiled.transducer(n) else {
            eprintln!(
                "fastc: no transformation '{n}' in '{path}' (have: {})",
                compiled.transducer_names().join(", ")
            );
            return ExitCode::from(2);
        };
        let t = compiled.transducer_type(n).unwrap_or_default();
        match ty_name {
            None => ty_name = Some(t),
            Some(prev) if prev != t => {
                eprintln!(
                    "fastc: pipeline stages disagree on tree type: '{}' is over '{prev}' \
                     but '{n}' is over '{t}'",
                    names[0]
                );
                return ExitCode::from(2);
            }
            Some(_) => {}
        }
        stages.push(std::sync::Arc::new(sttr.clone()));
    }
    let Some(ty) = ty_name.and_then(|t| compiled.tree_type(t)) else {
        eprintln!("fastc: cannot resolve the pipeline's tree type");
        return ExitCode::from(2);
    };

    let p = fast_rt::Pipeline::compile(&stages);
    print!("{}", p.report());
    pipeline_batch(&p, ty, trees, seed, quiet);
    ExitCode::SUCCESS
}

/// Evaluates `trees` generated inputs through a compiled pipeline and
/// prints the run summary (plus per-segment memo stats unless `quiet`).
/// The output is identical whether `p` came from `Pipeline::compile` or
/// out of a loaded artifact, so source and artifact runs can be diffed
/// byte for byte (use `--quiet`: memo hit counts depend on worker
/// scheduling, and the interner line on process history).
fn pipeline_batch(
    p: &fast_rt::Pipeline,
    ty: &fast_trees::TreeType,
    trees: usize,
    seed: u64,
    quiet: bool,
) {
    let inputs = fast_trees::TreeGen::new(seed).trees(ty, trees);
    let opts = fast_rt::RunOptions::default();
    let (results, seg_stats) = p.run_batch_with(&inputs, &opts);
    println!("ran {}", batch_summary(&results, seed));
    if !quiet {
        for (si, s) in seg_stats.iter().enumerate() {
            let (plan, first, last) = p.segment(si);
            println!(
                "segment {si} (stages {first}..={last}, {} states): {} items, memo {} hits / {} \
                 misses / {} evictions",
                plan.sttr().state_count(),
                s.items,
                s.memo_hits,
                s.memo_misses,
                s.memo_evictions,
            );
        }
        println!(
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

/// Splits a `--pipeline` stage list and normalizes it to the canonical
/// comma-joined artifact entry name (whitespace trimmed, empties
/// dropped), so `--pipeline \"a, b\"` at build and run time agree.
fn split_stage_list(list: &str) -> Vec<&str> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Batch-runs one compiled plan over generated trees and prints the
/// summary line (and, under `--print-outputs`, every input's sorted
/// output multiset). Shared verbatim by source and artifact runs so CI
/// can diff the two.
fn run_one_trans(
    name: &str,
    plan: &fast_rt::Plan,
    ty: &fast_trees::TreeType,
    trees: usize,
    seed: u64,
    print_outputs: bool,
) {
    let inputs = fast_trees::TreeGen::new(seed).trees(ty, trees);
    let results = plan.run_batch(&inputs);
    println!("trans {name}: {}", batch_summary(&results, seed));
    if print_outputs {
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(outs) => {
                    // Sorted display strings: Tree's Ord is on interner
                    // ids, which differ across processes.
                    let mut shown: Vec<String> =
                        outs.iter().map(|t| t.display(ty).to_string()).collect();
                    shown.sort();
                    for s in shown {
                        println!("  {name}[{i}] {s}");
                    }
                }
                Err(e) => println!("  {name}[{i}] error: {e}"),
            }
        }
    }
}

/// `fastc <file> --trans NAME | --all-trans`: compiles the named
/// transducer(s) to plans and batch-runs them, printing the same report
/// as the artifact path so the two runs can be diffed.
fn source_trans_run(
    compiled: &fast_lang::Compiled,
    path: &str,
    trans: Option<&str>,
    trees: usize,
    seed: u64,
    print_outputs: bool,
) -> ExitCode {
    let names = match trans {
        Some(n) => vec![n],
        None => compiled.transducer_names(),
    };
    for name in names {
        let (sttr, ty) = match resolve_transducer(compiled, name, path) {
            Ok(found) => found,
            Err(code) => return code,
        };
        let plan = fast_rt::Plan::compile(sttr);
        run_one_trans(name, &plan, ty, trees, seed, print_outputs);
    }
    ExitCode::SUCCESS
}

/// `fastc --artifact <file.fastc> ...`: loads a prebuilt artifact and
/// runs a stored pipeline (`--pipeline`) or transducers (`--trans`,
/// `--all-trans`, or everything by default) without recompiling.
fn artifact_run(
    art_path: &str,
    pipeline: Option<&str>,
    trans: Option<&str>,
    trees: usize,
    seed: u64,
    print_outputs: bool,
    quiet: bool,
) -> ExitCode {
    let art = match fast_rt::Artifact::load(art_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fastc: cannot load artifact '{art_path}': {e}");
            // I/O errors are environment problems (exit 2, like an
            // unreadable source); anything else means the artifact
            // itself is bad (exit 1, like a compile failure).
            return if matches!(e, fast_rt::ArtifactError::Io(_)) {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            };
        }
    };
    if let Some(list) = pipeline {
        let name = split_stage_list(list).join(",");
        let Some(p) = art.pipeline(&name) else {
            let have: Vec<&str> = art.pipeline_names().collect();
            eprintln!(
                "fastc: no pipeline '{name}' in '{art_path}' (have: {})",
                have.join(", ")
            );
            return ExitCode::from(2);
        };
        let ty = art.pipeline_type(&name).unwrap();
        print!("{}", p.report());
        pipeline_batch(p, ty, trees, seed, quiet);
        return ExitCode::SUCCESS;
    }
    let names: Vec<String> = match trans {
        Some(n) => {
            if art.transducer(n).is_none() {
                let have: Vec<&str> = art.transducer_names().collect();
                eprintln!(
                    "fastc: no transducer '{n}' in '{art_path}' (have: {})",
                    have.join(", ")
                );
                return ExitCode::from(2);
            }
            vec![n.to_string()]
        }
        None => {
            let mut all: Vec<String> = art.transducer_names().map(str::to_string).collect();
            all.sort();
            all
        }
    };
    for name in &names {
        let plan = art.transducer(name).unwrap();
        let ty = art.transducer_type(name).unwrap();
        run_one_trans(name, plan, ty, trees, seed, print_outputs);
    }
    ExitCode::SUCCESS
}

/// `fastc build <file.fast> [-o FILE] [--pipeline t1,t2,...]`: compiles
/// the program once and serializes every transformation — its states,
/// rules and lookahead STA, guards in an interned pool — into a
/// versioned binary `.fastc` artifact ([`fast_rt::Artifact`]). `--pipeline` additionally
/// stores the pre-compiled chain (fusion already decided) under the
/// normalized comma-joined name, so `--artifact --pipeline` runs skip
/// composition and the solver entirely.
fn build_mode(args: &[String]) -> ExitCode {
    let mut out: Option<String> = None;
    let mut pipelines: Vec<String> = Vec::new();
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--out" => {
                match flag_value(args, i) {
                    Ok(v) => out = Some(v),
                    Err(code) => return code,
                }
                i += 1;
            }
            "--pipeline" => {
                match flag_value(args, i) {
                    Ok(v) => pipelines.push(v),
                    Err(code) => return code,
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage_error("build mode needs a <file.fast> argument");
    };
    let src = match read_source(&path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let compiled = match fast_lang::compile(&src) {
        Ok(c) => c,
        Err(d) => {
            eprintln!("{path}:{d}");
            return ExitCode::FAILURE;
        }
    };

    let mut builder = fast_rt::ArtifactBuilder::new();
    for name in compiled.transducer_names() {
        builder.add_transducer(name, compiled.transducer(name).unwrap());
    }
    let mut seen = Vec::new();
    for list in &pipelines {
        let names = split_stage_list(list);
        if names.is_empty() {
            return usage_error(
                "'--pipeline' needs a comma-separated list of transformation names",
            );
        }
        let entry_name = names.join(",");
        if seen.contains(&entry_name) {
            return usage_error(&format!("pipeline '{entry_name}' given more than once"));
        }
        let mut stages = Vec::with_capacity(names.len());
        let mut ty_name: Option<&str> = None;
        for n in &names {
            let Some(sttr) = compiled.transducer(n) else {
                eprintln!(
                    "fastc: no transformation '{n}' in '{path}' (have: {})",
                    compiled.transducer_names().join(", ")
                );
                return ExitCode::from(2);
            };
            let t = compiled.transducer_type(n).unwrap_or_default();
            match ty_name {
                None => ty_name = Some(t),
                Some(prev) if prev != t => {
                    eprintln!(
                        "fastc: pipeline stages disagree on tree type: '{}' is over '{prev}' \
                         but '{n}' is over '{t}'",
                        names[0]
                    );
                    return ExitCode::from(2);
                }
                Some(_) => {}
            }
            stages.push(std::sync::Arc::new(sttr.clone()));
        }
        let stage_names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        builder.add_pipeline(&entry_name, &stage_names, &stages);
        seen.push(entry_name);
    }
    let art = builder.build();

    let out_path = out.unwrap_or_else(|| {
        std::path::Path::new(&path)
            .with_extension("fastc")
            .to_string_lossy()
            .into_owned()
    });
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
    println!(
        "wrote {out_path}: {} types, {} transducers, {} pipelines, {} bytes",
        art.types().len(),
        art.transducer_names().count(),
        art.pipeline_names().count(),
        bytes.len(),
    );
    ExitCode::SUCCESS
}

fn serve_mode(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = fast_serve::ServeConfig::default();
    let mut slo_path: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                match flag_value(args, i) {
                    Ok(v) => addr = v,
                    Err(code) => return code,
                }
                i += 1;
            }
            flag @ ("--workers" | "--queue" | "--max-conns" | "--timeout-ms") => {
                let n = match flag_number(args, i) {
                    Ok(n) => n,
                    Err(code) => return code,
                };
                match flag {
                    "--workers" => cfg.workers = n as usize,
                    "--queue" => cfg.queue_depth = (n as usize).max(1),
                    "--max-conns" => cfg.max_connections = (n as usize).max(1),
                    _ => cfg.timeout = std::time::Duration::from_millis(n),
                }
                i += 1;
            }
            "--slo" => {
                match flag_value(args, i) {
                    Ok(v) => slo_path = Some(v),
                    Err(code) => return code,
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    if paths.is_empty() {
        return usage_error("serve mode needs at least one <file.fastc> argument");
    }
    if let Some(p) = &slo_path {
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
    let mut artifacts = Vec::with_capacity(paths.len());
    for p in &paths {
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
    match fast_serve::start(artifacts, &addr, cfg) {
        Ok(handle) => {
            println!(
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

fn check_mode(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut stats = false;
    let mut trace: Option<String> = None;
    let mut pipeline: Option<String> = None;
    let mut input_lang: Option<String> = None;
    let mut output_lang: Option<String> = None;
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--stats" | "-s" => stats = true,
            "--trace" => {
                match flag_value(args, i) {
                    Ok(v) => trace = Some(v),
                    Err(code) => return code,
                }
                i += 1;
            }
            flag @ ("--pipeline" | "--input" | "--output") => {
                let v = match flag_value(args, i) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match flag {
                    "--pipeline" => pipeline = Some(v),
                    "--input" => input_lang = Some(v),
                    _ => output_lang = Some(v),
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage_error("check mode needs a <file.fast> argument");
    };
    let src = match read_source(&path) {
        Ok(s) => s,
        Err(code) => return code,
    };
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
                diags = fast_obs::time("analysis.total", || {
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

    if json {
        println!(
            "{}",
            fast_analysis::diagnostics_to_json(&path, &all).pretty()
        );
    } else {
        for d in &all {
            eprint!("{path}:{}", fast_lang::render_diagnostic(&src, d));
        }
        eprintln!("fastc check: {path}: {errors} error(s), {warnings} warning(s)");
    }
    if let Some(list) = &pipeline {
        match &compiled_opt {
            None => eprintln!("fastc: skipping --pipeline check: compilation failed"),
            Some(compiled) => match pipeline_check(
                compiled,
                &path,
                list,
                input_lang.as_deref(),
                output_lang.as_deref(),
            ) {
                Ok(violations) => errors += violations,
                Err(code) => return code,
            },
        }
    }
    if stats {
        println!("{}", fast_obs::snapshot().to_json().pretty());
    }
    if let Some(out) = &trace {
        if let Err(code) = write_trace(out) {
            return code;
        }
    }
    if errors > 0 {
        ExitCode::from(2)
    } else if deny_warnings && warnings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
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
    let names = split_stage_list(list);
    if names.is_empty() {
        return Err(usage_error(
            "'--pipeline' needs a comma-separated list of transformation names",
        ));
    }
    let mut stages = Vec::with_capacity(names.len());
    let mut ty_name: Option<&str> = None;
    for n in &names {
        let Some(sttr) = compiled.transducer(n) else {
            eprintln!(
                "fastc: no transformation '{n}' in '{path}' (have: {})",
                compiled.transducer_names().join(", ")
            );
            return Err(ExitCode::from(2));
        };
        let t = compiled.transducer_type(n).unwrap_or_default();
        match ty_name {
            None => ty_name = Some(t),
            Some(prev) if prev != t => {
                eprintln!(
                    "fastc: pipeline stages disagree on tree type: '{}' is over '{prev}' \
                     but '{n}' is over '{t}'",
                    names[0]
                );
                return Err(ExitCode::from(2));
            }
            Some(_) => {}
        }
        stages.push(sttr);
    }
    let Some(ty) = ty_name.and_then(|t| compiled.tree_type(t)) else {
        eprintln!("fastc: cannot resolve the pipeline's tree type");
        return Err(ExitCode::from(2));
    };

    eprintln!("pipeline check: {}", names.join(" ; "));
    fast_obs::time("analysis.check.fa007", || {
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
    let stage_ty = ty_name.unwrap_or_default();
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

    let outcome = fast_obs::time("analysis.check.fa101", || {
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

/// The transducer `name` of a compiled program and its input tree type.
/// An unknown name, or a type that does not resolve, is a usage error
/// (exit 2).
fn resolve_transducer<'c>(
    compiled: &'c fast_lang::Compiled,
    name: &str,
    path: &str,
) -> Result<(&'c fast_core::Sttr, &'c fast_trees::TreeType), ExitCode> {
    let Some(sttr) = compiled.transducer(name) else {
        eprintln!(
            "fastc: no transducer '{name}' in '{path}' (have: {})",
            compiled.transducer_names().join(", ")
        );
        return Err(ExitCode::from(2));
    };
    let ty_name = compiled.transducer_type(name).unwrap_or_default();
    let Some(ty) = compiled.tree_type(ty_name) else {
        eprintln!("fastc: cannot resolve input type '{ty_name}' of transducer '{name}'");
        return Err(ExitCode::from(2));
    };
    Ok((sttr, ty))
}

/// Resolves the transducer the profile workload drives, with its
/// name and input type: the `--trans` name if given (checked by
/// [`resolve_transducer`]), else the largest transducer by (states,
/// rules) with the name as a deterministic tie-break.
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
    let (sttr, ty) = resolve_transducer(compiled, &name, path)?;
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

fn profile_mode(args: &[String]) -> ExitCode {
    let mut trees = 200usize;
    let mut seed = 42u64;
    let mut top = 10usize;
    let mut trans: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut jsonl: Option<String> = None;
    let mut stats = false;
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--trans" | "--trace" | "--jsonl") => {
                let v = match flag_value(args, i) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match flag {
                    "--trans" => trans = Some(v),
                    "--trace" => trace = Some(v),
                    _ => jsonl = Some(v),
                }
                i += 1;
            }
            flag @ ("--trees" | "--seed" | "--top") => {
                let n = match flag_number(args, i) {
                    Ok(n) => n,
                    Err(code) => return code,
                };
                match flag {
                    "--trees" => trees = n as usize,
                    "--seed" => seed = n,
                    _ => top = n as usize,
                }
                i += 1;
            }
            "--stats" | "-s" => stats = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage_error("profile mode needs a <file.fast> argument");
    };
    let src = match read_source(&path) {
        Ok(s) => s,
        Err(code) => return code,
    };

    // Tracing is always on in profile mode: the phase tree printed at
    // the end is reconstructed from the span buffer.
    fast_obs::set_tracing(true);

    let compiled = {
        let _span = fast_obs::span!("profile.compile");
        match fast_lang::compile(&src) {
            Ok(c) => c,
            Err(d) => {
                eprintln!("{path}:{d}");
                return ExitCode::FAILURE;
            }
        }
    };

    let (name, sttr, ty) = match pick_transducer(&compiled, trans.as_deref(), &path) {
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

    println!(
        "profile {path}: transducer '{name}' ({} states, {} rules), {} trees (seed {seed}), \
         {ok} ok / {} err",
        sttr.state_count(),
        sttr.rule_count(),
        inputs.len(),
        results.len() - ok,
    );
    println!(
        "batch: {} workers, memo {} hits / {} misses / {} evictions",
        batch.workers, batch.memo_hits, batch.memo_misses, batch.memo_evictions
    );

    let events = fast_obs::drain_events();
    let phases = fast_obs::trace::phase_tree(&events);
    println!("\nphase times ({} spans):", events.len());
    print!("{}", fast_obs::trace::render_tree(&phases));
    println!("\nhot rules (top {top}):");
    print!("{}", profile.render_hot(top));

    let snap = fast_obs::snapshot();
    if let Some(exemplars) = snap.exemplars.get("rt.item") {
        println!("\nslow items (top {} by latency):", exemplars.len());
        println!(
            "  {:>12} {:>7} {:>10} {:>8}",
            "tree id", "state", "latency", "outputs"
        );
        for e in exemplars {
            println!(
                "  {:>12} {:>7} {:>10} {:>8}",
                e.item,
                e.state,
                format_ns(e.latency_ns),
                e.output_size
            );
        }
    }

    if let Some(out) = &trace {
        let json = fast_obs::trace::chrome_trace(&events).pretty();
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("fastc: cannot write trace '{out}': {e}");
            return ExitCode::from(2);
        }
        println!("\ntrace: {} events -> {out}", events.len());
    }
    if let Some(out) = &jsonl {
        if let Err(e) = std::fs::write(out, fast_obs::trace::jsonl(&events)) {
            eprintln!("fastc: cannot write jsonl '{out}': {e}");
            return ExitCode::from(2);
        }
    }
    if stats {
        println!("{}", fast_obs::snapshot().to_json().pretty());
    }
    ExitCode::SUCCESS
}
