//! Cold-start benchmark for the `.fastc` artifact layer.
//!
//! A sanitization service that restarts should not pay the compiler
//! again: `fastc build` stores the compiled transducers and the
//! pre-fused pipeline once, and a restart merely decodes them and
//! rebuilds their dispatch plans, with no solver work. This bench measures exactly that split
//! on the §5.1 sanitizer chain (`remScript | esc` from the Fig. 2
//! program):
//!
//! * **source path** — `fast_lang::compile` of the Fig. 2 program
//!   (definition evaluation and verification included; they are part of
//!   the program) plus `Pipeline::compile` of the two-stage chain —
//!   everything a restart without an artifact pays before the first
//!   tree moves;
//! * **artifact path** — `Artifact::decode` of the `.fastc` bytes
//!   holding the same two transducers and the pre-fused pipeline,
//!   yielding ready-to-run plans with no parsing, typechecking, or
//!   solver work.
//!
//! Both pipelines then sanitize the same page corpus and must produce
//! identical output multisets — the speedup only counts if the loaded
//! plans are indistinguishable from the compiled ones. The cold-start
//! ratio is asserted (≥ 20×) here and re-checked by CI from
//! `BENCH_artifact.json`.
//!
//! Usage: `artifact [--seed S] [--pages P] [--reps R]`

use fast_bench::sanitizer::{corpus, encoded_batch, FIG2_FIXED};
use fast_core::Sttr;
use fast_json::Json;
use fast_rt::{Artifact, ArtifactBuilder, Pipeline};
use fast_trees::Tree;
use std::sync::Arc;
use std::time::Instant;

/// Minimum cold-start advantage the artifact path must keep over the
/// source path. CI re-derives the same bound from the emitted JSON.
const MIN_SPEEDUP: f64 = 20.0;

fn main() {
    let mut seed = 7u64;
    let mut pages = 6usize;
    let mut reps = 4usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |j: usize| -> usize { args[j].parse().expect("numeric argument") };
        match args[i].as_str() {
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--pages" => {
                pages = val(i + 1);
                i += 2;
            }
            "--reps" => {
                reps = val(i + 1);
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    // Source path: what a process restart costs without an artifact.
    // Best-of-N keeps the measurement stable on noisy CI runners; each
    // iteration redoes the full compile + fuse.
    let mut source_compile_ns = u64::MAX;
    let mut source = None;
    for _ in 0..3 {
        let start = Instant::now();
        let compiled = fast_lang::compile(FIG2_FIXED).expect("Fig. 2 program compiles");
        let stages: Vec<Arc<Sttr>> = vec![
            Arc::new(compiled.transducer("remScript").unwrap().clone()),
            Arc::new(compiled.transducer("esc").unwrap().clone()),
        ];
        let pipeline = Pipeline::compile(&stages);
        source_compile_ns = source_compile_ns.min(start.elapsed().as_nanos() as u64);
        source = Some((compiled, stages, pipeline));
    }
    let (compiled, stages, p_source) = source.unwrap();

    // The build step is the offline cost `fastc build` pays once; it is
    // deliberately outside both timed paths. The artifact holds exactly
    // what the service needs at runtime: the two stage transducers and
    // their pre-fused pipeline.
    let mut builder = ArtifactBuilder::new();
    builder.add_transducer("remScript", compiled.transducer("remScript").unwrap());
    builder.add_transducer("esc", compiled.transducer("esc").unwrap());
    builder.add_pipeline(
        "remScript,esc",
        &["remScript".to_string(), "esc".to_string()],
        &stages,
    );
    let bytes = builder.build().encode();

    // Artifact path: what the same restart costs with one.
    let mut load_ns = u64::MAX;
    let mut loaded = None;
    for _ in 0..5 {
        let start = Instant::now();
        let art = Artifact::decode(&bytes).expect("freshly built artifact decodes");
        load_ns = load_ns.min(start.elapsed().as_nanos() as u64);
        loaded = Some(art);
    }
    let art = loaded.unwrap();

    let p_artifact = art.pipeline("remScript,esc").expect("stored pipeline");
    let speedup = source_compile_ns as f64 / (load_ns as f64).max(1.0);

    println!(
        "cold start over {} bytes (2 transducers, 1 pipeline):",
        bytes.len()
    );
    println!("  {:>14} {:>14}", "path", "time (ms)");
    println!(
        "  {:>14} {:>14.3}",
        "compile",
        source_compile_ns as f64 / 1e6
    );
    println!("  {:>14} {:>14.3}", "load", load_ns as f64 / 1e6);
    println!("  speedup: {speedup:.1}x (gate: >= {MIN_SPEEDUP}x)\n");

    // Differential run: the loaded pipeline must be indistinguishable
    // from the compiled one on the real page corpus.
    let ty = compiled.tree_type("HtmlE").unwrap().clone();
    let mut docs = corpus(seed);
    docs.truncate(pages);
    let batch = encoded_batch(&ty, &docs, reps);
    println!(
        "differential: sanitizing {} pages × {reps} reps through both pipelines",
        docs.len()
    );

    let start = Instant::now();
    let want = p_source.run_batch(&batch);
    let run_source_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let got = p_artifact.run_batch(&batch);
    let run_artifact_ms = start.elapsed().as_secs_f64() * 1e3;

    let sorted = |v: &[Tree]| {
        let mut v = v.to_vec();
        v.sort();
        v
    };
    let mut outputs = 0usize;
    for (w, g) in want.iter().zip(&got) {
        let w = sorted(w.as_ref().expect("source pipeline in budget"));
        assert_eq!(
            w,
            sorted(g.as_ref().expect("artifact pipeline in budget")),
            "loaded pipeline diverged from compiled pipeline"
        );
        outputs += w.len();
    }
    println!(
        "  outputs agree: {} items, {outputs} output trees \
         (source {run_source_ms:.1} ms, artifact {run_artifact_ms:.1} ms)",
        batch.len()
    );

    assert!(
        speedup >= MIN_SPEEDUP,
        "artifact load must be at least {MIN_SPEEDUP}x faster than \
         source compilation, got {speedup:.1}x"
    );

    fast_bench::telemetry::emit_with(
        "artifact",
        vec![
            ("source_compile_ns", Json::Int(source_compile_ns as i64)),
            ("artifact_load_ns", Json::Int(load_ns as i64)),
            ("cold_start_speedup", Json::Float(speedup)),
            ("artifact_bytes", Json::Int(bytes.len() as i64)),
            ("outputs_equal", Json::Bool(true)),
            ("run_source_ms", Json::Float(run_source_ms)),
            ("run_artifact_ms", Json::Float(run_artifact_ms)),
        ],
    );
}
