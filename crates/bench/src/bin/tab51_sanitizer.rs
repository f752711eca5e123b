//! §5.1 — sanitizer throughput on a 10-page corpus (20 KB … 409 KB),
//! Fast-compiled sanitizer vs the hand-written monolithic rewriter
//! (standing in for HTML Purifier). The paper's claim to reproduce: the
//! Fast sanitizer's speed is *comparable* to the monolithic one.
//!
//! The "fast" column times `Plan::run`, the compiled evaluator batch and
//! serve use. The reference interpreter `Sttr::run` is timed as the
//! "oracle" column and must produce the same output on every page. The
//! "manual" column is the rewriter's best of three passes over each
//! page, timed before either evaluator runs.
//! Writes `BENCH_tab51.json` with `fast_ms`, `oracle_ms`, `manual_ms`
//! and `fast_manual_ratio` (totals over the corpus).
//!
//! Usage: `tab51_sanitizer [--seed S]`

use fast_bench::sanitizer::{baseline_sanitize, compile_fig2, corpus};
use fast_json::Json;
use fast_rt::Plan;
use fast_trees::HtmlDoc;
use std::time::Instant;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let mut seed = 51u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    println!("§5.1 reproduction: compiling and verifying the Fig. 2 sanitizer…");
    let start = Instant::now();
    let compiled = compile_fig2();
    let ty = compiled.tree_type("HtmlE").unwrap().clone();
    let sani = compiled.transducer("sani").unwrap();
    let plan = Plan::compile(sani);
    println!(
        "compiled + analyzed (pre-image emptiness verified) in {:.1} ms\n",
        ms_since(start)
    );

    println!(
        "{:>4} {:>10} {:>10} {:>11} {:>12} {:>8} {:>6}",
        "page", "size (KB)", "fast (ms)", "oracle (ms)", "manual (ms)", "ratio", "match"
    );
    let docs = corpus(seed);
    // The rewriter is timed first, on a heap no evaluator has churned:
    // timed after a plan or oracle run in the same process, it runs
    // several times slower. Each page keeps its best of three passes.
    let mut manual_ms = vec![f64::INFINITY; docs.len()];
    let mut expected = Vec::new();
    for _ in 0..3 {
        expected = (docs.iter().zip(&mut manual_ms))
            .map(|(doc, best)| {
                let start = Instant::now();
                let out = baseline_sanitize(doc);
                *best = best.min(ms_since(start));
                out
            })
            .collect();
    }
    let (mut fast_total, mut oracle_total, mut manual_total) = (0.0f64, 0.0f64, 0.0f64);
    for (i, doc) in docs.iter().enumerate() {
        let size_kb = doc.render().len() as f64 / 1024.0;
        let encoded = doc.encode(&ty);

        // The plan runs first, so it pays for interning the output trees.
        let start = Instant::now();
        let out = plan.run(&encoded).expect("run fits budget");
        let fast_t = ms_since(start);

        let start = Instant::now();
        let oracle = sani.run(&encoded).expect("run fits budget");
        let oracle_t = ms_since(start);

        let (expected, manual_t) = (&expected[i], manual_ms[i]);
        let matches = out == oracle && HtmlDoc::decode(&ty, &out[0]).as_ref() == Ok(expected);
        fast_total += fast_t;
        oracle_total += oracle_t;
        manual_total += manual_t;
        println!(
            "{:>4} {:>10.0} {:>10.2} {:>11.2} {:>12.2} {:>7.1}x {:>6}",
            i + 1,
            size_kb,
            fast_t,
            oracle_t,
            manual_t,
            fast_t / manual_t.max(1e-9),
            if matches { "yes" } else { "NO" }
        );
        assert!(matches, "plan, oracle and baseline must agree");
    }
    let ratio = fast_total / manual_total.max(1e-9);
    println!(
        "\ntotals: fast {fast_total:.1} ms, oracle {oracle_total:.1} ms, manual {manual_total:.1} ms; \
         fast/manual {ratio:.1}x, oracle/manual {:.1}x\n\
         (paper: \"comparable to HTML Purify\"; the Fast pipeline executes\n\
         remScript∘esc fused into one pass over the tree encoding)",
        oracle_total / manual_total.max(1e-9)
    );
    println!(
        "maintainability datum (paper): ~200 lines of Fast vs ~10,000 lines of PHP; \
         this repo's Fig. 2 program is {} lines.",
        fast_bench::sanitizer::FIG2_FIXED.lines().count()
    );
    fast_bench::telemetry::emit_with(
        "tab51",
        vec![
            ("fast_ms", Json::Float(fast_total)),
            ("oracle_ms", Json::Float(oracle_total)),
            ("manual_ms", Json::Float(manual_total)),
            ("fast_manual_ratio", Json::Float(ratio)),
        ],
    );
}
