//! Batch-evaluation throughput: the Fig. 2 sanitizer over the §5.1
//! corpus, repeated as a service workload would see it, in three modes:
//!
//! 1. `sequential` — the reference interpreter, one `Sttr::run` per item;
//! 2. `plan` — compiled dispatch plan + shared memo, one worker;
//! 3. `plan+pool` — the same plan across the work-stealing pool.
//!
//! Repeats in the batch are `Arc` clones, and trees are globally
//! hash-consed, so the plan's root memo answers a repeated page without
//! re-evaluating, and each page's own table evaluates a subtree repeated
//! inside it once per state — the speedup is memoization first,
//! parallelism on top where cores exist. Writes `BENCH_rt_batch.json` with timings,
//! speedups, interner statistics, and `rt.*` telemetry.
//!
//! Usage: `rt_batch [--seed S] [--reps N]`

use fast_bench::sanitizer::{compile_fig2, corpus, encoded_batch, plan_fig2};
use fast_json::Json;
use fast_rt::RunOptions;
use std::time::Instant;

fn main() {
    let mut seed = 51u64;
    let mut reps = 3usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--reps" => {
                reps = args[i + 1].parse().expect("--reps N");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("compiling the Fig. 2 sanitizer…");
    let compiled = compile_fig2();
    let ty = compiled.tree_type("HtmlE").unwrap().clone();
    let sani = compiled.transducer("sani").unwrap();
    let plan = plan_fig2(&compiled);

    let docs = corpus(seed);
    let intern_before = fast_obs::snapshot();
    let batch = encoded_batch(&ty, &docs, reps);
    let intern_delta = fast_obs::snapshot().delta_from(&intern_before);
    let corpus_intern_hits = intern_delta.get("intern.hits");
    let corpus_intern_misses = intern_delta.get("intern.misses");
    println!(
        "batch: {} items ({} distinct pages × {reps} reps), {cores} core(s)\n",
        batch.len(),
        docs.len()
    );

    // Mode 1: reference interpreter, item by item.
    let start = Instant::now();
    let sequential: Vec<_> = batch
        .iter()
        .map(|t| sani.run(t).expect("in budget"))
        .collect();
    let seq_ms = start.elapsed().as_secs_f64() * 1e3;

    // Mode 2: compiled plan + shared memo, single worker. The snapshot
    // delta around the run isolates this batch's `rt.item` histogram,
    // giving per-item latency percentiles.
    let opts1 = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let before = fast_obs::snapshot();
    let start = Instant::now();
    let (plan_results, plan_stats) = plan.run_batch_with(&batch, &opts1);
    let plan_ms = start.elapsed().as_secs_f64() * 1e3;
    let item_hist = fast_obs::snapshot()
        .delta_from(&before)
        .hists
        .get("rt.item")
        .cloned()
        .unwrap_or_else(fast_obs::HistSnapshot::empty);

    // Mode 3: plan across the pool (worker count from the OS).
    let opts_pool = RunOptions::default();
    let start = Instant::now();
    let (pool_results, pool_stats) = plan.run_batch_with(&batch, &opts_pool);
    let pool_ms = start.elapsed().as_secs_f64() * 1e3;

    // All three modes must agree item-for-item.
    for ((s, p), w) in sequential.iter().zip(&plan_results).zip(&pool_results) {
        assert_eq!(s, p.as_ref().expect("plan in budget"));
        assert_eq!(s, w.as_ref().expect("pool in budget"));
    }

    let speedup_plan = seq_ms / plan_ms.max(1e-9);
    let speedup_pool = seq_ms / pool_ms.max(1e-9);
    println!("{:>12} {:>12} {:>10}", "mode", "time (ms)", "speedup");
    println!("{:>12} {:>12.1} {:>10}", "sequential", seq_ms, "1.0x");
    println!("{:>12} {:>12.1} {:>9.1}x", "plan", plan_ms, speedup_plan);
    println!(
        "{:>12} {:>12.1} {:>9.1}x",
        "plan+pool", pool_ms, speedup_pool
    );
    println!(
        "\nmemo (plan mode): {} hits / {} misses ({:.1}% hit rate), {} evictions",
        plan_stats.memo_hits,
        plan_stats.memo_misses,
        plan_stats.memo_hit_rate() * 100.0,
        plan_stats.memo_evictions,
    );
    println!(
        "pool mode: {} workers, {} steals, memo hit rate {:.1}%",
        pool_stats.workers,
        pool_stats.steals,
        pool_stats.memo_hit_rate() * 100.0,
    );
    println!(
        "per-item latency (plan mode): p50 {:.1}µs  p99 {:.1}µs  max {:.1}µs",
        item_hist.quantile(0.5) as f64 / 1e3,
        item_hist.quantile(0.99) as f64 / 1e3,
        item_hist.max_ns as f64 / 1e3,
    );
    let intern_table = fast_trees::intern::table_len();
    println!(
        "interner: {} canonical nodes; corpus encoding {} hits / {} misses \
         ({:.1}% of constructions deduplicated)",
        intern_table,
        corpus_intern_hits,
        corpus_intern_misses,
        100.0 * corpus_intern_hits as f64
            / (corpus_intern_hits + corpus_intern_misses).max(1) as f64,
    );

    // Tracing-overhead probe: re-run plan mode twice with the subscriber
    // off (the second run bounds run-to-run noise), then once with it
    // on. Span recording should cost within noise of an untraced run.
    let start = Instant::now();
    let _ = plan.run_batch_with(&batch, &opts1);
    let repeat_ms = start.elapsed().as_secs_f64() * 1e3;
    fast_obs::set_tracing(true);
    let start = Instant::now();
    let _ = plan.run_batch_with(&batch, &opts1);
    let traced_ms = start.elapsed().as_secs_f64() * 1e3;
    fast_obs::set_tracing(false);
    let trace_events = fast_obs::drain_events().len();
    let noise_pct = (repeat_ms - plan_ms).abs() / plan_ms.max(1e-9) * 100.0;
    let overhead_pct = (traced_ms - repeat_ms) / repeat_ms.max(1e-9) * 100.0;
    println!(
        "tracing overhead: untraced {repeat_ms:.1} ms (noise ±{noise_pct:.1}%), \
         traced {traced_ms:.1} ms ({overhead_pct:+.1}%, {trace_events} events)",
    );

    // Sampler-overhead probe: the background telemetry engine taking
    // ~10 ms snapshot deltas must be invisible to the workload (the
    // continuous-monitoring story only holds if watching is ~free).
    // Min-of-3 on each side bounds scheduler noise better than single
    // runs; CI gates on `engine_overhead_pct`.
    let timed_run = || {
        let start = Instant::now();
        let _ = plan.run_batch_with(&batch, &opts1);
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut unsampled_ms = f64::INFINITY;
    let mut sampled_ms = f64::INFINITY;
    let mut engine_windows = 0usize;
    // Interleave the pairs (A B A B A B) so machine drift hits both
    // sides equally instead of biasing whichever side ran later.
    for _ in 0..3 {
        unsampled_ms = unsampled_ms.min(timed_run());
        let engine =
            fast_obs::engine::Engine::start(std::time::Duration::from_millis(10), 4096, |_| {});
        sampled_ms = sampled_ms.min(timed_run());
        engine_windows += engine.stop().len();
    }
    let engine_overhead_pct = (sampled_ms - unsampled_ms) / unsampled_ms.max(1e-9) * 100.0;
    println!(
        "sampler overhead: unsampled {unsampled_ms:.1} ms, sampled {sampled_ms:.1} ms \
         ({engine_overhead_pct:+.1}%, {engine_windows} windows at 10 ms)",
    );

    fast_bench::telemetry::emit_with(
        "rt_batch",
        vec![
            ("cores", Json::Int(cores as i64)),
            ("batch_items", Json::Int(batch.len() as i64)),
            ("distinct_pages", Json::Int(docs.len() as i64)),
            ("reps", Json::Int(reps as i64)),
            ("sequential_ms", Json::Float(seq_ms)),
            ("plan_ms", Json::Float(plan_ms)),
            ("plan_pool_ms", Json::Float(pool_ms)),
            ("speedup_plan", Json::Float(speedup_plan)),
            ("speedup_plan_pool", Json::Float(speedup_pool)),
            ("memo_hits", Json::Int(plan_stats.memo_hits as i64)),
            ("memo_misses", Json::Int(plan_stats.memo_misses as i64)),
            ("memo_hit_rate", Json::Float(plan_stats.memo_hit_rate())),
            ("pool_workers", Json::Int(pool_stats.workers as i64)),
            ("pool_steals", Json::Int(pool_stats.steals as i64)),
            ("item_p50_ns", Json::Int(item_hist.quantile(0.5) as i64)),
            ("item_p99_ns", Json::Int(item_hist.quantile(0.99) as i64)),
            ("item_max_ns", Json::Int(item_hist.max_ns as i64)),
            ("intern_table_len", Json::Int(intern_table as i64)),
            ("intern_corpus_hits", Json::Int(corpus_intern_hits as i64)),
            (
                "intern_corpus_misses",
                Json::Int(corpus_intern_misses as i64),
            ),
            ("plan_repeat_ms", Json::Float(repeat_ms)),
            ("traced_ms", Json::Float(traced_ms)),
            ("trace_noise_pct", Json::Float(noise_pct)),
            ("trace_overhead_pct", Json::Float(overhead_pct)),
            ("trace_events", Json::Int(trace_events as i64)),
            ("engine_unsampled_ms", Json::Float(unsampled_ms)),
            ("engine_sampled_ms", Json::Float(sampled_ms)),
            ("engine_overhead_pct", Json::Float(engine_overhead_pct)),
            ("engine_windows", Json::Int(engine_windows as i64)),
        ],
    );
}
