//! Ablations for the design choices called out in DESIGN.md §6:
//!
//! 1. guard-satisfiability pruning during composition (`Look` 2(a));
//! 2. eager formula simplification in the label algebra;
//! 3. lazy (rooted) vs eager (all-states) normalization.
//!
//! Usage: `ablations [--pairs N]`

use fast_automata::{normalize, normalize_rooted, StateId};
use fast_bench::lists::{ilist_alg, ilist_type, map_caesar};
use fast_bench::taggers::{generate_taggers, world_alg, world_type};
use fast_core::{compose_with, ComposeOptions};
use fast_smt::LabelAlg;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut pairs = 15usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pairs" => {
                pairs = args[i + 1].parse().expect("--pairs N");
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    ablation_pruning(pairs);
    ablation_simplify();
    ablation_normalize();
    fast_bench::telemetry::emit("ablations");
}

/// Composition with vs without unsat pruning: rule counts and time.
fn ablation_pruning(pairs: usize) {
    println!("== Ablation 1: unsat pruning in composition ==");
    let ty = world_type();
    let alg = world_alg(&ty);
    let n = ((2.0 * pairs as f64).sqrt().ceil() as usize + 1).max(2);
    let taggers = generate_taggers(&ty, &alg, n, 7);
    let mut done = 0usize;
    let (mut rules_on, mut rules_off) = (0usize, 0usize);
    let (mut time_on, mut time_off) = (0.0f64, 0.0f64);
    'outer: for i in 0..taggers.len() {
        for j in (i + 1)..taggers.len() {
            let start = Instant::now();
            let with = compose_with(
                &taggers[i],
                &taggers[j],
                ComposeOptions { prune_unsat: true },
            );
            time_on += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let without = compose_with(
                &taggers[i],
                &taggers[j],
                ComposeOptions { prune_unsat: false },
            );
            time_off += start.elapsed().as_secs_f64();
            if let (Ok(w), Ok(wo)) = (with, without) {
                rules_on += w.sttr.rule_count();
                rules_off += wo.sttr.rule_count();
            }
            done += 1;
            if done >= pairs {
                break 'outer;
            }
        }
    }
    println!(
        "{done} tagger compositions: pruned {rules_on} rules in {:.1} ms; \
         unpruned {rules_off} rules in {:.1} ms",
        time_on * 1e3,
        time_off * 1e3
    );
    println!(
        "rule blowup without pruning: {:.2}x\n",
        rules_off as f64 / rules_on.max(1) as f64
    );
}

/// Formula simplification on vs off: guard sizes across a composition
/// chain.
fn ablation_simplify() {
    println!("== Ablation 2: eager formula simplification ==");
    for (label, simplify) in [("with simplification", true), ("without", false)] {
        let ty = ilist_type();
        let alg = if simplify {
            ilist_alg(&ty)
        } else {
            Arc::new(LabelAlg::new(ty.sig().clone()).without_simplification())
        };
        let m = map_caesar(&ty, &alg);
        let start = Instant::now();
        let mut fused = m.clone();
        for _ in 0..6 {
            fused = fast_core::compose(&fused, &m).expect("fits budget").sttr;
        }
        let t = start.elapsed().as_secs_f64() * 1e3;
        let guard_size: usize = fused
            .states()
            .flat_map(|q| fused.rules(q))
            .map(|r| r.guard.size())
            .sum();
        println!(
            "  {label}: 6 compositions in {:.1} ms, total guard size {guard_size} nodes, \
             {} rules",
            t,
            fused.rule_count()
        );
    }
    println!();
}

/// Lazy (rooted) vs eager (all singleton roots) normalization on the
/// sanitizer's badOutput-style alternating automaton.
fn ablation_normalize() {
    println!("== Ablation 3: lazy vs eager normalization ==");
    let c = fast_bench::sanitizer::compile_fig2();
    let bad = c.lang("bad_inputs").unwrap();
    let start = Instant::now();
    let lazy = normalize(bad).expect("fits budget");
    let lazy_t = start.elapsed().as_secs_f64() * 1e3;
    let all_roots: Vec<BTreeSet<StateId>> =
        bad.states().map(|q| [q].into_iter().collect()).collect();
    let start = Instant::now();
    let eager = normalize_rooted(bad, all_roots).expect("fits budget");
    let eager_t = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "  bad_inputs ({} states, {} rules): lazy → {} states in {:.2} ms; \
         eager → {} states in {:.2} ms\n",
        bad.state_count(),
        bad.rule_count(),
        lazy.state_count(),
        lazy_t,
        eager.0.state_count(),
        eager_t
    );
}
