//! Pipeline fusion: chained transformations in three strategies.
//!
//! Three chains:
//!
//! * the Fig. 7 deforestation chain `map_caesar ∘ filter_ev ∘
//!   map_caesar` over random integer lists — every boundary is exact
//!   (the left factors are deterministic, hence single-valued), so the
//!   whole chain fuses into one transducer and never materializes an
//!   intermediate list;
//! * the §5.1 sanitizer chain `esc ∘ remScript` over the synthetic
//!   page corpus — also fusable, but with the state-product blowup of
//!   real rule sets;
//! * the `svfuse` chain `dup ∘ norm` over random binary trees — `norm`
//!   is *nondeterministic but single-valued* (two overlapping leaf
//!   rules with provably equal outputs) and `dup` is *nonlinear*, so
//!   Theorem 4's syntactic reading cascades this boundary; the semantic
//!   single-valuedness decision proves `norm` single-valued and fuses
//!   it anyway.
//!
//! Strategies per chain:
//!
//! 1. `naive` — reference interpreter, one `Sttr::run` per stage per
//!    item, frontiers materialized between stages;
//! 2. `cascaded` — `Pipeline` with fusion disabled: compiled plans and
//!    shared memos per stage, but intermediate trees still materialize;
//! 3. `fused` — `Pipeline::compile` with the default strategy, fusing
//!    every boundary the exactness precondition admits.
//!
//! All three must agree item-for-item (as sorted output sets). Writes
//! `BENCH_pipeline.json` with timings and the fusion report.
//!
//! Usage: `pipeline [--seed S] [--lists N] [--len L] [--reps R] [--pages P]`

use fast_bench::lists::{filter_ev, ilist_alg, ilist_type, map_caesar, random_list};
use fast_bench::sanitizer::{compile_fig2, corpus, encoded_batch};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_json::Json;
use fast_rt::{FusionStrategy, Pipeline};
use fast_smt::{CmpOp, Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeGen, TreeType};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Staged reference run: `Sttr::run` per stage, frontiers unioned and
/// materialized between stages — the strategy a program without the
/// pipeline subsystem is stuck with.
fn naive_chain(stages: &[Arc<Sttr>], t: &Tree) -> Result<Vec<Tree>, TransducerError> {
    let mut frontier = vec![t.clone()];
    for s in stages {
        let mut next = BTreeSet::new();
        for u in &frontier {
            next.extend(s.run(u)?);
        }
        frontier = next.into_iter().collect();
    }
    Ok(frontier)
}

struct ChainResult {
    naive_ms: f64,
    cascaded_ms: f64,
    fused_ms: f64,
    segments_fused: usize,
    outputs: usize,
}

/// Runs one chain under all three strategies and checks they agree.
fn run_chain(name: &str, stages: &[Arc<Sttr>], batch: &[Tree]) -> ChainResult {
    let fused = Pipeline::compile(stages);
    let cascaded = Pipeline::compile_with(stages, FusionStrategy::Never);
    println!("{name}: {}", fused.report());

    let start = Instant::now();
    let naive: Vec<Vec<Tree>> = batch
        .iter()
        .map(|t| naive_chain(stages, t).expect("in budget"))
        .collect();
    let naive_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let casc = cascaded.run_batch(batch);
    let cascaded_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let fus = fused.run_batch(batch);
    let fused_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut outputs = 0;
    for ((n, c), f) in naive.iter().zip(&casc).zip(&fus) {
        let sorted = |v: &[Tree]| {
            let mut v = v.to_vec();
            v.sort();
            v
        };
        let n = sorted(n);
        assert_eq!(n, sorted(c.as_ref().expect("cascaded in budget")));
        assert_eq!(n, sorted(f.as_ref().expect("fused in budget")));
        outputs += n.len();
    }

    println!("  {:>10} {:>12} {:>10}", "strategy", "time (ms)", "speedup");
    println!("  {:>10} {:>12.1} {:>10}", "naive", naive_ms, "1.0x");
    println!(
        "  {:>10} {:>12.1} {:>9.1}x",
        "cascaded",
        cascaded_ms,
        naive_ms / cascaded_ms.max(1e-9)
    );
    println!(
        "  {:>10} {:>12.1} {:>9.1}x\n",
        "fused",
        fused_ms,
        naive_ms / fused_ms.max(1e-9)
    );

    ChainResult {
        naive_ms,
        cascaded_ms,
        fused_ms,
        segments_fused: fused.segment_count(),
        outputs,
    }
}

/// Binary tree type for the `svfuse` chain.
fn bt_type() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

/// `norm`: nondeterministic but single-valued. The leaf rules overlap
/// at `i = 0` with provably equal outputs (`i` vs `i * 1`), so the
/// determinism fast path cannot fuse a boundary it is left of — only
/// the semantic single-valuedness decision can.
fn norm_bt(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("norm");
    b.plain_rule(
        q,
        leaf,
        Formula::cmp(CmpOp::Ge, Term::field(0), Term::int(0)),
        Out::node(leaf, LabelFn::new(vec![Term::field(0)]), vec![]),
    );
    b.plain_rule(
        q,
        leaf,
        Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0)),
        Out::node(
            leaf,
            LabelFn::new(vec![Term::field(0).mul(Term::int(1))]),
            vec![],
        ),
    );
    b.plain_rule(
        q,
        node,
        Formula::True,
        Out::node(
            node,
            LabelFn::new(vec![Term::field(0)]),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    b.build(q)
}

/// `dup`: nonlinear — every inner node reads its left child twice, so
/// Theorem 4's right-linearity condition fails and fusion hinges
/// entirely on the left factor being single-valued.
fn dup_bt(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("dup");
    b.plain_rule(
        q,
        leaf,
        Formula::True,
        Out::node(leaf, LabelFn::new(vec![Term::field(0)]), vec![]),
    );
    b.plain_rule(
        q,
        node,
        Formula::True,
        Out::node(
            node,
            LabelFn::new(vec![Term::field(0)]),
            vec![Out::Call(q, 0), Out::Call(q, 0)],
        ),
    );
    b.build(q)
}

fn main() {
    let mut seed = 7u64;
    let mut lists = 64usize;
    let mut len = 192usize;
    let mut reps = 4usize;
    let mut pages = 6usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |j: usize| -> usize { args[j].parse().expect("numeric argument") };
        match args[i].as_str() {
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed S");
                i += 2;
            }
            "--lists" => {
                lists = val(i + 1);
                i += 2;
            }
            "--len" => {
                len = val(i + 1);
                i += 2;
            }
            "--reps" => {
                reps = val(i + 1);
                i += 2;
            }
            "--pages" => {
                pages = val(i + 1);
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    // Chain 1: Fig. 7 deforestation over random integer lists.
    let ty = ilist_type();
    let alg = ilist_alg(&ty);
    let fig7_stages: Vec<Arc<Sttr>> = vec![
        Arc::new(map_caesar(&ty, &alg)),
        Arc::new(filter_ev(&ty, &alg)),
        Arc::new(map_caesar(&ty, &alg)),
    ];
    // Repeats are `Arc` clones of the distinct lists: the compiled
    // strategies answer them from the shared memo, the naive interpreter
    // re-evaluates every one — the same service-workload shape as the
    // `rt_batch` bench.
    let distinct: Vec<Tree> = (0..lists)
        .map(|k| random_list(&ty, len, seed.wrapping_add(k as u64)))
        .collect();
    let mut fig7_batch = Vec::with_capacity(lists * reps);
    for _ in 0..reps {
        fig7_batch.extend(distinct.iter().cloned());
    }
    println!(
        "Fig. 7 chain: map_caesar | filter_ev | map_caesar over {} items \
         ({lists} distinct lists of length {len} × {reps} reps)",
        fig7_batch.len()
    );
    let fig7 = run_chain("fig7", &fig7_stages, &fig7_batch);

    // Chain 2: §5.1 sanitizer, remScript then esc, over the page corpus.
    let compiled = compile_fig2();
    let html_ty = compiled.tree_type("HtmlE").unwrap().clone();
    let sani_stages: Vec<Arc<Sttr>> = vec![
        Arc::new(compiled.transducer("remScript").unwrap().clone()),
        Arc::new(compiled.transducer("esc").unwrap().clone()),
    ];
    let mut docs = corpus(seed);
    docs.truncate(pages);
    let sani_batch = encoded_batch(&html_ty, &docs, reps);
    println!(
        "sanitizer chain: remScript | esc over {} pages × {reps} reps",
        docs.len()
    );
    let sani = run_chain("sanitizer", &sani_stages, &sani_batch);

    // Chain 3: nondet-but-single-valued `norm` into nonlinear `dup` —
    // the boundary only the semantic single-valuedness decision fuses.
    let (bt_ty, bt_alg) = bt_type();
    let sv_stages: Vec<Arc<Sttr>> = vec![
        Arc::new(norm_bt(&bt_ty, &bt_alg)),
        Arc::new(dup_bt(&bt_ty, &bt_alg)),
    ];
    let sv_distinct = TreeGen::new(seed).trees(&bt_ty, lists);
    let mut sv_batch = Vec::with_capacity(lists * reps);
    for _ in 0..reps {
        sv_batch.extend(sv_distinct.iter().cloned());
    }
    println!(
        "svfuse chain: norm | dup over {} items ({lists} distinct trees × {reps} reps)",
        sv_batch.len()
    );
    let svfuse = run_chain("svfuse", &sv_stages, &sv_batch);
    assert_eq!(
        svfuse.segments_fused, 1,
        "the nondet-but-single-valued boundary must fuse"
    );

    let fig7_speedup = fig7.naive_ms / fig7.fused_ms.max(1e-9);
    fast_bench::telemetry::emit_with(
        "pipeline",
        vec![
            ("fig7_naive_ms", Json::Float(fig7.naive_ms)),
            ("fig7_cascaded_ms", Json::Float(fig7.cascaded_ms)),
            ("fig7_fused_ms", Json::Float(fig7.fused_ms)),
            ("fig7_speedup_fused", Json::Float(fig7_speedup)),
            (
                "fig7_speedup_cascaded",
                Json::Float(fig7.naive_ms / fig7.cascaded_ms.max(1e-9)),
            ),
            ("fig7_segments", Json::Int(fig7.segments_fused as i64)),
            ("fig7_outputs", Json::Int(fig7.outputs as i64)),
            ("sanitizer_naive_ms", Json::Float(sani.naive_ms)),
            ("sanitizer_cascaded_ms", Json::Float(sani.cascaded_ms)),
            ("sanitizer_fused_ms", Json::Float(sani.fused_ms)),
            (
                "sanitizer_speedup_fused",
                Json::Float(sani.naive_ms / sani.fused_ms.max(1e-9)),
            ),
            (
                "sanitizer_speedup_cascaded",
                Json::Float(sani.naive_ms / sani.cascaded_ms.max(1e-9)),
            ),
            ("sanitizer_segments", Json::Int(sani.segments_fused as i64)),
            ("sanitizer_outputs", Json::Int(sani.outputs as i64)),
            ("svfuse_naive_ms", Json::Float(svfuse.naive_ms)),
            ("svfuse_cascaded_ms", Json::Float(svfuse.cascaded_ms)),
            ("svfuse_fused_ms", Json::Float(svfuse.fused_ms)),
            (
                "svfuse_speedup_fused",
                Json::Float(svfuse.naive_ms / svfuse.fused_ms.max(1e-9)),
            ),
            (
                "svfuse_speedup_cascaded",
                Json::Float(svfuse.naive_ms / svfuse.cascaded_ms.max(1e-9)),
            ),
            ("svfuse_segments", Json::Int(svfuse.segments_fused as i64)),
            ("svfuse_outputs", Json::Int(svfuse.outputs as i64)),
        ],
    );
}
