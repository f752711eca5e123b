//! Counter-based evidence that formula interning cuts solver work on a
//! real workload, and that the orchestration counters move when the
//! paper's algorithms run.

use fast_bench::lists::{filter_ev, fused_maps, ilist_alg, ilist_type, map_caesar, random_list};
use fast_core::compose;

/// On the Fig. 7 deforestation workload, structurally equal guards recur
/// across composition layers. Because predicates are hash-consed, those
/// repeats resolve to the same `Interned<Formula>` id and hit the solver
/// cache instead of re-running the decision procedure: the number of
/// actual solver runs stays strictly below the number of sat queries.
#[test]
fn interning_reduces_sat_query_work_on_deforestation() {
    let before = fast_obs::snapshot();
    let ty = ilist_type();
    let alg = ilist_alg(&ty);

    let m = map_caesar(&ty, &alg);
    let f = filter_ev(&ty, &alg);
    let mut fused = compose(&m, &f).expect("fits budget").sttr;
    for _ in 0..4 {
        fused = compose(&fused, &m).expect("fits budget").sttr;
    }
    let fused_direct = fused_maps(&ty, &alg, 8).expect("fits budget");
    let input = random_list(&ty, 64, 7);
    assert!(!fused.run(&input).expect("fits budget").is_empty());
    assert_eq!(fused_direct.run(&input).expect("fits budget").len(), 1);

    let (queries, hits, _) = alg.stats().snapshot();
    assert!(queries > 0, "workload must exercise the solver");
    assert!(
        hits > 0,
        "hash-consed guards must repeat and hit the cache ({queries} queries)"
    );
    assert!(
        queries - hits < queries,
        "solver ran {} times for {queries} queries: interning saved {hits}",
        queries - hits
    );
    // Per-shard hit counters are consistent with the aggregate.
    assert_eq!(alg.stats().shard_hits().iter().sum::<u64>(), hits);

    // The global telemetry mirrors the algebra-local stats and the
    // orchestration counters moved.
    let d = fast_obs::snapshot().delta_from(&before);
    assert!(d.get("smt.sat_queries") >= queries);
    assert!(d.sum_prefix("smt.cache_hits.") >= hits);
    assert!(
        d.get("compose.pair_states") > 0,
        "compose discovered pair states"
    );
    assert!(d.get("compose.reduce_iterations") > 0, "Reduce ran");
    assert!(
        d.get("smt.intern_hits") > 0,
        "repeated formulas were interned once"
    );
}

/// The `fast-analysis` pass reports its own work through the same global
/// telemetry: rule counts, solver calls, emitted diagnostics, and
/// per-check latency histograms all move when a defective program is analyzed.
#[test]
fn analysis_counters_move_when_the_checker_runs() {
    let before = fast_obs::snapshot();
    let src = r#"
        type T[i: Int] { z(0), s(1) }
        lang all: T { z() | s(x) given (all x) }
        trans f: T -> T {
          z() where (i < 0 and i > 0) to (z [i])
        | s(x) where (i > 0) to (s [i] (f x))
        | s(x) where (i > 5) to (s [i + 1] (f x))
        }
        def g: all -> all := f
    "#;
    let program = fast_lang::parse(src).expect("valid syntax");
    let mut sink = fast_lang::DiagSink::new();
    let compiled = fast_lang::compile_ast(&program, &mut sink).expect("compiles");
    let diags = fast_analysis::analyze(&program, &compiled);
    assert!(!diags.is_empty(), "the program has deliberate defects");

    let d = fast_obs::snapshot().delta_from(&before);
    assert!(d.get("analysis.rules_checked") > 0, "rules were visited");
    assert!(
        d.get("analysis.solver_calls") > 0,
        "the solver was consulted"
    );
    assert!(
        d.get("analysis.diags_emitted") as usize >= diags.len(),
        "every emitted diagnostic is counted"
    );
    for check in [
        "analysis.check.fa001",
        "analysis.check.fa002",
        "analysis.check.fa003",
        "analysis.check.fa100",
    ] {
        assert!(
            d.hists.contains_key(check),
            "per-check histogram {check} missing from the snapshot"
        );
    }
}
