//! Span-subscriber contract for the runtime.
//!
//! With tracing off, a batch run must buffer **zero** span events (the
//! span macro is a no-op but for one relaxed load). With tracing on, the
//! recorded spans must reconstruct to the documented nesting
//! `rt.run_batch` > `rt.item` > `plan.dispatch`.
//!
//! Both phases live in one `#[test]` (own integration-test process) so
//! the global subscriber flag and event buffer are not raced by a
//! sibling test.

use fast_rt::{Plan, RunOptions};
use fast_smt::{Label, LabelAlg, LabelSig, Sort};
use fast_trees::{Tree, TreeType};
use std::sync::Arc;

fn identity_plan() -> (Plan, Vec<Tree>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let sttr = fast_core::identity(&ty, &alg);
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut t = Tree::leaf(leaf, Label::single(0));
    for v in 1..24 {
        t = Tree::new(
            node,
            Label::single(v),
            vec![t, Tree::leaf(leaf, Label::single(-v))],
        );
    }
    let batch: Vec<Tree> = (0..16).map(|_| t.clone()).collect();
    (Plan::compile(&sttr), batch)
}

#[test]
fn disabled_subscriber_buffers_nothing_and_enabled_spans_nest() {
    let (plan, batch) = identity_plan();
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };

    // Phase 1 — subscriber off: the batch must not record any event.
    assert!(!fast_obs::tracing_enabled());
    fast_obs::drain_events();
    let (results, _) = plan.run_batch_with(&batch, &opts);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(
        fast_obs::events_len(),
        0,
        "tracing is off, yet the batch buffered span events"
    );

    // Phase 2 — subscriber on: spans nest run_batch > item > dispatch.
    fast_obs::set_tracing(true);
    let (results, _) = plan.run_batch_with(&batch, &opts);
    fast_obs::set_tracing(false);
    assert!(results.iter().all(|r| r.is_ok()));
    let events = fast_obs::drain_events();
    assert!(!events.is_empty());
    let tree = fast_obs::trace::phase_tree(&events);
    assert!(
        fast_obs::trace::tree_has_path(&tree, &["rt.run_batch", "rt.item", "plan.dispatch"]),
        "expected rt.run_batch > rt.item > plan.dispatch in:\n{}",
        fast_obs::trace::render_tree(&tree)
    );
    // Every item produced exactly one rt.item and one plan.dispatch span.
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("rt.run_batch"), 1);
    assert_eq!(count("rt.item"), batch.len());
    assert_eq!(count("plan.dispatch"), batch.len());
}
