//! Regression tests for the runtime's error paths: timeout accounting
//! and cooperative cancellation.

use fast_core::{Out, SttrBuilder, TransducerError};
use fast_rt::{Plan, RunOptions};
use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The `inc` transducer over integer trees: one `transduce` call (and
/// so one cooperative tick) per node.
fn inc_plan() -> (Arc<TreeType>, Arc<Plan>) {
    let ity = TreeType::new(
        "ITree",
        LabelSig::single("i", Sort::Int),
        vec![("nil", 0), ("fork", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ity.sig().clone()));
    let (nil, fork) = (ity.ctor_id("nil").unwrap(), ity.ctor_id("fork").unwrap());
    let mut b = SttrBuilder::new(ity.clone(), alg);
    let q = b.state("inc");
    b.plain_rule(
        q,
        nil,
        Formula::True,
        Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
    );
    b.plain_rule(
        q,
        fork,
        Formula::True,
        Out::node(
            fork,
            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    (ity.clone(), Arc::new(Plan::compile(&b.build(q))))
}

fn bushy_src(depth: u32, next: &mut i64) -> String {
    let label = *next;
    *next += 1;
    if depth == 0 {
        format!("nil[{label}]")
    } else {
        format!(
            "fork[{label}]({}, {})",
            bushy_src(depth - 1, next),
            bushy_src(depth - 1, next)
        )
    }
}

/// A complete binary tree of `2^(depth+1) - 1` nodes with labels
/// counting up from `salt`: every node is structurally distinct (the
/// memo cannot collapse anything), evaluation takes one cooperative
/// tick per node, and the *recursion* depth stays tiny — deep enough
/// to cross the 256-tick deadline/cancel checkpoints without risking
/// the evaluator's stack in debug builds.
fn bushy_tree(ty: &TreeType, depth: u32, salt: i64) -> Tree {
    let mut next = salt;
    Tree::parse(ty, &bushy_src(depth, &mut next)).unwrap()
}

/// An item that hits its deadline must still record its latency into
/// the `rt.item` histogram and count into `rt.item_errors` — otherwise
/// the SLO p99 and error-rate signals silently under-count exactly the
/// worst items.
#[test]
fn timed_out_item_is_recorded_in_histogram_and_error_counter() {
    let (ty, plan) = inc_plan();
    // 1023 nodes guarantee several deadline checks (every 256 ticks);
    // a 1 ns budget is over by the first one.
    let item = bushy_tree(&ty, 9, 7_000_000);
    let before = fast_obs::snapshot();
    let opts = RunOptions {
        timeout: Some(Duration::from_nanos(1)),
        workers: 1,
        ..RunOptions::default()
    };
    let (results, _) = plan.run_batch_with(std::slice::from_ref(&item), &opts);
    assert_eq!(
        results[0],
        Err(TransducerError::Timeout { limit_ms: 0 }),
        "the 1023-node item should time out under a 1 ns budget"
    );
    let delta = fast_obs::snapshot().delta_from(&before);
    assert!(delta.get("rt.timeouts") >= 1, "rt.timeouts not bumped");
    assert!(
        delta.get("rt.item_errors") >= 1,
        "rt.item_errors not bumped for a timed-out item"
    );
    let hist = delta
        .hists
        .get("rt.item")
        .expect("rt.item histogram present in the delta");
    assert!(
        hist.count >= 1,
        "timed-out item's latency missing from the rt.item histogram"
    );
}

/// A pre-tripped cancellation token fails items with `Cancelled` —
/// the token a server sets on connection teardown or shutdown.
#[test]
fn cancel_token_aborts_items() {
    let (ty, plan) = inc_plan();
    let item = bushy_tree(&ty, 9, 9_000_000);
    let cancel = Arc::new(AtomicBool::new(true));
    let opts = RunOptions {
        cancel: Some(Arc::clone(&cancel)),
        workers: 1,
        ..RunOptions::default()
    };
    let (results, _) = plan.run_batch_with(std::slice::from_ref(&item), &opts);
    assert_eq!(results[0], Err(TransducerError::Cancelled));
    // Clearing the token makes the same run succeed.
    cancel.store(false, Ordering::Relaxed);
    let (results, _) = plan.run_batch_with(std::slice::from_ref(&item), &opts);
    assert!(results[0].is_ok());
}
