//! Per-rule profiles: `RunOptions::profile` is the one profile switch,
//! and the profile it asks for comes back in `BatchStats::profile`.
//!
//! Kept apart from `tracing.rs`, whose span counts would pick up these
//! batches while its subscriber is on.

use fast_rt::{BatchMemo, Plan, RunOptions};
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
fn profiled_run_attributes_rule_work() {
    let (plan, batch) = identity_plan();
    let opts = RunOptions {
        workers: 1,
        profile: true,
        ..RunOptions::default()
    };
    let (results, stats) = plan.run_batch_with(&batch, &opts);
    assert!(results.iter().all(|r| r.is_ok()));
    let profile = stats.profile.as_ref().expect("profiling was requested");

    let fired: u64 = profile.entries.iter().map(|e| e.fired).sum();
    assert!(fired > 0, "identity rules must fire");
    let total_ns: u64 = profile.entries.iter().map(|e| e.ns).sum();
    assert!(total_ns > 0, "fired rules must accumulate time");

    // Cloned batch items share subtrees: the memo hits recorded in the
    // batch stats must be attributed to some state in the profile.
    let memo_hits: u64 = profile.entries.iter().map(|e| e.state_memo_hits).sum();
    assert!(stats.memo_hits > 0);
    assert!(memo_hits > 0, "memo hits must show up per state");

    // hot(k) is sorted by descending time and excludes rules that never
    // ran.
    let hot = profile.hot(usize::MAX);
    assert!(hot.windows(2).all(|w| w[0].ns >= w[1].ns));
    assert!(hot.iter().all(|e| e.fired + e.guard_evals + e.ns > 0));

    // The rendered table and JSON agree on the hottest rule.
    let table = profile.render_hot(5);
    assert!(table.contains(&hot[0].state_name));
    let json = profile.to_json();
    assert!(!json.as_array().unwrap().is_empty());
}

/// `RunOptions::profile` is the one profile switch: both batch entry
/// points return a profile exactly when it is set, and the shared-memo
/// path returns the same rule table as a fresh batch.
#[test]
fn profile_is_returned_exactly_when_requested() {
    let (plan, batch) = identity_plan();
    for profile in [false, true] {
        let opts = RunOptions {
            workers: 1,
            profile,
            ..RunOptions::default()
        };
        let (_, with) = plan.run_batch_with(&batch, &opts);
        let (_, shared) = plan.run_batch_shared(&batch, &opts, &BatchMemo::new(1 << 10));
        assert_eq!(with.profile.is_some(), profile, "run_batch_with");
        assert_eq!(shared.profile.is_some(), profile, "run_batch_shared");
        if let (Some(a), Some(b)) = (&with.profile, &shared.profile) {
            let rules = |p: &fast_rt::RuleProfile| {
                p.entries
                    .iter()
                    .map(|e| (e.state, e.ctor, e.rule_idx))
                    .collect::<Vec<_>>()
            };
            assert_eq!(rules(a), rules(b));
            assert!(b.entries.iter().any(|e| e.fired > 0));
        }
    }
}
