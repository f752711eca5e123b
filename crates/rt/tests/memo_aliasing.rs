//! Regression tests for memo-key identity.
//!
//! `BatchMemo` keys on interned [`TreeId`]s — assigned once per
//! structurally distinct tree by the global hash-cons table and never
//! reused — so a dropped tree's key can never be recycled into an
//! alias of a stale entry. These tests pin the two properties that
//! argument rests on:
//!
//! 1. drop-and-reallocate churn against a long-lived memo stays exact
//!    (ids of dropped trees are never handed to new, structurally
//!    different trees);
//! 2. structural equality is rewarded — an independently rebuilt copy
//!    of an earlier input *hits* the shared memo at its root, which the
//!    address-keyed design could never do.

use fast_core::{Out, Sttr, SttrBuilder};
use fast_rt::{BatchMemo, Plan, RunOptions};
use fast_smt::{Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeId, TreeType};
use std::sync::Arc;

fn ilist() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "IList",
        LabelSig::single("i", Sort::Int),
        vec![("nil", 0), ("cons", 1)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

/// `inc`: adds 1 to every element — output uniquely determines input,
/// so a stale memo entry is immediately visible as a wrong label.
fn inc(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (nil, cons) = (ty.ctor_id("nil").unwrap(), ty.ctor_id("cons").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("inc");
    b.plain_rule(
        q,
        nil,
        Formula::True,
        Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
    );
    b.plain_rule(
        q,
        cons,
        Formula::True,
        Out::node(
            cons,
            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
            vec![Out::Call(q, 0)],
        ),
    );
    b.build(q)
}

fn list(ty: &Arc<TreeType>, items: &[i64]) -> Tree {
    let (nil, cons) = (ty.ctor_id("nil").unwrap(), ty.ctor_id("cons").unwrap());
    let mut t = Tree::leaf(nil, Label::single(0i64));
    for &v in items.iter().rev() {
        t = Tree::new(cons, Label::single(v), vec![t]);
    }
    t
}

/// Drop-and-reallocate against a shared memo: every round's trees are
/// dropped before the next round runs — the access pattern that broke
/// the address-keyed memo (allocator LIFO reuse aliased stale entries).
/// With `TreeId` keys the hazard cannot arise: a distinct tree gets a
/// distinct, never-before-used id, so every answer stays correct, and
/// the ids observed across rounds are pairwise distinct even though the
/// underlying allocations churn.
#[test]
fn shared_memo_is_immune_to_address_reuse_by_construction() {
    let (ty, alg) = ilist();
    let plan = Plan::compile(&inc(&ty, &alg));
    let memo = BatchMemo::new(1 << 16);
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let mut seen_root_ids: Vec<TreeId> = Vec::new();
    for round in 0..200i64 {
        // Same shape every round, different labels: a same-size
        // allocation (maximally reusable) whose correct output differs
        // from every earlier round's.
        let t = list(&ty, &[round, round + 1000]);
        assert!(
            !seen_root_ids.contains(&t.id()),
            "round {round}: a structurally new tree received an id already \
             used by a dropped tree — TreeId reuse would alias memo entries"
        );
        seen_root_ids.push(t.id());
        let (results, _) = plan.run_batch_shared(std::slice::from_ref(&t), &opts, &memo);
        let out = results[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(out.len(), 1, "round {round}");
        assert_eq!(
            out[0],
            list(&ty, &[round + 1, round + 1001]),
            "round {round}: shared memo returned another tree's cached outputs"
        );
        // `t` drops here while the memo stays alive.
    }
}

/// The flip side of id-keying: structurally *equal* trees built through
/// independent code paths share an id, so a rebuilt (even re-parsed)
/// copy of an earlier input hits the cross-batch memo at its root —
/// zero re-evaluation. Address keys could never hit here.
#[test]
fn structurally_equal_rebuilt_tree_hits_shared_memo_at_root() {
    let (ty, alg) = ilist();
    let plan = Plan::compile(&inc(&ty, &alg));
    let memo = BatchMemo::new(1 << 16);
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };

    let first = list(&ty, &[1, 2, 3]);
    let (r1, s1) = plan.run_batch_shared(std::slice::from_ref(&first), &opts, &memo);
    assert!(r1[0].is_ok());
    assert_eq!(s1.memo_hits, 0, "cold memo should not hit");
    drop(first); // the memo must not depend on this allocation

    // Independently built: a parse of the printed form, not a clone.
    let rebuilt = Tree::parse(&ty, "cons[1](cons[2](cons[3](nil[0])))").unwrap();
    let (r2, s2) = plan.run_batch_shared(std::slice::from_ref(&rebuilt), &opts, &memo);
    assert_eq!(*r2[0].as_ref().unwrap(), vec![list(&ty, &[2, 3, 4])]);
    assert_eq!(
        s2.memo_hits, 1,
        "structurally equal rebuilt tree must hit the memo at its root"
    );
    assert_eq!(
        s2.memo_misses, 0,
        "a root hit answers the whole item — no recursion, no misses"
    );
}

/// The old hazard through the `Pipeline` cascade path: intermediate
/// frontiers are dropped stage by stage while the per-segment memos
/// live on — here across all 50 batches, as a server keeps them.
/// Running many batches through a cascaded two-stage pipeline must keep
/// producing exact answers.
#[test]
fn cascaded_pipeline_reallocation_is_correct() {
    use fast_rt::{FusionStrategy, Pipeline};
    let (ty, alg) = ilist();
    let stages = vec![Arc::new(inc(&ty, &alg)), Arc::new(inc(&ty, &alg))];
    let p = Pipeline::compile_with(&stages, FusionStrategy::Never);
    assert_eq!(p.segment_count(), 2);
    let memos = [BatchMemo::new(1 << 10), BatchMemo::new(1 << 10)];
    for round in 0..50i64 {
        let batch = vec![list(&ty, &[round]), list(&ty, &[round, round])];
        let (results, _) = p.run_batch_shared(&batch, &RunOptions::default(), &memos);
        assert_eq!(*results[0].as_ref().unwrap(), vec![list(&ty, &[round + 2])]);
        assert_eq!(
            *results[1].as_ref().unwrap(),
            vec![list(&ty, &[round + 2, round + 2])]
        );
    }
}
