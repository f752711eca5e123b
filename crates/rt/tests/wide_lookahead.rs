//! Lookahead STAs with more than 64 states, and constructors read by
//! more than 64 distinct guards: the plan keeps a subtree's accepting
//! lookahead states, and a node's guard outcomes, as bit words, 64 a
//! word. An STA with 130–140 states needs three words and rules whose
//! required sets straddle a word boundary; a constructor with 70–130
//! guards needs two or three guard words. Over random batches,
//! `Plan::run_batch` and the same plan reloaded from an encoded
//! `Artifact` must agree with the reference interpreter `Sttr::run`,
//! item by item, errors included, also when a second batch reuses the
//! first batch's memo under roots whose lookahead is computed afresh.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_rt::{Artifact, ArtifactBuilder, BatchMemo, Plan, RunOptions};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn x0_cmp(op: CmpOp, k: usize) -> Formula {
    Formula::cmp(op, Term::field(0), Term::int(k as i64))
}

/// A lookahead STA with `n` states. State `k` accepts a leaf labelled
/// `v` when `v >= k` (or `v == k` when `exact[k]`), so one leaf is in
/// many states at once, on both sides of every word boundary; and a node
/// whose children are in states `kids[k]`.
fn wide_sta(n: usize, exact: &[bool], kids: &[(usize, usize)]) -> Sta {
    let (ty, alg) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut b = StaBuilder::new(ty, alg);
    let states: Vec<StateId> = (0..n).map(|k| b.state(&format!("s{k}"))).collect();
    for k in 0..n {
        let op = if exact[k] { CmpOp::Eq } else { CmpOp::Ge };
        b.leaf_rule(states[k], leaf, x0_cmp(op, k));
        let (a, c) = kids[k];
        b.simple_rule(
            states[k],
            node,
            Formula::True,
            vec![Some(states[a]), Some(states[c])],
        );
    }
    b.build(states[0])
}

/// A required lookahead set: empty, or one state from each of two
/// different words (`lo < 64 <= hi`), or a single state.
fn la_set() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..4, 0usize..64, 64usize..130)
}

fn to_set((kind, lo, hi): (u8, usize, usize)) -> BTreeSet<StateId> {
    match kind {
        0 => BTreeSet::new(),
        1 => BTreeSet::from([StateId(hi)]),
        _ => BTreeSet::from([StateId(lo), StateId(hi)]),
    }
}

/// One node rule: guard threshold, the two child calls, and a required
/// lookahead set per child.
type NodeRule = (
    usize,
    (usize, usize),
    ((u8, usize, usize), (u8, usize, usize)),
);

/// A two-state transducer over BT restricted by a 130–140-state
/// lookahead STA. Node rules are guarded by `x0 >= c` and overlap, so
/// the transducer is nondeterministic.
fn wide_sttr() -> impl Strategy<Value = Sttr> {
    (130usize..141).prop_flat_map(|n| {
        let exact = proptest::collection::vec(any::<bool>(), n);
        let kids = proptest::collection::vec((0..n, 0..n), n);
        let rules = proptest::collection::vec(
            proptest::collection::vec(
                (0usize..4, (0usize..2, 0usize..2), (la_set(), la_set())),
                1..3,
            ),
            2,
        );
        (exact, kids, rules).prop_map(move |(exact, kids, rules): (_, _, Vec<Vec<NodeRule>>)| {
            let la = wide_sta(n, &exact, &kids);
            let (ty, alg) = bt();
            let leaf = ty.ctor_id("L").unwrap();
            let node = ty.ctor_id("N").unwrap();
            let mut b = SttrBuilder::new(ty, alg).with_lookahead(la);
            let states = [b.state("q0"), b.state("q1")];
            for (i, &q) in states.iter().enumerate() {
                b.plain_rule(
                    q,
                    leaf,
                    Formula::True,
                    Out::node(
                        leaf,
                        LabelFn::new(vec![Term::field(0).add(Term::int(i as i64))]),
                        vec![],
                    ),
                );
            }
            for (i, rules) in rules.into_iter().enumerate() {
                for (c, (qa, qb), (la0, la1)) in rules {
                    b.rule(
                        states[i],
                        node,
                        x0_cmp(CmpOp::Ge, c),
                        vec![to_set(la0), to_set(la1)],
                        Out::node(
                            node,
                            LabelFn::identity(1),
                            vec![Out::Call(states[qa], 0), Out::Call(states[qb], 1)],
                        ),
                    );
                }
            }
            b.build(states[0])
        })
    })
}

/// Trees whose leaf labels span every word of the state sets.
fn wide_tree() -> impl Strategy<Value = Tree> {
    let (ty, _) = bt();
    let leaf_id = ty.ctor_id("L").unwrap();
    let node_id = ty.ctor_id("N").unwrap();
    let leaf = (0i64..145).prop_map(move |v| Tree::leaf(leaf_id, Label::single(v)));
    leaf.prop_recursive(3, 12, 2, move |inner| {
        ((0i64..4), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node_id, Label::single(v), vec![a, b]))
    })
}

/// A batch with repeated items, so the memo hits.
fn wide_batch() -> impl Strategy<Value = Vec<Tree>> {
    proptest::collection::vec(wide_tree(), 1..4).prop_flat_map(|distinct| {
        let n = distinct.len();
        proptest::collection::vec(0..n, 1..6)
            .prop_map(move |picks| picks.into_iter().map(|i| distinct[i].clone()).collect())
    })
}

fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

fn reloaded(s: &Sttr) -> Arc<Plan> {
    let mut builder = ArtifactBuilder::new();
    builder.add_transducer("t", s);
    let artifact = Artifact::decode(&builder.build().encode()).expect("artifact decodes");
    Arc::clone(artifact.transducer("t").expect("t in artifact"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Plan and the artifact-reloaded plan agree with `Sttr::run` on
    /// every item. A second batch on the same memo puts pairs of
    /// first-batch items under fresh `N[3]` roots, whose rules (every
    /// guard `x0 >= c` holds at 3) check lookahead on them: the subtrees
    /// hit the memo while the lookahead above them is labelled fresh.
    #[test]
    fn wide_lookahead_plans_agree_with_sttr_run(s in wide_sttr(), batch in wide_batch()) {
        let plan = Plan::compile(&s);
        let loaded = reloaded(&s);
        let opts = RunOptions { workers: 1, ..RunOptions::default() };
        let memo = BatchMemo::new(opts.memo_capacity);
        let (got, _) = plan.run_batch_shared(&batch, &opts, &memo);
        let from_artifact = loaded.run_batch(&batch);
        for (i, t) in batch.iter().enumerate() {
            let want = canon(s.run(t));
            prop_assert_eq!(canon(got[i].clone()), want.clone());
            prop_assert_eq!(canon(from_artifact[i].clone()), want);
        }

        let (ty, _) = bt();
        let node = ty.ctor_id("N").unwrap();
        let mut second: Vec<Tree> = batch
            .iter()
            .zip(batch.iter().cycle().skip(1))
            .map(|(a, b)| Tree::new(node, Label::single(3i64), vec![a.clone(), b.clone()]))
            .collect();
        second.push(batch[0].clone());
        let (again, stats) = plan.run_batch_shared(&second, &opts, &memo);
        for (i, t) in second.iter().enumerate() {
            prop_assert_eq!(canon(again[i].clone()), canon(s.run(t)));
        }
        if got[0].is_ok() {
            // The repeated first item is answered at its root.
            prop_assert!(stats.memo_hits >= 1);
        }
    }
}

/// A rule requiring child 0 to be in states {3, 100} (word 0 and word 1)
/// fires exactly when the left leaf's label is at least 100.
#[test]
fn requirement_across_a_word_boundary() {
    let n = 130;
    let la = wide_sta(n, &vec![false; n], &vec![(0, 0); n]);
    let (ty, alg) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg).with_lookahead(la);
    let q = b.state("q");
    b.plain_rule(
        q,
        leaf,
        Formula::True,
        Out::node(leaf, LabelFn::identity(1), vec![]),
    );
    b.rule(
        q,
        node,
        Formula::True,
        vec![BTreeSet::from([StateId(3), StateId(100)]), BTreeSet::new()],
        Out::node(
            node,
            LabelFn::identity(1),
            vec![Out::Call(q, 1), Out::Call(q, 0)],
        ),
    );
    let s = b.build(q);
    let plan = Plan::compile(&s);
    let loaded = reloaded(&s);
    for (left, fires) in [
        (99, false),
        (100, true),
        (129, true),
        (140, true),
        (3, false),
    ] {
        let t = Tree::parse(&ty, &format!("N[0](L[{left}], L[7])")).unwrap();
        let want = if fires {
            vec![Tree::parse(&ty, &format!("N[0](L[7], L[{left}])")).unwrap()]
        } else {
            Vec::new()
        };
        assert_eq!(s.run(&t).unwrap(), want, "oracle, left leaf {left}");
        assert_eq!(plan.run(&t).unwrap(), want, "plan, left leaf {left}");
        assert_eq!(loaded.run(&t).unwrap(), want, "artifact, left leaf {left}");
    }
}

/// A DAG input: `t₀ = L[0]`, `tₖ₊₁ = N[k](tₖ, tₖ)`, so `t₆₄` has 65
/// distinct interned nodes and 2⁶⁵ − 1 tree positions. Both node rules
/// require lookahead on both children; the run finishes only if the
/// item's lookahead table is keyed by node identity, not position.
#[test]
fn lookahead_on_a_dag_is_linear_in_distinct_nodes() {
    let n = 130;
    // Every state accepts a node whose children are in state 0; leaf
    // `L[0]` is in state 0 only, so every `N` node is in every state.
    let la = wide_sta(n, &vec![false; n], &vec![(0, 0); n]);
    let (ty, alg) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg).with_lookahead(la);
    let q = b.state("q");
    b.plain_rule(
        q,
        leaf,
        Formula::True,
        Out::node(leaf, LabelFn::identity(1), vec![]),
    );
    let swap = Out::node(
        node,
        LabelFn::identity(1),
        vec![Out::Call(q, 1), Out::Call(q, 0)],
    );
    // Above the bottom node: both children in {0, 100}, across a word
    // boundary (a leaf is not in state 100).
    let above = BTreeSet::from([StateId(0), StateId(100)]);
    b.rule(
        q,
        node,
        Formula::True,
        vec![above.clone(), above],
        swap.clone(),
    );
    // The bottom node `N[0](L[0], L[0])`: both children in {0}.
    let bottom = BTreeSet::from([StateId(0)]);
    b.rule(
        q,
        node,
        x0_cmp(CmpOp::Eq, 0),
        vec![bottom.clone(), bottom],
        swap,
    );
    let s = b.build(q);
    let mut t = Tree::leaf(leaf, Label::single(0i64));
    for k in 0..64i64 {
        t = Tree::new(node, Label::single(k), vec![t.clone(), t]);
    }
    let want = s.run(&t).unwrap();
    // Swapping identical children is the identity.
    assert_eq!(want, vec![t.clone()]);
    assert_eq!(Plan::compile(&s).run(&t).unwrap(), want);
    assert_eq!(reloaded(&s).run(&t).unwrap(), want);
}

/// A one-state transducer with `n` (70–130) node rules, so `n` distinct
/// guards read `N`: rule `k` holds at label `k` (`x0 == k`), or at `k`
/// and `k + 1` (`k <= x0 < k + 2`), and writes `k` as the label, so the
/// output names the rules that fired at each node.
fn wide_guard_sttr() -> impl Strategy<Value = Sttr> {
    proptest::collection::vec(any::<bool>(), 70..131).prop_map(|exact| {
        let (ty, alg) = bt();
        let leaf = ty.ctor_id("L").unwrap();
        let node = ty.ctor_id("N").unwrap();
        let mut b = SttrBuilder::new(ty, alg);
        let q = b.state("q");
        b.plain_rule(
            q,
            leaf,
            Formula::True,
            Out::node(leaf, LabelFn::identity(1), vec![]),
        );
        for (k, exact) in exact.into_iter().enumerate() {
            let guard = if exact {
                x0_cmp(CmpOp::Eq, k)
            } else {
                x0_cmp(CmpOp::Ge, k).and(x0_cmp(CmpOp::Lt, k + 2))
            };
            b.plain_rule(
                q,
                node,
                guard,
                Out::node(
                    node,
                    LabelFn::new(vec![Term::int(k as i64)]),
                    vec![Out::Call(q, 1), Out::Call(q, 0)],
                ),
            );
        }
        b.build(q)
    })
}

/// Trees whose node labels span every guard word.
fn wide_guard_tree() -> impl Strategy<Value = Tree> {
    let (ty, _) = bt();
    let leaf_id = ty.ctor_id("L").unwrap();
    let node_id = ty.ctor_id("N").unwrap();
    let leaf = (0i64..4).prop_map(move |v| Tree::leaf(leaf_id, Label::single(v)));
    leaf.prop_recursive(3, 12, 2, move |inner| {
        ((0i64..135), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node_id, Label::single(v), vec![a, b]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each node's guard bits span two or three words: the plan and the
    /// reloaded plan read rule `k`'s outcome from word `k / 64` and
    /// agree with `Sttr::run`.
    #[test]
    fn wide_guard_plans_agree_with_sttr_run(
        s in wide_guard_sttr(),
        batch in proptest::collection::vec(wide_guard_tree(), 1..4),
    ) {
        let got = Plan::compile(&s).run_batch(&batch);
        let from_artifact = reloaded(&s).run_batch(&batch);
        for (i, t) in batch.iter().enumerate() {
            let want = canon(s.run(t));
            prop_assert_eq!(canon(got[i].clone()), want.clone());
            prop_assert_eq!(canon(from_artifact[i].clone()), want);
        }
    }
}
