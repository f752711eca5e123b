//! Copy bits: a `(state, node)` pair whose one enabled rule rebuilds the
//! node in place, with callees that copy the children, yields the input
//! node itself. The plan answers such a pair without evaluating below
//! it. These tests pin when that may happen (and when not), and tie the
//! result to the reference interpreter `Sttr::run_bounded`, errors
//! included.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError, DEFAULT_RUN_CAP};
use fast_rt::{Plan, RunOptions};
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

fn x0_cmp(op: CmpOp, k: i64) -> Formula {
    Formula::cmp(op, Term::field(0), Term::int(k))
}

/// `N[x0](qa(x0), qb(x1))`: a copy rule's output.
fn copy_node(ty: &TreeType, qa: StateId, qb: StateId) -> Out<LabelAlg> {
    Out::node(
        ty.ctor_id("N").unwrap(),
        LabelFn::identity(1),
        vec![Out::Call(qa, 0), Out::Call(qb, 1)],
    )
}

fn copy_leaf(ty: &TreeType) -> Out<LabelAlg> {
    Out::node(ty.ctor_id("L").unwrap(), LabelFn::identity(1), vec![])
}

/// A complete binary tree of the given depth whose labels are distinct,
/// so it has `2^(depth+1) - 1` distinct nodes.
fn complete(ty: &TreeType, depth: u32, next: &mut i64) -> Tree {
    *next += 1;
    let label = Label::single(*next);
    if depth == 0 {
        return Tree::leaf(ty.ctor_id("L").unwrap(), label);
    }
    let a = complete(ty, depth - 1, next);
    let b = complete(ty, depth - 1, next);
    Tree::new(ty.ctor_id("N").unwrap(), label, vec![a, b])
}

fn one_worker(cap: usize) -> RunOptions {
    RunOptions {
        workers: 1,
        cap,
        ..RunOptions::default()
    }
}

fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

/// The plan agrees with `Sttr::run_bounded` on `t` at `cap`; returns
/// the plan's result and its memo misses.
fn agree(s: &Sttr, t: &Tree, cap: usize) -> (Result<Vec<Tree>, TransducerError>, u64) {
    let (mut got, stats) =
        Plan::compile(s).run_batch_with(std::slice::from_ref(t), &one_worker(cap));
    let got = got.pop().unwrap();
    assert_eq!(
        canon(got.clone()),
        canon(s.run_bounded(t, cap)),
        "cap {cap}"
    );
    (got, stats.memo_misses)
}

/// The identity transducer returns its 131071-node input as one pair:
/// the root's copy bit answers it, and no pair below the root is added.
#[test]
fn identity_over_a_large_tree_is_one_pair() {
    let (ty, alg) = bt();
    let t = complete(&ty, 16, &mut 0);
    let plan = Plan::compile(&fast_core::identity(&ty, &alg));
    let (mut out, stats) =
        plan.run_batch_with(std::slice::from_ref(&t), &one_worker(DEFAULT_RUN_CAP));
    let out = out.pop().unwrap().unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].id(), t.id());
    assert_eq!(stats.memo_misses, 1);
    assert_eq!(stats.memo_hits, 0);
}

/// A copy rule enabled beside an overlapping non-copy rule: both fire,
/// so the pair has two outputs and must not be copied.
#[test]
fn copy_rule_beside_an_enabled_non_copy_rule_is_evaluated() {
    let (ty, alg) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("q");
    b.plain_rule(q, leaf, Formula::True, copy_leaf(&ty));
    b.plain_rule(q, node, Formula::True, copy_node(&ty, q, q));
    b.plain_rule(
        q,
        node,
        x0_cmp(CmpOp::Ge, 5),
        Out::node(
            node,
            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    let s = b.build(q);
    let t = Tree::parse(&ty, "N[1](N[7](L[0], L[1]), L[2])").unwrap();
    let (out, _) = agree(&s, &t, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap().len(), 2);
    // Below the guard's threshold only the copy rule is enabled.
    let small = Tree::parse(&ty, "N[1](N[2](L[0], L[1]), L[2])").unwrap();
    let (out, misses) = agree(&s, &small, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap(), vec![small]);
    assert_eq!(misses, 1);
}

/// Two enabled copy rules (different guards, different callees) give
/// `{t}`. `Sttr::run_bounded` counts both outputs before deduplicating,
/// so at cap 1 it fails, and the plan must fail with it.
#[test]
fn two_enabled_copy_rules_give_the_input() {
    let (ty, alg) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("q");
    let p = b.state("p");
    for s in [q, p] {
        b.plain_rule(s, leaf, Formula::True, copy_leaf(&ty));
    }
    b.plain_rule(q, node, x0_cmp(CmpOp::Ge, 0), copy_node(&ty, q, q));
    b.plain_rule(q, node, x0_cmp(CmpOp::Lt, 5), copy_node(&ty, p, p));
    b.plain_rule(p, node, Formula::True, copy_node(&ty, p, p));
    let s = b.build(q);
    let t = Tree::parse(&ty, "N[1](N[2](L[0], L[1]), L[2])").unwrap();
    let (out, _) = agree(&s, &t, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap(), vec![t.clone()]);
    let (out, _) = agree(&s, &t, 2);
    assert_eq!(out.unwrap(), vec![t.clone()]);
    let (out, _) = agree(&s, &t, 1);
    assert_eq!(
        out,
        Err(TransducerError::Budget {
            context: "run",
            limit: 1
        })
    );
    // Where the second guard fails, one copy rule is enabled: one pair.
    let big = Tree::parse(&ty, "N[9](N[7](L[0], L[1]), L[2])").unwrap();
    let (out, misses) = agree(&s, &big, 1);
    assert_eq!(out.unwrap(), vec![big]);
    assert_eq!(misses, 1);
}

/// Cap 0 allows no output: a copied input fails with the budget error
/// `Sttr::run_bounded` reports, and an input outside the domain is
/// still `Ok(vec![])`.
#[test]
fn cap_zero_on_a_copied_input_is_a_budget_error() {
    let (ty, alg) = bt();
    let s = fast_core::identity(&ty, &alg);
    let t = Tree::parse(&ty, "N[1](N[2](L[0], L[1]), L[2])").unwrap();
    let (out, _) = agree(&s, &t, 0);
    assert_eq!(
        out,
        Err(TransducerError::Budget {
            context: "run",
            limit: 0
        })
    );
    let (out, _) = agree(&s, &t, 1);
    assert_eq!(out.unwrap(), vec![t]);
}

/// A node under an identity label function whose child changes is not
/// copied: the plan rebuilds it with the input node's label (borrowed,
/// not recomputed). Beside it, a relabelling rule on the same node adds
/// a second output. Both must be the oracle's trees, id for id.
#[test]
fn identity_label_on_a_rebuilt_node_matches_the_oracle() {
    let (ty, alg) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let bump = || LabelFn::new(vec![Term::field(0).add(Term::int(1))]);
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("q");
    b.plain_rule(q, leaf, x0_cmp(CmpOp::Ge, 0), copy_leaf(&ty));
    b.plain_rule(
        q,
        leaf,
        x0_cmp(CmpOp::Lt, 0),
        Out::node(leaf, bump(), vec![]),
    );
    b.plain_rule(q, node, Formula::True, copy_node(&ty, q, q));
    b.plain_rule(
        q,
        node,
        x0_cmp(CmpOp::Ge, 5),
        Out::node(node, bump(), vec![Out::Call(q, 0), Out::Call(q, 1)]),
    );
    let s = b.build(q);
    let t = Tree::parse(&ty, "N[7](N[2](L[-1], L[1]), L[3])").unwrap();
    let (out, _) = agree(&s, &t, DEFAULT_RUN_CAP);
    let out = out.unwrap();
    let want = canon(s.run_bounded(&t, DEFAULT_RUN_CAP)).unwrap();
    let ids = |v: &[Tree]| v.iter().map(Tree::id).collect::<Vec<_>>();
    assert_eq!(ids(&canon(Ok(out.clone())).unwrap()), ids(&want));
    let expect = |text| Tree::parse(&ty, text).unwrap();
    let mut both = vec![
        expect("N[7](N[2](L[0], L[1]), L[3])"),
        expect("N[8](N[2](L[0], L[1]), L[3])"),
    ];
    both.sort();
    assert_eq!(ids(&want), ids(&both));
    assert!(
        out.iter().all(|o| o.id() != t.id()),
        "a changed child forbids the copy"
    );
}

/// A lookahead STA with one state accepting exactly the trees whose
/// leaves are all labelled `>= 0`.
fn nonneg_leaves() -> Sta {
    let (ty, alg) = bt();
    let mut b = StaBuilder::new(ty.clone(), alg);
    let s = b.state("nonneg");
    b.leaf_rule(s, ty.ctor_id("L").unwrap(), x0_cmp(CmpOp::Ge, 0));
    b.simple_rule(
        s,
        ty.ctor_id("N").unwrap(),
        Formula::True,
        vec![Some(s), Some(s)],
    );
    b.build(s)
}

/// A copy rule whose lookahead on child 0 fails is not enabled, so the
/// pair is not copied: here no rule applies and the output is empty.
/// Where the lookahead holds, the whole input is one copied pair.
#[test]
fn copy_rule_with_failing_child_lookahead_is_not_copied() {
    let (ty, alg) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg).with_lookahead(nonneg_leaves());
    let q = b.state("q");
    b.plain_rule(q, leaf, Formula::True, copy_leaf(&ty));
    b.rule(
        q,
        node,
        Formula::True,
        vec![BTreeSet::from([StateId(0)]), BTreeSet::new()],
        copy_node(&ty, q, q),
    );
    let s = b.build(q);
    let bad = Tree::parse(&ty, "N[1](N[2](L[0], L[-1]), L[2])").unwrap();
    let (out, _) = agree(&s, &bad, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap(), vec![]);
    // The failing lookahead sits three levels down: that node has no
    // enabled rule, so no ancestor is copied and the output is empty.
    let deep = Tree::parse(&ty, "N[1](L[3], N[2](L[0], N[4](L[-1], L[5])))").unwrap();
    let (out, _) = agree(&s, &deep, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap(), vec![]);
    let good = Tree::parse(&ty, "N[1](N[2](L[0], L[1]), L[-2])").unwrap();
    let (out, misses) = agree(&s, &good, DEFAULT_RUN_CAP);
    assert_eq!(out.unwrap(), vec![good]);
    assert_eq!(misses, 1);
}

// ---------- random STTRs with copy rules ----------

fn formula() -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::True),
        (
            prop_oneof![Just(CmpOp::Ge), Just(CmpOp::Lt), Just(CmpOp::Ne)],
            -3i64..4
        )
            .prop_map(|(op, k)| x0_cmp(op, k)),
    ]
}

/// A lookahead STA with 1–2 states: a guarded leaf rule and a node rule
/// on random child states each.
fn sta() -> impl Strategy<Value = Sta> {
    (1usize..3).prop_flat_map(|n| {
        let guards = proptest::collection::vec(formula(), n);
        let kids = proptest::collection::vec((0..n, 0..n), n);
        (guards, kids).prop_map(move |(guards, kids)| {
            let (ty, alg) = bt();
            let mut b = StaBuilder::new(ty.clone(), alg);
            let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("l{i}"))).collect();
            for i in 0..n {
                b.leaf_rule(states[i], ty.ctor_id("L").unwrap(), guards[i].clone());
                b.simple_rule(
                    states[i],
                    ty.ctor_id("N").unwrap(),
                    Formula::True,
                    vec![Some(states[kids[i].0]), Some(states[kids[i].1])],
                );
            }
            b.build(states[0])
        })
    })
}

/// One generated rule: copy or not, guard, the two callees, and the
/// lookahead index per child (`n` of the STA means "none").
type RuleSpec = (bool, Formula, (usize, usize), (usize, usize));

/// A random STTR over BT with 1–3 states and 1–3 rules per state and
/// constructor, about half of them copy rules. A non-copy rule adds one
/// to the label (leaf) or swaps the children (node), so guards that
/// overlap give several outputs.
fn sttr() -> impl Strategy<Value = Sttr> {
    let rule = |states: usize| {
        (
            any::<bool>(),
            formula(),
            (0..states, 0..states),
            (0usize..3, 0usize..3),
        )
    };
    ((1usize..4), sta()).prop_flat_map(move |(n, la)| {
        let rules = proptest::collection::vec(
            (
                proptest::collection::vec(rule(n), 1..4),
                proptest::collection::vec(rule(n), 1..4),
            ),
            n,
        );
        rules.prop_map(move |rules: Vec<(Vec<RuleSpec>, Vec<RuleSpec>)>| {
            let (ty, alg) = bt();
            let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
            let la_n = la.state_count();
            let set = |ix: usize| {
                if ix < la_n {
                    BTreeSet::from([StateId(ix)])
                } else {
                    BTreeSet::new()
                }
            };
            let mut b = SttrBuilder::new(ty.clone(), alg).with_lookahead(la.clone());
            let qs: Vec<StateId> = (0..n).map(|i| b.state(&format!("q{i}"))).collect();
            for (i, (leaves, nodes)) in rules.into_iter().enumerate() {
                for (copy, guard, _, _) in leaves {
                    let out = if copy {
                        copy_leaf(&ty)
                    } else {
                        Out::node(
                            leaf,
                            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
                            vec![],
                        )
                    };
                    b.plain_rule(qs[i], leaf, guard, out);
                }
                for (copy, guard, (qa, qb), (la0, la1)) in nodes {
                    let out = if copy {
                        copy_node(&ty, qs[qa], qs[qb])
                    } else {
                        Out::node(
                            node,
                            LabelFn::identity(1),
                            vec![Out::Call(qs[qa], 1), Out::Call(qs[qb], 0)],
                        )
                    };
                    b.rule(qs[i], node, guard, vec![set(la0), set(la1)], out);
                }
            }
            b.build(qs[0])
        })
    })
}

fn tree() -> impl Strategy<Value = Tree> {
    let (ty, _) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let l = (-3i64..4).prop_map(move |v| Tree::leaf(leaf, Label::single(v)));
    l.prop_recursive(4, 24, 2, move |inner| {
        ((-3i64..4), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node, Label::single(v), vec![a, b]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The plan agrees with `Sttr::run_bounded` on random transducers
    /// with copy rules, at caps that let small output sets through and
    /// caps that do not.
    #[test]
    fn copy_rules_agree_with_sttr_run(
        s in sttr(),
        batch in proptest::collection::vec(tree(), 1..4),
        cap in prop_oneof![Just(0usize), Just(1), Just(2), Just(DEFAULT_RUN_CAP)],
    ) {
        let (got, _) = Plan::compile(&s).run_batch_with(&batch, &one_worker(cap));
        for (t, r) in batch.iter().zip(got) {
            prop_assert_eq!(canon(r), canon(s.run_bounded(t, cap)));
        }
    }
}
