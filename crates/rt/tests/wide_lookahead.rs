//! Lookahead STAs with more than 64 states: the plan keeps a subtree's
//! accepting lookahead states as bit words, 64 states a word, so an STA
//! with 130–140 states needs three words and rules whose required sets
//! straddle a word boundary. Over random batches, `Plan::run_batch`
//! and the same plan reloaded from an encoded
//! `Artifact` must agree with the reference interpreter `Sttr::run`,
//! item by item, errors included.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_rt::{Artifact, ArtifactBuilder, Plan, RunOptions};
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

/// A batch with repeated items, so the memo and lookahead cache hit.
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
    /// every item.
    #[test]
    fn wide_lookahead_plans_agree_with_sttr_run(s in wide_sttr(), batch in wide_batch()) {
        let plan = Plan::compile(&s);
        let loaded = reloaded(&s);
        let opts = RunOptions { workers: 1, ..RunOptions::default() };
        let (got, _) = plan.run_batch_with(&batch, &opts);
        let from_artifact = loaded.run_batch(&batch);
        for (i, t) in batch.iter().enumerate() {
            let want = canon(s.run(t));
            prop_assert_eq!(canon(got[i].clone()), want.clone());
            prop_assert_eq!(canon(from_artifact[i].clone()), want);
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
