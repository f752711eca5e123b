//! Differential oracle: `Plan::run_batch` must agree with the reference
//! interpreter `Sttr::run` on every item — outputs as multisets, errors
//! included — for randomly generated transducers (nondeterministic,
//! guarded, with regular lookahead) over random batches, which contain
//! cloned (`Arc`-shared) items engineered to hit the shared memo.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_rt::{Plan, RunOptions};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

// ---------- strategies (BT: binary trees with an Int label) ----------

fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn int_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![Just(Term::field(0)), (-10i64..10).prop_map(Term::int)];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner, 2u32..8).prop_map(|(a, m)| a.modulo(m)),
        ]
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let atom = (cmp_op(), int_term(), int_term()).prop_map(|(op, a, b)| Formula::cmp(op, a, b));
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
}

fn bt_tree() -> impl Strategy<Value = Tree> {
    let (ty, _) = bt();
    let leaf_id = ty.ctor_id("L").unwrap();
    let node_id = ty.ctor_id("N").unwrap();
    let leaf = (-8i64..8).prop_map(move |v| Tree::leaf(leaf_id, Label::single(v)));
    leaf.prop_recursive(4, 24, 2, move |inner| {
        ((-8i64..8), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node_id, Label::single(v), vec![a, b]))
    })
}

/// A small random lookahead STA (same shape as the root suite's
/// `bt_sta`): per state one guarded leaf rule and one node rule pointing
/// at random child states.
fn bt_sta() -> impl Strategy<Value = Sta> {
    (1usize..3).prop_flat_map(|n| {
        let guards = proptest::collection::vec(formula(), n);
        let kids = proptest::collection::vec((0..n, 0..n), n);
        (guards, kids).prop_map(move |(guards, kids)| {
            let (ty, alg) = bt();
            let leaf = ty.ctor_id("L").unwrap();
            let node = ty.ctor_id("N").unwrap();
            let mut b = StaBuilder::new(ty, alg);
            let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("l{i}"))).collect();
            for i in 0..n {
                b.leaf_rule(states[i], leaf, guards[i].clone());
                b.simple_rule(
                    states[i],
                    node,
                    Formula::True,
                    vec![Some(states[kids[i].0]), Some(states[kids[i].1])],
                );
            }
            b.build(states[0])
        })
    })
}

/// One generated node rule: guard, label function, the two child calls
/// (which transformation state reads which input child), and a per-child
/// lookahead requirement (`la_n` encodes "unconstrained").
type NodeRuleSpec = (
    Formula,
    Term,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);

/// Per-state generated rule sets, as produced by the strategies below.
type LeafRules = Vec<Vec<(Formula, Term)>>;
type NodeRules = Vec<Vec<NodeRuleSpec>>;

/// A random STTR over BT: 1–2 transformation states, each with 1–2
/// guarded leaf rules and 1–2 node rules (overlapping guards make the
/// transducer nondeterministic), node rules constrained by random
/// lookahead sets into a random STA.
fn bt_sttr() -> impl Strategy<Value = Sttr> {
    (1usize..3, bt_sta()).prop_flat_map(|(n, la)| {
        let la_n = la.state_count();
        let leaf_rules =
            proptest::collection::vec(proptest::collection::vec((formula(), int_term()), 1..3), n);
        let node_rules = proptest::collection::vec(
            proptest::collection::vec(
                (
                    formula(),
                    int_term(),
                    (0..n, 0..n),
                    (0usize..2, 0usize..2),
                    // `la_n` means "no lookahead constraint on this child".
                    (0..=la_n, 0..=la_n),
                ),
                1..3,
            ),
            n,
        );
        (leaf_rules, node_rules).prop_map(
            move |(leaf_rules, node_rules): (LeafRules, NodeRules)| {
                let (ty, alg) = bt();
                let leaf = ty.ctor_id("L").unwrap();
                let node = ty.ctor_id("N").unwrap();
                let mut b = SttrBuilder::new(ty, alg).with_lookahead(la.clone());
                let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("q{i}"))).collect();
                for (i, rules) in leaf_rules.into_iter().enumerate() {
                    for (guard, fun) in rules {
                        b.plain_rule(
                            states[i],
                            leaf,
                            guard,
                            Out::node(leaf, LabelFn::new(vec![fun]), vec![]),
                        );
                    }
                }
                let la_set = |ix: usize| -> BTreeSet<StateId> {
                    if ix == la_n {
                        BTreeSet::new()
                    } else {
                        BTreeSet::from([StateId(ix)])
                    }
                };
                for (i, rules) in node_rules.into_iter().enumerate() {
                    for (guard, fun, (qa, qb), (ca, cb), (lx, ly)) in rules {
                        b.rule(
                            states[i],
                            node,
                            guard,
                            vec![la_set(lx), la_set(ly)],
                            Out::node(
                                node,
                                LabelFn::new(vec![fun]),
                                vec![Out::Call(states[qa], ca), Out::Call(states[qb], cb)],
                            ),
                        );
                    }
                }
                b.build(states[0])
            },
        )
    })
}

/// A batch that deliberately repeats items: `picks` indexes into the
/// distinct trees, so clones (`Arc`-shared, same `TreeId`) appear —
/// the scenario the shared memo exists for.
fn bt_batch() -> impl Strategy<Value = Vec<Tree>> {
    (proptest::collection::vec(bt_tree(), 1..4)).prop_flat_map(|distinct| {
        let n = distinct.len();
        proptest::collection::vec(0..n, 1..7)
            .prop_map(move |picks| picks.into_iter().map(|i| distinct[i].clone()).collect())
    })
}

/// Canonical form for multiset comparison (both sides also dedup, so
/// this is belt and braces — any order difference is erased).
fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Plan::run_batch` item-for-item agrees with the reference
    /// interpreter, errors included.
    #[test]
    fn plan_batch_agrees_with_sttr_run(s in bt_sttr(), batch in bt_batch()) {
        let plan = Plan::compile(&s);
        let got = plan.run_batch(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (t, g) in batch.iter().zip(got) {
            prop_assert_eq!(canon(g), canon(s.run(t)));
        }
    }

    /// Cap parity: for any cap (including 0), the plan's per-item result
    /// equals `run_bounded` — same outputs, same `Budget` errors.
    #[test]
    fn cap_contract_matches_run_bounded(s in bt_sttr(), t in bt_tree(), cap in 0usize..6) {
        let plan = Plan::compile(&s);
        let opts = RunOptions { cap, workers: 1, ..RunOptions::default() };
        let (mut got, _) = plan.run_batch_with(std::slice::from_ref(&t), &opts);
        prop_assert_eq!(canon(got.pop().unwrap()), canon(s.run_bounded(&t, cap)));
    }

    /// Parallel evaluation returns results in input order and agrees with
    /// the sequential plan run.
    #[test]
    fn pooled_run_matches_sequential(s in bt_sttr(), batch in bt_batch()) {
        let plan = Plan::compile(&s);
        let seq = RunOptions { workers: 1, ..RunOptions::default() };
        let par = RunOptions { workers: 4, ..RunOptions::default() };
        let (a, _) = plan.run_batch_with(&batch, &seq);
        let (b, stats) = plan.run_batch_with(&batch, &par);
        prop_assert_eq!(stats.workers, 4);
        for (x, y) in a.into_iter().zip(b) {
            prop_assert_eq!(canon(x), canon(y));
        }
    }
}

// ---------- directed batch-semantics tests ----------

fn left_chain(depth: usize) -> Tree {
    let (ty, _) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut t = Tree::leaf(leaf, Label::single(0));
    for i in 0..depth {
        let r = Tree::leaf(leaf, Label::single(i as i64));
        t = Tree::new(node, Label::single(i as i64), vec![t, r]);
    }
    t
}

/// A complete binary tree of the given depth where every node carries a
/// distinct label — structurally unique subtrees that the global
/// interner cannot collapse — so evaluation really visits 2^(depth+1)−1
/// nodes at a recursion depth the test stack tolerates.
fn full_tree(depth: usize) -> Tree {
    fn go(ty: &TreeType, depth: usize, next: &mut i64) -> Tree {
        let leaf = ty.ctor_id("L").unwrap();
        let node = ty.ctor_id("N").unwrap();
        let label = Label::single(*next);
        *next += 1;
        if depth == 0 {
            return Tree::leaf(leaf, label);
        }
        let l = go(ty, depth - 1, next);
        let r = go(ty, depth - 1, next);
        Tree::new(node, label, vec![l, r])
    }
    let (ty, _) = bt();
    go(&ty, depth, &mut 0)
}

/// The identity transducer on BT, used by the directed tests below.
fn bt_identity() -> Sttr {
    let (ty, alg) = bt();
    fast_core::identity(&ty, &alg)
}

#[test]
fn per_item_timeout_fails_only_the_slow_item() {
    let plan = Plan::compile(&bt_identity());
    let opts = RunOptions {
        workers: 1,
        timeout: Some(std::time::Duration::ZERO),
        ..RunOptions::default()
    };
    // Enough nodes that the cooperative deadline check (every 256 steps)
    // fires; an expired deadline must surface as `Timeout`, not hang.
    let (results, _) = plan.run_batch_with(&[full_tree(10)], &opts);
    assert!(matches!(
        results[0],
        Err(TransducerError::Timeout { limit_ms: 0 })
    ));
    // Without a deadline the same item runs fine.
    let ok = plan.run_batch(&[full_tree(10)]);
    assert_eq!(ok[0].as_ref().unwrap().len(), 1);
}

#[test]
fn memo_hits_across_cloned_batch_items() {
    let plan = Plan::compile(&bt_identity());
    let t = left_chain(64);
    let batch: Vec<Tree> = (0..8).map(|_| t.clone()).collect();
    let (results, stats) = plan.run_batch_with(
        &batch,
        &RunOptions {
            workers: 1,
            ..RunOptions::default()
        },
    );
    assert!(results.iter().all(|r| r.is_ok()));
    // Items 2..8 are clones of item 1: their roots share a TreeId, so
    // everything after the first evaluation is a single memo hit.
    assert!(
        stats.memo_hits >= 7,
        "expected cross-item hits, got {stats:?}"
    );
    assert!(stats.memo_hit_rate() > 0.0);
}

#[test]
fn memo_capacity_is_respected() {
    let plan = Plan::compile(&bt_identity());
    let batch: Vec<Tree> = (1..40).map(left_chain).collect();
    let (results, stats) = plan.run_batch_with(
        &batch,
        &RunOptions {
            workers: 1,
            memo_capacity: 16, // one entry per shard — constant churn
            ..RunOptions::default()
        },
    );
    assert!(results.iter().all(|r| r.is_ok()));
    assert!(stats.memo_evictions > 0, "tiny memo must evict: {stats:?}");
}
