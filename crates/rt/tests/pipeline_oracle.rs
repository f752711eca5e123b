//! Differential oracle for [`Pipeline`]: over random 2–3 stage chains of
//! generated STTRs (nondeterministic, guarded, with regular lookahead),
//! both pipeline strategies — fusion wherever Theorem 4 allows
//! (`FusionStrategy::Auto`) and forced staged cascading
//! (`FusionStrategy::Never`) — must agree with the reference semantics:
//! applying `Sttr::run` stage by stage and unioning output sets.
//!
//! Plus the directed Fig. 7 deforestation chain end-to-end: the
//! `map_caesar → filter_ev → map_caesar` pipeline fuses into one
//! segment and computes the same lists as the staged reference.

use fast_core::{Out, Sttr, SttrBuilder, TransducerError, DEFAULT_RUN_CAP};
use fast_rt::{BatchMemo, FusionStrategy, Pipeline, RunOptions};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

use fast_automata::{Sta, StaBuilder, StateId};

// ---------- strategies (same BT shapes as plan_oracle.rs) ----------

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
    leaf.prop_recursive(3, 12, 2, move |inner| {
        ((-8i64..8), inner.clone(), inner)
            .prop_map(move |(v, a, b)| Tree::new(node_id, Label::single(v), vec![a, b]))
    })
}

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

type NodeRuleSpec = (
    Formula,
    Term,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);
type LeafRules = Vec<Vec<(Formula, Term)>>;
type NodeRules = Vec<Vec<NodeRuleSpec>>;

/// A random STTR over BT — same generator family as `plan_oracle.rs`:
/// possibly-overlapping guards (nondeterminism), node rules that may
/// read the same input child twice (non-linearity), random lookahead.
/// Exactly the mix that makes some boundaries fusable and others not.
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

/// The reference semantics: apply `Sttr::run` one stage at a time,
/// unioning output sets over the intermediate frontier.
fn staged_reference(stages: &[Arc<Sttr>], t: &Tree) -> Result<Vec<Tree>, TransducerError> {
    let mut frontier = vec![t.clone()];
    for s in stages {
        let mut next: BTreeSet<Tree> = BTreeSet::new();
        for u in &frontier {
            next.extend(s.run(u)?);
            if next.len() > DEFAULT_RUN_CAP {
                return Err(TransducerError::Budget {
                    context: "pipeline",
                    limit: DEFAULT_RUN_CAP,
                });
            }
        }
        frontier = next.into_iter().collect();
    }
    Ok(frontier)
}

fn sorted(mut v: Vec<Tree>) -> Vec<Tree> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// fused ≡ cascaded ≡ per-stage `Sttr::run`, as output multisets
    /// (both sides dedup, so sorting erases any difference), whenever
    /// the reference semantics succeeds.
    #[test]
    fn pipeline_agrees_with_staged_runs(
        stages in proptest::collection::vec(bt_sttr().prop_map(Arc::new), 2..4),
        batch in proptest::collection::vec(bt_tree(), 1..4),
    ) {
        let auto = Pipeline::compile(&stages);
        let never = Pipeline::compile_with(
            &stages,
            FusionStrategy::Never,
        );
        // Forced cascading never fuses a boundary.
        prop_assert_eq!(never.segment_count(), stages.len());
        let opts = RunOptions::default();
        let (fused_res, _) = auto.run_batch_with(&batch, &opts);
        let (casc_res, _) = never.run_batch_with(&batch, &opts);
        for ((t, f), c) in batch.iter().zip(fused_res).zip(casc_res) {
            let Ok(want) = staged_reference(&stages, t) else {
                // Reference blew the output cap: strategies may
                // legitimately differ in *where* they hit their budget
                // (fusion never materializes the oversized frontier),
                // so equivalence is only claimed on the success path.
                continue;
            };
            let f = f.unwrap_or_else(|e| panic!("fused failed where reference ran: {e}"));
            let c = c.unwrap_or_else(|e| panic!("cascaded failed where reference ran: {e}"));
            prop_assert_eq!(sorted(f), sorted(want.clone()));
            prop_assert_eq!(sorted(c), sorted(want));
        }
    }

    /// Two successive batches through `run_batch_shared` with one memo
    /// set per pipeline: results computed by the first batch and reused
    /// by the second still match per-stage `Sttr::run`.
    #[test]
    fn shared_memos_agree_with_staged_runs_across_batches(
        stages in proptest::collection::vec(bt_sttr().prop_map(Arc::new), 2..4),
        first in proptest::collection::vec(bt_tree(), 1..4),
        second in proptest::collection::vec(bt_tree(), 1..4),
    ) {
        let opts = RunOptions::default();
        for strategy in [FusionStrategy::Auto, FusionStrategy::Never] {
            let p = Pipeline::compile_with(&stages, strategy);
            let memos = fresh_memos(&p);
            for batch in [&first, &second] {
                let (results, _) = p.run_batch_shared(batch, &opts, &memos);
                for (t, r) in batch.iter().zip(results) {
                    let Ok(want) = staged_reference(&stages, t) else {
                        continue;
                    };
                    let got = r.unwrap_or_else(|e| panic!("{strategy:?} failed where reference ran: {e}"));
                    prop_assert_eq!(sorted(got), sorted(want));
                }
            }
        }
    }
}

fn fresh_memos(p: &Pipeline) -> Vec<BatchMemo> {
    (0..p.segment_count())
        .map(|_| BatchMemo::new(RunOptions::default().memo_capacity))
        .collect()
}

// ---------- directed: the Fig. 7 deforestation chain ----------

fn ilist() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "IList",
        LabelSig::single("i", Sort::Int),
        vec![("nil", 0), ("cons", 1)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

/// Fig. 7's `map_caesar`: shift every element by 5 (mod 26).
fn map_caesar(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (nil, cons) = (ty.ctor_id("nil").unwrap(), ty.ctor_id("cons").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("map_caesar");
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
            LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]),
            vec![Out::Call(q, 0)],
        ),
    );
    b.build(q)
}

/// Fig. 7's `filter_ev`: keep even elements, drop odd ones.
fn filter_ev(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (nil, cons) = (ty.ctor_id("nil").unwrap(), ty.ctor_id("cons").unwrap());
    let even = Formula::cmp(CmpOp::Eq, Term::field(0).modulo(2), Term::int(0));
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("filter_ev");
    b.plain_rule(
        q,
        nil,
        Formula::True,
        Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]),
    );
    b.plain_rule(
        q,
        cons,
        even.clone(),
        Out::node(
            cons,
            LabelFn::new(vec![Term::field(0)]),
            vec![Out::Call(q, 0)],
        ),
    );
    b.plain_rule(q, cons, Formula::not(even), Out::Call(q, 0));
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

/// End-to-end deforestation: the whole chain fuses (every stage is
/// deterministic, hence single-valued), one segment evaluates the batch,
/// and the results match both the staged reference and a hand-computed
/// expectation.
#[test]
fn fig7_deforestation_chain_fuses_end_to_end() {
    let (ty, alg) = ilist();
    let stages: Vec<Arc<Sttr>> = vec![
        Arc::new(map_caesar(&ty, &alg)),
        Arc::new(filter_ev(&ty, &alg)),
        Arc::new(map_caesar(&ty, &alg)),
    ];
    let p = Pipeline::compile(&stages);
    let report = p.report();
    assert_eq!(report.segments, 1, "{report}");
    assert!(report.boundaries.iter().all(|b| b.fused), "{report}");

    let batch: Vec<Tree> = vec![
        list(&ty, &[1, 2, 3, 4, 5, 6]),
        list(&ty, &[0, 25, 13]),
        list(&ty, &[]),
    ];
    // map_caesar([1..6]) = [6,7,8,9,10,11]; filter_ev keeps [6,8,10];
    // map_caesar again gives [11,13,15].
    let results = p.run_batch(&batch);
    let got0 = results[0].as_ref().unwrap();
    assert_eq!(got0.len(), 1);
    assert_eq!(got0[0], list(&ty, &[11, 13, 15]));

    for (t, r) in batch.iter().zip(&results) {
        let want = staged_reference(&stages, t).unwrap();
        assert_eq!(sorted(r.clone().unwrap()), sorted(want));
    }

    // Forcing cascading on the same chain gives the same answers
    // through three staged segments.
    let never = Pipeline::compile_with(&stages, FusionStrategy::Never);
    assert_eq!(never.segment_count(), 3);
    let staged = never.run_batch(&batch);
    for (a, b) in results.iter().zip(&staged) {
        assert_eq!(sorted(a.clone().unwrap()), sorted(b.clone().unwrap()));
    }
}

/// A repeated batch through `run_batch_shared` on a cascaded pipeline
/// is answered from the memos the first call filled: every segment hits
/// and none misses.
#[test]
fn shared_memos_persist_across_cascaded_calls() {
    let (ty, alg) = ilist();
    let stages: Vec<Arc<Sttr>> = vec![
        Arc::new(map_caesar(&ty, &alg)),
        Arc::new(filter_ev(&ty, &alg)),
    ];
    let p = Pipeline::compile_with(&stages, FusionStrategy::Never);
    assert_eq!(p.segment_count(), 2);
    let memos = fresh_memos(&p);
    let batch = [list(&ty, &[1, 2, 3, 4])];
    let opts = RunOptions::default();
    let (first, _) = p.run_batch_shared(&batch, &opts, &memos);
    let (second, stats) = p.run_batch_shared(&batch, &opts, &memos);
    assert_eq!(first, second);
    assert_eq!(
        *second[0].as_ref().unwrap(),
        staged_reference(&stages, &batch[0]).unwrap()
    );
    assert_eq!(stats.len(), 2);
    for (i, s) in stats.iter().enumerate() {
        assert!(s.memo_hits >= 1, "segment {i} did not hit: {s:?}");
        assert_eq!(s.memo_misses, 0, "segment {i} missed: {s:?}");
    }
}

#[test]
#[should_panic(expected = "one memo per segment")]
fn run_batch_shared_needs_one_memo_per_segment() {
    let (ty, alg) = ilist();
    let stage = Arc::new(map_caesar(&ty, &alg));
    let p = Pipeline::compile_with(&[Arc::clone(&stage), stage], FusionStrategy::Never);
    let one = vec![BatchMemo::new(16)];
    p.run_batch_shared(&[list(&ty, &[1])], &RunOptions::default(), &one);
}

/// `norm` over BT: *nondeterministic but single-valued*. The two leaf
/// rules overlap at `i = 0`, but their outputs (`i` and `i * 1`) are
/// provably equal wherever both fire.
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

/// `dup` over BT: *nonlinear* — every inner node copies its left child
/// twice, so the right factor of Theorem 4's linearity condition fails.
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

/// The boundary that Theorem 4's *syntactic* reading must cascade —
/// left nondeterministic, right nonlinear — fuses once the semantic
/// single-valuedness decision proves the left factor single-valued,
/// and the fused segment computes exactly the staged reference.
#[test]
fn nondet_but_single_valued_boundary_fuses() {
    let (ty, alg) = bt();
    let norm = norm_bt(&ty, &alg);
    assert!(
        !norm.is_deterministic().unwrap(),
        "fixture must be syntactically nondeterministic"
    );
    let stages: Vec<Arc<Sttr>> = vec![Arc::new(norm), Arc::new(dup_bt(&ty, &alg))];
    let p = Pipeline::compile(&stages);
    let report = p.report();
    assert_eq!(report.segments, 1, "{report}");
    assert!(report.boundaries.iter().all(|b| b.fused), "{report}");

    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let l = |v: i64| Tree::leaf(leaf, Label::single(v));
    let n = |v: i64, a: Tree, b: Tree| Tree::new(node, Label::single(v), vec![a, b]);
    let batch = vec![l(0), n(3, l(0), l(-2)), n(-1, n(0, l(5), l(0)), l(7))];
    let results = p.run_batch(&batch);
    for (t, r) in batch.iter().zip(&results) {
        let got = sorted(r.clone().unwrap());
        assert_eq!(got.len(), 1, "single-valued chain must stay single-valued");
        assert_eq!(got, sorted(staged_reference(&stages, t).unwrap()));
    }
}

/// Compiling the same chain twice decides every boundary the same way
/// and gives the same pipeline.
#[test]
fn recompiling_the_same_chain_gives_the_same_pipeline() {
    let (ty, alg) = ilist();
    let stages: Vec<Arc<Sttr>> = vec![
        Arc::new(map_caesar(&ty, &alg)),
        Arc::new(filter_ev(&ty, &alg)),
    ];
    let first = Pipeline::compile(&stages);
    assert_eq!(first.segment_count(), 1);
    let second = Pipeline::compile(&stages);
    assert_eq!(second.segment_count(), first.segment_count());
    assert_eq!(second.report().to_string(), first.report().to_string());
    let batch: Vec<Tree> = [&[][..], &[1, 2, 3], &[25, -4, 0, 7], &[2, 2, 2]]
        .iter()
        .map(|items| list(&ty, items))
        .collect();
    assert_eq!(second.run_batch(&batch), first.run_batch(&batch));
}
