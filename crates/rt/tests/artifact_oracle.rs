//! Differential oracle for the binary artifact layer: a compiled plan
//! that took the save → load round trip through the `.fastc` codec must
//! be *indistinguishable* from the in-memory plan it was built from —
//! per item, outputs as multisets, errors included — and both must
//! agree with the reference interpreter `Sttr::run`. The encoding
//! itself must be a bijection on the reachable states: re-encoding a
//! decoded artifact reproduces the original bytes exactly.
//!
//! The generators are the same adversarial shapes as `plan_oracle.rs`:
//! nondeterministic transducers with overlapping guards and regular
//! lookahead into a random STA, over batches with `Arc`-shared
//! duplicate items that exercise the shared memo.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError};
use fast_rt::{Artifact, ArtifactBuilder, Plan};
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

/// A small random lookahead STA: per state one guarded leaf rule and one
/// node rule pointing at random child states.
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

/// One generated node rule: guard, label function, child calls, and a
/// per-child lookahead requirement (`la_n` encodes "unconstrained").
type NodeRuleSpec = (
    Formula,
    Term,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);

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

/// A batch that deliberately repeats items (`Arc`-shared, same `TreeId`)
/// so the shared memo is exercised on the loaded plan too.
fn bt_batch() -> impl Strategy<Value = Vec<Tree>> {
    (proptest::collection::vec(bt_tree(), 1..4)).prop_flat_map(|distinct| {
        let n = distinct.len();
        proptest::collection::vec(0..n, 1..7)
            .prop_map(move |picks| picks.into_iter().map(|i| distinct[i].clone()).collect())
    })
}

/// Canonical form for multiset comparison.
fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

/// Takes `s` through `ArtifactBuilder` → `encode` → `decode` and returns
/// the loaded plan together with the encoded bytes.
fn round_trip(s: &Sttr) -> (Arc<Plan>, Vec<u8>) {
    let mut b = ArtifactBuilder::new();
    b.add_transducer("t", s);
    let bytes = b.build().encode();
    let loaded = Artifact::decode(&bytes).expect("freshly encoded artifact must decode");
    (loaded.transducer("t").unwrap().clone(), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The loaded plan agrees item-for-item with the in-memory plan and
    /// the reference interpreter, and re-encoding the decoded artifact
    /// reproduces the original bytes.
    #[test]
    fn loaded_plan_agrees_with_memory_and_interpreter(s in bt_sttr(), batch in bt_batch()) {
        let (loaded, bytes) = round_trip(&s);
        let direct = Plan::compile(&s);
        let from_artifact = loaded.run_batch(&batch);
        let in_memory = direct.run_batch(&batch);
        prop_assert_eq!(from_artifact.len(), batch.len());
        for ((t, a), m) in batch.iter().zip(from_artifact).zip(in_memory) {
            let reference = canon(s.run(t));
            prop_assert_eq!(canon(a), reference.clone());
            prop_assert_eq!(canon(m), reference);
        }
        // Decode → encode is the identity on the byte level.
        let again = Artifact::decode(&bytes).unwrap().encode();
        prop_assert_eq!(again, bytes);
    }
}

proptest! {
    // Pipeline round trips invoke the fusion machinery (composition +
    // solver) at build time, so fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pipeline stored pre-fused in an artifact produces the same
    /// per-item results as one compiled from the same stages in memory.
    #[test]
    fn loaded_pipeline_agrees_with_compiled(
        a in bt_sttr(),
        b in bt_sttr(),
        batch in bt_batch(),
    ) {
        let stages = vec![Arc::new(a), Arc::new(b)];
        let mut builder = ArtifactBuilder::new();
        builder.add_pipeline(
            "chain",
            &["a".to_string(), "b".to_string()],
            &stages,
        );
        let bytes = builder.build().encode();
        let loaded = Artifact::decode(&bytes).unwrap();
        let p_loaded = loaded.pipeline("chain").unwrap();
        let p_memory = fast_rt::Pipeline::compile(&stages);
        // Reports render identically (fusion decisions and reasons; the
        // struct itself has no PartialEq and cache-hit counts may vary).
        prop_assert_eq!(p_loaded.report().to_string(), p_memory.report().to_string());
        let got = p_loaded.run_batch(&batch);
        let want = p_memory.run_batch(&batch);
        for (x, y) in got.into_iter().zip(want) {
            prop_assert_eq!(canon(x), canon(y));
        }
        // Byte-level determinism holds for pipelines too.
        prop_assert_eq!(Artifact::decode(&bytes).unwrap().encode(), bytes);
    }
}
