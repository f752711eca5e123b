//! Property-based tests over the public API: solver soundness against
//! brute force, Boolean language operations against pointwise membership,
//! normalization/determinization/minimization as language-preserving
//! transformations, and composition against sequential application.
//!
//! Shrunken counterexamples are not kept here: each historical failure
//! is pinned as a deterministic test in the crate that owns the buggy
//! operation (e.g. `crates/core/tests/preimage_regressions.rs`, with the
//! original proptest seed line in the `properties.proptest-regressions`
//! file beside it).

use fast::prelude::*;
use fast::smt::solver::{solve, SatResult};
use proptest::prelude::*;
use std::sync::Arc;

// ---------- strategies ----------

fn int_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![Just(Term::field(0)), (-10i64..10).prop_map(Term::int)];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner, 2u32..12).prop_map(|(a, m)| a.modulo(m)),
        ]
    })
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let atom = (cmp_op(), int_term(), int_term()).prop_map(|(op, a, b)| Formula::cmp(op, a, b));
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
}

fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
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

/// A small random STA over BT: each state has a random leaf guard and a
/// node rule pointing at random child states.
/// Guards in the linear fragment: the label compared with constants.
fn linear_formula() -> BoxedStrategy<Formula> {
    let atom =
        (cmp_op(), -10i64..10).prop_map(|(op, c)| Formula::cmp(op, Term::field(0), Term::int(c)));
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
    .boxed()
}

fn bt_sta() -> impl Strategy<Value = Sta> {
    bt_sta_guarded(|| formula().boxed())
}

fn bt_sta_guarded(guard: fn() -> BoxedStrategy<Formula>) -> impl Strategy<Value = Sta> {
    (1usize..4).prop_flat_map(move |n| {
        let guards = proptest::collection::vec(guard(), n);
        let kids = proptest::collection::vec((0..n, 0..n), n);
        (guards, kids, 0..n).prop_map(move |(guards, kids, init)| {
            let (ty, alg) = bt();
            let leaf = ty.ctor_id("L").unwrap();
            let node = ty.ctor_id("N").unwrap();
            let mut b = StaBuilder::new(ty, alg);
            let states: Vec<StateId> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
            for i in 0..n {
                b.leaf_rule(states[i], leaf, guards[i].clone());
                b.simple_rule(
                    states[i],
                    node,
                    Formula::True,
                    vec![Some(states[kids[i].0]), Some(states[kids[i].1])],
                );
            }
            b.build(states[init])
        })
    })
}

// ---------- emptiness ----------

proptest! {
    // Small automata decide fast, so this block runs more cases than
    // the others.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The on-the-fly search agrees with the materialised route it
    /// replaced — normalise from the root set, clean, and the root is
    /// inhabited iff it keeps a rule — on random root sets (empty,
    /// singleton and multi-state), in both its forms; every member it
    /// builds is accepted at every root state.
    #[test]
    fn emptiness_matches_normalized_oracle(
        a in bt_sta(),
        picks in proptest::collection::vec(0usize..3, 0..4),
    ) {
        let roots: std::collections::BTreeSet<StateId> =
            picks.iter().map(|&i| StateId(i % a.state_count())).collect();
        let (norm, ids) = fast::automata::normalize_rooted(&a, vec![roots.clone()]).unwrap();
        let oracle_empty = fast::automata::clean(&norm).rules(ids[0]).is_empty();
        let verdict = fast::automata::emptiness(&a, &roots).unwrap();
        prop_assert_eq!(verdict.holds(), oracle_empty);
        prop_assert_eq!(fast::automata::is_empty_at(&a, &roots).unwrap(), oracle_empty);
        match verdict.counterexample() {
            Some(w) => {
                for &q in &roots {
                    prop_assert!(a.accepts_at(q, w));
                }
            }
            None => prop_assert!(oracle_empty, "an inhabited root set must yield a member"),
        }
    }
}

// ---------- solver ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solver soundness: `Sat` witnesses satisfy the formula; `Unsat`
    /// formulas have no witness in a brute-force window.
    #[test]
    fn solver_sound_against_brute_force(f in formula()) {
        let sig = LabelSig::single("i", Sort::Int);
        match solve(&sig, &f) {
            SatResult::Sat(model) => prop_assert!(f.eval(&model), "bad witness for {f}"),
            SatResult::Unsat => {
                for x in -60i64..60 {
                    prop_assert!(!f.eval(&Label::single(x)),
                                 "Unsat but {x} satisfies {f}");
                }
            }
            SatResult::Unknown => {}
        }
    }

    /// Simplification preserves semantics.
    #[test]
    fn simplify_preserves_semantics(f in formula(), x in -40i64..40) {
        let l = Label::single(x);
        prop_assert_eq!(f.eval(&l), f.simplify().eval(&l));
    }

    /// Substitution matches composition: φ(e(x)) evaluated directly equals
    /// φ at e(x).
    #[test]
    fn subst_matches_composition(f in formula(), e in int_term(), x in -20i64..20) {
        let l = Label::single(x);
        if let Ok(v) = e.eval(&l) {
            let inner = Label::new(vec![v]);
            prop_assert_eq!(f.subst(std::slice::from_ref(&e)).eval(&l), f.eval(&inner));
        }
    }
}

// ---------- automata ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Union / intersection / difference are pointwise Boolean operations
    /// on membership.
    #[test]
    fn boolean_ops_pointwise(a in bt_sta(), b in bt_sta(), t in bt_tree()) {
        let (ma, mb) = (a.accepts(&t), b.accepts(&t));
        prop_assert_eq!(union(&a, &b).accepts(&t), ma || mb);
        prop_assert_eq!(intersect(&a, &b).accepts(&t), ma && mb);
        if let Ok(d) = difference(&a, &b) {
            prop_assert_eq!(d.accepts(&t), ma && !mb);
        }
    }

    /// Complement flips membership.
    #[test]
    fn complement_pointwise(a in bt_sta(), t in bt_tree()) {
        if let Ok(c) = complement(&a) {
            prop_assert_eq!(c.accepts(&t), !a.accepts(&t));
        }
    }

    /// Normalization and minimization preserve the designated language.
    #[test]
    fn normalize_minimize_preserve(a in bt_sta(), t in bt_tree()) {
        if let Ok(n) = fast::automata::normalize(&a) {
            prop_assert_eq!(n.accepts(&t), a.accepts(&t));
        }
        if let Ok(m) = minimize(&a) {
            prop_assert_eq!(m.accepts(&t), a.accepts(&t));
        }
    }

    /// Emptiness and witness agree; witnesses are members. Emptiness also
    /// agrees with a second decider, the antichain search: `L(a) = ∅` iff
    /// `L(a) ⊆ ∅`.
    #[test]
    fn emptiness_vs_witness(a in bt_sta()) {
        let verdict = fast::automata::emptiness(&a, &[a.initial()].into()).unwrap();
        let e = is_empty(&a).unwrap();
        prop_assert_eq!(verdict.holds(), e);
        let (ty, alg) = bt();
        let mut b = StaBuilder::new(ty, alg);
        let none = b.state("none");
        let empty = b.build(none);
        prop_assert_eq!(e, fast::automata::inclusion(&a, &empty).unwrap().holds());
        let w = witness(&a).unwrap();
        prop_assert_eq!(w.as_ref(), verdict.counterexample());
        match w {
            Some(w) => {
                prop_assert!(!e);
                prop_assert!(a.accepts(&w));
            }
            None => prop_assert!(e, "non-empty language must yield a witness"),
        }
    }

    /// Inclusion is consistent with sampled membership.
    #[test]
    fn inclusion_sound(a in bt_sta(), b in bt_sta(), t in bt_tree()) {
        if includes(&a, &b).unwrap() && a.accepts(&t) {
            prop_assert!(b.accepts(&t));
        }
    }

    /// The antichain search agrees with the complement-based oracle on
    /// inclusion and universality, and its counterexamples are genuine.
    #[test]
    fn inclusion_matches_oracle(a in bt_sta(), b in bt_sta()) {
        let verdict = fast::automata::inclusion(&a, &b).unwrap();
        prop_assert_eq!(verdict.holds(), is_empty(&difference(&a, &b).unwrap()).unwrap());
        if let Some(w) = verdict.counterexample() {
            prop_assert!(a.accepts(w) && !b.accepts(w));
        }
        prop_assert_eq!(
            is_universal(&a).unwrap(),
            is_empty(&complement(&a).unwrap()).unwrap()
        );
    }
}

// ---------- transducers ----------

/// A deterministic, linear transducer over BT: relabel with one of two
/// label functions chosen by a guard, recursing on both children.
fn bt_relabel(g: Formula, f_then: Term, f_else: Term) -> Sttr {
    let (ty, alg) = bt();
    let leaf = ty.ctor_id("L").unwrap();
    let node = ty.ctor_id("N").unwrap();
    let mut b = SttrBuilder::new(ty, alg);
    let q = b.state("relabel");
    for (guard, fun) in [(g.clone(), f_then), (g.not(), f_else)] {
        b.plain_rule(
            q,
            leaf,
            guard.clone(),
            Out::node(leaf, LabelFn::new(vec![fun.clone()]), vec![]),
        );
        b.plain_rule(
            q,
            node,
            guard,
            Out::node(
                node,
                LabelFn::new(vec![fun]),
                vec![Out::Call(q, 0), Out::Call(q, 1)],
            ),
        );
    }
    b.build(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Composition equals sequential application for deterministic
    /// (single-valued) left factors — Theorem 4's exactness direction.
    #[test]
    fn compose_equals_sequential(
        g1 in formula(), g2 in formula(),
        e1 in int_term(), e2 in int_term(),
        e3 in int_term(), e4 in int_term(),
        t in bt_tree(),
    ) {
        let s = bt_relabel(g1, e1, e2);
        let u = bt_relabel(g2, e3, e4);
        prop_assume!(s.is_deterministic().unwrap());
        let c = compose(&s, &u).unwrap().sttr;
        let sequential: Vec<Tree> = s
            .run(&t)
            .unwrap()
            .into_iter()
            .flat_map(|m| u.run(&m).unwrap())
            .collect();
        prop_assert_eq!(c.run(&t).unwrap(), sequential);
    }

    /// Pre-image membership is existential over outputs.
    #[test]
    fn preimage_pointwise(
        g in formula(), e1 in int_term(), e2 in int_term(),
        l in bt_sta(), t in bt_tree(),
    ) {
        let s = bt_relabel(g, e1, e2);
        let pre = preimage(&s, &l).unwrap();
        let any_output_in = s.run(&t).unwrap().iter().any(|o| l.accepts(o));
        prop_assert_eq!(pre.accepts(&t), any_output_in);
    }

    /// The domain automaton accepts exactly the inputs with an output.
    #[test]
    fn domain_pointwise(g in formula(), e1 in int_term(), e2 in int_term(), t in bt_tree()) {
        let s = bt_relabel(g, e1, e2);
        let has_output = !s.run(&t).unwrap().is_empty();
        prop_assert_eq!(s.domain().accepts(&t), has_output);
    }

    /// restrict/restrict-out behave as input/output filters.
    #[test]
    fn restriction_pointwise(
        g in formula(), e1 in int_term(), e2 in int_term(),
        l in bt_sta(), t in bt_tree(),
    ) {
        let s = bt_relabel(g, e1, e2);
        let rin = restrict(&s, &l).unwrap();
        let expected: Vec<Tree> =
            if l.accepts(&t) { s.run(&t).unwrap() } else { Vec::new() };
        prop_assert_eq!(rin.run(&t).unwrap(), expected);

        let rout = restrict_out(&s, &l).unwrap();
        let expected: Vec<Tree> = s
            .run(&t)
            .unwrap()
            .into_iter()
            .filter(|o| l.accepts(o))
            .collect();
        prop_assert_eq!(rout.run(&t).unwrap(), expected);
    }

    /// Input restriction merges `l` at the root, so its domain is the
    /// transducer's domain intersected with `l`. The construction never
    /// reads the guards' theory, so they are linear here: the inclusion
    /// search over conjunctions of random `mod`/`mul` guards can take
    /// minutes per case.
    #[test]
    fn restriction_domain_is_intersection(
        g in linear_formula(), e1 in int_term(), e2 in int_term(),
        l in bt_sta_guarded(linear_formula),
    ) {
        let s = bt_relabel(g, e1, e2);
        let rin = restrict(&s, &l).unwrap();
        prop_assert!(equivalent(&rin.domain(), &intersect(&s.domain(), &l)).unwrap());
    }
}
