//! Algebraic laws of the transducer operations, checked behaviorally on
//! enumerated inputs and structurally where exact procedures exist.

use fast_automata::{equivalent, Sta, StaBuilder, StateId};
use fast_core::{compose, identity, preimage, restrict, restrict_out, Out, Sttr, SttrBuilder};
use fast_smt::{CmpOp, Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeGen, TreeType};
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

/// Deterministic relabeler: leaves f(x), inner nodes g(x), recursing on
/// both children; guard-split variants exercise lookahead-free branching.
fn relabel(f: Term, g: Term) -> Sttr {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut b = SttrBuilder::new(ty, alg);
    let q = b.state("relabel");
    b.plain_rule(
        q,
        l,
        Formula::True,
        Out::node(l, LabelFn::new(vec![f]), vec![]),
    );
    b.plain_rule(
        q,
        n,
        Formula::True,
        Out::node(
            n,
            LabelFn::new(vec![g]),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    b.build(q)
}

fn samples(seed: u64) -> Vec<Tree> {
    let (ty, _) = bt();
    let mut g = TreeGen::new(seed).with_max_depth(5).with_int_range(-8, 8);
    (0..60).map(|_| g.tree(&ty)).collect()
}

fn behaviorally_equal(a: &Sttr, b: &Sttr, seed: u64) {
    for t in samples(seed) {
        assert_eq!(a.run(&t).unwrap(), b.run(&t).unwrap(), "differ on {t:?}");
    }
}

#[test]
fn identity_is_neutral() {
    let (ty, alg) = bt();
    let id = identity(&ty, &alg);
    let f = relabel(Term::field(0).add(Term::int(3)), Term::field(0).neg());
    behaviorally_equal(&compose(&id, &f).unwrap().sttr, &f, 1);
    behaviorally_equal(&compose(&f, &id).unwrap().sttr, &f, 2);
}

#[test]
fn composition_is_associative_behaviorally() {
    let f = relabel(Term::field(0).add(Term::int(1)), Term::field(0));
    let g = relabel(
        Term::field(0).mul(Term::int(2)),
        Term::field(0).add(Term::int(5)),
    );
    let h = relabel(Term::field(0).modulo(7), Term::field(0).sub(Term::int(2)));
    let left = compose(&compose(&f, &g).unwrap().sttr, &h).unwrap().sttr;
    let right = compose(&f, &compose(&g, &h).unwrap().sttr).unwrap().sttr;
    behaviorally_equal(&left, &right, 3);
}

#[test]
fn restrict_twice_is_intersection() {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mk_lang = |f: Formula| {
        let mut b = StaBuilder::new(ty.clone(), alg.clone());
        let s = b.state("s");
        b.leaf_rule(s, l, f);
        b.simple_rule(s, n, Formula::True, vec![Some(s), Some(s)]);
        b.build(s)
    };
    let a = mk_lang(Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0)));
    let b_ = mk_lang(Formula::cmp(CmpOp::Lt, Term::field(0), Term::int(5)));
    let f = relabel(Term::field(0), Term::field(0));
    let both = restrict(&restrict(&f, &a).unwrap(), &b_).unwrap();
    let meet = restrict(&f, &fast_automata::intersect(&a, &b_)).unwrap();
    behaviorally_equal(&both, &meet, 4);
}

#[test]
fn preimage_of_domain_is_domain() {
    // pre-image(t, ⊤) = domain(t).
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let s = b.state("all");
    b.leaf_rule(s, l, Formula::True);
    b.simple_rule(s, n, Formula::True, vec![Some(s), Some(s)]);
    let top = b.build(s);

    // A partial transducer: defined only when every leaf is even.
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("evens_only");
    b.plain_rule(
        q,
        l,
        Formula::eq(Term::field(0).modulo(2), Term::int(0)),
        Out::node(l, LabelFn::identity(1), vec![]),
    );
    b.plain_rule(
        q,
        n,
        Formula::True,
        Out::node(
            n,
            LabelFn::identity(1),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    let f = b.build(q);
    let pre_top = preimage(&f, &top).unwrap();
    assert!(equivalent(&pre_top, &f.domain()).unwrap());
}

#[test]
fn restrict_out_then_domain_is_preimage() {
    // domain(restrict-out(t, l)) = pre-image(t, l) for deterministic t.
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let s = b.state("small");
    b.leaf_rule(s, l, Formula::cmp(CmpOp::Lt, Term::field(0), Term::int(3)));
    b.simple_rule(s, n, Formula::True, vec![Some(s), Some(s)]);
    let small = b.build(s);

    let f = relabel(Term::field(0).add(Term::int(1)), Term::field(0));
    let via_restrict = restrict_out(&f, &small).unwrap().domain();
    let via_preimage = preimage(&f, &small).unwrap();
    assert!(equivalent(&via_restrict, &via_preimage).unwrap());
}

#[test]
fn restricted_identity_is_identity_on_language() {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let s = b.state("odds");
    b.leaf_rule(s, l, Formula::eq(Term::field(0).modulo(2), Term::int(1)));
    b.simple_rule(s, n, Formula::True, vec![Some(s), Some(s)]);
    let odds = b.build(s);
    let idr = restrict(&identity(&ty, &alg), &odds).unwrap();
    for t in samples(5) {
        let out = idr.run(&t).unwrap();
        if odds.accepts(&t) {
            assert_eq!(out, vec![t]);
        } else {
            assert!(out.is_empty());
        }
    }
    // Its domain is exactly the language.
    assert!(equivalent(&idr.domain(), &odds).unwrap());
    // And it is linear + deterministic, as the §3.5 constructions assume.
    assert!(idr.is_linear());
    assert!(idr.is_deterministic().unwrap());
}

#[test]
fn prune_lookahead_preserves_behavior() {
    let f = relabel(Term::field(0).add(Term::int(1)), Term::field(0));
    let g = relabel(Term::field(0).mul(Term::int(3)), Term::field(0));
    let fused = compose(&f, &g).unwrap().sttr;
    let repruned = fused.prune_lookahead();
    behaviorally_equal(&fused, &repruned, 6);
    assert!(repruned.lookahead_sta().state_count() <= fused.lookahead_sta().state_count());
}

#[test]
fn composition_preserves_determinism_observationally() {
    // Deterministic ∘ deterministic yields at most one output per input.
    let f = relabel(Term::field(0).add(Term::int(2)), Term::field(0));
    let g = relabel(Term::field(0).modulo(5), Term::field(0).add(Term::int(1)));
    let c = compose(&f, &g).unwrap().sttr;
    for t in samples(7) {
        assert!(c.run(&t).unwrap().len() <= 1);
    }
}

/// The exact rule depicted in Fig. 5 of the paper: a linear rank-3 rule
/// `q̃(g[x](y1,y2,y3)) --x<4--> f[x+1](f[x−2](p̃(y1), q̃(y2)), p̃(y3))`.
#[test]
fn figure5_rule() {
    let ty = TreeType::new(
        "F5",
        LabelSig::single("x", Sort::Int),
        vec![("c", 0), ("f", 2), ("g", 3)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let c = ty.ctor_id("c").unwrap();
    let f = ty.ctor_id("f").unwrap();
    let g = ty.ctor_id("g").unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("q");
    let p = b.state("p");
    b.plain_rule(
        q,
        g,
        Formula::cmp(CmpOp::Lt, Term::field(0), Term::int(4)),
        Out::node(
            f,
            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
            vec![
                Out::node(
                    f,
                    LabelFn::new(vec![Term::field(0).sub(Term::int(2))]),
                    vec![Out::Call(p, 0), Out::Call(q, 1)],
                ),
                Out::Call(p, 2),
            ],
        ),
    );
    // Base cases so the machines are total on leaves.
    for s in [q, p] {
        b.plain_rule(
            s,
            c,
            Formula::True,
            Out::node(c, LabelFn::identity(1), vec![]),
        );
    }
    let sttr = b.build(q);
    // The rule is linear (each yᵢ used exactly once) — the paper's point
    // that label duplication in outputs (x used twice) does NOT break
    // linearity, which is about subtree variables.
    assert!(sttr.is_linear());

    let input = Tree::parse(&ty, "g[3](c[10], g[0](c[1], c[2], c[3]), c[30])").unwrap();
    let out = sttr.run(&input).unwrap();
    assert_eq!(out.len(), 1);
    // Root: f[3+1]; inner: f[3−2](p(y1)=c[10], q(y2)=f[1](f[-2](c,c),c)); then p(y3)=c[30].
    assert_eq!(
        out[0].display(&ty).to_string(),
        "f[4](f[1](c[10], f[1](f[-2](c[1], c[2]), c[3])), c[30])"
    );
    // Domain: the guard cuts off x ≥ 4 at the root.
    let big = Tree::parse(&ty, "g[4](c[0], c[0], c[0])").unwrap();
    assert!(sttr.run(&big).unwrap().is_empty());

    // The domain-automaton rule of Fig. 5's caption:
    // (q, g, x<4, ({p}, {q}, {p})).
    let d = sttr.domain();
    let rule = d
        .rules(fast_automata::StateId(q.0))
        .iter()
        .find(|r| r.ctor == g)
        .unwrap();
    let req: Vec<Vec<usize>> = rule
        .lookahead
        .iter()
        .map(|s| s.iter().map(|x| x.0).collect())
        .collect();
    assert_eq!(req, vec![vec![p.0], vec![q.0], vec![p.0]]);
}

/// Display output shows rules with guards and lookahead.
#[test]
fn display_formats() {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut sb = StaBuilder::new(ty.clone(), alg.clone());
    let s = sb.state("evens");
    sb.leaf_rule(s, l, Formula::eq(Term::field(0).modulo(2), Term::int(0)));
    sb.simple_rule(s, n, Formula::True, vec![Some(s), Some(s)]);
    let la = sb.build(s);

    let mut b = SttrBuilder::new(ty.clone(), alg).with_lookahead(la);
    let q = b.state("guarded");
    b.rule(
        q,
        n,
        Formula::True,
        vec![[s].into_iter().collect(), Default::default()],
        Out::node(
            n,
            LabelFn::identity(1),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    b.plain_rule(
        q,
        l,
        Formula::True,
        Out::node(l, LabelFn::identity(1), vec![]),
    );
    let sttr = b.build(q);
    let text = sttr.to_string();
    assert!(text.contains("STTR over BT"), "{text}");
    assert!(text.contains("given"), "{text}");
    assert!(text.contains("lookahead states"), "{text}");
}

/// Lookahead automaton over BT with two disjoint per-state languages:
/// `pos` (every leaf label > 0) and `neg` (every leaf label ≤ 0). Any
/// tree has at least one leaf, so L(pos) ∩ L(neg) = ∅.
fn pos_neg_lookahead() -> (Sta, StateId, StateId) {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut sb = StaBuilder::new(ty, alg);
    let pos = sb.state("pos");
    let neg = sb.state("neg");
    sb.leaf_rule(
        pos,
        l,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0)),
    );
    sb.simple_rule(pos, n, Formula::True, vec![Some(pos), Some(pos)]);
    sb.leaf_rule(
        neg,
        l,
        Formula::cmp(CmpOp::Le, Term::field(0), Term::int(0)),
    );
    sb.simple_rule(neg, n, Formula::True, vec![Some(neg), Some(neg)]);
    (sb.build(pos), pos, neg)
}

/// Two rules on the same (state, constructor) with jointly satisfiable
/// guards and different outputs, built with an optional lookahead set
/// per rule on child 0.
fn guard_overlap_sttr(la_a: Option<StateId>, la_b: Option<StateId>) -> Sttr {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let (la, _, _) = pos_neg_lookahead();
    let mut b = SttrBuilder::new(ty, alg).with_lookahead(la);
    let q = b.state("q");
    let set = |s: Option<StateId>| s.into_iter().collect::<std::collections::BTreeSet<_>>();
    b.rule(
        q,
        n,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0)),
        vec![set(la_a), Default::default()],
        Out::node(l, LabelFn::new(vec![Term::int(1)]), vec![]),
    );
    b.rule(
        q,
        n,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(5)),
        vec![set(la_b), Default::default()],
        Out::node(l, LabelFn::new(vec![Term::int(2)]), vec![]),
    );
    b.build(q)
}

/// Definition 9: overlapping guards on the same (state, constructor) with
/// different outputs break determinism when nothing disambiguates them.
#[test]
fn overlapping_guards_break_determinism() {
    let sttr = guard_overlap_sttr(None, None);
    assert!(!sttr.is_deterministic().unwrap());
    // But overlap does not affect linearity: each rule uses no child twice.
    assert!(sttr.is_linear());
    // Behaviorally: both rules fire where the guards overlap (x > 5).
    let (ty, _) = bt();
    let t = Tree::parse(&ty, "N[7](L[1], L[1])").unwrap();
    assert_eq!(sttr.run(&t).unwrap().len(), 2);
}

/// Disjoint lookahead languages on a shared child restore determinism
/// even though the guards overlap: the joint lookahead L(pos) ∩ L(neg)
/// is empty, so the two rules can never fire on the same input.
#[test]
fn disjoint_lookahead_restores_determinism() {
    let (_, pos, neg) = pos_neg_lookahead();
    let sttr = guard_overlap_sttr(Some(pos), Some(neg));
    assert!(sttr.is_deterministic().unwrap());
    let rs = sttr.rules(sttr.initial());
    assert!(!sttr.lookaheads_meet(&rs[0], &rs[1]).unwrap());
    let same = guard_overlap_sttr(Some(pos), Some(pos));
    let rs = same.rules(same.initial());
    assert!(same.lookaheads_meet(&rs[0], &rs[1]).unwrap());
    assert!(sttr.is_linear());
    let (ty, _) = bt();
    for src in ["N[7](L[1], L[1])", "N[7](L[-1], L[1])", "N[1](L[0], L[0])"] {
        let t = Tree::parse(&ty, src).unwrap();
        assert!(
            sttr.run(&t).unwrap().len() <= 1,
            "nondeterministic on {src}"
        );
    }
}

/// Identical lookahead on both rules does NOT disambiguate: the joint
/// language is just L(pos), which is non-empty.
#[test]
fn shared_lookahead_does_not_disambiguate() {
    let (_, pos, _) = pos_neg_lookahead();
    let sttr = guard_overlap_sttr(Some(pos), Some(pos));
    assert!(!sttr.is_deterministic().unwrap());
}

/// Rules with identical outputs never count as a determinism conflict,
/// whatever their guards (they produce the same result anyway).
#[test]
fn identical_outputs_preserve_determinism() {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let mut b = SttrBuilder::new(ty, alg);
    let q = b.state("q");
    let out = || Out::node(l, LabelFn::new(vec![Term::int(0)]), vec![]);
    b.plain_rule(
        q,
        n,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0)),
        out(),
    );
    b.plain_rule(
        q,
        n,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(5)),
        out(),
    );
    let sttr = b.build(q);
    assert!(sttr.is_deterministic().unwrap());
}

/// Copying a subtree variable into two output positions breaks linearity
/// (Definition 5), independently of guards and lookahead.
#[test]
fn copying_output_is_nonlinear() {
    let (ty, alg) = bt();
    let l = ty.ctor_id("L").unwrap();
    let n = ty.ctor_id("N").unwrap();
    let (la, pos, _) = pos_neg_lookahead();
    let mut b = SttrBuilder::new(ty, alg).with_lookahead(la);
    let q = b.state("copy");
    b.rule(
        q,
        n,
        Formula::True,
        vec![[pos].into_iter().collect(), Default::default()],
        Out::node(
            n,
            LabelFn::identity(1),
            vec![Out::Call(q, 0), Out::Call(q, 0)],
        ),
    );
    b.plain_rule(
        q,
        l,
        Formula::True,
        Out::node(l, LabelFn::identity(1), vec![]),
    );
    let sttr = b.build(q);
    assert!(!sttr.is_linear());
    // Copying alone does not break determinism: one rule per constructor.
    assert!(sttr.is_deterministic().unwrap());
}

/// Theorem 4 through the batch runtime: evaluating a composed transducer
/// over a whole sample batch with `fast_rt::Plan` (shared memo, compiled
/// dispatch) matches running the factors sequentially per tree — i.e.
/// the composition law survives the plan path, not just `Sttr::run`.
#[test]
fn composition_law_holds_on_the_batch_path() {
    let f = relabel(Term::field(0).add(Term::int(1)), Term::field(0));
    let g = relabel(
        Term::field(0).mul(Term::int(2)),
        Term::field(0).sub(Term::int(3)),
    );
    let composed = compose(&f, &g).unwrap().sttr;
    let plan = fast_rt::Plan::compile(&composed);

    // Repeat the sample set: the clones share `Arc` addresses with the
    // originals, so the batch exercises cross-item memo reuse while
    // checking the law.
    let mut batch = samples(8);
    let clones: Vec<Tree> = batch.iter().take(20).cloned().collect();
    batch.extend(clones);

    let opts = fast_rt::RunOptions::default();
    let (results, stats) = plan.run_batch_with(&batch, &opts);
    assert_eq!(results.len(), batch.len());
    for (t, got) in batch.iter().zip(results) {
        let sequential: Vec<Tree> = f
            .run(t)
            .unwrap()
            .into_iter()
            .flat_map(|m| g.run(&m).unwrap())
            .collect();
        assert_eq!(got.unwrap(), sequential, "law broken on {t:?}");
    }
    assert!(
        stats.memo_hits > 0,
        "cloned samples must hit the shared memo: {stats:?}"
    );

    // Staged evaluation through two plans agrees with the fused plan.
    let plan_f = fast_rt::Plan::compile(&f);
    let plan_g = fast_rt::Plan::compile(&g);
    for t in samples(9) {
        let mid = plan_f.run(&t).unwrap();
        let staged: Vec<Tree> = mid.iter().flat_map(|m| plan_g.run(m).unwrap()).collect();
        assert_eq!(plan.run(&t).unwrap(), staged);
    }
}

/// Example 7 of the paper: composing through a rule that deletes a child
/// (`p̃(f[x](y1,y2)) --x>0--> p̃(y2)`) yields the reduced pair rule
/// `p.q(f[x](y1,y2)) --x>0--> p.q(y2)` — the deleted child's pair
/// requirement is simply absent.
#[test]
fn example7_deletion_reduction() {
    let ty = TreeType::new(
        "E7",
        LabelSig::single("x", Sort::Int),
        vec![("c", 0), ("f", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let c = ty.ctor_id("c").unwrap();
    let f = ty.ctor_id("f").unwrap();

    // S: p(f[x](y1,y2)) where x>0 → p(y2); p(c) → c.
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let p = b.state("p");
    b.plain_rule(
        p,
        f,
        Formula::cmp(CmpOp::Gt, Term::field(0), Term::int(0)),
        Out::Call(p, 1),
    );
    b.plain_rule(
        p,
        c,
        Formula::True,
        Out::node(c, LabelFn::identity(1), vec![]),
    );
    let s = b.build(p);

    // T: identity.
    let t = identity(&ty, &alg);
    let composed = compose(&s, &t).unwrap().sttr;

    // Behaviour: drop left spines while x > 0.
    let input = Tree::parse(&ty, "f[3](c[9], f[1](c[8], c[7]))").unwrap();
    assert_eq!(
        composed.run(&input).unwrap()[0].display(&ty).to_string(),
        "c[7]"
    );
    // Structure: the composed f-rule's output is a single pair call on
    // child 1, like the example's p̃.q(y2); child 0 is unconstrained in
    // the transducer rule (identity T imposes nothing on dropped input).
    let init = composed.initial();
    let rule = composed
        .rules(init)
        .iter()
        .find(|r| r.ctor == f)
        .expect("f-rule exists");
    assert!(matches!(rule.output, Out::Call(_, 1)));
    // Negative guard: no output when x ≤ 0 at the root.
    let input = Tree::parse(&ty, "f[0](c[1], c[2])").unwrap();
    assert!(composed.run(&input).unwrap().is_empty());
}
