//! Node annotations: an item lowers each distinct node to one
//! annotation, keyed by `(constructor, label, child annotations)` and
//! canonical by value (lookahead states, enabled rules, copying
//! states). Each test ties the plan to the reference interpreter
//! `Sttr::run_bounded`, errors included, and the counts of
//! `BatchStats::annotations` pin when two nodes share an annotation.

use fast_automata::{Sta, StaBuilder, StateId};
use fast_core::{Out, Sttr, SttrBuilder, TransducerError, DEFAULT_RUN_CAP};
use fast_rt::{Plan, RunOptions};
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Leaves `L`, unary `U`, binary `N` and the rank-4 `W`, all labeled
/// with one int.
fn ty() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "A",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("U", 1), ("N", 2), ("W", 4)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn x_cmp(op: CmpOp, k: i64) -> Formula {
    Formula::cmp(op, Term::field(0), Term::int(k))
}

/// One lookahead state, `pos`, accepting the trees labeled `> 0`
/// throughout.
fn positive(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sta {
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let pos = b.state("pos");
    for (name, rank) in [("L", 0), ("U", 1), ("N", 2), ("W", 4)] {
        let ctor = ty.ctor_id(name).unwrap();
        b.simple_rule(pos, ctor, x_cmp(CmpOp::Gt, 0), vec![Some(pos); rank]);
    }
    b.build(pos)
}

/// `ctor[x](q(x0), …)`: a copy rule's output.
fn copy(ty: &TreeType, name: &str, q: StateId) -> Out<LabelAlg> {
    let ctor = ty.ctor_id(name).unwrap();
    let rank = ty.rank(ctor);
    Out::node(
        ctor,
        LabelFn::identity(1),
        (0..rank).map(|i| Out::Call(q, i)).collect(),
    )
}

fn pos_at(rank: usize, child: usize) -> Vec<BTreeSet<StateId>> {
    let mut sets = vec![BTreeSet::new(); rank];
    sets[child].insert(StateId(0));
    sets
}

/// State `q`:
/// - copies `L`;
/// - copies `N` when child 0 is `pos`, and also rewrites `N[x]` to
///   `N[x+1]` when `x >= 5` (two rules enabled at once);
/// - rewrites `U[x]` to `U[x + i64::MAX - 10]`, undefined (overflow)
///   for `x > 10`;
/// - copies `W` when child 3 is `pos`.
fn sttr() -> (Arc<TreeType>, Sttr) {
    let (ty, alg) = ty();
    let c = |n: &str| ty.ctor_id(n).unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg.clone()).with_lookahead(positive(&ty, &alg));
    let q = b.state("q");
    b.plain_rule(q, c("L"), Formula::True, copy(&ty, "L", q));
    b.rule(q, c("N"), Formula::True, pos_at(2, 0), copy(&ty, "N", q));
    b.plain_rule(
        q,
        c("N"),
        x_cmp(CmpOp::Ge, 5),
        Out::node(
            c("N"),
            LabelFn::new(vec![Term::field(0).add(Term::int(1))]),
            vec![Out::Call(q, 0), Out::Call(q, 1)],
        ),
    );
    b.plain_rule(
        q,
        c("U"),
        Formula::True,
        Out::node(
            c("U"),
            LabelFn::new(vec![Term::field(0).add(Term::int(i64::MAX - 10))]),
            vec![Out::Call(q, 0)],
        ),
    );
    b.rule(q, c("W"), Formula::True, pos_at(4, 3), copy(&ty, "W", q));
    (ty, b.build(q))
}

fn canon(r: Result<Vec<Tree>, TransducerError>) -> Result<Vec<Tree>, TransducerError> {
    r.map(|mut v| {
        v.sort();
        v
    })
}

/// The plan agrees with `Sttr::run_bounded` on `t` at several caps.
/// Returns the default-cap result and the annotations its item built.
fn agree(s: &Sttr, t: &Tree) -> (Result<Vec<Tree>, TransducerError>, u64) {
    let plan = Plan::compile(s);
    let mut last = None;
    for cap in [0, 1, 2, DEFAULT_RUN_CAP] {
        let opts = RunOptions {
            workers: 1,
            cap,
            ..RunOptions::default()
        };
        let (mut got, stats) = plan.run_batch_with(std::slice::from_ref(t), &opts);
        let got = got.pop().unwrap();
        assert_eq!(
            canon(got.clone()),
            canon(s.run_bounded(t, cap)),
            "cap {cap} on {t}"
        );
        last = Some((got, stats.annotations));
    }
    last.unwrap()
}

fn parse(ty: &TreeType, text: &str) -> Tree {
    Tree::parse(ty, text).unwrap()
}

/// `X` and `Y` differ in shape and labels, yet both are positive and
/// copied by `q`: they share one annotation. So do all their positive
/// leaves. Over them, `N[7]` enables both `N` rules: a third
/// annotation, and two outputs.
#[test]
fn different_subtrees_with_equal_sets_share_an_annotation() {
    let (ty, s) = sttr();
    let (x, y) = ("N[1](L[1], L[2])", "N[2](N[3](L[4], L[5]), L[6])");
    for (a, b) in [(x, y), (x, x), (y, y)] {
        let t = parse(&ty, &format!("N[7]({a}, {b})"));
        let (out, annotations) = agree(&s, &t);
        assert_eq!(out.unwrap().len(), 2, "{t}");
        assert_eq!(annotations, 3, "leaves, copied N, doubly enabled N: {t}");
    }
    // A leaf labeled 0 is not `pos`: its own annotation, and its parent
    // (child 0 not `pos`) enables no rule, so the root, whose copy rule
    // is enabled, does not copy: two more annotations.
    let t = parse(&ty, &format!("N[1]({x}, N[1](L[0], L[1]))"));
    let (out, annotations) = agree(&s, &t);
    assert_eq!(out.unwrap().len(), 0);
    assert_eq!(annotations, 5);
}

/// A DAG of 2^20 positions over 21 distinct nodes: repeated subtrees
/// are one slot each, and every level below the top two shares the
/// annotation of copied positive `N`s.
#[test]
fn dag_with_repeated_subtrees() {
    let (ty, s) = sttr();
    let n = ty.ctor_id("N").unwrap();
    let mut t = parse(&ty, "L[1]");
    for level in 0..20 {
        let x = if level >= 18 { 6i64 } else { 1 };
        t = Tree::new(n, Label::single(x), vec![t.clone(), t]);
    }
    let (out, annotations) = agree(&s, &t);
    assert!(out.unwrap().len() > 1);
    assert_eq!(annotations, 3);
}

/// `W` has rank 4: its key carries four child annotations, and its copy
/// rule reads the lookahead of child 3 only.
#[test]
fn rank_four_constructor() {
    let (ty, s) = sttr();
    for (text, outputs) in [
        ("W[1](L[1], L[2], N[1](L[3], L[4]), L[5])", 1),
        ("W[0](L[1], L[2], N[1](L[3], L[4]), L[5])", 1),
        ("W[1](L[0], L[0], L[0], L[5])", 1),
        ("W[1](L[1], L[2], L[3], L[0])", 0),
        (
            "N[1](W[1](L[1], L[2], L[3], L[4]), W[1](L[4], L[3], L[2], L[1]))",
            1,
        ),
        ("N[1](W[0](L[1], L[2], L[3], L[4]), L[1])", 0),
        ("W[1](N[7](L[1], L[1]), L[1], U[1](L[1]), L[1])", 2),
    ] {
        let t = parse(&ty, text);
        let (out, _) = agree(&s, &t);
        assert_eq!(out.unwrap().len(), outputs, "{t}");
    }
    // The second `W`'s children come in another order, but both `W`s
    // get the annotation of a copied positive node.
    let t = parse(
        &ty,
        "N[1](W[1](L[1], L[2], L[3], L[4]), W[1](L[4], L[3], L[2], L[1]))",
    );
    assert_eq!(agree(&s, &t).1, 3);
}

/// `U[x]` with `x > 10` overflows its label function: no output, and
/// no copy of any ancestor, though `U[20]` is `pos` and the `N` above
/// it enables only its copy rule.
#[test]
fn undefined_label_function() {
    let (ty, s) = sttr();
    for (text, outputs) in [
        ("U[3](L[1])", 1),
        ("U[20](L[1])", 0),
        ("N[1](U[20](L[1]), L[1])", 0),
        ("N[1](U[3](L[1]), L[1])", 1),
        ("N[1](U[3](L[1]), U[20](L[1]))", 0),
        ("N[7](U[3](L[1]), U[3](L[1]))", 2),
    ] {
        let t = parse(&ty, text);
        let (out, _) = agree(&s, &t);
        assert_eq!(out.unwrap().len(), outputs, "{t}");
    }
}

/// Annotations belong to an item: a batch of two equal-shaped items
/// with different labels builds each item's annotations once, and the
/// counts add up.
#[test]
fn annotations_are_counted_per_item() {
    let (ty, s) = sttr();
    let plan = Plan::compile(&s);
    let items = [
        parse(&ty, "N[7](N[1](L[1], L[2]), L[3])"),
        parse(&ty, "N[8](N[2](L[2], L[1]), L[4])"),
    ];
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let (got, stats) = plan.run_batch_with(&items, &opts);
    for (t, r) in items.iter().zip(got) {
        assert_eq!(canon(r), canon(s.run(t)));
    }
    assert_eq!(stats.annotations, 6);
}
