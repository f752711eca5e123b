//! Guard bits decided once per distinct `(constructor, label)` pair of
//! an item: lowering evaluates a constructor's guards at the first slot
//! with a given pair and copies them to later slots with the same pair.
//! Each test ties the plan to the reference interpreter `Sttr::run` on
//! inputs where a cache keyed too coarsely, or a copy too narrow, would
//! enable the wrong rules.

use fast_core::{Out, Sttr, SttrBuilder};
use fast_rt::Plan;
use fast_smt::{CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{CtorId, Tree, TreeType};
use std::sync::Arc;

/// Leaves `L`, two unary constructors `A` and `B`, and a binary `N`,
/// all labeled with one int.
fn ty() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "G",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("A", 1), ("B", 1), ("N", 2)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn x_cmp(op: CmpOp, k: i64) -> Formula {
    Formula::cmp(op, Term::field(0), Term::int(k))
}

/// `ctor[k](q(x0), …)` over every child of the constructor.
fn tagged(ctor: CtorId, k: i64, q: fast_automata::StateId, rank: usize) -> Out<LabelAlg> {
    Out::node(
        ctor,
        LabelFn::new(vec![Term::int(k)]),
        (0..rank).map(|i| Out::Call(q, i)).collect(),
    )
}

/// The plan agrees with `Sttr::run` on `t`, as sets, and produces at
/// least one output.
fn agree(s: &Sttr, t: &Tree) {
    let mut got = Plan::compile(s).run(t).expect("plan run");
    let mut want = s.run(t).expect("oracle run");
    got.sort();
    want.sort();
    assert_eq!(got, want, "plan and oracle disagree on {t}");
    assert!(!want.is_empty(), "the case must produce output: {t}");
}

/// State `q` copies `L` and `N`; `A` and `B` read different guard
/// lists, and each rule tags its output with the rule.
fn two_lists(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>, a_guard: Formula) -> Sttr {
    let c = |n: &str| ty.ctor_id(n).unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("q");
    b.plain_rule(q, c("L"), Formula::True, tagged(c("L"), 0, q, 0));
    b.plain_rule(q, c("N"), Formula::True, tagged(c("N"), 0, q, 2));
    b.plain_rule(q, c("A"), a_guard, tagged(c("A"), 1, q, 1));
    b.plain_rule(q, c("A"), Formula::True, tagged(c("A"), 2, q, 1));
    b.plain_rule(q, c("B"), x_cmp(CmpOp::Lt, 5), tagged(c("B"), 3, q, 1));
    b.plain_rule(q, c("B"), x_cmp(CmpOp::Gt, 5), tagged(c("B"), 4, q, 1));
    b.build(q)
}

/// One label under two constructors whose guard lists differ: `A`'s
/// one guard and `B`'s two are decided separately, whichever is
/// lowered first.
#[test]
fn one_label_under_two_guard_lists() {
    let (ty, alg) = ty();
    let s = two_lists(&ty, &alg, x_cmp(CmpOp::Gt, 5));
    for text in [
        "B[7](A[7](L[0]))",
        "A[7](B[7](L[0]))",
        "N[0](A[3](L[1]), B[3](L[1]))",
        "N[0](B[3](L[1]), A[3](L[1]))",
    ] {
        agree(&s, &Tree::parse(&ty, text).unwrap());
    }
}

/// Equal labels reaching one item from a parsed subtree and from a
/// built one share a label id, so the second `A[7]` slot copies the
/// first's guard bits — and the result still matches the oracle.
#[test]
fn equal_labels_from_a_parsed_and_a_built_subtree() {
    let (ty, alg) = ty();
    let s = two_lists(&ty, &alg, x_cmp(CmpOp::Gt, 5));
    let c = |n: &str| ty.ctor_id(n).unwrap();
    let parsed = Tree::parse(&ty, "A[7](L[3])").unwrap();
    let built = Tree::new(
        c("A"),
        Label::single(7i64),
        vec![Tree::leaf(c("L"), Label::single(4i64))],
    );
    assert_ne!(parsed.id(), built.id());
    assert_eq!(parsed.label_id(), built.label_id());
    let t = Tree::new(c("N"), Label::single(0i64), vec![parsed, built]);
    agree(&s, &t);
    // The same label under `B` beside them is decided on its own.
    let b7 = Tree::parse(&ty, "B[7](A[7](L[3]))").unwrap();
    agree(&s, &Tree::new(c("N"), Label::single(0i64), vec![t, b7]));
}

/// A guard whose term overflows is false on a label that `B`'s guard
/// accepts: the overflowing decision must not leak to `B`, nor `B`'s
/// to `A`.
#[test]
fn overflowing_guard_beside_a_passing_one() {
    let (ty, alg) = ty();
    let overflow = Formula::cmp(
        CmpOp::Gt,
        Term::field(0).add(Term::int(i64::MAX - 10)),
        Term::int(0),
    );
    let s = two_lists(&ty, &alg, overflow);
    for text in [
        "B[50](A[50](L[0]))",
        "A[50](B[50](L[0]))",
        "N[0](A[50](L[0]), B[50](L[1]))",
        "N[0](A[1](L[0]), A[50](L[1]))",
    ] {
        agree(&s, &Tree::parse(&ty, text).unwrap());
    }
}

/// A constructor read by 70 guards has two words of guard bits per
/// slot; a later slot with the same label must get both. Label 66 is
/// bit 2 of the second word.
#[test]
fn more_than_64_guards_copy_every_word() {
    let (ty, alg) = ty();
    let c = |n: &str| ty.ctor_id(n).unwrap();
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let q = b.state("q");
    b.plain_rule(q, c("L"), Formula::True, tagged(c("L"), 0, q, 0));
    b.plain_rule(q, c("N"), Formula::True, tagged(c("N"), 0, q, 2));
    for k in 0..70 {
        b.plain_rule(
            q,
            c("A"),
            x_cmp(CmpOp::Eq, k),
            tagged(c("A"), 1000 + k, q, 1),
        );
    }
    let s = b.build(q);
    for text in [
        "A[66](A[66](L[0]))",
        "A[66](A[3](A[66](L[0])))",
        "N[0](A[66](L[1]), A[66](L[2]))",
        "N[0](A[3](L[1]), A[3](L[2]))",
        "A[69](A[64](A[69](A[64](L[0]))))",
    ] {
        agree(&s, &Tree::parse(&ty, text).unwrap());
    }
}
