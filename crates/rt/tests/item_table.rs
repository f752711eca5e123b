//! The per-item evaluation table: depth bounded by the heap, shared
//! subtrees evaluated once per `(state, node)` pair, and partial label
//! functions skipping what `Sttr::run` skips.

use fast_core::{Out, Sttr, SttrBuilder};
use fast_rt::{BatchMemo, Plan, RunOptions};
use fast_smt::{Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term};
use fast_trees::{Tree, TreeType};
use std::sync::Arc;

fn bt() -> (Arc<TreeType>, Arc<LabelAlg>) {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2), ("U", 1)],
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    (ty, alg)
}

fn label(fun: Term) -> LabelFn {
    LabelFn::new(vec![fun])
}

fn x() -> Term {
    Term::field(0)
}

/// A 10⁶-deep input is evaluated on a thread with the default stack:
/// lowering, dispatch and output construction are loops over the
/// item's table, so depth costs heap, not stack frames.
#[test]
fn million_deep_input_runs_on_a_default_stack() {
    const DEPTH: i64 = 1_000_000;
    let (ty, alg) = bt();
    let plan = Plan::compile(&fast_core::identity(&ty, &alg));
    let (leaf, unary) = (ty.ctor_id("L").unwrap(), ty.ctor_id("U").unwrap());
    let worker = std::thread::spawn(move || {
        let mut t = Tree::leaf(leaf, Label::single(0i64));
        for i in 1..DEPTH {
            t = Tree::new(unary, Label::single(i % 7), vec![t]);
        }
        let out = plan.run(&t).expect("identity is total");
        assert_eq!(out.len(), 1);
        // The identity rebuilds every node, and interning maps the
        // rebuilt tree back to the input's id.
        assert_eq!(out[0].id(), t.id());
    });
    worker
        .join()
        .expect("the deep run must not overflow the stack");
}

/// Two outputs that differ only at the bottom of a 10⁵-deep chain are
/// deduplicated through a `BTreeSet` on a thread with the default
/// stack: the structural order walks the chain with a heap stack, not
/// one frame per level. States `a` and `b` rebuild the chain down to
/// `L[1]` and `L[2]`, and `q` offers both, so the two chains meet in
/// one comparison, at the root. (With one state offering both leaves,
/// every level would compare its two outputs, quadratic in the depth.)
#[test]
fn deep_outputs_compare_on_a_default_stack() {
    const DEPTH: i64 = 100_000;
    let (ty, alg) = bt();
    let (leaf, unary) = (ty.ctor_id("L").unwrap(), ty.ctor_id("U").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg);
    let q = b.state("q");
    for (d, name) in [(1, "a"), (2, "b")] {
        let s = b.state(name);
        b.plain_rule(
            s,
            leaf,
            Formula::True,
            Out::node(leaf, label(Term::int(d)), vec![]),
        );
        let down = Out::node(unary, label(Term::int(0)), vec![Out::Call(s, 0)]);
        b.plain_rule(s, unary, Formula::True, down.clone());
        b.plain_rule(q, unary, Formula::True, down);
    }
    let plan = Plan::compile(&b.build(q));
    let worker = std::thread::spawn(move || {
        let mut t = Tree::leaf(leaf, Label::single(0i64));
        for i in 1..=DEPTH {
            t = Tree::new(unary, Label::single(i), vec![t]);
        }
        let out = plan.run(&t).expect("two outputs are within the cap");
        let bottoms: Vec<i64> = out
            .iter()
            .map(|o| {
                let mut node = o;
                let mut depth = 0;
                while let [child] = node.children() {
                    assert_eq!(node.label(), &Label::single(0i64));
                    node = child;
                    depth += 1;
                }
                assert_eq!(depth, DEPTH);
                node.label().get(0).as_int().unwrap()
            })
            .collect();
        assert_eq!(bottoms, vec![1, 2], "both outputs, in structural order");
    });
    worker
        .join()
        .expect("comparing deep outputs must not overflow the stack");
}

/// Two states over binary trees. `left` copies a node and sends its
/// children to `left` and `right`; `right` swaps them and offers two
/// labels at every leaf, so its outputs come in sets.
fn two_states(ty: &Arc<TreeType>, alg: &Arc<LabelAlg>) -> Sttr {
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let left = b.state("left");
    let right = b.state("right");
    b.plain_rule(
        left,
        leaf,
        Formula::True,
        Out::node(leaf, label(x()), vec![]),
    );
    b.plain_rule(
        left,
        node,
        Formula::True,
        Out::node(
            node,
            label(x()),
            vec![Out::Call(left, 0), Out::Call(right, 1)],
        ),
    );
    for d in [1, 2] {
        b.plain_rule(
            right,
            leaf,
            Formula::True,
            Out::node(leaf, label(x().add(Term::int(d))), vec![]),
        );
    }
    b.plain_rule(
        right,
        node,
        Formula::True,
        Out::node(
            node,
            label(x().add(Term::int(10))),
            vec![Out::Call(right, 1), Out::Call(left, 0)],
        ),
    );
    b.build(left)
}

/// One subtree `s`, shared by reference, is reached under both states
/// and at depths 1, 2 and 3; each `(state, node)` pair is evaluated once
/// and every later lookup hits. A second shared-memo call answers
/// repeated and re-parsed roots from the memo. Every result equals
/// `Sttr::run`.
#[test]
fn shared_subtrees_under_two_states_match_the_oracle() {
    let (ty, alg) = bt();
    let sttr = two_states(&ty, &alg);
    let plan = Plan::compile(&sttr);
    let s = Tree::parse(&ty, "N[5](L[1], N[6](L[2], L[3]))").unwrap();
    let (node, leaf) = (ty.ctor_id("N").unwrap(), ty.ctor_id("L").unwrap());
    let n =
        |v: i64, a: &Tree, b: &Tree| Tree::new(node, Label::single(v), vec![a.clone(), b.clone()]);
    let inner = n(1, &s, &s);
    let root = n(0, &s, &n(2, &inner, &s));
    let other = n(3, &Tree::leaf(leaf, Label::single(9i64)), &s);
    let memo = BatchMemo::new(1 << 10);
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };

    let first = [root.clone(), other];
    let (got, stats) = plan.run_batch_shared(&first, &opts, &memo);
    for (t, r) in first.iter().zip(&got) {
        assert_eq!(r, &sttr.run(t));
        assert!(r.as_ref().unwrap().len() > 1, "`right` makes output sets");
    }
    assert!(stats.memo_hits > 0, "repeated pairs must hit: {stats:?}");

    // The same root, a re-parsed copy of it, and a root never seen as an
    // item (only as a subtree, whose pairs the memo does not keep).
    let reparsed = Tree::parse(&ty, &root.display(&ty).to_string()).unwrap();
    let second = [root.clone(), reparsed, inner];
    let (again, stats) = plan.run_batch_shared(&second, &opts, &memo);
    for (t, r) in second.iter().zip(&again) {
        assert_eq!(r, &sttr.run(t));
    }
    assert_eq!(again[0], got[0]);
    assert!(
        stats.memo_hits >= 2,
        "both copies of the root hit: {stats:?}"
    );

    // A memoized root set larger than a later run's cap is a budget
    // error there, as `Sttr::run_bounded` reports it.
    let tight = RunOptions { cap: 1, ..opts };
    let (capped, stats) = plan.run_batch_shared(std::slice::from_ref(&root), &tight, &memo);
    assert_eq!(stats.memo_hits, 1, "answered from the memo: {stats:?}");
    assert_eq!(capped[0], sttr.run_bounded(&root, 1));
    assert!(capped[0].is_err());
}

/// `amb` doubles the outputs at every leaf. The root rule puts it under
/// an `x + 1` label that overflows at `i64::MAX`: there the rule yields
/// nothing and `Sttr::run` never evaluates the children, so no budget
/// error may surface even though the children alone exceed the cap. A
/// second rule nests the partial node one level down. Plan and oracle
/// agree for every cap, `cap == 0` included.
#[test]
fn partial_label_functions_skip_their_children() {
    let (ty, alg) = bt();
    let (leaf, node) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let top = b.state("top");
    let amb = b.state("amb");
    for d in [0, 1] {
        b.plain_rule(
            amb,
            leaf,
            Formula::True,
            Out::node(leaf, label(x().add(Term::int(d))), vec![]),
        );
    }
    b.plain_rule(
        amb,
        node,
        Formula::True,
        Out::node(node, label(x()), vec![Out::Call(amb, 0), Out::Call(amb, 1)]),
    );
    let partial = || {
        Out::node(
            node,
            label(x().add(Term::int(1))),
            vec![Out::Call(amb, 0), Out::Call(amb, 1)],
        )
    };
    b.plain_rule(top, node, Formula::True, partial());
    b.plain_rule(
        top,
        node,
        Formula::True,
        Out::node(
            node,
            label(x()),
            vec![
                Out::node(leaf, label(x().add(Term::int(1))), vec![]),
                partial(),
            ],
        ),
    );
    let sttr = b.build(top);
    let plan = Plan::compile(&sttr);

    // Each child has four leaves: 16 outputs apiece.
    let half = "N[0](N[0](L[1], L[2]), N[0](L[3], L[4]))";
    let over = Tree::parse(&ty, &format!("N[{}]({half}, {half})", i64::MAX)).unwrap();
    let defined = Tree::parse(&ty, &format!("N[7]({half}, {half})")).unwrap();
    for cap in [0, 1, 8, 16, 1 << 16] {
        let opts = RunOptions {
            cap,
            workers: 1,
            ..RunOptions::default()
        };
        for t in [&over, &defined] {
            let want = sttr.run_bounded(t, cap);
            let (got, _) = plan.run_batch_with(std::slice::from_ref(t), &opts);
            assert_eq!(got[0], want, "cap {cap}");
        }
        let (got, _) = plan.run_batch_with(std::slice::from_ref(&over), &opts);
        assert_eq!(got[0], Ok(vec![]), "cap {cap}: the overflow yields nothing");
    }
}
