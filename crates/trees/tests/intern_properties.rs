//! Properties of the global hash-cons table (`fast_trees::intern`):
//!
//! * **identity-by-construction** — structurally equal trees built
//!   through *independent* code paths (direct construction, a parse of
//!   the printed form, the seeded generator, the HTML encoder) intern
//!   to the same [`TreeId`] and share the canonical allocation;
//! * **injectivity** — structurally distinct trees never share an id;
//! * **thread safety** — concurrent threads racing to intern the same
//!   structures agree on every id, and the winning canonical node is
//!   shared by all of them;
//! * **top-down resolution** — the parser's probe-and-verify path
//!   returns the same id as node-by-node construction, for documents
//!   already interned, never seen, or partly seen, at any depth;
//! * **label identity** — label ids are equal iff labels are equal,
//!   whichever way the label reached the table: owned, borrowed, a
//!   tree's canonical handle, the parser, or the HTML encoder.

use fast_smt::{Label, LabelSig, Sort, Value};
use fast_trees::{html_type, HtmlDoc, HtmlElem, HtmlGen, LabelId, Tree, TreeGen, TreeType};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

fn mixed_type() -> Arc<TreeType> {
    TreeType::new(
        "M",
        LabelSig::new(vec![
            ("n".into(), Sort::Int),
            ("s".into(), Sort::Str),
            ("b".into(), Sort::Bool),
        ]),
        vec![("z", 0), ("u", 1), ("p", 2)],
    )
}

fn label() -> impl Strategy<Value = Label> {
    (-1000i64..1000, "[a-z\"\\\\]{0,5}", any::<bool>())
        .prop_map(|(n, s, b)| Label::new(vec![Value::Int(n), Value::Str(s), Value::Bool(b)]))
}

fn tree() -> impl Strategy<Value = Tree> {
    let ty = mixed_type();
    let z = ty.ctor_id("z").unwrap();
    let u = ty.ctor_id("u").unwrap();
    let p = ty.ctor_id("p").unwrap();
    let leaf = label().prop_map(move |l| Tree::leaf(z, l));
    leaf.prop_recursive(5, 40, 2, move |inner| {
        prop_oneof![
            (label(), inner.clone()).prop_map(move |(l, c)| Tree::new(u, l, vec![c])),
            (label(), inner.clone(), inner)
                .prop_map(move |(l, a, b)| { Tree::new(p, l, vec![a, b]) }),
        ]
    })
}

/// A tree described without interning it, so its printed form can be
/// parsed before any of it is in the table.
#[derive(Debug, Clone)]
struct Shape {
    n: i64,
    s: String,
    b: bool,
    kids: Vec<Shape>,
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = (-1000i64..1000, "[a-z\"\\\\]{0,5}", any::<bool>()).prop_map(|(n, s, b)| Shape {
        n,
        s,
        b,
        kids: Vec::new(),
    });
    leaf.prop_recursive(5, 40, 2, |inner| {
        (
            -1000i64..1000,
            "[a-z]{0,3}",
            any::<bool>(),
            proptest::collection::vec(inner, 1..3),
        )
            .prop_map(|(n, s, b, kids)| Shape { n, s, b, kids })
    })
}

/// A label offset no other test (or case) uses: shifting every int by
/// it makes a shape's nodes new to the table.
fn fresh_salt() -> i64 {
    static NEXT: AtomicI64 = AtomicI64::new(1 << 40);
    NEXT.fetch_add(1 << 20, Ordering::Relaxed)
}

/// `sh` in `Tree::display` syntax, every int label shifted by `salt`.
fn text(sh: &Shape, salt: i64) -> String {
    let ctor = ["z", "u", "p"][sh.kids.len()];
    let mut out = format!("{ctor}[{}, {:?}, {}]", sh.n + salt, sh.s, sh.b);
    if !sh.kids.is_empty() {
        let kids: Vec<String> = sh.kids.iter().map(|k| text(k, salt)).collect();
        write!(out, "({})", kids.join(", ")).unwrap();
    }
    out
}

/// `sh` built node by node through `Tree::new`.
fn build(sh: &Shape, salt: i64) -> Tree {
    let ty = mixed_type();
    let ctor = ty.ctor_id(["z", "u", "p"][sh.kids.len()]).unwrap();
    let label = Label::new(vec![
        Value::Int(sh.n + salt),
        Value::Str(sh.s.clone()),
        Value::Bool(sh.b),
    ]);
    Tree::new(
        ctor,
        label,
        sh.kids.iter().map(|k| build(k, salt)).collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Top-down resolution agrees with construction whether the parsed
    /// document is new to the table, already in it, or new above
    /// subtrees that are: `parse(display(t))` returns `t`'s id.
    #[test]
    fn parse_resolves_to_the_constructed_id(sh in shape()) {
        let ty = mixed_type();
        let salt = fresh_salt();
        let printed = text(&sh, salt);
        let unseen = Tree::parse(&ty, &printed).unwrap();
        let t = build(&sh, salt);
        prop_assert_eq!(unseen.id(), t.id());
        prop_assert!(unseen.ptr_eq(&t));
        let seen = Tree::parse(&ty, &t.display(&ty).to_string()).unwrap();
        prop_assert_eq!(seen.id(), t.id());
        // A new root over two interned subtrees.
        let p = ty.ctor_id("p").unwrap();
        let label = Label::new(vec![Value::Int(salt - 1), Value::Str("new".into()), Value::Bool(true)]);
        let over = Tree::new(p, label, vec![t.clone(), t]);
        let parsed = Tree::parse(&ty, &format!("p[{}, \"new\", true]({printed}, {printed})", salt - 1)).unwrap();
        prop_assert_eq!(parsed.id(), over.id());
    }

    /// Parsing the printed form rebuilds the tree node by node through
    /// a completely different code path — yet every subtree must land
    /// on the same canonical id and allocation.
    #[test]
    fn parse_of_printed_form_interns_to_same_id(t in tree()) {
        let ty = mixed_type();
        let printed = t.display(&ty).to_string();
        let reparsed = Tree::parse(&ty, &printed).unwrap();
        prop_assert_eq!(t.id(), reparsed.id());
        prop_assert!(t.ptr_eq(&reparsed));
        // Recursively: every subtree pair agrees too.
        for (a, b) in t.iter().zip(reparsed.iter()) {
            prop_assert_eq!(a.id(), b.id());
        }
    }

    /// Two independently built trees share an id **iff** they are
    /// structurally equal (injectivity in both directions).
    #[test]
    fn ids_coincide_iff_structurally_equal(a in tree(), b in tree()) {
        let ty = mixed_type();
        let same_structure =
            a.display(&ty).to_string() == b.display(&ty).to_string();
        prop_assert_eq!(a.id() == b.id(), same_structure);
    }
}

/// A type whose label has one field of each of the four sorts.
fn all_sorts_type() -> Arc<TreeType> {
    TreeType::new(
        "S4",
        LabelSig::new(vec![
            ("n".into(), Sort::Int),
            ("s".into(), Sort::Str),
            ("b".into(), Sort::Bool),
            ("c".into(), Sort::Char),
        ]),
        vec![("z", 0), ("u", 1)],
    )
}

/// Labels over small domains of every sort, so two draws are often
/// equal and often differ in one field only.
fn all_sorts_label() -> impl Strategy<Value = Label> {
    (
        -2i64..3,
        prop_oneof![Just(String::new()), "[ab\"\\\\]{1,9}"],
        any::<bool>(),
        prop_oneof![Just('a'), Just('\0'), Just('é'), Just('\'')],
    )
        .prop_map(|(n, s, b, c)| {
            Label::new(vec![
                Value::Int(n),
                Value::Str(s),
                Value::Bool(b),
                Value::Char(c),
            ])
        })
}

/// The label id `label` gets through every source: owned, borrowed,
/// another tree's canonical handle, and a parse of the printed node.
/// All must agree.
fn label_id_via_every_source(ty: &TreeType, label: &Label) -> LabelId {
    let (z, u) = (ty.ctor_id("z").unwrap(), ty.ctor_id("u").unwrap());
    let owned = Tree::leaf(z, label.clone());
    let borrowed = Tree::leaf(z, label);
    let handle = Tree::new(u, owned.interned_label(), vec![borrowed.clone()]);
    let parsed = Tree::parse(ty, &handle.display(ty).to_string()).unwrap();
    let id = owned.label_id();
    for t in [&borrowed, &handle, &parsed, parsed.child(0)] {
        assert_eq!(t.label_id(), id, "{label}");
        assert_eq!(t.label(), label);
    }
    assert!(handle.interned_label().ptr_eq(owned.interned_label()));
    id
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Label ids are equal iff labels are equal, over all four value
    /// sorts and every construction source.
    #[test]
    fn label_ids_coincide_iff_labels_are_equal(a in all_sorts_label(), b in all_sorts_label()) {
        let ty = all_sorts_type();
        let (ia, ib) = (label_id_via_every_source(&ty, &a), label_id_via_every_source(&ty, &b));
        prop_assert_eq!(ia == ib, a == b);
    }

    /// The HTML encoder is one more source: across an encoded document,
    /// nodes share a label id iff their labels are equal, and a borrowed
    /// lookup of each label finds the encoder's entry.
    #[test]
    fn html_labels_intern_once(seed in 0u64..1_000) {
        let ty = html_type();
        let doc = HtmlGen::new(seed).doc_of_size(300).encode(&ty);
        let mut by_label: HashMap<&Label, LabelId> = HashMap::new();
        let mut by_id: HashMap<LabelId, &Label> = HashMap::new();
        for t in doc.iter() {
            prop_assert_eq!(*by_label.entry(t.label()).or_insert(t.label_id()), t.label_id());
            prop_assert_eq!(*by_id.entry(t.label_id()).or_insert(t.label()), t.label());
        }
        let nil = ty.ctor_id("nil").unwrap();
        for (label, id) in &by_label {
            prop_assert_eq!(Tree::leaf(nil, *label).label_id(), *id);
        }
    }
}

/// The seeded generator and a parse of its output — third and fourth
/// construction paths — also converge, on trees with richer labels
/// (ints, strings with escapes, bools).
#[test]
fn generator_and_parser_converge() {
    let ty = mixed_type();
    let mut g = TreeGen::new(42).with_max_depth(6).with_int_range(-50, 50);
    for t in g.trees(&ty, 40) {
        let back = Tree::parse(&ty, &t.display(&ty).to_string()).unwrap();
        assert_eq!(t.id(), back.id());
        assert!(t.ptr_eq(&back));
    }
}

/// The HTML encoder (Fig. 3) is a fifth construction path: encoding the
/// same document twice from scratch yields the same interned tree, and
/// a shared fragment appearing under two different parents interns once.
#[test]
fn html_encoding_interns_deterministically() {
    let ty = html_type();
    let mut g = HtmlGen::new(7);
    for _ in 0..10 {
        let doc = g.doc_of_size(512);
        let e1 = doc.encode(&ty);
        let e2 = doc.encode(&ty);
        assert_eq!(e1.id(), e2.id());
        assert!(e1.ptr_eq(&e2));
    }
    // One fragment, two parents: the subtree for `frag` is the same
    // canonical node in both encodings.
    let frag = HtmlElem::new("span").with_attr("class", "x");
    let d1 = HtmlDoc::new(vec![HtmlElem::new("div").with_child(frag.clone())]);
    let d2 = HtmlDoc::new(vec![HtmlElem::new("p").with_child(frag)]);
    let (t1, t2) = (d1.encode(&ty), d2.encode(&ty));
    assert_ne!(t1.id(), t2.id());
    // div[...](span-subtree, ...) vs p[...](span-subtree, ...): find the
    // shared span node by scanning both trees for equal subtrees.
    let shared = t1
        .iter()
        .any(|a| t2.iter().any(|b| a.id() == b.id() && a.size() > 1));
    assert!(shared, "the common fragment must intern to one node");
}

/// Threads racing to intern the same structures must agree on every id;
/// distinct structures must get distinct ids even under contention.
#[test]
fn concurrent_interning_is_consistent() {
    let ty = mixed_type();
    let z = ty.ctor_id("z").unwrap();
    let u = ty.ctor_id("u").unwrap();
    const THREADS: usize = 8;
    const CHAINS: i64 = 64;

    // Each thread builds the same CHAINS unary chains (depth = seed)
    // from scratch and reports their root ids.
    let build = |seed: i64| -> Tree {
        let mut t = Tree::leaf(
            z,
            Label::new(vec![
                Value::Int(seed),
                Value::Str(String::new()),
                Value::Bool(false),
            ]),
        );
        for d in 0..(seed % 17) + 1 {
            t = Tree::new(
                u,
                Label::new(vec![
                    Value::Int(d),
                    Value::Str("x".into()),
                    Value::Bool(d % 2 == 0),
                ]),
                vec![t],
            );
        }
        t
    };

    let ids: Vec<Vec<(fast_trees::TreeId, Tree)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..CHAINS)
                        .map(|s| {
                            let t = build(s);
                            (t.id(), t)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All threads agree with thread 0, and share its allocations.
    for per_thread in &ids[1..] {
        for (i, (id, t)) in per_thread.iter().enumerate() {
            assert_eq!(*id, ids[0][i].0, "chain {i}: divergent ids across threads");
            assert!(
                t.ptr_eq(&ids[0][i].1),
                "chain {i}: duplicate canonical node"
            );
        }
    }
    // Distinct structures stay distinct.
    let mut sorted: Vec<u64> = ids[0].iter().map(|(id, _)| id.as_u64()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        CHAINS as usize,
        "distinct chains shared an id"
    );
}

/// Threads parsing overlapping documents at once — shared subtrees,
/// each document new to the table — end with identical ids for every
/// document and every subtree, and share the canonical nodes.
#[test]
fn concurrent_parses_of_overlapping_documents_agree() {
    const THREADS: usize = 8;
    const DOCS: usize = 12;
    let salt = fresh_salt();
    let leaf = |i: usize| format!("z[{}, \"l\", false]", salt + i as i64);
    let mid = |i: usize| {
        format!(
            "p[{}, \"m\", true]({}, {})",
            salt + 100 + i as i64,
            leaf(i),
            leaf(i + 1)
        )
    };
    let docs: Vec<String> = (0..DOCS)
        .map(|k| {
            format!(
                "p[{}, \"d\", false]({}, u[{}, \"u\", true]({}))",
                salt + 200 + k as i64,
                mid(k % 4),
                salt + 300 + (k % 2) as i64,
                mid((k + 1) % 4)
            )
        })
        .collect();
    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<Vec<Tree>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|th| {
                let (docs, barrier) = (&docs, &barrier);
                scope.spawn(move || {
                    let ty = mixed_type();
                    barrier.wait();
                    // Each thread starts at a different document.
                    let mut out: Vec<(usize, Tree)> = (0..DOCS)
                        .map(|i| (i + th) % DOCS)
                        .map(|k| (k, Tree::parse(&ty, &docs[k]).unwrap()))
                        .collect();
                    out.sort_by_key(|(k, _)| *k);
                    out.into_iter().map(|(_, t)| t).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for trees in &per_thread[1..] {
        for (a, b) in trees.iter().zip(&per_thread[0]) {
            assert!(a.ptr_eq(b), "divergent canonical nodes across threads");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.id(), y.id());
            }
        }
    }
    let mut ids: Vec<u64> = per_thread[0].iter().map(|t| t.id().as_u64()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), DOCS, "distinct documents shared an id");
}

/// A 200 000-deep right-nested document parses, prints and re-parses on
/// a thread with the default stack: no step of the path recurses per
/// level.
#[test]
fn deep_right_nested_input_round_trips_on_a_default_stack() {
    const DEPTH: usize = 200_000;
    let salt = fresh_salt();
    let leaf = format!("z[{salt}, \"\", false]");
    let mut input = String::new();
    for i in 0..DEPTH {
        write!(input, "p[{}, \"\", true]({leaf}, ", i % 7).unwrap();
    }
    input.push_str(&leaf);
    input.push_str(&")".repeat(DEPTH));
    std::thread::Builder::new()
        .spawn(move || {
            let ty = mixed_type();
            let t = Tree::parse(&ty, &input).unwrap();
            let printed = t.display(&ty).to_string();
            assert!(printed == input, "display is not the parsed text");
            assert_eq!(Tree::parse(&ty, &printed).unwrap().id(), t.id());
            let mut depth = 0;
            let mut node = &t;
            while let [_, right] = node.children() {
                depth += 1;
                node = right;
            }
            assert_eq!(depth, DEPTH);
        })
        .unwrap()
        .join()
        .unwrap();
}
