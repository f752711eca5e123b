//! Exact `intern.hits` / `intern.misses` and `intern.label_hits` /
//! `intern.label_misses` accounting for parsed and built trees. The
//! counters are process-global, so this file holds a single test: its
//! own test binary, with no other test interning concurrently.

use fast_smt::{Label, LabelSig, Sort};
use fast_trees::{intern, Tree, TreeType};

fn counts() -> (u64, u64) {
    let snap = fast_obs::snapshot();
    (snap.get("intern.hits"), snap.get("intern.misses"))
}

fn label_counts() -> (u64, u64) {
    let snap = fast_obs::snapshot();
    (
        snap.get("intern.label_hits"),
        snap.get("intern.label_misses"),
    )
}

/// The `(hits, misses)` deltas of `f` on both tables: nodes, then labels.
fn deltas<T>(f: impl FnOnce() -> T) -> (T, (u64, u64), (u64, u64)) {
    let (n0, l0) = (counts(), label_counts());
    let out = f();
    let (n1, l1) = (counts(), label_counts());
    (out, (n1.0 - n0.0, n1.1 - n0.1), (l1.0 - l0.0, l1.1 - l0.1))
}

/// Every parsed node is counted once, as a hit (resolved to an existing
/// canonical node) or a miss (a new one): a subtree verified at its
/// root adds its whole size to `intern.hits` in one add.
#[test]
fn parsing_counts_each_node_once() {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    // 7 nodes, two of them the same leaf.
    let doc = "N[1](N[2](L[3], L[4]), N[5](L[3], L[6]))";
    let n = 7;

    let before = counts();
    let t = Tree::parse(&ty, doc).unwrap();
    let (hits, misses) = counts();
    assert_eq!(
        (hits - before.0, misses - before.1),
        (1, n - 1),
        "new document"
    );

    // Already interned: one verified probe at the root.
    let before = counts();
    assert_eq!(Tree::parse(&ty, doc).unwrap().id(), t.id());
    let (hits, misses) = counts();
    assert_eq!(
        (hits - before.0, misses - before.1),
        (n, 0),
        "interned document"
    );

    // A new root over two interned subtrees: both verified whole.
    let before = counts();
    Tree::parse(&ty, &format!("N[0]({doc}, {doc})")).unwrap();
    let (hits, misses) = counts();
    assert_eq!((hits - before.0, misses - before.1), (2 * n, 1), "new root");

    labels_are_counted_once_per_lookup(&ty);
}

/// A label lookup is a hit or a miss; a tree's canonical handle is no
/// lookup at all; and a label's misses are the label table's growth.
fn labels_are_counted_once_per_lookup(ty: &TreeType) {
    let (l, n) = (ty.ctor_id("L").unwrap(), ty.ctor_id("N").unwrap());
    let len = intern::label_table_len();

    // A parse of five nodes, four of them distinct (L[7] twice), over
    // four new labels: each built node looks its label up once.
    let (t, nodes, labels) = deltas(|| Tree::parse(ty, "N[11](N[12](L[7], L[7]), L[13])").unwrap());
    assert_eq!(
        nodes,
        (1, 4),
        "parsed nodes: L[7] is built once and found once"
    );
    assert_eq!(labels, (0, 4), "parsed labels: one lookup per built node");
    assert_eq!(intern::label_table_len(), len + 4);

    // Owned and borrowed labels the table holds: hits, no misses.
    let seven = Label::single(7i64);
    let (_, nodes, labels) = deltas(|| (Tree::leaf(l, seven.clone()), Tree::leaf(l, &seven)));
    assert_eq!((nodes, labels), ((2, 0), (2, 0)), "known labels");

    // The handle of a tree's label: a new node, no label lookup.
    let (_, nodes, labels) =
        deltas(|| Tree::new(n, t.interned_label(), vec![t.clone(), t.clone()]));
    assert_eq!((nodes, labels), ((0, 1), (0, 0)), "canonical handle");

    // A new label: one miss, then hits.
    let (_, _, labels) = deltas(|| {
        (0..3)
            .map(|_| Tree::leaf(l, Label::single(14i64)))
            .collect::<Vec<_>>()
    });
    assert_eq!(labels, (2, 1), "a new label, three times");
    assert_eq!(intern::label_table_len(), len + 5);

    // A parse resolves each distinct label of the document once: two
    // new nodes carrying one new label look it up once, not twice.
    let (_, nodes, labels) = deltas(|| Tree::parse(ty, "N[21](L[21], L[22])").unwrap());
    assert_eq!(nodes, (0, 3), "three new nodes");
    assert_eq!(labels, (0, 2), "label 21 looked up once for both nodes");

    // A label the parse has already compared against a canonical label
    // (while verifying an interned subtree) needs no lookup at all.
    let (_, nodes, labels) = deltas(|| Tree::parse(ty, "N[7](L[7], L[13])").unwrap());
    assert_eq!(nodes, (2, 1), "two interned leaves, one new root");
    assert_eq!(labels, (0, 0), "label 7 was verified on L[7]");
    assert_eq!(intern::label_table_len(), len + 7);
}
