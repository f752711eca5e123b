//! Exact `intern.hits` / `intern.misses` accounting for parsed
//! documents. The counters are process-global, so this file holds a
//! single test: its own test binary, with no other test interning
//! concurrently.

use fast_smt::{LabelSig, Sort};
use fast_trees::{Tree, TreeType};

fn counts() -> (u64, u64) {
    let snap = fast_obs::snapshot();
    (snap.get("intern.hits"), snap.get("intern.misses"))
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
}
