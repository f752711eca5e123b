//! The label algebra's computed table: `and`, `or` and `not` are
//! memoized by operand ids, and a memoized result must be exactly the
//! handle `intern` gives the directly built formula — in argument order,
//! with or without simplification, from any thread — while the
//! `smt.ops.entries` gauge tracks the table's residency.

use fast_smt::{intern, BoolAlg, CmpOp, Formula, LabelAlg, LabelSig, Sort, Term};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// The gauge is process-wide, so the tests of this binary take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn ops_entries() -> u64 {
    fast_obs::snapshot().gauge("smt.ops.entries")
}

fn int_alg() -> LabelAlg {
    LabelAlg::new(LabelSig::single("i", Sort::Int))
}

fn int_formula() -> impl Strategy<Value = Formula> {
    let term = prop_oneof![
        Just(Term::field(0)),
        (-6i64..6).prop_map(Term::int),
        (2u32..5).prop_map(|m| Term::field(0).modulo(m)),
    ];
    let atom = (
        prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne), Just(CmpOp::Lt)],
        term.clone(),
        term,
    )
        .prop_map(|(op, a, b)| Formula::cmp(op, a, b));
    atom.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
}

/// What each connective of `alg` must return: `intern` of the formula
/// built directly, as the algebra built it before it had a table.
fn direct_and(simplify: bool, a: &Formula, b: &Formula) -> Formula {
    if simplify {
        a.clone().and(b.clone())
    } else {
        Formula::And(vec![a.clone(), b.clone()])
    }
}

fn direct_or(simplify: bool, a: &Formula, b: &Formula) -> Formula {
    if simplify {
        a.clone().or(b.clone())
    } else {
        Formula::Or(vec![a.clone(), b.clone()])
    }
}

fn direct_not(simplify: bool, a: &Formula) -> Formula {
    if simplify {
        a.clone().not()
    } else {
        Formula::Not(Box::new(a.clone()))
    }
}

fn check_connectives(simplify: bool, f: Formula, g: Formula) {
    let alg = if simplify {
        int_alg()
    } else {
        int_alg().without_simplification()
    };
    let (a, b) = (intern(f.clone()), intern(g.clone()));
    // `p ∧ p` and `p ∨ p` answer `p` without building anything.
    let expect = |op: fn(bool, &Formula, &Formula) -> Formula, x: &Formula, y: &Formula| {
        if x == y {
            intern(x.clone())
        } else {
            intern(op(simplify, x, y))
        }
    };
    for _ in 0..2 {
        // Both orders, each twice: the second round is answered by the
        // table and must give the first round's handles.
        let ab = alg.and(&a, &b);
        let ba = alg.and(&b, &a);
        prop_assert_eq!(ab.id(), expect(direct_and, &f, &g).id());
        prop_assert_eq!(ba.id(), expect(direct_and, &g, &f).id());
        prop_assert!(alg.and(&a, &b).ptr_eq(&ab));
        prop_assert!(alg.and(&b, &a).ptr_eq(&ba));

        let ab = alg.or(&a, &b);
        let ba = alg.or(&b, &a);
        prop_assert_eq!(ab.id(), expect(direct_or, &f, &g).id());
        prop_assert_eq!(ba.id(), expect(direct_or, &g, &f).id());
        prop_assert!(alg.or(&a, &b).ptr_eq(&ab));
        prop_assert!(alg.or(&b, &a).ptr_eq(&ba));

        let na = alg.not(&a);
        prop_assert_eq!(na.id(), intern(direct_not(simplify, &f)).id());
        prop_assert!(alg.not(&a).ptr_eq(&na));
        let nb = alg.not(&b);
        prop_assert_eq!(nb.id(), intern(direct_not(simplify, &g)).id());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The simplifying algebra's table returns what `intern` of the
    /// simplified connective returns, in both argument orders.
    #[test]
    fn memoized_connectives_match_direct_construction(f in int_formula(), g in int_formula()) {
        let _turn = serial();
        check_connectives(true, f, g);
    }

    /// The same for the plain algebra, whose `a ∧ b` and `b ∧ a` are
    /// always distinct formulas: an unordered key would answer one with
    /// the other.
    #[test]
    fn memoized_plain_connectives_match_direct_construction(
        f in int_formula(),
        g in int_formula(),
    ) {
        let _turn = serial();
        check_connectives(false, f, g);
    }
}

/// Eight threads building the same new conjunctions on one shared
/// algebra, all missing the table at once, get one handle per
/// conjunction, and the table holds one entry for it.
#[test]
fn threads_share_one_handle_per_conjunction() {
    let _turn = serial();
    const THREADS: usize = 8;
    const PAIRS: i64 = 48;
    let alg = Arc::new(int_alg());
    let before = ops_entries();
    let start = Arc::new(Barrier::new(THREADS));
    let atom = |k: i64| intern(Formula::eq(Term::field(0), Term::int(771_000 + k)));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let alg = Arc::clone(&alg);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                (0..PAIRS)
                    .map(|k| {
                        let (a, b) = (atom(2 * k), atom(2 * k + 1));
                        alg.and(&alg.not(&a), &b)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let rows: Vec<Vec<_>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for row in &rows[1..] {
        for (x, y) in rows[0].iter().zip(row) {
            assert!(x.ptr_eq(y), "one conjunction, one handle");
        }
    }
    for (k, got) in (0..PAIRS).zip(&rows[0]) {
        let direct = Formula::eq(Term::field(0), Term::int(771_000 + 2 * k))
            .not()
            .and(Formula::eq(Term::field(0), Term::int(771_000 + 2 * k + 1)));
        assert_eq!(got.id(), intern(direct).id());
    }
    // One `not` and one `and` entry per pair, however many threads
    // raced to insert them.
    assert_eq!(ops_entries() - before, 2 * PAIRS as u64);
}

/// `smt.ops.entries` rises by one per distinct connective, not per
/// call, and falls back by the algebra's whole table when it drops.
#[test]
fn ops_entries_gauge_follows_the_table() {
    let _turn = serial();
    let before = ops_entries();
    let alg = int_alg();
    const N: i64 = 20;
    for _ in 0..3 {
        for k in 0..N {
            let p = alg.pred(Formula::cmp(CmpOp::Lt, Term::field(0), Term::int(k)));
            let q = alg.pred(Formula::eq(Term::field(0).modulo(7), Term::int(k % 7)));
            alg.and(&p, &q);
            alg.or(&p, &q);
            alg.not(&p);
            // Trivial connectives never reach the table.
            alg.and(&p, &p);
            alg.or(&q, &q);
        }
        assert_eq!(ops_entries() - before, 3 * N as u64);
    }
    let other = int_alg();
    other.not(&other.tt());
    assert_eq!(ops_entries() - before, 3 * N as u64 + 1);
    drop(alg);
    assert_eq!(ops_entries() - before, 1);
    drop(other);
    assert_eq!(ops_entries(), before);
}
