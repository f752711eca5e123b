//! `Formula::eval` evaluates its atoms through the borrowing
//! `Term::eval_ref`. These properties pin it to a reference evaluator
//! built only on the owned `Term::eval`, over random formulas with every
//! atom kind, string atoms over `StrLen`, `Concat` and `Ite`, literals on
//! either side of a comparison, and labels whose fields have random
//! sorts. Ill-sorted operands, out-of-range fields and overflow must all
//! make an atom false, exactly as before.

use fast_smt::{Atom, CmpOp, Formula, Label, Term, Value};
use proptest::prelude::*;
use std::borrow::Cow;

// ---------- reference: the owned evaluator ----------

fn ref_atom(a: &Atom, l: &Label) -> bool {
    match a {
        Atom::Cmp(op, x, y) => match (x.eval(l), y.eval(l)) {
            (Ok(x), Ok(y)) if x.sort() == y.sort() => op.test(x.cmp(&y)),
            _ => false,
        },
        Atom::BoolTerm(t) => t.eval(l) == Ok(Value::Bool(true)),
        Atom::StrPrefix(t, p) => {
            matches!(t.eval(l), Ok(Value::Str(s)) if s.starts_with(p.as_str()))
        }
        Atom::StrSuffix(t, p) => matches!(t.eval(l), Ok(Value::Str(s)) if s.ends_with(p.as_str())),
        Atom::StrContains(t, p) => matches!(t.eval(l), Ok(Value::Str(s)) if s.contains(p.as_str())),
    }
}

fn ref_formula(f: &Formula, l: &Label) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => ref_atom(a, l),
        Formula::Not(g) => !ref_formula(g, l),
        Formula::And(fs) => fs.iter().all(|g| ref_formula(g, l)),
        Formula::Or(fs) => fs.iter().any(|g| ref_formula(g, l)),
    }
}

// ---------- strategies ----------

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int),
        prop_oneof![Just(i64::MAX), Just(i64::MIN), Just(i64::MAX - 1)].prop_map(Value::Int),
        "[a-c]{0,3}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        prop_oneof![Just('a'), Just('b'), Just('z')].prop_map(Value::Char),
    ]
}

/// Labels of arity 0–3 with a random sort per field, so a field term
/// may be out of range or of any sort.
fn label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(value(), 0..4).prop_map(Label::new)
}

/// Fields (0–3, so sometimes past the label's arity) and literals.
fn leaf_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        2 => (0usize..4).prop_map(Term::field),
        1 => value().prop_map(Term::Lit),
    ]
}

fn op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// An `Ite` condition: one comparison between leaves.
fn condition() -> impl Strategy<Value = Formula> {
    (op(), leaf_term(), leaf_term()).prop_map(|(o, a, b)| Formula::cmp(o, a, b))
}

/// Untyped terms: integer arithmetic (overflowing near the `i64`
/// bounds), string concatenation and length, and conditionals, over
/// operands of any sort.
fn term() -> impl Strategy<Value = Term> {
    leaf_term().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            inner.clone().prop_map(Term::neg),
            (inner.clone(), 1u32..5).prop_map(|(a, m)| a.modulo(m)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.concat(b)),
            inner.clone().prop_map(|a| Term::StrLen(Box::new(a))),
            (condition(), inner.clone(), inner).prop_map(|(c, a, b)| Term::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        3 => (op(), term(), term()).prop_map(|(o, a, b)| Atom::Cmp(o, a, b)),
        1 => term().prop_map(Atom::BoolTerm),
        1 => (term(), "[a-c]{0,2}").prop_map(|(t, p)| Atom::StrPrefix(t, p)),
        1 => (term(), "[a-c]{0,2}").prop_map(|(t, p)| Atom::StrSuffix(t, p)),
        1 => (term(), "[a-c]{0,2}").prop_map(|(t, p)| Atom::StrContains(t, p)),
    ]
}

/// Formulas built with the raw constructors, so no smart-constructor
/// simplification hides an atom.
fn formula() -> impl Strategy<Value = Formula> {
    let base = prop_oneof![
        6 => atom().prop_map(Formula::Atom),
        1 => Just(Formula::True),
        1 => Just(Formula::False),
    ];
    base.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Formula::And),
            proptest::collection::vec(inner, 0..3).prop_map(Formula::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Borrowed formula evaluation equals the owned reference.
    #[test]
    fn formula_eval_matches_owned_reference(f in formula(), l in label()) {
        prop_assert_eq!(f.eval(&l), ref_formula(&f, &l), "{} on {:?}", f, l);
    }

    /// `eval_ref` is `eval` without the copy: same value or same error,
    /// and a field or literal (also through `Ite`) comes back borrowed.
    #[test]
    fn eval_ref_matches_eval(t in term(), l in label()) {
        let borrowed = t.eval_ref(&l);
        if let (Term::Field(_) | Term::Lit(_), Ok(v)) = (&t, &borrowed) {
            prop_assert!(matches!(v, Cow::Borrowed(_)), "{} copied", t);
        }
        prop_assert_eq!(borrowed.map(Cow::into_owned), t.eval(&l), "{} on {:?}", t, l);
    }
}

#[test]
fn sort_mismatch_and_overflow_are_false() {
    let l = Label::new(vec![Value::Int(i64::MAX), Value::Str("ab".into())]);
    let x0 = Term::field(0);
    let x1 = Term::field(1);
    let cases = [
        // An Int field against a Str literal, on either side.
        Formula::eq(x0.clone(), Term::str("ab")),
        Formula::ne(Term::str("ab"), x0.clone()),
        // A field past the label's arity.
        Formula::eq(Term::field(5), Term::field(5)),
        // Overflow on either side.
        Formula::eq(x0.clone().add(Term::int(1)), x0.clone()),
        Formula::ne(x0.clone(), x0.clone().mul(Term::int(2))),
        // String atoms over non-strings and over an overflowing length.
        Formula::atom(Atom::StrPrefix(x0.clone(), String::new())),
        Formula::atom(Atom::StrContains(
            Term::StrLen(Box::new(x0.clone())),
            String::new(),
        )),
        Formula::atom(Atom::BoolTerm(x1.clone())),
        Formula::cmp(
            CmpOp::Lt,
            Term::StrLen(Box::new(x1.clone())).add(x0.clone()),
            Term::int(0),
        ),
    ];
    for f in &cases {
        assert!(!f.eval(&l), "{f} must be false");
        assert!(!ref_formula(f, &l), "{f}: reference disagrees");
        // Negation of a false atom is true: errors are false, not absent.
        assert!(Formula::Not(Box::new(f.clone())).eval(&l), "not {f}");
    }
    // And the well-sorted versions hold.
    assert!(Formula::eq(x1.clone(), Term::str("ab")).eval(&l));
    assert!(Formula::atom(Atom::StrSuffix(x1.clone(), "b".into())).eval(&l));
    assert!(Formula::eq(Term::StrLen(Box::new(x1)), Term::int(2)).eval(&l));
    let ite = Term::Ite(
        Box::new(Formula::eq(x0.clone(), Term::int(i64::MAX))),
        Box::new(Term::str("yes")),
        Box::new(x0),
    );
    assert!(matches!(ite.eval_ref(&l), Ok(Cow::Borrowed(Value::Str(s))) if s == "yes"));
}
