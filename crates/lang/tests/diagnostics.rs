//! Every class of compile-time diagnostic the front-end can raise, with
//! its message and (where interesting) its position.

use fast_lang::{compile, parse};

fn err(src: &str) -> String {
    compile(src).unwrap_err().to_string()
}

// ---- lexical ----

#[test]
fn lexical_errors() {
    assert!(err("type T { c(0) } lang p: T { c() where (x @ 1) }").contains("unexpected character"));
    assert!(
        err(r#"type T[s: String] { c(0) } lang p: T { c() where (s = "oops) }"#)
            .contains("unterminated")
    );
    assert!(err("type T { c(99999999999999999999) }").contains("out of range"));
}

// ---- syntactic ----

#[test]
fn syntactic_errors() {
    assert!(err("type").contains("expected identifier"));
    assert!(err("type T").contains("expected '{'"));
    assert!(err("type T { }").contains("expected identifier"));
    assert!(err("lang p : T").contains("expected '{'"));
    assert!(err("trans f: A B { }").contains("expected '->'"));
    assert!(err("def x : := y").contains("expected identifier"));
    assert!(err("banana").contains("expected a declaration"));
    assert!(err("assert-true (union a b) in c").contains("left side of 'in'"));
    // Position is the second line.
    let d = compile("type T { c(0) }\nlang p: T {").unwrap_err();
    assert_eq!(d.span.start.line, 2);
}

// ---- type-level ----

#[test]
fn type_errors() {
    // Unknown sort and unsupported Real.
    assert!(err("type T[r: Quux] { c(0) }").contains("unknown sort"));
    assert!(err("type T[r: Real] { c(0) }").contains("not supported"));
    // No nullary constructor.
    assert!(err("type T[i: Int] { n(2) }").contains("nullary"));
    // Duplicate definitions.
    assert!(err("type T { c(0) } type T { c(0) }").contains("already defined"));
    assert!(err("type T { c(0) } lang p: T { c() } lang p: T { c() }").contains("already defined"));
    assert!(err(
        "type T { c(0) } trans f: T -> T { c() to (c []) } trans f: T -> T { c() to (c []) }"
    )
    .contains("already defined"));
    // Unknown tree type.
    assert!(err("lang p: Nope { c() }").contains("unknown tree type"));
    // Mismatched in/out types.
    assert!(
        err("type A { a(0) } type B { b(0) } trans f: A -> B { a() to (a []) }")
            .contains("combined tree type")
    );
}

#[test]
fn rule_errors() {
    let prelude = "type T[i: Int] { c(0), n(2) }\n";
    // Arity.
    assert!(err(&format!("{prelude} lang p: T {{ n(x) }}")).contains("rank"));
    assert!(err(&format!("{prelude} lang p: T {{ q() }}")).contains("unknown constructor"));
    // Unbound variable in given.
    assert!(err(&format!(
        "{prelude} lang a: T {{ c() }} lang p: T {{ n(x, y) given (a z) }}"
    ))
    .contains("unbound variable"));
    // Unknown language in given.
    assert!(err(&format!(
        "{prelude} lang p: T {{ n(x, y) given (mystery x) }}"
    ))
    .contains("unknown language"));
    // Unknown attribute in guard.
    assert!(
        err(&format!("{prelude} lang p: T {{ c() where (z = 0) }}")).contains("unknown attribute")
    );
    // Sort mismatch in comparison.
    assert!(
        err(&format!("{prelude} lang p: T {{ c() where (i = \"x\") }}"))
            .contains("mismatched sorts")
    );
    // Ordering on strings.
    assert!(
        err("type S[s: String] { c(0) } lang p: S { c() where (s < \"x\") }")
            .contains("only supported for Int and Char")
    );
    // Non-Bool guard.
    assert!(err(&format!("{prelude} lang p: T {{ c() where (i + 1) }}")).contains("Bool guard"));
    // Bool used as value.
    assert!(err(&format!(
        "{prelude} trans f: T -> T {{ c() to (c [i = 0]) }}"
    ))
    .contains("expected a value expression"));
    assert!(err(&format!(
        "{prelude} trans f: T -> T {{ c() to (c [not (i = 0)]) }}"
    ))
    .contains("cannot be used as attribute values"));
    // Non-constant divisor.
    assert!(
        err(&format!("{prelude} lang p: T {{ c() where (i % i = 0) }}"))
            .contains("positive integer constant")
    );
    assert!(
        err(&format!("{prelude} lang p: T {{ c() where (i % 0 = 0) }}"))
            .contains("positive integer constant")
    );
}

#[test]
fn trans_errors() {
    let prelude = "type T[i: Int] { c(0), n(2) }\n";
    // Wrong attribute count in output.
    assert!(
        err(&format!("{prelude} trans f: T -> T {{ c() to (c []) }}")).contains("1 attribute(s)")
    );
    // Wrong child count in output.
    assert!(err(&format!("{prelude} trans f: T -> T {{ c() to (n [i]) }}")).contains("rank"));
    // Attribute sort mismatch in output.
    assert!(err(&format!(
        "{prelude} trans f: T -> T {{ c() to (c [\"s\"]) }}"
    ))
    .contains("sort"));
    // Unbound variable in output.
    assert!(
        err(&format!("{prelude} trans f: T -> T {{ c() to (f z) }}")).contains("unbound variable")
    );
    // Forward reference across trans blocks.
    assert!(
        err(&format!("{prelude} trans f: T -> T {{ c() to (g y) }}")).contains("unbound variable")
            || err(&format!("{prelude} trans f: T -> T {{ n(x, y) to (g y) }}"))
                .contains("unknown transformation")
    );
}

#[test]
fn def_and_tree_errors() {
    let prelude = "type T[i: Int] { c(0), n(2) }\nlang a: T { c() }\n";
    // Unknown names.
    assert!(err(&format!("{prelude} def x: T := (union a mystery)")).contains("unknown language"));
    assert!(err(&format!("{prelude} def x: T -> T := (compose f g)"))
        .contains("unknown transformation"));
    assert!(err(&format!("{prelude} tree t: T := missing")).contains("unknown tree"));
    // Declared-type mismatch.
    assert!(err(&format!(
        "type U {{ u(0) }}\n{prelude} lang b: U {{ u() }} def x: T := (union b b)"
    ))
    .contains("was declared"));
    // Mixed types in an operation.
    assert!(err(&format!(
        "type U {{ u(0) }}\n{prelude} lang b: U {{ u() }} def x: T := (union a b)"
    ))
    .contains("different tree types"));
    // Non-constant tree attribute.
    assert!(err(&format!("{prelude} tree t: T := (c [i])")).contains("must be constant"));
    // Witness of an empty language.
    assert!(err(&format!(
        "{prelude} lang e: T {{ c() where (i > 0 and i < 0) }} tree t: T := (get-witness e)"
    ))
    .contains("empty"));
    // Ambiguous leaf constructor across types.
    assert!(err("type A { z(0) } type B { z(0) } tree t: A := (z [])").contains("ambiguous"));
}

// ---- things that must NOT be errors ----

#[test]
fn forward_references_between_lang_blocks_are_fine() {
    let src = r#"
        type T[i: Int] { c(0), n(2) }
        lang p: T { n(x, y) given (q x) }
        lang q: T { c() }
    "#;
    assert!(compile(src).is_ok());
}

#[test]
fn parse_only_is_lenient_about_semantics() {
    // The parser accepts semantically wrong programs; the compiler rejects.
    let src = "type T { c(0) } lang p: T { c() where (mystery = 1) }";
    assert!(parse(src).is_ok());
    assert!(compile(src).is_err());
}

#[test]
fn failed_assertions_are_not_compile_errors() {
    let src = r#"
        type T[i: Int] { c(0) }
        lang a: T { c() where (i > 0) }
        assert-true (is-empty a)
    "#;
    let c = compile(src).unwrap();
    assert!(!c.report().all_passed());
    assert_eq!(c.report().assertions.len(), 1);
    assert!(c.report().assertions[0].counterexample.is_some());
}

/// `z[46340]` breaks the contract (46340² = 2147395600 and `z[1]` is not
/// in `zero`), but the solver finds no model of the guard. A `type-check`
/// it can neither prove nor refute has no truth value: it is reported as
/// undecided, not evaluated to `false`, and it never passes — not even
/// as `assert-false`.
#[test]
fn undecided_type_check_is_reported_not_evaluated() {
    let src = r#"
        type T[i: Int] { z(0), s(1) }
        lang anyT: T { z() | s(x) given (anyT x) }
        lang zero: T { z() where (i = 0) }
        trans f: T -> T { z() where (i * i = 2147395600) to (z [1]) }
        assert-false (type-check anyT f zero)
    "#;
    let c = compile(src).unwrap();
    let a = &c.report().assertions[0];
    assert!(!a.passed());
    assert!(a.counterexample.is_none());
    assert!(a.undecided.is_some());
    assert!(!c.report().all_passed());
}
