//! The antichain inclusion search against the complement-based oracle
//! `is_empty(&difference(a, b))` on every pair of same-typed languages
//! the shipped `programs/*.fast` define.
//!
//! The oracle decides through determinization and treats a minterm the
//! solver cannot decide as satisfiable, so it may report a non-empty
//! difference that holds no tree; the search must never do the reverse
//! and report "not included" where the oracle proves inclusion. Every
//! counterexample the search returns must be a real one.

mod common;

use common::programs;
use fast::automata::{inclusion, Verdict};
use fast::prelude::*;

#[test]
fn search_never_refutes_an_oracle_inclusion() {
    let mut pairs = 0usize;
    for (file, src) in programs() {
        let c = compile(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        let names = c.lang_names();
        for &x in &names {
            for &y in &names {
                if c.lang_type(x) != c.lang_type(y) {
                    continue;
                }
                let (a, b) = (c.lang(x).unwrap(), c.lang(y).unwrap());
                let Ok(verdict) = inclusion(a, b) else {
                    continue;
                };
                pairs += 1;
                if let Some(w) = verdict.counterexample() {
                    assert!(a.accepts(w), "{file}: {x} ⊆ {y}: counterexample not in {x}");
                    assert!(!b.accepts(w), "{file}: {x} ⊆ {y}: counterexample in {y}");
                }
                let oracle = difference(a, b).and_then(|d| is_empty(&d));
                if oracle == Ok(true) {
                    assert_eq!(verdict, Verdict::Holds, "{file}: {x} ⊆ {y}");
                }
            }
        }
    }
    assert!(pairs > 100, "only {pairs} language pairs decided");
}

#[test]
fn css_offending_is_equivalent_to_itself() {
    let (_, src) = programs()
        .into_iter()
        .find(|(f, _)| f == "css.fast")
        .unwrap();
    let c = compile(&format!("{src}\nassert-true offending == offending\n")).unwrap();
    let last = c.report().assertions.last().unwrap();
    assert_eq!(last.description, "language equivalence");
    assert!(c.report().all_passed());
}

/// `offending \ offending` holds no tree, but its complement keeps string
/// minterms the solver cannot decide, so emptiness finds it possibly
/// inhabited with no member to show: undecided, not a failed assertion.
/// It is reported as such, and the program's other assertions still run.
#[test]
fn css_self_difference_is_undecided_not_failed() {
    let (_, src) = programs()
        .into_iter()
        .find(|(f, _)| f == "css.fast")
        .unwrap();
    let c = compile(&format!(
        "{src}\nassert-true (is-empty (difference offending offending))\n"
    ))
    .expect("an undecided assertion is not a compile error");
    let report = c.report();
    let (last, rest) = report.assertions.split_last().unwrap();
    assert!(!rest.is_empty() && rest.iter().all(|a| a.passed()));
    assert!(!last.passed(), "an undecided assertion never passes");
    assert!(
        last.counterexample.is_none(),
        "no member, so no FAIL with one"
    );
    let reason = last.undecided.as_deref().expect("reported as undecided");
    assert!(reason.contains("not provably empty"), "{reason}");
    assert!(!report.all_passed());
}
