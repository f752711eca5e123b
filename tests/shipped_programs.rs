//! The shipped `programs/*.fast` as checks: their assertions hold (the
//! `*buggy*` ones exist to fail), and the emptiness procedure agrees with
//! the antichain search on every language and transducer domain they
//! define.

mod common;

use common::programs;
use fast::automata::{emptiness, inclusion};
use fast::prelude::*;

#[test]
fn shipped_assertions_hold_and_buggy_programs_fail_one() {
    for (file, src) in programs() {
        let c = compile(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        let report = c.report();
        assert!(!report.assertions.is_empty(), "{file}: no assertions");
        if file.contains("buggy") {
            assert!(!report.all_passed(), "{file}: every assertion passed");
        } else {
            let failed: Vec<_> = report
                .assertions
                .iter()
                .filter(|a| !a.passed())
                .map(|a| &a.description)
                .collect();
            assert!(failed.is_empty(), "{file}: failed {failed:?}");
        }
    }
}

/// `L = ∅` iff `L ⊆ ∅`: emptiness's fixpoint and the antichain search
/// are two deciders, and every member emptiness returns is accepted.
fn assert_deciders_agree(what: &str, sta: &Sta) {
    let verdict = emptiness(sta, &[sta.initial()].into()).unwrap();
    let mut b = StaBuilder::new(sta.ty().clone(), sta.alg().clone());
    let none = b.state("none");
    let empty = b.build(none);
    let search = inclusion(sta, &empty).unwrap();
    assert_eq!(verdict.holds(), search.holds(), "{what}");
    if let Some(w) = verdict.counterexample() {
        assert!(sta.accepts(w), "{what}: witness not a member");
    }
}

#[test]
fn emptiness_agrees_with_inclusion_in_the_empty_language() {
    let mut checked = 0usize;
    for (file, src) in programs() {
        let c = compile(&src).unwrap_or_else(|e| panic!("{file}: {e}"));
        for name in c.lang_names() {
            assert_deciders_agree(&format!("{file}: lang {name}"), c.lang(name).unwrap());
            checked += 1;
        }
        for name in c.transducer_names() {
            let domain = c.transducer(name).unwrap().domain();
            assert_deciders_agree(&format!("{file}: domain of {name}"), &domain);
            checked += 1;
        }
    }
    assert!(checked > 50, "only {checked} languages checked");
}
