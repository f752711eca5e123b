//! The contract check ([`fast_core::check_pipeline`]) on programs stated
//! in the Fast language: its verdicts agree with the declared languages,
//! a `Violated` counterexample replays through the stages, and a
//! contract the procedure cannot prove is never called satisfied.

use fast_core::{check_pipeline, PipelineOutcome};
use fast_lang::{Compiled, DiagSink};

fn compile(src: &str) -> Compiled {
    let program = fast_lang::parse(src).expect("parse");
    let mut sink = DiagSink::new();
    fast_lang::compile_ast(&program, &mut sink).expect("compile")
}

#[test]
fn check_pipeline_agrees_with_single_stage_contract() {
    // A single-stage "pipeline" against a satisfied contract: the
    // public entry point must agree with FA100's verdict.
    let compiled = compile(
        r#"
        type T[i: Int] { z(0), s(1) }
        lang evens: T { z() where (i % 2 = 0) | s(x) where (i % 2 = 0) given (evens x) }
        trans keep: T -> T { z() to (z [i]) | s(x) to (s [i] (keep x)) }
        "#,
    );
    let keep = compiled.transducer("keep").unwrap();
    let evens = compiled.lang("evens").unwrap();
    match check_pipeline(&[keep], Some(evens), evens) {
        PipelineOutcome::Satisfied => {}
        other => panic!("expected Satisfied, got {other:?}"),
    }
    // And without an input restriction, odd inputs violate it.
    match check_pipeline(&[keep], None, evens) {
        PipelineOutcome::Violated(v) => {
            assert_eq!(v.intermediates.len(), 1);
            assert!(!evens.accepts(&v.intermediates[0]));
        }
        other => panic!("expected Violated, got {other:?}"),
    }
}

/// `z[46340]` violates the contract (46340² = 2147395600, and the output
/// `z[1]` is outside `zero`), but the solver finds no model of the
/// non-linear guard. The offending-input language is then not provably
/// empty and has no constructible witness: the verdict must be `Unknown`
/// (or a `Violated` that replays), never `Satisfied`.
#[test]
fn unproved_contract_is_never_satisfied() {
    let compiled = compile(
        r#"
        type T[i: Int] { z(0), s(1) }
        lang anyT: T { z() | s(x) given (anyT x) }
        lang zero: T { z() where (i = 0) }
        trans f: anyT -> zero { z() where (i * i = 2147395600) to (z [1]) }
        "#,
    );
    let f = compiled.transducer("f").unwrap();
    let any = compiled.lang("anyT").unwrap();
    let zero = compiled.lang("zero").unwrap();
    for l1 in [Some(any), None] {
        match check_pipeline(&[f], l1, zero) {
            PipelineOutcome::Satisfied => panic!("an unproved contract was called satisfied"),
            PipelineOutcome::Violated(v) => {
                assert!(any.accepts(&v.input));
                assert!(f.run(&v.input).unwrap().contains(&v.intermediates[0]));
                assert!(!zero.accepts(&v.intermediates[0]));
            }
            PipelineOutcome::Unknown(reason) => {
                assert!(reason.contains("no counterexample"), "{reason}");
            }
        }
    }
}
