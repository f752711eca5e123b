//! Differential properties for the FA101 pipeline contract check
//! ([`fast_analysis::check_pipeline`]), driven through the language
//! surface: `bumpA ; bumpB` chains over the `evens` language shift every
//! label by `a + b`, so the contract `evens -> evens` holds exactly when
//! `a + b` is even — an oracle the checker must agree with on both
//! sides. On violations, the replayed counterexample is re-validated
//! end-to-end: the input is in the declared input language, every
//! intermediate really is an output of its stage on the previous tree,
//! and the final tree falls outside the output language.
//!
//! The same oracle covers FA100, the one-stage case of the same check: a
//! `trans` contract `evens -> evens` on a transformation shifting by
//! `a + b`, whose reported counterexample is parsed back from the
//! diagnostic and replayed.

use fast_analysis::{check_pipeline, PipelineOutcome};
use proptest::prelude::*;

fn program(a: u8, b: u8) -> String {
    format!(
        r#"
        type T[i: Int] {{ nil(0), cons(1) }}
        lang evens: T {{
          nil() where (i % 2 = 0)
        | cons(x) where (i % 2 = 0) given (evens x)
        }}
        trans bumpA: T -> T {{
          nil() to (nil [i + {a}])
        | cons(x) to (cons [i + {a}] (bumpA x))
        }}
        trans bumpB: T -> T {{
          nil() to (nil [i + {b}])
        | cons(x) to (cons [i + {b}] (bumpB x))
        }}
        def pipe: evens -> evens := (compose bumpA bumpB)
        "#
    )
}

/// One transformation shifting every label by `a + b`, under a `trans`
/// contract: the FA100 path of the same parity oracle.
fn trans_program(a: u8, b: u8) -> String {
    format!(
        r#"
        type T[i: Int] {{ nil(0), cons(1) }}
        lang evens: T {{
          nil() where (i % 2 = 0)
        | cons(x) where (i % 2 = 0) given (evens x)
        }}
        trans bump: evens -> evens {{
          nil() to (nil [i + {a} + {b}])
        | cons(x) to (cons [i + {a} + {b}] (bump x))
        }}
        "#
    )
}

fn compile(src: &str) -> (fast_lang::Program, fast_lang::Compiled) {
    let program = fast_lang::parse(src).expect("parse");
    let mut sink = fast_lang::DiagSink::new();
    let compiled = fast_lang::compile_ast(&program, &mut sink).expect("compile");
    assert!(sink.diagnostics().is_empty(), "{:?}", sink.diagnostics());
    (program, compiled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The checker's verdict matches the parity oracle, and a reported
    /// violation replays faithfully through the actual stages.
    #[test]
    fn fa101_agrees_with_the_parity_oracle(a in 0u8..4, b in 0u8..4) {
        let src = program(a, b);
        let (ast, compiled) = compile(&src);
        let stages = [
            compiled.transducer("bumpA").unwrap(),
            compiled.transducer("bumpB").unwrap(),
        ];
        let evens = compiled.lang("evens").unwrap();
        let ty = compiled.tree_type("T").unwrap();
        let should_violate = (a + b) % 2 == 1;

        // The full analyzer routes the chain contract to FA101 (never
        // FA100 — the chain is not eagerly composed).
        let diags = fast_analysis::analyze(&ast, &compiled);
        let codes: Vec<_> = diags.iter().filter_map(|d| d.code).collect();
        prop_assert!(!codes.contains(&"FA100"), "{diags:?}");
        prop_assert_eq!(
            codes.contains(&"FA101"),
            should_violate,
            "a={} b={}: {:?}", a, b, diags,
        );

        // The public entry point agrees, and its counterexample is real.
        match check_pipeline(&stages, Some(evens), evens) {
            PipelineOutcome::Satisfied => prop_assert!(!should_violate),
            PipelineOutcome::Violated(v) => {
                prop_assert!(should_violate);
                prop_assert!(
                    evens.accepts(&v.input),
                    "counterexample input {} outside the input language",
                    v.input.display(ty),
                );
                prop_assert_eq!(v.intermediates.len(), stages.len());
                let mut cur = v.input.clone();
                for (s, t) in stages.iter().zip(&v.intermediates) {
                    let outs = s.run(&cur).unwrap();
                    prop_assert!(
                        outs.contains(t),
                        "{} is not an output of its stage on {}",
                        t.display(ty), cur.display(ty),
                    );
                    cur = t.clone();
                }
                prop_assert!(
                    !evens.accepts(&cur),
                    "final tree {} is inside the output language",
                    cur.display(ty),
                );
            }
            PipelineOutcome::Unknown(reason) => {
                prop_assert!(false, "checker punted on a decidable chain: {}", reason);
            }
        }
    }

    /// FA100 agrees with the parity oracle, and its counterexample notes
    /// replay: the input is in `evens`, and the reported output is an
    /// output of `bump` on it that falls outside `evens`.
    #[test]
    fn fa100_agrees_with_the_parity_oracle(a in 0u8..4, b in 0u8..4) {
        let src = trans_program(a, b);
        let (ast, compiled) = compile(&src);
        let bump = compiled.transducer("bump").unwrap();
        let evens = compiled.lang("evens").unwrap();
        let ty = compiled.tree_type("T").unwrap();
        let should_violate = (a + b) % 2 == 1;

        let diags = fast_analysis::analyze(&ast, &compiled);
        let fa100: Vec<_> = diags.iter().filter(|d| d.code == Some("FA100")).collect();
        prop_assert_eq!(fa100.len(), usize::from(should_violate), "a={} b={}: {:?}", a, b, diags);
        if let Some(d) = fa100.first() {
            prop_assert!(d.is_error(), "{:?}", d);
            let tree_after = |prefix: &str| {
                let note = d.notes.iter().find_map(|n| n.strip_prefix(prefix));
                note.map(|t| fast_trees::Tree::parse(ty, t).expect("a rendered tree parses"))
            };
            let input = tree_after("counterexample input: ").expect("counterexample note");
            let output = tree_after("after stage 1 ('bump'): ").expect("replayed output note");
            prop_assert!(evens.accepts(&input), "input {} outside evens", input.display(ty));
            prop_assert!(
                bump.run(&input).unwrap().contains(&output),
                "{} is not an output of bump on {}",
                output.display(ty), input.display(ty),
            );
            prop_assert!(!evens.accepts(&output), "output {} inside evens", output.display(ty));
        }
    }
}
