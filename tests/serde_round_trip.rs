//! Round-trips for the serializable data structures: the s-expression
//! text form of trees (`Tree::display` → `Tree::parse`, the form
//! `fast-serve` exchanges), and the binary layer — `fast_smt::bin`
//! codec primitives and the `.fastc` artifact container — which must
//! reproduce values (and whole compiled programs) exactly.

use fast::prelude::*;
use fast::rt::{Artifact, ArtifactBuilder, ArtifactError};
use fast::smt::bin::{self, ByteReader, ByteWriter, FormulaPool};

/// Prints `t` in the s-expression form and parses it back under `ty`,
/// asserting the reparsed tree is the same (interned) tree.
fn text_round_trip(ty: &TreeType, t: &Tree) -> Tree {
    let text = t.display(ty).to_string();
    let back = Tree::parse(ty, &text).unwrap_or_else(|e| panic!("reparse {text}: {e}"));
    assert_eq!(&back, t, "round-trip through {text}");
    back
}

#[test]
fn trees_round_trip() {
    let ty = TreeType::new(
        "BT",
        LabelSig::single("i", Sort::Int),
        vec![("L", 0), ("N", 2)],
    );
    let t = Tree::parse(&ty, "N[1](N[2](L[3], L[4]), L[-5])").unwrap();
    let back = text_round_trip(&ty, &t);
    assert!(back.conforms_to(&ty));
}

// ----------------------------------------------------- binary round-trips

/// The `fast_smt::bin` primitives are exact inverses: every value class
/// the `.fastc` format stores — sorts, values, labels, signatures,
/// terms, formulas, label functions — survives encode → decode
/// unchanged, and the formula pool preserves interned identity.
#[test]
fn binary_codec_round_trips_label_theory_values() {
    let mut w = ByteWriter::new();
    let sig = LabelSig::new(vec![
        ("i".to_string(), Sort::Int),
        ("s".to_string(), Sort::Str),
    ]);
    let label = Label::new(vec![Value::Int(-7), Value::Str("scr\"ipt".into())]);
    let term = Term::field(0)
        .add(Term::int(5))
        .modulo(26)
        .mul(Term::field(0));
    let formula = Formula::eq(Term::field(0).modulo(2), Term::int(1))
        .and(Formula::ne(Term::field(1), Term::str("script")))
        .or(Formula::cmp(CmpOp::Lt, Term::field(0), Term::int(-3)).not());
    let lf = LabelFn::new(vec![Term::field(0).add(Term::int(1)), Term::str("k")]);

    bin::write_sort(&mut w, Sort::Char);
    bin::write_value(&mut w, &Value::Char('λ'));
    bin::write_label(&mut w, &label);
    bin::write_sig(&mut w, &sig);
    bin::write_term(&mut w, &term);
    bin::write_formula(&mut w, &formula);
    bin::write_label_fn(&mut w, &lf);
    let bytes = w.into_bytes();

    let mut r = ByteReader::new(&bytes);
    assert_eq!(bin::read_sort(&mut r).unwrap(), Sort::Char);
    assert_eq!(bin::read_value(&mut r).unwrap(), Value::Char('λ'));
    assert_eq!(bin::read_label(&mut r).unwrap(), label);
    assert_eq!(bin::read_sig(&mut r).unwrap(), sig);
    assert_eq!(bin::read_term(&mut r).unwrap(), term);
    let f_back = bin::read_formula(&mut r).unwrap();
    assert_eq!(f_back, formula);
    assert_eq!(f_back.eval(&label), formula.eval(&label));
    assert_eq!(bin::read_label_fn(&mut r).unwrap(), lf);
    assert!(r.is_empty(), "every written byte must be consumed");

    // Formula pool: ids stay dense and interned identity survives.
    let mut pool = FormulaPool::new();
    let ia = fast::smt::intern(formula.clone());
    let ib = fast::smt::intern(Formula::True);
    assert_eq!(pool.index_of(&ia), 0);
    assert_eq!(pool.index_of(&ib), 1);
    assert_eq!(pool.index_of(&ia), 0, "repeat lookups reuse the slot");
    let mut w = ByteWriter::new();
    pool.write(&mut w);
    let bytes = w.into_bytes();
    let back = bin::read_formula_pool(&mut ByteReader::new(&bytes)).unwrap();
    assert_eq!(back.len(), 2);
    assert_eq!(back[0], ia, "re-interning restores id equality");
    assert_eq!(back[1], ib);
}

/// A whole compiled program survives the artifact container: every
/// transducer a source program defines comes back runnable with
/// identical semantics, file save/load included, and the container is
/// self-checking against corruption on disk.
#[test]
fn compiled_program_round_trips_through_artifact_file() {
    let program = r#"
        type BT[x: Int] { L(0), N(2) }
        trans flip: BT -> BT {
          N(a, b) where (x >= 0) to (N [0 - x] (flip b) (flip a))
        | N(a, b) where (x < 0) to (N [x] (flip a) (flip b))
        | L() to (L [x + 1])
        }
    "#;
    let compiled = fast::lang::compile(program).unwrap();
    let ty = compiled.tree_type("BT").unwrap().clone();

    let mut b = ArtifactBuilder::new();
    b.add_transducer("flip", compiled.transducer("flip").unwrap());
    let art = b.build();

    let dir = std::env::temp_dir().join("fast_serde_round_trip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flip.fastc");
    art.save(&path).unwrap();
    let loaded = Artifact::load(&path).unwrap();

    let plan = loaded.transducer("flip").unwrap();
    assert_eq!(loaded.transducer_type("flip").unwrap(), &ty);
    let input = Tree::parse(&ty, "N[3](N[-2](L[1], L[4]), L[0])").unwrap();
    let want = compiled.apply("flip", &input).unwrap();
    let mut got = plan.run(&input).unwrap();
    let mut want_sorted = want.clone();
    got.sort();
    want_sorted.sort();
    assert_eq!(got, want_sorted);

    // Loading is also encoding-stable and corruption is detected.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(loaded.encode(), bytes);
    let mut bent = bytes.clone();
    let last = bent.len() - 1;
    bent[last] ^= 0x40;
    std::fs::write(&path, &bent).unwrap();
    assert!(matches!(
        Artifact::load(&path),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));
}

#[test]
fn persisted_counterexample_is_usable() {
    // The practical workflow: persist a verification counterexample,
    // reload it, and replay it against the sanitizer.
    let program = r#"
        type HtmlE[tag: String] { nil(0), val(1), attr(2), node(3) }
        trans remScript: HtmlE -> HtmlE {
          node(x1, x2, x3) where (tag != "script")
            to (node [tag] x1 (remScript x2) (remScript x3))
        | node(x1, x2, x3) where (tag = "script") to x3
        | nil() to (nil [tag])
        }
        lang badOutput: HtmlE {
          node(x1, x2, x3) where (tag = "script")
        | node(x1, x2, x3) given (badOutput x2)
        | node(x1, x2, x3) given (badOutput x3)
        }
        def bad_inputs: HtmlE := (pre-image remScript badOutput)
        assert-true (is-empty bad_inputs)
    "#;
    let compiled = fast::lang::compile(program).unwrap();
    let ty = compiled.tree_type("HtmlE").unwrap().clone();
    let cx_text = compiled.report().assertions[0]
        .counterexample
        .clone()
        .expect("buggy remScript has a counterexample");
    let cx = Tree::parse(&ty, &cx_text).unwrap();
    let reloaded = text_round_trip(&ty, &cx);
    let bad = compiled.lang("badOutput").unwrap();
    let outputs = compiled.apply("remScript", &reloaded).unwrap();
    assert!(outputs.iter().any(|o| bad.accepts(o)));
}
