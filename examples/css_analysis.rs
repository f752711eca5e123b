//! §5.5 sketch: CSS analysis with symbolic tree transducers. A CSS rule
//! like `div p { color: black }` becomes a transducer over styled-HTML
//! trees; the readability check "black text never sits on a black
//! background" is a pre-image emptiness question — and symbolic labels
//! let the colors range over *all* strings, which the paper notes is out
//! of reach for explicit-alphabet tree logics.
//!
//! Run with: `cargo run --example css_analysis`

use fast::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Styled HTML: every node carries (tag, color, background).
    let ty = TreeType::new(
        "SHtml",
        LabelSig::new(vec![
            ("tag".into(), Sort::Str),
            ("color".into(), Sort::Str),
            ("bg".into(), Sort::Str),
        ]),
        vec![("nil", 0), ("node", 2)], // node(first-child, next-sibling)
    );
    let alg = Arc::new(LabelAlg::new(ty.sig().clone()));
    let nil = ty.ctor_id("nil").unwrap();
    let node = ty.ctor_id("node").unwrap();
    let (tag, color, bg) = (Term::field(0), Term::field(1), Term::field(2));

    // The CSS program `div p { color: black }` as a transducer: one state
    // tracks "am I inside a div?"; matching p nodes get color := "black".
    let mut b = SttrBuilder::new(ty.clone(), alg.clone());
    let top = b.state("top");
    let in_div = b.state("in_div");
    let set_black = LabelFn::new(vec![tag.clone(), Term::str("black"), bg.clone()]);
    let keep = LabelFn::identity(3);
    let is_div = Formula::eq(tag.clone(), Term::str("div"));
    let is_p = Formula::eq(tag.clone(), Term::str("p"));
    for (state, inside) in [(top, false), (in_div, true)] {
        b.plain_rule(
            state,
            nil,
            Formula::True,
            Out::node(nil, keep.clone(), vec![]),
        );
        // Entering a div: children processed in `in_div`.
        b.plain_rule(
            state,
            node,
            is_div.clone(),
            Out::node(
                node,
                keep.clone(),
                vec![Out::Call(in_div, 0), Out::Call(state, 1)],
            ),
        );
        // A p node: selected only when inside a div.
        let style = if inside { &set_black } else { &keep };
        b.plain_rule(
            state,
            node,
            is_p.clone(),
            Out::node(
                node,
                style.clone(),
                vec![Out::Call(state, 0), Out::Call(state, 1)],
            ),
        );
        // Everything else keeps its style.
        b.plain_rule(
            state,
            node,
            is_div.clone().not().and(is_p.clone().not()),
            Out::node(
                node,
                keep.clone(),
                vec![Out::Call(state, 0), Out::Call(state, 1)],
            ),
        );
    }
    let css = b.build(top);

    // Unreadable outputs: some node where color = bg (fully symbolic —
    // quantified over ALL strings, not an enumerated palette).
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let bad = b.state("unreadable");
    b.rule(
        bad,
        node,
        Formula::eq(color.clone(), bg.clone()),
        vec![Default::default(), Default::default()],
    );
    b.simple_rule(bad, node, Formula::True, vec![Some(bad), None]);
    b.simple_rule(bad, node, Formula::True, vec![None, Some(bad)]);
    let unreadable = b.build(bad);

    // Which inputs does the CSS program make unreadable? Restrict to
    // inputs that are readable to begin with, so the witness shows the
    // CSS *introducing* the problem.
    let readable_inputs = complement(&unreadable)?;
    let offending = intersect(&preimage(&css, &unreadable)?, &readable_inputs);
    let w = witness(&offending)?.expect("the check should find an offender");
    println!("readable inputs that C(H) renders unreadable exist, e.g.:");
    println!("  H    = {}", w.display(&ty));
    let styled = css.run(&w)?.pop().unwrap();
    println!("  C(H) = {}", styled.display(&ty));
    assert!(readable_inputs.accepts(&w));
    assert!(unreadable.accepts(&styled));

    // A safe input set: documents whose backgrounds are all white and
    // colors never white.
    let mut b = StaBuilder::new(ty.clone(), alg.clone());
    let safe = b.state("safe");
    b.leaf_rule(safe, nil, Formula::True);
    b.simple_rule(
        safe,
        node,
        Formula::eq(bg.clone(), Term::str("white"))
            .and(Formula::ne(color.clone(), Term::str("white"))),
        vec![Some(safe), Some(safe)],
    );
    let safe_docs = b.build(safe);

    // type-check: on safe inputs, the CSS program never produces an
    // unreadable node (black-on-white stays readable).
    let readable = complement(&unreadable)?;
    let ok = matches!(
        check_pipeline(&[&css], Some(&safe_docs), &readable),
        PipelineOutcome::Satisfied
    );
    println!("\ntype-check(safe white-background docs, css, readable) = {ok}");
    assert!(ok);
    Ok(())
}
