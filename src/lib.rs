//! # fast — symbolic tree automata, transducers, and the Fast language
//!
//! A from-scratch Rust implementation of “Fast: a Transducer-Based
//! Language for Tree Manipulation” (D’Antoni, Veanes, Livshits, Molnar;
//! PLDI 2014): alternating symbolic tree automata (STAs), symbolic tree
//! transducers with regular lookahead (STTRs) including the paper's
//! composition algorithm, a self-contained label-theory solver standing in
//! for Z3, and the Fast DSL front-end.
//!
//! This crate is a facade: each layer lives in its own crate and is
//! re-exported here as a module.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`smt`] | `fast-smt` | labels, terms, formulas, decision procedures, effective Boolean algebras |
//! | [`trees`] | `fast-trees` | ranked tree types, trees, the Fig. 3 HTML encoding, generators |
//! | [`automata`] | `fast-automata` | alternating STAs: Boolean operations and decision procedures |
//! | [`core`] | `fast-core` | STTRs: run, domain, restriction, pre-image, **composition** |
//! | [`rt`] | `fast-rt` | batch evaluation: compiled plans, shared memo, worker pool |
//! | [`lang`] | `fast-lang` | the Fast DSL: parser, compiler, evaluator, `fastc` CLI |
//! | [`classical`] | `fast-classical` | finite-alphabet baseline (§6) |
//!
//! # Quick start
//!
//! Run a Fast program end to end:
//!
//! ```
//! let program = r#"
//!     type BT[i: Int] { L(0), N(2) }
//!     lang pos: BT { L() where (i > 0) | N(x, y) given (pos x) (pos y) }
//!     trans double: BT -> BT {
//!       L() to (L [i * 2])
//!     | N(x, y) to (N [i * 2] (double x) (double y))
//!     }
//!     tree t: BT := (apply double (N [1] (L [2]) (L [3])))
//!     assert-true t in (pre-image double pos)
//! "#;
//! let compiled = fast::lang::compile(program)?;
//! assert!(compiled.report().all_passed());
//! # Ok::<(), fast::lang::Diagnostic>(())
//! ```
//!
//! Or drive the library API directly — see [`core::compose`] for the
//! composition entry point and the `examples/` directory for full
//! scenarios (HTML sanitization, AR conflict checking, deforestation,
//! program analysis, CSS analysis).

#![warn(missing_docs)]

pub use fast_automata as automata;
pub use fast_classical as classical;
pub use fast_core as core;
pub use fast_lang as lang;
pub use fast_rt as rt;
pub use fast_smt as smt;
pub use fast_trees as trees;

/// Convenient glob import: `use fast::prelude::*;`.
pub mod prelude {
    pub use fast_automata::{
        complement, difference, equivalent, includes, intersect, is_empty, is_universal, minimize,
        union, witness, Sta, StaBuilder, StateId,
    };
    pub use fast_core::{
        check_pipeline, compose, identity, preimage, restrict, restrict_out, Out, PipelineOutcome,
        Sttr, SttrBuilder,
    };
    pub use fast_lang::compile;
    pub use fast_rt::Plan;
    pub use fast_smt::{
        Atom, BoolAlg, CmpOp, Formula, Label, LabelAlg, LabelFn, LabelSig, Sort, Term, TransAlg,
        Value,
    };
    pub use fast_trees::{Tree, TreeType};
}
