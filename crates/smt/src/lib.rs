//! # fast-smt — label theories for symbolic tree automata
//!
//! This crate is the *label-theory* substrate of the `fast` workspace, a
//! reproduction of “Fast: a Transducer-Based Language for Tree
//! Manipulation” (PLDI 2014). The paper parameterizes symbolic tree
//! automata and transducers by any decidable theory that forms an
//! *effective Boolean algebra*; the original implementation delegated to
//! Z3. Here the theory stack is self-contained:
//!
//! * [`Sort`], [`LabelSig`], [`Value`], [`Label`] — labels are records of
//!   Int / Bool / String / Char fields;
//! * [`Term`], [`LabelFn`] — symbolic functions of the input label, used
//!   for transducer outputs;
//! * [`Formula`], [`Atom`] — quantifier-free predicates (guards);
//! * [`solver`] — a three-valued decision procedure with complete
//!   fragments covering every predicate the paper's programs and
//!   benchmarks use (quasi-polynomial integer arithmetic, string
//!   (dis)equalities, character sets, booleans);
//! * [`BoolAlg`], [`LabelAlg`], [`minterms`] — the effective-Boolean-
//!   algebra interface consumed by the automata crates.
//!
//! `Unknown` solver answers are always treated as “possibly satisfiable”,
//! which keeps every automaton/transducer construction sound (a kept rule
//! with an unsatisfiable guard never fires).
//!
//! # Examples
//!
//! ```
//! use fast_smt::{BoolAlg, Formula, LabelAlg, LabelSig, Sort, Term};
//!
//! // Labels with a single string field, as in the paper's HTML example.
//! let alg = LabelAlg::new(LabelSig::single("tag", Sort::Str));
//! let not_script = alg.pred(Formula::ne(Term::field(0), Term::str("script")));
//! let is_script = alg.not(&not_script);
//! assert!(alg.is_sat(&not_script));
//! assert!(!alg.is_sat(&alg.and(&not_script, &is_script)));
//! let witness = alg.model(&is_script).unwrap();
//! assert_eq!(witness.get(0).as_str(), Some("script"));
//! ```

#![warn(missing_docs)]

mod alg;
mod formula;
mod poly;
mod sort;
mod term;
mod value;

pub mod bin;
pub mod intern;
pub mod solver;

pub use alg::{minterms, AlgStats, BoolAlg, LabelAlg, TransAlg};
pub use formula::{Atom, CmpOp, Formula, Literal};
pub use intern::{intern, Interned};
pub use poly::{Poly, MAX_DEGREE};
pub use sort::{LabelSig, Sort};
pub use term::{EvalError, LabelFn, Term};
pub use value::{Label, Value};
