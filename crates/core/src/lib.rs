//! # fast-core — symbolic tree transducers with regular lookahead
//!
//! The primary contribution of “Fast: a Transducer-Based Language for Tree
//! Manipulation” (PLDI 2014), §3–§4:
//!
//! * [`Sttr`] / [`SttrBuilder`] / [`Out`] — STTRs (Definition 5) whose
//!   rules carry symbolic guards, per-child regular lookahead (an embedded
//!   [`fast_automata::Sta`]), and output terms with label *functions*;
//! * [`Sttr::run`] — the transduction semantics (Definition 7), with
//!   memoized lookahead evaluation and explicit output budgets;
//! * [`Sttr::domain`] — the domain automaton (Definition 6);
//! * [`compose`] — the paper's composition algorithm
//!   (`Compose`/`Reduce`/`Look`, §4.1): always an over-approximation of
//!   `T_T ∘ T_S`, exact when `S` is single-valued or `T` is linear
//!   (Theorem 4) — see [`Sttr::is_deterministic`] and [`Sttr::is_linear`];
//! * [`preimage`], [`restrict`], [`restrict_out`] — the derived
//!   analyses of §3.5. [`restrict`] is a lookahead merge at the root: the
//!   language's root rules are paired with the transducer's (guards
//!   conjoined, per-child lookaheads unioned), with no composition;
//!   [`restrict_out`] composes with `restrict I l`, which is linear, so
//!   it is exact;
//! * [`check_pipeline`] — the contract check `l1 t1; …; tn l2`: one
//!   backward pre-image procedure that decides the contract and, on
//!   violation, replays a counterexample forward through the stages
//!   ([`PipelineOutcome`], [`PipelineViolation`]). Every contract verdict
//!   in the workspace — the `FA100`/`FA101` diagnostics, the DSL's
//!   `type-check` assertion and `fastc check --pipeline` — comes from it,
//!   and §3.5's `type-check l1 t l2` is its one-stage chain;
//! * [`identity`] — the identity STTR.
//!
//! # Examples
//!
//! Deforestation in one line — compose `map` with `map` and run the
//! fused transducer once over the input (§5.3):
//!
//! ```
//! use fast_core::{compose, Out, SttrBuilder};
//! use fast_smt::{Formula, LabelAlg, LabelFn, LabelSig, Sort, Term};
//! use fast_trees::{Tree, TreeType};
//! use std::sync::Arc;
//!
//! let ilist = TreeType::new("IList", LabelSig::single("i", Sort::Int),
//!                           vec![("nil", 0), ("cons", 1)]);
//! let alg = Arc::new(LabelAlg::new(ilist.sig().clone()));
//! let (nil, cons) = (ilist.ctor_id("nil").unwrap(), ilist.ctor_id("cons").unwrap());
//!
//! // map_caesar: x ↦ (x + 5) % 26
//! let mut b = SttrBuilder::new(ilist.clone(), alg.clone());
//! let q = b.state("map");
//! b.plain_rule(q, nil, Formula::True,
//!              Out::node(nil, LabelFn::new(vec![Term::int(0)]), vec![]));
//! b.plain_rule(q, cons, Formula::True,
//!              Out::node(cons,
//!                        LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]),
//!                        vec![Out::Call(q, 0)]));
//! let map = b.build(q);
//!
//! let fused = compose(&map, &map)?.sttr; // map twice in a single pass
//! let input = Tree::parse(&ilist, "cons[0](nil[0])").unwrap();
//! assert_eq!(fused.run(&input)?[0].display(&ilist).to_string(),
//!            "cons[10](nil[0])");
//! # Ok::<(), fast_core::TransducerError>(())
//! ```

#![warn(missing_docs)]

mod compose;
mod equiv;
mod error;
mod ops;
mod out;
mod sttr;
pub mod sv;

pub use compose::{
    compose, compose_exactness, compose_with, preimage, try_compose_exact, ComposeOptions,
    Composed, Exactness, MAX_COMPOSED_RULES, MAX_PAIR_STATES,
};
pub use equiv::{find_inequivalence, EquivConfig};
pub use error::TransducerError;
pub use ops::{
    check_pipeline, is_empty_transducer, restrict, restrict_out, PipelineOutcome, PipelineViolation,
};
pub use out::Out;
pub use sttr::{identity, Sttr, SttrBuilder, TRule, DEFAULT_RUN_CAP};
pub use sv::{SvBudget, SvProof, SvVerdict};
