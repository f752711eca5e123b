//! # fast-automata — alternating symbolic tree automata
//!
//! Implementation of the STA layer of “Fast: a Transducer-Based Language
//! for Tree Manipulation” (PLDI 2014), §3.2:
//!
//! * [`Sta`] / [`StaBuilder`] — alternating STAs with per-state languages
//!   (Definitions 1–2), parametric in any effective Boolean algebra whose
//!   elements are [`fast_smt::Label`]s;
//! * [`normalize`] / [`normalize_rooted`] / [`clean`] — lazy merged-state
//!   normalization with eager unsat pruning (Definition 3, footnote 7);
//! * [`determinize`] / [`Dbta`] — symbolic bottom-up subset construction
//!   with minterm-partitioned transitions; complement and Moore
//!   minimization live on this form;
//! * [`union`], [`intersect`], [`complement`], [`difference`],
//!   [`minimize`] — the language operations of §3.5;
//! * [`emptiness`] — one emptiness procedure with witness extraction
//!   (Proposition 1), decided on the fly: a depth-first search over
//!   merged state sets from the root set that builds only the merged
//!   rules of the sets it reaches; its boolean forms [`is_empty_at`] (a root set) and [`is_empty`], and
//!   its tree form [`witness`];
//! * [`inclusion`] / [`equivalence`] and their boolean forms
//!   [`includes`], [`equivalent`], [`is_universal`] — one antichain
//!   search (§7's CIAA'08 open direction, implemented) that avoids the
//!   full subset construction and returns a verified counterexample tree
//!   as part of its [`Verdict`].
//!
//! # Examples
//!
//! ```
//! use fast_automata::{intersect, is_empty, witness, StaBuilder};
//! use fast_smt::{CmpOp, Formula, LabelAlg, LabelSig, Sort, Term};
//! use fast_trees::TreeType;
//! use std::sync::Arc;
//!
//! let bt = TreeType::new("BT", LabelSig::single("i", Sort::Int),
//!                        vec![("L", 0), ("N", 2)]);
//! let alg = Arc::new(LabelAlg::new(bt.sig().clone()));
//! let leaf = bt.ctor_id("L").unwrap();
//! let x = Term::field(0);
//!
//! // Leaves all positive…
//! let mut b = StaBuilder::new(bt.clone(), alg.clone());
//! let p = b.state("pos");
//! b.leaf_rule(p, leaf, Formula::cmp(CmpOp::Gt, x.clone(), Term::int(0)));
//! let pos = b.build(p);
//!
//! // …intersected with leaves all negative: empty.
//! let mut b = StaBuilder::new(bt.clone(), alg.clone());
//! let n = b.state("neg");
//! b.leaf_rule(n, leaf, Formula::cmp(CmpOp::Lt, x, Term::int(0)));
//! let neg = b.build(n);
//!
//! let both = intersect(&pos, &neg);
//! assert!(is_empty(&both)?);
//! assert!(witness(&pos)?.is_some());
//! # Ok::<(), fast_automata::AutomataError>(())
//! ```

#![warn(missing_docs)]

mod antichain;
mod bottomup;
mod decide;
mod error;
mod normalize;
mod ops;
mod sta;

pub use antichain::{
    equivalence, equivalent, includes, inclusion, is_universal, Verdict, MAX_ANTICHAIN,
};
pub use bottomup::{determinize, Dbta, MAX_DET_STATES};
pub use decide::{emptiness, is_empty, is_empty_at, witness};
pub use error::AutomataError;
pub use normalize::{clean, normalize, normalize_rooted, MAX_MERGED_STATES};
pub use ops::{complement, difference, intersect, minimize, union};
pub use sta::{Rule, Sta, StaBuilder, StateId};
