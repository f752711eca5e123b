//! # fast-trees — ranked symbolic trees
//!
//! Tree substrate for the `fast` workspace (PLDI 2014 “Fast” reproduction):
//!
//! * [`TreeType`] — ranked alphabets with label signatures (`T_σ^Σ`);
//! * [`Tree`] — immutable σ-labeled trees with s-expression
//!   printing/parsing, globally **hash-consed** ([`intern`]): every
//!   structurally distinct subtree exists once, equality/hashing are
//!   O(1), and [`TreeId`] gives a stable, never-reused identity that
//!   the runtime uses as its memo key. Labels are interned once each
//!   ([`InternedLabel`], [`LabelId`]), and a node points at its label's
//!   canonical entry;
//! * [`html`] — the paper's Fig. 3 encoding of unranked HTML documents
//!   into the `HtmlE` ranked type, and its inverse;
//! * [`TreeGen`] / [`HtmlGen`] — seeded workload generators.
//!
//! # Examples
//!
//! ```
//! use fast_trees::{Tree, TreeType};
//! use fast_smt::{LabelSig, Sort};
//!
//! let bt = TreeType::new("BT", LabelSig::single("i", Sort::Int),
//!                        vec![("L", 0), ("N", 2)]);
//! let t = Tree::parse(&bt, "N[1](L[2], L[3])")?;
//! assert_eq!(t.size(), 3);
//! assert_eq!(t.display(&bt).to_string(), "N[1](L[2], L[3])");
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

mod gen;
mod parse;
mod tree;
mod ty;

pub mod html;
pub mod intern;

pub use gen::{HtmlGen, TreeGen};
pub use html::{html_type, HtmlCtors, HtmlDoc, HtmlElem};
pub use parse::ParseError;
pub use tree::{DisplayTree, InternedLabel, Iter, LabelArg, LabelId, Tree, TreeId};
pub use ty::{Ctor, CtorId, TreeType};
