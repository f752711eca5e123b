//! Ranked tree types: a finite set of constructors with fixed ranks, plus
//! a label signature shared by every node (the paper's `T_σ^Σ`, §3.1).

use fast_smt::LabelSig;
use std::fmt;
use std::sync::Arc;

/// Identifier of a constructor within its [`TreeType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtorId(pub usize);

/// A tree constructor: a name and a rank (number of children).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ctor {
    name: String,
    rank: usize,
}

impl Ctor {
    /// Creates a constructor.
    pub fn new(name: &str, rank: usize) -> Self {
        Ctor {
            name: name.to_string(),
            rank,
        }
    }

    /// Constructor name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of children.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

/// A ranked alphabet with attributes: the type `T_σ^Σ` of σ-labeled finite
/// trees over constructors Σ.
///
/// At least one constructor must be nullary so the type is inhabited
/// (§3.1 requires `Σ(0)` non-empty).
///
/// # Examples
///
/// ```
/// use fast_trees::TreeType;
/// use fast_smt::{LabelSig, Sort};
///
/// // type HtmlE[tag: String] { nil(0), val(1), attr(2), node(3) }
/// let html = TreeType::new(
///     "HtmlE",
///     LabelSig::single("tag", Sort::Str),
///     vec![("nil", 0), ("val", 1), ("attr", 2), ("node", 3)],
/// );
/// assert_eq!(html.rank(html.ctor_id("node").unwrap()), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TreeType {
    name: String,
    sig: LabelSig,
    ctors: Vec<Ctor>,
}

impl TreeType {
    /// Creates a tree type.
    ///
    /// # Panics
    ///
    /// Panics if no constructor is nullary (the type would be empty) or if
    /// two constructors share a name.
    pub fn new(name: &str, sig: LabelSig, ctors: Vec<(&str, usize)>) -> Arc<Self> {
        assert!(
            ctors.iter().any(|(_, r)| *r == 0),
            "tree type {name} needs at least one nullary constructor"
        );
        for i in 0..ctors.len() {
            for j in (i + 1)..ctors.len() {
                assert_ne!(ctors[i].0, ctors[j].0, "duplicate constructor name");
            }
        }
        Arc::new(TreeType {
            name: name.to_string(),
            sig,
            ctors: ctors.into_iter().map(|(n, r)| Ctor::new(n, r)).collect(),
        })
    }

    /// The type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The label signature of every node.
    pub fn sig(&self) -> &LabelSig {
        &self.sig
    }

    /// All constructors.
    pub fn ctors(&self) -> &[Ctor] {
        &self.ctors
    }

    /// Number of constructors.
    pub fn ctor_count(&self) -> usize {
        self.ctors.len()
    }

    /// Looks up a constructor by name.
    pub fn ctor_id(&self, name: &str) -> Option<CtorId> {
        self.ctors.iter().position(|c| c.name() == name).map(CtorId)
    }

    /// The constructor for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn ctor(&self, id: CtorId) -> &Ctor {
        &self.ctors[id.0]
    }

    /// Rank of a constructor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn rank(&self, id: CtorId) -> usize {
        self.ctors[id.0].rank()
    }

    /// Name of a constructor.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn ctor_name(&self, id: CtorId) -> &str {
        self.ctors[id.0].name()
    }

    /// Ids of all constructors, in declaration order.
    pub fn ctor_ids(&self) -> impl Iterator<Item = CtorId> + '_ {
        (0..self.ctors.len()).map(CtorId)
    }
}

impl fmt::Display for TreeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type {}{} {{", self.name, self.sig)?;
        for (i, c) in self.ctors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}({})", c.name(), c.rank())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_smt::Sort;

    fn html() -> Arc<TreeType> {
        TreeType::new(
            "HtmlE",
            LabelSig::single("tag", Sort::Str),
            vec![("nil", 0), ("val", 1), ("attr", 2), ("node", 3)],
        )
    }

    #[test]
    fn lookups() {
        let t = html();
        assert_eq!(t.ctor_count(), 4);
        let node = t.ctor_id("node").unwrap();
        assert_eq!(t.rank(node), 3);
        assert_eq!(t.ctor_name(node), "node");
        assert!(t.ctor_id("missing").is_none());
    }

    #[test]
    fn display() {
        let t = html();
        assert_eq!(
            t.to_string(),
            "type HtmlE[tag: String] {nil(0), val(1), attr(2), node(3)}"
        );
    }

    #[test]
    #[should_panic(expected = "nullary")]
    fn no_nullary_panics() {
        TreeType::new("B", LabelSig::unit(), vec![("n", 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ctor_panics() {
        TreeType::new("B", LabelSig::unit(), vec![("n", 0), ("n", 2)]);
    }
}
