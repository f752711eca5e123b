//! σ-labeled finite trees, globally hash-consed.

use crate::intern::{self, ValueRef};
use crate::parse::ParseError;
use crate::ty::{CtorId, TreeType};
use fast_smt::Label;
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The stable identity of an interned tree: equal ids ⇔ structurally
/// equal trees, for the life of the process.
///
/// Ids are allocated monotonically by the global interner
/// ([`crate::intern`]) and never reused — the canonical node behind an
/// id is owned by the intern table and never dropped — so a `TreeId` is
/// a sound cache key across arbitrary drops and rebuilds of the trees
/// it describes. Ids depend on interning *order* (which threads can
/// perturb), so they are deliberately not `Ord`: use the tree's
/// structural ordering for deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeId(pub(crate) u64);

impl TreeId {
    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The stable identity of an interned label: equal ids ⇔ equal labels,
/// for the life of the process. Allocated and never reused by the label
/// table in [`crate::intern`], like [`TreeId`] by the node table, and
/// not `Ord` for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub(crate) u64);

impl LabelId {
    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A label's canonical handle in the label table: every distinct label
/// is stored once, with its hash and its [`LabelId`], and every node
/// carrying it points at that one entry. Obtained from
/// [`Tree::interned_label`]; passing it to [`Tree::new`] builds a node
/// without a label-table lookup. Cloning is one `Arc` bump.
#[derive(Clone)]
pub struct InternedLabel(pub(crate) Arc<CanonLabel>);

/// The label table's entry behind an [`InternedLabel`].
pub(crate) struct CanonLabel {
    pub(crate) hash: u64,
    pub(crate) id: LabelId,
    pub(crate) label: Label,
}

impl InternedLabel {
    /// The label.
    pub fn label(&self) -> &Label {
        &self.0.label
    }

    /// The label's stable identity.
    pub fn id(&self) -> LabelId {
        self.0.id
    }

    /// True if both handles are the one canonical entry — for interned
    /// labels, the same as label equality.
    pub fn ptr_eq(&self, other: &InternedLabel) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for InternedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.label)
    }
}

/// A node's label as [`Tree::new`] takes it: owned, borrowed, or a
/// tree's canonical handle. An owned or borrowed label is looked up in
/// the label table (a borrowed one is copied only when it is new); a
/// handle is already canonical.
#[derive(Debug)]
pub enum LabelArg<'a> {
    /// An owned label, moved into the label table if it is new.
    Owned(Label),
    /// A borrowed label, copied into the label table if it is new.
    Borrowed(&'a Label),
    /// A canonical handle: no lookup at all.
    Interned(&'a InternedLabel),
}

impl From<Label> for LabelArg<'_> {
    fn from(label: Label) -> Self {
        LabelArg::Owned(label)
    }
}

impl<'a> From<&'a Label> for LabelArg<'a> {
    fn from(label: &'a Label) -> Self {
        LabelArg::Borrowed(label)
    }
}

impl<'a> From<&'a InternedLabel> for LabelArg<'a> {
    fn from(label: &'a InternedLabel) -> Self {
        LabelArg::Interned(label)
    }
}

impl<'a> LabelArg<'a> {
    /// The canonical handle, through the label table unless it is one.
    pub(crate) fn intern(self) -> Cow<'a, InternedLabel> {
        let label = match self {
            LabelArg::Interned(l) => return Cow::Borrowed(l),
            LabelArg::Owned(l) => Cow::Owned(l),
            LabelArg::Borrowed(l) => Cow::Borrowed(l),
        };
        let hash = intern::label_hash(label.values().iter().map(ValueRef::from));
        Cow::Owned(intern::intern_label(
            hash,
            label,
            |l, c| **l == *c,
            Cow::into_owned,
        ))
    }
}

/// An immutable σ-labeled tree, hash-consed in a process-wide table:
/// every structurally distinct subtree exists once, behind one
/// canonical `Arc` that holds its stable [`TreeId`] and structural
/// hash. A `Tree` is one pointer to that node.
///
/// Cloning is O(1) (one `Arc` bump). Equality is a pointer comparison
/// and hashing writes the node's precomputed structural hash — both
/// O(1) regardless of tree size. Ordering is structural (deterministic
/// across runs), with pointer fast paths for equal subtrees and equal
/// labels.
///
/// # Examples
///
/// ```
/// use fast_trees::{Tree, TreeType};
/// use fast_smt::{Label, LabelSig, Sort};
///
/// let bt = TreeType::new("BT", LabelSig::single("i", Sort::Int),
///                        vec![("L", 0), ("N", 2)]);
/// let leaf = |n: i64| Tree::leaf(bt.ctor_id("L").unwrap(), Label::single(n));
/// let t = Tree::new(bt.ctor_id("N").unwrap(), Label::single(0i64),
///                   vec![leaf(1), leaf(2)]);
/// assert_eq!(t.size(), 3);
/// assert_eq!(t.display(&bt).to_string(), "N[0](L[1], L[2])");
/// // Building the same structure again yields the same canonical node.
/// let again = Tree::parse(&bt, "N[0](L[1], L[2])").unwrap();
/// assert_eq!(t.id(), again.id());
/// assert_eq!(t, again);
/// ```
#[derive(Clone)]
pub struct Tree {
    node: Arc<Node>,
}

/// The canonical node behind a [`Tree`], owned by the node table: its
/// structural hash and id, computed once when it is interned, and its
/// parts.
pub(crate) struct Node {
    pub(crate) hash: u64,
    pub(crate) id: TreeId,
    pub(crate) label: InternedLabel,
    pub(crate) shape: Shape,
}

/// A node's constructor and children, in one value: up to three
/// children inline (every HTML constructor's rank), more in one boxed
/// slice. The constructor shares the word the variant tag takes anyway,
/// so a node of rank at most three is one allocation of 56 bytes, with
/// no child block of its own.
pub(crate) enum Shape {
    Zero(u32),
    One(u32, [Tree; 1]),
    Two(u32, [Tree; 2]),
    Three(u32, [Tree; 3]),
    Many(u32, Box<[Tree]>),
}

impl Shape {
    /// The shape of a node with these parts: owned children are moved
    /// in (above rank three their vector becomes the boxed slice),
    /// borrowed ones cloned.
    pub(crate) fn new(ctor: CtorId, children: Cow<'_, [Tree]>) -> Shape {
        fn inline<const N: usize>(kids: Vec<Tree>) -> [Tree; N] {
            kids.try_into()
                .unwrap_or_else(|_| unreachable!("the length was matched"))
        }
        let c = u32::try_from(ctor.0).expect("a constructor id fits in 32 bits");
        match children {
            Cow::Owned(kids) => match kids.len() {
                0 => Shape::Zero(c),
                1 => Shape::One(c, inline(kids)),
                2 => Shape::Two(c, inline(kids)),
                3 => Shape::Three(c, inline(kids)),
                _ => Shape::Many(c, kids.into_boxed_slice()),
            },
            Cow::Borrowed(kids) => match kids {
                [] => Shape::Zero(c),
                [a] => Shape::One(c, [a.clone()]),
                [a, b] => Shape::Two(c, [a.clone(), b.clone()]),
                [a, b, d] => Shape::Three(c, [a.clone(), b.clone(), d.clone()]),
                _ => Shape::Many(c, kids.into()),
            },
        }
    }

    pub(crate) fn ctor(&self) -> CtorId {
        let (Shape::Zero(c)
        | Shape::One(c, _)
        | Shape::Two(c, _)
        | Shape::Three(c, _)
        | Shape::Many(c, _)) = self;
        CtorId(*c as usize)
    }

    pub(crate) fn children(&self) -> &[Tree] {
        match self {
            Shape::Zero(_) => &[],
            Shape::One(_, k) => k,
            Shape::Two(_, k) => k,
            Shape::Three(_, k) => k,
            Shape::Many(_, k) => k,
        }
    }
}

impl Tree {
    /// Creates a tree node (interned: structurally equal trees share one
    /// canonical node and [`TreeId`], whoever builds them).
    ///
    /// The label is taken owned (`Label`), borrowed (`&Label`) or as a
    /// tree's canonical handle (`&InternedLabel`, see
    /// [`Tree::interned_label`]), and the children owned (`Vec<Tree>`)
    /// or borrowed (`&[Tree]`). Parts that are already interned are only
    /// read, so borrowing them costs no allocation; otherwise owned parts
    /// move into the tables and borrowed ones are copied. A handle skips
    /// the label lookup altogether.
    pub fn new<'l, 'c>(
        ctor: CtorId,
        label: impl Into<LabelArg<'l>>,
        children: impl Into<Cow<'c, [Tree]>>,
    ) -> Tree {
        let (label, children) = (label.into().intern(), children.into());
        let hash = intern::node_hash(
            ctor,
            label.0.hash,
            children.iter().map(Tree::precomputed_hash),
        );
        intern::intern(hash, ctor, &label, children)
    }

    /// Assembles a handle around an already-interned node (interner
    /// use only — this is what keeps the interner the single chokepoint).
    pub(crate) fn from_parts(node: Arc<Node>) -> Tree {
        Tree { node }
    }

    /// Creates a leaf (nullary node), taking the label like [`Tree::new`].
    pub fn leaf<'l>(ctor: CtorId, label: impl Into<LabelArg<'l>>) -> Tree {
        Tree::new(ctor, label, &[][..])
    }

    /// The constructor at the root.
    pub fn ctor(&self) -> CtorId {
        self.node.shape.ctor()
    }

    /// The label at the root.
    pub fn label(&self) -> &Label {
        &self.node.label.0.label
    }

    /// The identity of the label at the root: equal ids ⇔ equal labels.
    pub fn label_id(&self) -> LabelId {
        self.node.label.id()
    }

    /// The canonical handle of the label at the root. Passing it to
    /// [`Tree::new`] builds a node with the same label without a label
    /// lookup.
    pub fn interned_label(&self) -> &InternedLabel {
        &self.node.label
    }

    /// Child subtrees.
    pub fn children(&self) -> &[Tree] {
        self.node.shape.children()
    }

    /// The `i`-th child.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn child(&self, i: usize) -> &Tree {
        &self.children()[i]
    }

    /// Total number of nodes. Like [`Tree::depth`] and
    /// [`Tree::conforms_to`], it walks with a heap stack.
    pub fn size(&self) -> usize {
        self.iter().count()
    }

    /// Height (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(self, 1)];
        while let Some((t, d)) = stack.pop() {
            deepest = deepest.max(d);
            stack.extend(t.children().iter().map(|c| (c, d + 1)));
        }
        deepest
    }

    /// Checks the tree is well-formed for `ty`: constructor ids in range
    /// with matching ranks, labels conforming to the signature.
    pub fn conforms_to(&self, ty: &TreeType) -> bool {
        self.iter().all(|t| {
            t.ctor().0 < ty.ctor_count()
                && ty.rank(t.ctor()) == t.children().len()
                && t.label().conforms_to(ty.sig())
        })
    }

    /// Pre-order iterator over all nodes.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stack: vec![self] }
    }

    /// The interned identity of this tree: equal ids ⇔ structurally
    /// equal trees, stable and never reused for the life of the process.
    /// This is the memo key the runtime uses (`(state, TreeId)`), and
    /// the right key for any caller-side cache over trees.
    pub fn id(&self) -> TreeId {
        self.node.id
    }

    /// The precomputed structural hash: equal trees have equal hashes.
    /// It is keyed per process, so it is the same in every thread of a
    /// process but differs from one run to the next.
    pub fn precomputed_hash(&self) -> u64 {
        self.node.hash
    }

    /// Pretty-prints using constructor names from `ty`.
    pub fn display<'a>(&'a self, ty: &'a TreeType) -> DisplayTree<'a> {
        DisplayTree { tree: self, ty }
    }

    /// Parses the s-expression syntax produced by [`Tree::display`]:
    /// `ctor[label-values](child, …)`, with `[...]` omitted for unit labels
    /// and `(...)` omitted for leaves. String and char values are read
    /// back from their `{:?}` form: double or single quotes, with the
    /// escapes `\0 \t \r \n \' \" \\ \u{…}` (any other escaped char
    /// stands for itself), so `parse(display(t)) == t` for every tree.
    /// Depth is bounded by memory, not by the thread stack.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax, arity or label
    /// error; positions in it are byte offsets.
    pub fn parse(ty: &TreeType, input: &str) -> Result<Tree, String> {
        crate::parse::parse(ty, input, usize::MAX).map_err(|e| e.to_string())
    }

    /// [`Tree::parse`] with a nesting limit: fails with
    /// [`ParseError::TooDeep`] at the first `(` nested deeper than
    /// `max_depth` (a leaf nests 0 deep, `N(L, L)` 1), before any of the
    /// input is interned. Parens inside string and char labels are text
    /// and do not count.
    ///
    /// # Errors
    ///
    /// [`ParseError::TooDeep`] over the limit, [`ParseError::Syntax`]
    /// for everything [`Tree::parse`] rejects.
    pub fn parse_bounded(ty: &TreeType, input: &str, max_depth: usize) -> Result<Tree, ParseError> {
        crate::parse::parse(ty, input, max_depth)
    }

    /// [`Tree::parse_bounded`] of the text held by a JSON string literal
    /// whose content, escapes as written, is `input` (what
    /// [`fast_json::RawStr::raw`] returns): the same tree or the same
    /// error as for `input` unescaped, read where it lies. String and
    /// char labels decode their escapes as they are read, and escapes
    /// standing for whitespace between tokens are whitespace; any other
    /// escape outside a label, or an error, has the span unescaped and
    /// read again (counted in `trees.parse.unescaped`), so error
    /// positions are byte offsets in the unescaped text.
    ///
    /// # Errors
    ///
    /// What [`Tree::parse_bounded`] returns for the unescaped text, and
    /// [`ParseError::Syntax`] for a malformed JSON escape.
    pub fn parse_escaped(ty: &TreeType, input: &str, max_depth: usize) -> Result<Tree, ParseError> {
        crate::parse::parse_escaped(ty, input, max_depth)
    }
}

/// Pointer equality: the node table owns every canonical node, so two
/// handles share an allocation exactly when their structures are equal.
impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.node, &other.node)
    }
}
impl Eq for Tree {}

impl Hash for Tree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.node.hash);
    }
}

impl PartialOrd for Tree {
    fn partial_cmp(&self, other: &Tree) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tree {
    /// Structural order: constructor, then label, then the children
    /// lexicographically (the pre-interning derived order), so iteration
    /// is deterministic across runs. Addresses and ids depend on
    /// interning order, so they only serve the equal case: a subtree or
    /// a label that shares its canonical allocation with the other side
    /// compares equal on one pointer compare, without a walk. Iterative:
    /// the first differing node pair is found with a heap stack, so any
    /// depth compares on any thread stack.
    fn cmp(&self, other: &Tree) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        // Child lists whose earlier siblings compared equal.
        let mut open: Vec<(&[Tree], &[Tree])> = Vec::new();
        let (mut a, mut b) = (self, other);
        loop {
            if a != b {
                let ord = a.ctor().cmp(&b.ctor()).then_with(|| {
                    if a.interned_label().ptr_eq(b.interned_label()) {
                        Ordering::Equal
                    } else {
                        a.label().cmp(b.label())
                    }
                });
                if ord != Ordering::Equal {
                    return ord;
                }
                open.push((a.children(), b.children()));
            }
            loop {
                let Some((xs, ys)) = open.last_mut() else {
                    return Ordering::Equal;
                };
                match (xs.split_first(), ys.split_first()) {
                    (Some((x, xr)), Some((y, yr))) => {
                        (*xs, *ys) = (xr, yr);
                        (a, b) = (x, y);
                        break;
                    }
                    (None, None) => {
                        open.pop();
                    }
                    (None, Some(_)) => return Ordering::Less,
                    (Some(_), None) => return Ordering::Greater,
                }
            }
        }
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Constructor names are not known without a type; print the id.
        let mut out = String::new();
        write_tree(&mut out, self, |out, t| write_head(out, t, None))?;
        f.write_str(&out)
    }
}

/// Helper for [`Tree::display`].
pub struct DisplayTree<'a> {
    tree: &'a Tree,
    ty: &'a TreeType,
}

impl DisplayTree<'_> {
    /// Writes the text `Display` prints, generic over the writer like
    /// [`Label::write_to`]: rendering into a `String`, or through a
    /// writer that escapes it on the way, costs no dynamic dispatch per
    /// piece and no intermediate `String`.
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        self.write_with(w, |w, t| t.display(self.ty).write_head(w))
    }

    /// Writes the text [`DisplayTree::write_to`] writes, each node's
    /// head — its constructor name, its label, and the `(` that opens
    /// its children when it has any — written by `head` instead, which
    /// is handed the writer and the node; the commas and closing
    /// parens are written here. A head hook that writes what
    /// [`DisplayTree::write_head`] writes for the node leaves the text
    /// unchanged: `fast-serve` hands in one that copies each distinct
    /// head's text, rendered and escaped once per response.
    pub fn write_with<W: fmt::Write>(
        &self,
        w: &mut W,
        head: impl FnMut(&mut W, &Tree) -> fmt::Result,
    ) -> fmt::Result {
        write_tree(w, self.tree, head)
    }

    /// Writes the root's head alone: its constructor name, its label,
    /// and `(` when it has children.
    pub fn write_head(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write_head(w, self.tree, Some(self.ty))
    }
}

impl fmt::Display for DisplayTree<'_> {
    /// Built in a local `String` and handed to `f` in one write, so the
    /// many small pieces cost no dynamic dispatch each.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out)?;
        f.write_str(&out)
    }
}

/// Writes `t`'s head: its constructor name from `ty` (or `c<index>`
/// without a type), its label unless it is the unit label, and `(` when
/// it has children.
fn write_head<W: fmt::Write>(out: &mut W, t: &Tree, ty: Option<&TreeType>) -> fmt::Result {
    match ty {
        Some(ty) => out.write_str(ty.ctor_name(t.ctor()))?,
        None => write!(out, "c{}", t.ctor().0)?,
    }
    if t.label().arity() > 0 {
        t.label().write_to(out)?;
    }
    if !t.children().is_empty() {
        out.write_str("(")?;
    }
    Ok(())
}

/// Writes `t` in the syntax [`Tree::parse`] reads, each node's head
/// through `head` (see [`DisplayTree::write_with`]) — the one walk
/// that turns a tree into text. Iterative, so any depth prints on any
/// stack.
fn write_tree<W: fmt::Write>(
    out: &mut W,
    t: &Tree,
    mut head: impl FnMut(&mut W, &Tree) -> fmt::Result,
) -> fmt::Result {
    head(out, t)?;
    // Open nodes and the index of the next child to print.
    let mut open: Vec<(&Tree, usize)> = Vec::new();
    if !t.children().is_empty() {
        open.push((t, 0));
    }
    while let Some((node, next)) = open.last_mut() {
        let Some(child) = node.children().get(*next) else {
            out.write_str(")")?;
            open.pop();
            continue;
        };
        if *next > 0 {
            out.write_str(", ")?;
        }
        *next += 1;
        head(out, child)?;
        if !child.children().is_empty() {
            open.push((child, 0));
        }
    }
    Ok(())
}

/// Pre-order iterator (see [`Tree::iter`]).
pub struct Iter<'a> {
    stack: Vec<&'a Tree>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tree;
    fn next(&mut self) -> Option<&'a Tree> {
        let t = self.stack.pop()?;
        for c in t.children().iter().rev() {
            self.stack.push(c);
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_json::Json;
    use fast_smt::{LabelSig, Sort, Value};

    fn bt() -> Arc<TreeType> {
        TreeType::new(
            "BT",
            LabelSig::single("i", Sort::Int),
            vec![("L", 0), ("N", 2)],
        )
    }

    fn html() -> Arc<TreeType> {
        TreeType::new(
            "HtmlE",
            LabelSig::single("tag", Sort::Str),
            vec![("nil", 0), ("val", 1), ("attr", 2), ("node", 3)],
        )
    }

    #[test]
    fn build_and_inspect() {
        let ty = bt();
        let l = |n: i64| Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(n));
        let t = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(0i64),
            vec![l(1), l(2)],
        );
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 2);
        assert!(t.conforms_to(&ty));
        assert_eq!(t.iter().count(), 3);
        let labels: Vec<i64> = t
            .iter()
            .map(|n| n.label().get(0).as_int().unwrap())
            .collect();
        assert_eq!(labels, vec![0, 1, 2]); // pre-order
    }

    #[test]
    fn nonconforming() {
        let ty = bt();
        // Wrong arity for N.
        let t = Tree::new(ty.ctor_id("N").unwrap(), Label::single(0i64), vec![]);
        assert!(!t.conforms_to(&ty));
        // Wrong label sort.
        let t = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single("x"));
        assert!(!t.conforms_to(&ty));
    }

    #[test]
    fn parse_round_trip() {
        let ty = html();
        let text = r#"node["script"](nil[""], nil[""], node["div"](nil[""], nil[""], nil[""]))"#;
        let t = Tree::parse(&ty, text).unwrap();
        assert!(t.conforms_to(&ty));
        let printed = t.display(&ty).to_string();
        let t2 = Tree::parse(&ty, &printed).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parse_int_labels() {
        let ty = bt();
        let t = Tree::parse(&ty, "N[-5](L[1], N[2](L[3], L[4]))").unwrap();
        assert_eq!(t.label().get(0).as_int(), Some(-5));
        assert_eq!(t.size(), 5);
    }

    #[test]
    fn parse_errors() {
        let ty = bt();
        assert!(Tree::parse(&ty, "X[1]").is_err()); // unknown ctor
        assert!(Tree::parse(&ty, "N[1](L[1])").is_err()); // arity
        assert!(Tree::parse(&ty, "L[\"s\"]").is_err()); // label sort
        assert!(Tree::parse(&ty, "L[1] L[2]").is_err()); // trailing
    }

    #[test]
    fn structural_equality_and_sharing() {
        let ty = bt();
        let l = Tree::leaf(ty.ctor_id("L").unwrap(), Label::single(7i64));
        let t1 = Tree::new(
            ty.ctor_id("N").unwrap(),
            Label::single(0i64),
            vec![l.clone(), l.clone()],
        );
        let t2 = Tree::parse(&ty, "N[0](L[7], L[7])").unwrap();
        assert_eq!(t1, t2);
        // Interning: independent construction paths (builder vs parser)
        // converge on the same canonical node and id.
        assert_eq!(t1.id(), t2.id());
        assert_eq!(t1.child(0), t2.child(1));
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(t1);
        assert!(s.contains(&t2));
    }

    /// Every escape `{:?}` prints reads back as the char it stands for
    /// (`\r` once read back as `r`, `\0` as `0`, and `'\u{7}'` failed).
    #[test]
    fn parse_decodes_every_debug_escape() {
        let ty = TreeType::new(
            "SC",
            LabelSig::new(vec![("s".into(), Sort::Str), ("c".into(), Sort::Char)]),
            vec![("leaf", 0)],
        );
        let leaf = ty.ctor_id("leaf").unwrap();
        for s in [
            "cr\r", "\0", "\u{7}", "\u{ad}", "\u{200b}", "t\tn\n", "q\"'\\", "e\u{301}",
        ] {
            for c in [
                '\0',
                '\u{7}',
                '\u{ad}',
                '\'',
                '"',
                '\\',
                '\r',
                'x',
                '\u{10ffff}',
            ] {
                let t = Tree::leaf(leaf, Label::new(vec![Value::Str(s.into()), Value::Char(c)]));
                let printed = t.display(&ty).to_string();
                assert_eq!(printed, format!("leaf[{s:?}, {c:?}]"));
                assert_eq!(Tree::parse(&ty, &printed).unwrap(), t, "{printed}");
            }
        }
        // Written-out forms the printer never emits still read as before.
        let t = Tree::parse(&ty, r#"leaf["\a\u{1F600}", 'z']"#).unwrap();
        assert_eq!(t.label().get(0).as_str(), Some("a\u{1F600}"));
        for bad in [
            r#"leaf["\u{}", 'z']"#,
            r#"leaf["\u{110000}", 'z']"#,
            r#"leaf["\u41", 'z']"#,
        ] {
            assert!(Tree::parse(&ty, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bounded_parse_counts_parens_not_label_text() {
        let ty = html();
        let text = format!(
            r#"node["{}"](nil[""], nil[""], nil[")"])"#,
            "(".repeat(2_000)
        );
        assert!(Tree::parse_bounded(&ty, &text, 1).is_ok());
        assert_eq!(
            Tree::parse_bounded(&ty, &text, 0).unwrap_err(),
            ParseError::TooDeep { limit: 0 }
        );
        let nested = r#"node["a"](nil[""], node["b"](nil[""], nil[""], nil[""]), nil[""])"#;
        assert!(Tree::parse_bounded(&ty, nested, 2).is_ok());
        assert_eq!(
            Tree::parse_bounded(&ty, nested, 1).unwrap_err(),
            ParseError::TooDeep { limit: 1 }
        );
        // Syntax errors keep their own variant.
        assert!(matches!(
            Tree::parse_bounded(&ty, "node[", 8),
            Err(ParseError::Syntax(_))
        ));
    }

    #[test]
    fn parse_accepts_unicode_whitespace_and_identifiers() {
        let ty = TreeType::new("Ü", LabelSig::unit(), vec![("λ_0", 0), ("ß", 1)]);
        let t = Tree::parse(&ty, "\u{3000}ß\u{a0}(\u{2003}λ_0\u{2028})\u{85}").unwrap();
        assert_eq!(t.display(&ty).to_string(), "ß(λ_0)");
    }

    /// The escaped read gives `parse`'s tree for the unescaped text. It
    /// reads in place escapes inside literals, escaped quotes around
    /// them and escaped whitespace, and hands anything else to the plain
    /// read, counting it. No other test here reads escaped text, so the
    /// counter moves only for these calls.
    #[test]
    fn escaped_read_matches_the_unescaped_parse() {
        let ty = TreeType::new(
            "SC",
            LabelSig::new(vec![("s".into(), Sort::Str), ("c".into(), Sort::Char)]),
            vec![("leaf", 0), ("pair", 2)],
        );
        let fallbacks = || fast_obs::snapshot().get("trees.parse.unescaped");
        let text = r#"pair["a\"b\\c\u{1F600}é", '"'](leaf["(", '\n'], leaf["x/y", '\''])"#;
        let want = Tree::parse(&ty, text).unwrap();
        let canonical = Json::Str(text.into()).to_string();
        let before = fallbacks();
        for raw in [
            &canonical[1..canonical.len() - 1],
            r#"pair[\u0022a\\\"b\\\\c\\u{1F600}\u00e9\", '\"']\n(leaf[\"(\", '\\n'],\u0020leaf[\"x\/y\", '\\'']\t)"#,
            r#"pair [\"a\\\"b\\\\c\ud83d\ude00\u00e9\" , '\u0022'](leaf[\"(\",'\\n'],leaf[\"x/y\",'\\''])"#,
        ] {
            assert_eq!(Tree::parse_escaped(&ty, raw, 8).unwrap(), want, "{raw}");
        }
        assert_eq!(fallbacks(), before, "read in place");
        // An escaped constructor letter or bracket, and malformed text,
        // are read (or rejected) by the plain parser.
        let plain = |raw: &str| {
            let mut text = String::new();
            fast_json::unescape_into(raw, &mut text).unwrap();
            Tree::parse_bounded(&ty, &text, 8)
        };
        let fallback = [
            r#"\u0070air[\"a\", 'b'](leaf[\"\", 'c'], leaf[\"\", 'd'])"#,
            r#"pair[\"a\", 'b']\u0028leaf[\"\", 'c'], leaf[\"\", 'd'])"#,
            r#"pair[\"a\", 'b'](leaf[\"\", 'c'])"#,
            r#"leaf[\"a\", 'b'] x"#,
        ];
        for raw in fallback {
            assert_eq!(Tree::parse_escaped(&ty, raw, 8), plain(raw), "{raw}");
        }
        assert_eq!(fallbacks(), before + fallback.len() as u64);
        // The depth limit needs no second read.
        let deep = r#"pair[\"\", 'a'](leaf[\"\", 'b'], leaf[\"\", 'c'])"#;
        assert_eq!(
            Tree::parse_escaped(&ty, deep, 0),
            Err(ParseError::TooDeep { limit: 0 })
        );
        assert_eq!(fallbacks(), before + fallback.len() as u64);
    }

    #[test]
    fn escaped_strings() {
        let ty = html();
        let t = Tree::parse(&ty, r#"nil["a\"b"]"#).unwrap();
        assert_eq!(t.label().get(0).as_str(), Some("a\"b"));
        let printed = t.display(&ty).to_string();
        assert_eq!(Tree::parse(&ty, &printed).unwrap(), t);
    }
}
