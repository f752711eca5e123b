//! The s-expression parser behind [`Tree::parse`] and
//! [`Tree::parse_bounded`].
//!
//! Parsing is two non-recursive passes, so input depth is bounded by
//! memory, not by the thread stack:
//!
//! 1. **Read.** One byte-level pass builds a local post-order arena:
//!    per node its constructor, its label values (strings borrowed from
//!    the input unless an escape forced a copy), its children's arena
//!    indices, its subtree size, its label's hash and its structural
//!    hash — computed bottom-up by [`intern::label_hash`] and
//!    [`intern::node_hash`], the functions the interner uses. Arity,
//!    label-signature conformance and the depth limit are all checked
//!    here, so a rejected input touches no shared state.
//! 2. **Resolve.** The arena is resolved against the global interner
//!    top-down: the largest unresolved subtree is probed by its hash and
//!    the candidate verified structurally against the arena. A verified
//!    hit yields the canonical subtree without probing any of its
//!    descendants; only on a miss does resolution descend, and the
//!    missing nodes are then built bottom-up through the interner's
//!    one entry, [`intern::intern`], with the hash already computed.
//!    A missing node's label is looked up in the label table by its
//!    arena hash and compared there while still borrowed, so a label
//!    the table holds is never copied out of the input.
//!    Parsing a document that is already interned therefore costs one
//!    probe, not one per node.

use crate::intern::{self, ValueRef};
use crate::tree::Tree;
use crate::ty::{CtorId, TreeType};
use fast_smt::{Label, Sort, Value};
use std::borrow::Cow;
use std::fmt;

/// Why [`Tree::parse_bounded`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed text, an unknown constructor, a wrong number of
    /// children, or a label that does not conform to the signature.
    Syntax(String),
    /// The input nests `(` deeper than `limit`. Parsing stops at the
    /// first `(` over the limit.
    TooDeep {
        /// The nesting limit the input exceeded.
        limit: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(msg) => f.write_str(msg),
            ParseError::TooDeep { limit } => {
                write!(f, "input nests deeper than the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

fn syntax(msg: impl Into<String>) -> ParseError {
    ParseError::Syntax(msg.into())
}

/// A parsed label value.
enum Lit<'a> {
    Bool(bool),
    Int(i64),
    Str(Cow<'a, str>),
    Char(char),
}

impl Lit<'_> {
    fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Lit::Bool(b) => ValueRef::Bool(*b),
            Lit::Int(n) => ValueRef::Int(*n),
            Lit::Str(s) => ValueRef::Str(s),
            Lit::Char(c) => ValueRef::Char(*c),
        }
    }

    fn sort(&self) -> Sort {
        match self {
            Lit::Bool(_) => Sort::Bool,
            Lit::Int(_) => Sort::Int,
            Lit::Str(_) => Sort::Str,
            Lit::Char(_) => Sort::Char,
        }
    }

    /// Moves the value out (leaving a placeholder): each arena label is
    /// built into a node at most once.
    fn take(&mut self) -> Value {
        match std::mem::replace(self, Lit::Bool(false)) {
            Lit::Bool(b) => Value::Bool(b),
            Lit::Int(n) => Value::Int(n),
            Lit::Str(s) => Value::Str(s.into_owned()),
            Lit::Char(c) => Value::Char(c),
        }
    }
}

/// One arena node. Its label is `vals[vals..vals + sig arity]` (every
/// accepted label has exactly the signature's arity), hashed to
/// `label`, and its children are `kids[kids..kids + rank]`.
struct Slot {
    ctor: CtorId,
    vals: usize,
    kids: usize,
    size: usize,
    label: u64,
    hash: u64,
}

struct Parser<'a> {
    ty: &'a TreeType,
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The arena, in post-order: children before their parent.
    nodes: Vec<Slot>,
    /// Label values, in pre-order (a label is read before the children).
    vals: Vec<Lit<'a>>,
    /// Child arena indices, one contiguous run per node.
    kids: Vec<usize>,
}

/// Parses `input` as a tree of type `ty`, failing with
/// [`ParseError::TooDeep`] at the first `(` nested deeper than
/// `max_depth`.
pub(crate) fn parse(ty: &TreeType, input: &str, max_depth: usize) -> Result<Tree, ParseError> {
    let mut p = Parser {
        ty,
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        nodes: Vec::new(),
        vals: Vec::new(),
        kids: Vec::new(),
    };
    let root = p.read(max_depth)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(syntax(format!("trailing input at position {}", p.pos)));
    }
    Ok(p.resolve(root))
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The char at the cursor (which is always on a char boundary).
    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skips Unicode whitespace (`char::is_whitespace`), ASCII first.
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b'\t'..=b'\r' | b' ') {
                self.pos += 1;
            } else if b >= 0x80 && self.peek_char().is_some_and(char::is_whitespace) {
                self.bump_char();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    fn expected(&self, b: u8) -> ParseError {
        syntax(format!("expected '{}' at position {}", b as char, self.pos))
    }

    /// An identifier: alphanumerics (Unicode) and `_`.
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else if b >= 0x80 && self.peek_char().is_some_and(char::is_alphanumeric) {
                self.bump_char();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(syntax(format!(
                "expected identifier at position {}",
                self.pos
            )));
        }
        Ok(&self.src[start..self.pos])
    }

    /// Reads the whole tree into the arena; returns the root's index.
    fn read(&mut self, max_depth: usize) -> Result<usize, ParseError> {
        // Nodes whose `(` is open: (ctor, label start, index in
        // `pending` of their first child).
        let mut open: Vec<(CtorId, usize, usize)> = Vec::new();
        // Finished nodes still waiting for their parent's `)`.
        let mut pending: Vec<usize> = Vec::new();
        loop {
            let name = self.ident()?;
            let ctor = self
                .ty
                .ctor_id(name)
                .ok_or_else(|| syntax(format!("unknown constructor '{name}'")))?;
            let vals = self.label()?;
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                if open.len() >= max_depth {
                    return Err(ParseError::TooDeep { limit: max_depth });
                }
                open.push((ctor, vals, pending.len()));
                self.skip_ws();
                if self.peek() != Some(b')') {
                    continue; // read the first child
                }
            } else {
                let leaf = self.finish(ctor, vals, &[])?;
                pending.push(leaf);
            }
            // Close nodes until one expects another child.
            loop {
                let Some(&(ctor, vals, first)) = open.last() else {
                    return Ok(pending[0]);
                };
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b')') => {
                        self.pos += 1;
                        open.pop();
                        let node = self.finish(ctor, vals, &pending[first..])?;
                        pending.truncate(first);
                        pending.push(node);
                    }
                    _ => return Err(self.expected(b')')),
                }
            }
        }
    }

    /// Appends a finished node to the arena after checking its arity.
    fn finish(
        &mut self,
        ctor: CtorId,
        vals: usize,
        children: &[usize],
    ) -> Result<usize, ParseError> {
        let rank = self.ty.rank(ctor);
        if children.len() != rank {
            return Err(syntax(format!(
                "constructor '{}' expects {rank} children, got {}",
                self.ty.ctor_name(ctor),
                children.len()
            )));
        }
        let label = &self.vals[vals..vals + self.ty.sig().arity()];
        let label = intern::label_hash(label.iter().map(Lit::as_ref));
        let hash = intern::node_hash(ctor, label, children.iter().map(|&k| self.nodes[k].hash));
        let size = 1 + children.iter().map(|&k| self.nodes[k].size).sum::<usize>();
        let kids = self.kids.len();
        self.kids.extend_from_slice(children);
        self.nodes.push(Slot {
            ctor,
            vals,
            kids,
            size,
            label,
            hash,
        });
        Ok(self.nodes.len() - 1)
    }

    /// Reads an optional `[v, …]` label, checks it against the
    /// signature, and returns where its values start in `vals`.
    fn label(&mut self) -> Result<usize, ParseError> {
        let start = self.vals.len();
        self.skip_ws();
        if self.peek() == Some(b'[') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != Some(b']') {
                loop {
                    let v = self.value()?;
                    self.vals.push(v);
                    self.skip_ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(b']')?;
        }
        let sig = self.ty.sig();
        let got = &self.vals[start..];
        if got.len() != sig.arity() || got.iter().enumerate().any(|(i, v)| v.sort() != sig.sort(i))
        {
            let label = Label::new(self.vals[start..].iter_mut().map(Lit::take).collect());
            return Err(syntax(format!(
                "label {label} does not conform to signature {sig}"
            )));
        }
        Ok(start)
    }

    fn value(&mut self) -> Result<Lit<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Lit::Str)
            }
            Some(b'\'') => {
                self.pos += 1;
                let c = match self.bump_char() {
                    Some('\\') => self.escape("char")?,
                    Some(c) => c,
                    None => return Err(syntax("unterminated char")),
                };
                self.expect(b'\'')?;
                Ok(Lit::Char(c))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|d| d.is_ascii_digit()) {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse::<i64>()
                    .map(Lit::Int)
                    .map_err(|e| syntax(e.to_string()))
            }
            _ => match self.ident()? {
                "true" => Ok(Lit::Bool(true)),
                "false" => Ok(Lit::Bool(false)),
                word => Err(syntax(format!("unexpected value '{word}'"))),
            },
        }
    }

    /// The rest of a string literal after its opening quote. Borrowed
    /// from the input unless it contains an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // `"` and `\` are ASCII, so they never split a UTF-8 char.
            let rest = &self.bytes[self.pos..];
            let Some(i) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(syntax("unterminated string"));
            };
            self.pos += i;
            let text = &self.src[run..self.pos];
            self.pos += 1;
            if rest[i] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(text);
            s.push(self.escape("string")?);
            run = self.pos;
        }
    }

    /// Decodes the escape after a `\`: every escape `{:?}` prints —
    /// `\0 \t \r \n \' \" \\ \u{…}` — with any other escaped char
    /// standing for itself.
    fn escape(&mut self, what: &str) -> Result<char, ParseError> {
        match self.bump_char() {
            None => Err(syntax(format!("unterminated {what}"))),
            Some('0') => Ok('\0'),
            Some('t') => Ok('\t'),
            Some('r') => Ok('\r'),
            Some('n') => Ok('\n'),
            Some('u') => {
                let at = self.pos;
                let bad = || syntax(format!("malformed \\u{{…}} escape at position {at}"));
                if self.peek() != Some(b'{') {
                    return Err(bad());
                }
                let digits = &self.src[at + 1..];
                let len = digits.find('}').ok_or_else(bad)?;
                if !(1..=6).contains(&len) || !digits[..len].bytes().all(|b| b.is_ascii_hexdigit())
                {
                    return Err(bad());
                }
                let c = u32::from_str_radix(&digits[..len], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(bad)?;
                self.pos = at + len + 2;
                Ok(c)
            }
            Some(c) => Ok(c),
        }
    }

    /// Resolves the arena against the interner, top-down (see the
    /// module docs); returns the canonical tree for `root`.
    fn resolve(mut self, root: usize) -> Tree {
        enum Task {
            /// Probe for the subtree; descend on a miss.
            Enter(usize),
            /// Children resolved: intern the node itself.
            Build(usize),
        }
        let arity = self.ty.sig().arity();
        let mut tasks = vec![Task::Enter(root)];
        // Resolved subtrees, in order: a node's children are the last
        // `rank` entries when its `Build` runs.
        let mut done: Vec<Tree> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Enter(i) => {
                    if let Some(t) = self.lookup(i) {
                        intern::count_hits(self.nodes[i].size as u64);
                        done.push(t);
                    } else {
                        tasks.push(Task::Build(i));
                        let kids = self.kids_of(&self.nodes[i]);
                        tasks.extend(kids.iter().rev().map(|&k| Task::Enter(k)));
                    }
                }
                Task::Build(i) => {
                    let s = &self.nodes[i];
                    let children = done.split_off(done.len() - self.ty.rank(s.ctor));
                    let label = intern::intern_label(
                        s.label,
                        &mut self.vals[s.vals..s.vals + arity],
                        |vals, l| {
                            vals.iter()
                                .map(Lit::as_ref)
                                .eq(l.values().iter().map(ValueRef::from))
                        },
                        |vals| Label::new(vals.iter_mut().map(Lit::take).collect()),
                    );
                    done.push(intern::intern(s.hash, s.ctor, &label, Cow::Owned(children)));
                }
            }
        }
        done.pop().expect("resolution yields the root")
    }

    /// The canonical tree structurally equal to arena subtree `i`, if
    /// one is interned.
    fn lookup(&self, i: usize) -> Option<Tree> {
        (0..)
            .map_while(|k| intern::probe(self.nodes[i].hash, k))
            .find(|cand| self.matches(cand, i))
    }

    /// Whether canonical tree `cand` is structurally equal to arena
    /// subtree `i` (an iterative walk of both).
    fn matches(&self, cand: &Tree, i: usize) -> bool {
        let mut stack = vec![(cand, i)];
        while let Some((t, j)) = stack.pop() {
            let s = &self.nodes[j];
            let kids = self.kids_of(s);
            if t.precomputed_hash() != s.hash
                || t.ctor() != s.ctor
                || t.children().len() != kids.len()
                || !t
                    .label()
                    .values()
                    .iter()
                    .map(ValueRef::from)
                    .eq(self.label_of(s).iter().map(Lit::as_ref))
            {
                return false;
            }
            stack.extend(t.children().iter().zip(kids.iter().copied()));
        }
        true
    }

    fn label_of(&self, s: &Slot) -> &[Lit<'a>] {
        &self.vals[s.vals..s.vals + self.ty.sig().arity()]
    }

    fn kids_of(&self, s: &Slot) -> &[usize] {
        &self.kids[s.kids..s.kids + self.ty.rank(s.ctor)]
    }
}
