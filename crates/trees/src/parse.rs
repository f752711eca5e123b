//! The s-expression parser behind [`Tree::parse`] and
//! [`Tree::parse_bounded`].
//!
//! Parsing is two non-recursive passes, so input depth is bounded by
//! memory, not by the thread stack:
//!
//! 1. **Read.** One byte-level pass builds a local post-order arena:
//!    per node its constructor, its label, the arena index where its
//!    subtree starts (a subtree is a contiguous run of a post-order
//!    arena, so its size and its children follow from that one index)
//!    and its structural hash, computed bottom-up by
//!    [`intern::node_hash`], the function the interner uses. Each label
//!    is hashed value by value as it is read ([`intern::LabelHasher`]).
//!    Both hashes are seeded from one copy of the process hash key
//!    ([`intern::Key`]), read once per document, and the label hash
//!    starts from a state that already holds the arity. The document's
//!    distinct labels are kept once each, in a
//!    per-parse table keyed by that hash: a node stores its label's
//!    index there. A string value is a span of the input, or of one
//!    per-parse buffer when an escape had to be decoded. Constructor
//!    names are matched against the input in place.
//!    Arity, label-signature conformance and the depth limit are all
//!    checked here, so a rejected input touches no shared state.
//! 2. **Resolve.** The arena is resolved against the global interner
//!    top-down: the largest unresolved subtree is probed by its hash and
//!    the first candidate under it verified structurally against the
//!    arena. A verified hit yields the canonical subtree without probing
//!    any of its descendants; only on a miss (or a candidate that is
//!    another structure under the same hash) does resolution descend,
//!    and the nodes are then built bottom-up through the interner's one
//!    entry, [`intern::intern`], with the hash already computed.
//!    Each distinct label is resolved to its canonical entry at most
//!    once per document: by the first verification that compares its
//!    values against a canonical label (later nodes with that label
//!    compare by pointer), or else by one label-table lookup when the
//!    first node carrying it is built, compared there while still
//!    borrowed, so a label the table holds is never copied out of the
//!    input. A missing node then takes the node table's lock only.
//!    Parsing a document that is already interned therefore costs one
//!    probe, not one per node.
//!
//! The read has a second mode, for a document that arrives as the
//! content of a JSON string literal ([`Tree::parse_escaped`]): it reads
//! the escaped text where it lies, decoding the escapes of a label's
//! literal into the same buffer and taking an escaped `"` as a
//! delimiter, so `fast-serve` reads a request's tree straight from its
//! frame. What that mode does not read in place it hands to the plain
//! read of the unescaped text (see [`parse_escaped`]).

use crate::intern::{self, Key, LabelHasher, ValueRef};
use crate::tree::{InternedLabel, Tree};
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

/// A label value as read: strings are spans, of the input or of the
/// parser's buffer of decoded escapes.
#[derive(Clone, Copy)]
enum Lit {
    Bool(bool),
    Int(i64),
    Char(char),
    /// `src[start..end]`.
    Src(usize, usize),
    /// `buf[start..end]`.
    Buf(usize, usize),
}

impl Lit {
    fn sort(self) -> Sort {
        match self {
            Lit::Bool(_) => Sort::Bool,
            Lit::Int(_) => Sort::Int,
            Lit::Char(_) => Sort::Char,
            Lit::Src(..) | Lit::Buf(..) => Sort::Str,
        }
    }
}

/// One arena node. Its subtree is `nodes[first..=self]`; its label is
/// `labels[label]`.
struct Slot {
    hash: u64,
    first: usize,
    ctor: u32,
    label: u32,
}

/// One distinct label of the document: its hash, its values
/// (`vals[vals..vals + arity]`) and, once known, its canonical entry.
struct LabelSlot {
    hash: u64,
    vals: usize,
    canon: Option<InternedLabel>,
}

/// The text a [`Lit`] span points into: the input and the buffer.
#[derive(Clone, Copy)]
struct Texts<'a> {
    src: &'a str,
    buf: &'a str,
}

impl<'a> Texts<'a> {
    fn value(self, v: Lit) -> ValueRef<'a> {
        match v {
            Lit::Bool(b) => ValueRef::Bool(b),
            Lit::Int(n) => ValueRef::Int(n),
            Lit::Char(c) => ValueRef::Char(c),
            Lit::Src(a, b) => ValueRef::Str(&self.src[a..b]),
            Lit::Buf(a, b) => ValueRef::Str(&self.buf[a..b]),
        }
    }

    fn owned(self, v: Lit) -> Value {
        match self.value(v) {
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(n) => Value::Int(n),
            ValueRef::Char(c) => Value::Char(c),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// Whether two labels' values are equal; strings are compared as
    /// bytes, without re-slicing them as `str`s.
    fn eq(self, a: &[Lit], b: &[Lit]) -> bool {
        let bytes = |v| match v {
            Lit::Src(a, b) => Some(&self.src.as_bytes()[a..b]),
            Lit::Buf(a, b) => Some(&self.buf.as_bytes()[a..b]),
            _ => None,
        };
        a.iter().zip(b).all(|(&x, &y)| match (bytes(x), bytes(y)) {
            (Some(x), Some(y)) => x == y,
            _ => self.value(x) == self.value(y),
        })
    }
}

struct Parser<'a> {
    ty: &'a TreeType,
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Whether `src` is the content of a JSON string literal, escapes
    /// as written (see [`parse_escaped`]).
    escaped: bool,
    /// Per constructor, in id order: its name and its rank.
    ctors: Vec<(&'a [u8], usize)>,
    /// The label signature's arity.
    arity: usize,
    /// The process hash key, read once per document.
    key: Key,
    /// A label hash seeded with the key and the arity, copied per label.
    label_seed: LabelHasher,
    /// The arena, in post-order: children before their parent.
    nodes: Vec<Slot>,
    /// The document's distinct labels, in order of first occurrence.
    labels: Vec<LabelSlot>,
    /// Open-addressed index of `labels` by hash: `label + 1`, or 0 for
    /// an empty slot; a power-of-two length at most half full.
    label_index: Vec<u32>,
    /// Label values of `labels`, `arity` each.
    vals: Vec<Lit>,
    /// Strings whose escapes were decoded.
    buf: String,
}

/// Parses `input` as a tree of type `ty`, failing with
/// [`ParseError::TooDeep`] at the first `(` nested deeper than
/// `max_depth`.
pub(crate) fn parse(ty: &TreeType, input: &str, max_depth: usize) -> Result<Tree, ParseError> {
    parse_text(ty, input, max_depth, false)
}

/// [`parse`] of the text whose JSON string literal has the content
/// `input`, escapes as written, read where it lies: what `parse` returns
/// for `input` unescaped.
///
/// The read decodes JSON escapes only where the text can hold them
/// cheaply. An escape that stands for `"` delimits a string literal
/// like a raw `"`; inside a string or char literal every escape is
/// decoded into the parser's buffer of decoded strings; outside a
/// literal an escape that stands for whitespace is whitespace. Any other
/// escape outside a literal (a `\u0028` for `(`, say) makes the read
/// fail, and so does malformed text: the span is then unescaped into a
/// string and read by `parse`, so the tree or the error, positioned in
/// the unescaped text, is `parse`'s own. Each such second read counts
/// one `trees.parse.unescaped`. The depth limit is the same in both
/// reads, so [`ParseError::TooDeep`] is returned without one.
pub(crate) fn parse_escaped(
    ty: &TreeType,
    input: &str,
    max_depth: usize,
) -> Result<Tree, ParseError> {
    match parse_text(ty, input, max_depth, true) {
        Err(ParseError::Syntax(_)) => {
            fast_obs::count!("trees.parse.unescaped");
            let mut text = String::with_capacity(input.len());
            fast_json::unescape_into(input, &mut text)
                .map_err(|e| syntax(format!("malformed JSON escape: {e}")))?;
            parse(ty, &text, max_depth)
        }
        read => read,
    }
}

/// Reads and resolves `input`, escaped as a JSON string literal's
/// content when `escaped` is set.
fn parse_text(
    ty: &TreeType,
    input: &str,
    max_depth: usize,
    escaped: bool,
) -> Result<Tree, ParseError> {
    // HTML pages print about ten bytes of text per node.
    let nodes = input.len() / 8 + 1;
    let arity = ty.sig().arity();
    let key = Key::get();
    let mut p = Parser {
        ty,
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        escaped,
        ctors: ty
            .ctors()
            .iter()
            .map(|c| (c.name().as_bytes(), c.rank()))
            .collect(),
        arity,
        key,
        label_seed: key.label_hasher(arity),
        nodes: Vec::with_capacity(nodes),
        labels: Vec::new(),
        label_index: vec![0; 64],
        vals: Vec::new(),
        buf: String::new(),
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

    /// The next char of a literal, a JSON escape of escaped text
    /// decoded first: `None` at the end of the text or at a malformed
    /// escape.
    fn lit_char(&mut self) -> Option<char> {
        if self.escaped && self.peek() == Some(b'\\') {
            let (c, next) = fast_json::unescape_at(self.bytes, self.pos).ok()?;
            self.pos = next;
            return Some(c);
        }
        self.bump_char()
    }

    /// Skips Unicode whitespace (`char::is_whitespace`), ASCII first,
    /// and escapes that stand for it.
    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if matches!(b, b'\t'..=b'\r' | b' ') {
                self.pos += 1;
            } else if b >= 0x80 && self.peek_char().is_some_and(char::is_whitespace) {
                self.bump_char();
            } else if b == b'\\' && self.escaped {
                match fast_json::unescape_at(self.bytes, self.pos) {
                    Ok((c, next)) if c.is_whitespace() => self.pos = next,
                    _ => break,
                }
            } else {
                break;
            }
        }
    }

    fn expected(&self, b: u8) -> ParseError {
        syntax(format!("expected '{}' at position {}", b as char, self.pos))
    }

    /// An identifier: alphanumerics (Unicode) and `_`.
    fn ident(&mut self) -> Result<&'a str, ParseError> {
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

    /// A constructor name, as its id. The names are tried against the
    /// input directly; only a name followed by more identifier bytes
    /// (or by a non-ASCII char) is read as a whole identifier first.
    fn ctor(&mut self) -> Result<u32, ParseError> {
        let rest = &self.bytes[self.pos..];
        for (i, &(name, _)) in self.ctors.iter().enumerate() {
            if rest.first() == name.first() && rest.starts_with(name) {
                match rest.get(name.len()) {
                    Some(&b) if b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80 => continue,
                    _ => {
                        self.pos += name.len();
                        return Ok(i as u32);
                    }
                }
            }
        }
        let name = self.ident()?;
        self.ctors
            .iter()
            .position(|&(n, _)| n == name.as_bytes())
            .map(|i| i as u32)
            .ok_or_else(|| syntax(format!("unknown constructor '{name}'")))
    }

    /// Reads the whole tree into the arena; returns the root's index.
    fn read(&mut self, max_depth: usize) -> Result<usize, ParseError> {
        // Nodes whose `(` is open: (ctor, label, index in `pending` of
        // their first child).
        let mut open: Vec<(u32, u32, usize)> = Vec::new();
        // Finished nodes still waiting for their parent's `)`.
        let mut pending: Vec<usize> = Vec::new();
        loop {
            self.skip_ws();
            let ctor = self.ctor()?;
            self.skip_ws();
            let label = self.label()?;
            self.skip_ws();
            if self.peek() == Some(b'(') {
                self.pos += 1;
                if open.len() >= max_depth {
                    return Err(ParseError::TooDeep { limit: max_depth });
                }
                open.push((ctor, label, pending.len()));
                self.skip_ws();
                if self.peek() != Some(b')') {
                    continue; // read the first child
                }
            } else {
                let leaf = self.finish(ctor, label, &[])?;
                pending.push(leaf);
            }
            // Close nodes until one expects another child.
            loop {
                let Some(&(ctor, label, first)) = open.last() else {
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
                        let node = self.finish(ctor, label, &pending[first..])?;
                        pending.truncate(first);
                        pending.push(node);
                    }
                    _ => return Err(self.expected(b')')),
                }
            }
        }
    }

    /// Appends a finished node to the arena after checking its arity.
    fn finish(&mut self, ctor: u32, label: u32, children: &[usize]) -> Result<usize, ParseError> {
        let rank = self.ctors[ctor as usize].1;
        if children.len() != rank {
            return Err(syntax(format!(
                "constructor '{}' expects {rank} children, got {}",
                self.ty.ctor_name(CtorId(ctor as usize)),
                children.len()
            )));
        }
        let here = self.nodes.len();
        let hash = self.key.node_hash(
            CtorId(ctor as usize),
            self.labels[label as usize].hash,
            children.iter().map(|&k| self.nodes[k].hash),
        );
        let first = children.first().map_or(here, |&k| self.nodes[k].first);
        self.nodes.push(Slot {
            hash,
            first,
            ctor,
            label,
        });
        Ok(here)
    }

    /// Reads an optional `[v, …]` label, checks it against the
    /// signature, and returns its index in `labels`.
    fn label(&mut self) -> Result<u32, ParseError> {
        let start = self.vals.len();
        let buf_mark = self.buf.len();
        let mut hasher = self.label_seed;
        if self.peek() == Some(b'[') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() != Some(b']') {
                loop {
                    let v = self.value(&mut hasher)?;
                    self.vals.push(v);
                    self.skip_ws();
                    if self.peek() != Some(b',') {
                        break;
                    }
                    self.pos += 1;
                    self.skip_ws();
                }
                if self.peek() != Some(b']') {
                    return Err(self.expected(b']'));
                }
            }
            self.pos += 1;
        }
        let sig = self.ty.sig();
        let got = &self.vals[start..];
        if got.len() != self.arity || got.iter().enumerate().any(|(i, v)| v.sort() != sig.sort(i)) {
            let texts = self.texts();
            let label = Label::new(got.iter().map(|&v| texts.owned(v)).collect());
            return Err(syntax(format!(
                "label {label} does not conform to signature {sig}"
            )));
        }
        let hash = hasher.finish();
        // Find the label among the document's, or add it.
        let mask = self.label_index.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.label_index[i] {
                0 => break,
                k => {
                    let l = &self.labels[k as usize - 1];
                    let same = l.hash == hash
                        && self
                            .texts()
                            .eq(&self.vals[l.vals..l.vals + self.arity], &self.vals[start..]);
                    if same {
                        self.vals.truncate(start);
                        self.buf.truncate(buf_mark);
                        return Ok(k - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let k = u32::try_from(self.labels.len())
            .map_err(|_| syntax("more distinct labels than the parser can index"))?;
        self.labels.push(LabelSlot {
            hash,
            vals: start,
            canon: None,
        });
        self.label_index[i] = k + 1;
        if self.labels.len() * 2 > self.label_index.len() {
            self.grow_label_index();
        }
        Ok(k)
    }

    /// Doubles the label index and re-places every label.
    fn grow_label_index(&mut self) {
        let len = self.label_index.len() * 2;
        self.label_index = vec![0; len];
        for (k, l) in self.labels.iter().enumerate() {
            let mut i = l.hash as usize & (len - 1);
            while self.label_index[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.label_index[i] = k as u32 + 1;
        }
    }

    fn texts(&self) -> Texts<'_> {
        Texts {
            src: self.src,
            buf: &self.buf,
        }
    }

    /// A label value, fed to `hasher` as it is read.
    fn value(&mut self, hasher: &mut LabelHasher) -> Result<Lit, ParseError> {
        let v = match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                return self.string(hasher);
            }
            Some(b'\\') if self.escaped => {
                self.pos = match self.bytes.get(self.pos + 1) {
                    Some(b'"') => self.pos + 2,
                    _ => match fast_json::unescape_at(self.bytes, self.pos) {
                        Ok(('"', next)) => next,
                        _ => return Err(syntax("an escape outside a literal")),
                    },
                };
                return self.string(hasher);
            }
            Some(b'\'') => {
                self.pos += 1;
                let c = match self.lit_char() {
                    Some('\\') => self.escape("char")?,
                    Some(c) => c,
                    None => return Err(syntax("unterminated char")),
                };
                self.skip_ws();
                if self.peek() != Some(b'\'') {
                    return Err(self.expected(b'\''));
                }
                self.pos += 1;
                Lit::Char(c)
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
                    .map_err(|e| syntax(e.to_string()))?
            }
            _ => match self.ident()? {
                "true" => Lit::Bool(true),
                "false" => Lit::Bool(false),
                word => return Err(syntax(format!("unexpected value '{word}'"))),
            },
        };
        hasher.value(self.texts().value(v));
        Ok(v)
    }

    /// The rest of a string literal after its opening quote, fed to
    /// `hasher`: a span of the input, or of `buf` once an escape forced
    /// a copy. In escaped text a `\` starts a JSON escape, which closes
    /// the literal if it stands for `"`, starts the tree syntax's escape
    /// if it stands for `\`, and is the char it stands for otherwise.
    fn string(&mut self, hasher: &mut LabelHasher) -> Result<Lit, ParseError> {
        let mut copied: Option<usize> = None;
        let mut run = self.pos;
        loop {
            // `"` and `\` are ASCII, so they never split a UTF-8 char.
            let rest = &self.bytes[self.pos..];
            let Some(i) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(syntax("unterminated string"));
            };
            self.pos += i;
            let end = self.pos;
            // What the `"` or `\` at `end` stands for, and where the
            // text after it starts.
            let (c, next) = match rest[i] {
                b'\\' if self.escaped => match rest.get(i + 1) {
                    Some(b'"') => ('"', end + 2),
                    _ => fast_json::unescape_at(self.bytes, end)
                        .map_err(|e| syntax(format!("malformed JSON escape: {e}")))?,
                },
                b => (char::from(b), end + 1),
            };
            self.pos = next;
            if c == '"' {
                let text = &self.src[run..end];
                return Ok(match copied {
                    None => {
                        hasher.value(ValueRef::Str(text));
                        Lit::Src(run, end)
                    }
                    Some(start) => {
                        self.buf.push_str(text);
                        hasher.value(ValueRef::Str(&self.buf[start..]));
                        Lit::Buf(start, self.buf.len())
                    }
                });
            }
            copied.get_or_insert(self.buf.len());
            self.buf.push_str(&self.src[run..end]);
            let c = if c == '\\' { self.escape("string")? } else { c };
            self.buf.push(c);
            run = self.pos;
        }
    }

    /// Decodes the escape after a `\`: every escape `{:?}` prints —
    /// `\0 \t \r \n \' \" \\ \u{…}` — with any other escaped char
    /// standing for itself.
    fn escape(&mut self, what: &str) -> Result<char, ParseError> {
        match self.lit_char() {
            None => Err(syntax(format!("unterminated {what}"))),
            Some('0') => Ok('\0'),
            Some('t') => Ok('\t'),
            Some('r') => Ok('\r'),
            Some('n') => Ok('\n'),
            Some('u') => {
                let at = self.pos;
                let bad = || syntax(format!("malformed \\u{{…}} escape at position {at}"));
                if self.lit_char() != Some('{') {
                    return Err(bad());
                }
                // One to six hex digits, then `}`.
                let (mut code, mut digits) = (0, 0);
                loop {
                    match self.lit_char().ok_or_else(bad)? {
                        '}' if digits > 0 => break,
                        d if digits < 6 && d.is_ascii_hexdigit() => {
                            code = code << 4 | d.to_digit(16).expect("a hex digit");
                            digits += 1;
                        }
                        _ => return Err(bad()),
                    }
                }
                char::from_u32(code).ok_or_else(bad)
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
        let mut tasks = vec![Task::Enter(root)];
        // Resolved subtrees, in order: a node's children are the last
        // `rank` entries when its `Build` runs.
        let mut done: Vec<Tree> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Enter(i) => {
                    if let Some(t) = self.lookup(i) {
                        intern::count_hits((i + 1 - self.nodes[i].first) as u64);
                        done.push(t);
                    } else {
                        tasks.push(Task::Build(i));
                        // Children from the last, which precedes its
                        // parent, back to the first, so the first is
                        // entered first.
                        let mut c = i;
                        for _ in 0..self.ctors[self.nodes[i].ctor as usize].1 {
                            c -= 1;
                            tasks.push(Task::Enter(c));
                            c = self.nodes[c].first;
                        }
                    }
                }
                Task::Build(i) => {
                    let s = &self.nodes[i];
                    let first = done.len() - self.ctors[s.ctor as usize].1;
                    let label = self.canonical_label(s.label as usize);
                    let s = &self.nodes[i];
                    let node = intern::intern(
                        s.hash,
                        CtorId(s.ctor as usize),
                        &label,
                        Cow::Borrowed(&done[first..]),
                    );
                    done.truncate(first);
                    done.push(node);
                }
            }
        }
        done.pop().expect("resolution yields the root")
    }

    /// The canonical entry of document label `k`: known from a
    /// verification, or looked up (and added) in the label table once.
    fn canonical_label(&mut self, k: usize) -> InternedLabel {
        let texts = Texts {
            src: self.src,
            buf: &self.buf,
        };
        let l = &mut self.labels[k];
        let (hash, vals) = (l.hash, &self.vals[l.vals..l.vals + self.arity]);
        l.canon
            .get_or_insert_with(|| {
                intern::intern_label(
                    hash,
                    vals,
                    |vals, c| {
                        vals.iter()
                            .map(|&v| texts.value(v))
                            .eq(c.values().iter().map(ValueRef::from))
                    },
                    |vals| Label::new(vals.iter().map(|&v| texts.owned(v)).collect()),
                )
            })
            .clone()
    }

    /// The canonical tree structurally equal to arena subtree `i`, if
    /// the first one interned under its hash is. On a 64-bit collision
    /// that may be another structure: resolution then descends as on a
    /// miss, and [`intern::intern`] finds the node among all under the
    /// hash, or adds it.
    fn lookup(&mut self, i: usize) -> Option<Tree> {
        intern::probe(self.nodes[i].hash).filter(|cand| self.matches(cand, i))
    }

    /// Whether canonical tree `cand` is structurally equal to arena
    /// subtree `i` (an iterative walk of both). A label is compared by
    /// value the first time, then by its canonical entry.
    fn matches(&mut self, cand: &Tree, i: usize) -> bool {
        let mut walk = Vec::new();
        let (mut t, mut j) = (cand, i);
        loop {
            let s = &self.nodes[j];
            let (label, rank) = (s.label as usize, self.ctors[s.ctor as usize].1);
            if t.precomputed_hash() != s.hash
                || t.ctor().0 != s.ctor as usize
                || t.children().len() != rank
                || !self.same_label(t, label)
            {
                return false;
            }
            // The last child precedes its parent in the arena; each
            // earlier one precedes the subtree after it.
            let mut c = j;
            for kid in t.children().iter().rev() {
                c -= 1;
                walk.push((kid, c));
                c = self.nodes[c].first;
            }
            match walk.pop() {
                Some(next) => (t, j) = next,
                None => return true,
            }
        }
    }

    /// Whether `t`'s label is document label `k`.
    fn same_label(&mut self, t: &Tree, k: usize) -> bool {
        let l = &mut self.labels[k];
        if let Some(c) = &l.canon {
            return t.interned_label().ptr_eq(c);
        }
        let texts = Texts {
            src: self.src,
            buf: &self.buf,
        };
        let same = self.vals[l.vals..l.vals + self.arity]
            .iter()
            .map(|&v| texts.value(v))
            .eq(t.label().values().iter().map(ValueRef::from));
        if same {
            l.canon = Some(t.interned_label().clone());
        }
        same
    }
}
