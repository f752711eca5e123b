//! # fast-json — dependency-free JSON for the `fast` workspace
//!
//! The build environment is fully offline, so instead of `serde` +
//! `serde_json` the workspace serializes through this small crate: a
//! [`Json`] value type, a strict parser ([`Json::parse`]), and a compact
//! writer (`Json::to_string`, via `Display`). It carries telemetry
//! snapshots, `BENCH_*.json` reports, `fastc` machine output and the
//! `fast-serve` wire protocol; compiled programs persist in the binary
//! `.fastc` format instead (`fast_smt::bin`, `fast_rt::Artifact`).
//!
//! There is one parser, and it borrows: [`JsonRef::parse`] returns a
//! value whose strings are [`RawStr`]s — spans of the input with their
//! escapes checked but not yet decoded. [`Json::parse`] is that parse
//! followed by [`JsonRef::to_json`]. A reader that only needs a few
//! fields of a large document (the `fast-serve` request decoder) reads
//! them from the borrowed value and decodes only those, once, with
//! [`unescape_into`] into a buffer it reuses. The writing side
//! has the same split: [`Escaped`] is a `fmt::Write` that escapes what
//! it is given as the content of a string literal, so text can be
//! rendered into a JSON document without a `String` of its own.
//!
//! Objects preserve insertion order (helpful for stable telemetry
//! snapshots and golden files); duplicate keys keep the last value on
//! lookup, as in `serde_json`.
//!
//! # Examples
//!
//! ```
//! use fast_json::Json;
//! let v = Json::parse(r#"{"a": [1, 2.5, "x\n"], "b": null}"#).unwrap();
//! assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
//! let back = Json::parse(&v.to_string()).unwrap();
//! assert_eq!(back, v);
//! ```

#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// Maximum container nesting [`Json::parse`] accepts. The parser is
/// recursive-descent — one `value → array/object → value` cycle per
/// nesting level — so without a ceiling a few hundred kilobytes of
/// `[[[[…` from a hostile peer would overflow the stack, and a stack
/// overflow is an *abort*, not a catchable panic. 512 levels is far
/// beyond any legitimate document this workspace exchanges while
/// keeping peak parser recursion well under the smallest (~2 MiB
/// default) thread stack it runs on.
pub const MAX_PARSE_DEPTH: usize = 512;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON numbers without `.`/`e`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key–value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (last occurrence wins on duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// The fields, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fs) => Some(fs),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: exactly one value, full input).
    ///
    /// # Errors
    ///
    /// Returns a positioned [`JsonError`] on malformed input, including
    /// containers nested deeper than [`MAX_PARSE_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        JsonRef::parse(input).map(|v| v.to_json())
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(xs) if !xs.is_empty() => {
                out.push_str("[\n");
                for (i, x) in xs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    x.write_pretty(out, indent + 1);
                    if i + 1 < xs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Object(fs) if !fs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&format!("{}: ", Json::Str(k.clone())));
                    v.write_pretty(out, indent + 1);
                    if i + 1 < fs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

impl fmt::Display for Json {
    /// The compact form. It is built in a local `String` and handed to
    /// `f` in one write, so the many small pieces of a large document
    /// cost no dynamic dispatch each.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out)?;
        f.write_str(&out)
    }
}

impl Json {
    fn write_compact(&self, out: &mut String) -> fmt::Result {
        use fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}")?,
            Json::Int(n) => write!(out, "{n}")?,
            Json::Float(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(out, "{x:.1}")?;
                    } else {
                        write!(out, "{x}")?;
                    }
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's lossy null.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str_literal(out, s)?,
            Json::Array(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_compact(out)?;
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str_literal(out, k)?;
                    out.push(':');
                    v.write_compact(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Writes `s` as a JSON string literal.
fn write_str_literal(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    escape_into(out, s);
    out.push('"');
    Ok(())
}

/// Appends `s` escaped as the content of a JSON string literal (no
/// quotes). Each run of bytes that needs no escaping is copied in one
/// write; every escaped byte is ASCII, so the runs always split on char
/// boundaries.
#[inline]
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        escape_byte(out, b);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends the escape of one byte that JSON requires escaped.
#[inline]
fn escape_byte(out: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    match b {
        b'"' => out.push_str("\\\""),
        b'\\' => out.push_str("\\\\"),
        b'\n' => out.push_str("\\n"),
        b'\r' => out.push_str("\\r"),
        b'\t' => out.push_str("\\t"),
        _ => {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
}

/// A `fmt::Write` that appends what it is given to a `String`, escaped
/// as the content of a JSON string literal: writing `Display` output
/// through it renders that text straight into a JSON document, with no
/// `String` of its own and no second pass. The quotes are the caller's.
///
/// ```
/// use fast_json::{Escaped, Json};
/// use std::fmt::Write as _;
/// let mut out = String::from("\"");
/// let mut esc = Escaped::new(&mut out);
/// write!(esc, "say {:?}", "hi").unwrap();
/// assert_eq!(esc.text_len(), 8);
/// out.push('"');
/// assert_eq!(out, Json::Str("say \"hi\"".into()).to_string());
/// ```
pub struct Escaped<'a> {
    out: &'a mut String,
    text_len: usize,
}

impl<'a> Escaped<'a> {
    /// An escaping writer appending to `out`.
    pub fn new(out: &'a mut String) -> Escaped<'a> {
        Escaped { out, text_len: 0 }
    }

    /// Bytes of text written so far, counted before escaping.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Appends `escaped`, text this writer (or another `Escaped`) has
    /// already escaped, as is, counting `text_len` bytes of text: a
    /// piece rendered and escaped once is copied on every later use.
    pub fn push_escaped(&mut self, escaped: &str, text_len: usize) {
        self.text_len += text_len;
        self.out.push_str(escaped);
    }
}

impl fmt::Write for Escaped<'_> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text_len += s.len();
        // Rendered text arrives in many one-byte pieces (brackets,
        // quotes, single chars): those skip the run scan.
        match *s.as_bytes() {
            [b] if b < 0x20 || b == b'"' || b == b'\\' => escape_byte(self.out, b),
            [b] => self.out.push(char::from(b)),
            _ => escape_into(self.out, s),
        }
        Ok(())
    }
}

/// A string literal's content as it appears in the text it was parsed
/// from: its escapes were checked by the parse but are not decoded yet.
/// Decoding happens on demand, and borrows when there is nothing to
/// decode. The default is the empty string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The content between the quotes, escapes as written.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// The decoded string: borrowed when nothing is escaped.
    pub fn decode(&self) -> Cow<'a, str> {
        if self.escaped {
            let mut out = String::with_capacity(self.raw.len());
            unescape_into(self.raw, &mut out)
                .expect("escapes are checked when the literal is parsed");
            Cow::Owned(out)
        } else {
            Cow::Borrowed(self.raw)
        }
    }

    /// True if the decoded string equals `s` (no allocation when
    /// nothing is escaped).
    pub fn is(&self, s: &str) -> bool {
        if self.escaped {
            self.decode() == s
        } else {
            self.raw == s
        }
    }
}

/// Decodes the content of a string literal, escapes as written (what
/// [`RawStr::raw`] returns), appending the result to `out`. This is the
/// parser's own escape decoder: a span the parser accepted always
/// decodes.
///
/// # Errors
///
/// A malformed escape, positioned in `raw`; `out` then holds the text
/// decoded before it.
pub fn unescape_into(raw: &str, out: &mut String) -> Result<(), JsonError> {
    let bytes = raw.as_bytes();
    // `run` starts the text not yet copied, `from` where to look for
    // the next escape.
    let (mut run, mut from) = (0, 0);
    while let Some(off) = bytes[from..].iter().position(|&b| b == b'\\') {
        let at = from + off;
        out.push_str(&raw[run..at]);
        if let Some(b'"' | b'\\' | b'/') = bytes.get(at + 1) {
            // The escaped byte stands for itself: it starts the next run.
            (run, from) = (at + 1, at + 2);
        } else {
            let (c, next) = unescape_at(bytes, at)?;
            out.push(c);
            (run, from) = (next, next);
        }
    }
    out.push_str(&raw[run..]);
    Ok(())
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |n, &d| char::from(d).to_digit(16).map(|d| n << 4 | d))
}

/// Decodes the escape whose `\` is at `at`: the char it stands for and
/// the index just past it. A `\uXXXX` high surrogate must be followed
/// by a `\uXXXX` low one; together they stand for one char. This is the
/// one escape decoder: [`unescape_into`] and the parser's scan use it,
/// and so does a reader that decodes escapes where they lie (as
/// `fast_trees`' tree parser reads a request's escaped input).
///
/// # Errors
///
/// A malformed escape, positioned in `bytes`.
pub fn unescape_at(bytes: &[u8], at: usize) -> Result<(char, usize), JsonError> {
    let err = |message: &str, offset: usize| JsonError {
        message: message.to_string(),
        offset,
    };
    let Some(&esc) = bytes.get(at + 1) else {
        return Err(err("dangling escape", at + 1));
    };
    let c = match esc {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'u' => {
            let cp = hex4(bytes, at + 2).ok_or_else(|| err("bad \\u escape", at + 2))?;
            if (0xD800..0xDC00).contains(&cp) && bytes.get(at + 6..at + 8) == Some(b"\\u") {
                let lo = hex4(bytes, at + 8)
                    .filter(|lo| (0xDC00..0xE000).contains(lo))
                    .ok_or_else(|| err("bad surrogate", at + 8))?;
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                let c = char::from_u32(c).expect("a surrogate pair is a scalar value");
                return Ok((c, at + 12));
            }
            let c = char::from_u32(cp).ok_or_else(|| err("invalid codepoint", at + 6))?;
            return Ok((c, at + 6));
        }
        _ => return Err(err("unknown escape", at + 2)),
    };
    Ok((c, at + 2))
}

/// A JSON value borrowed from the text it was parsed from: what
/// [`JsonRef::parse`] returns. Strings and object keys are [`RawStr`]s;
/// [`JsonRef::to_json`] decodes them into an owned [`Json`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without `.`/`e`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string, not yet decoded.
    Str(RawStr<'a>),
    /// An array.
    Array(Vec<JsonRef<'a>>),
    /// An object, in input order.
    Object(Vec<(RawStr<'a>, JsonRef<'a>)>),
}

impl<'a> JsonRef<'a> {
    /// Parses a JSON document (strict: exactly one value, full input),
    /// borrowing its strings from `input`. This is the crate's one
    /// parser.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`JsonError`] on malformed input, including
    /// malformed escapes and containers nested deeper than
    /// [`MAX_PARSE_DEPTH`].
    pub fn parse(input: &'a str) -> Result<JsonRef<'a>, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Object field lookup (last occurrence wins on duplicate keys, as
    /// in [`Json::get`]).
    pub fn get(&self, key: &str) -> Option<&JsonRef<'a>> {
        match self {
            JsonRef::Object(fields) => fields.iter().rev().find(|(k, _)| k.is(key)).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The owned value, every string decoded.
    pub fn to_json(&self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(*b),
            JsonRef::Int(n) => Json::Int(*n),
            JsonRef::Float(x) => Json::Float(*x),
            JsonRef::Str(s) => Json::Str(s.decode().into_owned()),
            JsonRef::Array(xs) => Json::Array(xs.iter().map(JsonRef::to_json).collect()),
            JsonRef::Object(fields) => Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.decode().into_owned(), v.to_json()))
                    .collect(),
            ),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting, checked against [`MAX_PARSE_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, s: &str, v: JsonRef<'a>) -> Result<JsonRef<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<JsonRef<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", JsonRef::Null),
            Some(b't') => self.lit("true", JsonRef::Bool(true)),
            Some(b'f') => self.lit("false", JsonRef::Bool(false)),
            Some(b'"') => Ok(JsonRef::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs one container parse a level deeper, failing instead of
    /// recursing past [`MAX_PARSE_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonRef<'a>, JsonError>,
    ) -> Result<JsonRef<'a>, JsonError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(JsonError {
                message: format!("nesting deeper than the {MAX_PARSE_DEPTH}-level limit"),
                offset: self.pos,
            });
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<JsonRef<'a>, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonRef::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonRef::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonRef<'a>, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonRef::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonRef::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A string literal: its content is sliced from the input, and each
    /// escape in it is checked (decoded and dropped) on the way past.
    /// `"` and `\` are ASCII, so they never split a UTF-8 char.
    fn string(&mut self) -> Result<RawStr<'a>, JsonError> {
        self.eat(b'"', "expected string")?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            let Some(off) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += off;
            if self.bytes[self.pos] == b'"' {
                let raw = &self.text[start..self.pos];
                self.pos += 1;
                return Ok(RawStr { raw, escaped });
            }
            escaped = true;
            self.pos = match self.bytes.get(self.pos + 1) {
                Some(b'"' | b'\\' | b'/') => self.pos + 2,
                _ => unescape_at(self.bytes, self.pos)?.1,
            };
        }
    }

    fn number(&mut self) -> Result<JsonRef<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(JsonRef::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(JsonRef::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_values() {
        for text in [
            "null",
            "true",
            "-42",
            r#""he\"llo\n\\""#,
            "[1,2,[3]]",
            r#"{"a":1,"b":[true,null],"c":{"d":"x"}}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    /// String literals are written byte for byte as the per-char
    /// escaper they replaced wrote them.
    #[test]
    fn string_literals_match_the_per_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let every_low_char: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain",
            every_low_char.as_str(),
            "node[\"a\\\"b\"](nil[\"\"])",
            "é😀\u{7f}\u{80}\u{ad}\u{2028}\"\n",
            "\\",
        ] {
            assert_eq!(Json::Str(s.into()).to_string(), reference(s), "{s:?}");
            let obj = Json::obj([(s, Json::Null)]);
            assert_eq!(obj.to_string(), format!("{{{}:null}}", reference(s)));
        }
    }

    /// The borrowing parse keeps strings as spans of the input and
    /// decodes them on demand, to what `Json::parse` holds.
    #[test]
    fn borrowed_strings_decode_on_demand() {
        let text =
            r#"{"plain": "abc", "esc": "a\"b\\c\/d\n\u00e9\uD83D\uDE00", "k": 1, "k": "last"}"#;
        let doc = JsonRef::parse(text).unwrap();
        let Some(JsonRef::Str(plain)) = doc.get("plain") else {
            panic!("plain is a string")
        };
        assert!(matches!(plain.decode(), Cow::Borrowed("abc")));
        let Some(JsonRef::Str(esc)) = doc.get("esc") else {
            panic!("esc is a string")
        };
        assert_eq!(esc.raw(), r#"a\"b\\c\/d\n\u00e9\uD83D\uDE00"#);
        assert_eq!(esc.decode(), "a\"b\\c/d\né😀");
        let mut buf = String::from("x");
        unescape_into(esc.raw(), &mut buf).unwrap();
        assert_eq!(buf, "xa\"b\\c/d\né😀");
        assert!(esc.is("a\"b\\c/d\né😀"));
        // Last key wins, as in `Json::get`.
        assert_eq!(
            doc.get("k").map(JsonRef::to_json),
            Some(Json::Str("last".into()))
        );
        assert_eq!(doc.to_json(), Json::parse(text).unwrap());
    }

    /// Every malformed escape fails the parse, positioned, and
    /// `unescape_into` rejects it the same way. A high surrogate must
    /// pair with a low one (`\uD800\u0041` once decoded to U+2441 in
    /// release builds).
    #[test]
    fn malformed_escapes_are_rejected() {
        for (bad, what) in [
            (r#""\u12""#, "bad \\u escape"),
            (r#""\u+041""#, "bad \\u escape"),
            (r#""\uD800""#, "invalid codepoint"),
            (r#""\uDC00""#, "invalid codepoint"),
            (r#""\uD800\u0041""#, "bad surrogate"),
            (r#""\uD800\uD800""#, "bad surrogate"),
            (r#""\x""#, "unknown escape"),
            (r#""\"#, "dangling escape"),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert_eq!(err.message, what, "{bad}");
            let raw = &bad[1..bad.len() - usize::from(bad.len() > 2 && bad.ends_with('"'))];
            assert_eq!(
                unescape_into(raw, &mut String::new()).unwrap_err().message,
                what,
                "{raw}"
            );
        }
    }

    #[test]
    fn floats_and_ints_distinct() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
        let lambda = Json::Str("λ".into());
        assert_eq!(Json::parse(&lambda.to_string()).unwrap(), lambda);
    }

    #[test]
    fn errors_are_positioned() {
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(Json::parse("99999999999999999999").is_err());
    }

    #[test]
    fn object_get_last_wins() {
        let v = Json::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_int(), Some(2));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::parse(r#"{"a":[1,2],"b":{"c":null},"d":[]}"#).unwrap();
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    /// A hostile `[[[[…` document must fail with a positioned error,
    /// not recurse once per byte and overflow the stack (an abort no
    /// handler could catch). Nesting at the limit still parses.
    #[test]
    fn pathological_nesting_is_rejected_not_overflowed() {
        let bomb = "[".repeat(500_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Mixed containers hit the same gate.
        let bomb = "{\"k\":[".repeat(200_000);
        assert!(Json::parse(&bomb).unwrap_err().message.contains("nesting"));
        // Exactly MAX_PARSE_DEPTH levels is legal…
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&deep).is_ok());
        // …and one more is not.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH + 1),
            "]".repeat(MAX_PARSE_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    /// Megabyte-scale strings must parse in linear time. The parser
    /// once re-validated UTF-8 from the cursor to the end of the input
    /// on *every* character of a string, which made a 1 MB payload
    /// take tens of seconds — the bound here is generous for a linear
    /// parser and hopeless for a quadratic one.
    #[test]
    fn large_strings_parse_in_linear_time() {
        let mut body = "munged \\\"wire\\\" text, 100% straight ahead ".repeat(25_000);
        body.push_str("é😀");
        let text = format!("{{\"input\": \"{body}\"}}");
        assert!(text.len() > 1_000_000);
        let start = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        // Each of the 2 × 25 000 `\"` escapes shrinks by one byte; the
        // raw multi-byte tail passes through unchanged.
        assert_eq!(
            v.get("input").and_then(Json::as_str).map(str::len),
            Some(body.len() - 2 * 25_000)
        );
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "1 MB string took {elapsed:?} to parse — quadratic again?"
        );
    }
}
