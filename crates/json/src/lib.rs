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
        let mut p = Parser {
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

/// Writes `s` as a JSON string literal. Each run of bytes that needs no
/// escaping is copied in one write; every escaped byte is ASCII, so the
/// runs always split on char boundaries.
fn write_str_literal(out: &mut String, s: &str) -> fmt::Result {
    use fmt::Write as _;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match esc {
            Some(esc) => out.push_str(esc),
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
    Ok(())
}

struct Parser<'a> {
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

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
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
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
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

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(out));
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
                    return Ok(Json::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            // Copy the maximal run of unescaped bytes in one shot and
            // validate only that run — `"` and `\` (0x22, 0x5C) never
            // appear as UTF-8 continuation bytes, so the byte scan
            // cannot split a multi-byte character. Validating from
            // `pos` to the end of the *input* here instead would make
            // parsing quadratic in the string length.
            let run_start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"') | Some(b'\\')) {
                self.pos += 1;
            }
            if self.pos > run_start {
                let run = std::str::from_utf8(&self.bytes[run_start..self.pos]).map_err(|e| {
                    JsonError {
                        message: "invalid UTF-8".to_string(),
                        offset: run_start + e.valid_up_to(),
                    }
                })?;
                out.push_str(run);
            }
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pair?
                            let c = if (0xD800..0xDC00).contains(&cp)
                                && self.bytes.get(self.pos) == Some(&b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                let hex2 = self
                                    .bytes
                                    .get(self.pos + 2..self.pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.err("bad surrogate"))?;
                                let lo = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| self.err("bad surrogate"))?;
                                self.pos += 6;
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
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
