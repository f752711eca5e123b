//! Concrete values and labels.

use crate::sort::{LabelSig, Sort};
use std::fmt;

/// A concrete value of one of the base sorts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A character.
    Char(char),
}

impl Value {
    /// The sort this value belongs to.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bool(_) => Sort::Bool,
            Value::Int(_) => Sort::Int,
            Value::Str(_) => Sort::Str,
            Value::Char(_) => Sort::Char,
        }
    }

    /// A canonical default value per sort, used as a model seed.
    pub fn default_of(sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(false),
            Sort::Int => Value::Int(0),
            Sort::Str => Value::Str(String::new()),
            Sort::Char => Value::Char('a'),
        }
    }

    /// Extracts an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a character, if this is one.
    pub fn as_char(&self) -> Option<char> {
        match self {
            Value::Char(c) => Some(*c),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<char> for Value {
    fn from(c: char) -> Self {
        Value::Char(c)
    }
}

impl Value {
    /// Writes the value as `Display` prints it; strings and chars as
    /// their `{:?}` form. A string of printable ASCII with nothing to
    /// escape is copied straight through; everything else goes to `{:?}`
    /// itself, so the output is byte-identical to it either way.
    /// Generic over the writer, so rendering many values into one
    /// `String` costs no dynamic dispatch per piece.
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(w, "{b}"),
            Value::Int(n) => write!(w, "{n}"),
            Value::Str(s)
                if s.bytes()
                    .all(|b| (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\') =>
            {
                w.write_str("\"")?;
                w.write_str(s)?;
                w.write_str("\"")
            }
            Value::Str(s) => write!(w, "{s:?}"),
            Value::Char(c) => write!(w, "{c:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A concrete label: one value per field of a [`LabelSig`], in order.
///
/// # Examples
///
/// ```
/// use fast_smt::{Label, Value};
/// let l = Label::new(vec![Value::Str("script".into())]);
/// assert_eq!(l.get(0).as_str(), Some("script"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label {
    values: Vec<Value>,
}

impl Label {
    /// Creates a label from field values (must match the signature order).
    pub fn new(values: Vec<Value>) -> Self {
        Label { values }
    }

    /// The empty label for unit signatures.
    pub fn unit() -> Self {
        Label { values: Vec::new() }
    }

    /// A label with a single field.
    pub fn single(v: impl Into<Value>) -> Self {
        Label {
            values: vec![v.into()],
        }
    }

    /// Value of field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All field values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Checks that this label conforms to `sig` (arity and field sorts).
    pub fn conforms_to(&self, sig: &LabelSig) -> bool {
        self.values.len() == sig.arity()
            && self
                .values
                .iter()
                .enumerate()
                .all(|(i, v)| v.sort() == sig.sort(i))
    }

    /// A default (all-zero) label conforming to `sig`.
    pub fn default_of(sig: &LabelSig) -> Label {
        Label {
            values: sig
                .fields()
                .iter()
                .map(|(_, s)| Value::default_of(*s))
                .collect(),
        }
    }
}

impl Label {
    /// Writes the label as `Display` prints it (`[v, …]`), generic over
    /// the writer like [`Value::write_to`].
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            v.write_to(w)?;
        }
        w.write_str("]")
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        let sig = LabelSig::new(vec![("a".into(), Sort::Int), ("b".into(), Sort::Str)]);
        let ok = Label::new(vec![Value::Int(3), Value::Str("x".into())]);
        let bad = Label::new(vec![Value::Str("x".into()), Value::Int(3)]);
        assert!(ok.conforms_to(&sig));
        assert!(!bad.conforms_to(&sig));
        assert!(Label::default_of(&sig).conforms_to(&sig));
    }

    #[test]
    fn display() {
        let l = Label::new(vec![Value::Int(-2), Value::Bool(true), Value::Char('x')]);
        assert_eq!(l.to_string(), "[-2, true, 'x']");
    }

    /// Strings and chars print exactly as `{:?}` prints them, whether or
    /// not they take the unescaped fast path.
    #[test]
    fn display_is_debug_for_strings_and_chars() {
        let every_low_char: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "div",
            "a b~",
            "q\"",
            "\\",
            "\r\u{ad}\u{200b}é",
            every_low_char.as_str(),
        ] {
            assert_eq!(Value::Str(s.into()).to_string(), format!("{s:?}"));
        }
        for c in every_low_char
            .chars()
            .chain(['é', '\u{ad}', '\u{301}', '\u{10ffff}'])
        {
            assert_eq!(Value::Char(c).to_string(), format!("{c:?}"));
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from('z').as_char(), Some('z'));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_int(), None);
    }
}
