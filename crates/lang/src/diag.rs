//! Source positions and diagnostics.
//!
//! A [`Diagnostic`] carries a severity, an optional stable machine code
//! (the `FAxxx` codes of the static analyzer live in `fast-analysis`),
//! secondary labels pointing at related spans, and free-form notes.
//! [`DiagSink`] accumulates many diagnostics so the compiler and the
//! analyzer can report everything they find instead of stopping at the
//! first problem.

use std::fmt;

/// A position in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Start position.
    pub start: Pos,
    /// End position.
    pub end: Pos,
}

impl Span {
    /// A span covering a single position.
    pub fn at(pos: Pos) -> Span {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The union of two spans.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not fatal; `fastc check --deny-warnings` promotes
    /// the process exit code, not the diagnostic itself.
    Warning,
    /// The program is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A secondary label: a related source location with its own message
/// (e.g. the *other* rule of an overlapping pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Where the related code is.
    pub span: Span,
    /// What it has to do with the primary message.
    pub message: String,
}

/// A compiler or analyzer message with source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Where the problem is.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Severity (errors reject the program, warnings do not).
    pub severity: Severity,
    /// Stable machine-readable code (`FA001`…`FA100` for analysis
    /// findings); `None` for plain compile errors.
    pub code: Option<&'static str>,
    /// Secondary labels pointing at related spans.
    pub labels: Vec<Label>,
    /// Free-form notes (counterexamples, hints) appended after the
    /// source excerpt when rendered.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn new(span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            span,
            message: message.into(),
            severity: Severity::Error,
            code: None,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(span, message)
        }
    }

    /// Attaches a stable machine code (builder style).
    pub fn with_code(mut self, code: &'static str) -> Diagnostic {
        self.code = Some(code);
        self
    }

    /// Attaches a secondary label (builder style).
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label {
            span,
            message: message.into(),
        });
        self
    }

    /// Attaches a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// True when the severity is [`Severity::Error`].
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            Some(code) => write!(
                f,
                "{}[{code}] at {}: {}",
                self.severity, self.span, self.message
            ),
            None => write!(f, "{} at {}: {}", self.severity, self.span, self.message),
        }
    }
}

impl std::error::Error for Diagnostic {}

/// A sink accumulating every diagnostic of a compile or analysis run,
/// in emission order.
#[derive(Debug, Clone, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
}

impl DiagSink {
    /// An empty sink.
    pub fn new() -> DiagSink {
        DiagSink::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Records many diagnostics.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(ds);
    }

    /// All diagnostics recorded so far, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// True if any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diagnostic::is_error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.is_error()).count()
    }

    /// Consumes the sink, returning the diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// The first error-severity diagnostic, if any (cloned).
    pub fn first_error(&self) -> Option<Diagnostic> {
        self.diags.iter().find(|d| d.is_error()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let d = Diagnostic::new(
            Span::at(Pos { line: 3, col: 7 }),
            "unknown constructor 'foo'",
        );
        assert_eq!(d.to_string(), "error at 3:7: unknown constructor 'foo'");
    }

    #[test]
    fn display_with_code_and_severity() {
        let d = Diagnostic::warning(Span::at(Pos { line: 2, col: 1 }), "dead rule")
            .with_code("FA001")
            .with_note("guard is unsatisfiable");
        assert_eq!(d.to_string(), "warning[FA001] at 2:1: dead rule");
        assert!(!d.is_error());
        assert_eq!(d.notes.len(), 1);
    }

    #[test]
    fn span_union() {
        let a = Span::at(Pos { line: 1, col: 1 });
        let b = Span::at(Pos { line: 2, col: 5 });
        let u = a.to(b);
        assert_eq!(u.start, Pos { line: 1, col: 1 });
        assert_eq!(u.end, Pos { line: 2, col: 5 });
    }

    #[test]
    fn sink_counts() {
        let mut sink = DiagSink::new();
        sink.push(Diagnostic::warning(Span::default(), "w"));
        assert!(!sink.has_errors());
        sink.push(Diagnostic::new(Span::default(), "e"));
        assert!(sink.has_errors());
        assert_eq!(sink.error_count(), 1);
        assert_eq!(sink.first_error().unwrap().message, "e");
        assert_eq!(sink.into_vec().len(), 2);
    }
}
