//! Symbolic terms over the fields of a single label variable.
//!
//! A [`Term`] denotes a function from labels to values. Output labels of
//! transducer rules are [`LabelFn`]s — one term per output field — so that
//! output labels can depend symbolically on the input label (the defining
//! feature of *symbolic* transducers).

use crate::sort::{LabelSig, Sort};
use crate::value::{Label, Value};
use std::borrow::Cow;
use std::fmt;

/// Errors raised while evaluating a term on a concrete label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Integer overflow in checked arithmetic.
    Overflow,
    /// Division or remainder by zero.
    DivByZero,
    /// A field index or sort did not match the label (indicates an untyped
    /// term; well-typed terms never raise this).
    SortMismatch,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Overflow => write!(f, "integer overflow"),
            EvalError::DivByZero => write!(f, "division by zero"),
            EvalError::SortMismatch => write!(f, "sort mismatch"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A symbolic term over one label variable.
///
/// Terms are pure; all arithmetic is over `i64` with checked semantics
/// (overflow is an evaluation error, which guards treat as *false* and
/// which never occurs inside the solver's complete fragments).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// Projection of field `i` of the label variable.
    Field(usize),
    /// A literal constant.
    Lit(Value),
    /// Integer negation.
    Neg(Box<Term>),
    /// Integer addition.
    Add(Box<Term>, Box<Term>),
    /// Integer subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Integer multiplication.
    Mul(Box<Term>, Box<Term>),
    /// Euclidean remainder by a *positive constant* divisor.
    ///
    /// Result is always in `[0, divisor)`, matching the paper's use of
    /// `(x + 5) % 26` as a total function.
    Mod(Box<Term>, u32),
    /// Euclidean (floor) division by a *positive constant* divisor.
    Div(Box<Term>, u32),
    /// String concatenation.
    Concat(Box<Term>, Box<Term>),
    /// Length of a string term, as an integer.
    StrLen(Box<Term>),
    /// Conditional: `if cond { then } else { els }`.
    ///
    /// The condition is a [`Formula`](crate::formula::Formula) and both
    /// branches must have the same sort.
    Ite(Box<crate::formula::Formula>, Box<Term>, Box<Term>),
}

#[allow(clippy::should_implement_trait)] // builder sugar: add/sub/mul/neg/div construct AST nodes
impl Term {
    /// Shorthand for an integer literal.
    pub fn int(n: i64) -> Term {
        Term::Lit(Value::Int(n))
    }

    /// Shorthand for a string literal.
    pub fn str(s: &str) -> Term {
        Term::Lit(Value::Str(s.to_string()))
    }

    /// Shorthand for a boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::Lit(Value::Bool(b))
    }

    /// Shorthand for a character literal.
    pub fn char(c: char) -> Term {
        Term::Lit(Value::Char(c))
    }

    /// Shorthand for field projection.
    pub fn field(i: usize) -> Term {
        Term::Field(i)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Term) -> Term {
        Term::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Term) -> Term {
        Term::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Term) -> Term {
        Term::Mul(Box::new(self), Box::new(rhs))
    }

    /// `-self`.
    pub fn neg(self) -> Term {
        Term::Neg(Box::new(self))
    }

    /// `self mod m` (Euclidean, `m > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn modulo(self, m: u32) -> Term {
        assert!(m > 0, "modulus must be positive");
        Term::Mod(Box::new(self), m)
    }

    /// `self div m` (Euclidean, `m > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn div(self, m: u32) -> Term {
        assert!(m > 0, "divisor must be positive");
        Term::Div(Box::new(self), m)
    }

    /// String concatenation `self ++ rhs`.
    pub fn concat(self, rhs: Term) -> Term {
        Term::Concat(Box::new(self), Box::new(rhs))
    }

    /// Infers the sort of this term under `sig`, or `None` if ill-typed.
    pub fn sort(&self, sig: &LabelSig) -> Option<Sort> {
        match self {
            Term::Field(i) => {
                if *i < sig.arity() {
                    Some(sig.sort(*i))
                } else {
                    None
                }
            }
            Term::Lit(v) => Some(v.sort()),
            Term::Neg(t) => match t.sort(sig)? {
                Sort::Int => Some(Sort::Int),
                _ => None,
            },
            Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) => {
                match (a.sort(sig)?, b.sort(sig)?) {
                    (Sort::Int, Sort::Int) => Some(Sort::Int),
                    _ => None,
                }
            }
            Term::Mod(t, _) | Term::Div(t, _) => match t.sort(sig)? {
                Sort::Int => Some(Sort::Int),
                _ => None,
            },
            Term::Concat(a, b) => match (a.sort(sig)?, b.sort(sig)?) {
                (Sort::Str, Sort::Str) => Some(Sort::Str),
                _ => None,
            },
            Term::StrLen(t) => match t.sort(sig)? {
                Sort::Str => Some(Sort::Int),
                _ => None,
            },
            Term::Ite(c, a, b) => {
                if !c.well_typed(sig) {
                    return None;
                }
                let (sa, sb) = (a.sort(sig)?, b.sort(sig)?);
                if sa == sb {
                    Some(sa)
                } else {
                    None
                }
            }
        }
    }

    /// Evaluates the term on a concrete label.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on overflow or a sort mismatch (the latter only
    /// for ill-typed terms).
    pub fn eval(&self, label: &Label) -> Result<Value, EvalError> {
        match self {
            Term::Field(_) | Term::Lit(_) | Term::Ite(..) => {
                self.eval_ref(label).map(Cow::into_owned)
            }
            Term::Neg(t) => {
                let n = int(t, label)?;
                n.checked_neg().map(Value::Int).ok_or(EvalError::Overflow)
            }
            Term::Add(a, b) => {
                let (x, y) = (int(a, label)?, int(b, label)?);
                x.checked_add(y).map(Value::Int).ok_or(EvalError::Overflow)
            }
            Term::Sub(a, b) => {
                let (x, y) = (int(a, label)?, int(b, label)?);
                x.checked_sub(y).map(Value::Int).ok_or(EvalError::Overflow)
            }
            Term::Mul(a, b) => {
                let (x, y) = (int(a, label)?, int(b, label)?);
                x.checked_mul(y).map(Value::Int).ok_or(EvalError::Overflow)
            }
            Term::Mod(t, m) => {
                let x = int(t, label)?;
                Ok(Value::Int(x.rem_euclid(i64::from(*m))))
            }
            Term::Div(t, m) => {
                let x = int(t, label)?;
                Ok(Value::Int(x.div_euclid(i64::from(*m))))
            }
            Term::Concat(a, b) => {
                let x = a.eval(label)?;
                let y = b.eval_ref(label)?;
                match (x, y.as_ref()) {
                    (Value::Str(mut s), Value::Str(t)) => {
                        s.push_str(t);
                        Ok(Value::Str(s))
                    }
                    _ => Err(EvalError::SortMismatch),
                }
            }
            Term::StrLen(t) => match t.eval_ref(label)?.as_ref() {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                _ => Err(EvalError::SortMismatch),
            },
        }
    }

    /// [`Term::eval`] without the copies: a field projection borrows the
    /// label's value and a literal borrows itself (through `Ite` too), so
    /// a guard such as `x0 != "script"` compares in place instead of
    /// cloning two strings. Every other term computes a fresh value.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Term::eval`].
    pub fn eval_ref<'a>(&'a self, label: &'a Label) -> Result<Cow<'a, Value>, EvalError> {
        match self {
            Term::Field(i) => label
                .values()
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or(EvalError::SortMismatch),
            Term::Lit(v) => Ok(Cow::Borrowed(v)),
            Term::Ite(c, a, b) => {
                if c.eval(label) {
                    a.eval_ref(label)
                } else {
                    b.eval_ref(label)
                }
            }
            _ => self.eval(label).map(Cow::Owned),
        }
    }

    /// Substitutes `args[i]` for `Field(i)`, composing label functions.
    ///
    /// If `self` denotes `t(x)` and `args` denotes `e(x)` field-wise, the
    /// result denotes `t(e(x))`.
    pub fn subst(&self, args: &[Term]) -> Term {
        match self {
            Term::Field(i) => args.get(*i).cloned().unwrap_or_else(|| self.clone()),
            Term::Lit(_) => self.clone(),
            Term::Neg(t) => Term::Neg(Box::new(t.subst(args))),
            Term::Add(a, b) => Term::Add(Box::new(a.subst(args)), Box::new(b.subst(args))),
            Term::Sub(a, b) => Term::Sub(Box::new(a.subst(args)), Box::new(b.subst(args))),
            Term::Mul(a, b) => Term::Mul(Box::new(a.subst(args)), Box::new(b.subst(args))),
            Term::Mod(t, m) => Term::Mod(Box::new(t.subst(args)), *m),
            Term::Div(t, m) => Term::Div(Box::new(t.subst(args)), *m),
            Term::Concat(a, b) => Term::Concat(Box::new(a.subst(args)), Box::new(b.subst(args))),
            Term::StrLen(t) => Term::StrLen(Box::new(t.subst(args))),
            Term::Ite(c, a, b) => Term::Ite(
                Box::new(c.subst(args)),
                Box::new(a.subst(args)),
                Box::new(b.subst(args)),
            ),
        }
    }

    /// Constant-folds the term; returns `Lit` whenever no field occurs.
    pub fn simplify(&self) -> Term {
        match self {
            Term::Field(_) | Term::Lit(_) => self.clone(),
            Term::Neg(t) => {
                let t = t.simplify();
                if let Term::Lit(Value::Int(n)) = &t {
                    if let Some(m) = n.checked_neg() {
                        return Term::int(m);
                    }
                }
                Term::Neg(Box::new(t))
            }
            Term::Add(a, b) => fold_bin(a, b, |x, y| x.checked_add(y), Term::Add),
            Term::Sub(a, b) => fold_bin(a, b, |x, y| x.checked_sub(y), Term::Sub),
            Term::Mul(a, b) => fold_bin(a, b, |x, y| x.checked_mul(y), Term::Mul),
            Term::Mod(t, m) => {
                // Inside a `% m` context, ring operations preserve
                // congruence, so an inner `u % m'` with `m | m'` can be
                // replaced by `u` (u ≡ u % m' (mod m)). This keeps label
                // functions small across repeated transducer composition,
                // e.g. ((x+5)%26+5)%26 → (x+10)%26.
                let t = strip_mod(t, *m).simplify();
                if let Term::Lit(Value::Int(n)) = &t {
                    return Term::int(n.rem_euclid(i64::from(*m)));
                }
                Term::Mod(Box::new(t), *m)
            }
            Term::Div(t, m) => {
                let t = t.simplify();
                if let Term::Lit(Value::Int(n)) = &t {
                    return Term::int(n.div_euclid(i64::from(*m)));
                }
                Term::Div(Box::new(t), *m)
            }
            Term::Concat(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                if let (Term::Lit(Value::Str(x)), Term::Lit(Value::Str(y))) = (&a, &b) {
                    return Term::str(&format!("{x}{y}"));
                }
                Term::Concat(Box::new(a), Box::new(b))
            }
            Term::StrLen(t) => {
                let t = t.simplify();
                if let Term::Lit(Value::Str(s)) = &t {
                    return Term::int(s.chars().count() as i64);
                }
                Term::StrLen(Box::new(t))
            }
            Term::Ite(c, a, b) => {
                use crate::formula::Formula;
                let c = c.simplify();
                match c {
                    Formula::True => a.simplify(),
                    Formula::False => b.simplify(),
                    c => Term::Ite(Box::new(c), Box::new(a.simplify()), Box::new(b.simplify())),
                }
            }
        }
    }

    /// True if the term mentions no field (denotes a constant).
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Field(_) => false,
            Term::Lit(_) => true,
            Term::Neg(t) | Term::Mod(t, _) | Term::Div(t, _) | Term::StrLen(t) => t.is_ground(),
            Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) | Term::Concat(a, b) => {
                a.is_ground() && b.is_ground()
            }
            Term::Ite(c, a, b) => c.is_ground() && a.is_ground() && b.is_ground(),
        }
    }

    /// Collects the set of field indices mentioned by the term.
    pub fn fields_used(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Term::Field(i) => {
                out.insert(*i);
            }
            Term::Lit(_) => {}
            Term::Neg(t) | Term::Mod(t, _) | Term::Div(t, _) | Term::StrLen(t) => {
                t.fields_used(out)
            }
            Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) | Term::Concat(a, b) => {
                a.fields_used(out);
                b.fields_used(out);
            }
            Term::Ite(c, a, b) => {
                c.fields_used(out);
                a.fields_used(out);
                b.fields_used(out);
            }
        }
    }
}

fn int(t: &Term, label: &Label) -> Result<i64, EvalError> {
    t.eval_ref(label)?.as_int().ok_or(EvalError::SortMismatch)
}

fn fold_bin(
    a: &Term,
    b: &Term,
    f: impl Fn(i64, i64) -> Option<i64>,
    mk: impl Fn(Box<Term>, Box<Term>) -> Term,
) -> Term {
    let (a, b) = (a.simplify(), b.simplify());
    if let (Term::Lit(Value::Int(x)), Term::Lit(Value::Int(y))) = (&a, &b) {
        if let Some(z) = f(*x, *y) {
            return Term::int(z);
        }
    }
    mk(Box::new(a), Box::new(b))
}

/// Rewrites `t` under a `% m` context: drops inner `% m'` wrappers whose
/// modulus is a multiple of `m`, recursing through the ring operations
/// (which preserve congruence mod `m`). Re-associates constant additions
/// so chains like `(x + 5) + 5` fold.
fn strip_mod(t: &Term, m: u32) -> Term {
    let stripped = match t {
        Term::Mod(u, m2) if *m2 % m == 0 => strip_mod(u, m),
        Term::Neg(a) => Term::Neg(Box::new(strip_mod(a, m))),
        Term::Add(a, b) => Term::Add(Box::new(strip_mod(a, m)), Box::new(strip_mod(b, m))),
        Term::Sub(a, b) => Term::Sub(Box::new(strip_mod(a, m)), Box::new(strip_mod(b, m))),
        Term::Mul(a, b) => Term::Mul(Box::new(strip_mod(a, m)), Box::new(strip_mod(b, m))),
        other => other.clone(),
    };
    // Re-associate (a + c1) + c2 → a + (c1 + c2) so constants meet.
    if let Term::Add(x, c2) = &stripped {
        if let (Term::Add(a, c1), Term::Lit(Value::Int(n2))) = (x.as_ref(), c2.as_ref()) {
            if let Term::Lit(Value::Int(n1)) = c1.as_ref() {
                if let Some(s) = n1.checked_add(*n2) {
                    return Term::Add(a.clone(), Box::new(Term::int(s)));
                }
            }
        }
    }
    stripped
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Field(i) => write!(f, "x{i}"),
            Term::Lit(v) => write!(f, "{v}"),
            Term::Neg(t) => write!(f, "(- {t})"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mul(a, b) => write!(f, "({a} * {b})"),
            Term::Mod(t, m) => write!(f, "({t} % {m})"),
            Term::Div(t, m) => write!(f, "({t} / {m})"),
            Term::Concat(a, b) => write!(f, "({a} ++ {b})"),
            Term::StrLen(t) => write!(f, "(len {t})"),
            Term::Ite(c, a, b) => write!(f, "(if {c} then {a} else {b})"),
        }
    }
}

/// A label-to-label function: one output term per output field.
///
/// This is the symbolic counterpart of the paper's `e : σ → σ` output
/// relabelings (Definition 4).
///
/// # Examples
///
/// ```
/// use fast_smt::{Label, LabelFn, Term};
/// // x ↦ (x + 5) % 26 on a single-field integer label
/// let f = LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]);
/// let out = f.apply(&Label::single(30i64)).unwrap();
/// assert_eq!(out, Label::single(9i64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelFn {
    terms: Vec<Term>,
}

impl LabelFn {
    /// Creates a label function from output-field terms.
    pub fn new(terms: Vec<Term>) -> Self {
        LabelFn { terms }
    }

    /// The identity function on labels of arity `n`.
    pub fn identity(n: usize) -> Self {
        LabelFn {
            terms: (0..n).map(Term::Field).collect(),
        }
    }

    /// A constant function producing `label`.
    pub fn constant(label: &Label) -> Self {
        LabelFn {
            terms: label.values().iter().cloned().map(Term::Lit).collect(),
        }
    }

    /// Output terms, one per output field.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// True if output field `i` is input field `i` for every output
    /// field: the identity on labels of exactly `self.terms().len()`
    /// fields. Over a wider signature this is a projection, not the
    /// identity; `LabelAlg::is_identity_fun` checks the arity too.
    pub fn is_identity(&self) -> bool {
        self.terms
            .iter()
            .enumerate()
            .all(|(i, t)| matches!(t, Term::Field(j) if *j == i))
    }

    /// Applies the function to a concrete label.
    ///
    /// # Errors
    ///
    /// Propagates term-evaluation errors (overflow).
    pub fn apply(&self, label: &Label) -> Result<Label, EvalError> {
        let mut out = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            out.push(t.eval(label)?);
        }
        Ok(Label::new(out))
    }

    /// Function composition: `self ∘ inner`, i.e. `x ↦ self(inner(x))`.
    pub fn compose(&self, inner: &LabelFn) -> LabelFn {
        LabelFn {
            terms: self
                .terms
                .iter()
                .map(|t| t.subst(&inner.terms).simplify())
                .collect(),
        }
    }

    /// Simplifies every output term.
    pub fn simplify(&self) -> LabelFn {
        LabelFn {
            terms: self.terms.iter().map(Term::simplify).collect(),
        }
    }
}

impl fmt::Display for LabelFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arith() {
        let t = Term::field(0).add(Term::int(5)).modulo(26);
        assert_eq!(t.eval(&Label::single(30i64)).unwrap(), Value::Int(9));
        assert_eq!(t.eval(&Label::single(-6i64)).unwrap(), Value::Int(25));
    }

    #[test]
    fn euclidean_semantics() {
        let m = Term::field(0).modulo(7);
        assert_eq!(m.eval(&Label::single(-1i64)).unwrap(), Value::Int(6));
        let d = Term::field(0).div(7);
        assert_eq!(d.eval(&Label::single(-1i64)).unwrap(), Value::Int(-1));
    }

    #[test]
    fn overflow_is_error() {
        let t = Term::int(i64::MAX).add(Term::int(1));
        assert_eq!(t.eval(&Label::unit()), Err(EvalError::Overflow));
    }

    #[test]
    fn sorts() {
        let sig = LabelSig::new(vec![("n".into(), Sort::Int), ("s".into(), Sort::Str)]);
        assert_eq!(Term::field(0).add(Term::int(1)).sort(&sig), Some(Sort::Int));
        assert_eq!(
            Term::field(1).concat(Term::str("x")).sort(&sig),
            Some(Sort::Str)
        );
        assert_eq!(
            Term::StrLen(Box::new(Term::field(1))).sort(&sig),
            Some(Sort::Int)
        );
        assert_eq!(Term::field(1).add(Term::int(1)).sort(&sig), None);
        assert_eq!(Term::field(7).sort(&sig), None);
    }

    #[test]
    fn subst_composes() {
        // t(x) = x0 * 2, e(x) = x0 + 1  =>  t(e(x)) = (x0 + 1) * 2
        let t = Term::field(0).mul(Term::int(2));
        let e = vec![Term::field(0).add(Term::int(1))];
        let c = t.subst(&e);
        assert_eq!(c.eval(&Label::single(4i64)).unwrap(), Value::Int(10));
    }

    #[test]
    fn simplify_folds_constants() {
        let t = Term::int(2).add(Term::int(3)).mul(Term::int(4));
        assert_eq!(t.simplify(), Term::int(20));
        let m = Term::int(-3).modulo(26);
        assert_eq!(m.simplify(), Term::int(23));
        let s = Term::str("a").concat(Term::str("b"));
        assert_eq!(s.simplify(), Term::str("ab"));
    }

    #[test]
    fn mod_chain_collapses() {
        // ((x+5)%26+5)%26 simplifies to (x+10)%26.
        let inner = Term::field(0).add(Term::int(5)).modulo(26);
        let outer = inner.add(Term::int(5)).modulo(26);
        let s = outer.simplify();
        assert_eq!(s, Term::field(0).add(Term::int(10)).modulo(26));
        // Deep chains stay constant-size.
        let mut t = Term::field(0);
        for _ in 0..64 {
            t = t.add(Term::int(5)).modulo(26);
        }
        let s = t.simplify();
        assert_eq!(s, Term::field(0).add(Term::int(320)).modulo(26));
        // And the rewrite is semantics-preserving.
        for x in [-30i64, -1, 0, 7, 100] {
            assert_eq!(
                t.eval(&Label::single(x)).unwrap(),
                s.eval(&Label::single(x)).unwrap()
            );
        }
    }

    #[test]
    fn strip_mod_respects_divisibility() {
        // (x % 13) % 26: 13 is NOT a multiple of 26 — must not be stripped.
        let t = Term::field(0).modulo(13).modulo(26);
        let s = t.simplify();
        for x in [-5i64, 0, 12, 13, 40] {
            assert_eq!(
                t.eval(&Label::single(x)).unwrap(),
                s.eval(&Label::single(x)).unwrap()
            );
        }
        // (x % 52) % 26 may be stripped: 52 is a multiple of 26.
        let t = Term::field(0).modulo(52).modulo(26);
        assert_eq!(t.simplify(), Term::field(0).modulo(26));
    }

    #[test]
    fn label_fn_compose() {
        let f = LabelFn::new(vec![Term::field(0).add(Term::int(5)).modulo(26)]);
        let g = LabelFn::new(vec![Term::field(0).mul(Term::int(3))]);
        let h = f.compose(&g); // f(g(x)) = (3x + 5) % 26
        assert_eq!(h.apply(&Label::single(10i64)).unwrap(), Label::single(9i64));
        assert!(LabelFn::identity(2).is_identity());
        assert!(!g.is_identity());
    }

    #[test]
    fn ground_and_fields_used() {
        let t = Term::field(0).add(Term::field(2));
        let mut s = std::collections::BTreeSet::new();
        t.fields_used(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!t.is_ground());
        assert!(Term::int(3).add(Term::int(4)).is_ground());
    }
}
