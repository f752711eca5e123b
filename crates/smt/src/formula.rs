//! Quantifier-free formulas over a single label variable.
//!
//! These are the guards (σ-predicates, §3.1 of the paper) of symbolic tree
//! automata and transducers. The set of formulas is closed under the
//! Boolean operations and equality, forming an *effective Boolean algebra*
//! together with the solver in [`crate::solver`].

use crate::sort::{LabelSig, Sort};
use crate::term::Term;
use crate::value::{Label, Value};
use std::fmt;

/// Comparison operators for atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// The operator denoting the complement relation.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with swapped operands (`a op b` iff `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the relation to an [`Ordering`](std::cmp::Ordering).
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An atomic predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// Comparison of two terms of equal sort. Order comparisons are
    /// supported for `Int` and `Char`; `Eq`/`Ne` for every sort.
    Cmp(CmpOp, Term, Term),
    /// A term of sort `Bool` holds.
    BoolTerm(Term),
    /// String term starts with a constant prefix.
    StrPrefix(Term, String),
    /// String term ends with a constant suffix.
    StrSuffix(Term, String),
    /// String term contains a constant substring.
    StrContains(Term, String),
}

impl Atom {
    /// Evaluates the atom on a concrete label. Evaluation errors (overflow)
    /// make the atom false, so guards are total. Operands are evaluated
    /// with [`Term::eval_ref`], so comparing a field with a literal
    /// copies neither.
    pub fn eval(&self, label: &Label) -> bool {
        match self {
            Atom::Cmp(op, a, b) => match (a.eval_ref(label), b.eval_ref(label)) {
                (Ok(x), Ok(y)) => match (x.as_ref(), y.as_ref()) {
                    (Value::Int(_), Value::Int(_))
                    | (Value::Char(_), Value::Char(_))
                    | (Value::Str(_), Value::Str(_))
                    | (Value::Bool(_), Value::Bool(_)) => op.test(x.cmp(&y)),
                    _ => false,
                },
                _ => false,
            },
            Atom::BoolTerm(t) => matches!(t.eval_ref(label).as_deref(), Ok(Value::Bool(true))),
            Atom::StrPrefix(t, p) => {
                matches!(t.eval_ref(label).as_deref(), Ok(Value::Str(s)) if s.starts_with(p.as_str()))
            }
            Atom::StrSuffix(t, p) => {
                matches!(t.eval_ref(label).as_deref(), Ok(Value::Str(s)) if s.ends_with(p.as_str()))
            }
            Atom::StrContains(t, p) => {
                matches!(t.eval_ref(label).as_deref(), Ok(Value::Str(s)) if s.contains(p.as_str()))
            }
        }
    }

    /// Checks the atom is well-typed under `sig`.
    pub fn well_typed(&self, sig: &LabelSig) -> bool {
        match self {
            Atom::Cmp(op, a, b) => match (a.sort(sig), b.sort(sig)) {
                (Some(sa), Some(sb)) if sa == sb => match op {
                    CmpOp::Eq | CmpOp::Ne => true,
                    _ => matches!(sa, Sort::Int | Sort::Char),
                },
                _ => false,
            },
            Atom::BoolTerm(t) => t.sort(sig) == Some(Sort::Bool),
            Atom::StrPrefix(t, _) | Atom::StrSuffix(t, _) | Atom::StrContains(t, _) => {
                t.sort(sig) == Some(Sort::Str)
            }
        }
    }

    fn subst(&self, args: &[Term]) -> Atom {
        match self {
            Atom::Cmp(op, a, b) => Atom::Cmp(*op, a.subst(args), b.subst(args)),
            Atom::BoolTerm(t) => Atom::BoolTerm(t.subst(args)),
            Atom::StrPrefix(t, p) => Atom::StrPrefix(t.subst(args), p.clone()),
            Atom::StrSuffix(t, p) => Atom::StrSuffix(t.subst(args), p.clone()),
            Atom::StrContains(t, p) => Atom::StrContains(t.subst(args), p.clone()),
        }
    }

    fn simplify(&self) -> Atom {
        match self {
            Atom::Cmp(op, a, b) => Atom::Cmp(*op, a.simplify(), b.simplify()),
            Atom::BoolTerm(t) => Atom::BoolTerm(t.simplify()),
            Atom::StrPrefix(t, p) => Atom::StrPrefix(t.simplify(), p.clone()),
            Atom::StrSuffix(t, p) => Atom::StrSuffix(t.simplify(), p.clone()),
            Atom::StrContains(t, p) => Atom::StrContains(t.simplify(), p.clone()),
        }
    }

    /// True when no field occurs in the atom's terms.
    pub fn is_ground(&self) -> bool {
        match self {
            Atom::Cmp(_, a, b) => a.is_ground() && b.is_ground(),
            Atom::BoolTerm(t)
            | Atom::StrPrefix(t, _)
            | Atom::StrSuffix(t, _)
            | Atom::StrContains(t, _) => t.is_ground(),
        }
    }

    /// Collects field indices mentioned by the atom.
    pub fn fields_used(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Atom::Cmp(_, a, b) => {
                a.fields_used(out);
                b.fields_used(out);
            }
            Atom::BoolTerm(t)
            | Atom::StrPrefix(t, _)
            | Atom::StrSuffix(t, _)
            | Atom::StrContains(t, _) => t.fields_used(out),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Atom::BoolTerm(t) => write!(f, "{t}"),
            Atom::StrPrefix(t, p) => write!(f, "(startsWith {t} {p:?})"),
            Atom::StrSuffix(t, p) => write!(f, "(endsWith {t} {p:?})"),
            Atom::StrContains(t, p) => write!(f, "(contains {t} {p:?})"),
        }
    }
}

/// A quantifier-free formula over one label variable.
///
/// Use the smart constructors [`Formula::and`], [`Formula::or`],
/// [`Formula::not`] — they perform cheap logical simplification that keeps
/// guard growth under control during automata constructions.
///
/// # Examples
///
/// ```
/// use fast_smt::{Atom, CmpOp, Formula, Label, Term};
/// // x0 != "script"
/// let phi = Formula::atom(Atom::Cmp(CmpOp::Ne, Term::field(0), Term::str("script")));
/// assert!(phi.eval(&Label::single("div")));
/// assert!(!phi.eval(&Label::single("script")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The always-true predicate.
    True,
    /// The always-false predicate.
    False,
    /// An atomic predicate.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Wraps an atom.
    pub fn atom(a: Atom) -> Formula {
        Formula::Atom(a)
    }

    /// Comparison atom shorthand.
    pub fn cmp(op: CmpOp, a: Term, b: Term) -> Formula {
        Formula::Atom(Atom::Cmp(op, a, b))
    }

    /// `a = b` shorthand.
    pub fn eq(a: Term, b: Term) -> Formula {
        Formula::cmp(CmpOp::Eq, a, b)
    }

    /// `a != b` shorthand.
    pub fn ne(a: Term, b: Term) -> Formula {
        Formula::cmp(CmpOp::Ne, a, b)
    }

    /// Conjunction with unit/absorbing simplification and flattening.
    pub fn and(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, g) => g,
            (f, Formula::True) => f,
            (Formula::And(mut xs), Formula::And(ys)) => {
                for y in ys {
                    if !xs.contains(&y) {
                        xs.push(y);
                    }
                }
                Formula::And(xs)
            }
            (Formula::And(mut xs), g) => {
                if !xs.contains(&g) {
                    xs.push(g);
                }
                Formula::And(xs)
            }
            (f, Formula::And(mut ys)) => {
                if ys.contains(&f) {
                    Formula::And(ys)
                } else {
                    ys.insert(0, f);
                    Formula::And(ys)
                }
            }
            (f, g) => {
                if f == g {
                    f
                } else {
                    Formula::And(vec![f, g])
                }
            }
        }
    }

    /// Disjunction with unit/absorbing simplification and flattening.
    pub fn or(self, rhs: Formula) -> Formula {
        match (self, rhs) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, g) => g,
            (f, Formula::False) => f,
            (Formula::Or(mut xs), Formula::Or(ys)) => {
                for y in ys {
                    if !xs.contains(&y) {
                        xs.push(y);
                    }
                }
                Formula::Or(xs)
            }
            (Formula::Or(mut xs), g) => {
                if !xs.contains(&g) {
                    xs.push(g);
                }
                Formula::Or(xs)
            }
            (f, Formula::Or(mut ys)) => {
                if ys.contains(&f) {
                    Formula::Or(ys)
                } else {
                    ys.insert(0, f);
                    Formula::Or(ys)
                }
            }
            (f, g) => {
                if f == g {
                    f
                } else {
                    Formula::Or(vec![f, g])
                }
            }
        }
    }

    /// Negation with double-negation and De Morgan-free simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(f) => *f,
            Formula::Atom(Atom::Cmp(op, a, b)) => Formula::Atom(Atom::Cmp(op.negate(), a, b)),
            f => Formula::Not(Box::new(f)),
        }
    }

    /// Conjunction of many formulas.
    pub fn conj(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::True, Formula::and)
    }

    /// Disjunction of many formulas.
    pub fn disj(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::False, Formula::or)
    }

    /// Evaluates the formula on a concrete label (total).
    pub fn eval(&self, label: &Label) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(label),
            Formula::Not(f) => !f.eval(label),
            Formula::And(fs) => fs.iter().all(|f| f.eval(label)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(label)),
        }
    }

    /// Checks the formula is well-typed under `sig`.
    pub fn well_typed(&self, sig: &LabelSig) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Atom(a) => a.well_typed(sig),
            Formula::Not(f) => f.well_typed(sig),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|f| f.well_typed(sig)),
        }
    }

    /// Substitutes terms for fields: if `self` is `φ(x)` and `args` encodes
    /// `e(x)` field-wise, the result is `φ(e(x))` — the key operation in the
    /// `Look` procedure of the composition algorithm (§4.1).
    pub fn subst(&self, args: &[Term]) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(a.subst(args)),
            Formula::Not(f) => f.subst(args).not(),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.subst(args))),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.subst(args))),
        }
    }

    /// Simplifies: constant-folds terms, decides ground atoms, prunes
    /// trivial branches.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => {
                let a = a.simplify();
                if a.is_ground() {
                    if a.eval(&Label::unit()) {
                        Formula::True
                    } else {
                        Formula::False
                    }
                } else {
                    Formula::Atom(a)
                }
            }
            Formula::Not(f) => f.simplify().not(),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.simplify())),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.simplify())),
        }
    }

    /// True when no field occurs (the formula is a constant).
    pub fn is_ground(&self) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Atom(a) => a.is_ground(),
            Formula::Not(f) => f.is_ground(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_ground),
        }
    }

    /// Collects field indices mentioned anywhere in the formula.
    pub fn fields_used(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => a.fields_used(out),
            Formula::Not(f) => f.fields_used(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.fields_used(out);
                }
            }
        }
    }

    /// Converts to negation normal form: negations only on atoms, expressed
    /// as signed literals at the leaves.
    pub(crate) fn nnf(&self, polarity: bool) -> Nnf {
        match (self, polarity) {
            (Formula::True, true) | (Formula::False, false) => Nnf::True,
            (Formula::True, false) | (Formula::False, true) => Nnf::False,
            (Formula::Atom(a), p) => Nnf::Lit(Literal {
                atom: a.clone(),
                positive: p,
            }),
            (Formula::Not(f), p) => f.nnf(!p),
            (Formula::And(fs), true) | (Formula::Or(fs), false) => {
                Nnf::And(fs.iter().map(|f| f.nnf(polarity)).collect())
            }
            (Formula::And(fs), false) | (Formula::Or(fs), true) => {
                Nnf::Or(fs.iter().map(|f| f.nnf(polarity)).collect())
            }
        }
    }

    /// Counts atoms (a rough size measure used by benchmarks/ablations).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(g) => write!(f, "(not {g})"),
            Formula::And(fs) => {
                write!(f, "(and")?;
                for g in fs {
                    write!(f, " {g}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(or")?;
                for g in fs {
                    write!(f, " {g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A signed atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// `true` for the atom itself, `false` for its negation.
    pub positive: bool,
}

impl Literal {
    /// Evaluates the literal on a concrete label.
    pub fn eval(&self, label: &Label) -> bool {
        self.atom.eval(label) == self.positive
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.atom)
        } else {
            write!(f, "(not {})", self.atom)
        }
    }
}

/// Internal negation normal form used by the solver.
#[derive(Debug, Clone)]
pub(crate) enum Nnf {
    True,
    False,
    Lit(Literal),
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::field(0)
    }

    #[test]
    fn smart_constructors() {
        let a = Formula::eq(x(), Term::int(3));
        assert_eq!(a.clone().and(Formula::True), a);
        assert_eq!(a.clone().and(Formula::False), Formula::False);
        assert_eq!(a.clone().or(Formula::True), Formula::True);
        assert_eq!(a.clone().or(Formula::False), a);
        assert_eq!(a.clone().and(a.clone()), a);
        assert_eq!(a.clone().not().not(), a);
    }

    #[test]
    fn negate_cmp_atom() {
        let a = Formula::cmp(CmpOp::Lt, x(), Term::int(3));
        assert_eq!(a.not(), Formula::cmp(CmpOp::Ge, x(), Term::int(3)));
    }

    #[test]
    fn eval_logic() {
        let odd = Formula::eq(x().modulo(2), Term::int(1));
        let pos = Formula::cmp(CmpOp::Gt, x(), Term::int(0));
        let f = odd.clone().and(pos.clone());
        assert!(f.eval(&Label::single(3i64)));
        assert!(!f.eval(&Label::single(4i64)));
        assert!(!f.eval(&Label::single(-3i64))); // -3 % 2 == 1 but not positive
        let g = odd.or(pos).not();
        assert!(g.eval(&Label::single(-4i64)));
    }

    #[test]
    fn subst_into_formula() {
        // φ(x) = odd(x0); e(x) = x0 + 1 => φ(e(x)) = odd(x0 + 1)
        let odd = Formula::eq(x().modulo(2), Term::int(1));
        let shifted = odd.subst(&[x().add(Term::int(1))]);
        assert!(shifted.eval(&Label::single(2i64)));
        assert!(!shifted.eval(&Label::single(3i64)));
    }

    #[test]
    fn simplify_ground() {
        let f = Formula::eq(Term::int(2).add(Term::int(2)), Term::int(4));
        assert_eq!(f.simplify(), Formula::True);
        let g = Formula::cmp(CmpOp::Lt, Term::int(5), Term::int(3));
        assert_eq!(g.simplify(), Formula::False);
    }

    #[test]
    fn string_atoms() {
        let p = Formula::atom(Atom::StrPrefix(x(), "scr".into()));
        assert!(p.eval(&Label::single("script")));
        assert!(!p.eval(&Label::single("div")));
        let c = Formula::atom(Atom::StrContains(x(), "rip".into()));
        assert!(c.eval(&Label::single("script")));
    }

    #[test]
    fn eval_error_is_false() {
        let f = Formula::eq(Term::int(i64::MAX).add(x()), Term::int(0));
        assert!(!f.eval(&Label::single(1i64)));
    }

    #[test]
    fn well_typed() {
        let sig = LabelSig::single("tag", Sort::Str);
        assert!(Formula::ne(x(), Term::str("script")).well_typed(&sig));
        assert!(!Formula::cmp(CmpOp::Lt, x(), Term::str("a")).well_typed(&sig));
        assert!(!Formula::eq(x(), Term::int(0)).well_typed(&sig));
    }
}
