//! Complete decision procedure for single-variable integer constraints
//! built from `{+, -, *, % constant}` — including arbitrarily *nested*
//! `mod` (which arises naturally from transducer composition, e.g.
//! `((x+5) % 26) % 2` in the paper's Fig. 8 analysis).
//!
//! Let `L` be the lcm of every mod divisor at every nesting depth. On the
//! residue class `x = r + L·k`, every polynomial subterm `P` satisfies
//! `P(r + L·k) ≡ P(r) (mod m)` for each divisor `m | L` (all
//! `k`-dependent monomials carry a factor `L`), so every `mod` subterm
//! collapses — innermost first — to a constant, and each constraint
//! becomes a plain polynomial comparison in `k`. Polynomial comparisons
//! are decided exactly by enumerating the window up to the Cauchy root
//! bound and reading off tail signs from leading coefficients.
//!
//! The `Int` sort is i64-bounded: a `Sat` answer always carries an in-range
//! witness, and `Unsat` is only reported when the full (mathematical)
//! search is exhaustive — otherwise the result is `Unknown`.

use crate::formula::{Atom, CmpOp, Literal};
use crate::poly::Poly;
use crate::term::Term;
use crate::value::Value;

/// Caps to keep the procedure predictable. Exceeding any yields `Unknown`.
const MAX_LCM: i128 = 1 << 20;
const MAX_WORK: i128 = 1 << 22;

/// Outcome of a per-field conjunction query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldSat {
    /// Satisfiable with this witness value.
    Sat(Value),
    /// Provably unsatisfiable.
    Unsat,
    /// Out of the complete fragment or over resource caps.
    Unknown,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b).map(i128::abs)
}

/// Bottom-up period analysis. Returns `(d, req)` where `req` is a
/// sufficient period requirement (any `L` with `req | L` makes
/// [`restrict_term`] succeed on this term) and `d` is the *coefficient
/// divisor loss*: over the class `x = r + L·k`, every non-constant
/// coefficient of the restricted polynomial is divisible by `L / d`.
///
/// `Div(a, m)` divides the inner coefficients by `m`, so it *multiplies*
/// the loss: an outer `mod`/`div` by `m'` then needs `m'·d | L`, not just
/// `m' | L`. (This is why `lcm` of the raw divisors is not enough:
/// `(x div 2) mod 4` needs period 8, not 4.) Returns `None` outside the
/// `{+,-,*,%c,/c}` integer fragment or on overflow.
fn period_analysis(t: &Term) -> Option<(i128, i128)> {
    match t {
        Term::Field(_) | Term::Lit(Value::Int(_)) => Some((1, 1)),
        Term::Lit(_) => None,
        Term::Neg(a) => period_analysis(a),
        Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) => {
            // Sums/products of values divisible by L/da resp. L/db are
            // divisible by gcd(L/da, L/db) = L / lcm(da, db).
            let (da, ra) = period_analysis(a)?;
            let (db, rb) = period_analysis(b)?;
            Some((lcm(da, db)?, lcm(ra, rb)?))
        }
        Term::Mod(a, m) => {
            // Collapses to a constant iff m | L/da, i.e. m·da | L.
            let (da, ra) = period_analysis(a)?;
            let need = da.checked_mul(i128::from(*m))?;
            Some((1, lcm(ra, need)?))
        }
        Term::Div(a, m) => {
            // Exact under the same condition; divides coefficients by m.
            let (da, ra) = period_analysis(a)?;
            let need = da.checked_mul(i128::from(*m))?;
            Some((need, lcm(ra, need)?))
        }
        Term::Concat(..) | Term::StrLen(..) | Term::Ite(..) => None,
    }
}

/// Restricts a term to the residue class `x = r + L·k`, yielding a plain
/// polynomial in `k`. Requires every mod divisor to divide `L`: then for
/// any polynomial subterm `P`, `P(r + L·k) ≡ P(r) (mod m)` (every
/// `k`-dependent monomial carries a factor `L`), so each `mod` collapses
/// to the constant `P(r) mod m` — including *nested* occurrences, by
/// induction from the innermost mod outward.
fn restrict_term(t: &Term, r: i128, l: i128) -> Option<Poly> {
    match t {
        Term::Field(_) => Some(Poly::from_coeffs(vec![r, l])),
        Term::Lit(Value::Int(n)) => Some(Poly::constant(i128::from(*n))),
        Term::Lit(_) => None,
        Term::Neg(a) => restrict_term(a, r, l)?.scale(-1),
        Term::Add(a, b) => restrict_term(a, r, l)?.add(&restrict_term(b, r, l)?),
        Term::Sub(a, b) => restrict_term(a, r, l)?.sub(&restrict_term(b, r, l)?),
        Term::Mul(a, b) => restrict_term(a, r, l)?.mul(&restrict_term(b, r, l)?),
        Term::Mod(a, m) => {
            // Collapses to the constant Q(0) mod m only when every
            // k-dependent coefficient of Q is divisible by m (guaranteed
            // by `period_analysis`, but checked here so soundness never
            // rests on the analysis).
            let q = restrict_term(a, r, l)?;
            let m = i128::from(*m);
            if q.coeffs().iter().skip(1).any(|c| c % m != 0) {
                return None;
            }
            let c = q.eval(0)?.rem_euclid(m);
            Some(Poly::constant(c))
        }
        Term::Div(a, m) => {
            // Euclidean division distributes over the residue class: with
            // m | every k-coefficient of the inner polynomial Q, we get
            // Q(k) div m = (Q(k) − Q(0) mod m) / m exactly — a polynomial
            // with integer coefficients (checked below coefficient-wise).
            let q = restrict_term(a, r, l)?;
            let m = i128::from(*m);
            let rem = q.eval(0)?.rem_euclid(m);
            let shifted = q.sub(&Poly::constant(rem))?;
            let coeffs: Option<Vec<i128>> = shifted
                .coeffs()
                .iter()
                .map(|c| if c % m == 0 { Some(c / m) } else { None })
                .collect();
            Some(Poly::from_coeffs(coeffs?))
        }
        Term::Concat(..) | Term::StrLen(..) | Term::Ite(..) => None,
    }
}

/// One normalized constraint: `lhs - rhs ⋈ 0` with the original terms kept
/// for per-class restriction.
#[derive(Debug, Clone)]
struct Constraint {
    lhs: Term,
    rhs: Term,
    op: CmpOp,
}

/// Normalizes a literal over a single integer field. `None` = fragment
/// violation.
fn constraint_of_literal(lit: &Literal) -> Option<Constraint> {
    let (op, a, b) = match &lit.atom {
        Atom::Cmp(op, a, b) => (*op, a, b),
        _ => return None,
    };
    let op = if lit.positive { op } else { op.negate() };
    Some(Constraint {
        lhs: a.clone(),
        rhs: b.clone(),
        op,
    })
}

fn sign_matches(op: CmpOp, sign: i32) -> bool {
    match op {
        CmpOp::Eq => sign == 0,
        CmpOp::Ne => sign != 0,
        CmpOp::Lt => sign < 0,
        CmpOp::Le => sign <= 0,
        CmpOp::Gt => sign > 0,
        CmpOp::Ge => sign >= 0,
    }
}

/// Decides a conjunction of integer literals over a single field,
/// excluding the given witness values.
///
/// Sound: `Sat` always carries a verified witness; `Unsat` is only
/// returned after an exhaustive window + tail analysis.
pub fn solve_int_conjunction(lits: &[Literal], excluded: &[i64]) -> FieldSat {
    let mut constraints = Vec::with_capacity(lits.len());
    // Overall modulus: lcm of every term's period requirement, which
    // accounts for `div` nodes widening the period of enclosing `mod`s.
    let mut l: i128 = 1;
    for lit in lits {
        match constraint_of_literal(lit) {
            Some(c) => {
                for side in [&c.lhs, &c.rhs] {
                    match period_analysis(side).and_then(|(_, req)| lcm(l, req)) {
                        Some(nl) if nl <= MAX_LCM => l = nl,
                        _ => return FieldSat::Unknown,
                    }
                }
                constraints.push(c);
            }
            None => return FieldSat::Unknown,
        }
    }

    let mut incomplete = false;
    let mut best_unknown = false;

    let mut total_work: i128 = 0;
    for r in 0..l {
        let mut polys: Vec<(Poly, CmpOp)> = Vec::with_capacity(constraints.len());
        let mut class_ok = true;
        for c in &constraints {
            let p = restrict_term(&c.lhs, r, l)
                .and_then(|pa| restrict_term(&c.rhs, r, l).and_then(|pb| pa.sub(&pb)));
            match p {
                Some(p) => polys.push((p, c.op)),
                None => {
                    class_ok = false;
                    break;
                }
            }
        }
        if !class_ok {
            best_unknown = true;
            continue;
        }
        let mut bound: i128 = 1;
        for (p, _) in &polys {
            match p.root_bound() {
                Some(b) => bound = bound.max(b),
                None => {
                    best_unknown = true;
                    class_ok = false;
                    break;
                }
            }
        }
        if !class_ok {
            continue;
        }
        if polys.iter().all(|(p, _)| p.degree() <= 1) {
            match solve_linear_class(&polys, r, l, bound, excluded) {
                PointResult::Sat(x) => return FieldSat::Sat(Value::Int(x)),
                PointResult::No => {}
                PointResult::Overflow => incomplete = true,
            }
            continue;
        }
        total_work += 2 * bound + 1;
        if total_work > MAX_WORK {
            return FieldSat::Unknown;
        }

        // Window enumeration: k ∈ [-bound, bound].
        for k in -bound..=bound {
            match check_point(&polys, r, l, k, excluded) {
                PointResult::Sat(x) => return FieldSat::Sat(Value::Int(x)),
                PointResult::No => {}
                PointResult::Overflow => incomplete = true,
            }
        }
        // Positive tail: signs fixed for k > bound.
        if polys
            .iter()
            .all(|(p, op)| sign_matches(*op, p.sign_at_pos_infinity()))
        {
            match find_tail_witness(&polys, r, l, bound, 1, excluded) {
                Some(x) => return FieldSat::Sat(Value::Int(x)),
                None => incomplete = true,
            }
        }
        // Negative tail.
        if polys
            .iter()
            .all(|(p, op)| sign_matches(*op, p.sign_at_neg_infinity()))
        {
            match find_tail_witness(&polys, r, l, bound, -1, excluded) {
                Some(x) => return FieldSat::Sat(Value::Int(x)),
                None => incomplete = true,
            }
        }
    }

    if incomplete || best_unknown {
        FieldSat::Unknown
    } else {
        FieldSat::Unsat
    }
}

enum PointResult {
    Sat(i64),
    No,
    Overflow,
}

fn check_point(
    polys: &[(Poly, CmpOp)],
    r: i128,
    l: i128,
    k: i128,
    excluded: &[i64],
) -> PointResult {
    let x = match r.checked_add(l.checked_mul(k).unwrap_or(i128::MAX)) {
        Some(x) => x,
        None => return PointResult::Overflow,
    };
    let xv = match i64::try_from(x) {
        Ok(v) => v,
        Err(_) => return PointResult::Overflow,
    };
    if excluded.contains(&xv) {
        return PointResult::No;
    }
    for (p, op) in polys {
        match p.eval(k) {
            Some(v) => {
                if !sign_matches(*op, v.signum() as i32) {
                    return PointResult::No;
                }
            }
            None => return PointResult::Overflow,
        }
    }
    PointResult::Sat(xv)
}

/// A residue class whose restricted constraints are all linear in `k`:
/// the `k` satisfying them form one interval minus finitely many holes,
/// so the point the window enumeration would find first — the least `k`
/// in `[-bound, bound]`, else the least above it, else the greatest
/// below it — is computed from the interval, however wide the window.
/// `Overflow` means a solution may lie outside the i64 range (or the
/// computed point failed its check).
fn solve_linear_class(
    polys: &[(Poly, CmpOp)],
    r: i128,
    l: i128,
    bound: i128,
    excluded: &[i64],
) -> PointResult {
    let Some((lo, hi, mut holes)) = linear_interval(polys) else {
        return PointResult::Overflow;
    };
    if lo > hi {
        return PointResult::No;
    }
    for &x in excluded {
        let d = i128::from(x) - r;
        if d.rem_euclid(l) == 0 {
            holes.push(d / l);
        }
    }
    // The k whose x = r + l·k fits in i64.
    let k_min = -((r - i128::from(i64::MIN)).div_euclid(l));
    let k_max = (i128::from(i64::MAX) - r).div_euclid(l);
    let (from, to) = (lo.max(k_min), hi.min(k_max));
    let step = |mut k: i128, up: bool| {
        while holes.contains(&k) {
            k += if up { 1 } else { -1 };
        }
        k
    };
    let up = |a: i128, b: i128| Some(step(a, true)).filter(|&k| k <= b);
    let found = up(from.max(-bound), to.min(bound))
        .or_else(|| up(from.max(bound.saturating_add(1)), to))
        .or_else(|| {
            Some(step(
                to.min(bound.saturating_neg().saturating_sub(1)),
                false,
            ))
        })
        .filter(|&k| k >= from);
    match found {
        // The chosen point is evaluated on the polynomials, so `Sat`
        // carries a verified witness; a point that fails there leaves the
        // class undecided, never unsatisfiable.
        Some(k) => match check_point(polys, r, l, k, excluded) {
            PointResult::No => PointResult::Overflow,
            checked => checked,
        },
        None if lo < k_min || hi > k_max => PointResult::Overflow,
        None => PointResult::No,
    }
}

/// The interval `[lo, hi]` (`i128::MIN`/`MAX` when unbounded) and the
/// holes of the `k` satisfying linear constraints `a·k + b ⋈ 0`; an empty
/// interval when a constraint has no solution, `None` on overflow.
fn linear_interval(polys: &[(Poly, CmpOp)]) -> Option<(i128, i128, Vec<i128>)> {
    let (mut lo, mut hi) = (i128::MIN, i128::MAX);
    let mut holes = Vec::new();
    for (p, op) in polys {
        let (b, a) = match *p.coeffs() {
            [] => (0, 0),
            [b] => (b, 0),
            [b, a] => (b, a),
            _ => return None,
        };
        if a == 0 {
            if !sign_matches(*op, b.signum() as i32) {
                return Some((1, 0, holes));
            }
            continue;
        }
        // Scale by -1 if needed so that a > 0; then a·k ⋈ -b.
        let (a, b, op) = if a > 0 {
            (a, b, *op)
        } else {
            (a.checked_neg()?, b.checked_neg()?, op.flip())
        };
        let nb = b.checked_neg()?;
        match op {
            CmpOp::Lt => hi = hi.min(nb.checked_sub(1)?.div_euclid(a)),
            CmpOp::Le => hi = hi.min(nb.div_euclid(a)),
            CmpOp::Gt => lo = lo.max(-(b.checked_sub(1)?.div_euclid(a))),
            CmpOp::Ge => lo = lo.max(-(b.div_euclid(a))),
            CmpOp::Eq if nb % a == 0 => {
                lo = lo.max(nb / a);
                hi = hi.min(nb / a);
            }
            CmpOp::Eq => return Some((1, 0, holes)),
            CmpOp::Ne if nb % a == 0 => holes.push(nb / a),
            CmpOp::Ne => {}
        }
    }
    Some((lo, hi, holes))
}

/// Looks for a concrete in-range witness just past the root bound in the
/// given direction. Signs are already known to match; only exclusions and
/// i64-range can force us further out.
fn find_tail_witness(
    polys: &[(Poly, CmpOp)],
    r: i128,
    l: i128,
    bound: i128,
    dir: i128,
    excluded: &[i64],
) -> Option<i64> {
    for step in 1..=(excluded.len() as i128 + 4) {
        let k = dir * (bound + step);
        match check_point(polys, r, l, k, excluded) {
            PointResult::Sat(x) => return Some(x),
            PointResult::No | PointResult::Overflow => continue,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn lit(f: Formula) -> Literal {
        match f {
            Formula::Atom(a) => Literal {
                atom: a,
                positive: true,
            },
            _ => panic!("not an atom"),
        }
    }

    fn nlit(f: Formula) -> Literal {
        match f {
            Formula::Atom(a) => Literal {
                atom: a,
                positive: false,
            },
            _ => panic!("not an atom"),
        }
    }

    fn x() -> Term {
        Term::field(0)
    }

    #[test]
    fn linear() {
        // x > 3 ∧ x < 5 → x = 4
        let lits = vec![
            lit(Formula::cmp(CmpOp::Gt, x(), Term::int(3))),
            lit(Formula::cmp(CmpOp::Lt, x(), Term::int(5))),
        ];
        assert_eq!(
            solve_int_conjunction(&lits, &[]),
            FieldSat::Sat(Value::Int(4))
        );
        assert_eq!(solve_int_conjunction(&lits, &[4]), FieldSat::Unsat);
    }

    #[test]
    fn parity() {
        // odd(x) ∧ x > 10: witness exists
        let lits = vec![
            lit(Formula::eq(x().modulo(2), Term::int(1))),
            lit(Formula::cmp(CmpOp::Gt, x(), Term::int(10))),
        ];
        match solve_int_conjunction(&lits, &[]) {
            FieldSat::Sat(Value::Int(n)) => {
                assert!(n > 10 && n.rem_euclid(2) == 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn contradictory_parity() {
        // odd(x) ∧ even(x)
        let lits = vec![
            lit(Formula::eq(x().modulo(2), Term::int(1))),
            lit(Formula::eq(x().modulo(2), Term::int(0))),
        ];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn cross_level_parity_example8() {
        // The paper's Example 8: odd(x+1) ∧ odd(x-2) is unsat.
        let lits = vec![
            lit(Formula::eq(x().add(Term::int(1)).modulo(2), Term::int(1))),
            lit(Formula::eq(x().sub(Term::int(2)).modulo(2), Term::int(1))),
        ];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn polynomial() {
        // x² = 25 ∧ x < 0 → -5
        let lits = vec![
            lit(Formula::eq(x().mul(x()), Term::int(25))),
            lit(Formula::cmp(CmpOp::Lt, x(), Term::int(0))),
        ];
        assert_eq!(
            solve_int_conjunction(&lits, &[]),
            FieldSat::Sat(Value::Int(-5))
        );
        // x² < 0 is unsat
        let lits = vec![lit(Formula::cmp(CmpOp::Lt, x().mul(x()), Term::int(0)))];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn cubic() {
        // x³ - 100x + 3 = 0 has no integer roots.
        let t = x()
            .mul(x())
            .mul(x())
            .sub(Term::int(100).mul(x()))
            .add(Term::int(3));
        let lits = vec![lit(Formula::eq(t, Term::int(0)))];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn mixed_mod_and_poly() {
        // (x % 26) = 3 ∧ x² > 1000 ∧ x < 0
        let lits = vec![
            lit(Formula::eq(x().modulo(26), Term::int(3))),
            lit(Formula::cmp(CmpOp::Gt, x().mul(x()), Term::int(1000))),
            lit(Formula::cmp(CmpOp::Lt, x(), Term::int(0))),
        ];
        match solve_int_conjunction(&lits, &[]) {
            FieldSat::Sat(Value::Int(n)) => {
                assert!(n < 0 && n * n > 1000 && n.rem_euclid(26) == 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negated_literal() {
        // ¬(x = 0) ∧ x ≥ 0 ∧ x ≤ 1 → 1
        let lits = vec![
            nlit(Formula::eq(x(), Term::int(0))),
            lit(Formula::cmp(CmpOp::Ge, x(), Term::int(0))),
            lit(Formula::cmp(CmpOp::Le, x(), Term::int(1))),
        ];
        assert_eq!(
            solve_int_conjunction(&lits, &[]),
            FieldSat::Sat(Value::Int(1))
        );
    }

    #[test]
    fn nested_mod_is_decided() {
        // ((x % 26) + 1) % 3 = 0 is satisfiable (e.g. x = 2).
        let t = x().modulo(26).add(Term::int(1)).modulo(3);
        let lits = vec![lit(Formula::eq(t.clone(), Term::int(0)))];
        match solve_int_conjunction(&lits, &[]) {
            FieldSat::Sat(Value::Int(n)) => {
                assert_eq!((n.rem_euclid(26) + 1).rem_euclid(3), 0);
            }
            other => panic!("{other:?}"),
        }
        // … = 5 is unsat (mod 3 results are < 3).
        let lits = vec![lit(Formula::eq(t, Term::int(5)))];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn parity_after_caesar_shift() {
        // The Fig. 8 analysis guard: ((x+5)%26)%2 = 0 ∧ (((x+5)%26+5)%26)%2 = 0
        // is unsatisfiable (the +5 shift flips parity mod 26).
        let inner = x().add(Term::int(5)).modulo(26);
        let outer = inner.clone().add(Term::int(5)).modulo(26);
        let lits = vec![
            lit(Formula::eq(inner.modulo(2), Term::int(0))),
            lit(Formula::eq(outer.modulo(2), Term::int(0))),
        ];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn div_is_decided() {
        // x div 3 = 4 ⟺ x ∈ {12, 13, 14}.
        let lits = vec![lit(Formula::eq(x().div(3), Term::int(4)))];
        match solve_int_conjunction(&lits, &[]) {
            FieldSat::Sat(Value::Int(n)) => assert!((12..15).contains(&n)),
            other => panic!("{other:?}"),
        }
        // Combined with a mod constraint: x div 3 = 4 ∧ x % 3 = 2 ⟺ x = 14.
        let lits = vec![
            lit(Formula::eq(x().div(3), Term::int(4))),
            lit(Formula::eq(x().modulo(3), Term::int(2))),
        ];
        assert_eq!(
            solve_int_conjunction(&lits, &[]),
            FieldSat::Sat(Value::Int(14))
        );
        // Contradiction: x div 3 = 4 ∧ x < 12.
        let lits = vec![
            lit(Formula::eq(x().div(3), Term::int(4))),
            lit(Formula::cmp(CmpOp::Lt, x(), Term::int(12))),
        ];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
        // Negative side of Euclidean division: x div 3 = -1 ⟺ x ∈ {-3,-2,-1}.
        let lits = vec![lit(Formula::eq(x().div(3), Term::int(-1)))];
        match solve_int_conjunction(&lits, &[]) {
            FieldSat::Sat(Value::Int(n)) => assert!((-3..0).contains(&n)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn div_brute_force_agreement() {
        use crate::value::Label;
        // ((x/4) * 2 + x % 3) compared against constants, windowed check.
        let term = x().div(4).mul(Term::int(2)).add(x().modulo(3));
        for c in -4i64..8 {
            let lits = vec![lit(Formula::eq(term.clone(), Term::int(c)))];
            let brute = (-200i64..200).find(|&v| lits[0].eval(&Label::single(v)));
            match solve_int_conjunction(&lits, &[]) {
                FieldSat::Sat(Value::Int(n)) => {
                    assert!(lits[0].eval(&Label::single(n)), "bad witness {n} for c={c}");
                }
                FieldSat::Unsat => assert_eq!(brute, None, "c={c}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn wide_linear_bounds_get_a_model() {
        // x ≥ 0 ∧ x ≤ 2^62 ∧ x > 11: the root bound is ~2^62, far past the
        // work cap of a window enumeration; the interval gives 12.
        let wide = |extra: Vec<Literal>| {
            let mut lits = vec![
                lit(Formula::cmp(CmpOp::Ge, x(), Term::int(0))),
                lit(Formula::cmp(CmpOp::Le, x(), Term::int(1 << 62))),
                lit(Formula::cmp(CmpOp::Gt, x(), Term::int(11))),
            ];
            lits.extend(extra);
            lits
        };
        assert_eq!(
            solve_int_conjunction(&wide(vec![]), &[]),
            FieldSat::Sat(Value::Int(12))
        );
        // Holes from `≠` literals and excluded witnesses are stepped over.
        let ne12 = nlit(Formula::eq(x(), Term::int(12)));
        assert_eq!(
            solve_int_conjunction(&wide(vec![ne12]), &[13]),
            FieldSat::Sat(Value::Int(14))
        );
        // A parity class: the least odd x past 11 with 3x ≤ 2^62.
        let odd = lit(Formula::eq(x().modulo(2), Term::int(1)));
        let triple = lit(Formula::cmp(
            CmpOp::Le,
            x().mul(Term::int(3)),
            Term::int(1 << 62),
        ));
        assert_eq!(
            solve_int_conjunction(&wide(vec![odd, triple]), &[]),
            FieldSat::Sat(Value::Int(13))
        );
        // An empty wide interval is proved empty, not left unknown.
        let above = lit(Formula::cmp(CmpOp::Gt, x(), Term::int((1 << 62) + 1)));
        assert_eq!(
            solve_int_conjunction(&wide(vec![above]), &[]),
            FieldSat::Unsat
        );
        // Solutions only past the i64 range: unknown, never unsat.
        let huge = lit(Formula::cmp(
            CmpOp::Gt,
            x().sub(Term::int(i64::MAX)),
            Term::int(1),
        ));
        assert_eq!(solve_int_conjunction(&[huge], &[]), FieldSat::Unknown);
    }

    #[test]
    fn linear_classes_agree_with_brute_force() {
        use crate::value::Label;
        // Every pair of `x ⋈ c` / `-3x ⋈ c` literals, with a parity class:
        // witnesses are valid, and unsat means none in a brute-force window.
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for op1 in ops {
            for op2 in ops {
                for (c1, c2) in [(-7, 5), (3, 3), (9, -2)] {
                    let lits = vec![
                        lit(Formula::cmp(op1, x(), Term::int(c1))),
                        lit(Formula::cmp(op2, x().mul(Term::int(-3)), Term::int(c2))),
                        lit(Formula::eq(x().modulo(2), Term::int(0))),
                    ];
                    let holds = |v: i64| lits.iter().all(|l| l.eval(&Label::single(v)));
                    let brute = (-100i64..100).find(|&v| holds(v));
                    match solve_int_conjunction(&lits, &[]) {
                        FieldSat::Sat(Value::Int(n)) => {
                            assert!(holds(n), "bad witness {n} for {op1:?} {c1} {op2:?} {c2}");
                        }
                        FieldSat::Unsat => assert_eq!(brute, None),
                        other => panic!("{other:?} for {op1:?} {c1} {op2:?} {c2}"),
                    }
                }
            }
        }
    }

    #[test]
    fn mod_equals_impossible_residue() {
        // (x % 5) = 7 is unsat since mod is always in [0,5)
        let lits = vec![lit(Formula::eq(x().modulo(5), Term::int(7)))];
        assert_eq!(solve_int_conjunction(&lits, &[]), FieldSat::Unsat);
    }

    #[test]
    fn brute_force_agreement() {
        // Compare against brute force on a window for several systems.
        use crate::value::Label;
        let systems: Vec<Vec<Literal>> = vec![
            vec![
                lit(Formula::cmp(CmpOp::Ge, x().mul(x()), Term::int(50))),
                lit(Formula::cmp(CmpOp::Lt, x(), Term::int(0))),
                lit(Formula::eq(x().modulo(3), Term::int(1))),
            ],
            vec![
                lit(Formula::cmp(CmpOp::Le, x(), Term::int(-100))),
                lit(Formula::eq(x().modulo(7), Term::int(2))),
            ],
            vec![
                lit(Formula::cmp(
                    CmpOp::Gt,
                    x().mul(Term::int(3)),
                    Term::int(17),
                )),
                lit(Formula::cmp(
                    CmpOp::Lt,
                    x().mul(Term::int(3)),
                    Term::int(23),
                )),
            ],
        ];
        for lits in systems {
            let brute = (-1000i64..1000).find(|&v| lits.iter().all(|l| l.eval(&Label::single(v))));
            match solve_int_conjunction(&lits, &[]) {
                FieldSat::Sat(Value::Int(n)) => {
                    assert!(
                        lits.iter().all(|l| l.eval(&Label::single(n))),
                        "bad witness {n}"
                    );
                }
                FieldSat::Unsat => assert_eq!(brute, None),
                other => panic!("{other:?}"),
            }
        }
    }
}
