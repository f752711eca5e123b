//! Integer polynomials in one variable, used by the integer decision
//! procedure.
//!
//! Coefficients are `i128`; all arithmetic is checked and degree/coefficient
//! growth is capped so the solver degrades to `Unknown` instead of panicking
//! or silently overflowing.

use std::fmt;

/// Maximum representable degree; beyond this the solver gives up (Unknown).
pub const MAX_DEGREE: usize = 16;

/// An integer polynomial `c0 + c1·x + … + cn·xⁿ`.
///
/// The coefficient vector never has trailing zeros; the zero polynomial has
/// an empty vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<i128>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: i128) -> Poly {
        if c == 0 {
            Poly::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    /// The identity polynomial `x`.
    pub fn x() -> Poly {
        Poly { coeffs: vec![0, 1] }
    }

    /// Builds from raw coefficients (low degree first), normalizing.
    pub fn from_coeffs(mut coeffs: Vec<i128>) -> Poly {
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// Coefficients, lowest degree first (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[i128] {
        &self.coeffs
    }

    /// True if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True if this is a constant (degree ≤ 0).
    pub fn is_constant(&self) -> bool {
        self.coeffs.len() <= 1
    }

    /// Degree (zero polynomial has degree 0 by convention here).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Leading coefficient (0 for the zero polynomial).
    pub fn leading(&self) -> i128 {
        self.coeffs.last().copied().unwrap_or(0)
    }

    /// Checked addition.
    pub fn add(&self, rhs: &Poly) -> Option<Poly> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = rhs.coeffs.get(i).copied().unwrap_or(0);
            out.push(a.checked_add(b)?);
        }
        Some(Poly::from_coeffs(out))
    }

    /// Checked subtraction.
    pub fn sub(&self, rhs: &Poly) -> Option<Poly> {
        self.add(&rhs.scale(-1)?)
    }

    /// Checked scalar multiple (`None` on overflow).
    pub fn scale(&self, k: i128) -> Option<Poly> {
        let mut out = Vec::with_capacity(self.coeffs.len());
        for c in &self.coeffs {
            out.push(c.checked_mul(k)?);
        }
        Some(Poly::from_coeffs(out))
    }

    /// Checked multiplication; `None` on overflow or degree above
    /// [`MAX_DEGREE`].
    pub fn mul(&self, rhs: &Poly) -> Option<Poly> {
        if self.is_zero() || rhs.is_zero() {
            return Some(Poly::zero());
        }
        let deg = self.degree() + rhs.degree();
        if deg > MAX_DEGREE {
            return None;
        }
        let mut out = vec![0i128; deg + 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            for (j, b) in rhs.coeffs.iter().enumerate() {
                let p = a.checked_mul(*b)?;
                out[i + j] = out[i + j].checked_add(p)?;
            }
        }
        Some(Poly::from_coeffs(out))
    }

    /// Checked evaluation at `x` (Horner).
    pub fn eval(&self, x: i128) -> Option<i128> {
        let mut acc: i128 = 0;
        for c in self.coeffs.iter().rev() {
            acc = acc.checked_mul(x)?.checked_add(*c)?;
        }
        Some(acc)
    }

    /// An integer `B ≥ 1` such that every real root of the polynomial lies
    /// in `(-B, B)` (Cauchy bound). For constants, returns 1.
    ///
    /// Beyond the bound the polynomial's sign equals the sign of its leading
    /// term.
    pub fn root_bound(&self) -> Option<i128> {
        if self.is_constant() {
            return Some(1);
        }
        let lead = self.leading().unsigned_abs();
        let mut max_ratio: u128 = 0;
        for c in &self.coeffs[..self.coeffs.len() - 1] {
            // ceil(|c| / |lead|)
            let r = c.unsigned_abs().div_ceil(lead);
            max_ratio = max_ratio.max(r);
        }
        let b = max_ratio.checked_add(2)?;
        i128::try_from(b).ok()
    }

    /// Sign of `p(x)` for all `x > root_bound()`: `1`, `-1`, or `0` (zero
    /// polynomial).
    pub fn sign_at_pos_infinity(&self) -> i32 {
        self.leading().signum() as i32
    }

    /// Sign of `p(x)` for all `x < -root_bound()`.
    pub fn sign_at_neg_infinity(&self) -> i32 {
        let s = self.leading().signum() as i32;
        if self.degree().is_multiple_of(2) {
            s
        } else {
            -s
        }
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate().rev() {
            if *c == 0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if *c < 0 { "-" } else { "+" })?;
            } else if *c < 0 {
                write!(f, "-")?;
            }
            first = false;
            let a = c.unsigned_abs();
            match i {
                0 => write!(f, "{a}")?,
                1 => {
                    if a != 1 {
                        write!(f, "{a}")?;
                    }
                    write!(f, "x")?;
                }
                _ => {
                    if a != 1 {
                        write!(f, "{a}")?;
                    }
                    write!(f, "x^{i}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let p = Poly::x().mul(&Poly::x()).unwrap(); // x^2
        let q = p.add(&Poly::constant(-4)).unwrap(); // x^2 - 4
        assert_eq!(q.eval(2), Some(0));
        assert_eq!(q.eval(3), Some(5));
        assert_eq!(q.degree(), 2);
        assert_eq!(q.leading(), 1);
    }

    #[test]
    fn normalization() {
        let p = Poly::from_coeffs(vec![1, 0, 0]);
        assert!(p.is_constant());
        assert!(Poly::from_coeffs(vec![0, 0]).is_zero());
    }

    #[test]
    fn root_bound_has_no_roots_beyond() {
        // x^3 - 100x + 3
        let p = Poly::from_coeffs(vec![3, -100, 0, 1]);
        let b = p.root_bound().unwrap();
        assert_eq!(p.sign_at_pos_infinity(), 1);
        assert_eq!(p.sign_at_neg_infinity(), -1);
        for x in [b, b + 1, b + 100] {
            assert!(p.eval(x).unwrap() > 0);
            assert!(p.eval(-x).unwrap() < 0);
        }
    }

    #[test]
    fn degree_cap() {
        let mut p = Poly::x();
        for _ in 0..(MAX_DEGREE - 1) {
            p = p.mul(&Poly::x()).unwrap();
        }
        assert_eq!(p.degree(), MAX_DEGREE);
        assert!(p.mul(&Poly::x()).is_none());
    }

    #[test]
    fn display() {
        let p = Poly::from_coeffs(vec![3, -100, 0, 1]);
        assert_eq!(p.to_string(), "x^3 - 100x + 3");
        assert_eq!(Poly::zero().to_string(), "0");
    }
}
