//! Exact rational arithmetic.
//!
//! The Shannon-flow layer manipulates linear programs whose coefficients are
//! small rationals (the paper's inequalities use coefficients like `1/2`,
//! `3/2`, `19/11`). Floating point would make the dual extraction and the
//! tradeoff exponents unreliable, so the LP solver works over [`Rat`], a
//! normalized `i128` fraction. All arithmetic panics on overflow (the LPs in
//! this workspace are tiny, so overflow indicates a bug rather than a size
//! limitation).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A rational number `num / den` with `den > 0` and `gcd(|num|, den) = 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

#[inline]
fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let (num, den) = (num * sign, den * sign);
        let g = gcd(num, den);
        if g == 0 {
            Rat { num: 0, den: 1 }
        } else {
            Rat {
                num: num / g,
                den: den / g,
            }
        }
    }

    /// Creates an integer rational.
    #[inline]
    pub fn int(n: i128) -> Self {
        Rat { num: n, den: 1 }
    }

    /// Whether this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether this is strictly negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    #[inline]
    #[cfg(test)]
    pub(crate) fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Conversion to `f64` (used only for plotting / reporting).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The minimum of two rationals.
    #[cfg(test)]
    pub(crate) fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    #[cfg(test)]
    pub(crate) fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Self {
        Rat::int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Self {
        Rat::int(n as i128)
    }
}

impl From<usize> for Rat {
    fn from(n: usize) -> Self {
        Rat::int(n as i128)
    }
}

impl From<(i64, i64)> for Rat {
    fn from((n, d): (i64, i64)) -> Self {
        Rat::new(n as i128, d as i128)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        Rat::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        Rat::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        Rat::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(rhs.num != 0, "division by zero");
        Rat::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // den > 0 always, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Convenience constructor: `rat(3, 2)` is `3/2`.
#[inline]
pub fn rat(num: i128, den: i128) -> Rat {
    Rat::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -5), Rat::ZERO);
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = rat(1, 2);
        let b = rat(1, 3);
        assert_eq!(a + b, rat(5, 6));
        assert_eq!(a - b, rat(1, 6));
        assert_eq!(a * b, rat(1, 6));
        assert_eq!(a / b, rat(3, 2));
        assert_eq!(-a, rat(-1, 2));
        assert_eq!(a.recip(), rat(2, 1));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < Rat::ZERO);
        assert!(rat(7, 5) > rat(19, 14));
        assert_eq!(rat(3, 2).max(rat(19, 11)), rat(19, 11));
        assert_eq!(rat(3, 2).min(rat(19, 11)), rat(3, 2));
    }

    #[test]
    fn predicates_and_conversion() {
        assert!(rat(0, 5).is_zero());
        assert!(rat(3, 2).is_positive());
        assert!(rat(-3, 2).is_negative());
        assert!((rat(1, 2).to_f64() - 0.5).abs() < 1e-12);
        assert_eq!(rat(-3, 2).abs(), rat(3, 2));
    }

    #[test]
    fn display() {
        assert_eq!(rat(3, 2).to_string(), "3/2");
        assert_eq!(rat(4, 2).to_string(), "2");
        assert_eq!(rat(-1, 2).to_string(), "-1/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = rat(1, 2) / Rat::ZERO;
    }
}
