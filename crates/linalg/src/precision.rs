//! Software-emulated reduced-precision floating point, for unit tests.
//!
//! Mixed-precision iterative refinement (Algorithm 1 of the paper and the
//! Carson–Higham three-precision framework it cites) needs a *low* precision
//! `u_l` that is much coarser than the working precision `u`.  On commodity
//! hardware only `f32`/`f64` are available natively, so this module provides
//! [`Emulated<P>`]: an `f64`-backed value that is re-rounded to `P` bits of
//! mantissa after every arithmetic operation.  This reproduces the rounding
//! behaviour of half precision (`P = 10`), bfloat16 (`P = 7`), or any custom
//! format.  The `ClassicalRefiner` unit tests use it to reach the
//! `u ≪ u_l` regime and the divergence past `κ·u_l ≈ 1`; no library path does,
//! so the module is compiled only for tests.

use crate::scalar::Real;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Round `x` to `p` explicit mantissa bits (round-to-nearest-even), keeping the
/// exponent range of `f64`.
///
/// `p` counts the stored fraction bits, so the format has `p + 1` significand
/// bits including the implicit leading one, and unit roundoff `2^-(p+1)`.
#[inline]
pub(crate) fn round_to_mantissa_bits(x: f64, p: u32) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    debug_assert!(p < 52, "use f64 directly for 52 or more mantissa bits");
    let bits = x.to_bits();
    let shift = 52 - p;
    let mask: u64 = (1u64 << shift) - 1;
    let tail = bits & mask;
    let truncated = bits & !mask;
    let halfway = 1u64 << (shift - 1);
    // Round to nearest, ties to even on the kept last bit.
    let rounded = if tail > halfway || (tail == halfway && (truncated >> shift) & 1 == 1) {
        truncated.wrapping_add(1u64 << shift)
    } else {
        truncated
    };
    f64::from_bits(rounded)
}

/// A software-emulated floating-point value with `P` explicit mantissa bits.
///
/// Every arithmetic operation is performed in `f64` and immediately re-rounded
/// to `P` bits, which models a format of unit roundoff `2^-(P+1)` with the
/// exponent range of `f64` (overflow/underflow of narrow exponent ranges is
/// out of scope for the paper's analysis, which only depends on `u_l`).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub(crate) struct Emulated<const P: u32>(f64);

impl<const P: u32> Emulated<P> {
    /// Wrap an `f64`, rounding it to the emulated precision.
    #[inline]
    pub(crate) fn new(x: f64) -> Self {
        Emulated(round_to_mantissa_bits(x, P))
    }
}

impl<const P: u32> fmt::Debug for Emulated<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Emulated<{}>({})", P, self.0)
    }
}

impl<const P: u32> fmt::Display for Emulated<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const P: u32> Add for Emulated<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Emulated::new(self.0 + rhs.0)
    }
}
impl<const P: u32> Sub for Emulated<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Emulated::new(self.0 - rhs.0)
    }
}
impl<const P: u32> Mul for Emulated<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Emulated::new(self.0 * rhs.0)
    }
}
impl<const P: u32> Div for Emulated<P> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Emulated::new(self.0 / rhs.0)
    }
}
impl<const P: u32> Neg for Emulated<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Emulated(-self.0)
    }
}
impl<const P: u32> AddAssign for Emulated<P> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<const P: u32> SubAssign for Emulated<P> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<const P: u32> MulAssign for Emulated<P> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<const P: u32> DivAssign for Emulated<P> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}
impl<const P: u32> Sum for Emulated<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Emulated::new(0.0), |acc, x| acc + x)
    }
}

impl<const P: u32> Real for Emulated<P> {
    #[inline]
    fn zero() -> Self {
        Emulated(0.0)
    }
    #[inline]
    fn one() -> Self {
        Emulated(1.0)
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Emulated::new(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }
    #[inline]
    fn unit_roundoff() -> f64 {
        2f64.powi(-(P as i32) - 1)
    }
    #[inline]
    fn abs(self) -> Self {
        Emulated(self.0.abs())
    }
    #[inline]
    fn sqrt(self) -> Self {
        Emulated::new(self.0.sqrt())
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        Emulated(self.0.max(other.0))
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        Emulated(self.0.min(other.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_keeps_exactly_representable_values() {
        for &x in &[1.0, -2.0, 0.5, 0.75, 1024.0, 0.0] {
            assert_eq!(round_to_mantissa_bits(x, 10), x);
        }
    }

    #[test]
    fn rounding_matches_f32_when_p_is_23() {
        let xs = [std::f64::consts::PI, 1.0 / 3.0, 1e-7, 123456.789, -0.1];
        for &x in &xs {
            let emulated = round_to_mantissa_bits(x, 23);
            let native = x as f32 as f64;
            assert_eq!(emulated, native, "mismatch for {x}");
        }
    }

    #[test]
    fn rounding_error_bounded_by_unit_roundoff() {
        let p = 10u32;
        let u = 2f64.powi(-(p as i32) - 1);
        let mut x = 0.123456789;
        for _ in 0..100 {
            let r = round_to_mantissa_bits(x, p);
            assert!(((r - x) / x).abs() <= u * (1.0 + 1e-12), "x={x} r={r}");
            x *= 1.37;
        }
    }

    #[test]
    fn ties_round_to_even() {
        // With p = 2 the representable values around 1.0 step by 0.25.
        // 1.125 is exactly halfway between 1.0 and 1.25 -> rounds to 1.0 (even last bit).
        assert_eq!(round_to_mantissa_bits(1.125, 2), 1.0);
        // 1.375 is halfway between 1.25 and 1.5 -> rounds to 1.5 (even last bit).
        assert_eq!(round_to_mantissa_bits(1.375, 2), 1.5);
    }

    #[test]
    fn emulated_arithmetic_rounds_each_op() {
        type H = Emulated<10>;
        let a = H::new(1.0);
        let b = H::new(2f64.powi(-12)); // below half-precision resolution at 1.0
        let c = a + b;
        assert_eq!(c.to_f64(), 1.0, "tiny addend must be absorbed");
        // But f64 would keep it:
        assert!(1.0 + 2f64.powi(-12) > 1.0);
    }

    #[test]
    fn emulated_real_trait_roundoff() {
        assert_eq!(<Emulated<10> as Real>::unit_roundoff(), 2f64.powi(-11));
        assert_eq!(<Emulated<7> as Real>::unit_roundoff(), 2f64.powi(-8));
    }

    #[test]
    fn sum_is_rounded() {
        type B = Emulated<7>;
        let xs: Vec<B> = (0..1000).map(|_| B::new(0.001)).collect();
        let s: B = xs.into_iter().sum();
        // bf16 accumulation of 1000 * 0.001 stagnates once the addend falls below
        // half a unit in the last place of the running sum (at 0.5), far from the
        // exact value 1.0 — that error is precisely what the test demonstrates.
        assert!(s.to_f64() >= 0.25 && s.to_f64() <= 1.0);
    }
}
