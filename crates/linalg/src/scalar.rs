//! Generic real-scalar abstraction.
//!
//! The mixed-precision iterative refinement of the paper manipulates the same
//! data at two (or three) different precisions: the residual and the solution
//! update are computed at a *working* precision `u`, while the inner solves run
//! at a *low* precision `u_l` (on the QPU, the "precision" is the solver
//! accuracy ε_l; on the CPU baseline it is a narrower floating-point format).
//! The [`Real`] trait lets every kernel in this crate be written once and
//! instantiated at `f32` or `f64` (and, in the unit tests, at a
//! software-emulated reduced precision).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar usable in the dense linear-algebra kernels.
///
/// The trait is deliberately small: only the operations actually needed by
/// LU/QR/SVD, iterative refinement and the matrix generators are required.
/// All conversions go through `f64`, which is the "high precision" of the
/// paper's experiments.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Convert from `f64`, rounding to the precision of `Self`.
    fn from_f64(x: f64) -> Self;
    /// Convert to `f64` exactly (all supported formats are sub-formats of f64).
    fn to_f64(self) -> f64;
    /// Unit roundoff of the format (e.g. 2^-53 for f64, 2^-24 for f32).
    fn unit_roundoff() -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Maximum of two values (NaN-propagating-free: returns the other operand).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// `self * a + b` rounded once per operation at the precision of `Self`.
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    /// True if the value is finite (not NaN, not infinite).
    fn is_finite(self) -> bool {
        self.to_f64().is_finite()
    }
}

impl Real for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn unit_roundoff() -> f64 {
        // 2^-53
        f64::EPSILON / 2.0
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

impl Real for f32 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn unit_roundoff() -> f64 {
        // 2^-24
        (f32::EPSILON / 2.0) as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundoff_is_2_pow_minus_53() {
        assert_eq!(<f64 as Real>::unit_roundoff(), 2f64.powi(-53));
    }

    #[test]
    fn f32_roundoff_is_2_pow_minus_24() {
        assert_eq!(<f32 as Real>::unit_roundoff(), 2f64.powi(-24));
    }

    #[test]
    fn conversion_roundtrip_f32() {
        let x = 1.0 / 3.0_f64;
        let y = <f32 as Real>::from_f64(x);
        // f32 holds about 7 decimal digits.
        assert!((y.to_f64() - x).abs() < 1e-7);
        assert!((y.to_f64() - x).abs() > 0.0);
    }

    #[test]
    fn basic_ops_generic() {
        fn quadratic<T: Real>(x: T) -> T {
            x * x + T::from_f64(2.0) * x + T::one()
        }
        assert_eq!(quadratic(1.0_f64), 4.0);
        assert_eq!(quadratic(1.0_f32), 4.0);
    }

    #[test]
    fn min_max_behave() {
        assert_eq!(Real::max(2.0_f64, 3.0), 3.0);
        assert_eq!(Real::min(2.0_f64, 3.0), 2.0);
        assert_eq!(Real::max(-2.0_f32, -3.0), -2.0);
    }
}
