//! Dense real vectors.
//!
//! A thin, owned wrapper around `Vec<T>` providing the vector operations the
//! solvers need: axpy-style updates, dot products, norms, normalisation and
//! precision conversion.  Indexing is checked in debug builds and unchecked
//! behaviour is never relied upon.

use crate::scalar::Real;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense column vector over a [`Real`] scalar type.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector<T: Real> {
    data: Vec<T>,
}

impl<T: Real> Vector<T> {
    /// Create a vector from raw data.
    pub(crate) fn from_vec(data: Vec<T>) -> Self {
        Vector { data }
    }

    /// Create a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector {
            data: vec![T::zero(); n],
        }
    }

    /// Create a vector of `n` ones.
    pub fn ones(n: usize) -> Self {
        Vector {
            data: vec![T::one(); n],
        }
    }

    /// The `i`-th standard basis vector of dimension `n`.
    pub(crate) fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for dimension {n}");
        let mut v = Self::zeros(n);
        v[i] = T::one();
        v
    }

    /// Build a vector from an `f64` slice, rounding into the target precision.
    pub fn from_f64_slice(xs: &[f64]) -> Self {
        Vector {
            data: xs.iter().map(|&x| T::from_f64(x)).collect(),
        }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Convert into another precision, rounding element-wise.
    pub(crate) fn convert<S: Real>(&self) -> Vector<S> {
        Vector {
            data: self.data.iter().map(|x| S::from_f64(x.to_f64())).collect(),
        }
    }

    /// Euclidean inner product `self · other`.
    pub fn dot(&self, other: &Self) -> T {
        assert_eq!(self.len(), other.len(), "dot: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(T::zero(), |acc, (&a, &b)| a.mul_add(b, acc))
    }

    /// Euclidean (2-)norm; NaN when any entry is NaN.
    pub fn norm2(&self) -> T {
        // Scale by the largest magnitude to avoid overflow for extreme inputs.
        let maxabs = self.data.iter().fold(T::zero(), |acc, x| acc.max(x.abs()));
        if maxabs == T::zero() {
            // `max` drops NaN, so entries that are all NaN land here too.
            // Otherwise a NaN entry makes the scaled sum below NaN.
            return if self.data.iter().any(|x| x.is_nan()) {
                T::from_f64(f64::NAN)
            } else {
                T::zero()
            };
        }
        let sum = self.data.iter().fold(T::zero(), |acc, &x| {
            let s = x / maxabs;
            s.mul_add(s, acc)
        });
        maxabs * sum.sqrt()
    }

    /// ∞-norm (largest absolute value); NaN when any entry is NaN.
    pub fn norm_inf(&self) -> T {
        // `max` returns its other operand for a NaN, so NaN is kept by hand.
        self.data.iter().fold(T::zero(), |acc, x| {
            if acc.is_nan() || x.is_nan() {
                T::from_f64(f64::NAN)
            } else {
                acc.max(x.abs())
            }
        })
    }

    /// `self += alpha * x` (the BLAS `axpy` kernel).
    pub fn axpy(&mut self, alpha: T, x: &Self) {
        assert_eq!(self.len(), x.len(), "axpy: dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(&x.data) {
            *a = alpha.mul_add(b, *a);
        }
    }

    /// Multiply every entry by `alpha` in place.
    pub(crate) fn scale(&mut self, alpha: T) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Return `alpha * self` as a new vector.
    pub fn scaled(&self, alpha: T) -> Self {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Normalise to unit Euclidean norm, returning the original norm.
    ///
    /// Quantum algorithms require the right-hand side to be encoded as a unit
    /// vector (Remark 2 of the paper); this returns the scale factor needed to
    /// undo the normalisation.
    pub fn normalize(&mut self) -> T {
        let n = self.norm2();
        if n != T::zero() {
            let inv = T::one() / n;
            self.scale(inv);
        }
        n
    }

    /// Element-wise maximum absolute difference with another vector.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.len(), other.len(), "max_abs_diff: dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(T::zero(), |acc, (&a, &b)| acc.max((a - b).abs()))
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T: Real> Index<usize> for Vector<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Real> IndexMut<usize> for Vector<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: Real> Add for &Vector<T> {
    type Output = Vector<T>;
    fn add(self, rhs: &Vector<T>) -> Vector<T> {
        assert_eq!(self.len(), rhs.len(), "add: dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Real> Sub for &Vector<T> {
    type Output = Vector<T>;
    fn sub(self, rhs: &Vector<T>) -> Vector<T> {
        assert_eq!(self.len(), rhs.len(), "sub: dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Real> Neg for &Vector<T> {
    type Output = Vector<T>;
    fn neg(self) -> Vector<T> {
        Vector {
            data: self.data.iter().map(|&a| -a).collect(),
        }
    }
}

impl<T: Real> Mul<T> for &Vector<T> {
    type Output = Vector<T>;
    fn mul(self, alpha: T) -> Vector<T> {
        self.scaled(alpha)
    }
}

impl<T: Real> AddAssign<&Vector<T>> for Vector<T> {
    fn add_assign(&mut self, rhs: &Vector<T>) {
        assert_eq!(self.len(), rhs.len(), "add_assign: dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl<T: Real> SubAssign<&Vector<T>> for Vector<T> {
    fn sub_assign(&mut self, rhs: &Vector<T>) {
        assert_eq!(self.len(), rhs.len(), "sub_assign: dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl<T: Real> From<Vec<T>> for Vector<T> {
    fn from(data: Vec<T>) -> Self {
        Vector { data }
    }
}

impl<T: Real> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(xs: &[f64]) -> Vector<f64> {
        Vector::from_f64_slice(xs)
    }

    #[test]
    fn construction_and_len() {
        assert_eq!(Vector::<f64>::zeros(4).len(), 4);
        assert_eq!(Vector::<f64>::ones(3).as_slice(), &[1.0; 3]);
        let e1 = Vector::<f64>::basis(4, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn basis_out_of_range_panics() {
        let _ = Vector::<f64>::basis(3, 3);
    }

    #[test]
    fn dot_and_norms() {
        let a = v(&[3.0, 4.0]);
        assert_eq!(a.norm2(), 5.0);
        assert_eq!(a.norm_inf(), 4.0);
        let b = v(&[1.0, -1.0]);
        assert_eq!(a.dot(&b), -1.0);
    }

    #[test]
    fn norms_of_vectors_with_nan_entries_are_nan() {
        let all_nan = v(&[f64::NAN; 3]);
        assert!(all_nan.norm2().is_nan());
        assert!(all_nan.norm_inf().is_nan());
        let one_nan = v(&[1.0, f64::NAN, 2.0]);
        assert!(one_nan.norm2().is_nan());
        assert!(one_nan.norm_inf().is_nan());
        assert_eq!(v(&[0.0, -0.0]).norm2(), 0.0);
        assert_eq!(v(&[0.0, -0.0]).norm_inf(), 0.0);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let a = v(&[1e200, 1e200]);
        let n = a.norm2();
        assert!(n.is_finite());
        assert!((n - 1e200 * 2f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn axpy_and_ops() {
        let mut y = v(&[1.0, 2.0, 3.0]);
        let x = v(&[1.0, 1.0, 1.0]);
        y.axpy(2.0, &x);
        assert_eq!(y.as_slice(), &[3.0, 4.0, 5.0]);
        let z = &y - &x;
        assert_eq!(z.as_slice(), &[2.0, 3.0, 4.0]);
        let w = &z + &x;
        assert_eq!(w.as_slice(), y.as_slice());
        let neg = -&x;
        assert_eq!(neg.as_slice(), &[-1.0, -1.0, -1.0]);
        let s = &x * 3.0;
        assert_eq!(s.as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn normalization_returns_scale() {
        let mut a = v(&[3.0, 4.0]);
        let n = a.normalize();
        assert_eq!(n, 5.0);
        assert!((a.norm2() - 1.0).abs() < 1e-15);
        let mut zero = Vector::<f64>::zeros(2);
        assert_eq!(zero.normalize(), 0.0);
    }

    #[test]
    fn conversion_changes_precision() {
        let a = v(&[1.0 / 3.0, 2.0 / 3.0]);
        let low: Vector<f32> = a.convert();
        let back: Vector<f64> = low.convert();
        let diff = a.max_abs_diff(&back);
        assert!(diff > 0.0 && diff < 1e-7);
    }

    #[test]
    #[should_panic]
    fn mismatched_dot_panics() {
        let a = v(&[1.0]);
        let b = v(&[1.0, 2.0]);
        let _ = a.dot(&b);
    }
}
