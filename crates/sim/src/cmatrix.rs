//! Dense complex matrices.
//!
//! Quantum gates, circuit unitaries and block-encodings are complex-valued, so
//! the real-valued `qls_linalg::Matrix` cannot represent them.  This module
//! provides the small dense complex-matrix type used to (i) define gate
//! matrices, (ii) extract the full unitary of a circuit for verification on
//! small registers, and (iii) check the defining property of block-encodings,
//! `A/α = (⟨0|_a ⊗ I) U (|0⟩_a ⊗ I)`.

use num_complex::Complex64;
use qls_linalg::Matrix;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A dense row-major complex matrix.
///
/// The entries live in shared, reference-counted storage: `clone` only bumps
/// a count, so a circuit that repeats one gate matrix many times (the QSVT
/// sequence applies the same block-encoding `U` and `U†` degree-many times)
/// holds one buffer per distinct matrix.  The first write through a shared
/// matrix ([`IndexMut`] or [`CMatrix::scale`]) copies the buffer, so a write
/// never shows through another clone.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Arc<Vec<Complex64>>,
}

impl CMatrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![Complex64::new(0.0, 0.0); rows * cols])
    }

    /// Create the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| {
            Complex64::new(if i == j { 1.0 } else { 0.0 }, 0.0)
        })
    }

    /// Create a matrix from a row-major vector of complex entries.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: length mismatch");
        CMatrix {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Create a matrix from a row-major slice of real entries.
    pub fn from_real(a: &Matrix<f64>) -> Self {
        Self::from_vec(
            a.nrows(),
            a.ncols(),
            a.as_slice()
                .iter()
                .map(|&x| Complex64::new(x, 0.0))
                .collect(),
        )
    }

    /// Build from a function of the indices.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// True when `self` and `other` are clones sharing one storage buffer
    /// (which implies equal entries).
    pub(crate) fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Matrix product.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let cols = other.cols;
        let mut out = vec![Complex64::new(0.0, 0.0); self.rows * cols];
        for i in 0..self.rows {
            let row = &mut out[i * cols..(i + 1) * cols];
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex64::new(0.0, 0.0) {
                    continue;
                }
                for (j, o) in row.iter_mut().enumerate() {
                    *o += a * other[(k, j)];
                }
            }
        }
        Self::from_vec(self.rows, cols, out)
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| self[(i, j)] * x[j])
                    .sum::<Complex64>()
            })
            .collect()
    }

    /// Conjugate transpose (adjoint).
    pub(crate) fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &Self) -> Self {
        Self::from_fn(self.rows * other.rows, self.cols * other.cols, |r, c| {
            self[(r / other.rows, c / other.cols)] * other[(r % other.rows, c % other.cols)]
        })
    }

    /// Extract the sub-block with rows `r0..r0+h` and columns `c0..c0+w`.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        Self::from_fn(h, w, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Maximum absolute entry-wise difference with another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: shape mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).norm())
            .fold(0.0, f64::max)
    }

    /// The diagonal entries when the matrix is *exactly* diagonal (every
    /// off-diagonal entry equals zero bit-for-bit), `None` otherwise.
    ///
    /// The exactness matters to the callers: the gate compiler and the fusion
    /// pass use this to route computational-basis-diagonal operations to the
    /// one-multiply-per-amplitude diagonal kernels, which is only valid when
    /// the off-diagonal part is truly absent (no tolerance).
    pub(crate) fn diagonal(&self) -> Option<Vec<Complex64>> {
        if self.rows != self.cols {
            return None;
        }
        let zero = Complex64::new(0.0, 0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r != c && self[(r, c)] != zero {
                    return None;
                }
            }
        }
        Some((0..self.rows).map(|i| self[(i, i)]).collect())
    }

    /// True when `U† U = I` within `tol` (entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = self.adjoint().matmul(self);
        prod.max_abs_diff(&Self::identity(self.rows)) <= tol
    }

    /// True when the matrix equals its adjoint within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.max_abs_diff(&self.adjoint()) <= tol
    }

    /// Scale every entry in place (copying the storage first if it is
    /// shared with a clone).
    pub fn scale(&mut self, s: Complex64) {
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x *= s;
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    /// Copies the storage first if it is shared with a clone.
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut Arc::make_mut(&mut self.data)[i * self.cols + j]
    }
}

// Hand-written (not derived) so the wire format stays flat — entries as an
// interleaved `[re, im, re, im, …]` float sequence — and so deserialization
// can validate the `data.len() == rows·cols` invariant the private fields
// guarantee, returning a decode error instead of a corrupt matrix.  Used by
// the fused-circuit artifact cache (`Gate::Unitary` payloads).
impl serde::Serialize for CMatrix {
    fn serialize(&self) -> serde::Value {
        let mut entries = Vec::with_capacity(self.data.len() * 2);
        for z in self.data.iter() {
            entries.push(serde::Value::Float(z.re));
            entries.push(serde::Value::Float(z.im));
        }
        serde::Value::Map(vec![
            ("rows".to_string(), serde::Value::Int(self.rows as i64)),
            ("cols".to_string(), serde::Value::Int(self.cols as i64)),
            ("data".to_string(), serde::Value::Seq(entries)),
        ])
    }
}

impl<'de> serde::Deserialize<'de> for CMatrix {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        let rows = usize::deserialize(value.field("CMatrix", "rows")?)?;
        let cols = usize::deserialize(value.field("CMatrix", "cols")?)?;
        let flat = Vec::<f64>::deserialize(value.field("CMatrix", "data")?)?;
        let needed = rows.checked_mul(cols).and_then(|n| n.checked_mul(2));
        if needed != Some(flat.len()) {
            return Err(serde::DeError::new(format!(
                "CMatrix: {rows}x{cols} needs {needed:?} floats, found {}",
                flat.len()
            )));
        }
        let data = flat
            .chunks_exact(2)
            .map(|p| Complex64::new(p[0], p[1]))
            .collect();
        Ok(CMatrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_and_matmul() {
        let i2 = CMatrix::identity(2);
        let a = CMatrix::from_vec(
            2,
            2,
            vec![c(1.0, 1.0), c(0.0, 2.0), c(3.0, 0.0), c(1.0, -1.0)],
        );
        assert_eq!(a.matmul(&i2), a);
        assert_eq!(i2.matmul(&a), a);
    }

    #[test]
    fn adjoint_of_product_reverses() {
        let a = CMatrix::from_fn(3, 3, |i, j| c((i + j) as f64, (i as f64) - (j as f64)));
        let b = CMatrix::from_fn(3, 3, |i, j| c((i * j) as f64 * 0.5, 1.0));
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = CMatrix::from_vec(
            2,
            2,
            vec![c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0)],
        );
        let i2 = CMatrix::identity(2);
        let xi = x.kron(&i2);
        assert_eq!(xi.nrows(), 4);
        // (X ⊗ I)|00> = |10>, i.e. column 0 has a 1 in row 2.
        assert_eq!(xi[(2, 0)], c(1.0, 0.0));
        assert_eq!(xi[(0, 0)], c(0.0, 0.0));
    }

    #[test]
    fn unitarity_check() {
        let h = CMatrix::from_vec(
            2,
            2,
            vec![
                c(1.0 / 2f64.sqrt(), 0.0),
                c(1.0 / 2f64.sqrt(), 0.0),
                c(1.0 / 2f64.sqrt(), 0.0),
                c(-1.0 / 2f64.sqrt(), 0.0),
            ],
        );
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
        let not_unitary = CMatrix::from_vec(
            2,
            2,
            vec![c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0), c(1.0, 0.0)],
        );
        assert!(!not_unitary.is_unitary(1e-12));
    }

    #[test]
    fn block_extraction() {
        let m = CMatrix::from_fn(4, 4, |i, j| c((i * 4 + j) as f64, 0.0));
        let b = m.block(0, 0, 2, 2);
        assert_eq!(b[(0, 0)], c(0.0, 0.0));
        assert_eq!(b[(1, 1)], c(5.0, 0.0));
        let lower = m.block(2, 2, 2, 2);
        assert_eq!(lower[(0, 0)], c(10.0, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = CMatrix::from_fn(3, 3, |i, j| c(i as f64, j as f64));
        let x = vec![c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 0.0)];
        let y = m.matvec(&x);
        for i in 0..3 {
            let expect: Complex64 = (0..3).map(|j| m[(i, j)] * x[j]).sum();
            assert!((y[i] - expect).norm() < 1e-14);
        }
    }

    #[test]
    fn writes_through_a_clone_leave_the_original_unchanged() {
        let original = CMatrix::from_fn(3, 3, |i, j| c(i as f64, j as f64));
        let entries = original.as_slice().to_vec();
        let mut written = original.clone();
        assert!(written.shares_storage(&original), "clone shares storage");
        written[(1, 2)] = c(9.0, -9.0);
        assert!(!written.shares_storage(&original), "first write copies");
        assert_eq!(written[(1, 2)], c(9.0, -9.0));
        let mut scaled = original.clone();
        scaled.scale(c(0.0, 2.0));
        assert_eq!(scaled[(2, 1)], c(2.0, 1.0) * c(0.0, 2.0));
        assert_eq!(original.as_slice(), &entries[..]);
    }

    #[test]
    fn from_real_roundtrip() {
        let a = Matrix::from_f64_slice(2, 2, &[1.0, -2.0, 3.0, 0.5]);
        let ca = CMatrix::from_real(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(ca[(i, j)], c(a[(i, j)], 0.0));
            }
        }
    }
}
