//! Dense row-major matrices.
//!
//! The problem sizes in the paper's experiments are tiny (N = 16), but the
//! classical cost model covers general dense matrices, so the kernels here are
//! written the way a production dense-LA library would write them: row-major
//! contiguous storage, cache-friendly loop ordering for the matrix product,
//! and rayon parallelism over rows once the work is large enough to amortise
//! the fork/join overhead.  The vendored rayon adapters fan out over real
//! `std::thread::scope` workers (see `vendor/rayon`), so `matmul` and `matvec`
//! genuinely use the machine's cores above `PAR_THRESHOLD` work units.

use crate::scalar::Real;
use crate::simd;
use crate::vector::Vector;
use rayon::prelude::*;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Minimum number of scalar multiply-adds before a kernel fans out across
/// threads.
///
/// Below this threshold the sequential loop is faster than spawning scoped
/// threads; the value is deliberately conservative (≈ a few microseconds of
/// work, comfortably above the per-call spawn cost of the vendored rayon's
/// thread fan-out).
pub(crate) const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Shared row-partitioned parallel map used by every operator matvec in the
/// crate (dense and CSR): computes `f(i)` for each output
/// row `i`, fanning out across threads when `work` (total scalar
/// multiply-adds) reaches [`PAR_THRESHOLD`].  Each output entry depends only
/// on its own row, so the result is bit-identical at any thread count.
pub(crate) fn par_map_rows<T: Real>(
    work: usize,
    rows: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vector<T> {
    let data: Vec<T> = if work >= PAR_THRESHOLD {
        (0..rows).into_par_iter().map(f).collect()
    } else {
        (0..rows).map(f).collect()
    };
    Vector::from_vec(data)
}

/// A dense row-major matrix over a [`Real`] scalar type.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Real> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Create the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Create a matrix from a row-major `f64` slice, rounding into precision `T`.
    pub fn from_f64_slice(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_f64_slice: length mismatch");
        Matrix {
            rows,
            cols,
            data: data.iter().map(|&x| T::from_f64(x)).collect(),
        }
    }

    /// Create a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Create a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row index out of range");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extract column `j` as a vector.
    pub fn col(&self, j: usize) -> Vector<T> {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Set column `j` from a vector.
    pub(crate) fn set_col(&mut self, j: usize, v: &Vector<T>) {
        assert!(j < self.cols, "column index out of range");
        assert_eq!(v.len(), self.rows, "set_col: dimension mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// The diagonal entries.
    pub fn diag(&self) -> Vec<T> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Swap rows `a` and `b`.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        assert!(
            a < self.rows && b < self.rows,
            "swap_rows: index out of range"
        );
        let c = self.cols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (first, second) = self.data.split_at_mut(hi * c);
        first[lo * c..lo * c + c].swap_with_slice(&mut second[..c]);
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix-vector product `A x`.
    ///
    /// For `T = f64` this runs the SIMD row-group kernel (the crate's
    /// `simd` module); the result is bit-identical to
    /// [`Matrix::matvec_scalar`], which every other precision uses directly.
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        if simd::is_f64::<T>() {
            return self.matvec_f64_simd(x);
        }
        self.matvec_scalar(x)
    }

    /// Scalar matvec kernel — the pre-SIMD loop kept verbatim as the
    /// equivalence oracle (and the only path for non-`f64` precisions).
    pub fn matvec_scalar(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        let xs = x.as_slice();
        let work = self.rows * self.cols;
        par_map_rows(work, self.rows, |i| {
            self.row(i)
                .iter()
                .zip(xs)
                .fold(T::zero(), |acc, (&a, &b)| a.mul_add(b, acc))
        })
    }

    /// SIMD matvec for `T = f64`: groups of four output rows per lane set,
    /// row-partitioned across threads above the shared work threshold.
    fn matvec_f64_simd(&self, x: &Vector<T>) -> Vector<T> {
        let cols = self.cols;
        let a = simd::as_f64(self.as_slice());
        let xs = simd::as_f64(x.as_slice());
        let mut out = vec![T::zero(); self.rows];
        let os = simd::as_f64_mut(&mut out);
        let work = self.rows * cols;
        if work >= PAR_THRESHOLD && cols > 0 {
            // Whole lane-groups per task so only the final task has a
            // scalar remainder (identical results either way).
            const GROUP: usize = 8 * simd::LANES;
            os.par_chunks_mut(GROUP).enumerate().for_each(|(g, chunk)| {
                let r0 = g * GROUP;
                simd::dense_matvec(&a[r0 * cols..(r0 + chunk.len()) * cols], cols, xs, chunk);
            });
        } else {
            simd::dense_matvec(a, cols, xs, os);
        }
        Vector::from_vec(out)
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    pub(crate) fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(self.rows, x.len(), "matvec_transposed: dimension mismatch");
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            let row = self.row(i);
            for j in 0..self.cols {
                out[j] = row[j].mul_add(xi, out[j]);
            }
        }
        out
    }

    /// Matrix product `A B` (ikj loop order, rayon over rows of `A` when
    /// large).
    ///
    /// For `T = f64` this runs the cache-blocked SIMD kernel (the crate's
    /// `simd` module); the result is bit-identical to
    /// [`Matrix::matmul_scalar`], which every other precision uses directly.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        if simd::is_f64::<T>() {
            return self.matmul_f64_simd(other);
        }
        self.matmul_scalar(other)
    }

    /// SIMD + cache-blocked matmul for `T = f64`: thread tasks own blocks of
    /// output rows; within a block the `k` dimension is tiled so each panel
    /// of `B` is reused across the block's rows while cache-hot.
    fn matmul_f64_simd(&self, other: &Self) -> Self {
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;
        let mut data = vec![T::zero(); m * n];
        if m > 0 && n > 0 {
            let a = simd::as_f64(&self.data);
            let b = simd::as_f64(&other.data);
            let os = simd::as_f64_mut(&mut data);
            let work = m * k * n;
            if work >= PAR_THRESHOLD {
                const ROW_BLOCK: usize = 8;
                os.par_chunks_mut(ROW_BLOCK * n)
                    .enumerate()
                    .for_each(|(blk, out_blk)| {
                        let i0 = blk * ROW_BLOCK;
                        let ni = out_blk.len() / n;
                        simd::matmul_block(&a[i0 * k..(i0 + ni) * k], k, b, n, out_blk);
                    });
            } else {
                simd::matmul_block(a, k, b, n, os);
            }
        }
        Matrix {
            rows: m,
            cols: n,
            data,
        }
    }

    /// Scalar matmul kernel — the pre-SIMD loop kept verbatim as the
    /// equivalence oracle (and the only path for non-`f64` precisions).
    pub fn matmul_scalar(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;
        let work = m * k * n;
        let compute_row = |i: usize, out_row: &mut [T]| {
            for kk in 0..k {
                let a = self[(i, kk)];
                if a == T::zero() {
                    continue;
                }
                let brow = other.row(kk);
                for j in 0..n {
                    out_row[j] = a.mul_add(brow[j], out_row[j]);
                }
            }
        };
        let mut data = vec![T::zero(); m * n];
        if work >= PAR_THRESHOLD {
            data.par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, out_row)| compute_row(i, out_row));
        } else {
            for (i, out_row) in data.chunks_mut(n).enumerate() {
                compute_row(i, out_row);
            }
        }
        Matrix {
            rows: m,
            cols: n,
            data,
        }
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> T {
        let maxabs = self.data.iter().fold(T::zero(), |acc, x| acc.max(x.abs()));
        if maxabs == T::zero() {
            return T::zero();
        }
        let sum = self.data.iter().fold(T::zero(), |acc, &x| {
            let s = x / maxabs;
            s.mul_add(s, acc)
        });
        maxabs * sum.sqrt()
    }

    /// Largest absolute entry (max-norm, not submultiplicative).
    pub fn norm_max(&self) -> T {
        self.data.iter().fold(T::zero(), |acc, x| acc.max(x.abs()))
    }

    /// Maximum absolute entry-wise difference with another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.rows, other.rows, "max_abs_diff: shape mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(T::zero(), |acc, (&a, &b)| acc.max((a - b).abs()))
    }

    /// Convert into another precision, rounding element-wise.
    pub(crate) fn convert<S: Real>(&self) -> Matrix<S> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| S::from_f64(x.to_f64())).collect(),
        }
    }

    /// True if `|a_ij - a_ji| <= tol` for all entries of a square matrix.
    pub fn is_symmetric(&self, tol: T) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl<T: Real> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of range");
        &self.data[i * self.cols + j]
    }
}

impl<T: Real> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Real> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, rhs.rows, "add: shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Real> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, rhs.rows, "sub: shape mismatch");
        assert_eq!(self.cols, rhs.cols, "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Real> Neg for &Matrix<T> {
    type Output = Matrix<T>;
    fn neg(self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| -a).collect(),
        }
    }
}

impl<T: Real> Mul for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.matmul(rhs)
    }
}

impl<T: Real> Mul<&Vector<T>> for &Matrix<T> {
    type Output = Vector<T>;
    fn mul(self, rhs: &Vector<T>) -> Vector<T> {
        self.matvec(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2(data: [f64; 4]) -> Matrix<f64> {
        Matrix::from_f64_slice(2, 2, &data)
    }

    #[test]
    fn identity_and_indexing() {
        let i3 = Matrix::<f64>::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        assert_eq!(i3.diag(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = m2([1.0, 2.0, 3.0, 4.0]);
        let x = Vector::from_f64_slice(&[1.0, 1.0]);
        let y = a.matvec(&x);
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
        let yt = a.matvec_transposed(&x);
        assert_eq!(yt.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m2([1.0, 2.0, 3.0, 4.0]);
        let b = m2([0.0, 1.0, 1.0, 0.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::<f64>::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let i5 = Matrix::<f64>::identity(5);
        assert_eq!(a.matmul(&i5), a);
        assert_eq!(i5.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::<f64>::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().nrows(), 4);
    }

    #[test]
    fn norms_on_known_matrix() {
        let a = m2([1.0, -2.0, -3.0, 4.0]);
        assert_eq!(a.norm_max(), 4.0);
        assert!((a.norm_frobenius() - 30f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = Matrix::<f64>::from_fn(3, 2, |i, _| i as f64);
        a.swap_rows(0, 2);
        assert_eq!(a.row(0), &[2.0, 2.0]);
        assert_eq!(a.row(2), &[0.0, 0.0]);
        a.swap_rows(1, 1); // no-op
        assert_eq!(a.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn col_and_set_col() {
        let mut a = Matrix::<f64>::zeros(3, 3);
        let v = Vector::from_f64_slice(&[1.0, 2.0, 3.0]);
        a.set_col(1, &v);
        assert_eq!(a.col(1).as_slice(), v.as_slice());
        assert_eq!(a.col(0).as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn symmetric_detection() {
        let s = m2([2.0, 1.0, 1.0, 3.0]);
        assert!(s.is_symmetric(0.0));
        let ns = m2([2.0, 1.0, 1.5, 3.0]);
        assert!(!ns.is_symmetric(0.1));
        assert!(ns.is_symmetric(1.0));
    }

    #[test]
    fn operators() {
        let a = m2([1.0, 2.0, 3.0, 4.0]);
        let b = m2([4.0, 3.0, 2.0, 1.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0; 4]);
        assert_eq!((&a - &a).norm_frobenius(), 0.0);
        assert_eq!((-&a)[(1, 1)], -4.0);
        let x = Vector::from_f64_slice(&[1.0, 0.0]);
        assert_eq!((&a * &x).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn large_parallel_matmul_agrees_with_small_path() {
        // Exercise the rayon path and compare against the naive triple loop.
        let n = 80; // 80^3 > PAR_THRESHOLD
        let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 / 17.0);
        let b = Matrix::<f64>::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 / 11.0);
        let c = a.matmul(&b);
        // Naive check of a few entries.
        for &(i, j) in &[(0usize, 0usize), (7, 63), (79, 79), (40, 2)] {
            let mut s = 0.0;
            for k in 0..n {
                s += a[(i, k)] * b[(k, j)];
            }
            assert!((c[(i, j)] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::<f64>::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_matmul_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
