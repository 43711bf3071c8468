//! The structured linear-operator abstraction of the classical stack.
//!
//! The paper's hybrid refinement only ever touches the matrix through a
//! handful of operations on the classical side: the high-precision residual
//! `r = b − A x` (a matvec per iteration) and the transposed matvec used by
//! condition estimation.  None of those require dense storage — the Poisson
//! systems the paper benchmarks are tridiagonal (3 nonzeros per row), and
//! the 2-D and 3-D Poisson problems have 5 and 7.  [`LinearOperator`]
//! captures exactly that access pattern so every consumer above it
//! ([`crate::refine::ClassicalRefiner`],
//! [`crate::error::scaled_residual`], condition estimation,
//! `qls_core::HybridRefiner`, …) can be written once and run at O(nnz) per
//! matvec on structured problems while keeping dense [`Matrix`] as the
//! default — and as the equivalence oracle the structured implementation is
//! property-tested against (mirroring `qls_sim::kernels::reference`).
//!
//! Two implementations ship with the crate:
//!
//! | type | storage | matvec cost |
//! |------|---------|-------------|
//! | [`Matrix`] | dense row-major | O(N²), row-parallel |
//! | [`crate::sparse::SparseMatrix`] | CSR (also the 1-D, 2-D and 3-D Poisson operators) | O(nnz), row-parallel |
//!
//! Both also implement [`crate::inner::FactorizableOperator`], which maps
//! the representation to its structured low-precision inner solver (dense
//! LU; Thomas, Jacobi-CG/BiCGSTAB or dense LU for CSR) so the refinement
//! loops never densify structured operators.
//!
//! Algorithms that genuinely need explicit entries (LU factorisation, SVD,
//! block-encoding synthesis) bridge through [`LinearOperator::to_dense`]; the
//! contract is that `to_dense` reproduces the represented matrix exactly, so
//! a structured operator and its densification drive bit-identical inner
//! solves.

use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::vector::Vector;

/// A real linear operator accessed through matrix-vector products.
///
/// The trait is deliberately small: it is the exact interface the classical
/// side of the hybrid solver consumes.  All methods must be consistent with
/// the dense materialisation returned by [`LinearOperator::to_dense`] (the
/// matvecs to within the usual floating-point reassociation — the CSR
/// implementation is in fact bit-identical to the dense oracle because it
/// accumulates in the same column order).
pub trait LinearOperator<T: Real>: Clone + Send + Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;

    /// Number of columns.
    fn ncols(&self) -> usize;

    /// Matrix-vector product `A x`.
    fn matvec(&self, x: &Vector<T>) -> Vector<T>;

    /// Transposed matrix-vector product `Aᵀ x`.
    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T>;

    /// Materialise the operator as a dense matrix — the equivalence oracle,
    /// and the bridge to algorithms that need explicit entries (LU, SVD,
    /// block-encoding construction).  Must reproduce the represented matrix
    /// exactly.
    fn to_dense(&self) -> Matrix<T>;

    /// True when the operator is square.
    fn is_square(&self) -> bool {
        self.nrows() == self.ncols()
    }
}

impl<T: Real> LinearOperator<T> for Matrix<T> {
    fn nrows(&self) -> usize {
        Matrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        Matrix::ncols(self)
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        Matrix::matvec(self, x)
    }

    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        Matrix::matvec_transposed(self, x)
    }

    fn to_dense(&self) -> Matrix<T> {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operator_roundtrip<Op: LinearOperator<f64>>(op: &Op) {
        let dense = op.to_dense();
        assert_eq!(op.nrows(), dense.nrows());
        assert_eq!(op.ncols(), dense.ncols());
        let x: Vector<f64> = (0..op.ncols()).map(|i| (i as f64 * 0.7).cos()).collect();
        let xt: Vector<f64> = (0..op.nrows()).map(|i| (i as f64 * 0.3).sin()).collect();
        assert!((&op.matvec(&x) - &dense.matvec(&x)).norm2() < 1e-12);
        assert!((&op.matvec_transposed(&xt) - &dense.matvec_transposed(&xt)).norm2() < 1e-12);
    }

    #[test]
    fn dense_matrix_is_its_own_oracle() {
        let a = Matrix::<f64>::from_fn(4, 3, |i, j| (i * 3 + j) as f64 - 5.0);
        operator_roundtrip(&a);
        assert!(!LinearOperator::is_square(&a));
    }

    #[test]
    fn generic_residual_through_the_trait() {
        fn residual<Op: LinearOperator<f64>>(a: &Op, x: &Vector<f64>, b: &Vector<f64>) -> f64 {
            (b - &a.matvec(x)).norm2()
        }
        let a = Matrix::<f64>::identity(3);
        let x = Vector::from_f64_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(residual(&a, &x, &x), 0.0);
    }
}
