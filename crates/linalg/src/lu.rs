//! LU factorisation with partial pivoting.
//!
//! The classical reference solver used throughout the reproduction: it provides
//! the "exact" solution against which the hybrid QSVT + iterative-refinement
//! solver is compared, and it is the low-precision inner solver of the
//! classical mixed-precision baseline (Algorithm 1 of the paper), where the
//! factors computed at precision `u_l` are reused for every correction solve.

use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::vector::Vector;

/// Error returned when a factorisation or solve cannot be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular to working precision (zero pivot encountered).
    Singular {
        /// Index of the elimination step where the zero pivot appeared.
        step: usize,
    },
    /// The matrix is not square.
    NotSquare,
    /// Dimensions of operands do not match.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { step } => {
                write!(f, "matrix is singular to working precision (pivot {step})")
            }
            LinalgError::NotSquare => write!(f, "matrix is not square"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// An LU factorisation `P A = L U` with partial (row) pivoting.
///
/// `L` is unit lower triangular and `U` upper triangular; both are stored
/// packed in a single matrix.  The permutation is stored as a row-index map.
#[derive(Debug, Clone)]
pub struct LuFactorization<T: Real> {
    /// Packed L (strictly lower, unit diagonal implicit) and U (upper).
    lu: Matrix<T>,
    /// `perm[i]` = original row index that ended up in position `i`.
    perm: Vec<usize>,
}

impl<T: Real> LuFactorization<T> {
    /// Factorise a square matrix with partial pivoting.
    ///
    /// Returns an error if a pivot is exactly zero, i.e. the matrix is
    /// singular at the working precision.
    pub fn new(a: &Matrix<T>) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Find the pivot: the largest magnitude entry in column k at or below row k.
            let mut piv_row = k;
            let mut piv_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = i;
                }
            }
            if piv_val == T::zero() {
                return Err(LinalgError::Singular { step: k });
            }
            if piv_row != k {
                lu.swap_rows(piv_row, k);
                perm.swap(piv_row, k);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == T::zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let u_kj = lu[(k, j)];
                    lu[(i, j)] = (-factor).mul_add(u_kj, lu[(i, j)]);
                }
            }
        }
        Ok(LuFactorization { lu, perm })
    }

    /// Order of the factorised matrix.
    pub(crate) fn order(&self) -> usize {
        self.lu.nrows()
    }

    /// Solve `A x = b` using the stored factors.
    pub fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        // Apply the permutation: y = P b.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            y[i] = b[self.perm[i]];
        }
        // Forward substitution with unit lower triangular L.
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s = (-self.lu[(i, j)]).mul_add(y[j], s);
            }
            y[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s = (-self.lu[(i, j)]).mul_add(y[j], s);
            }
            y[i] = s / self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Reconstruct `A = Pᵀ L U` (mainly for tests / verification).
    pub fn reconstruct(&self) -> Matrix<T> {
        let n = self.order();
        let mut l = Matrix::identity(n);
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = self.lu[(i, j)];
                } else {
                    u[(i, j)] = self.lu[(i, j)];
                }
            }
        }
        let plu = l.matmul(&u);
        // Undo the permutation on the rows: row perm[i] of A is row i of LU.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let src = plu.row(i).to_vec();
            a.row_mut(self.perm[i]).copy_from_slice(&src);
        }
        a
    }
}

/// Convenience function: factorise and solve in one call.
pub fn lu_solve<T: Real>(a: &Matrix<T>, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
    LuFactorization::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn example3() -> Matrix<f64> {
        Matrix::from_f64_slice(3, 3, &[2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0])
    }

    #[test]
    fn solves_known_system() {
        let a = example3();
        let b = Vector::from_f64_slice(&[5.0, -2.0, 9.0]);
        let x = lu_solve(&a, &b).unwrap();
        let expected = [1.0, 1.0, 2.0];
        for i in 0..3 {
            assert!((x[i] - expected[i]).abs() < 1e-12, "x = {:?}", x.as_slice());
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = example3();
        let f = LuFactorization::new(&a).unwrap();
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-13);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::<f64>::from_f64_slice(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            LuFactorization::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn not_square_detected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            LuFactorization::new(&a),
            Err(LinalgError::NotSquare)
        ));
    }

    #[test]
    fn random_systems_solved_accurately() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for &n in &[4usize, 8, 16, 32] {
            let a = random_matrix_with_cond(
                n,
                50.0,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            );
            let xtrue =
                Vector::from_f64_slice(&(0..n).map(|i| (i as f64).sin() + 1.0).collect::<Vec<_>>());
            let b = a.matvec(&xtrue);
            let x = lu_solve(&a, &b).unwrap();
            let err = (&x - &xtrue).norm2() / xtrue.norm2();
            assert!(err < 1e-10, "n={n} err={err}");
        }
    }

    #[test]
    fn f32_factorisation_works() {
        let a: Matrix<f32> = example3().convert();
        let b = Vector::<f32>::from_f64_slice(&[5.0, -2.0, 9.0]);
        let x = lu_solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-5);
        assert!((x[2] - 2.0).abs() < 1e-5);
    }
}
