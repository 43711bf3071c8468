//! Householder QR factorisation.
//!
//! Generates the random orthogonal matrices behind the
//! prescribed-condition-number test matrices of Section IV of the paper (QR
//! of a Gaussian matrix yields a Haar-distributed orthogonal factor).

use crate::lu::LinalgError;
use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::vector::Vector;

/// A Householder QR factorisation `A = Q R` with `A` of size m×n, m ≥ n.
///
/// The Householder vectors are stored below the diagonal of the packed matrix
/// and `R` on and above the diagonal, as in LAPACK's `geqrf`.
#[derive(Debug, Clone)]
pub struct QrFactorization<T: Real> {
    qr: Matrix<T>,
    /// The scalar `tau_k` of each Householder reflector `H_k = I - tau v vᵀ`.
    tau: Vec<T>,
}

impl<T: Real> QrFactorization<T> {
    /// Factorise an m×n matrix (m ≥ n) into `Q R`.
    pub fn new(a: &Matrix<T>) -> Result<Self, LinalgError> {
        let m = a.nrows();
        let n = a.ncols();
        if m < n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut qr = a.clone();
        let mut tau = vec![T::zero(); n];

        for k in 0..n.min(m.saturating_sub(1).max(n)) {
            if k >= m - 1 && k < n {
                // Last row: nothing below the diagonal to eliminate.
                tau[k] = T::zero();
                continue;
            }
            // Compute the norm of the column below (and including) the diagonal.
            let mut normx = T::zero();
            {
                let mut maxabs = T::zero();
                for i in k..m {
                    maxabs = maxabs.max(qr[(i, k)].abs());
                }
                if maxabs != T::zero() {
                    let mut s = T::zero();
                    for i in k..m {
                        let v = qr[(i, k)] / maxabs;
                        s = v.mul_add(v, s);
                    }
                    normx = maxabs * s.sqrt();
                }
            }
            if normx == T::zero() {
                tau[k] = T::zero();
                continue;
            }
            // Choose the sign to avoid cancellation.
            let alpha = if qr[(k, k)] >= T::zero() {
                -normx
            } else {
                normx
            };
            // v = x - alpha e1, normalised so v[k] = 1.
            let v0 = qr[(k, k)] - alpha;
            tau[k] = -v0 / alpha; // tau = (alpha - x0)/alpha = -v0/alpha
            let inv_v0 = T::one() / v0;
            for i in (k + 1)..m {
                qr[(i, k)] *= inv_v0;
            }
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns: A := (I - tau v vᵀ) A.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s = qr[(i, k)].mul_add(qr[(i, j)], s);
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] = (-s).mul_add(vik, qr[(i, j)]);
                }
            }
        }
        Ok(QrFactorization { qr, tau })
    }

    /// Number of rows of the original matrix.
    pub(crate) fn nrows(&self) -> usize {
        self.qr.nrows()
    }

    /// Number of columns of the original matrix.
    pub(crate) fn ncols(&self) -> usize {
        self.qr.ncols()
    }

    /// The upper-triangular factor `R` (n×n).
    pub fn r(&self) -> Matrix<T> {
        let n = self.ncols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }

    /// Apply `Q` to a vector of length m.
    pub(crate) fn apply_q(&self, b: &Vector<T>) -> Vector<T> {
        let m = self.nrows();
        let n = self.ncols();
        assert_eq!(b.len(), m, "apply_q: dimension mismatch");
        let mut y = b.clone();
        for k in (0..n).rev() {
            if self.tau[k] == T::zero() {
                continue;
            }
            let mut s = y[k];
            for i in (k + 1)..m {
                s = self.qr[(i, k)].mul_add(y[i], s);
            }
            s *= self.tau[k];
            y[k] -= s;
            for i in (k + 1)..m {
                let vik = self.qr[(i, k)];
                y[i] = (-s).mul_add(vik, y[i]);
            }
        }
        y
    }

    /// The explicit m×m orthogonal factor `Q`.
    pub fn q(&self) -> Matrix<T> {
        let m = self.nrows();
        let mut q = Matrix::zeros(m, m);
        for j in 0..m {
            let e = Vector::basis(m, j);
            let col = self.apply_q(&e);
            q.set_col(j, &col);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn q_is_orthogonal_and_qr_reconstructs() {
        let a = random_matrix(6, 6, 1);
        let f = QrFactorization::new(&a).unwrap();
        let q = f.q();
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(6)) < 1e-12);
        // Q R = A (square case: Q is 6x6, R is 6x6).
        let qr = q.matmul(&f.r());
        assert!(qr.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn rectangular_reconstruction() {
        let a = random_matrix(8, 5, 2);
        let f = QrFactorization::new(&a).unwrap();
        let q = f.q();
        let r_full = {
            // Embed R (5x5) into an 8x5 upper-trapezoidal matrix.
            let mut rf = Matrix::<f64>::zeros(8, 5);
            let r = f.r();
            for i in 0..5 {
                for j in 0..5 {
                    rf[(i, j)] = r[(i, j)];
                }
            }
            rf
        };
        let qr = q.matmul(&r_full);
        assert!(qr.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::<f64>::zeros(2, 5);
        assert!(QrFactorization::new(&a).is_err());
    }
}
