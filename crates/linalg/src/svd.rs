//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The QSVT is literally a transformation of the singular values of the
//! block-encoded matrix, so an SVD is needed throughout the reproduction:
//! to compute exact condition numbers κ = σ_max/σ_min of the generated test
//! matrices, to validate the polynomial transformation `P(Σ)` applied by the
//! QSVT circuits, and to normalise matrices so that ‖A‖₂ ≤ 1 before
//! block-encoding.
//!
//! One-sided Jacobi is chosen because it is simple, numerically robust, and
//! computes small singular values to high relative accuracy — which matters
//! when κ is large, precisely the regime the paper studies.

use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::vector::Vector;

/// A singular value decomposition `A = U Σ Vᵀ`.
///
/// `u` is m×n with orthonormal columns, `sigma` holds the singular values in
/// non-increasing order, and `v` is n×n orthogonal (thin SVD, m ≥ n).
#[derive(Debug, Clone)]
pub struct Svd<T: Real> {
    /// Left singular vectors (m×n, orthonormal columns).
    pub u: Matrix<T>,
    /// Singular values, sorted in non-increasing order.
    pub sigma: Vec<T>,
    /// Right singular vectors (n×n, orthogonal).
    pub v: Matrix<T>,
}

impl<T: Real> Svd<T> {
    /// Compute the SVD of an m×n matrix with m ≥ n using one-sided Jacobi.
    ///
    /// Iterates sweeps of plane rotations on the columns of a working copy of
    /// `A` until all column pairs are numerically orthogonal.
    pub fn new(a: &Matrix<T>) -> Self {
        let m = a.nrows();
        let n = a.ncols();
        assert!(
            m >= n,
            "Svd::new requires m >= n; transpose the input first"
        );

        // Work on a copy whose columns converge to U Σ; V accumulates rotations.
        let mut w = a.clone();
        let mut v = Matrix::<T>::identity(n);

        let eps = T::from_f64(<T as Real>::unit_roundoff() * 16.0);
        let max_sweeps = 60;
        for _sweep in 0..max_sweeps {
            let mut off_diag_large = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Compute the 2x2 Gram sub-matrix entries.
                    let mut app = T::zero();
                    let mut aqq = T::zero();
                    let mut apq = T::zero();
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        app = wp.mul_add(wp, app);
                        aqq = wq.mul_add(wq, aqq);
                        apq = wp.mul_add(wq, apq);
                    }
                    if apq.abs() <= eps * (app * aqq).sqrt() {
                        continue;
                    }
                    off_diag_large = true;
                    // Jacobi rotation that annihilates apq.
                    let tau = (aqq - app) / (T::from_f64(2.0) * apq);
                    let t = {
                        let sign = if tau >= T::zero() {
                            T::one()
                        } else {
                            -T::one()
                        };
                        sign / (tau.abs() + (T::one() + tau * tau).sqrt())
                    };
                    let c = T::one() / (T::one() + t * t).sqrt();
                    let s = c * t;
                    // Apply the rotation to columns p and q of W and V.
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        w[(i, p)] = c * wp - s * wq;
                        w[(i, q)] = s * wp + c * wq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if !off_diag_large {
                break;
            }
        }

        // Extract singular values as column norms of W, and normalise the columns.
        let mut sigma: Vec<T> = Vec::with_capacity(n);
        let mut u = Matrix::<T>::zeros(m, n);
        for j in 0..n {
            let col = w.col(j);
            let s = col.norm2();
            sigma.push(s);
            if s > T::zero() {
                let inv = T::one() / s;
                for i in 0..m {
                    u[(i, j)] = w[(i, j)] * inv;
                }
            } else {
                // Zero singular value: fill with a canonical basis direction to
                // keep U's columns well defined (orthogonality handled below is
                // best-effort for rank-deficient input).
                u[(j.min(m - 1), j)] = T::one();
            }
        }

        // Sort by decreasing singular value.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap());
        let sigma_sorted: Vec<T> = order.iter().map(|&i| sigma[i]).collect();
        let mut u_sorted = Matrix::<T>::zeros(m, n);
        let mut v_sorted = Matrix::<T>::zeros(n, n);
        for (newj, &oldj) in order.iter().enumerate() {
            u_sorted.set_col(newj, &u.col(oldj));
            v_sorted.set_col(newj, &v.col(oldj));
        }

        Svd {
            u: u_sorted,
            sigma: sigma_sorted,
            v: v_sorted,
        }
    }

    /// The largest singular value, i.e. the spectral norm ‖A‖₂.
    pub fn norm2(&self) -> T {
        self.sigma.first().copied().unwrap_or_else(T::zero)
    }

    /// The smallest singular value.
    pub fn sigma_min(&self) -> T {
        self.sigma.last().copied().unwrap_or_else(T::zero)
    }

    /// 2-norm condition number κ₂ = σ_max / σ_min.
    pub fn cond(&self) -> T {
        let smin = self.sigma_min();
        if smin == T::zero() {
            T::from_f64(f64::INFINITY)
        } else {
            self.norm2() / smin
        }
    }

    /// Reconstruct `U Σ Vᵀ`, the oracle of the factorisation tests.
    #[cfg(test)]
    fn reconstruct(&self) -> Matrix<T> {
        let n = self.sigma.len();
        let mut us = self.u.clone();
        for j in 0..n {
            for i in 0..us.nrows() {
                us[(i, j)] *= self.sigma[j];
            }
        }
        us.matmul(&self.v.transpose())
    }

    /// Apply the Moore–Penrose pseudo-inverse to a vector: `A⁺ b = V Σ⁺ Uᵀ b`.
    ///
    /// Singular values below `tol * σ_max` are treated as zero.  This is the
    /// classical analogue of what the QSVT matrix-inversion polynomial does on
    /// the quantum side.
    pub fn pseudo_solve(&self, b: &Vector<T>, tol: T) -> Vector<T> {
        let thresh = tol * self.norm2();
        let utb = self.u.matvec_transposed(b);
        let n = self.sigma.len();
        let mut y = Vector::zeros(n);
        for j in 0..n {
            if self.sigma[j] > thresh {
                y[j] = utb[j] / self.sigma[j];
            }
        }
        self.v.matvec(&y)
    }

    /// Apply an arbitrary function of the singular values: `U f(Σ) Vᵀ x` when
    /// `transpose` is false, or `V f(Σ) Uᵀ x` when true (the "odd polynomial on
    /// Aᵀ" convention used by QSVT-based matrix inversion).
    pub fn apply_function(&self, x: &Vector<T>, f: impl Fn(T) -> T, transpose: bool) -> Vector<T> {
        if transpose {
            let utx = self.u.matvec_transposed(x);
            let mut y = Vector::zeros(self.sigma.len());
            for j in 0..self.sigma.len() {
                y[j] = f(self.sigma[j]) * utx[j];
            }
            self.v.matvec(&y)
        } else {
            let vtx = self.v.matvec_transposed(x);
            let mut y = Vector::zeros(self.sigma.len());
            for j in 0..self.sigma.len() {
                y[j] = f(self.sigma[j]) * vtx[j];
            }
            self.u.matvec(&y)
        }
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
    fn reconstruction_is_accurate() {
        let a = random_matrix(8, 8, 11);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn rectangular_reconstruction() {
        let a = random_matrix(10, 6, 12);
        let svd = Svd::new(&a);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-12);
        assert_eq!(svd.sigma.len(), 6);
    }

    #[test]
    fn singular_values_sorted_and_positive() {
        let a = random_matrix(9, 9, 13);
        let svd = Svd::new(&a);
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn orthogonality_of_factors() {
        let a = random_matrix(8, 8, 14);
        let svd = Svd::new(&a);
        let utu = svd.u.transpose().matmul(&svd.u);
        let vtv = svd.v.transpose().matmul(&svd.v);
        assert!(utu.max_abs_diff(&Matrix::identity(8)) < 1e-12);
        assert!(vtv.max_abs_diff(&Matrix::identity(8)) < 1e-12);
    }

    #[test]
    fn diagonal_matrix_has_its_entries_as_singular_values() {
        let d = Matrix::from_diag(&[3.0, -2.0, 0.5]);
        let svd = Svd::new(&d);
        let got: Vec<f64> = svd.sigma.clone();
        assert!((got[0] - 3.0).abs() < 1e-14);
        assert!((got[1] - 2.0).abs() < 1e-14);
        assert!((got[2] - 0.5).abs() < 1e-14);
    }

    #[test]
    fn cond_of_known_matrix() {
        let d = Matrix::from_diag(&[10.0, 5.0, 1.0]);
        let svd = Svd::new(&d);
        assert!((svd.cond() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pseudo_solve_matches_lu_for_nonsingular() {
        use crate::lu::lu_solve;
        let a = random_matrix(7, 7, 15);
        let b = Vector::from_f64_slice(&(0..7).map(|i| (i as f64 + 1.0).ln()).collect::<Vec<_>>());
        let x_lu = lu_solve(&a, &b).unwrap();
        let x_svd = Svd::new(&a).pseudo_solve(&b, 1e-13);
        assert!((&x_lu - &x_svd).norm2() < 1e-10);
    }

    #[test]
    fn apply_function_inverse_matches_solve() {
        let a = random_matrix(6, 6, 16);
        let b = Vector::from_f64_slice(&(0..6).map(|i| (i as f64).sin()).collect::<Vec<_>>());
        let svd = Svd::new(&a);
        // Solving A x = b with the SVD of A via x = V Σ^{-1} Uᵀ b.
        let x = svd.apply_function(&b, |s| 1.0 / s, true);
        let r = &a.matvec(&x) - &b;
        assert!(r.norm2() < 1e-10);
    }
}
