//! Error metrics for computed solutions of linear systems.
//!
//! The paper's stopping criterion is the *scaled residual*
//! `ω = ‖b − A x̃‖ / ‖b‖` (Section III-A), chosen because it is invariant to a
//! common rescaling of `A x` and `b` — exactly what happens when quantum
//! algorithms force `b` to be normalised.  Equation (5) sandwiches the relative
//! forward error between `ω/κ` and `κ ω`; the workspace's end-to-end tests
//! assert that bound on every solve they check.

use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::vector::Vector;

/// The scaled residual `ω = ‖b − A x̃‖₂ / ‖b‖₂` of a computed solution.
///
/// Generic over [`LinearOperator`], so the residual costs O(nnz) on sparse
/// operators (dense [`crate::Matrix`] callers are unchanged).
pub fn scaled_residual<T: Real, Op: LinearOperator<T>>(a: &Op, x: &Vector<T>, b: &Vector<T>) -> T {
    residual(a, x, b).1
}

/// The residual `r = b − A x̃` together with its scaled norm
/// ω = [`scaled_residual`]: one matvec, for the refiners that check ω and
/// then solve for `r`.
pub fn residual<T: Real, Op: LinearOperator<T>>(
    a: &Op,
    x: &Vector<T>,
    b: &Vector<T>,
) -> (Vector<T>, T) {
    let r = b - &a.matvec(x);
    let nb = b.norm2();
    let omega = if nb == T::zero() {
        r.norm2()
    } else {
        r.norm2() / nb
    };
    (r, omega)
}

/// Relative forward error `‖x − x̃‖₂ / ‖x‖₂` with respect to a reference
/// solution `x_true`.
pub fn forward_error<T: Real>(x_computed: &Vector<T>, x_true: &Vector<T>) -> T {
    let nx = x_true.norm2();
    let diff = (x_computed - x_true).norm2();
    if nx == T::zero() {
        diff
    } else {
        diff / nx
    }
}

/// Norm-wise relative backward error of Rigal–Gaches:
/// `η(x̃) = ‖b − A x̃‖ / (‖A‖·‖x̃‖ + ‖b‖)`.
///
/// A solution is "backward stable" when η is of the order of the working
/// precision, regardless of the conditioning of `A`.
pub fn backward_error<T: Real, Op: LinearOperator<T>>(a: &Op, x: &Vector<T>, b: &Vector<T>) -> T {
    let r = b - &a.matvec(x);
    let denom = a.norm_frobenius() * x.norm2() + b.norm2();
    if denom == T::zero() {
        r.norm2()
    } else {
        r.norm2() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution};
    use crate::lu::lu_solve;
    use crate::matrix::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_solution_has_zero_residual_and_error() {
        let a = Matrix::<f64>::from_f64_slice(2, 2, &[2.0, 0.0, 0.0, 3.0]);
        let x = Vector::from_f64_slice(&[1.0, 2.0]);
        let b = a.matvec(&x);
        assert_eq!(scaled_residual(&a, &x, &b), 0.0);
        assert_eq!(forward_error(&x, &x), 0.0);
        assert_eq!(backward_error(&a, &x, &b), 0.0);
    }

    #[test]
    fn residual_scale_invariance() {
        // omega is unchanged when A x = b is rescaled to (cA) x = (cb).
        let a = Matrix::from_f64_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let x = Vector::from_f64_slice(&[0.9, 1.1]); // inexact solution
        let b = Vector::from_f64_slice(&[3.0, 7.0]);
        let w1 = scaled_residual(&a, &x, &b);
        let c = 1e-3;
        let ca = Matrix::from_f64_slice(2, 2, &[1.0 * c, 2.0 * c, 3.0 * c, 4.0 * c]);
        let w2 = scaled_residual(&ca, &x, &b.scaled(c));
        assert!((w1 - w2).abs() < 1e-15);
    }

    #[test]
    fn backward_error_small_for_stable_solver() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let a = random_matrix_with_cond(
            32,
            1e6,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let x_true = Vector::from_f64_slice(&(0..32).map(|i| 1.0 + i as f64).collect::<Vec<_>>());
        let b = a.matvec(&x_true);
        let x = lu_solve(&a, &b).unwrap();
        // Even for kappa = 1e6 the backward error of LU stays near machine eps.
        assert!(backward_error(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn zero_rhs_handled() {
        let a = Matrix::<f64>::identity(3);
        let x = Vector::from_f64_slice(&[1.0, 0.0, 0.0]);
        let b = Vector::zeros(3);
        assert_eq!(scaled_residual(&a, &x, &b), 1.0);
    }
}
