//! Condition number computation and estimation.
//!
//! The convergence of the paper's mixed-precision refinement is governed by
//! the product ε_l·κ (Theorem III.1), so both the exact condition number (via
//! the SVD, used for the small test matrices) and a matrix-free Lanczos
//! estimate (usable at scale on any [`LinearOperator`]) are provided.

use crate::matrix::Matrix;
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::svd::Svd;
use crate::vector::Vector;

/// Exact 2-norm condition number κ₂(A) = σ_max/σ_min computed from the SVD.
pub fn cond_2<T: Real>(a: &Matrix<T>) -> T {
    Svd::new(a).cond()
}

/// Matrix-free 2-norm condition-number estimate for any [`LinearOperator`],
/// using only matvecs — O(nnz) per Lanczos step, no SVD, no factorisation.
///
/// Runs the Lanczos iteration on `AᵀA` with full reorthogonalisation and
/// reads `σ_max²` and `σ_min²` off the extreme Ritz values of the projected
/// tridiagonal (located by Sturm-sequence bisection).  Unlike a shifted
/// power iteration, Lanczos resolves **clustered spectra**: each step
/// enlarges the whole Krylov space, so near-degenerate extreme eigenvalues
/// converge together instead of stalling the iteration.
///
/// `max_iterations` bounds the number of Lanczos steps (also capped at the
/// operator order, where the Ritz values are exact, and a hard cap of 400);
/// the loop stops early when both extreme Ritz values are stable to `tol`
/// relatively.  The start vector is deterministic, so the estimate is
/// reproducible.
///
/// The estimate is **never a bogus infinity**: interlacing makes the Ritz
/// extremes inner bounds of the true spectrum, so the result is a (typically
/// slight) *under-estimate* of κ₂ — the safe direction for the ε_l·κ < 1
/// check of Theorem III.1 is to add margin on top.  Working through the
/// normal equations at f64 also floors `σ_min²` at the rounding noise
/// `m·u·σ_max²`, so the estimate **saturates** near `1/√(m·u)` (~10⁷): a
/// genuinely singular operator returns that finite saturation value, not
/// `INFINITY` — use the SVD-backed [`cond_2`] when exact singularity must be
/// certified.  A zero operator returns 0.
pub fn cond_2_estimate<Op: LinearOperator<f64>>(a: &Op, max_iterations: usize, tol: f64) -> f64 {
    assert!(a.is_square(), "cond_2_estimate needs a square operator");
    let n = a.nrows();
    if n == 0 {
        return 0.0;
    }
    let steps_cap = max_iterations.max(2).min(n).min(400);
    let (alphas, betas) = lanczos_normal_equations(a, steps_cap, tol);
    let m = alphas.len();
    let (lambda_min, lambda_max) = tridiag_extreme_eigenvalues(&alphas, &betas);
    if lambda_max <= 0.0 {
        return 0.0;
    }
    // Resolution floor of the normal-equations formulation: Ritz values below
    // m·u·λ_max are indistinguishable from rounding noise.
    let floor = lambda_max * f64::EPSILON * m as f64;
    (lambda_max / lambda_min.max(floor)).sqrt()
}

/// Lanczos on `B = AᵀA` with full (two-pass) reorthogonalisation against the
/// whole basis.  Returns the projected tridiagonal `(α, β)`; stops early on
/// invariant-subspace breakdown (β ≈ 0, where the Ritz values are exact) or
/// when both extreme Ritz values are stable to `tol`.
fn lanczos_normal_equations<Op: LinearOperator<f64>>(
    a: &Op,
    steps: usize,
    tol: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let mut v: Vector<f64> = (0..n).map(|i| 1.5 + (i as f64 + 1.0).sin()).collect();
    v.normalize();
    let mut basis = vec![v];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    for j in 0..steps {
        let mut w = a.matvec_transposed(&a.matvec(&basis[j]));
        let alpha = basis[j].dot(&w);
        alphas.push(alpha);
        // Full reorthogonalisation (two classical Gram-Schmidt passes)
        // subtracts the α·v_j and β·v_{j−1} terms along the way and keeps the
        // basis numerically orthogonal — the property that lets Lanczos
        // separate clustered eigenvalues at all.
        for _ in 0..2 {
            for q in &basis {
                let c = q.dot(&w);
                w.axpy(-c, q);
            }
        }
        let beta = w.norm2();
        let scale = alphas
            .iter()
            .chain(betas.iter())
            .fold(0.0f64, |acc, &x| acc.max(x.abs()));
        if beta <= scale * f64::EPSILON * 64.0 {
            break; // invariant subspace: the Ritz values are exact
        }
        let (lo, hi) = tridiag_extreme_eigenvalues(&alphas, &betas);
        if let Some((plo, phi)) = prev {
            let lo_stable = (lo - plo).abs() <= tol * lo.abs().max(1e-300);
            let hi_stable = (hi - phi).abs() <= tol * hi.abs().max(1e-300);
            if lo_stable && hi_stable {
                break;
            }
        }
        prev = Some((lo, hi));
        betas.push(beta);
        w.scale(1.0 / beta);
        basis.push(w);
    }
    betas.truncate(alphas.len().saturating_sub(1));
    (alphas, betas)
}

/// Extreme eigenvalues of a symmetric tridiagonal `(α, β)` via Sturm-sequence
/// bisection on the LDLᵀ recurrence (Gershgorin brackets the spectrum).
fn tridiag_extreme_eigenvalues(alphas: &[f64], betas: &[f64]) -> (f64, f64) {
    let m = alphas.len();
    if m == 0 {
        return (0.0, 0.0);
    }
    // Gershgorin bounds.
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for i in 0..m {
        let mut r = 0.0;
        if i > 0 {
            r += betas[i - 1].abs();
        }
        if i < m - 1 {
            r += betas[i].abs();
        }
        lo = lo.min(alphas[i] - r);
        hi = hi.max(alphas[i] + r);
    }
    if lo == hi {
        return (lo, hi);
    }
    // Count of eigenvalues strictly below x (Sturm sequence via LDLᵀ).
    let count_below = |x: f64| -> usize {
        let mut count = 0;
        let mut d = 1.0f64;
        for i in 0..m {
            let off = if i == 0 {
                0.0
            } else {
                betas[i - 1] * betas[i - 1]
            };
            d = (alphas[i] - x) - off / d;
            if d == 0.0 {
                d = -f64::MIN_POSITIVE;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    let bisect = |target: usize| -> f64 {
        let (mut a, mut b) = (lo, hi);
        for _ in 0..120 {
            let mid = 0.5 * (a + b);
            if count_below(mid) >= target {
                b = mid;
            } else {
                a = mid;
            }
        }
        0.5 * (a + b)
    };
    (bisect(1), bisect(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn cond2_of_diag() {
        let a = Matrix::from_diag(&[8.0, 4.0, 2.0]);
        assert!((cond_2(&a) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cond2_of_generated_matrix_matches_request() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for &kappa in &[10.0, 100.0, 1000.0] {
            let a = random_matrix_with_cond(
                16,
                kappa,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            );
            let c = cond_2(&a);
            assert!(
                (c - kappa).abs() / kappa < 1e-8,
                "requested {kappa}, got {c}"
            );
        }
    }

    #[test]
    fn lanczos_estimate_on_diagonal_matrix() {
        let a = Matrix::from_diag(&[8.0, 4.0, 2.0]);
        let est = cond_2_estimate(&a, 500, 1e-12);
        assert!((est - 4.0).abs() < 1e-6, "estimate {est}");
    }

    #[test]
    fn lanczos_estimate_matches_svd_on_random_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for &kappa in &[10.0, 100.0] {
            let a = random_matrix_with_cond(
                16,
                kappa,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            );
            let est = cond_2_estimate(&a, 50_000, 1e-13);
            assert!(
                (est - kappa).abs() / kappa < 0.1,
                "requested {kappa}, estimated {est}"
            );
        }
    }

    #[test]
    fn lanczos_estimate_on_structured_operators() {
        // Matrix-free estimate on the CSR 1-D Poisson operator vs the
        // analytic condition number; the clustered Poisson spectrum converges
        // slowly, so allow a generous iteration budget and 10% slack.
        let n = 16;
        let t = crate::stencil::poisson_1d::<f64>(n, false);
        let exact = crate::stencil::poisson_1d_condition_number(n);
        let est = cond_2_estimate(&t, 20_000, 1e-13);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "analytic {exact}, estimated {est}"
        );
        // Its products are bit-identical to the dense ones, so the dense
        // form of the same operator gives the same estimate.
        assert_eq!(cond_2_estimate(&t.to_dense(), 20_000, 1e-13), est);
    }

    #[test]
    fn lanczos_estimate_identity_and_zero() {
        assert!((cond_2_estimate(&Matrix::<f64>::identity(5), 100, 1e-12) - 1.0).abs() < 1e-9);
        assert_eq!(
            cond_2_estimate(&Matrix::<f64>::zeros(4, 4), 100, 1e-12),
            0.0
        );
    }

    #[test]
    fn lanczos_estimate_matches_svd_on_geometric_and_clustered_spectra() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        for &dist in &[
            SingularValueDistribution::Geometric,
            SingularValueDistribution::Clustered,
        ] {
            for &kappa in &[100.0, 10_000.0] {
                let a = random_matrix_with_cond(24, kappa, dist, MatrixEnsemble::General, &mut rng);
                let exact = cond_2(&a);
                let est = cond_2_estimate(&a, 400, 1e-14);
                assert!(
                    (est - exact).abs() / exact < 1e-3,
                    "{dist:?} kappa={kappa}: exact {exact}, lanczos {est}"
                );
            }
        }
    }

    #[test]
    fn clustered_spectrum_no_longer_collapses_to_infinity() {
        // Eleven-fold degenerate σ = 1 plus one tiny σ = 1e-9: the shifted
        // power iteration this estimator replaced converged its Rayleigh
        // quotient to the shift itself and reported a bogus ∞; the Lanczos
        // estimate stays finite (saturated at the normal-equations
        // resolution, a documented under-estimate).
        let mut sv = vec![1.0; 11];
        sv.push(1e-9);
        let a = Matrix::from_diag(&sv);
        let est = cond_2_estimate(&a, 400, 1e-14);
        assert!(est.is_finite(), "lanczos estimate must be finite");
        assert!(
            est > 1e3,
            "saturated estimate should still flag severe ill-conditioning: {est}"
        );
    }

    #[test]
    fn lanczos_estimate_is_exact_below_the_saturation_regime() {
        // κ = 1e6 sits below the ~1/√(m·u) saturation, so the estimate is
        // sharp even though the spectrum is wide.
        let a = Matrix::from_diag(&[1.0, 0.3, 1e-6]);
        let est = cond_2_estimate(&a, 400, 1e-14);
        assert!((est - 1e6).abs() / 1e6 < 1e-4, "estimate {est}");
    }
}
