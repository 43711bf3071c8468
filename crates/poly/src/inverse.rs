//! Polynomial approximation of the inverse function (Eq. (4) of the paper).
//!
//! The QSVT inverts a matrix by applying an odd polynomial `P(x) ≈ 1/x` to its
//! singular values.  The construction follows Childs–Kothari–Somma and Gilyén
//! et al. exactly as the paper states it:
//!
//! 1. `f_{ε,κ}(x) = (1 − (1 − x²)^b)/x` with `b(ε,κ) = ⌈κ² log(κ/ε)⌉` is an
//!    ε-approximation of 1/x on `D_κ = [-1, -1/κ] ∪ [1/κ, 1]`;
//! 2. `f_{ε,κ}` has the explicit Chebyshev expansion whose degree-(2j+1)
//!    coefficient is `4 (−1)^j 2^{−2b} Σ_{i=j+1}^{b} C(2b, b+i)`;
//! 3. truncating the expansion after `D(ε,κ) = ⌈√(b log(4b/ε))⌉` terms adds at
//!    most ε of error, giving an odd polynomial of degree `2D + 1`.
//!
//! For use inside the QSVT the polynomial is rescaled by `1/(2κ)` so that its
//! magnitude stays below 1 on the approximation domain (the paper's target is
//! an `ε/2κ`-approximation of `1/(2κ) · 1/x`).

use crate::chebyshev::ChebyshevSeries;
use crate::special::binomial_tails;

/// The smoothing exponent `b(ε,κ) = ⌈κ² log(κ/ε)⌉` of the paper.
pub fn degree_b(kappa: f64, epsilon: f64) -> u64 {
    assert!(kappa >= 1.0, "condition number must be >= 1");
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    (kappa * kappa * (kappa / epsilon).ln()).ceil() as u64
}

/// The truncation order `D(ε,κ) = ⌈√(b log(4b/ε))⌉` of the paper
/// (the polynomial then has degree `2D + 1`).
pub fn degree_cap_d(kappa: f64, epsilon: f64) -> u64 {
    let b = degree_b(kappa, epsilon) as f64;
    (b * (4.0 * b / epsilon).ln()).sqrt().ceil() as u64
}

/// An odd Chebyshev polynomial approximating `1/x` on
/// `[-1, -1/κ] ∪ [1/κ, 1]`, together with the bookkeeping the QSVT solver
/// needs (the normalisation applied to satisfy `|P| ≤ 1` and the theoretical
/// parameters used to build it).
#[derive(Debug, Clone)]
pub struct InversePolynomial {
    /// Chebyshev series of the *normalised* polynomial `P(x) ≈ (1/(2κ)) · 1/x`.
    pub series: ChebyshevSeries,
    /// The condition number the polynomial was built for.
    pub kappa: f64,
    /// The requested approximation accuracy ε on the domain `D_κ`.
    pub epsilon: f64,
    /// The smoothing exponent `b(ε,κ)`.
    pub b: u64,
    /// The truncation order `D(ε,κ)`; the polynomial degree is `2D + 1`.
    pub cap_d: u64,
    /// The factor by which the raw `≈ 1/x` series was multiplied to keep
    /// `|P| ≤ 1` (equal to `1/(2κ)`).  The QSVT solution must be multiplied by
    /// `1/normalisation` (i.e. `2κ`) to undo it.
    pub normalisation: f64,
}

impl InversePolynomial {
    /// Build the Eq. (4) polynomial for a given condition number and target
    /// accuracy ε (the accuracy of the *un-normalised* approximation of 1/x on
    /// the domain, relative to the values of 1/x which are ≥ 1 there).
    pub fn new(kappa: f64, epsilon: f64) -> Self {
        let b = degree_b(kappa, epsilon);
        let cap_d = degree_cap_d(kappa, epsilon);
        Self::with_parameters(kappa, epsilon, b, cap_d)
    }

    /// Build the polynomial with explicitly chosen `b` and `D` (used by tests,
    /// by the resource model, and to reproduce runs where the angle-estimation
    /// algorithm of \[32\] fixes the effective accuracy itself).
    pub(crate) fn with_parameters(kappa: f64, epsilon: f64, b: u64, cap_d: u64) -> Self {
        let cap_d = cap_d.min(b); // the expansion has at most b non-zero terms
                                  // Tail sums S_j = 2^{-2b} Σ_{i=j+1}^{b} C(2b, b+i) for j = 0..D.
        let tails = binomial_tails(b, cap_d);
        // Coefficient of T_{2j+1} is 4 (-1)^j S_j; even coefficients vanish.
        let degree = (2 * cap_d + 1) as usize;
        let mut coeffs = vec![0.0f64; degree + 1];
        for (j, &s) in tails.iter().enumerate() {
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            coeffs[2 * j + 1] = 4.0 * sign * s;
        }
        let normalisation = 1.0 / (2.0 * kappa);
        let mut series = ChebyshevSeries::new(coeffs);
        series.scale(normalisation);
        InversePolynomial {
            series,
            kappa,
            epsilon,
            b,
            cap_d,
            normalisation,
        }
    }

    /// Degree of the polynomial (2D + 1).
    pub fn degree(&self) -> usize {
        self.series.degree()
    }

    /// Evaluate the *normalised* polynomial `P(x) ≈ 1/(2κx)`.
    pub fn eval(&self, x: f64) -> f64 {
        self.series.eval(x)
    }

    /// Evaluate the un-normalised approximation of `1/x`.
    pub fn eval_inverse(&self, x: f64) -> f64 {
        self.series.eval(x) / self.normalisation
    }

    /// Maximum relative error of the un-normalised polynomial against `1/x`
    /// over a grid of `samples` points covering `[1/κ, 1]` (by parity the
    /// negative branch has the same error).
    pub fn max_relative_error(&self, samples: usize) -> f64 {
        let lo = 1.0 / self.kappa;
        (0..samples)
            .map(|i| lo + (1.0 - lo) * i as f64 / (samples - 1) as f64)
            .map(|x| {
                let approx = self.eval_inverse(x);
                let exact = 1.0 / x;
                ((approx - exact) / exact).abs()
            })
            .fold(0.0, f64::max)
    }

    /// The target function `f_{ε,κ}(x) = (1 − (1 − x²)^b)/x` the series expands,
    /// evaluated directly: the oracle of the series tests.
    #[cfg(test)]
    fn target_function(&self, x: f64) -> f64 {
        if x == 0.0 {
            return 0.0;
        }
        // (1 - (1-x²)^b)/x computed carefully: for |x| close to 1, (1-x²)^b
        // underflows harmlessly to 0.
        let one_minus_x2 = (1.0 - x * x).max(0.0);
        let pow = if one_minus_x2 == 0.0 {
            0.0
        } else {
            (self.b as f64 * one_minus_x2.ln()).exp()
        };
        (1.0 - pow) / x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_formulas_match_paper_expressions() {
        // b = ceil(kappa^2 ln(kappa/eps)).
        let b = degree_b(10.0, 1e-2);
        assert_eq!(b, (100.0f64 * (10.0f64 / 1e-2).ln()).ceil() as u64);
        let d = degree_cap_d(10.0, 1e-2);
        let bf = b as f64;
        assert_eq!(d, (bf * (4.0 * bf / 1e-2).ln()).sqrt().ceil() as u64);
        assert!(d < b);
    }

    #[test]
    fn polynomial_is_odd() {
        let p = InversePolynomial::new(4.0, 1e-3);
        assert_eq!(p.series.parity(1e-300), crate::chebyshev::Parity::Odd);
        // Odd polynomial: P(-x) = -P(x).
        for &x in &[0.3, 0.5, 0.9] {
            assert!((p.eval(-x) + p.eval(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn approximates_inverse_on_domain() {
        for &(kappa, eps) in &[(2.0, 1e-3), (5.0, 1e-4), (10.0, 1e-2), (20.0, 1e-3)] {
            let p = InversePolynomial::new(kappa, eps);
            let err = p.max_relative_error(400);
            // The construction guarantees absolute error eps against 1/x on the
            // domain where |1/x| >= 1, so relative error <= eps there; allow a
            // modest constant factor for the grid sampling.
            assert!(
                err < 5.0 * eps,
                "kappa = {kappa}, eps = {eps}: relative error {err}"
            );
        }
    }

    #[test]
    fn truncation_error_grows_when_d_is_reduced() {
        let kappa = 8.0;
        let eps = 1e-4;
        let b = degree_b(kappa, eps);
        let full = InversePolynomial::new(kappa, eps);
        let truncated =
            InversePolynomial::with_parameters(kappa, eps, b, degree_cap_d(kappa, eps) / 3);
        assert!(truncated.max_relative_error(300) > full.max_relative_error(300));
    }

    #[test]
    fn normalised_polynomial_bounded_on_domain() {
        let p = InversePolynomial::new(10.0, 1e-3);
        // On the domain |x| >= 1/kappa the normalised polynomial is <= ~1/2.
        let lo = 1.0 / 10.0;
        for i in 0..200 {
            let x = lo + (1.0 - lo) * i as f64 / 199.0;
            assert!(p.eval(x).abs() <= 0.55, "x = {x}, P = {}", p.eval(x));
        }
    }

    #[test]
    fn target_function_matches_series_for_moderate_degree() {
        // With the full (untruncated) number of terms the series equals f_{eps,kappa}.
        let kappa = 3.0;
        let eps = 1e-3;
        let b = degree_b(kappa, eps);
        let p = InversePolynomial::with_parameters(kappa, eps, b, b);
        for &x in &[0.4, 0.6, 0.8, 0.95, -0.5, -0.7] {
            let series_val = p.eval_inverse(x);
            let target = p.target_function(x);
            assert!(
                (series_val - target).abs() < 1e-8,
                "x = {x}: series {series_val} vs target {target}"
            );
        }
    }

    #[test]
    fn eval_inverse_matches_inverse_scaling() {
        let p = InversePolynomial::new(5.0, 1e-3);
        let x = 0.7;
        assert!((p.eval(x) * 2.0 * 5.0 - p.eval_inverse(x)).abs() < 1e-14);
    }

    #[test]
    fn degree_is_2d_plus_1() {
        let p = InversePolynomial::new(6.0, 1e-3);
        assert_eq!(p.degree(), (2 * p.cap_d + 1) as usize);
    }

    #[test]
    fn larger_kappa_needs_larger_degree() {
        let d2 = InversePolynomial::new(2.0, 1e-3).degree();
        let d10 = InversePolynomial::new(10.0, 1e-3).degree();
        let d50 = InversePolynomial::new(50.0, 1e-3).degree();
        assert!(d2 < d10 && d10 < d50);
    }

    #[test]
    fn tighter_epsilon_needs_larger_degree() {
        let coarse = InversePolynomial::new(10.0, 1e-1).degree();
        let fine = InversePolynomial::new(10.0, 1e-6).degree();
        assert!(coarse < fine);
    }

    #[test]
    fn large_condition_number_construction_is_feasible() {
        // kappa = 300 as in Fig. 4 of the paper; just ensure construction works
        // and the polynomial is finite and odd with the expected degree.
        let kappa = 300.0;
        let eps = 1e-2;
        let p = InversePolynomial::new(kappa, eps);
        assert_eq!(p.degree(), (2 * p.cap_d + 1) as usize);
        assert!(p.series.coeffs.iter().all(|c| c.is_finite()));
        // Spot-check accuracy at a few points of the domain.
        for &x in &[1.0 / kappa, 0.01, 0.1, 1.0] {
            let rel = ((p.eval_inverse(x) - 1.0 / x) / (1.0 / x)).abs();
            assert!(rel < 0.1, "x = {x}, relative error {rel}");
        }
    }
}
