//! Chebyshev polynomials of the first kind and Chebyshev series.
//!
//! The polynomial handed to the QSVT is always expressed in the Chebyshev
//! basis: the paper notes (after Eq. (4)) that working in the Chebyshev basis
//! instead of the monomial basis "highly reduces the impact of Runge's
//! phenomenon when working with high degree polynomials", and the QSP phase
//! machinery of `qls-qsvt` consumes Chebyshev coefficients directly.

/// Parity of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Only even-index Chebyshev coefficients are non-zero.
    Even,
    /// Only odd-index Chebyshev coefficients are non-zero.
    Odd,
    /// Both parities present.
    None,
}

/// Evaluate the Chebyshev polynomial of the first kind `T_n(x)`.
///
/// Uses the trigonometric definition on [-1, 1] and the hyperbolic extension
/// outside, which is far more stable than the three-term recurrence for large
/// `n`.
pub fn chebyshev_t(n: usize, x: f64) -> f64 {
    if x.abs() <= 1.0 {
        (n as f64 * x.acos()).cos()
    } else if x > 1.0 {
        (n as f64 * x.acosh()).cosh()
    } else {
        // x < -1: T_n(x) = (-1)^n T_n(-x).
        let sign = if n.is_multiple_of(2) { 1.0 } else { -1.0 };
        sign * (n as f64 * (-x).acosh()).cosh()
    }
}

/// The `n` Chebyshev nodes of the first kind on [-1, 1]:
/// `x_k = cos((2k+1)π / (2n))`, k = 0..n.
pub(crate) fn chebyshev_nodes(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| ((2 * k + 1) as f64 * std::f64::consts::PI / (2.0 * n as f64)).cos())
        .collect()
}

/// A finite Chebyshev series `p(x) = Σ_k c_k T_k(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChebyshevSeries {
    /// Coefficients, `coeffs[k]` multiplying `T_k`.
    pub coeffs: Vec<f64>,
}

impl ChebyshevSeries {
    /// Build a series from its coefficients.
    pub fn new(coeffs: Vec<f64>) -> Self {
        ChebyshevSeries { coeffs }
    }

    /// Degree of the series (index of the last non-negligible coefficient).
    pub fn degree(&self) -> usize {
        self.coeffs.iter().rposition(|&c| c != 0.0).unwrap_or(0)
    }

    /// True when no coefficients are stored.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluate the series at `x` with the Clenshaw recurrence (numerically
    /// stable for high degrees, O(degree) work).
    pub fn eval(&self, x: f64) -> f64 {
        if self.coeffs.is_empty() {
            return 0.0;
        }
        let mut b1 = 0.0f64;
        let mut b2 = 0.0f64;
        for &c in self.coeffs.iter().rev() {
            let b0 = 2.0 * x * b1 - b2 + c;
            b2 = b1;
            b1 = b0;
        }
        // p(x) = b1 - x*b2 ... careful: standard Clenshaw for Chebyshev gives
        // p(x) = c0 + x*b1' - b2' when the loop excludes c0; with the loop
        // including c0 as above, p(x) = b1 - x * b2.
        b1 - x * b2
    }

    /// Parity of the series with tolerance `tol` on the "wrong-parity"
    /// coefficients.
    pub fn parity(&self, tol: f64) -> Parity {
        let max_even = self
            .coeffs
            .iter()
            .step_by(2)
            .fold(0.0f64, |m, c| m.max(c.abs()));
        let max_odd = self
            .coeffs
            .iter()
            .skip(1)
            .step_by(2)
            .fold(0.0f64, |m, c| m.max(c.abs()));
        match (max_even <= tol, max_odd <= tol) {
            (true, false) => Parity::Odd,
            (false, true) => Parity::Even,
            _ => Parity::None,
        }
    }

    /// Maximum absolute value of the series on a uniform grid of `samples`
    /// points over [-1, 1] (used to check the QSVT constraint |P(x)| ≤ 1).
    /// A NaN sample makes the maximum NaN, so a non-finite series never
    /// reads as bounded.
    pub fn max_abs_on_interval(&self, samples: usize) -> f64 {
        (0..samples)
            .map(|i| -1.0 + 2.0 * i as f64 / (samples - 1) as f64)
            .map(|x| self.eval(x).abs())
            .fold(0.0, |m: f64, v| if m.is_nan() || v <= m { m } else { v })
    }

    /// Multiply every coefficient by a scalar.
    pub fn scale(&mut self, s: f64) {
        for c in &mut self.coeffs {
            *c *= s;
        }
    }
}

/// Interpolate a function on [-1, 1] by a degree-(n-1) Chebyshev series using
/// the `n` Chebyshev nodes of the first kind (discrete orthogonality):
/// `c_k = (2 - δ_{k0})/n Σ_j f(x_j) T_k(x_j)`.
pub fn interpolate(f: impl Fn(f64) -> f64, n: usize) -> ChebyshevSeries {
    assert!(n >= 1, "interpolation needs at least one node");
    let nodes = chebyshev_nodes(n);
    let fvals: Vec<f64> = nodes.iter().map(|&x| f(x)).collect();
    let mut coeffs = vec![0.0f64; n];
    for (k, coeff) in coeffs.iter_mut().enumerate() {
        let mut s = 0.0;
        for (j, &fj) in fvals.iter().enumerate() {
            // T_k(x_j) = cos(k (2j+1) π / (2n)).
            let angle = k as f64 * (2 * j + 1) as f64 * std::f64::consts::PI / (2.0 * n as f64);
            s += fj * angle.cos();
        }
        *coeff = s * 2.0 / n as f64;
    }
    coeffs[0] *= 0.5;
    ChebyshevSeries::new(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chebyshev_t_known_values() {
        // T_0 = 1, T_1 = x, T_2 = 2x² − 1, T_3 = 4x³ − 3x.
        for &x in &[-1.0, -0.5, 0.0, 0.3, 0.9, 1.0] {
            assert!((chebyshev_t(0, x) - 1.0).abs() < 1e-12);
            assert!((chebyshev_t(1, x) - x).abs() < 1e-12);
            assert!((chebyshev_t(2, x) - (2.0 * x * x - 1.0)).abs() < 1e-12);
            assert!((chebyshev_t(3, x) - (4.0 * x * x * x - 3.0 * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn chebyshev_t_outside_interval() {
        // T_2(2) = 7, T_3(2) = 26, T_3(-2) = -26.
        assert!((chebyshev_t(2, 2.0) - 7.0).abs() < 1e-9);
        assert!((chebyshev_t(3, 2.0) - 26.0).abs() < 1e-9);
        assert!((chebyshev_t(3, -2.0) + 26.0).abs() < 1e-9);
    }

    #[test]
    fn chebyshev_bounded_by_one_inside() {
        for n in 0..50 {
            for i in 0..=100 {
                let x = -1.0 + 0.02 * i as f64;
                assert!(chebyshev_t(n, x).abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn nodes_are_in_interval_and_distinct() {
        let nodes = chebyshev_nodes(16);
        assert_eq!(nodes.len(), 16);
        for &x in &nodes {
            assert!(x > -1.0 && x < 1.0);
        }
        for w in nodes.windows(2) {
            assert!(w[0] > w[1], "nodes should be strictly decreasing");
        }
    }

    #[test]
    fn clenshaw_matches_direct_sum() {
        let series = ChebyshevSeries::new(vec![0.5, -0.25, 0.125, 0.0625, -0.03125]);
        for i in 0..=20 {
            let x = -1.0 + 0.1 * i as f64;
            let direct: f64 = series
                .coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * chebyshev_t(k, x))
                .sum();
            assert!((series.eval(x) - direct).abs() < 1e-13, "x = {x}");
        }
    }

    #[test]
    fn interpolation_recovers_polynomials_exactly() {
        // f(x) = 3x³ − x + 0.5 is degree 3; 6 nodes are more than enough.
        let f = |x: f64| 3.0 * x * x * x - x + 0.5;
        let series = interpolate(f, 6);
        for i in 0..=50 {
            let x = -1.0 + 0.04 * i as f64;
            assert!((series.eval(x) - f(x)).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn interpolation_converges_for_smooth_function() {
        let f = |x: f64| (3.0 * x).sin() * (-x * x).exp();
        let coarse = interpolate(f, 8);
        let fine = interpolate(f, 40);
        let grid: Vec<f64> = (0..200).map(|i| -1.0 + 0.01 * i as f64).collect();
        let err_coarse: f64 = grid
            .iter()
            .map(|&x| (coarse.eval(x) - f(x)).abs())
            .fold(0.0, f64::max);
        let err_fine: f64 = grid
            .iter()
            .map(|&x| (fine.eval(x) - f(x)).abs())
            .fold(0.0, f64::max);
        assert!(err_fine < 1e-12);
        assert!(err_coarse > err_fine);
    }

    #[test]
    fn parity_detection() {
        let odd = ChebyshevSeries::new(vec![0.0, 1.0, 0.0, -0.5]);
        let even = ChebyshevSeries::new(vec![0.3, 0.0, 0.7]);
        let mixed = ChebyshevSeries::new(vec![0.3, 0.4]);
        assert_eq!(odd.parity(1e-14), Parity::Odd);
        assert_eq!(even.parity(1e-14), Parity::Even);
        assert_eq!(mixed.parity(1e-14), Parity::None);
    }

    #[test]
    fn empty_series_is_the_zero_polynomial() {
        let z = ChebyshevSeries::new(vec![]);
        assert!(z.is_empty());
        assert_eq!(z.eval(0.3), 0.0);
    }

    #[test]
    fn max_abs_on_interval_detects_violation() {
        let bounded = ChebyshevSeries::new(vec![0.0, 0.5]);
        assert!(bounded.max_abs_on_interval(1001) <= 0.5 + 1e-12);
        let unbounded = ChebyshevSeries::new(vec![0.0, 2.0]);
        assert!(unbounded.max_abs_on_interval(1001) > 1.5);
        // A NaN or ∞ coefficient poisons the samples; the maximum keeps the
        // NaN instead of dropping it.
        for coeffs in [
            vec![0.0, f64::NAN, 0.0, 0.5],
            vec![0.0, 0.3, 0.0, f64::INFINITY],
        ] {
            let max = ChebyshevSeries::new(coeffs.clone()).max_abs_on_interval(1001);
            assert!(max.is_nan(), "{coeffs:?}: {max}");
        }
    }
}
