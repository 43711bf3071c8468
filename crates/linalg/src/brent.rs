//! Brent's derivative-free 1-D minimisation.
//!
//! Remark 2 of the paper: quantum linear-system algorithms return only the
//! *direction* η = x/‖x‖ of the solution, so the norm ‖x‖ must be recovered
//! classically by solving `argmin_μ ‖A(μ η) − b‖` (the paper writes the
//! equivalent shifted form).  The paper performs this de-normalisation with
//! Brent's method, whose worst-case complexity appears as the `O(log(1/ε))`
//! term of Table II.  The golden-section/parabolic-interpolation minimiser
//! is implemented here.

/// Result of a Brent search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrentResult {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Function value at `x`.
    pub fx: f64,
    /// Number of function evaluations used.
    pub evaluations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Minimise a unimodal function on `[a, b]` with Brent's method
/// (golden-section search with parabolic-interpolation acceleration).
///
/// `tol` is the absolute tolerance on the abscissa; the routine performs at
/// most `max_iter` iterations (each costing one function evaluation).
pub fn brent_minimize(
    f: impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> BrentResult {
    assert!(a < b, "brent_minimize: invalid bracket [{a}, {b}]");
    assert!(tol > 0.0, "brent_minimize: tolerance must be positive");
    let golden = 0.5 * (3.0 - 5.0_f64.sqrt());
    let (mut lo, mut hi) = (a, b);
    let mut x = lo + golden * (hi - lo);
    let mut w = x;
    let mut v = x;
    let mut fx = f(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    let mut evaluations = 1usize;

    for _ in 0..max_iter {
        let m = 0.5 * (lo + hi);
        let tol1 = tol * x.abs() + 1e-300;
        let tol2 = 2.0 * tol1;
        if (x - m).abs() <= tol2 - 0.5 * (hi - lo) {
            return BrentResult {
                x,
                fx,
                evaluations,
                converged: true,
            };
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Try a parabolic fit through (v, fv), (w, fw), (x, fx).
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let e_old = e;
            e = d;
            // Accept the parabolic step only if it falls inside the bracket and
            // improves on the previous-but-one step length.
            if p.abs() < (0.5 * q * e_old).abs() && p > q * (lo - x) && p < q * (hi - x) {
                d = p / q;
                let u = x + d;
                if (u - lo) < tol2 || (hi - u) < tol2 {
                    d = if m > x { tol1 } else { -tol1 };
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x < m { hi - x } else { lo - x };
            d = golden * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else if d > 0.0 {
            x + tol1
        } else {
            x - tol1
        };
        let fu = f(u);
        evaluations += 1;
        if fu <= fx {
            if u < x {
                hi = x;
            } else {
                lo = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                lo = u;
            } else {
                hi = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    BrentResult {
        x,
        fx,
        evaluations,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let r = brent_minimize(|x| (x - 1.7).powi(2) + 3.0, -10.0, 10.0, 1e-10, 200);
        assert!(r.converged);
        assert!((r.x - 1.7).abs() < 1e-7);
        assert!((r.fx - 3.0).abs() < 1e-12);
    }

    #[test]
    fn minimizes_nonsymmetric_unimodal_function() {
        // f(x) = e^x - 2x has its minimum at ln 2.
        let r = brent_minimize(|x| x.exp() - 2.0 * x, -5.0, 5.0, 1e-12, 200);
        assert!(r.converged);
        assert!((r.x - std::f64::consts::LN_2).abs() < 1e-7);
    }

    #[test]
    fn minimization_uses_few_evaluations() {
        let r = brent_minimize(|x| (x - 0.3).powi(2), 0.0, 1.0, 1e-8, 500);
        assert!(r.converged);
        // Brent should need on the order of tens of evaluations, never hundreds.
        assert!(r.evaluations < 60, "used {} evaluations", r.evaluations);
    }

    #[test]
    fn scale_recovery_model_problem() {
        // The Remark-2 use case: given eta = x/||x||, recover mu = ||x|| by
        // minimising ||mu * (A eta) - b||^2, a perfect quadratic in mu.
        let a_eta = [0.3, -0.2, 0.5];
        let mu_true = 7.25;
        let b: Vec<f64> = a_eta.iter().map(|v| v * mu_true).collect();
        let objective = |mu: f64| -> f64 {
            a_eta
                .iter()
                .zip(&b)
                .map(|(&ae, &bi)| (mu * ae - bi).powi(2))
                .sum()
        };
        let r = brent_minimize(objective, 0.0, 100.0, 1e-12, 300);
        assert!((r.x - mu_true).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn invalid_bracket_panics() {
        let _ = brent_minimize(|x| x, 1.0, -1.0, 1e-8, 10);
    }
}
