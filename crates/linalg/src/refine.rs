//! Classical mixed-precision iterative refinement (Algorithm 1 of the paper).
//!
//! This is the CPU-only counterpart of the paper's hybrid algorithm: the
//! expensive work (LU factorisation and the triangular solves) runs at a *low*
//! precision `L`, while the residual and the solution update are computed at
//! the *working* precision `H` (`u ≪ u_l` in the paper's notation).  The LU
//! factors computed for the first solve are reused for every correction solve,
//! exactly as described in Section II-B.
//!
//! The same driver also covers *fixed-precision* refinement (`L = H`), used
//! classically to stabilise a solver, and serves as the reference
//! implementation against which the quantum-assisted refiner of `qls-core`
//! is validated: both must exhibit the geometric residual contraction of
//! Theorem III.1 with the appropriate contraction factor.

use crate::error::residual;
use crate::inner::{FactorizableOperator, InnerSolver, InnerSolverKind};
use crate::lu::LinalgError;
use crate::matrix::Matrix;
use crate::scalar::Real;
use crate::vector::Vector;

/// Options controlling an iterative-refinement run.
#[derive(Debug, Clone, Copy)]
pub struct RefinementOptions {
    /// Target scaled residual ω = ‖b − A x̃‖/‖b‖ (the paper's ε).
    pub target_scaled_residual: f64,
    /// Hard cap on the number of refinement iterations.
    pub max_iterations: usize,
}

/// Stagnation detection: the loop stops once a step fails to shrink the
/// scaled residual by at least this factor.
const STAGNATION_FACTOR: f64 = 0.9;

impl Default for RefinementOptions {
    fn default() -> Self {
        RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 50,
        }
    }
}

/// Why the refinement loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementStatus {
    /// The target scaled residual was reached.
    Converged,
    /// The maximum number of iterations was reached first.
    MaxIterations,
    /// The scaled residual stopped improving (limiting accuracy reached).
    Stagnated,
    /// The residual grew — the low-precision solver is too inaccurate
    /// (ε_l·κ ≥ 1 in the language of Theorem III.1).
    Diverged,
}

/// Record of one refinement iteration.
#[derive(Debug, Clone, Copy)]
pub struct RefinementStep {
    /// Iteration index (0 = initial solve).
    pub iteration: usize,
    /// Scaled residual after this iteration.
    pub scaled_residual: f64,
}

/// Full convergence history of a refinement run.
#[derive(Debug, Clone)]
pub struct RefinementHistory {
    /// Per-iteration records, starting with the initial solve.
    pub steps: Vec<RefinementStep>,
    /// Termination reason.
    pub status: RefinementStatus,
}

impl RefinementHistory {
    /// Number of *refinement* iterations performed (excludes the initial solve).
    pub fn iterations(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// The final scaled residual.
    pub fn final_residual(&self) -> f64 {
        self.steps
            .last()
            .map(|s| s.scaled_residual)
            .unwrap_or(f64::NAN)
    }
}

/// Classical mixed-precision iterative refinement driver.
///
/// Type parameters: `H` is the working (high) precision used for the residual
/// and the update; `L` is the low precision used for the inner correction
/// solves; `Op` is the operator representation of `A` used on the
/// high-precision side (dense [`Matrix`] by default, so existing callers
/// compile unchanged — pass a [`crate::SparseMatrix`] to make every
/// residual cost O(nnz)).
///
/// The inner solver is selected by the operator itself through
/// [`FactorizableOperator::factorize`]: dense matrices keep dense LU,
/// tridiagonal CSR matrices get the O(N) Thomas factorisation (with dense-LU
/// rescue on pivot breakdown), and other CSR operators get Jacobi-CG or
/// BiCGSTAB above the small-N densify threshold — so **no
/// structured refinement path materialises an O(N²) matrix**.  The dense-LU
/// inner solver remains available at any size through
/// [`ClassicalRefiner::with_dense_lu`], the equivalence oracle the structured
/// histories are validated against.
pub struct ClassicalRefiner<H: Real, L: Real, Op: FactorizableOperator<H> = Matrix<H>> {
    a_high: Op,
    inner_low: Box<dyn InnerSolver<L>>,
    options: RefinementOptions,
    // `H` is only mentioned through the `Op: FactorizableOperator<H>` bound,
    // which does not count as a use for variance purposes.
    _high_precision: std::marker::PhantomData<H>,
}

impl<H: Real, L: Real, Op: FactorizableOperator<H> + std::fmt::Debug> std::fmt::Debug
    for ClassicalRefiner<H, L, Op>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassicalRefiner")
            .field("a_high", &self.a_high)
            .field("inner_low", &self.inner_low.kind())
            .field("options", &self.options)
            .finish()
    }
}

impl<H: Real, L: Real, Op: FactorizableOperator<H>> ClassicalRefiner<H, L, Op> {
    /// Prepare a refiner: stores `A` (as the operator `Op`) at precision `H`
    /// and builds the operator's structured inner solver once at precision
    /// `L` (see [`FactorizableOperator::factorize`] for the selection table).
    pub fn new(a: &Op, options: RefinementOptions) -> Result<Self, LinalgError> {
        let inner_low = a.factorize::<L>()?;
        Ok(ClassicalRefiner {
            a_high: a.clone(),
            inner_low,
            options,
            _high_precision: std::marker::PhantomData,
        })
    }

    /// Prepare a refiner that forces the **dense-LU** inner solver regardless
    /// of the operator's structure — the equivalence oracle (and the densify
    /// baseline the structured solvers are benchmarked against).
    pub fn with_dense_lu(a: &Op, options: RefinementOptions) -> Result<Self, LinalgError> {
        let inner_low = a.factorize_dense_lu::<L>()?;
        Ok(ClassicalRefiner {
            a_high: a.clone(),
            inner_low,
            options,
            _high_precision: std::marker::PhantomData,
        })
    }

    /// Which inner solver `factorize` selected for the correction solves.
    pub fn inner_kind(&self) -> InnerSolverKind {
        self.inner_low.kind()
    }

    /// Solve `A x = b` by low-precision LU + high-precision refinement,
    /// returning the solution at precision `H` and the convergence history.
    ///
    /// Each step applies the high-precision operator once: the residual
    /// `r = b − A x` of the new iterate gives the step's ω and is the
    /// right-hand side of the next correction solve.
    pub fn solve(&self, b: &Vector<H>) -> Result<(Vector<H>, RefinementHistory), LinalgError> {
        let n = self.a_high.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        // Initial solve at low precision.
        let b_low: Vector<L> = b.convert();
        let x_low = self.inner_low.solve(&b_low)?;
        let mut x: Vector<H> = x_low.convert();

        let mut steps = Vec::new();
        let (mut r, omega0) = residual(&self.a_high, &x, b);
        let omega0 = omega0.to_f64();
        steps.push(RefinementStep {
            iteration: 0,
            scaled_residual: omega0,
        });

        let mut status = RefinementStatus::MaxIterations;
        let mut prev_omega = omega0;
        if omega0 <= self.options.target_scaled_residual {
            status = RefinementStatus::Converged;
            return Ok((x, RefinementHistory { steps, status }));
        }
        // A non-finite ω (NaN or overflow in the iterate) never recovers.
        if !omega0.is_finite() {
            status = RefinementStatus::Diverged;
            return Ok((x, RefinementHistory { steps, status }));
        }

        for it in 1..=self.options.max_iterations {
            // Correction solve in low precision (reusing the factors) for
            // the high-precision residual of the current iterate.
            let r_low: Vector<L> = r.convert();
            let e_low = self.inner_low.solve(&r_low)?;
            let e: Vector<H> = e_low.convert();
            // Update in high precision.
            x += &e;

            let (r_next, omega) = residual(&self.a_high, &x, b);
            r = r_next;
            let omega = omega.to_f64();
            steps.push(RefinementStep {
                iteration: it,
                scaled_residual: omega,
            });

            if omega <= self.options.target_scaled_residual {
                status = RefinementStatus::Converged;
                break;
            }
            if !omega.is_finite() || omega > prev_omega * 2.0 {
                status = RefinementStatus::Diverged;
                break;
            }
            if omega > prev_omega * STAGNATION_FACTOR {
                status = RefinementStatus::Stagnated;
                break;
            }
            prev_omega = omega;
        }
        Ok((x, RefinementHistory { steps, status }))
    }
}

/// Theoretical iteration bound of Theorem III.1:
/// `⌈log(ε) / log(ε_l κ)⌉` iterations suffice to reach scaled residual ε when
/// each inner solve has relative accuracy ε_l and the matrix has condition
/// number κ (requires `ε_l κ < 1`).
pub fn iteration_bound(epsilon: f64, epsilon_l: f64, kappa: f64) -> Option<usize> {
    let contraction = epsilon_l * kappa;
    if contraction.is_nan() || contraction <= 0.0 || contraction >= 1.0 {
        return None;
    }
    if epsilon.is_nan() || epsilon <= 0.0 || epsilon >= 1.0 {
        return None;
    }
    // Guard against floating-point noise pushing an exact integer ratio (e.g.
    // log(1e-11)/log(1e-1) = 11) just above the next integer before ceil().
    let ratio = epsilon.ln() / contraction.ln();
    Some((ratio - 1e-9).ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution};
    use crate::precision::Emulated;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_system(n: usize, kappa: f64, seed: u64) -> (Matrix<f64>, Vector<f64>, Vector<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix_with_cond(
            n,
            kappa,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let x_true =
            Vector::from_f64_slice(&(0..n).map(|i| ((i + 1) as f64).sin()).collect::<Vec<_>>());
        let b = a.matvec(&x_true);
        (a, b, x_true)
    }

    #[test]
    fn f32_low_precision_reaches_f64_accuracy() {
        let (a, b, x_true) = test_system(32, 100.0, 51);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-14,
            max_iterations: 20,
        };
        let refiner = ClassicalRefiner::<f64, f32>::new(&a, opts).unwrap();
        let (x, hist) = refiner.solve(&b).unwrap();
        assert_eq!(hist.status, RefinementStatus::Converged);
        assert!(hist.final_residual() <= 1e-14);
        assert!(crate::error::forward_error(&x, &x_true) < 1e-12);
        // The first (single-precision-only) residual is far worse than the final one.
        assert!(hist.steps[0].scaled_residual > 1e-9);
    }

    #[test]
    fn half_precision_needs_more_iterations_than_single() {
        let (a, b, _x) = test_system(16, 10.0, 52);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        };
        let single = ClassicalRefiner::<f64, f32>::new(&a, opts).unwrap();
        let half = ClassicalRefiner::<f64, Emulated<10>>::new(&a, opts).unwrap();
        let (_, h_single) = single.solve(&b).unwrap();
        let (_, h_half) = half.solve(&b).unwrap();
        assert_eq!(h_single.status, RefinementStatus::Converged);
        assert_eq!(h_half.status, RefinementStatus::Converged);
        assert!(
            h_half.iterations() >= h_single.iterations(),
            "half {} vs single {}",
            h_half.iterations(),
            h_single.iterations()
        );
    }

    #[test]
    fn fixed_precision_refinement_is_a_single_step_noop_at_convergence() {
        let (a, b, _x) = test_system(16, 10.0, 53);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-14,
            max_iterations: 5,
        };
        let refiner = ClassicalRefiner::<f64, f64>::new(&a, opts).unwrap();
        let (_, hist) = refiner.solve(&b).unwrap();
        // Full-precision LU already gives ~1e-15, so at most one refinement step.
        assert!(hist.iterations() <= 1);
        assert_eq!(hist.status, RefinementStatus::Converged);
    }

    #[test]
    fn residual_contracts_geometrically() {
        let (a, b, _x) = test_system(24, 50.0, 54);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-15,
            max_iterations: 30,
        };
        let refiner = ClassicalRefiner::<f64, Emulated<14>>::new(&a, opts).unwrap();
        let (_, hist) = refiner.solve(&b).unwrap();
        let omegas: Vec<f64> = hist.steps.iter().map(|s| s.scaled_residual).collect();
        assert!(
            omegas.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-12)),
            "history: {:?}",
            hist.steps
        );
        // All contraction factors ω_{i+1}/ω_i before the limiting-accuracy
        // plateau are < 1/2.
        let factors: Vec<f64> = omegas.windows(2).map(|w| w[1] / w[0]).collect();
        assert!(factors
            .iter()
            .take(factors.len().saturating_sub(1))
            .all(|&f| f < 0.5));
    }

    #[test]
    fn iteration_count_respects_theorem_bound() {
        // For classical IR the inner-solve accuracy is eps_l ~ c * u_l * kappa; take
        // the measured first residual as a proxy for eps_l * kappa and check that the
        // bound with that contraction factor covers the measured iteration count.
        let (a, b, _x) = test_system(16, 30.0, 55);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 50,
        };
        let refiner = ClassicalRefiner::<f64, f32>::new(&a, opts).unwrap();
        let (_, hist) = refiner.solve(&b).unwrap();
        assert_eq!(hist.status, RefinementStatus::Converged);
        let contraction = hist.steps[0].scaled_residual; // ≈ eps_l * kappa
        let bound = iteration_bound(opts.target_scaled_residual, contraction, 1.0).unwrap();
        assert!(
            hist.iterations() <= bound,
            "iterations {} exceed bound {bound}",
            hist.iterations()
        );
    }

    #[test]
    fn too_low_precision_diverges_or_stagnates() {
        // 3 mantissa bits cannot factor a kappa=1000 matrix meaningfully.
        let (a, b, _x) = test_system(16, 1000.0, 56);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 10,
        };
        match ClassicalRefiner::<f64, Emulated<3>>::new(&a, opts) {
            Err(_) => {} // singular at 3 bits: acceptable
            Ok(refiner) => {
                let (_, hist) = refiner.solve(&b).unwrap();
                assert_ne!(hist.status, RefinementStatus::Converged);
            }
        }
    }

    #[test]
    fn sparse_operator_refiner_matches_dense_bit_for_bit() {
        // The CSR matvec accumulates in the same column order as the dense
        // kernel, so the whole refinement history is float-identical.
        let (a, b, _x) = test_system(24, 50.0, 58);
        let sparse = crate::sparse::SparseMatrix::from_dense(&a);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-13,
            max_iterations: 20,
        };
        let dense_refiner = ClassicalRefiner::<f64, f32>::new(&a, opts).unwrap();
        let sparse_refiner =
            ClassicalRefiner::<f64, f32, crate::sparse::SparseMatrix<f64>>::new(&sparse, opts)
                .unwrap();
        let (x_dense, h_dense) = dense_refiner.solve(&b).unwrap();
        let (x_sparse, h_sparse) = sparse_refiner.solve(&b).unwrap();
        assert_eq!(h_dense.status, h_sparse.status);
        assert_eq!(h_dense.steps.len(), h_sparse.steps.len());
        assert_eq!(x_dense.as_slice(), x_sparse.as_slice());
        for (d, s) in h_dense.steps.iter().zip(&h_sparse.steps) {
            assert_eq!(d.scaled_residual, s.scaled_residual);
        }
    }

    #[test]
    fn iteration_bound_formula() {
        // eps = 1e-11, eps_l*kappa = 1e-1 -> 11 iterations.
        assert_eq!(iteration_bound(1e-11, 1e-2, 10.0), Some(11));
        // Non-contracting case returns None.
        assert_eq!(iteration_bound(1e-11, 0.2, 10.0), None);
        assert_eq!(iteration_bound(1e-11, 0.0, 10.0), None);
    }

    #[test]
    fn non_finite_residual_stops_with_diverged() {
        let refiner =
            ClassicalRefiner::<f64, f32>::new(&Matrix::identity(3), RefinementOptions::default())
                .unwrap();
        // ω is NaN for both (not 0 for the all-NaN one, which would read
        // Converged), and a NaN ω must stop the loop, not run it to the cap.
        for b in [[f64::NAN; 3], [f64::NAN, 1.0, 1.0]] {
            let (_, history) = refiner.solve(&Vector::from_f64_slice(&b)).unwrap();
            assert_eq!(history.status, RefinementStatus::Diverged, "b = {b:?}");
            assert_eq!(history.iterations(), 0);
            assert!(history.final_residual().is_nan());
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (a, _b, _x) = test_system(8, 10.0, 57);
        let refiner = ClassicalRefiner::<f64, f32>::new(&a, RefinementOptions::default()).unwrap();
        let bad = Vector::<f64>::zeros(9);
        assert!(refiner.solve(&bad).is_err());
    }
}
