//! Baseline solvers the hybrid algorithm is compared against.
//!
//! * The left column of Table I, a *single* QSVT solve pushed all the way to
//!   the target accuracy ε (no refinement), is a
//!   [`QsvtLinearSolver`](crate::QsvtLinearSolver) built at ε.  This is the
//!   strategy whose cost the paper extrapolates for Fig. 5; in emulation
//!   mode it runs for moderate κ/ε, so the comparison is measured rather
//!   than extrapolated where feasible.
//! * [`classical_lu_solve`] — the classical reference solution (LAPACK-style
//!   LU with partial pivoting), used to validate every other solver.
//! * Classical mixed-precision iterative refinement (Algorithm 1) lives in
//!   [`qls_linalg::refine`] and is re-exported here for convenience.

use qls_linalg::lu::{lu_solve, LinalgError};
pub use qls_linalg::{ClassicalRefiner, RefinementOptions};
use qls_linalg::{Matrix, Vector};

/// Solve with the classical LU reference solver.
pub fn classical_lu_solve(a: &Matrix<f64>, b: &Vector<f64>) -> Result<Vector<f64>, LinalgError> {
    lu_solve(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{HybridRefinementOptions, HybridRefiner};
    use crate::solver::{QsvtLinearSolver, QsvtSolverOptions};
    use qls_linalg::generate::{
        random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
    };
    use qls_linalg::scaled_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system(kappa: f64, n: usize, seed: u64) -> (Matrix<f64>, Vector<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix_with_cond(
            n,
            kappa,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let b = random_unit_vector(n, &mut rng);
        (a, b)
    }

    #[test]
    fn direct_qsvt_reaches_target_accuracy() {
        let (a, b) = system(5.0, 8, 161);
        let direct = QsvtLinearSolver::new(&a, 1e-8, QsvtSolverOptions::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let result = direct.solve(&b, &mut rng).unwrap();
        assert!(scaled_residual(&a, &result.solution, &b) < 1e-7);
        let reference = classical_lu_solve(&a, &b).unwrap();
        assert!((&result.solution - &reference).norm2() / reference.norm2() < 1e-6);
    }

    #[test]
    fn refinement_uses_fewer_block_encoding_calls_than_direct_high_precision() {
        // The Fig. 5 claim, measured: for eps << eps_l the refined solver needs
        // fewer block-encoding calls in total (per sample) than one solve at eps
        // — and vastly fewer once the O(1/eps^2) sample counts are factored in.
        let (a, b) = system(2.0, 8, 162);
        let epsilon = 1e-9;
        let epsilon_l = 0.4;

        let direct = QsvtLinearSolver::new(&a, epsilon, QsvtSolverOptions::default()).unwrap();
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: epsilon,
                epsilon_l,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, crate::refine::HybridStatus::Converged);

        let direct_calls = direct.quantum_resources().block_encoding_calls as f64;
        let refined_calls = history.total_block_encoding_calls() as f64;
        // Per-circuit-run call counts are already in the same ballpark or better…
        assert!(
            refined_calls < direct_calls * history.steps.len() as f64,
            "refined {refined_calls} vs direct {direct_calls}"
        );
        // …and after weighting by the number of samples each run must be
        // repeated (1/eps² vs 1/eps_l²), refinement wins by orders of magnitude.
        let direct_total = direct_calls / (epsilon * epsilon);
        let refined_total = refined_calls / (epsilon_l * epsilon_l);
        assert!(
            refined_total < direct_total / 1e3,
            "refined total {refined_total} vs direct total {direct_total}"
        );
    }

    #[test]
    fn classical_refiner_and_hybrid_refiner_agree_on_the_solution() {
        let (a, b) = system(50.0, 16, 163);
        // Classical Algorithm 1 (f32 inner solver).
        let classical = ClassicalRefiner::<f64, f32>::new(
            &a,
            RefinementOptions {
                target_scaled_residual: 1e-12,
                max_iterations: 30,
            },
        )
        .unwrap();
        let (x_classical, h_classical) = classical.solve(&b).unwrap();
        // Hybrid Algorithm 2.
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-12,
                epsilon_l: 1e-3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let (x_hybrid, h_hybrid) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(h_classical.status, qls_linalg::RefinementStatus::Converged);
        assert_eq!(h_hybrid.status, crate::refine::HybridStatus::Converged);
        assert!((&x_classical - &x_hybrid).norm2() / x_classical.norm2() < 1e-9);
    }
}
