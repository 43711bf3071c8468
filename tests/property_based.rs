//! Property-based integration tests (proptest) on the cross-crate invariants:
//! whatever random well-conditioned system is drawn, the solver stack must
//! preserve its defining properties.

use proptest::prelude::*;
use qls::prelude::*;

/// Build a system from proptest-chosen parameters.
fn build_system(n_exp: u32, kappa: f64, seed: u64) -> (Matrix<f64>, Vector<f64>) {
    let n = 1usize << n_exp;
    let mut rng = experiment_rng(seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_matrices_have_the_requested_condition_number(
        n_exp in 2u32..5,
        kappa in 2.0f64..500.0,
        seed in 0u64..1000,
    ) {
        let (a, _) = build_system(n_exp, kappa, seed);
        let measured = cond_2(&a);
        prop_assert!((measured - kappa).abs() / kappa < 1e-6);
    }

    #[test]
    fn single_qsvt_solve_error_scales_with_epsilon_l(
        kappa in 2.0f64..50.0,
        seed in 0u64..1000,
    ) {
        let (a, b) = build_system(3, kappa, seed);
        let epsilon_l = 1e-3;
        let solver = QsvtLinearSolver::new(&a, epsilon_l, QsvtSolverOptions::default()).unwrap();
        let mut rng = experiment_rng(seed);
        let result = solver.solve(&b, &mut rng).unwrap();
        // Scaled residual of a single eps_l-accurate solve is at most ~eps_l * kappa.
        prop_assert!(result.scaled_residual <= epsilon_l * kappa * 2.0);
    }

    #[test]
    fn refinement_never_increases_the_scaled_residual(
        kappa in 2.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let (a, b) = build_system(4, kappa, seed);
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-10,
                epsilon_l: 1e-3,
                ..Default::default()
            },
        ).unwrap();
        let mut rng = experiment_rng(seed + 1);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        for window in history.steps.windows(2) {
            prop_assert!(
                window[1].scaled_residual <= window[0].scaled_residual * (1.0 + 1e-9),
                "residual increased: {} -> {}",
                window[0].scaled_residual,
                window[1].scaled_residual
            );
        }
    }

    #[test]
    fn iteration_count_respects_the_theorem_bound(
        kappa in 2.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let (a, b) = build_system(4, kappa, seed);
        let epsilon = 1e-9;
        let epsilon_l = 1e-3;
        prop_assume!(epsilon_l * kappa < 0.5);
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: epsilon,
                epsilon_l,
                ..Default::default()
            },
        ).unwrap();
        let mut rng = experiment_rng(seed + 2);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        prop_assert_eq!(history.status, HybridStatus::Converged);
        let bound = history.iteration_bound().unwrap();
        prop_assert!(history.iterations() <= bound);
    }

    #[test]
    fn dilation_block_encoding_is_always_valid(
        kappa in 1.5f64..50.0,
        seed in 0u64..1000,
    ) {
        let (a, _) = build_system(2, kappa, seed);
        let be = DilationBlockEncoding::new(&a, 0.0);
        prop_assert!(be.encoding_error(&a) < 1e-9);
        prop_assert!(be.alpha() >= 1.0 - 1e-12);
    }

    #[test]
    fn inverse_polynomial_approximates_inverse_on_domain(
        kappa in 2.0f64..80.0,
        log_eps in 1.0f64..5.0,
    ) {
        let eps = 10f64.powf(-log_eps);
        let poly = InversePolynomial::new(kappa, eps);
        prop_assert!(poly.max_relative_error(200) < 10.0 * eps);
        // Odd parity always holds.
        for x in [0.3, 0.7, 0.95] {
            prop_assert!((poly.eval(-x) + poly.eval(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn scale_recovery_is_exact_for_consistent_directions(
        scale in 0.1f64..50.0,
        seed in 0u64..1000,
    ) {
        // If the quantum routine returned the exact direction, Brent recovery
        // must find the exact norm.
        let (a, _) = build_system(3, 10.0, seed);
        let mut rng = experiment_rng(seed + 3);
        let x_true = random_unit_vector(8, &mut rng).scaled(scale);
        let b = a.matvec(&x_true);
        let solver = QsvtLinearSolver::new(&a, 1e-6, QsvtSolverOptions::default()).unwrap();
        let result = solver.solve(&b, &mut rng).unwrap();
        prop_assert!((result.scale - scale).abs() / scale < 1e-3);
    }
}
