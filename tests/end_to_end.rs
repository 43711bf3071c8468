//! Cross-crate integration tests: the full pipeline from matrix generation to
//! the refined solution, exercising every crate of the workspace together.

use qls::prelude::*;

fn random_system(n: usize, kappa: f64, seed: u64) -> (Matrix<f64>, Vector<f64>) {
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

/// The two-sided bound of Eq. (5) of the paper:
/// `ω/κ ≤ ‖x − x̃‖/‖x‖ ≤ κ ω`, returned as `(lower, upper)`.
fn forward_error_bounds_from_residual(omega: f64, kappa: f64) -> (f64, f64) {
    (omega / kappa, kappa * omega)
}

/// Verify Eq. (5) for a computed solution `x` of `A x = b`, measured against
/// a reference solution `x_ref` instead of the unknown exact one.  Eq. (5)
/// applied to the reference bounds its own relative error by `κ·ω(x_ref)`,
/// and by the triangle inequality that term widens each side of the bound.
/// The relative slack of 1e-6 covers rounding in the norm computations.
fn check_eq5_bounds(
    a: &Matrix<f64>,
    x: &Vector<f64>,
    x_ref: &Vector<f64>,
    b: &Vector<f64>,
    kappa: f64,
) -> bool {
    let slack = 1e-6;
    let reference_error = kappa * scaled_residual(a, x_ref, b);
    let (lo, hi) = forward_error_bounds_from_residual(scaled_residual(a, x, b), kappa);
    let fwd = forward_error(x, x_ref);
    fwd >= (lo - reference_error) * (1.0 - slack) && fwd <= (hi + reference_error) * (1.0 + slack)
}

#[test]
fn fig3_setting_converges_within_the_theorem_bound_for_all_epsilon_l() {
    // kappa = 10, eps = 1e-11 — the paper's Fig. 3 configuration.
    let (a, b) = random_system(16, 10.0, 1);
    for &epsilon_l in &[1e-2, 1e-3, 1e-4] {
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-11,
                epsilon_l,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = experiment_rng(2);
        let (x, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(
            history.status,
            HybridStatus::Converged,
            "eps_l = {epsilon_l}"
        );
        assert!(history.final_residual() <= 1e-11);
        let bound = history.iteration_bound().expect("bound applies");
        assert!(
            history.iterations() <= bound,
            "eps_l = {epsilon_l}: {} iterations > bound {bound}",
            history.iterations()
        );
        // The forward error sits inside both sides of Eq. (5).
        let reference = classical_lu_solve(&a, &b).unwrap();
        assert!(
            check_eq5_bounds(&a, &x, &reference, &b, cond_2(&a)),
            "eps_l = {epsilon_l}"
        );
    }
}

#[test]
fn fig4_setting_larger_condition_numbers_still_converge() {
    for (i, &kappa) in [100.0, 200.0].iter().enumerate() {
        let (a, b) = random_system(16, kappa, 10 + i as u64);
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-10,
                epsilon_l: 0.25 / kappa,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = experiment_rng(3);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged, "kappa = {kappa}");
        assert!(history.iterations() <= history.iteration_bound().unwrap());
    }
}

#[test]
fn residual_contraction_matches_theorem_iii_1() {
    let (a, b) = random_system(16, 10.0, 20);
    let epsilon_l = 1e-2;
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-11,
            epsilon_l,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = experiment_rng(4);
    let (_, history) = refiner.solve(&b, &mut rng).unwrap();
    // Every recorded residual obeys omega_i <= (eps_l kappa)^{i+1} (with slack for
    // the measured-vs-worst-case gap running in the favourable direction).
    assert!(history.satisfies_theorem_bound(1.0 + 1e-9));

    // The same bound over a seeded grid: kappa x eps_l*kappa x matrix
    // ensemble x singular-value distribution, 135 systems at N = 16 in
    // emulation.  The solver approximates 1/x to eps' = eps_l, not the
    // worst-case eps_l/kappa, so this grid is where that choice is checked.
    let ensembles = [
        MatrixEnsemble::General,
        MatrixEnsemble::SymmetricPositiveDefinite,
        MatrixEnsemble::SymmetricIndefinite,
    ];
    let distributions = [
        SingularValueDistribution::Geometric,
        SingularValueDistribution::Arithmetic,
        SingularValueDistribution::OneLarge,
        SingularValueDistribution::OneSmall,
        SingularValueDistribution::Clustered,
    ];
    let mut seed = 1000;
    for kappa in [4.0, 16.0, 64.0] {
        for contraction in [0.05, 0.25, 0.5] {
            for ensemble in ensembles {
                for distribution in distributions {
                    seed += 1;
                    let mut rng = experiment_rng(seed);
                    let a = random_matrix_with_cond(16, kappa, distribution, ensemble, &mut rng);
                    let b = random_unit_vector(16, &mut rng);
                    let refiner = HybridRefiner::new(
                        &a,
                        HybridRefinementOptions {
                            target_epsilon: 1e-10,
                            epsilon_l: contraction / kappa,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    let (x, history) = refiner.solve(&b, &mut rng).unwrap();
                    let point = format!(
                        "seed {seed}: kappa {kappa}, eps_l*kappa {contraction}, \
                         {ensemble:?}, {distribution:?}"
                    );
                    assert_eq!(history.status, HybridStatus::Converged, "{point}");
                    let bound = history.iteration_bound().expect("bound applies");
                    assert!(history.iterations() <= bound, "{point}");
                    assert!(history.satisfies_theorem_bound(1.0 + 1e-9), "{point}");
                    let x_ref = classical_lu_solve(&a, &b).unwrap();
                    assert!(
                        check_eq5_bounds(&a, &x, &x_ref, &b, cond_2(&a)),
                        "Eq. (5) at {point}"
                    );
                }
            }
        }
    }
}

#[test]
fn eq5_bounds_hold_for_lu_solutions() {
    let mut rng = experiment_rng(41);
    for &kappa in &[10.0, 100.0] {
        let a = random_matrix_with_cond(
            16,
            kappa,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let x_true = Vector::from_f64_slice(&(0..16).map(|i| (i as f64).cos()).collect::<Vec<_>>());
        let b = a.matvec(&x_true);
        // Perturb the LU solution slightly to make the bound non-trivial.
        let mut x = classical_lu_solve(&a, &b).unwrap();
        x[0] += 1e-6;
        assert!(check_eq5_bounds(&a, &x, &x_true, &b, cond_2(&a)));
    }
}

#[test]
fn circuit_mode_and_emulation_mode_agree_end_to_end() {
    // Small kappa so the full phase-factor + circuit pipeline is tractable.
    let (a, b) = random_system(4, 2.0, 30);
    let mut results = Vec::new();
    for mode in [QsvtMode::Emulation, QsvtMode::CircuitReal] {
        let solver = QsvtLinearSolver::new(
            &a,
            0.05,
            QsvtSolverOptions {
                mode,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = experiment_rng(5);
        results.push(solver.solve(&b, &mut rng).unwrap());
    }
    let diff = forward_error(&results[0].solution, &results[1].solution);
    assert!(diff < 1e-5, "emulation vs circuit disagreement {diff}");
}

#[test]
fn sampled_readout_still_converges_to_a_coarser_target() {
    let (a, b) = random_system(16, 10.0, 40);
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-6,
            epsilon_l: 1e-3,
            max_iterations: 100,
            solver: QsvtSolverOptions {
                shots: Some(5_000_000),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = experiment_rng(6);
    let (_, history) = refiner.solve(&b, &mut rng).unwrap();
    // Shot noise limits the attainable accuracy but the refinement still makes
    // steady progress to the (coarser) target.
    assert_eq!(history.status, HybridStatus::Converged);
    assert!(history.final_residual() <= 1e-6);
}

#[test]
fn hybrid_solver_agrees_with_classical_mixed_precision_refinement() {
    let (a, b) = random_system(16, 50.0, 50);
    // Classical Algorithm 1 (f32 LU + f64 refinement).
    let classical = ClassicalRefiner::<f64, f32>::new(
        &a,
        RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        },
    )
    .unwrap();
    let (x_classical, _) = classical.solve(&b).unwrap();
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
    let mut rng = experiment_rng(7);
    let (x_hybrid, _) = refiner.solve(&b, &mut rng).unwrap();
    assert!(forward_error(&x_hybrid, &x_classical) < 1e-9);
}

#[test]
fn poisson_pipeline_through_every_block_encoding() {
    // The Poisson matrix is the Table-II use case; check that all three
    // simulable block-encodings agree on the encoded operator.
    let n_qubits = 3;
    let dense = poisson_1d::<f64>(1 << n_qubits, false).to_dense();
    let lcu = LcuBlockEncoding::new(&dense, 1e-13);
    let fable = FableBlockEncoding::new(&dense, 0.0);
    let dilation = DilationBlockEncoding::new(&dense, 0.0);
    assert!(lcu.encoding_error(&dense) < 1e-9);
    assert!(fable.encoding_error(&dense) < 1e-9);
    assert!(dilation.encoding_error(&dense) < 1e-9);
    let tridiag = TridiagBlockEncoding::new(n_qubits);
    assert!(tridiag.encoding_error(&dense) < 1e-9);
}

#[test]
fn cost_model_matches_measured_block_encoding_calls() {
    // The analytic degree model of Table I / Fig. 5 must equal the degree the
    // implementation actually uses.
    let (a, b) = random_system(16, 10.0, 60);
    let epsilon_l = 1e-3;
    let solver = QsvtLinearSolver::new(&a, epsilon_l, QsvtSolverOptions::default()).unwrap();
    let mut rng = experiment_rng(8);
    let result = solver.solve(&b, &mut rng).unwrap();
    let kappa = solver.kappa();
    let model = qsvt_degree_model(kappa, epsilon_l);
    assert_eq!(result.cost.block_encoding_calls, model as usize);
}

#[test]
fn quantum_cost_comparison_reproduces_table_1_ordering() {
    // For every setting with eps << eps_l < 1/kappa the refined solver must win.
    for &(kappa, eps, eps_l) in &[(2.0, 1e-10, 0.4), (10.0, 1e-11, 1e-2), (100.0, 1e-11, 1e-3)] {
        let cmp = quantum_cost_comparison(CostParameters {
            kappa,
            epsilon: eps,
            epsilon_l: eps_l,
            block_encoding_cost: 1.0,
        });
        assert!(
            cmp.speedup > 1.0,
            "kappa={kappa} eps={eps} eps_l={eps_l}: speedup {}",
            cmp.speedup
        );
    }
}
