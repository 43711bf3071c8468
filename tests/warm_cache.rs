//! Cold-vs-warm equivalence of the persistent artifact cache (`qls_cache`):
//! a warm construction must perform zero phase-factor generations and zero
//! fusion passes, and everything downstream — phase angles (via the raw QSVT
//! circuit), solve directions, refinement histories — must be bit-identical
//! to the cold build, with the cache enabled or disabled.
//!
//! Every test runs against its own temp directory through `with_cache_dir`
//! (a thread-local override), so parallel tests never share cache state and
//! the user's real `~/.cache/qls` is never touched.

use qls::prelude::*;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qls-warm-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_system(n: usize, kappa: f64, seed: u64) -> (Matrix<f64>, Vector<f64>) {
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

fn bits(v: &Vector<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn qsvt_inverter_warm_replay_is_bit_identical_and_regenerates_nothing() {
    let dir = test_dir("inverter");
    let (a, b) = test_system(8, 8.0, 1);
    with_cache_dir(&dir, || {
        let (p0, f0) = (phase_generation_count(), fusion_pass_count());
        let cold = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        assert_eq!(
            phase_generation_count(),
            p0 + 1,
            "cold build generates phases once"
        );
        assert_eq!(fusion_pass_count(), f0 + 1, "cold build fuses once");

        let (p1, f1) = (phase_generation_count(), fusion_pass_count());
        let (h1, m1) = (cache_hit_count(), cache_miss_count());
        let warm = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        assert_eq!(
            phase_generation_count(),
            p1,
            "warm build must not regenerate phase factors"
        );
        assert_eq!(
            fusion_pass_count(),
            f1,
            "warm build must not rerun the fusion pass"
        );
        assert_eq!(cache_hit_count(), h1 + 2, "phases + fused circuit hits");
        assert_eq!(cache_miss_count(), m1, "warm build must not miss");

        // The raw QSVT circuits agree exactly — the projector-rotation
        // angles inside are the phase factors, so this is the bit-identity
        // of the cached phases.
        assert_eq!(
            cold.qsvt_circuit().unwrap().circuit(),
            warm.qsvt_circuit().unwrap().circuit(),
            "replayed phases must reproduce the identical circuit"
        );
        assert_eq!(cold.circuit_stats(), warm.circuit_stats());
        let (x_cold, s_cold) = cold.solve_direction(&b).unwrap();
        let (x_warm, s_warm) = warm.solve_direction(&b).unwrap();
        assert_eq!(bits(&x_cold), bits(&x_warm));
        assert_eq!(s_cold.to_bits(), s_warm.to_bits());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solver_and_refiner_warm_builds_regenerate_nothing() {
    let dir = test_dir("layers");
    let (a, b) = test_system(8, 4.0, 2);
    let solver_options = QsvtSolverOptions {
        mode: QsvtMode::CircuitReal,
        ..Default::default()
    };
    let refiner_options = HybridRefinementOptions {
        target_epsilon: 1e-8,
        epsilon_l: 0.05,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
        ..Default::default()
    };
    with_cache_dir(&dir, || {
        // One cold construction per layer populates the store…
        let _ = QsvtLinearSolver::new(&a, 0.05, solver_options).unwrap();
        let _ = HybridRefiner::new(&a, refiner_options).unwrap();
        // …then every layer's second construction is pure replay.
        let (p, f) = (phase_generation_count(), fusion_pass_count());
        let solver = QsvtLinearSolver::new(&a, 0.05, solver_options).unwrap();
        let refiner = HybridRefiner::new(&a, refiner_options).unwrap();
        assert_eq!(
            phase_generation_count(),
            p,
            "warm solver/refiner must not regenerate phase factors"
        );
        assert_eq!(
            fusion_pass_count(),
            f,
            "warm solver/refiner must not rerun the fusion pass"
        );
        // The replayed engines still solve.
        let mut rng = experiment_rng(3);
        let result = solver.solve(&b, &mut rng).unwrap();
        assert!(result.scaled_residual.is_finite());
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refinement_histories_are_bit_identical_cold_vs_warm() {
    let dir = test_dir("history");
    let (a, b) = test_system(8, 8.0, 4);
    let options = HybridRefinementOptions {
        target_epsilon: 1e-10,
        epsilon_l: 0.05,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
        ..Default::default()
    };
    with_cache_dir(&dir, || {
        let cold = HybridRefiner::new(&a, options).unwrap();
        let (x_cold, h_cold) = cold.solve(&b, &mut experiment_rng(5)).unwrap();
        let warm = HybridRefiner::new(&a, options).unwrap();
        let (x_warm, h_warm) = warm.solve(&b, &mut experiment_rng(5)).unwrap();
        assert_eq!(bits(&x_cold), bits(&x_warm));
        assert_eq!(h_cold.status, h_warm.status);
        assert_eq!(h_cold.steps.len(), h_warm.steps.len());
        for (s_cold, s_warm) in h_cold.steps.iter().zip(&h_warm.steps) {
            assert_eq!(
                s_cold.scaled_residual.to_bits(),
                s_warm.scaled_residual.to_bits(),
                "iteration {}",
                s_cold.iteration
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_enabled_cold_path_matches_cache_disabled_bit_identically() {
    let dir = test_dir("disabled");
    let (a, b) = test_system(8, 8.0, 6);
    let enabled_options = QsvtSolverOptions {
        mode: QsvtMode::CircuitReal,
        ..Default::default()
    };
    let disabled_options = QsvtSolverOptions {
        cache: CachePolicy::Disabled,
        ..enabled_options
    };
    with_cache_dir(&dir, || {
        let (h0, m0) = (cache_hit_count(), cache_miss_count());
        let off = QsvtLinearSolver::new(&a, 0.05, disabled_options).unwrap();
        assert_eq!(
            (cache_hit_count(), cache_miss_count()),
            (h0, m0),
            "CachePolicy::Disabled must never touch the store"
        );
        let on = QsvtLinearSolver::new(&a, 0.05, enabled_options).unwrap(); // cold: misses + stores
        let off_result = off.solve(&b, &mut experiment_rng(7)).unwrap();
        let on_result = on.solve(&b, &mut experiment_rng(7)).unwrap();
        assert_eq!(bits(&off_result.solution), bits(&on_result.solution));
        assert_eq!(
            off_result.scaled_residual.to_bits(),
            on_result.scaled_residual.to_bits()
        );
        // And the warm replay of the enabled path stays on those same bits.
        let warm = QsvtLinearSolver::new(&a, 0.05, enabled_options).unwrap();
        let warm_result = warm.solve(&b, &mut experiment_rng(7)).unwrap();
        assert_eq!(bits(&off_result.solution), bits(&warm_result.solution));
    });
    let _ = std::fs::remove_dir_all(&dir);
}
