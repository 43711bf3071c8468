//! Acceptance suite of the robustness layer: seeded fault plans driven
//! through the whole facade stack (`FaultPlan` → `FaultInjector` →
//! `HybridRefiner`), asserting the three contracts of the PR:
//!
//! 1. with recovery **enabled**, a faulted solve converges and the actions
//!    taken are visible in the `RecoveryLog`;
//! 2. the **same plan** with recovery disabled fails (in-band
//!    `HybridStatus::Failed` / `Stagnated`, never a panic);
//! 3. with **no faults**, the recovery-capable refiner is bit-identical to
//!    the plain path (the equivalence oracle).

use qls::prelude::*;
use qls::sim::fault::SharedFaultInjector;

fn system(kappa: f64, n: usize, seed: u64) -> (Matrix<f64>, Vector<f64>) {
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

fn refiner_with(a: &Matrix<f64>, recovery: bool, plan: Option<FaultPlan>) -> HybridRefiner {
    let mut refiner = HybridRefiner::new(
        a,
        HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-2,
            recovery,
            ..Default::default()
        },
    )
    .unwrap();
    if let Some(plan) = plan {
        let injector: SharedFaultInjector = FaultInjector::shared(plan);
        refiner.attach_fault_injector(injector);
    }
    refiner
}

#[test]
fn scheduled_transient_is_absorbed_by_a_retry() {
    // Run 0 is the initial solve; run 1 is the first correction solve.  The
    // transient kills exactly that run; the retry rung re-runs it cleanly.
    let (a, b) = system(10.0, 16, 301);
    let plan = FaultPlan::new(11).with_transient(1, TransientKind::InjectedError);

    let enabled = refiner_with(&a, true, Some(plan.clone()));
    let mut rng = experiment_rng(5);
    let (x, history) = enabled.solve(&b, &mut rng).unwrap();
    assert_eq!(history.status, HybridStatus::RecoveredConverged);
    assert!(history.final_residual() <= 1e-10);
    assert!(scaled_residual(&a, &x, &b) <= 1e-10);
    assert_eq!(history.recovery.len(), 1, "{:?}", history.recovery);
    let event = history.recovery.events[0];
    assert_eq!(event.iteration, 1);
    assert_eq!(event.action, RecoveryAction::Retry);
    assert!(event.recovered);

    // The same plan with recovery disabled: an in-band failure, with the
    // partial history (the healthy initial solve) preserved.
    let disabled = refiner_with(&a, false, Some(plan));
    let mut rng = experiment_rng(5);
    let (_, history) = disabled.solve(&b, &mut rng).unwrap();
    assert_eq!(
        history.status,
        HybridStatus::Failed {
            reason: FailureReason::InjectedFault
        }
    );
    assert_eq!(history.steps.len(), 1);
    assert!(history.recovery.is_empty());
}

#[test]
fn nan_poisoned_register_is_caught_at_the_boundary_and_recovered() {
    let (a, b) = system(10.0, 16, 302);
    let plan = FaultPlan::new(13).with_transient(0, TransientKind::NanPoison);

    // Disabled: the NaN never escapes into the iterate — it is caught at
    // the readout boundary and reported in-band.
    let disabled = refiner_with(&a, false, Some(plan.clone()));
    let mut rng = experiment_rng(6);
    let (x, history) = disabled.solve(&b, &mut rng).unwrap();
    assert_eq!(
        history.status,
        HybridStatus::Failed {
            reason: FailureReason::NonFiniteReadout
        }
    );
    assert!(
        x.iter().all(|v| v.is_finite()),
        "NaN leaked into the iterate"
    );

    // Enabled: the poisoned initial solve is retried and the run converges.
    let enabled = refiner_with(&a, true, Some(plan));
    let mut rng = experiment_rng(6);
    let (_, history) = enabled.solve(&b, &mut rng).unwrap();
    assert_eq!(history.status, HybridStatus::RecoveredConverged);
    assert_eq!(history.recovery.events[0].iteration, 0);
    assert!(history.recovery.events[0].recovered);
}

#[test]
fn heavy_amplitude_noise_degrades_to_the_classical_fallback() {
    // Noise so strong the quantum solves never contract (effective
    // ε_l·κ ≥ 1).  The full ladder walks retry → tighten (noise still
    // dominates) → classical fallback, which solves the correction exactly:
    // the run converges but is honestly labelled Degraded.
    let (a, b) = system(10.0, 16, 303);
    let plan = FaultPlan::new(17).with_amplitude_noise(0.1);

    let enabled = refiner_with(&a, true, Some(plan.clone()));
    let mut rng = experiment_rng(7);
    let (x, history) = enabled.solve(&b, &mut rng).unwrap();
    assert_eq!(history.status, HybridStatus::Degraded);
    assert!(history.final_residual() <= 1e-10);
    assert!(scaled_residual(&a, &x, &b) <= 1e-10);
    assert!(history.recovery.used_classical_fallback());
    // The ladder was walked in its documented order before falling back.
    let actions: Vec<_> = history.recovery.events.iter().map(|e| e.action).collect();
    assert!(actions.contains(&RecoveryAction::Retry));
    assert!(actions.contains(&RecoveryAction::ClassicalFallback));

    // The same plan without recovery: the loop makes no progress and stops
    // in-band (stagnation window or iteration cap), never reaching target.
    let disabled = refiner_with(&a, false, Some(plan));
    let mut rng = experiment_rng(7);
    let (_, history) = disabled.solve(&b, &mut rng).unwrap();
    assert!(
        !history.status.reached_target(),
        "noisy run claimed convergence: {:?}",
        history.status
    );
    assert!(history.final_residual() > 1e-10);
}

#[test]
fn no_fault_configuration_is_bit_identical_to_the_plain_path() {
    // The equivalence oracle at the facade level: recovery armed AND an
    // injector attached — but with an empty plan — must reproduce the plain
    // refiner float for float, with an empty recovery log.
    let (a, b) = system(10.0, 16, 304);
    let plain = refiner_with(&a, false, None);
    let armed = refiner_with(&a, true, Some(FaultPlan::new(23)));

    let mut rng_plain = experiment_rng(8);
    let mut rng_armed = experiment_rng(8);
    let (x_plain, h_plain) = plain.solve(&b, &mut rng_plain).unwrap();
    let (x_armed, h_armed) = armed.solve(&b, &mut rng_armed).unwrap();

    assert_eq!((&x_plain - &x_armed).norm2(), 0.0);
    assert_eq!(h_plain.status, HybridStatus::Converged);
    assert_eq!(h_armed.status, HybridStatus::Converged);
    assert_eq!(h_plain.steps.len(), h_armed.steps.len());
    for (p, a_) in h_plain.steps.iter().zip(&h_armed.steps) {
        assert_eq!(p.scaled_residual, a_.scaled_residual);
    }
    assert!(h_armed.recovery.is_empty());
}

#[test]
fn solve_many_quarantines_the_faulted_system() {
    // With an injector attached the systems run one after another, each
    // whole, so the second system's initial solve is the device run right
    // after every run of the first system: its step count in a fault-free
    // solve.  One transient there; without recovery that system fails
    // in-band, and its siblings refine to convergence untouched.
    let (a, _) = system(10.0, 16, 305);
    let mut rng = experiment_rng(9);
    let bs: Vec<Vector<f64>> = (0..3).map(|_| random_unit_vector(16, &mut rng)).collect();
    let (_, clean) = refiner_with(&a, false, None)
        .solve(&bs[0], &mut experiment_rng(9))
        .unwrap();
    let plan = FaultPlan::new(29).with_transient(clean.steps.len(), TransientKind::InjectedError);

    let disabled = refiner_with(&a, false, Some(plan.clone()));
    let results = disabled.solve_many(&bs, &mut rng).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[1].1.status,
        HybridStatus::Failed {
            reason: FailureReason::InjectedFault
        }
    );
    for k in [0usize, 2] {
        assert_eq!(results[k].1.status, HybridStatus::Converged, "system {k}");
        assert!(results[k].1.final_residual() <= 1e-10);
    }

    // With recovery the quarantined system is retried and the whole batch
    // converges.
    let enabled = refiner_with(&a, true, Some(plan));
    let mut rng = experiment_rng(9);
    let bs: Vec<Vector<f64>> = {
        let _ = &mut rng; // same RHS set as above
        let mut r = experiment_rng(9);
        (0..3).map(|_| random_unit_vector(16, &mut r)).collect()
    };
    let results = enabled.solve_many(&bs, &mut rng).unwrap();
    for (k, (_, history)) in results.iter().enumerate() {
        assert!(
            history.status.reached_target(),
            "system {k}: {:?}",
            history.status
        );
    }
    assert!(!results[1].1.recovery.is_empty());
}

#[test]
fn readout_corruption_composes_with_finite_shot_sampling() {
    // Sign flips only exist on the sampled-readout path; with a generous
    // shot budget and the full ladder the run still reaches a coarse
    // target, and the log shows the ladder absorbing the corruption.
    let (a, b) = system(5.0, 8, 306);
    let plan = FaultPlan::new(31).with_readout_sign_flips(0.25);
    let mut refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-5,
            epsilon_l: 1e-2,
            max_iterations: 100,
            solver: QsvtSolverOptions {
                shots: Some(2_000_000),
                ..Default::default()
            },
            recovery: true,
        },
    )
    .unwrap();
    refiner.attach_fault_injector(FaultInjector::shared(plan));
    let mut rng = experiment_rng(10);
    let (x, history) = refiner.solve(&b, &mut rng).unwrap();
    assert!(
        history.status.reached_target(),
        "status {:?}, residual {}",
        history.status,
        history.final_residual()
    );
    assert!(scaled_residual(&a, &x, &b) <= 1e-5);
}

#[test]
fn circuit_mode_transient_is_absorbed_by_a_retry() {
    // The same contract on the gate-level path, where the injector degrades
    // the simulated register itself: run 1 (the first correction solve)
    // fails, and one retry re-runs it cleanly.
    let (a, b) = system(2.0, 4, 307);
    let mut refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-8,
            epsilon_l: 0.05,
            solver: QsvtSolverOptions {
                mode: QsvtMode::CircuitReal,
                cache: CachePolicy::Disabled,
                ..Default::default()
            },
            recovery: true,
            ..Default::default()
        },
    )
    .unwrap();
    refiner.attach_fault_injector(FaultInjector::shared(
        FaultPlan::new(37).with_transient(1, TransientKind::InjectedError),
    ));
    let mut rng = experiment_rng(11);
    let (x, history) = refiner.solve(&b, &mut rng).unwrap();
    assert_eq!(history.status, HybridStatus::RecoveredConverged);
    assert!(scaled_residual(&a, &x, &b) <= 1e-8);
    assert_eq!(history.recovery.len(), 1, "{:?}", history.recovery);
    let event = history.recovery.events[0];
    assert_eq!(event.iteration, 1);
    assert_eq!(event.action, RecoveryAction::Retry);
    assert!(event.recovered);
}
