//! Fault injection + the recovery ladder, end to end.
//!
//! A seeded [`FaultPlan`] degrades the simulated device: Gaussian amplitude
//! noise on every run, a NaN-poisoned register on run 2, and finite-shot
//! readout.  The same plan is driven through the hybrid refiner twice —
//! once with recovery disabled (the run fails or stalls, reported in-band)
//! and once with the recovery ladder armed (the run converges and the
//! [`RecoveryLog`] shows exactly which rungs absorbed which faults).
//!
//! Run with `cargo run --release --example noisy_refinement`.

use qls::prelude::*;

fn main() {
    let mut rng = experiment_rng(77);
    let kappa = 10.0;
    let a = random_matrix_with_cond(
        16,
        kappa,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(16, &mut rng);

    // The degradation: mild persistent amplitude noise, one scheduled
    // NaN-poisoning transient, finite-shot readout.
    let plan = FaultPlan::new(7)
        .with_amplitude_noise(2e-4)
        .with_transient(2, TransientKind::NanPoison);
    let options = |recovery: bool| HybridRefinementOptions {
        target_epsilon: 1e-6,
        epsilon_l: 1e-2,
        max_iterations: 40,
        solver: QsvtSolverOptions {
            shots: Some(2_000_000),
            ..Default::default()
        },
        recovery,
    };

    println!("16x16 system, kappa = {kappa}, target eps = 1e-6, eps_l = 1e-2");
    println!("fault plan: sigma = 2e-4 amplitude noise, NaN poison on run 2,");
    println!("            2e6-shot readout\n");

    // Pass 1: recovery disabled.  The NaN-poisoned register is caught at
    // the readout boundary and the run fails in-band — no panic, no NaN in
    // the returned iterate.
    let mut plain = HybridRefiner::new(&a, options(false)).expect("setup");
    plain.attach_fault_injector(FaultInjector::shared(plan.clone()));
    let mut rng = experiment_rng(1);
    let (x, history) = plain.solve(&b, &mut rng).expect("in-band failure expected");
    println!(
        "recovery disabled: {:?} after {} steps (residual {:.3e})",
        history.status,
        history.steps.len(),
        history.final_residual()
    );
    assert!(
        !history.status.reached_target(),
        "the faulted run must not converge without recovery"
    );
    assert!(
        x.iter().all(|v| v.is_finite()),
        "NaN leaked into the iterate"
    );

    // Pass 2: the same plan, replayed from scratch on a fresh injector,
    // with the full ladder armed.
    let mut healed = HybridRefiner::new(&a, options(true)).expect("setup");
    healed.attach_fault_injector(FaultInjector::shared(plan));
    let mut rng = experiment_rng(1);
    let (x, history) = healed.solve(&b, &mut rng).expect("recovered solve");
    println!(
        "recovery enabled:  {:?} after {} steps (residual {:.3e})",
        history.status,
        history.steps.len(),
        history.final_residual()
    );
    println!("\nrecovery log:");
    for event in &history.recovery.events {
        println!(
            "  iteration {:>2}: {:?} -> {:?} (recovered: {})",
            event.iteration, event.issue, event.action, event.recovered
        );
    }
    assert!(
        history.status.reached_target(),
        "the ladder must absorb the plan: {:?}",
        history.status
    );
    assert!(
        !history.recovery.is_empty(),
        "the log must show the actions taken"
    );
    let residual = scaled_residual(&a, &x, &b);
    assert!(residual <= 1e-6, "final residual {residual}");
    println!("\nfinal scaled residual: {residual:.3e}");
}
