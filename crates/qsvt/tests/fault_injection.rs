//! Determinism and equivalence-oracle tests for the fault-injection layer
//! ([`qls_sim::fault`]) at its one injection point, a circuit-mode
//! [`QsvtInverter`]:
//!
//! * an empty plan gives the same bits as no injector — the house oracle
//!   pattern;
//! * a seeded [`FaultPlan`] replays the *exact* same degradation on every
//!   fresh injector built from it;
//! * a batch consumes the fault stream exactly like a sequential loop of
//!   single solves;
//! * a scheduled transient fails only the slot run at its index.

use qls_cache::CachePolicy;
use qls_linalg::generate::{
    random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
};
use qls_linalg::Vector;
use qls_qsvt::{QsvtError, QsvtInverter, QsvtMode};
use qls_sim::fault::lock_injector;
use qls_sim::{ExecMode, FaultInjector, FaultPlan, OptLevel, TransientKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A circuit-mode inverter (κ = 2, N = 4, ε_l = 0.05) and `count`
/// right-hand sides.
fn setup(count: usize) -> (QsvtInverter, Vec<Vector<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(171);
    let a = random_matrix_with_cond(
        4,
        2.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let inverter = QsvtInverter::with_config(
        &a,
        0.05,
        QsvtMode::CircuitReal,
        OptLevel::Fuse,
        ExecMode::Flat,
        CachePolicy::Disabled,
    )
    .unwrap();
    let bs = (0..count)
        .map(|_| random_unit_vector(4, &mut rng))
        .collect();
    (inverter, bs)
}

#[test]
fn empty_plan_gives_the_same_bits_as_no_injector() {
    let (mut inverter, bs) = setup(4);
    let ideal = inverter.solve_direction_batch(&bs).unwrap();
    let injector = FaultInjector::shared(FaultPlan::new(7));
    inverter.attach_fault_injector(injector.clone());
    let degraded = inverter.solve_direction_batch(&bs).unwrap();
    for ((dir_i, succ_i), (dir_d, succ_d)) in ideal.iter().zip(&degraded) {
        assert_eq!(dir_i.as_slice(), dir_d.as_slice());
        assert_eq!(succ_i, succ_d);
    }
    assert_eq!(lock_injector(&injector).runs(), bs.len());
}

#[test]
fn seeded_plans_replay_identically_across_fresh_injectors() {
    let plan = FaultPlan::new(99)
        .with_amplitude_noise(1e-3)
        .with_readout_sign_flips(0.2);

    let run_all = || {
        let (mut inverter, bs) = setup(4);
        let injector = FaultInjector::shared(plan.clone());
        inverter.attach_fault_injector(injector.clone());
        let directions = inverter.solve_direction_batch(&bs).unwrap();
        // Readout corruption draws from the same stream, after the runs.
        let mut readout = vec![0.25f64; 8];
        lock_injector(&injector).corrupt_readout(&mut readout);
        (directions, readout)
    };

    let (dirs_a, readout_a) = run_all();
    let (dirs_b, readout_b) = run_all();
    assert_eq!(dirs_a, dirs_b, "amplitude noise must replay exactly");
    assert_eq!(
        readout_a, readout_b,
        "readout corruption must replay exactly"
    );
    // And the noise actually did something relative to the ideal run.
    let (inverter, bs) = setup(4);
    let (ideal, _) = inverter.solve_direction(&bs[0]).unwrap();
    assert_ne!(ideal, dirs_a[0].0);
}

#[test]
fn batch_consumes_the_fault_stream_like_sequential_solves() {
    let plan = FaultPlan::new(41).with_amplitude_noise(5e-4);

    let (mut seq_inverter, bs) = setup(4);
    seq_inverter.attach_fault_injector(FaultInjector::shared(plan.clone()));
    let sequential: Vec<_> = bs
        .iter()
        .map(|b| seq_inverter.solve_direction(b).unwrap())
        .collect();

    let (mut batch_inverter, _) = setup(4);
    batch_inverter.attach_fault_injector(FaultInjector::shared(plan));
    let batched = batch_inverter.solve_direction_batch(&bs).unwrap();

    assert_eq!(sequential, batched);
}

#[test]
fn transient_fails_only_its_scheduled_slot() {
    let (mut inverter, bs) = setup(5);
    let ideal = inverter.solve_direction_batch(&bs).unwrap();
    let plan = FaultPlan::new(3).with_transient(2, TransientKind::InjectedError);
    inverter.attach_fault_injector(FaultInjector::shared(plan));
    let verdicts = inverter.solve_direction_batch_checked(&bs);
    for (i, verdict) in verdicts.iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(verdict, Err(QsvtError::InjectedFault { run_index: 2 })),
                "slot {i}: {verdict:?}"
            );
        } else {
            // No amplitude noise in this plan: the other slots stay ideal.
            assert_eq!(verdict.as_ref().unwrap(), &ideal[i], "slot {i}");
        }
    }
}
