//! One solver instance shared across threads.  The solver stack holds only
//! compiled, read-only state after construction, so its types must be
//! `Send + Sync`, and solves on concurrent threads against one shared
//! refiner must reproduce a single-thread solve bit for bit — each thread
//! brings its own identically seeded RNG, and nothing else is per-call.
//! `solve_many` shares the refiner across its own workers the same way, and
//! its results do not depend on how many there are.

use qls::prelude::*;
use rand::RngCore;
use std::sync::Barrier;

const THREADS: usize = 4;
const RNG_SEED: u64 = 29;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn solver_stack_types_are_send_and_sync() {
    // Compile-time checks: this test fails to build, not to run, if any of
    // these types stops being shareable across threads.
    assert_send_sync::<HybridRefiner>();
    assert_send_sync::<QsvtLinearSolver>();
    assert_send_sync::<QsvtInverter>();
    assert_send_sync::<QuantumExecutor>();
}

/// `x` and the Debug rendering of the history.  Debug prints every `f64` in
/// its shortest round-trip form, so equal strings mean equal bits.
fn fingerprint(x: &Vector<f64>, history: &HybridHistory) -> (Vec<u64>, String) {
    (
        x.as_slice().iter().map(|v| v.to_bits()).collect(),
        format!("{history:?}"),
    )
}

#[test]
fn threads_sharing_one_circuit_mode_refiner_match_a_single_thread_solve() {
    // The benchmark's sampled-readout setting: N = 16, κ = 8, ε_l = 0.05,
    // 10⁴ shots per readout, circuit mode.
    let mut rng = experiment_rng(16);
    let a = random_matrix_with_cond(
        16,
        8.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(16, &mut rng);
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 0.05,
            solver: QsvtSolverOptions {
                mode: QsvtMode::CircuitReal,
                shots: Some(10_000),
                cache: CachePolicy::Disabled,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    let (x, history) = refiner.solve(&b, &mut experiment_rng(RNG_SEED)).unwrap();
    assert_eq!(history.status, HybridStatus::Converged);
    assert!(
        history.iterations() >= 1,
        "sampled readout needs refinement"
    );
    let expected = fingerprint(&x, &history);

    let barrier = Barrier::new(THREADS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rng = experiment_rng(RNG_SEED);
                    // Start every solve at once, so they overlap.
                    barrier.wait();
                    let (x, history) = refiner.solve(&b, &mut rng).unwrap();
                    fingerprint(&x, &history)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (thread, got) in results.iter().enumerate() {
        assert_eq!(got.0, expected.0, "thread {thread}: solution bits differ");
        assert_eq!(got.1, expected.1, "thread {thread}: history differs");
    }
}

#[test]
fn solve_many_is_bit_identical_at_every_worker_count() {
    // The `circuit_shots_batched` setting: N = 16, κ = 8, ε_l = 0.05, 10⁴
    // shots per readout, circuit mode, 16 right-hand sides.  System k runs
    // on its own stream, seeded by the k-th `next_u64` of the caller's RNG,
    // so neither the worker count nor the order in which workers pull the
    // systems can change a bit.
    let mut rng = experiment_rng(16);
    let a = random_matrix_with_cond(
        16,
        8.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let bs: Vec<Vector<f64>> = (0..16).map(|_| random_unit_vector(16, &mut rng)).collect();
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 0.05,
            solver: QsvtSolverOptions {
                mode: QsvtMode::CircuitReal,
                shots: Some(10_000),
                cache: CachePolicy::Disabled,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    let mut seeds = experiment_rng(RNG_SEED);
    let expected: Vec<_> = bs
        .iter()
        .map(|b| {
            let mut stream = experiment_rng(seeds.next_u64());
            let (x, history) = refiner.solve(b, &mut stream).unwrap();
            assert_eq!(history.status, HybridStatus::Converged);
            fingerprint(&x, &history)
        })
        .collect();
    for threads in [1, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool
            .install(|| refiner.solve_many(&bs, &mut experiment_rng(RNG_SEED)))
            .unwrap();
        assert_eq!(got.len(), bs.len());
        for (k, (x, history)) in got.iter().enumerate() {
            assert_eq!(
                fingerprint(x, history),
                expected[k],
                "{threads} workers, system {k}"
            );
        }
    }
    let empty = refiner.solve_many(&[], &mut experiment_rng(RNG_SEED));
    assert!(empty.is_ok_and(|results| results.is_empty()));
}
