//! Warm-cache solver construction: build the same κ = 8 circuit-mode solver
//! twice and watch the second build skip phase-factor generation and gate
//! fusion entirely — the expensive artifacts come back from the on-disk
//! cache (`~/.cache/qls`, or `QLS_CACHE_DIR` when set).
//!
//! Run with `cargo run --release --example warm_cache`.

use std::time::Instant;

use qls::prelude::*;

fn build_solver(a: &Matrix<f64>) -> QsvtLinearSolver {
    QsvtLinearSolver::new(
        a,
        0.05,
        QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
    )
    .expect("circuit-mode solver")
}

fn main() {
    let mut rng = experiment_rng(7);
    let a = random_matrix_with_cond(
        16,
        8.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );

    println!("building a kappa = 8 QSVT solver twice (circuit mode, eps_l = 0.05)\n");

    // First construction: generates phase factors (degree ~117) and runs the
    // fusion pass, then persists both artifacts to the cache directory.
    let (h0, m0) = (cache_hit_count(), cache_miss_count());
    let (p0, f0) = (phase_generation_count(), fusion_pass_count());
    let start = Instant::now();
    let solver = build_solver(&a);
    let cold = start.elapsed();
    println!(
        "cold build: {:>8.3} ms | cache hits +{} misses +{} | phase generations +{} | fusion passes +{}",
        cold.as_secs_f64() * 1e3,
        cache_hit_count() - h0,
        cache_miss_count() - m0,
        phase_generation_count() - p0,
        fusion_pass_count() - f0,
    );

    // Second construction of the *same* solver: every expensive artifact is a
    // disk read, so zero phase generations and zero fusion passes.
    let (h1, m1) = (cache_hit_count(), cache_miss_count());
    let (p1, f1) = (phase_generation_count(), fusion_pass_count());
    let start = Instant::now();
    let warm_solver = build_solver(&a);
    let warm = start.elapsed();
    println!(
        "warm build: {:>8.3} ms | cache hits +{} misses +{} | phase generations +{} | fusion passes +{}",
        warm.as_secs_f64() * 1e3,
        cache_hit_count() - h1,
        cache_miss_count() - m1,
        phase_generation_count() - p1,
        fusion_pass_count() - f1,
    );
    if warm.as_secs_f64() > 0.0 {
        println!(
            "\nwarm build speedup: {:.1}x",
            cold.as_secs_f64() / warm.as_secs_f64()
        );
    }
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

    // Both solvers are bit-identical: the cache stores exact f64 bit patterns.
    let resources = solver.quantum_resources();
    let warm_resources = warm_solver.quantum_resources();
    assert_eq!(resources.degree, warm_resources.degree);
    println!(
        "\nboth builds agree: polynomial degree {}, {} block-encoding calls",
        resources.degree, resources.block_encoding_calls
    );

    println!(
        "\nNote: the cache is a plain directory, so warmth crosses processes —\n\
         run this example a second time and the *first* build is already warm\n\
         from the artifacts this run just wrote. Set QLS_CACHE_DIR to relocate\n\
         the cache, or QLS_CACHE_DIR=\"\" (empty) to disable it for a run."
    );
}
