//! The multi-RHS Poisson workload: one matrix, many right-hand sides.
//!
//! The 1-D Poisson operator of Section III-C4 is fixed by the grid, so its
//! block-encoding, inversion polynomial, phase factors and compiled QSVT
//! circuit never change — only the forcing term does.  This example builds
//! the hybrid refiner **once** and solves `-u'' = f_k` for several forcing
//! functions through `HybridRefiner::solve_many`, which batches every round
//! of QSVT correction solves across the still-active systems (coarse-grained
//! thread fan-out via `qls_sim::QuantumExecutor::run_batch`).
//!
//! Run with `cargo run --example poisson1d_multirhs`.

use qls::prelude::*;
use std::f64::consts::PI;

fn main() {
    let n = 16usize; // N = 16 interior grid points (4 qubits)

    // Forcing terms f_k with the analytic solutions of -u'' = f,
    // u(0) = u(1) = 0.  Deliberately *not* eigenvectors of the discrete
    // operator, so each system genuinely needs refinement iterations.
    type Pair = (
        &'static str,
        Box<dyn Fn(f64) -> f64>,
        Box<dyn Fn(f64) -> f64>,
    );
    let cases: Vec<Pair> = vec![
        (
            "constant",
            Box::new(|_x| 1.0),
            Box::new(|x| 0.5 * x * (1.0 - x)),
        ),
        (
            "linear",
            Box::new(|x| x),
            Box::new(|x| x * (1.0 - x * x) / 6.0),
        ),
        (
            "sine",
            Box::new(|x: f64| PI * PI * (PI * x).sin()),
            Box::new(|x: f64| (PI * x).sin()),
        ),
        (
            "exponential",
            Box::new(|x: f64| x.exp()),
            Box::new(|x: f64| 1.0 - x.exp() + (std::f64::consts::E - 1.0) * x),
        ),
    ];

    let tridiag = poisson_1d::<f64>(n, true);
    let a = tridiag.to_dense();
    // The O(N) Thomas elimination `factorize` selects for a tridiagonal CSR
    // matrix: the classical reference of the discrete system.
    let thomas = tridiag.factorize::<f64>().expect("Thomas factorisation");
    let kappa = poisson_1d_condition_number(n);
    println!(
        "multi-RHS 1-D Poisson: N = {n}, kappa = {kappa:.2}, {} right-hand sides\n",
        cases.len()
    );

    // Compile once: block-encoding, polynomial, phases and the QSVT circuit
    // are all built here and reused by every solve below.
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-3,
            ..Default::default()
        },
    )
    .expect("solver setup");

    let bs: Vec<Vector<f64>> = cases
        .iter()
        .map(|(_, f, _)| poisson_rhs::<f64>(n, f))
        .collect();

    // Batched hybrid solve: all systems share the compiled circuit, each
    // refinement round batches the correction solves of the active systems.
    let mut rng = experiment_rng(7);
    let solutions = refiner.solve_many(&bs, &mut rng).expect("batched solve");

    println!("  forcing      | iters | final residual | error vs analytic (max-norm)");
    for (((name, _, exact), b), (u, history)) in cases.iter().zip(&bs).zip(&solutions) {
        assert_eq!(history.status, HybridStatus::Converged, "forcing {name}");
        let u_exact = poisson_rhs::<f64>(n, exact);
        let max_err = u
            .iter()
            .zip(u_exact.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!(
            "  {name:<12} |   {}   |   {:.3e}    |  {:.3e}",
            history.iterations(),
            history.final_residual(),
            max_err
        );
        // Errors vs the analytic ODE solution are dominated by the 2nd-order
        // discretisation (h² scale); the solve itself matches the O(N)
        // Thomas reference of the *discrete* system far below that.
        assert!(max_err < 5e-2, "forcing {name}: error {max_err:.3e}");
        let u_thomas = thomas.solve(b).expect("Thomas solve");
        assert!(forward_error(u, &u_thomas) < 1e-8);
    }
    assert!(
        solutions
            .iter()
            .any(|(_, history)| history.iterations() >= 1),
        "at least one system should exercise the batched refinement loop"
    );

    let total_be_calls: usize = solutions
        .iter()
        .map(|(_, history)| history.total_block_encoding_calls())
        .sum();
    println!(
        "\none compiled QSVT circuit served {} refinement solves \
         ({total_be_calls} block-encoding calls) across {} systems",
        solutions
            .iter()
            .map(|(_, history)| history.steps.len())
            .sum::<usize>(),
        cases.len()
    );
}
