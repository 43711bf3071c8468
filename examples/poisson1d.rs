//! Solve the 1-D Poisson equation of Section III-C4 end to end:
//! discretisation (Eq. (7)), hybrid QSVT + refinement solve, comparison with
//! the O(N) Thomas solver and with the analytic solution of the ODE.
//!
//! Run with `cargo run --example poisson1d`.

use qls::prelude::*;
use std::f64::consts::PI;

fn main() {
    // -u''(x) = pi^2 sin(pi x), u(0) = u(1) = 0  =>  u(x) = sin(pi x).
    let n = 16usize; // N = 16 interior grid points (n = 4 qubits)
    let forcing = |x: f64| PI * PI * (PI * x).sin();
    let exact = |x: f64| (PI * x).sin();

    let tridiag = poisson_1d::<f64>(n, true);
    let a = tridiag.to_dense();
    let b = poisson_rhs::<f64>(n, forcing);
    let kappa = poisson_1d_condition_number(n);
    println!("1-D Poisson problem: N = {n}, condition number kappa = {kappa:.2}\n");

    // Classical O(N) reference: `factorize` selects the Thomas elimination
    // for a tridiagonal CSR matrix.
    let u_thomas = tridiag
        .factorize::<f64>()
        .expect("Thomas factorisation")
        .solve(&b)
        .expect("Thomas solve");

    // Hybrid QSVT + iterative refinement (Algorithm 2).
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-3,
            ..Default::default()
        },
    )
    .expect("solver setup");
    let mut rng = experiment_rng(7);
    let (u_hybrid, history) = refiner.solve(&b, &mut rng).expect("hybrid solve");

    println!(
        "hybrid solver: {} refinement iterations, final scaled residual {:.3e}",
        history.iterations(),
        history.final_residual()
    );
    println!(
        "agreement with the Thomas solver: {:.3e} (relative)",
        forward_error(&u_hybrid, &u_thomas)
    );

    // Compare with the analytic solution on the grid.
    let u_exact = poisson_rhs::<f64>(n, exact);
    println!(
        "discretisation error vs analytic solution: {:.3e} (max norm)",
        u_hybrid
            .iter()
            .zip(u_exact.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    );

    // Show the grid solution.
    println!("\n    x     |  u_hybrid  |  u_exact");
    let h = 1.0 / (n as f64 + 1.0);
    for j in 0..n {
        let x = (j + 1) as f64 * h;
        println!("  {:.4}  |  {:+.5}  |  {:+.5}", x, u_hybrid[j], u_exact[j]);
    }

    // The Table-II breakdown for this use case.
    println!("\nTable-II style cost breakdown for this problem:");
    for row in poisson_cost_breakdown(PoissonCostParameters {
        n_qubits: 4,
        kappa,
        epsilon_l: 1e-3,
        epsilon: 1e-10,
    }) {
        println!(
            "  {:<12} {:<14} classical {:>10.3e} flops, quantum {:>10.3e} T gates",
            row.phase, row.task, row.classical_flops, row.quantum_t_gates
        );
    }
}
