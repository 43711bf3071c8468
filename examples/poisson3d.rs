//! Solve the 3-D Poisson equation at N = 13 824 unknowns — a size where the
//! old densify-LU inner solver would need a 1.5 GB dense matrix and an
//! O(N³) factorisation — entirely through the structured layer: the
//! seven-point Laplacian is a CSR `SparseMatrix` (at most 7 nonzeros per
//! row), and the classical mixed-precision refinement (Algorithm 1) runs its
//! low-precision correction solves with Jacobi-CG on the CSR operator,
//! selected automatically by `FactorizableOperator::factorize`.
//!
//! Run with `cargo run --release --example poisson3d`.

use qls::prelude::*;

fn main() {
    // 24x24x24 interior grid of the unit cube.
    let (nx, ny, nz) = (24usize, 24usize, 24usize);
    let n = nx * ny * nz;
    let a = poisson_3d::<f64>(nx, ny, nz, false);
    let kappa = poisson_3d_condition_number(nx, ny, nz);
    println!(
        "3-D Poisson problem: {nx}x{ny}x{nz} grid (N = {n}), kappa = {kappa:.2}\n\
         operator storage: {} CSR nonzeros vs {} dense entries ({:.2} GB)\n",
        a.nnz(),
        n * n,
        (n * n * 8) as f64 / 1e9
    );

    // Manufactured *discrete* solution: sample a smooth field on the grid and
    // build b = A u_true, so the refined solution can be checked exactly.
    let u_true = poisson_3d_rhs::<f64>(nx, ny, nz, |x, y, z| {
        (std::f64::consts::PI * x).sin() * y * (1.0 - y) * (0.5 + z)
    });
    let b = a.matvec(&u_true);

    // Classical mixed-precision refinement, f32 inner correction solves.
    let opts = RefinementOptions {
        target_scaled_residual: 1e-13,
        max_iterations: 40,
        ..Default::default()
    };
    let refiner =
        ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("refiner setup");
    println!(
        "inner solver selected by factorize: {} (threshold for densify-LU is N <= {})",
        refiner.inner_kind(),
        DENSIFY_FALLBACK_MAX
    );
    let (u, history) = refiner.solve(&b).expect("refinement solve");
    println!(
        "refinement: {} iterations, status {:?}, final scaled residual {:.3e}",
        history.iterations(),
        history.status,
        history.final_residual()
    );
    for step in &history.steps {
        println!(
            "  iter {:2}: omega = {:.3e}",
            step.iteration, step.scaled_residual
        );
    }

    let fwd = forward_error(&u, &u_true);
    println!("forward error vs manufactured solution: {fwd:.3e} (relative)");
    assert!(
        fwd < 1e-9,
        "refined solution must match the manufactured one"
    );

    // Matrix-free Lanczos condition estimate vs the analytic Kronecker-sum
    // value — O(nnz) per step, no densification.
    let kappa_est = cond_2_estimate(&a, 400, 1e-10);
    println!(
        "matrix-free condition estimate: {kappa_est:.2} (analytic {kappa:.2}, \
         relative error {:.2e})",
        (kappa_est - kappa).abs() / kappa
    );
}
