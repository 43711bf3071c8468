//! Solve the 2-D Poisson equation end to end **without ever materialising
//! the matrix on the hot path**: the five-point Laplacian is a CSR
//! `SparseMatrix`, every high-precision residual of the hybrid refinement
//! loop (Algorithm 2) costs O(nnz) instead of O(N²), and the QSVT
//! low-precision solves run on the quantum side exactly as in the 1-D
//! example.  A dense twin of the same operator demonstrates the equivalence
//! contract: the CSR matvec is bit-identical to the dense kernel, so both
//! representations produce the *same* convergence history, float for
//! float.
//!
//! Run with `cargo run --example poisson2d`.

use qls::prelude::*;

fn main() {
    // Manufactured solution u(x, y) = x(1-x)·y(1-y) (zero on the boundary):
    // -Δu = 2·y(1-y) + 2·x(1-x).  The forcing excites many eigenmodes of the
    // discrete Laplacian, so the low-precision QSVT solve genuinely needs
    // refinement iterations — and because u is quadratic in each variable,
    // the five-point stencil is *exact* for it, so the refined discrete
    // solution must match the analytic one to solver accuracy.
    let (nx, ny) = (4usize, 4usize); // 4x4 interior grid, N = 16 unknowns
    let n = nx * ny;
    let forcing = |x: f64, y: f64| 2.0 * y * (1.0 - y) + 2.0 * x * (1.0 - x);
    let exact = |x: f64, y: f64| x * (1.0 - x) * y * (1.0 - y);

    let csr = poisson_2d::<f64>(nx, ny, true);
    let dense = csr.to_dense();
    let b = poisson_2d_rhs::<f64>(nx, ny, forcing);
    let kappa = poisson_2d_condition_number(nx, ny);
    println!(
        "2-D Poisson problem: {nx}x{ny} grid (N = {n}), kappa = {kappa:.2}, \
         operator storage: {} CSR nonzeros vs {} dense entries\n",
        csr.nnz(),
        n * n
    );

    // Hybrid QSVT + iterative refinement over the CSR operator.
    let options = HybridRefinementOptions {
        target_epsilon: 1e-10,
        epsilon_l: 1e-2,
        ..Default::default()
    };
    let refiner = HybridRefiner::new(&csr, options).expect("CSR solver setup");
    let mut rng = experiment_rng(9);
    let (u_csr, history) = refiner.solve(&b, &mut rng).expect("hybrid solve");
    println!(
        "CSR hybrid solve: {} refinement iterations, final scaled residual {:.3e}",
        history.iterations(),
        history.final_residual()
    );

    // The dense twin reproduces the history bit for bit (same floats in,
    // same floats out — the operator layer's equivalence contract).
    let dense_refiner = HybridRefiner::new(&dense, options).expect("dense solver setup");
    let mut rng = experiment_rng(9);
    let (u_dense, dense_history) = dense_refiner.solve(&b, &mut rng).expect("dense solve");
    let identical = u_dense.as_slice() == u_csr.as_slice()
        && dense_history.steps.len() == history.steps.len()
        && dense_history
            .steps
            .iter()
            .zip(&history.steps)
            .all(|(a, b)| a.scaled_residual == b.scaled_residual);
    println!("CSR operator reproduces the dense history bit-for-bit: {identical}");
    assert!(identical, "operator representations must agree exactly");

    // Classical dense reference for the forward error.
    let u_lu = classical_lu_solve(&dense, &b).expect("LU reference");
    println!(
        "agreement with the dense LU reference: {:.3e} (relative)",
        forward_error(&u_csr, &u_lu)
    );

    // Compare with the analytic solution on the grid.
    let u_exact = poisson_2d_rhs::<f64>(nx, ny, exact);
    let disc_err = u_csr
        .iter()
        .zip(u_exact.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!(
        "error vs analytic solution: {disc_err:.3e} (max norm; the stencil is exact \
         for this quadratic u, so only the solver tolerance remains)\n"
    );

    // Show the interior grid (rows = x lines).
    println!("u_hybrid on the interior grid:");
    for ix in 0..nx {
        let row: Vec<String> = (0..ny)
            .map(|iy| format!("{:+.5}", u_csr[ix * ny + iy]))
            .collect();
        println!("  {}", row.join("  "));
    }

    // The matrix-free condition estimate (Lanczos on AᵀA, O(nnz) per step)
    // vs the analytic value.
    let kappa_est = cond_2_estimate(&csr, 20_000, 1e-12);
    println!(
        "\nmatrix-free condition estimate: {kappa_est:.2} (analytic {kappa:.2}); \
         epsilon_l * kappa = {:.3} < 1, so Theorem III.1 applies",
        options.epsilon_l * kappa
    );
}
