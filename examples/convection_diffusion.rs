//! Convection-diffusion: the nonsymmetric workload of the structured
//! inner-solver layer.
//!
//! Central differencing of `−u'' + c·u'` gives rows `(−1 − p/2, 2, −1 + p/2)`
//! with mesh Péclet number `p = c·h` — nonsymmetric for any `p ≠ 0`.  Both
//! operators are CSR matrices.  The 1-D one is tridiagonal, so `factorize`
//! picks the O(N) Thomas elimination (it never required symmetry, only
//! nonzero pivots); the 2-D one is a nonsymmetric five-point matrix, where
//! `factorize` switches from Jacobi-CG to Jacobi-BiCGSTAB.  Both paths exercise `matvec_transposed`,
//! as does the Lanczos condition estimate on the squared operator AᵀA.
//!
//! Run with `cargo run --release --example convection_diffusion`.

use qls::prelude::*;

fn main() {
    // --- 1-D: tridiagonal CSR, Thomas inner solver --------------------------
    let n1 = 4096usize;
    let peclet = 0.8;
    let a1 = convection_diffusion_1d::<f64>(n1, peclet);
    println!(
        "1-D convection-diffusion: N = {n1}, mesh Peclet {peclet} \
         (rows: {:+.2}, 2.00, {:+.2})",
        -1.0 - peclet / 2.0,
        -1.0 + peclet / 2.0
    );

    let u_true: Vector<f64> = (0..n1).map(|i| ((i + 1) as f64 * 0.002).sin()).collect();
    let b1 = a1.matvec(&u_true);
    let opts = RefinementOptions {
        target_scaled_residual: 1e-13,
        max_iterations: 40,
    };
    let refiner1 =
        ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a1, opts).expect("1-D refiner");
    let (u1, h1) = refiner1.solve(&b1).expect("1-D solve");
    println!(
        "  inner solver: {}, {} iterations, final scaled residual {:.3e}, \
         forward error {:.3e}\n",
        refiner1.inner_kind(),
        h1.iterations(),
        h1.final_residual(),
        forward_error(&u1, &u_true)
    );
    assert!(forward_error(&u1, &u_true) < 1e-9);

    // --- 2-D: nonsymmetric CSR, BiCGSTAB inner solver -----------------------
    let (nx, ny) = (48usize, 48usize);
    let n2 = nx * ny;
    let (px, py) = (0.5, 0.25);
    let a2 = convection_diffusion_2d::<f64>(nx, ny, px, py);
    println!(
        "2-D convection-diffusion: {nx}x{ny} grid (N = {n2}), mesh Peclet ({px}, {py}), \
         {} CSR nonzeros",
        a2.nnz()
    );

    let u2_true: Vector<f64> = (0..n2).map(|i| (i as f64 * 0.01).cos()).collect();
    let b2 = a2.matvec(&u2_true);
    let refiner2 =
        ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a2, opts).expect("2-D refiner");
    let (u2, h2) = refiner2.solve(&b2).expect("2-D solve");
    println!(
        "  inner solver: {}, {} iterations, final scaled residual {:.3e}, \
         forward error {:.3e}",
        refiner2.inner_kind(),
        h2.iterations(),
        h2.final_residual(),
        forward_error(&u2, &u2_true)
    );
    assert!(forward_error(&u2, &u2_true) < 1e-9);

    // The Lanczos estimate runs on AᵀA through matvec + matvec_transposed —
    // exactly the pair of kernels the transposed inner solves rely on.
    let kappa_est = cond_2_estimate(&a2, 400, 1e-10);
    println!("  matrix-free condition estimate (Lanczos on AᵀA): {kappa_est:.2}");
}
