//! Graph-Laplacian workload at N = 50 000 — two orders of magnitude beyond
//! what the densify-LU inner solver could touch (a dense copy alone would be
//! 20 GB).  The shifted Laplacian `L + shift·I` of a random connected graph
//! is SPD, so `FactorizableOperator::factorize` selects the matrix-free
//! Jacobi-CG inner solver and the whole mixed-precision refinement runs at
//! O(nnz) per step.
//!
//! Run with `cargo run --release --example graph_laplacian`.

use qls::prelude::*;
use std::time::Instant;

fn main() {
    let n = 50_000usize;
    let extra_edges = 150_000usize;
    let shift = 0.5;

    let mut rng = experiment_rng(71);
    let edges = random_connected_graph(n, extra_edges, &mut rng);
    let a: SparseMatrix<f64> = shifted_graph_laplacian(n, &edges, shift);
    println!(
        "shifted graph Laplacian: N = {n}, {} edges, {} CSR nonzeros, shift {shift}\n\
         (a dense copy would need {:.1} GB)\n",
        edges.len(),
        a.nnz(),
        (n * n * 8) as f64 / 1e9
    );

    // Known discrete solution -> right-hand side.
    let x_true: Vector<f64> = (0..n).map(|i| ((i as f64) * 1e-3).sin()).collect();
    let b = a.matvec(&x_true);

    let opts = RefinementOptions {
        target_scaled_residual: 1e-12,
        max_iterations: 40,
    };
    let t0 = Instant::now();
    let refiner =
        ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("refiner setup");
    let setup = t0.elapsed();
    println!(
        "inner solver selected by factorize: {} (setup {:.1} ms — no densification, \
         no O(N³) factorisation)",
        refiner.inner_kind(),
        setup.as_secs_f64() * 1e3
    );

    let t1 = Instant::now();
    let (x, history) = refiner.solve(&b).expect("refinement solve");
    let solve = t1.elapsed();
    println!(
        "refinement: {} iterations in {:.1} ms, status {:?}, final scaled residual {:.3e}",
        history.iterations(),
        solve.as_secs_f64() * 1e3,
        history.status,
        history.final_residual()
    );

    let fwd = forward_error(&x, &x_true);
    println!("forward error vs known solution: {fwd:.3e} (relative)");
    assert!(fwd < 1e-8, "refined solution must match the known solution");
}
