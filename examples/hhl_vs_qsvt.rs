//! Compare the three quantum linear-system strategies the paper discusses:
//! HHL (phase-estimation based), a single direct QSVT solve, and the
//! mixed-precision QSVT + iterative-refinement solver, on the same small
//! symmetric positive-definite system.
//!
//! Run with `cargo run --example hhl_vs_qsvt`.

use qls::prelude::*;

fn main() {
    let mut rng = experiment_rng(31);
    let a = random_matrix_with_cond(
        4,
        5.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::SymmetricPositiveDefinite,
        &mut rng,
    );
    let b = random_unit_vector(4, &mut rng);
    let reference = classical_lu_solve(&a, &b).expect("LU");
    let mut reference_direction = reference.clone();
    reference_direction.normalize();

    println!("4x4 symmetric positive-definite system, kappa = 5\n");

    // HHL with an 8-qubit clock register.
    let hhl = HhlSolver::new(
        &a,
        HhlOptions {
            clock_qubits: 8,
            ..Default::default()
        },
    )
    .expect("HHL");
    let hhl_result = hhl.solve_direction(&b).expect("HHL solve");
    let hhl_err = forward_error(&hhl_result.direction, &reference_direction).min(forward_error(
        &hhl_result.direction.scaled(-1.0),
        &reference_direction,
    ));
    println!("HHL (8 clock qubits):");
    println!("  direction error:        {hhl_err:.3e}");
    println!(
        "  success probability:    {:.3e}",
        hhl_result.success_probability
    );
    println!(
        "  qubits / gates:         {} / {}",
        hhl_result.total_qubits, hhl_result.gate_count
    );

    // Direct QSVT at moderate accuracy (single solve, no refinement).
    let direct = QsvtLinearSolver::new(
        &a,
        1e-6,
        QsvtSolverOptions {
            mode: QsvtMode::Emulation,
            ..Default::default()
        },
    )
    .expect("direct QSVT");
    let direct_result = direct.solve(&b, &mut rng).expect("solve");
    println!("\nDirect QSVT at eps = 1e-6:");
    println!(
        "  scaled residual:        {:.3e}",
        scaled_residual(&a, &direct_result.solution, &b)
    );
    println!(
        "  block-encoding calls:   {}",
        direct.quantum_resources().block_encoding_calls
    );
    println!(
        "  forward error vs LU:    {:.3e}",
        forward_error(&direct_result.solution, &reference)
    );

    // Mixed-precision QSVT + iterative refinement.
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-12,
            epsilon_l: 5e-2,
            ..Default::default()
        },
    )
    .expect("refiner");
    let (x, history) = refiner.solve(&b, &mut rng).expect("solve");
    println!("\nQSVT + mixed-precision iterative refinement (eps = 1e-12, eps_l = 5e-2):");
    println!("  iterations:             {}", history.iterations());
    println!("  final scaled residual:  {:.3e}", history.final_residual());
    println!(
        "  total BE calls:         {}",
        history.total_block_encoding_calls()
    );
    println!(
        "  forward error vs LU:    {:.3e}",
        forward_error(&x, &reference)
    );

    println!("\nTakeaway: HHL's accuracy is capped by its clock resolution, the direct QSVT");
    println!("pays a high per-solve cost to reach tight accuracies, and the refined solver");
    println!("reaches the tightest accuracy of the three while running only low-precision");
    println!("quantum solves — the paper's core claim.");
}
