//! Gate-level resource report: build every block-encoding of a small system,
//! the state-preparation circuit, and the full QSVT circuit (small κ), and
//! print their fault-tolerant resource estimates together with the CPU↔QPU
//! communication budget of one refined solve.
//!
//! Run with `cargo run --example circuit_resources`.

use qls::prelude::*;

fn main() {
    let mut rng = experiment_rng(5);
    let a = random_matrix_with_cond(
        4,
        2.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(4, &mut rng);
    let model = TCountModel::default();

    println!("Block-encodings of a 4x4 matrix (2 data qubits):\n");
    println!("method                      | alpha  | ancillas | gates | depth | est. T count | encoding error");
    let lcu = LcuBlockEncoding::new(&a, 1e-12);
    let fable = FableBlockEncoding::new(&a, 0.0);
    let dilation = DilationBlockEncoding::new(&a, 0.0);
    for (name, circuit, alpha, ancillas, err) in [
        (
            "LCU (Pauli decomposition)",
            lcu.circuit(),
            lcu.alpha(),
            lcu.num_ancilla_qubits(),
            lcu.encoding_error(&a),
        ),
        (
            "FABLE",
            fable.circuit(),
            fable.alpha(),
            fable.num_ancilla_qubits(),
            fable.encoding_error(&a),
        ),
        (
            "unitary dilation (exact)",
            dilation.circuit(),
            dilation.alpha(),
            dilation.num_ancilla_qubits(),
            dilation.encoding_error(&a),
        ),
    ] {
        let est = estimate_resources(circuit, &model);
        println!(
            "{:<27} | {:>6.3} | {:>8} | {:>5} | {:>5} | {:>12} | {:.2e}",
            name, alpha, ancillas, est.gate_count, est.depth, est.estimated_t_count, err
        );
    }

    // State preparation of the right-hand side.
    let prep = StatePreparation::new(&b);
    let prep_circuit = prep.circuit();
    let prep_est = estimate_resources(&prep_circuit, &model);
    println!(
        "\nstate preparation of b (tree method): {} classical flops, {} gates, {} est. T",
        prep.classical_flops, prep_est.gate_count, prep_est.estimated_t_count
    );

    // Full QSVT circuit at small kappa (circuit mode).
    let solver = QsvtLinearSolver::new(
        &a,
        0.05,
        QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
    )
    .expect("circuit-mode solver");
    let resources = solver.quantum_resources();
    println!("\nfull QSVT circuit (kappa = 2, eps_l = 0.05):");
    println!("  polynomial degree:       {}", resources.degree);
    println!(
        "  block-encoding calls:    {}",
        resources.block_encoding_calls
    );
    println!(
        "  data / ancilla qubits:   {} / {}",
        resources.data_qubits, resources.ancilla_qubits
    );
    if let Some(est) = &resources.circuit_estimate {
        println!(
            "  gates {} | depth {} | rotations {} | est. T count {}",
            est.gate_count, est.depth, est.rotation_count, est.estimated_t_count
        );
    }

    // Communication budget of a full refined solve (Fig. 1).
    let schedule = CommunicationSchedule::new(CommunicationParameters {
        n_qubits: 2,
        block_encoding_gates: lcu.circuit().gate_count(),
        state_prep_gates: prep_circuit.gate_count(),
        polynomial_degree: resources.degree,
        iterations: 4,
        bytes_per_gate: 16,
        bytes_per_scalar: 8,
    });
    println!("\nCPU-QPU communication budget for a 4-iteration refined solve:");
    println!(
        "  setup (BE + phases + SP(b)): {} bytes",
        schedule.setup_bytes()
    );
    println!(
        "  per refinement iteration:    {} bytes",
        schedule.per_iteration_bytes()
    );
    println!(
        "  totals: {} bytes to the QPU, {} bytes back",
        schedule.total_bytes(Direction::CpuToQpu),
        schedule.total_bytes(Direction::QpuToCpu)
    );
}
