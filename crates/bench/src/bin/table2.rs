//! Table II — complexity breakdown for solving the 1-D Poisson equation with
//! the mixed-precision QSVT solver.
//!
//! Prints, for the first solve and for one refinement iteration, the classical
//! flop count and the quantum T-gate estimate of every sub-task (state
//! preparation, block-encoding, QSVT, solution recovery), evaluated with the
//! analytic tridiagonal block-encoding costs (paper Ref. \[37\]) and the Eq.-(4)
//! polynomial degree.  Also cross-checks the analytic block-encoding model
//! against the concrete circuit constructed in `qls-encoding`.

use qls_bench::format_table;
use qls_core::{poisson_cost_breakdown, PoissonCostParameters};
use qls_encoding::{BlockEncoding, TridiagBlockEncoding};
use qls_linalg::poisson_1d_condition_number;

fn main() {
    let n_qubits = 4; // N = 16 grid points, the paper's experimental size
    let kappa = poisson_1d_condition_number(1 << n_qubits);
    let params = PoissonCostParameters {
        n_qubits,
        kappa,
        epsilon_l: 1e-2,
        epsilon: 1e-11,
    };

    println!(
        "Table II — complexity for solving the Poisson equation (N = 2^{n_qubits} = {})",
        1 << n_qubits
    );
    println!(
        "kappa(Poisson, N={}) = {:.2}, eps_l = {:.0e}, eps = {:.0e}\n",
        1 << n_qubits,
        kappa,
        params.epsilon_l,
        params.epsilon
    );

    let rows: Vec<Vec<String>> = poisson_cost_breakdown(params)
        .iter()
        .map(|r| {
            vec![
                r.phase.to_string(),
                r.task.to_string(),
                if r.classical_flops > 0.0 {
                    format!("{:.2e}", r.classical_flops)
                } else {
                    "-".to_string()
                },
                if r.quantum_t_gates > 0.0 {
                    format!("{:.2e}", r.quantum_t_gates)
                } else {
                    "-".to_string()
                },
                r.paper_scaling.to_string(),
            ]
        })
        .collect();
    let table = format_table(
        &[
            "phase",
            "task",
            "classical (flops)",
            "quantum (T gates)",
            "paper scaling",
        ],
        &rows,
    );
    println!("{table}");

    // Cross-check: the concrete block-encoding circuit we can actually simulate.
    let be = TridiagBlockEncoding::new(3);
    let analytic = be.analytic_resources();
    println!("\nBlock-encoding realisations for n = 3 (N = 8):");
    println!(
        "  analytic (Ref. [37] model): {} primitive gates, depth {}, {} T gates, {} ancillas",
        analytic.primitive_gates, analytic.depth, analytic.t_count, analytic.ancilla_qubits
    );
    println!(
        "  simulated (LCU construction): {} gates, {} ancillas, alpha = {:.3}",
        be.circuit().gate_count(),
        be.num_ancilla_qubits(),
        be.alpha()
    );
    // Simulation-side cost of the same circuit: what the optimizer pass of
    // `qls_sim::fuse` does to the op count and per-application sweep work.
    let fusion = qls_sim::fusion_stats(be.circuit());
    println!(
        "  simulator fusion: {} raw -> {} fused ops ({:.1}x), \
         sweep work {} -> {} multiplies ({:.1}x)",
        fusion.raw_ops,
        fusion.fused_ops,
        fusion.op_reduction(),
        fusion.raw_sweep_work,
        fusion.fused_sweep_work,
        fusion.work_reduction()
    );
    println!("\nThe per-iteration rows show that only state preparation and the solution");
    println!("recovery touch the CPU once the block-encoding and the phases have been");
    println!("compiled and transferred (they are reused across iterations).");
}
