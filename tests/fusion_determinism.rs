//! One fusion answer: the fusion pass prices every candidate with one fixed
//! cost table, so its output is a pure function of the circuit and the
//! register width.  The executor therefore runs exactly the circuit that
//! `fusion_stats` reports, and two threads fusing the same circuit get the
//! same operation list.
//!
//! FABLE is the encoding where a timing-calibrated cost table used to fuse
//! differently from the fixed one, so it is the circuit checked here.

use qls::prelude::*;
use qls::sim::optimize_circuit;

/// Exact FABLE encoding of an 8 × 8 system with κ = 8: 3 data qubits,
/// 3 row qubits and one flag qubit.
fn fable_8x8() -> FableBlockEncoding {
    let mut rng = experiment_rng(1);
    let a = random_matrix_with_cond(
        8,
        8.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    FableBlockEncoding::new(&a, 0.0)
}

#[test]
fn executor_runs_the_circuit_fusion_stats_reports() {
    let fable = fable_8x8();
    for circuit in [fable.circuit().clone(), fable.circuit().adjoint()] {
        assert_eq!(circuit.num_qubits(), 7);
        let stats = fusion_stats(&circuit);
        assert!(stats.fused_ops < stats.raw_ops, "FABLE must fuse");
        assert_eq!(QuantumExecutor::new(&circuit).stats(), Some(&stats));
    }
}

#[test]
fn fusion_gives_equal_circuits_on_fresh_threads() {
    let fable = fable_8x8();
    let circuit = fable.circuit();
    let fuse = || {
        std::thread::scope(|s| {
            s.spawn(|| optimize_circuit(circuit, &FusionOptions::default()))
                .join()
                .unwrap()
        })
    };
    let (first, second) = (fuse(), fuse());
    assert_eq!(first, second);
    assert!(first.len() < circuit.len());
}
