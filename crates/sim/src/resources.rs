//! Circuit resource accounting.
//!
//! Section III-C4 of the paper expresses the quantum cost in *T gates*
//! "because the depth of the circuit requires to use a fault-tolerant quantum
//! computer", citing the standard decompositions of multi-controlled Toffolis
//! and adders (\[24\], \[34\]) and rotation synthesis.  This module turns a
//! [`Circuit`] into those estimates: gate counts by class, circuit depth,
//! number of rotations, and a configurable T-count estimate.

use crate::circuit::Circuit;
pub use crate::fuse::CircuitStats;
use crate::kernels::CompiledCircuit;
use serde::Serialize;

/// Parameters of the T-count model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TCountModel {
    /// T gates per single-qubit rotation synthesised to accuracy
    /// `rotation_synthesis_accuracy` (the standard repeat-until-success /
    /// Ross–Selinger estimate is ≈ 3·log2(1/ε) + O(1)).
    pub t_per_rotation: usize,
    /// Synthesis accuracy used to derive `t_per_rotation` (kept for reporting).
    pub rotation_synthesis_accuracy: f64,
    /// T gates per Toffoli (7 for the textbook decomposition, 4 with measurement
    /// assistance).
    pub t_per_toffoli: usize,
}

impl TCountModel {
    /// Model with rotation synthesis at accuracy ε (T/rotation ≈ 3·log2(1/ε) + 10).
    pub fn with_rotation_accuracy(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        TCountModel {
            t_per_rotation: (3.0 * (1.0 / epsilon).log2()).ceil() as usize + 10,
            rotation_synthesis_accuracy: epsilon,
            t_per_toffoli: 7,
        }
    }
}

impl Default for TCountModel {
    fn default() -> Self {
        TCountModel::with_rotation_accuracy(1e-10)
    }
}

/// Resource estimate of a circuit.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceEstimate {
    /// Number of qubits of the register.
    pub num_qubits: usize,
    /// Total number of operations.
    pub gate_count: usize,
    /// Circuit depth (ASAP scheduling).
    pub depth: usize,
    /// Number of Clifford gates (including controlled-Clifford counted naively).
    pub clifford_count: usize,
    /// Number of explicit T/T† gates.
    pub t_gate_count: usize,
    /// Number of parameterised rotations (Rx/Ry/Rz/Phase).
    pub rotation_count: usize,
    /// Number of two-qubit operations (one target + one control, CX/CZ/…).
    pub two_qubit_count: usize,
    /// Number of multi-controlled operations (≥ 2 controls).
    pub multi_controlled_count: usize,
    /// Estimated total T count under the model.
    pub estimated_t_count: usize,
}

/// Estimate the fault-tolerant resources of a circuit.
///
/// Multi-controlled gates with `c ≥ 2` controls are costed as `2(c − 1)`
/// Toffolis (the standard ancilla-based ladder decomposition referenced by the
/// paper), plus the synthesis cost of the base gate when it is a rotation.
pub fn estimate_resources(circuit: &Circuit, model: &TCountModel) -> ResourceEstimate {
    let mut clifford = 0usize;
    let mut t_gates = 0usize;
    let mut rotations = 0usize;
    let mut two_qubit = 0usize;
    let mut multi_controlled = 0usize;
    let mut estimated_t = 0usize;

    for op in circuit.operations() {
        let controls = op.controls.len();
        let width = op.targets.len() + controls;
        if width == 2 {
            two_qubit += 1;
        }
        if controls >= 2 {
            multi_controlled += 1;
            // Ladder decomposition into 2(c-1) Toffolis.
            estimated_t += 2 * (controls - 1) * model.t_per_toffoli;
        }
        use crate::gate::Gate;
        match &op.gate {
            Gate::T | Gate::Tdg => {
                t_gates += 1;
                estimated_t += 1;
            }
            g if g.is_clifford() => {
                clifford += 1;
                // A singly-controlled Clifford is still Clifford (e.g. CX, CZ);
                // doubly-controlled versions were already charged above.
            }
            g if g.is_rotation() => {
                rotations += 1;
                estimated_t += model.t_per_rotation;
                if controls == 1 {
                    // A controlled rotation decomposes into 2 CX + 2 rotations.
                    estimated_t += model.t_per_rotation;
                }
            }
            Gate::Unitary(m) => {
                // Generic k-qubit unitary: charge the asymptotic 4^k rotation
                // synthesis cost (only used by the emulation-mode encodings,
                // where the estimate is reported but not claimed tight).
                let k = (m.nrows() as f64).log2() as u32;
                rotations += 1;
                estimated_t += model.t_per_rotation * 4usize.pow(k);
            }
            _ => {
                clifford += 1;
            }
        }
    }

    ResourceEstimate {
        num_qubits: circuit.num_qubits(),
        gate_count: circuit.gate_count(),
        depth: circuit.depth(),
        clifford_count: clifford,
        t_gate_count: t_gates,
        rotation_count: rotations,
        two_qubit_count: two_qubit,
        multi_controlled_count: multi_controlled,
        estimated_t_count: estimated_t,
    }
}

/// Simulation-side cost report of a circuit: what the optimizer pass of
/// [`crate::fuse`] does to the op count and the estimated per-application
/// sweep work.
///
/// This complements [`estimate_resources`]: that prices the circuit on
/// fault-tolerant *hardware* (T counts, depth), this prices it on the
/// *simulator*, so the figure/table binaries can print both side by side.
/// Note this compiles the optimized circuit once (it shows up in
/// [`crate::kernels::circuit_compile_count`]) — it is a reporting helper,
/// not something to call on a hot path.
pub fn fusion_stats(circuit: &Circuit) -> CircuitStats {
    CompiledCircuit::optimized(circuit, circuit.num_qubits()).2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn t_count_model_scales_with_accuracy() {
        let coarse = TCountModel::with_rotation_accuracy(1e-3);
        let fine = TCountModel::with_rotation_accuracy(1e-12);
        assert!(fine.t_per_rotation > coarse.t_per_rotation);
    }

    #[test]
    fn clifford_only_circuit_has_no_t() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).s(2).swap(0, 2);
        let est = estimate_resources(&c, &TCountModel::default());
        assert_eq!(est.estimated_t_count, 0);
        assert_eq!(est.t_gate_count, 0);
        assert_eq!(est.rotation_count, 0);
        assert_eq!(est.gate_count, 5);
    }

    #[test]
    fn explicit_t_gates_counted() {
        let mut c = Circuit::new(1);
        c.t(0).t(0).gate(crate::gate::Gate::Tdg, &[0]);
        let est = estimate_resources(&c, &TCountModel::default());
        assert_eq!(est.t_gate_count, 3);
        assert_eq!(est.estimated_t_count, 3);
    }

    #[test]
    fn rotations_charged_by_model() {
        let model = TCountModel::with_rotation_accuracy(1e-10);
        let mut c = Circuit::new(2);
        c.ry(0, 0.3).rz(1, 0.4);
        let est = estimate_resources(&c, &model);
        assert_eq!(est.rotation_count, 2);
        assert_eq!(est.estimated_t_count, 2 * model.t_per_rotation);
    }

    #[test]
    fn toffoli_charged_seven_t() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let est = estimate_resources(&c, &TCountModel::default());
        assert_eq!(est.multi_controlled_count, 1);
        // 2(c-1) = 2 Toffoli-equivalents at 7 T each = 14 with the ladder model.
        assert_eq!(est.estimated_t_count, 14);
    }

    #[test]
    fn multi_controlled_scales_linearly_in_controls() {
        let model = TCountModel::default();
        let mut c3 = Circuit::new(4);
        c3.mcx(&[0, 1, 2], 3);
        let mut c5 = Circuit::new(6);
        c5.mcx(&[0, 1, 2, 3, 4], 5);
        let t3 = estimate_resources(&c3, &model).estimated_t_count;
        let t5 = estimate_resources(&c5, &model).estimated_t_count;
        assert!(t5 > t3);
        assert_eq!(t3, 2 * 2 * model.t_per_toffoli);
        assert_eq!(t5, 2 * 4 * model.t_per_toffoli);
    }

    #[test]
    fn fusion_stats_reports_the_optimizer_effect() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3).t(0).phase(0, -0.2).h(1);
        let stats = fusion_stats(&c);
        assert_eq!(stats.raw_ops, 4);
        // The rz/t/phase diagonal chain merges, and the combined 2-qubit
        // support lets the h fuse in too.
        assert_eq!(stats.fused_ops, 1);
        assert!(stats.op_reduction() >= 4.0);
        assert!(stats.fused_sweep_work <= stats.raw_sweep_work);
    }

    #[test]
    fn depth_and_width_reported() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 1).cx(2, 3).ccx(0, 1, 2);
        let est = estimate_resources(&c, &TCountModel::default());
        assert_eq!(est.num_qubits, 4);
        assert!(est.depth >= 3);
        assert_eq!(est.two_qubit_count, 2);
    }
}
