//! The block-encoding abstraction.
//!
//! A block-encoding of a matrix `A ∈ C^{2^n × 2^n}` is a unitary `U` on
//! `n + a` qubits such that `(⟨0|_a ⊗ I) U (|0⟩_a ⊗ I) = A/α` for some
//! sub-normalisation `α ≥ ‖A‖₂` (Section II-A1 of the paper).  Every concrete
//! construction in this crate (LCU, FABLE, tridiagonal, dilation) implements
//! the [`BlockEncoding`] trait; the QSVT layer consumes the trait, so
//! switching block-encodings never touches the solver.
//!
//! Register convention: the **data** register occupies the low `n` qubits and
//! the **ancillas** the high `a` qubits, so the `A/α` block is the top-left
//! `2^n × 2^n` block of the circuit's unitary.

use num_complex::Complex64;
use qls_linalg::Matrix;
use qls_sim::{circuit_unitary, CMatrix, Circuit, StateVector};

/// A unitary circuit that embeds `A/α` in its `⟨0|_a … |0⟩_a` block.
pub trait BlockEncoding {
    /// Number of data qubits `n` (the encoded matrix is `2^n × 2^n`).
    fn num_data_qubits(&self) -> usize;
    /// Number of ancilla qubits `a`.
    fn num_ancilla_qubits(&self) -> usize;
    /// The sub-normalisation factor `α` with `(⟨0|U|0⟩) = A/α`.
    fn alpha(&self) -> f64;
    /// The encoding circuit on `n + a` qubits (data = low qubits).
    fn circuit(&self) -> &Circuit;

    /// Total number of qubits of the encoding circuit.
    fn total_qubits(&self) -> usize {
        self.num_data_qubits() + self.num_ancilla_qubits()
    }

    /// Human-readable name of the construction (for reports).
    fn method_name(&self) -> &'static str {
        "block-encoding"
    }
}

/// Verification methods shared by all block-encodings, implemented through
/// the simulator.  Applying an encoding to a vector is [`embed_data`], a
/// circuit run and [`project_data`] — the path the QSVT inverter runs with
/// its compiled executor.
pub trait BlockEncodingExt: BlockEncoding {
    /// Extract the encoded matrix `α · (⟨0|_a ⊗ I) U (|0⟩_a ⊗ I)` by building
    /// the circuit unitary (exponential in the register size — use on small
    /// instances / in tests).
    fn encoded_matrix(&self) -> CMatrix {
        let u = circuit_unitary(self.circuit());
        let dim = 1usize << self.num_data_qubits();
        let mut block = u.block(0, 0, dim, dim);
        block.scale(Complex64::new(self.alpha(), 0.0));
        block
    }

    /// Maximum absolute entry-wise deviation between the encoded matrix and a
    /// reference real matrix.
    fn encoding_error(&self, reference: &Matrix<f64>) -> f64 {
        self.encoded_matrix()
            .max_abs_diff(&CMatrix::from_real(reference))
    }
}

impl<T: BlockEncoding + ?Sized> BlockEncodingExt for T {}

/// Embed a data-register vector on the low qubits of a `total_qubits`-wide
/// register, ancillas in `|0⟩`, **without normalising** (the block action is
/// linear).  Shared with the QSVT layer — the single place that pins the
/// "data low, ancillas high" convention.
pub fn embed_data(data: &[Complex64], total_qubits: usize) -> StateVector {
    assert!(data.len().is_power_of_two(), "data length must be 2^n");
    assert!(data.len() <= 1usize << total_qubits, "register too small");
    let mut amps = vec![Complex64::new(0.0, 0.0); 1usize << total_qubits];
    amps[..data.len()].copy_from_slice(data);
    StateVector::from_amplitudes_unchecked(amps)
}

/// Project the given ancilla qubits back onto `|0⟩` (no renormalisation —
/// the raw block action) and return the low `2^num_data_qubits` data block.
/// Counterpart of [`embed_data`].
pub fn project_data(
    state: &mut StateVector,
    num_data_qubits: usize,
    ancillas: &[usize],
) -> Vec<Complex64> {
    state.project_zeros(ancillas);
    state.amplitudes()[..1usize << num_data_qubits].to_vec()
}

/// Check that a circuit really is a block-encoding of `reference` with the
/// claimed `alpha`, returning the maximum entry-wise error: the oracle the
/// concrete constructions' tests share.
#[cfg(test)]
pub(crate) fn verify_block_encoding<B: BlockEncoding>(be: &B, reference: &Matrix<f64>) -> f64 {
    assert!(
        circuit_unitary(be.circuit()).is_unitary(1e-10),
        "block-encoding circuit is not unitary"
    );
    be.encoding_error(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dilation::DilationBlockEncoding;
    use qls_linalg::Matrix;

    #[test]
    fn embed_run_project_applies_the_encoded_block() {
        // The round trip the QSVT inverter runs: embed the data beside the
        // ancillas, run the encoding circuit, project the ancillas onto |0>.
        let a = Matrix::from_f64_slice(2, 2, &[0.4, 0.1, -0.2, 0.3]);
        let be = DilationBlockEncoding::new(&a, 1.0);
        let encoded = be.encoded_matrix();
        let v = vec![Complex64::new(0.6, 0.0), Complex64::new(-0.8, 0.0)];
        let mut state = embed_data(&v, be.total_qubits());
        state.apply_circuit(be.circuit());
        let ancillas: Vec<usize> = (be.num_data_qubits()..be.total_qubits()).collect();
        let via_circuit = project_data(&mut state, be.num_data_qubits(), &ancillas);
        let via_matrix = encoded.matvec(&v);
        for (x, y) in via_circuit.iter().zip(&via_matrix) {
            assert!((x - y / be.alpha()).norm() < 1e-12);
        }
    }
}
