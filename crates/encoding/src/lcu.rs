//! Linear-Combination-of-Unitaries (LCU) block-encoding.
//!
//! The "versatile approach to encode matrices" of Section II-A1 of the paper
//! (Refs. \[12\], \[25\]): write `A = Σ_j c_j P_j` over Pauli strings, prepare the
//! ancilla state `|c⟩ ∝ Σ_j √|c_j| |j⟩` (PREPARE), apply `P_j` to the data
//! register controlled on the ancilla value `j` (SELECT, with the phase of
//! `c_j` folded into a controlled global phase), and un-prepare the ancillas.
//! The resulting unitary block-encodes `A/λ` with `λ = Σ_j |c_j|` using
//! `⌈log₂ K⌉` ancilla qubits for `K` retained terms.

use crate::block_encoding::BlockEncoding;
use crate::pauli::PauliDecomposition;
use crate::state_prep::StatePreparation;
use qls_linalg::{Matrix, Vector};
use qls_sim::{Circuit, Gate};

/// LCU block-encoding over the Pauli decomposition of a real matrix.
#[derive(Debug, Clone)]
pub struct LcuBlockEncoding {
    circuit: Circuit,
    num_data_qubits: usize,
    num_ancilla_qubits: usize,
    alpha: f64,
}

impl LcuBlockEncoding {
    /// Build the LCU block-encoding of `A`, dropping Pauli terms with
    /// coefficient magnitude below `tolerance`.
    pub fn new(a: &Matrix<f64>, tolerance: f64) -> Self {
        let decomposition = PauliDecomposition::decompose_real(a, tolerance);
        Self::from_decomposition(&decomposition)
    }

    /// Build the LCU block-encoding of the **adjoint** `A†` (the operator the
    /// QSVT linear solver needs).
    pub fn of_adjoint(a: &Matrix<f64>, tolerance: f64) -> Self {
        Self::new(&a.transpose(), tolerance)
    }

    /// Build the LCU block-encoding of a tridiagonal CSR matrix straight from
    /// its stored entries — no dense round-trip; the Pauli decomposition runs
    /// on the `n + 1` occupied XOR diagonals only
    /// (see [`PauliDecomposition::decompose_tridiagonal`]).
    pub(crate) fn of_tridiagonal(t: &qls_linalg::SparseMatrix<f64>, tolerance: f64) -> Self {
        Self::from_decomposition(&PauliDecomposition::decompose_tridiagonal(t, tolerance))
    }

    /// Build from an existing Pauli decomposition.
    pub(crate) fn from_decomposition(decomposition: &PauliDecomposition) -> Self {
        let n = decomposition.num_qubits;
        let k = decomposition.num_terms().max(1);
        let num_ancillas = if k == 1 {
            1
        } else {
            (k as f64).log2().ceil() as usize
        };
        let lambda = decomposition.lambda();
        assert!(lambda > 0.0, "cannot block-encode the zero matrix with LCU");

        // PREPARE: ancilla state with amplitudes sqrt(|c_j| / lambda).
        let mut prep_amplitudes = vec![0.0f64; 1 << num_ancillas];
        for (j, term) in decomposition.terms.iter().enumerate() {
            prep_amplitudes[j] = (term.coefficient.norm() / lambda).sqrt();
        }
        let prep = StatePreparation::new(&Vector::from_f64_slice(&prep_amplitudes));
        // The preparation circuit acts on its own `num_ancillas` qubits; remap
        // them to the high qubits n..n+a of the full register.
        let total = n + num_ancillas;
        let prep_circuit = prep.circuit().remapped(total, |q| q + n);

        let mut circuit = Circuit::new(total);
        circuit.append(&prep_circuit);

        // SELECT: controlled Pauli strings (controls = ancilla pattern j).
        let ancilla_qubits: Vec<usize> = (n..total).collect();
        for (j, term) in decomposition.terms.iter().enumerate() {
            // 0-controls via X conjugation.
            let zero_ancillas: Vec<usize> = ancilla_qubits
                .iter()
                .enumerate()
                .filter(|(bit, _)| j & (1 << bit) == 0)
                .map(|(_, &q)| q)
                .collect();
            for &q in &zero_ancillas {
                circuit.x(q);
            }
            term.string.append_to_circuit(&mut circuit, &ancilla_qubits);
            // Phase of the coefficient (π for negative real coefficients,
            // ±π/2 for purely imaginary ones, …) applied as a controlled
            // global phase on the data register.
            let phase = term.coefficient.arg();
            if phase.abs() > 1e-15 {
                circuit.controlled_gate(Gate::GlobalPhase(phase), &[0], &ancilla_qubits);
            }
            for &q in &zero_ancillas {
                circuit.x(q);
            }
        }

        // PREPARE†.
        circuit.append(&prep_circuit.adjoint());

        LcuBlockEncoding {
            circuit,
            num_data_qubits: n,
            num_ancilla_qubits: num_ancillas,
            alpha: lambda,
        }
    }
}

impl BlockEncoding for LcuBlockEncoding {
    fn num_data_qubits(&self) -> usize {
        self.num_data_qubits
    }
    fn num_ancilla_qubits(&self) -> usize {
        self.num_ancilla_qubits
    }
    fn alpha(&self) -> f64 {
        self.alpha
    }
    fn circuit(&self) -> &Circuit {
        &self.circuit
    }
    fn method_name(&self) -> &'static str {
        "LCU over the Pauli decomposition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_encoding::{verify_block_encoding, BlockEncodingExt};
    use qls_linalg::generate::{
        random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution,
    };
    use qls_linalg::poisson_1d;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encodes_single_pauli_matrix() {
        // A = X: one term, one ancilla, lambda = 1.
        let x = Matrix::from_f64_slice(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let be = LcuBlockEncoding::new(&x, 1e-12);
        assert_eq!(be.num_ancilla_qubits(), 1);
        assert!((be.alpha() - 1.0).abs() < 1e-14);
        assert!(verify_block_encoding(&be, &x) < 1e-12);
    }

    #[test]
    fn encodes_2x2_symmetric_matrix() {
        let a = Matrix::from_f64_slice(2, 2, &[1.0, 0.5, 0.5, -0.25]);
        let be = LcuBlockEncoding::new(&a, 1e-12);
        assert!(
            verify_block_encoding(&be, &a) < 1e-11,
            "error {}",
            be.encoding_error(&a)
        );
        // lambda equals the coefficient 1-norm of the decomposition.
        assert!(be.alpha() >= qls_linalg::Svd::new(&a).norm2() - 1e-12);
    }

    #[test]
    fn encodes_nonsymmetric_matrix_with_negative_coefficients() {
        let a = Matrix::from_f64_slice(2, 2, &[0.3, -0.9, 0.4, -0.1]);
        let be = LcuBlockEncoding::new(&a, 1e-12);
        assert!(
            verify_block_encoding(&be, &a) < 1e-11,
            "error {}",
            be.encoding_error(&a)
        );
    }

    #[test]
    fn encodes_4x4_poisson_matrix() {
        let t = poisson_1d::<f64>(4, false).to_dense();
        let be = LcuBlockEncoding::new(&t, 1e-12);
        assert_eq!(be.num_data_qubits(), 2);
        assert!(
            verify_block_encoding(&be, &t) < 1e-10,
            "error {}",
            be.encoding_error(&t)
        );
    }

    #[test]
    fn encodes_random_8x8_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(111);
        let a = random_matrix_with_cond(
            8,
            10.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let be = LcuBlockEncoding::new(&a, 1e-12);
        assert_eq!(be.num_data_qubits(), 3);
        assert!(
            verify_block_encoding(&be, &a) < 1e-9,
            "error {}",
            be.encoding_error(&a)
        );
    }

    #[test]
    fn adjoint_encoding_encodes_transpose() {
        let a = Matrix::from_f64_slice(2, 2, &[0.2, 0.8, -0.3, 0.5]);
        let be = LcuBlockEncoding::of_adjoint(&a, 1e-12);
        assert!(verify_block_encoding(&be, &a.transpose()) < 1e-11);
    }

    #[test]
    fn tolerance_reduces_term_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(112);
        let a = random_matrix_with_cond(
            8,
            10.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let exact = LcuBlockEncoding::new(&a, 0.0);
        let trimmed = LcuBlockEncoding::new(&a, 0.05);
        assert!(trimmed.circuit().gate_count() < exact.circuit().gate_count());
        // The trimmed encoding is still a reasonable approximation.
        let exact_terms = PauliDecomposition::decompose_real(&a, 0.0).num_terms();
        assert!(trimmed.encoding_error(&a) < 0.05 * exact_terms as f64);
    }
}
