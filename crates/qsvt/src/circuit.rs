//! QSVT circuit construction (Eqs. (2)–(3) of the paper).
//!
//! Given a block-encoding `U` of `A/α` and a QSP phase vector, the QSVT
//! operator alternates `U`, `U†` and projector-controlled phase rotations
//! `e^{iφ(2Π−I)}`, where `Π` projects the block-encoding ancillas onto
//! `|0…0⟩`.  Inside every singular-value invariant subspace the sequence acts
//! exactly as the scalar QSP product `U_Φ(x)`, so the `⟨0|·|0⟩` block of the
//! circuit equals `P^{(SV)}(A/α)` for the complex QSP polynomial `P`.
//!
//! Because the phase solver targets the *real part* of `P`, the module also
//! provides the standard real-part extraction: one extra ancilla selects
//! between `U_Φ` and `U_{−Φ}` (whose polynomial is the complex conjugate), and
//! a Hadamard pair turns the pair into `(P + P̄)/2 = Re P`.
//!
//! Phase conventions: the public API takes phases in the **Wx convention**
//! (the one [`crate::phases::find_phases`] produces); the conversion to
//! projector-rotation angles (`ϑ_0 = φ_0 − π/4`, `ϑ_d = φ_d − π/4`,
//! `ϑ_k = φ_k − π/2` inside, plus a global phase of `d·π/2`) is applied
//! internally.

use qls_encoding::BlockEncoding;
use qls_sim::{Circuit, Gate};

/// Append `e^{iφ(2Π−I)}` to the circuit, where `Π` projects `ancillas` onto
/// `|0…0⟩` (acts as `e^{iφ}` on that subspace and `e^{−iφ}` elsewhere).
fn append_projector_phase(circuit: &mut Circuit, ancillas: &[usize], phi: f64) {
    // Global e^{-iφ} on the whole register…
    circuit.gate(Gate::GlobalPhase(-phi), &[0]);
    // …then e^{+2iφ} on the ancilla-|0…0⟩ subspace.
    for &q in ancillas {
        circuit.x(q);
    }
    if ancillas.is_empty() {
        circuit.gate(Gate::GlobalPhase(2.0 * phi), &[0]);
    } else if ancillas.len() == 1 {
        circuit.controlled_gate(Gate::Phase(2.0 * phi), &[ancillas[0]], &[]);
        // A bare phase gate on the ancilla applies e^{2iφ} only when that
        // ancilla is |1⟩ (i.e. |0⟩ before the X conjugation) — exactly Π.
    } else {
        let (last, rest) = ancillas.split_last().unwrap();
        circuit.controlled_gate(Gate::Phase(2.0 * phi), &[*last], rest);
    }
    for &q in ancillas {
        circuit.x(q);
    }
}

/// The QSVT circuit `U_Φ` for a block-encoding and Wx-convention phases.
#[derive(Debug, Clone)]
pub struct QsvtCircuit {
    circuit: Circuit,
    num_data_qubits: usize,
    num_ancilla_qubits: usize,
    degree: usize,
    block_encoding_calls: usize,
}

impl QsvtCircuit {
    /// Build the plain QSVT sequence: the `⟨0|·|0⟩` block equals the *complex*
    /// QSP polynomial `P` applied to the singular values of `A/α`.  `U†` is
    /// built by the caller, so sequences over one block-encoding share a
    /// single copy of each of `U` and `U†`.
    fn with_adjoint<B: BlockEncoding>(
        block_encoding: &B,
        be_adjoint: &Circuit,
        wx_phases: &[f64],
    ) -> Self {
        assert!(wx_phases.len() >= 2, "need at least degree-1 phases");
        let degree = wx_phases.len() - 1;
        let n = block_encoding.num_data_qubits();
        let a = block_encoding.num_ancilla_qubits();
        let total = n + a;
        let ancillas: Vec<usize> = (n..total).collect();

        // Convert Wx phases to projector-rotation angles.
        let mut theta: Vec<f64> = wx_phases.to_vec();
        theta[0] -= std::f64::consts::FRAC_PI_4;
        theta[degree] -= std::f64::consts::FRAC_PI_4;
        for t in theta.iter_mut().take(degree).skip(1) {
            *t -= std::f64::consts::FRAC_PI_2;
        }

        let be_circuit = block_encoding.circuit();

        // Operator order: e^{iϑ_0(2Π−I)} · U · e^{iϑ_1(2Π−I)} · U† ⋯ U · e^{iϑ_d(2Π−I)};
        // in circuit (time) order the rightmost factor is applied first.
        let mut circuit = Circuit::new(total);
        append_projector_phase(&mut circuit, &ancillas, theta[degree]);
        for k in (0..degree).rev() {
            // Between phase k and phase k+1 sits the (degree−k)-th application
            // of the block-encoding, alternating U (for the application closest
            // to the rightmost phase) and U†.
            let application_index = degree - k; // 1-based
            if application_index % 2 == 1 {
                circuit.append(be_circuit);
            } else {
                circuit.append(be_adjoint);
            }
            append_projector_phase(&mut circuit, &ancillas, theta[k]);
        }
        // Global phase i^{d} compensating the Wx ↔ reflection conversion.
        circuit.gate(
            Gate::GlobalPhase(degree as f64 * std::f64::consts::FRAC_PI_2),
            &[0],
        );

        QsvtCircuit {
            circuit,
            num_data_qubits: n,
            num_ancilla_qubits: a,
            degree,
            block_encoding_calls: degree,
        }
    }

    /// Build the real-part extraction circuit: one extra ancilla (the top
    /// qubit) selects between `U_Φ` and `U_{−Φ}`; post-selecting it on `|0⟩`
    /// together with the block-encoding ancillas yields the block
    /// `Re(P)^{(SV)}(A/α)` — the polynomial the phase solver targeted.
    pub fn with_real_part_extraction<B: BlockEncoding>(
        block_encoding: &B,
        wx_phases: &[f64],
    ) -> Self {
        let be_adjoint = block_encoding.circuit().adjoint();
        let plus = QsvtCircuit::with_adjoint(block_encoding, &be_adjoint, wx_phases);
        let neg_phases: Vec<f64> = wx_phases.iter().map(|&p| -p).collect();
        let minus = QsvtCircuit::with_adjoint(block_encoding, &be_adjoint, &neg_phases);

        let inner_total = plus.num_data_qubits + plus.num_ancilla_qubits;
        let selector = inner_total; // new top qubit
        let total = inner_total + 1;

        let num_data_qubits = plus.num_data_qubits;
        let num_ancilla_qubits = plus.num_ancilla_qubits;
        let degree = plus.degree;
        let mut circuit = Circuit::new(total);
        circuit.h(selector);
        // Apply U_Φ when the selector is |0⟩ (X conjugation), U_{−Φ} when |1⟩.
        // The branch circuits move in (`into_controlled` + `append_owned`),
        // so their ops are not copied a second time; the degree-many
        // block-encoding unitaries they carry all share `U`'s and `U†`'s
        // storage.
        circuit.x(selector);
        circuit.append_owned(plus.circuit.into_controlled(&[selector]));
        circuit.x(selector);
        circuit.append_owned(minus.circuit.into_controlled(&[selector]));
        circuit.h(selector);

        QsvtCircuit {
            circuit,
            num_data_qubits,
            num_ancilla_qubits: num_ancilla_qubits + 1,
            degree,
            block_encoding_calls: 2 * degree,
        }
    }

    /// The underlying circuit (data qubits low, ancillas high).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of data qubits.
    pub(crate) fn num_data_qubits(&self) -> usize {
        self.num_data_qubits
    }

    /// Number of ancilla qubits that must be post-selected on `|0⟩`.
    pub(crate) fn num_ancilla_qubits(&self) -> usize {
        self.num_ancilla_qubits
    }

    /// Number of calls to the block-encoding (and its adjoint) — the quantity
    /// the paper's complexity model counts (Remark 1: `d` calls).
    pub(crate) fn block_encoding_calls(&self) -> usize {
        self.block_encoding_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{find_phases, PhaseFindingOptions};
    use crate::qsp::qsp_polynomial;
    use num_complex::Complex64;
    use qls_encoding::DilationBlockEncoding;
    use qls_linalg::Matrix;
    use qls_poly::ChebyshevSeries;
    use qls_sim::circuit_unitary;

    /// Diagonal test matrix: the QSVT block must be P(d_i) on the diagonal.
    fn diagonal_block_encoding(diag: &[f64]) -> (DilationBlockEncoding, Matrix<f64>) {
        let a = Matrix::from_diag(diag);
        (DilationBlockEncoding::new(&a, 1.0), a)
    }

    fn qsvt_block(qsvt: &QsvtCircuit) -> qls_sim::CMatrix {
        let u = circuit_unitary(qsvt.circuit());
        let dim = 1usize << qsvt.num_data_qubits();
        u.block(0, 0, dim, dim)
    }

    #[test]
    fn zero_phase_vector_applies_chebyshev_polynomial() {
        // All-zero Wx phases realise P = T_d; on a diagonal matrix the block
        // must be diag(T_d(λ_i)).
        let (be, a) = diagonal_block_encoding(&[0.9, 0.4, -0.3, 0.05]);
        for d in [1usize, 2, 3, 5] {
            let phases = vec![0.0; d + 1];
            let qsvt = QsvtCircuit::with_adjoint(&be, &be.circuit().adjoint(), &phases);
            assert_eq!(qsvt.block_encoding_calls(), d);
            let block = qsvt_block(&qsvt);
            for (i, &lambda) in a.diag().iter().enumerate() {
                let expected = qls_poly::chebyshev_t(d, lambda);
                assert!(
                    (block[(i, i)] - Complex64::new(expected, 0.0)).norm() < 1e-10,
                    "d = {d}, λ = {lambda}: got {:?}, expected {expected}",
                    block[(i, i)]
                );
            }
        }
    }

    #[test]
    fn qsvt_block_matches_scalar_qsp_for_generic_phases() {
        let (be, a) = diagonal_block_encoding(&[0.8, 0.3, -0.6, 0.1]);
        let phases = vec![0.23, -0.51, 0.74, 0.11];
        let qsvt = QsvtCircuit::with_adjoint(&be, &be.circuit().adjoint(), &phases);
        let block = qsvt_block(&qsvt);
        for (i, &lambda) in a.diag().iter().enumerate() {
            let expected = qsp_polynomial(&phases, lambda);
            assert!(
                (block[(i, i)] - expected).norm() < 1e-10,
                "λ = {lambda}: got {:?}, expected {expected:?}",
                block[(i, i)]
            );
        }
        // Off-diagonal entries stay zero for a diagonal input.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(block[(i, j)].norm() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn qsvt_on_symmetric_matrix_matches_eigen_function() {
        // Non-diagonal symmetric matrix: block = P(A) in the eigenbasis.
        let a = Matrix::from_f64_slice(2, 2, &[0.5, 0.2, 0.2, -0.1]);
        let be = DilationBlockEncoding::new(&a, 1.0);
        let phases = vec![0.1, -0.3, 0.25, 0.1];
        let qsvt = QsvtCircuit::with_adjoint(&be, &be.circuit().adjoint(), &phases);
        let block = qsvt_block(&qsvt);
        // Compare against direct polynomial evaluation through the eigenbasis:
        // P(A) computed by applying the scalar QSP polynomial to the eigenvalues.
        let svd = qls_linalg::Svd::new(&a);
        // A is symmetric: A = U diag(±σ) Uᵀ with signs recovered from A·u = λ u.
        let mut expected = qls_sim::CMatrix::zeros(2, 2);
        for k in 0..2 {
            let u_col = svd.u.col(k);
            let au = a.matvec(&u_col);
            let lambda = u_col.dot(&au);
            let p = qsp_polynomial(&phases, lambda);
            for i in 0..2 {
                for j in 0..2 {
                    expected[(i, j)] += p * Complex64::new(u_col[i] * u_col[j], 0.0);
                }
            }
        }
        assert!(block.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn real_part_extraction_gives_target_polynomial() {
        // Phases found for an explicit odd target; the real-part circuit block
        // must reproduce the *target* (not the full complex P) on the spectrum.
        let target = ChebyshevSeries::new(vec![0.0, 0.4, 0.0, -0.3]);
        let phases = find_phases(&target, &PhaseFindingOptions).unwrap();
        let (be, a) = diagonal_block_encoding(&[0.7, -0.2, 0.45, 0.9]);
        let qsvt = QsvtCircuit::with_real_part_extraction(&be, &phases.phases);
        assert_eq!(qsvt.block_encoding_calls(), 2 * phases.degree);
        let block = qsvt_block(&qsvt);
        for (i, &lambda) in a.diag().iter().enumerate() {
            let expected = target.eval(lambda);
            assert!(
                (block[(i, i)] - Complex64::new(expected, 0.0)).norm() < 1e-8,
                "λ = {lambda}: got {:?}, expected {expected}",
                block[(i, i)]
            );
        }
    }

    #[test]
    fn projector_phase_acts_as_expected() {
        // Single ancilla: e^{iφ(2Π−I)} = diag over the ancilla value.
        let mut c = Circuit::new(2);
        append_projector_phase(&mut c, &[1], 0.7);
        let u = circuit_unitary(&c);
        let expect_zero = Complex64::from_polar(1.0, 0.7);
        let expect_one = Complex64::from_polar(1.0, -0.7);
        // Ancilla = qubit 1: indices 0,1 have ancilla 0; indices 2,3 ancilla 1.
        assert!((u[(0, 0)] - expect_zero).norm() < 1e-12);
        assert!((u[(1, 1)] - expect_zero).norm() < 1e-12);
        assert!((u[(2, 2)] - expect_one).norm() < 1e-12);
        assert!((u[(3, 3)] - expect_one).norm() < 1e-12);
    }
}
