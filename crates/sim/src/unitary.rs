//! Extraction of the full unitary matrix of a circuit.
//!
//! Block-encodings are *defined* by a property of the circuit's unitary
//! (`A/α` sits in the top-left block), so verification and the exact
//! emulation path both need the dense unitary.  This is only feasible for
//! small registers (the cost is `2^n` circuit runs of `2^n` amplitudes), which
//! matches the paper's experimental regime (n = 4 data qubits plus a few
//! ancillas).

use crate::circuit::Circuit;
use crate::cmatrix::CMatrix;
use crate::executor::QuantumExecutor;
use crate::state::StateVector;

/// Compute the dense unitary implemented by a circuit by running it on every
/// computational basis state (columns of the unitary).
///
/// The circuit is optimized and compiled exactly once
/// ([`QuantumExecutor::new`], default fusion), and the `2^n` basis columns go
/// through [`QuantumExecutor::run_batch`] in bounded chunks, so the
/// extraction gets both the fused sweeps and the engine's coarse-grained
/// register fan-out on multi-core machines while only a chunk of live
/// registers ever sits next to the `4^n` output matrix.
pub fn circuit_unitary(circuit: &Circuit) -> CMatrix {
    // 256 columns per batch: plenty of registers for the coarse-grained
    // fan-out, bounded transient allocation.
    const COLUMNS_PER_BATCH: usize = 256;
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    let executor = QuantumExecutor::new(circuit);
    let mut u = CMatrix::zeros(dim, dim);
    for chunk_start in (0..dim).step_by(COLUMNS_PER_BATCH) {
        let chunk_end = (chunk_start + COLUMNS_PER_BATCH).min(dim);
        let columns = executor.run_batch_vec(
            (chunk_start..chunk_end)
                .map(|col| StateVector::basis_state(n, col))
                .collect(),
        );
        for (offset, state) in columns.iter().enumerate() {
            for (row, &amp) in state.amplitudes().iter().enumerate() {
                u[(row, chunk_start + offset)] = amp;
            }
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use num_complex::Complex64;

    #[test]
    fn unitary_of_single_hadamard() {
        let mut c = Circuit::new(1);
        c.h(0);
        let u = circuit_unitary(&c);
        let expected = Gate::H.matrix();
        assert!(u.max_abs_diff(&expected) < 1e-14);
    }

    #[test]
    fn unitary_of_cnot() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let u = circuit_unitary(&c);
        // Little-endian: control = qubit 0, target = qubit 1.
        // |00>->|00>, |01>->|11>, |10>->|10>, |11>->|01>.
        let one = Complex64::new(1.0, 0.0);
        assert_eq!(u[(0, 0)], one);
        assert_eq!(u[(3, 1)], one);
        assert_eq!(u[(2, 2)], one);
        assert_eq!(u[(1, 3)], one);
        assert!(u.is_unitary(1e-13));
    }

    #[test]
    fn unitary_is_always_unitary_for_random_circuit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cry(0, 1, 0.9)
            .t(2)
            .ccx(0, 1, 2)
            .rz(1, -0.4)
            .swap(0, 2)
            .phase(2, 1.3);
        let u = circuit_unitary(&c);
        assert!(u.is_unitary(1e-12));
        // Adjoint circuit gives the adjoint unitary.
        let uadj = circuit_unitary(&c.adjoint());
        assert!(uadj.max_abs_diff(&u.adjoint()) < 1e-12);
    }

    #[test]
    fn apply_to_vector_matches_matrix_product() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.5);
        let u = circuit_unitary(&c);
        let input = vec![
            Complex64::new(0.3, 0.1),
            Complex64::new(-0.2, 0.0),
            Complex64::new(0.5, -0.4),
            Complex64::new(0.1, 0.2),
        ];
        let mut state = StateVector::from_amplitudes_unchecked(input.clone());
        state.apply_circuit(&c);
        let via_circuit = state.into_amplitudes();
        let via_matrix = u.matvec(&input);
        for (a, b) in via_circuit.iter().zip(&via_matrix) {
            assert!((a - b).norm() < 1e-13);
        }
    }
}
