//! FABLE-style block-encoding with threshold compression.
//!
//! The Fast Approximate BLock-Encoding of Camps & Van Beeumen (the paper's
//! Ref. \[10\]) encodes an arbitrary `2^n × 2^n` matrix using `n` extra "row"
//! qubits and one flag qubit: Hadamards spread the row register over all
//! indices, one multiplexed rotation per matrix entry writes `a_ij` into the
//! flag amplitude, and a register swap plus the inverse Hadamards collect the
//! result.  Entries below a compression threshold are simply skipped, trading
//! a controlled approximation error for a smaller circuit — the property that
//! gives FABLE its "approximate" name and that the paper highlights as a way
//! to cut the `O(4^n)` gate cost of dense encodings.
//!
//! The multiplexed rotations are realised here as one multi-controlled Ry per
//! retained entry (`2n` controls).  This is gate-count-pessimistic compared to
//! the Gray-code decomposition of the original FABLE paper but functionally
//! identical; the resource model in `qls-core` uses the published asymptotic
//! counts.

use crate::block_encoding::BlockEncoding;
use qls_linalg::Matrix;
use qls_sim::{Circuit, Gate};

/// FABLE-style block-encoding of a real matrix.
#[derive(Debug, Clone)]
pub struct FableBlockEncoding {
    circuit: Circuit,
    num_data_qubits: usize,
    num_ancilla_qubits: usize,
    alpha: f64,
}

impl FableBlockEncoding {
    /// Build the encoding of `A`, skipping entries with `|a_ij| < threshold ·
    /// max|a_ij|` (pass `threshold = 0.0` for the exact encoding).
    pub fn new(a: &Matrix<f64>, threshold: f64) -> Self {
        assert!(a.is_square(), "FABLE needs a square matrix");
        let dim = a.nrows();
        let max_abs = a.norm_max();
        Self::from_entries(
            dim,
            max_abs,
            threshold,
            (0..dim).flat_map(|i| a.row(i).iter().enumerate().map(move |(j, &v)| (i, j, v))),
        )
    }

    /// The builder behind [`FableBlockEncoding::new`]: one multiplexed
    /// rotation per retained entry, entries visited in row-major order.
    /// `max_abs` must be the maximum absolute entry of the matrix.
    fn from_entries(
        dim: usize,
        max_abs: f64,
        threshold: f64,
        entries: impl Iterator<Item = (usize, usize, f64)>,
    ) -> Self {
        assert!(dim.is_power_of_two(), "matrix dimension must be 2^n");
        let n = dim.trailing_zeros() as usize;

        // Scale so that all entries are in [-1, 1].
        let max_abs = max_abs.max(1e-300);
        let scale = if max_abs > 1.0 { max_abs } else { 1.0 };
        // Sub-normalisation: the encoded block is A / (2^n * scale).
        let alpha = (dim as f64) * scale;

        let total = 2 * n + 1;
        let flag = 2 * n;
        let col_qubits: Vec<usize> = (0..n).collect();
        let row_qubits: Vec<usize> = (n..2 * n).collect();

        let mut circuit = Circuit::new(total);
        // Spread the row register.
        for &q in &row_qubits {
            circuit.h(q);
        }

        // One multiplexed rotation per retained entry.
        let cutoff = threshold * max_abs;
        for (i, j, value) in entries {
            let entry = value / scale;
            if value.abs() <= cutoff || entry == 0.0 {
                continue;
            }
            let theta = 2.0 * entry.clamp(-1.0, 1.0).asin();
            // Controls: row register holds i, column register holds j.
            let mut controls: Vec<usize> = Vec::with_capacity(2 * n);
            let mut zero_controls: Vec<usize> = Vec::new();
            for (bit, &q) in row_qubits.iter().enumerate() {
                controls.push(q);
                if i & (1 << bit) == 0 {
                    zero_controls.push(q);
                }
            }
            for (bit, &q) in col_qubits.iter().enumerate() {
                controls.push(q);
                if j & (1 << bit) == 0 {
                    zero_controls.push(q);
                }
            }
            for &q in &zero_controls {
                circuit.x(q);
            }
            circuit.controlled_gate(Gate::Ry(theta), &[flag], &controls);
            for &q in &zero_controls {
                circuit.x(q);
            }
        }

        // Route the selected row into the data register and fold the flag so
        // that the "good" branch is |0⟩ on every ancilla.
        for q in 0..n {
            circuit.swap(q, q + n);
        }
        for &q in &row_qubits {
            circuit.h(q);
        }
        circuit.x(flag);

        FableBlockEncoding {
            circuit,
            num_data_qubits: n,
            num_ancilla_qubits: n + 1,
            alpha,
        }
    }
}

impl BlockEncoding for FableBlockEncoding {
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
        "FABLE (threshold-compressed)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_encoding::{verify_block_encoding, BlockEncodingExt};
    use qls_linalg::poisson_1d;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encodes_2x2_matrix_exactly() {
        let a = Matrix::from_f64_slice(2, 2, &[0.5, -0.25, 0.75, 0.1]);
        let be = FableBlockEncoding::new(&a, 0.0);
        assert_eq!(be.num_data_qubits(), 1);
        assert_eq!(be.num_ancilla_qubits(), 2);
        assert!((be.alpha() - 2.0).abs() < 1e-14);
        assert!(
            verify_block_encoding(&be, &a) < 1e-11,
            "error {}",
            be.encoding_error(&a)
        );
    }

    #[test]
    fn encodes_4x4_random_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(121);
        let a = Matrix::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let be = FableBlockEncoding::new(&a, 0.0);
        assert!((be.alpha() - 4.0).abs() < 1e-14);
        assert!(
            verify_block_encoding(&be, &a) < 1e-10,
            "error {}",
            be.encoding_error(&a)
        );
    }

    #[test]
    fn rescales_matrices_with_large_entries() {
        let a = Matrix::from_f64_slice(2, 2, &[3.0, 0.0, 0.0, -2.0]);
        let be = FableBlockEncoding::new(&a, 0.0);
        // alpha = 2^n * max|a_ij| = 2 * 3.
        assert!((be.alpha() - 6.0).abs() < 1e-12);
        assert!(verify_block_encoding(&be, &a) < 1e-11);
    }

    #[test]
    fn sparse_matrix_skips_zero_entries() {
        let t = poisson_1d::<f64>(4, false).to_dense();
        let be = FableBlockEncoding::new(&t, 0.0);
        // The 4x4 Poisson matrix has 10 non-zero entries out of 16: one
        // multiplexed rotation each.
        let rotations = be
            .circuit()
            .operations()
            .iter()
            .filter(|op| matches!(op.gate, Gate::Ry(_)))
            .count();
        assert_eq!(rotations, 10);
        assert!(verify_block_encoding(&be, &t) < 1e-10);
    }

    #[test]
    fn compression_threshold_trades_gates_for_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(122);
        // A matrix with many small entries and a few large ones.
        let a = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                0.9
            } else {
                rng.gen_range(-0.05..0.05)
            }
        });
        let exact = FableBlockEncoding::new(&a, 0.0);
        let compressed = FableBlockEncoding::new(&a, 0.1);
        assert!(compressed.circuit().gate_count() < exact.circuit().gate_count());
        // The exact one is essentially error-free, the compressed one has a
        // small controlled error.
        assert!(exact.encoding_error(&a) < 1e-10);
        let err = compressed.encoding_error(&a);
        assert!(err > 0.0 && err < 0.1);
    }
}
