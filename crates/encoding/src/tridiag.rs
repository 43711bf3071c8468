//! Block-encoding of the 1-D Poisson (tridiagonal) matrix of Eq. (7).
//!
//! Section III-C4 of the paper solves the finite-difference Poisson equation
//! and uses the analytic block-encoding of Ty et al. (Ref. \[37\], the circuit
//! of the paper's Fig. 2), whose cost is `O(n)` primitive gates at
//! double-logarithmic depth and which "requires no classical cost" because the
//! circuit is known in closed form.
//!
//! **Substitution note:** the concrete circuit simulated here
//! is built from the generic LCU machinery applied to the (structured, 5-term)
//! Pauli-like decomposition of the tridiagonal matrix; the *resource model*
//! exposed by [`TridiagBlockEncoding::analytic_resources`] follows the
//! published counts of Ref. \[37\] so the Table-II reproduction reports the
//! costs the paper's use case assumes.  Both describe the same encoded
//! operator, `tridiag(-1, 2, -1)/α`; only the gate-level realisation differs.

use crate::block_encoding::BlockEncoding;
use crate::lcu::LcuBlockEncoding;
use qls_linalg::{poisson_1d, Matrix, SparseMatrix};
use qls_sim::Circuit;

/// Analytic gate-count model of the Fig. 2 / Ref. \[37\] tridiagonal
/// block-encoding.
#[derive(Debug, Clone, Copy)]
pub struct TridiagAnalyticResources {
    /// Number of data qubits n.
    pub data_qubits: usize,
    /// Ancilla qubits used by the published circuit.
    pub ancilla_qubits: usize,
    /// Primitive (CNOT + single-qubit) gate count, O(n).
    pub primitive_gates: usize,
    /// Circuit depth, O(log²(n)) ("double-logarithmic" in the matrix size N).
    pub depth: usize,
    /// T-gate estimate for the fault-tolerant cost rows of Table II.
    pub t_count: usize,
}

/// Block-encoding of the `N = 2^n` Poisson matrix `tridiag(-1, 2, -1)`
/// (unscaled stencil; the `1/h²` factor of Eq. (7) is a scalar the classical
/// side tracks separately since block-encodings are insensitive to positive
/// rescaling of the right-hand side and solution).
#[derive(Debug, Clone)]
pub struct TridiagBlockEncoding {
    inner: LcuBlockEncoding,
    data_qubits: usize,
    matrix: SparseMatrix<f64>,
}

impl TridiagBlockEncoding {
    /// Build the encoding for `n` data qubits (matrix order `N = 2^n`).
    pub fn new(n: usize) -> Self {
        // The Poisson matrix is symmetric, so A† = A and the same encoding
        // serves the QSVT of A†.
        Self::from_tridiagonal(&poisson_1d::<f64>(1 << n, false))
    }

    /// Build the encoding of an arbitrary tridiagonal CSR matrix **directly
    /// from its stored entries** — no dense round-trip: the Pauli
    /// decomposition walks the `n + 1` occupied XOR diagonals only, so the
    /// classical preprocessing is `O(4^n)` instead of the dense `O(8^n)`.
    /// The matrix must be square of order a power of two (`N = 2^n`,
    /// `n ≥ 1`).
    ///
    /// The encoded operator is `T` itself; for a nonsymmetric `T` inside a
    /// QSVT-of-`A†` pipeline, pass its transpose.
    pub(crate) fn from_tridiagonal(t: &SparseMatrix<f64>) -> Self {
        let order = t.nrows();
        assert!(
            order == t.ncols() && order >= 2 && order.is_power_of_two(),
            "tridiagonal order must be 2^n with n >= 1"
        );
        let n = order.trailing_zeros() as usize;
        let inner = LcuBlockEncoding::of_tridiagonal(t, 1e-14);
        TridiagBlockEncoding {
            inner,
            data_qubits: n,
            matrix: t.clone(),
        }
    }

    /// The dense matrix being encoded (for verification and the classical
    /// reference solve).
    pub fn dense_matrix(&self) -> Matrix<f64> {
        self.matrix.to_dense()
    }

    /// The analytic resource counts of the published circuit (Ref. \[37\]),
    /// used by the Table-II cost model.
    pub fn analytic_resources(&self) -> TridiagAnalyticResources {
        let n = self.data_qubits;
        // Ref. [37]: O(n) multi-controlled gates realised with conditionally
        // clean ancillae ([24]) → ≈ 16n T per layer, 3 layers (shift, shift†,
        // diagonal), depth O(log² n).
        let primitive = 30 * n + 20;
        let depth = {
            let ln = ((n.max(2)) as f64).log2().ceil() as usize;
            (ln * ln).max(1) * 8
        };
        TridiagAnalyticResources {
            data_qubits: n,
            ancilla_qubits: 2,
            primitive_gates: primitive,
            depth,
            t_count: 48 * n + 28,
        }
    }
}

impl BlockEncoding for TridiagBlockEncoding {
    fn num_data_qubits(&self) -> usize {
        self.inner.num_data_qubits()
    }
    fn num_ancilla_qubits(&self) -> usize {
        self.inner.num_ancilla_qubits()
    }
    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }
    fn circuit(&self) -> &Circuit {
        self.inner.circuit()
    }
    fn method_name(&self) -> &'static str {
        "tridiagonal (Poisson) block-encoding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_encoding::verify_block_encoding;

    #[test]
    fn encodes_poisson_matrix_for_two_and_three_qubits() {
        for n in [2usize, 3] {
            let be = TridiagBlockEncoding::new(n);
            let reference = be.dense_matrix();
            assert_eq!(be.num_data_qubits(), n);
            let err = verify_block_encoding(&be, &reference);
            assert!(err < 1e-9, "n = {n}: encoding error {err}");
        }
    }

    #[test]
    fn alpha_at_least_spectral_norm() {
        let be = TridiagBlockEncoding::new(3);
        let norm = qls_linalg::Svd::new(&be.dense_matrix()).norm2();
        assert!(be.alpha() >= norm - 1e-10);
        // The spectrum of tridiag(-1,2,-1) lies in (0,4).
        assert!(norm < 4.0);
    }

    #[test]
    fn analytic_resources_scale_linearly() {
        let r3 = TridiagBlockEncoding::new(3).analytic_resources();
        let r6 = TridiagBlockEncoding::new(6).analytic_resources();
        assert!(r6.primitive_gates > r3.primitive_gates);
        assert!(r6.t_count > r3.t_count);
        // O(n): doubling n roughly doubles the primitive gate count.
        let ratio = r6.primitive_gates as f64 / r3.primitive_gates as f64;
        assert!(ratio < 3.0);
        // Depth grows much slower than the gate count (polylog).
        assert!(r6.depth < r6.primitive_gates);
    }

    #[test]
    fn general_tridiagonal_constructor_encodes_without_densifying() {
        // A nonsymmetric, non-Toeplitz tridiagonal through the structured
        // constructor: the encoded block must match the dense reference.
        let t = SparseMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.5),
                (0, 1, -0.3),
                (1, 0, 0.4),
                (1, 1, -0.5),
                (1, 2, 0.8),
                (2, 1, -0.9),
                (2, 2, 2.0),
                (2, 3, -1.2),
                (3, 2, 1.1),
                (3, 3, 0.75),
            ],
        );
        let be = TridiagBlockEncoding::from_tridiagonal(&t);
        assert_eq!(be.num_data_qubits(), 2);
        assert_eq!(be.dense_matrix(), t.to_dense());
        let err = verify_block_encoding(&be, &t.to_dense());
        assert!(err < 1e-9, "encoding error {err}");
    }

    #[test]
    fn structured_poisson_constructor_matches_new() {
        // `new(n)` now routes through the diagonal-driven decomposition;
        // the encoded operator must still be the Poisson matrix.
        let from_t =
            TridiagBlockEncoding::from_tridiagonal(&qls_linalg::poisson_1d::<f64>(8, false));
        let via_new = TridiagBlockEncoding::new(3);
        assert_eq!(from_t.alpha(), via_new.alpha());
        assert_eq!(
            from_t.circuit().gate_count(),
            via_new.circuit().gate_count()
        );
    }

    #[test]
    fn symmetric_matrix_means_adjoint_is_same() {
        let be = TridiagBlockEncoding::new(2);
        let dense = be.dense_matrix();
        assert!(dense.is_symmetric(1e-12));
    }
}
