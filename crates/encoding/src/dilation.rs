//! Exact unitary-dilation block-encoding.
//!
//! For any matrix `A` with `‖A‖₂ ≤ α` the Halmos dilation
//!
//! ```text
//!       ⎡  A/α              √(I − (A/α)(A/α)†) ⎤
//!  U =  ⎢                                      ⎥
//!       ⎣ √(I − (A/α)†(A/α))        −(A/α)†    ⎦
//! ```
//!
//! is unitary and block-encodes `A/α` with a **single ancilla qubit**.  The
//! square roots are computed classically from the SVD of `A`, and the whole
//! `2N × 2N` unitary enters the circuit as one multi-qubit gate.
//!
//! This is the block-encoding the QSVT inverter runs, in place of a
//! gate-level construction of `A†`: it is numerically exact and cheap to
//! simulate, which makes it the right substrate for the convergence
//! experiments (Figs. 3–5) where the paper itself treats the block-encoding as
//! a black box and counts only the number of calls to it.  Gate-level resource
//! estimates use the structured encodings (LCU / FABLE / tridiagonal) instead.

use crate::block_encoding::BlockEncoding;
use num_complex::Complex64;
use qls_linalg::{Matrix, Svd};
use qls_sim::{CMatrix, Circuit, Gate};

/// Exact one-ancilla block-encoding built from the SVD of `A`.
#[derive(Debug, Clone)]
pub struct DilationBlockEncoding {
    circuit: Circuit,
    num_data_qubits: usize,
    alpha: f64,
}

impl DilationBlockEncoding {
    /// Build the dilation of `A/α`.  `alpha` must satisfy `alpha ≥ ‖A‖₂`;
    /// passing `alpha = 0.0` selects `α = max(1, ‖A‖₂)` automatically.
    pub fn new(a: &Matrix<f64>, alpha: f64) -> Self {
        assert!(a.is_square(), "dilation needs a square matrix");
        let dim = a.nrows();
        assert!(dim.is_power_of_two(), "matrix dimension must be 2^n");
        let n = dim.trailing_zeros() as usize;

        let svd = Svd::new(a);
        let norm = svd.norm2();
        let alpha = if alpha <= 0.0 {
            norm.max(1.0)
        } else {
            assert!(
                alpha >= norm - 1e-12,
                "alpha = {alpha} is below the spectral norm {norm}"
            );
            alpha
        };

        // Contraction C = A/alpha = U_s (Σ/alpha) V_sᵀ.
        // √(I − C C†) = U_s √(I − (Σ/α)²) U_sᵀ, √(I − C†C) = V_s √(…) V_sᵀ.
        let scaled_sigma: Vec<f64> = svd.sigma.iter().map(|&s| s / alpha).collect();
        let sqrt_residual: Vec<f64> = scaled_sigma
            .iter()
            .map(|&s| (1.0 - s * s).max(0.0).sqrt())
            .collect();

        let u_s = &svd.u;
        let v_s = &svd.v;
        let with_diag = |q: &Matrix<f64>, d: &[f64]| -> Matrix<f64> {
            // q * diag(d) * qᵀ
            let mut qd = q.clone();
            for j in 0..dim {
                for i in 0..dim {
                    qd[(i, j)] *= d[j];
                }
            }
            qd.matmul(&q.transpose())
        };
        let c = {
            // U_s diag(σ/α) V_sᵀ
            let mut us = u_s.clone();
            for j in 0..dim {
                for i in 0..dim {
                    us[(i, j)] *= scaled_sigma[j];
                }
            }
            us.matmul(&v_s.transpose())
        };
        let top_right = with_diag(u_s, &sqrt_residual);
        let bottom_left = with_diag(v_s, &sqrt_residual);

        // Assemble the 2N x 2N unitary.  Ancilla = the highest qubit, so the
        // top-left block (ancilla 0 -> 0) is C.
        let full = CMatrix::from_fn(2 * dim, 2 * dim, |i, j| {
            let (bi, ii) = (i / dim, i % dim);
            let (bj, jj) = (j / dim, j % dim);
            let v = match (bi, bj) {
                (0, 0) => c[(ii, jj)],
                (0, 1) => top_right[(ii, jj)],
                (1, 0) => bottom_left[(ii, jj)],
                _ => -c[(jj, ii)], // −C† (real matrix: transpose)
            };
            Complex64::new(v, 0.0)
        });
        debug_assert!(full.is_unitary(1e-8), "dilation failed to be unitary");

        let mut circuit = Circuit::new(n + 1);
        let targets: Vec<usize> = (0..=n).collect();
        circuit.gate(Gate::Unitary(full), &targets);

        DilationBlockEncoding {
            circuit,
            num_data_qubits: n,
            alpha,
        }
    }

    /// Build a block-encoding of the **adjoint** `A†/α` (what the QSVT-based
    /// linear solver actually consumes, per Section II-A4 of the paper).
    pub fn of_adjoint(a: &Matrix<f64>, alpha: f64) -> Self {
        Self::new(&a.transpose(), alpha)
    }
}

impl BlockEncoding for DilationBlockEncoding {
    fn num_data_qubits(&self) -> usize {
        self.num_data_qubits
    }
    fn num_ancilla_qubits(&self) -> usize {
        1
    }
    fn alpha(&self) -> f64 {
        self.alpha
    }
    fn circuit(&self) -> &Circuit {
        &self.circuit
    }
    fn method_name(&self) -> &'static str {
        "unitary dilation (exact, emulation mode)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_encoding::{verify_block_encoding, BlockEncodingExt};
    use qls_linalg::generate::{
        random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn encodes_diagonal_matrix_exactly() {
        let a = Matrix::from_diag(&[0.9, -0.5]);
        let be = DilationBlockEncoding::new(&a, 1.0);
        assert_eq!(be.num_ancilla_qubits(), 1);
        assert_eq!(be.alpha(), 1.0);
        assert!(verify_block_encoding(&be, &a) < 1e-12);
    }

    #[test]
    fn encodes_random_matrix_with_automatic_alpha() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let a = random_matrix_with_cond(
            8,
            20.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let be = DilationBlockEncoding::new(&a, 0.0);
        assert!(be.alpha() >= 1.0);
        assert!(verify_block_encoding(&be, &a) < 1e-10);
    }

    #[test]
    fn adjoint_encoding_encodes_transpose() {
        let a = Matrix::from_f64_slice(2, 2, &[0.1, 0.7, -0.3, 0.2]);
        let be = DilationBlockEncoding::of_adjoint(&a, 1.0);
        assert!(verify_block_encoding(&be, &a.transpose()) < 1e-12);
    }

    #[test]
    fn larger_alpha_shrinks_encoded_block() {
        let a = Matrix::from_diag(&[0.5, 0.25]);
        let be2 = DilationBlockEncoding::new(&a, 2.0);
        let block = be2.encoded_matrix();
        // encoded_matrix multiplies back by alpha, so it must equal A again.
        assert!(block.max_abs_diff(&CMatrix::from_real(&a)) < 1e-12);
        // And the raw block is A/2.
        let raw = qls_sim::circuit_unitary(be2.circuit()).block(0, 0, 2, 2);
        assert!((raw[(0, 0)].re - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn alpha_below_norm_rejected() {
        let a = Matrix::from_diag(&[0.9, 0.1]);
        let _ = DilationBlockEncoding::new(&a, 0.5);
    }
}
