//! HHL (Harrow–Hassidim–Lloyd) baseline solver.
//!
//! The paper's introduction positions the QSVT solver against the two other
//! standard quantum linear-system algorithms, HHL and VQLS, and its Ref. \[36\]
//! studies iterative refinement on top of HHL.  This module provides a
//! complete QPE-based HHL implementation on the `qls-sim` simulator so the
//! repository can reproduce that comparison as an extension experiment:
//!
//! 1. Quantum Phase Estimation of `U = e^{iAt}` on a clock register of `t`
//!    qubits (the controlled powers `U^{2^j}` are exact multi-qubit unitaries
//!    computed from the eigendecomposition of the symmetric matrix `A`);
//! 2. an eigenvalue-controlled rotation of the flag ancilla by
//!    `θ(λ̃) = 2 arcsin(C/λ̃)`;
//! 3. the inverse QPE, and post-selection of the flag on `|1⟩` with the clock
//!    back in `|0…0⟩`.
//!
//! HHL requires a Hermitian matrix; non-symmetric systems must be embedded
//! (`[[0, A], [Aᵀ, 0]]`) by the caller.  Accuracy is limited by the clock
//! resolution (ε ≈ 2^{-t}·κ), which is exactly the limitation that motivates
//! refining HHL iteratively (\[36\]) or switching to the QSVT.

use crate::error::QlsError;
use crate::solver::check_right_hand_side;
use num_complex::Complex64;
use qls_linalg::lu::LinalgError;
use qls_linalg::{Matrix, Svd, Vector};
use qls_qsvt::QsvtError;
use qls_sim::{CMatrix, Circuit, CompiledCircuit, Gate, StateVector};

/// Result of an HHL solve.
#[derive(Debug, Clone)]
pub struct HhlResult {
    /// Normalised solution direction.
    pub direction: Vector<f64>,
    /// Post-selection success probability (flag = 1, clock = 0).
    pub success_probability: f64,
    /// Total number of qubits simulated.
    pub total_qubits: usize,
    /// Gate count of the HHL circuit (without the flag flip that precedes
    /// the post-selection).
    pub gate_count: usize,
}

/// Eigendecomposition of a symmetric matrix derived from its SVD (signs of the
/// eigenvalues recovered through the Rayleigh quotient).
fn symmetric_eigen(a: &Matrix<f64>) -> (Vec<f64>, Matrix<f64>) {
    let svd = Svd::new(a);
    let n = a.nrows();
    let mut eigenvalues = Vec::with_capacity(n);
    for k in 0..n {
        let u = svd.u.col(k);
        let au = a.matvec(&u);
        eigenvalues.push(u.dot(&au));
    }
    (eigenvalues, svd.u.clone())
}

/// HHL solver for symmetric positive-definite (or symmetric with known-sign
/// spectrum) matrices.
///
/// `A` is fixed, so [`HhlSolver::new`] builds and compiles the whole
/// circuit once; [`HhlSolver::solve_direction`] only prepares `|b⟩`, runs
/// the compiled circuit and post-selects.
pub struct HhlSolver {
    /// The HHL circuit followed by the flag flip, compiled once.
    compiled: CompiledCircuit,
    /// Order of `A`.
    order: usize,
    /// Width `t` of the clock (phase-estimation) register.
    clock_qubits: usize,
    /// Gate count of the HHL circuit without the flag flip.
    gate_count: usize,
}

impl HhlSolver {
    /// Prepare the solver for a symmetric matrix with a `clock_qubits`-wide
    /// phase-estimation register.  The evolution time is `t = π / λ_max`,
    /// so every eigenphase `λ·t/(2π)` of a positive spectrum lies in
    /// `(0, 1/2]`, and the constant `C` of the rotation `sin θ/2 = C/λ` is
    /// `min |λ|`.
    ///
    /// A non-square `A` is a `LinalgError::NotSquare`; a non-symmetric `A`
    /// or an order that is not a power of two is a
    /// `QsvtError::InvalidInput`, and a singular `A` (an eigenvalue of
    /// exactly 0) a `QsvtError::SingularMatrix`.
    pub fn new(a: &Matrix<f64>, clock_qubits: usize) -> Result<Self, QlsError> {
        if !a.is_square() {
            return Err(QlsError::Linalg(LinalgError::NotSquare));
        }
        if !a.is_symmetric(1e-10) {
            return Err(QlsError::Qsvt(QsvtError::InvalidInput(
                "HHL needs a symmetric matrix; embed non-symmetric systems first",
            )));
        }
        if !a.nrows().is_power_of_two() {
            return Err(QlsError::Qsvt(QsvtError::InvalidInput(
                "HHL needs a power-of-two dimension",
            )));
        }
        let (eigenvalues, eigenvectors) = symmetric_eigen(a);
        let lambda_max = eigenvalues.iter().cloned().fold(f64::MIN, f64::max);
        let lambda_min_abs = eigenvalues.iter().map(|l| l.abs()).fold(f64::MAX, f64::min);
        if lambda_min_abs <= 0.0 {
            return Err(QlsError::Qsvt(QsvtError::SingularMatrix));
        }
        let evolution_time = std::f64::consts::PI / lambda_max;
        let mut circuit = hhl_circuit(
            &eigenvalues,
            &eigenvectors,
            evolution_time,
            lambda_min_abs,
            clock_qubits,
        );
        let gate_count = circuit.gate_count();
        // Flip the flag so that the "good" outcome (flag = 1, clock = 0) is
        // all-zeros for the post-selection.
        let n_data = a.nrows().trailing_zeros() as usize;
        circuit.x(n_data + clock_qubits);
        Ok(HhlSolver {
            compiled: CompiledCircuit::compile(&circuit),
            order: a.nrows(),
            clock_qubits,
            gate_count,
        })
    }

    /// Solve `A x = b`, returning the normalised solution direction.
    ///
    /// A `b` whose length differs from the order of `A` is a
    /// `LinalgError::DimensionMismatch`, and an all-zero `b` (there is no
    /// state `b/‖b‖` to prepare) a `QsvtError::InvalidInput`.
    pub fn solve_direction(&self, b: &Vector<f64>) -> Result<HhlResult, QlsError> {
        let dim = self.order;
        check_right_hand_side(b, dim)?;
        let n_data = dim.trailing_zeros() as usize;
        let total = n_data + self.clock_qubits + 1;

        // Embed |b⟩ on the data register.
        let mut b_normalised = b.clone();
        b_normalised.normalize();
        let mut amps = vec![Complex64::new(0.0, 0.0); 1usize << total];
        for i in 0..dim {
            amps[i] = Complex64::new(b_normalised[i], 0.0);
        }
        let mut sv = StateVector::from_amplitudes(amps);
        self.compiled.apply(&mut sv);

        // Post-select the flipped flag and the clock on |0…0⟩.
        let ancillas: Vec<usize> = (n_data..total).collect();
        let success = sv.project_zeros(&ancillas);

        let mut direction: Vector<f64> = (0..dim).map(|i| sv.amplitudes()[i].re).collect();
        let norm = direction.normalize();
        let success_probability = if norm > 0.0 { success } else { 0.0 };

        Ok(HhlResult {
            direction,
            success_probability,
            total_qubits: total,
            gate_count: self.gate_count,
        })
    }

    /// Relative error of the HHL direction for `A x = b` against the exact
    /// normalised solution: the oracle of the accuracy tests.
    #[cfg(test)]
    fn direction_error(&self, a: &Matrix<f64>, b: &Vector<f64>) -> f64 {
        let result = self.solve_direction(b).unwrap();
        let mut exact = Svd::new(a).pseudo_solve(b, 1e-14);
        exact.normalize();
        // Allow a global sign flip (the post-selected state has an arbitrary sign).
        let direct = (&result.direction - &exact).norm2();
        let flipped = (&result.direction.scaled(-1.0) - &exact).norm2();
        direct.min(flipped)
    }
}

/// The exact unitary `e^{iA·t}` as a dense matrix, from the
/// eigendecomposition `A = V diag(λ) Vᵀ`.
fn evolution_unitary(eigenvalues: &[f64], eigenvectors: &Matrix<f64>, t: f64) -> CMatrix {
    let n = eigenvalues.len();
    // U = V diag(e^{iλt}) Vᵀ.
    CMatrix::from_fn(n, n, |i, j| {
        let mut acc = Complex64::new(0.0, 0.0);
        for k in 0..n {
            let phase = Complex64::from_polar(1.0, eigenvalues[k] * t);
            acc += phase * eigenvectors[(i, k)] * eigenvectors[(j, k)];
        }
        acc
    })
}

/// Build the full HHL circuit for a prepared `|b⟩` on the data register:
/// phase estimation of `e^{iA·evolution_time}` on a `clock_qubits`-wide
/// clock, the eigenvalue-controlled rotation `sin θ/2 = C/λ̃` of the flag
/// (`C = rotation_constant`), and the inverse phase estimation.
///
/// Register layout (little-endian): data qubits `0..n`, clock qubits
/// `n..n+t`, rotation flag `n+t`.
fn hhl_circuit(
    eigenvalues: &[f64],
    eigenvectors: &Matrix<f64>,
    evolution_time: f64,
    rotation_constant: f64,
    clock_qubits: usize,
) -> Circuit {
    let n_data = eigenvalues.len().trailing_zeros() as usize;
    let t = clock_qubits;
    let flag = n_data + t;
    let total = n_data + t + 1;
    let mut circuit = Circuit::new(total);
    let unitary = |steps: f64| evolution_unitary(eigenvalues, eigenvectors, evolution_time * steps);

    // 1. Hadamards on the clock register.
    for q in n_data..n_data + t {
        circuit.h(q);
    }
    // 2. Controlled powers of U = e^{iAt}.
    for j in 0..t {
        let u_pow = unitary(2f64.powi(j as i32));
        let targets: Vec<usize> = (0..n_data).collect();
        circuit.controlled_gate(Gate::Unitary(u_pow), &targets, &[n_data + j]);
    }
    // 3. Inverse QFT on the clock register.
    circuit.append(&inverse_qft(n_data, t, total));
    // 4. Eigenvalue-controlled rotation of the flag.
    let dim_clock = 1usize << t;
    for k in 1..dim_clock {
        // Clock value k encodes the phase estimate φ = k / 2^t, i.e. the
        // eigenvalue λ̃ = 2π k / (2^t · t_evolution).
        let lambda =
            2.0 * std::f64::consts::PI * (k as f64) / ((dim_clock as f64) * evolution_time);
        let ratio = (rotation_constant / lambda).clamp(-1.0, 1.0);
        let theta = 2.0 * ratio.asin();
        if theta.abs() < 1e-14 {
            continue;
        }
        // Controls: clock register in state |k⟩.
        let controls: Vec<usize> = (0..t).map(|b| n_data + b).collect();
        let zero_controls: Vec<usize> = (0..t)
            .filter(|b| k & (1 << b) == 0)
            .map(|b| n_data + b)
            .collect();
        for &q in &zero_controls {
            circuit.x(q);
        }
        circuit.controlled_gate(Gate::Ry(theta), &[flag], &controls);
        for &q in &zero_controls {
            circuit.x(q);
        }
    }
    // 5. Un-compute the phase estimation (QFT, controlled U^{-2^j}, H's).
    circuit.append(&inverse_qft(n_data, t, total).adjoint());
    for j in (0..t).rev() {
        let u_pow = unitary(-(2f64.powi(j as i32)));
        let targets: Vec<usize> = (0..n_data).collect();
        circuit.controlled_gate(Gate::Unitary(u_pow), &targets, &[n_data + j]);
    }
    for q in n_data..n_data + t {
        circuit.h(q);
    }
    circuit
}

/// Inverse quantum Fourier transform on the clock register
/// (`qubits n_data .. n_data + t`), embedded in a `total`-qubit circuit.
fn inverse_qft(n_data: usize, t: usize, total: usize) -> Circuit {
    let mut circuit = Circuit::new(total);
    // Standard QFT† with the clock register in little-endian order.
    for i in (0..t).rev() {
        for j in (i + 1..t).rev() {
            let angle = -std::f64::consts::PI / 2f64.powi((j - i) as i32);
            circuit.cphase(n_data + j, n_data + i, angle);
        }
        circuit.h(n_data + i);
    }
    // Reverse the qubit order.
    for i in 0..t / 2 {
        circuit.swap(n_data + i, n_data + t - 1 - i);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_linalg::generate::{
        random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn solves_diagonal_system() {
        // Eigenvalues chosen to be exactly representable by the clock register.
        let a = Matrix::from_diag(&[1.0, 0.5]);
        let b = Vector::from_f64_slice(&[1.0, 1.0]);
        let solver = HhlSolver::new(&a, 6).unwrap();
        let err = solver.direction_error(&a, &b);
        assert!(err < 5e-2, "direction error {err}");
        let result = solver.solve_direction(&b).unwrap();
        assert!(result.success_probability > 0.0);
        assert_eq!(result.total_qubits, 1 + 6 + 1);
    }

    #[test]
    fn solves_small_spd_system() {
        let mut rng = ChaCha8Rng::seed_from_u64(171);
        let a = random_matrix_with_cond(
            4,
            4.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::SymmetricPositiveDefinite,
            &mut rng,
        );
        let b = random_unit_vector(4, &mut rng);
        let solver = HhlSolver::new(&a, 7).unwrap();
        let err = solver.direction_error(&a, &b);
        assert!(err < 0.1, "direction error {err}");
    }

    #[test]
    fn more_clock_qubits_improve_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(172);
        let a = random_matrix_with_cond(
            2,
            3.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::SymmetricPositiveDefinite,
            &mut rng,
        );
        let b = random_unit_vector(2, &mut rng);
        let coarse = HhlSolver::new(&a, 4).unwrap().direction_error(&a, &b);
        let fine = HhlSolver::new(&a, 8).unwrap().direction_error(&a, &b);
        assert!(fine <= coarse + 1e-9, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn rejects_nonsymmetric_matrix() {
        let a = Matrix::from_f64_slice(2, 2, &[1.0, 0.5, 0.0, 1.0]);
        assert!(matches!(
            HhlSolver::new(&a, 6),
            Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
        ));
    }

    #[test]
    fn rejects_matrices_it_cannot_prepare() {
        let non_square = Matrix::from_f64_slice(2, 4, &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        assert!(matches!(
            HhlSolver::new(&non_square, 6),
            Err(QlsError::Linalg(LinalgError::NotSquare))
        ));
        let order_three = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            HhlSolver::new(&order_three, 6),
            Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
        ));
        let singular = Matrix::from_diag(&[1.0, 0.0]);
        assert!(matches!(
            HhlSolver::new(&singular, 6),
            Err(QlsError::Qsvt(QsvtError::SingularMatrix))
        ));
    }

    #[test]
    fn rejects_right_hand_sides_it_cannot_prepare() {
        let solver =
            HhlSolver::new(&Matrix::from_diag(&[1.0, 0.5]), 6).expect("diagonal SPD system");
        for short_or_long in [vec![1.0], vec![1.0, 1.0, 1.0]] {
            assert!(matches!(
                solver.solve_direction(&Vector::from_f64_slice(&short_or_long)),
                Err(QlsError::Linalg(LinalgError::DimensionMismatch))
            ));
        }
        assert!(matches!(
            solver.solve_direction(&Vector::zeros(2)),
            Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
        ));
    }

    #[test]
    fn solve_direction_never_recompiles() {
        let a = Matrix::from_diag(&[1.0, 0.5]);
        let solver = HhlSolver::new(&a, 6).expect("diagonal SPD system");
        let b = Vector::from_f64_slice(&[1.0, 1.0]);
        let before = qls_sim::circuit_compile_count();
        let first = solver.solve_direction(&b).unwrap();
        let second = solver.solve_direction(&b).unwrap();
        assert_eq!(qls_sim::circuit_compile_count(), before);
        assert_eq!(first.direction, second.direction);
        assert_eq!(first.success_probability, second.success_probability);
    }
}
