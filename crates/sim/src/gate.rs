//! Quantum gates.
//!
//! The gate set covers everything the paper's circuits need: the Clifford+T
//! generators used by the block-encodings, arbitrary rotations for state
//! preparation and the QSVT projector-controlled phase operators
//! `e^{iφ(2Π−I)}`, and arbitrary k-qubit unitaries for the exact
//! unitary-dilation block-encoding used in emulation mode.

use crate::cmatrix::CMatrix;
use num_complex::Complex64;
use serde::{Deserialize, Serialize};

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

/// A quantum gate (without its placement on qubits — see
/// [`crate::circuit::Operation`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// S†.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// Rotation about X: `exp(-i θ X / 2)`.
    Rx(f64),
    /// Rotation about Y: `exp(-i θ Y / 2)`.
    Ry(f64),
    /// Rotation about Z: `exp(-i θ Z / 2)`.
    Rz(f64),
    /// Phase gate diag(1, e^{iφ}).
    Phase(f64),
    /// Global phase `e^{iφ} I` (1-qubit placement, needed by QSVT projector
    /// rotations).
    GlobalPhase(f64),
    /// SWAP of two qubits.
    Swap,
    /// Arbitrary unitary on `k = log2(dim)` qubits.
    Unitary(CMatrix),
}

impl Gate {
    /// Number of target qubits the gate acts on.
    pub(crate) fn arity(&self) -> usize {
        match self {
            Gate::Swap => 2,
            Gate::Unitary(m) => {
                let dim = m.nrows();
                debug_assert!(dim.is_power_of_two());
                dim.trailing_zeros() as usize
            }
            _ => 1,
        }
    }

    /// The gate's unitary matrix (dimension `2^arity`).
    pub fn matrix(&self) -> CMatrix {
        match self {
            Gate::Swap => {
                let mut m = CMatrix::zeros(4, 4);
                m[(0, 0)] = c(1., 0.);
                m[(1, 2)] = c(1., 0.);
                m[(2, 1)] = c(1., 0.);
                m[(3, 3)] = c(1., 0.);
                m
            }
            Gate::Unitary(m) => m.clone(),
            one_qubit => {
                let entries = one_qubit.matrix2().expect("a one-qubit named gate");
                CMatrix::from_vec(2, 2, entries.to_vec())
            }
        }
    }

    /// The row-major 2×2 matrix of a one-qubit named gate, on the stack:
    /// [`Gate::matrix`]'s entries without its allocation.  `None` for `Swap`
    /// and `Unitary`.
    pub(crate) fn matrix2(&self) -> Option<[Complex64; 4]> {
        let inv_sqrt2 = 1.0 / 2f64.sqrt();
        let zero = c(0., 0.);
        Some(match self {
            Gate::I => [c(1., 0.), zero, zero, c(1., 0.)],
            Gate::X => [zero, c(1., 0.), c(1., 0.), zero],
            Gate::Y => [zero, c(0., -1.), c(0., 1.), zero],
            Gate::Z => [c(1., 0.), zero, zero, c(-1., 0.)],
            Gate::H => [
                c(inv_sqrt2, 0.),
                c(inv_sqrt2, 0.),
                c(inv_sqrt2, 0.),
                c(-inv_sqrt2, 0.),
            ],
            Gate::S => [c(1., 0.), zero, zero, c(0., 1.)],
            Gate::Sdg => [c(1., 0.), zero, zero, c(0., -1.)],
            Gate::T => [
                c(1., 0.),
                zero,
                zero,
                c(
                    std::f64::consts::FRAC_1_SQRT_2,
                    std::f64::consts::FRAC_1_SQRT_2,
                ),
            ],
            Gate::Tdg => [
                c(1., 0.),
                zero,
                zero,
                c(
                    std::f64::consts::FRAC_1_SQRT_2,
                    -std::f64::consts::FRAC_1_SQRT_2,
                ),
            ],
            Gate::Rx(theta) => {
                let (s, cos) = (theta / 2.0).sin_cos();
                [c(cos, 0.), c(0., -s), c(0., -s), c(cos, 0.)]
            }
            Gate::Ry(theta) => {
                let (s, cos) = (theta / 2.0).sin_cos();
                [c(cos, 0.), c(-s, 0.), c(s, 0.), c(cos, 0.)]
            }
            Gate::Rz(theta) => {
                let half = theta / 2.0;
                [
                    Complex64::from_polar(1.0, -half),
                    zero,
                    zero,
                    Complex64::from_polar(1.0, half),
                ]
            }
            Gate::Phase(phi) => [c(1., 0.), zero, zero, Complex64::from_polar(1.0, *phi)],
            Gate::GlobalPhase(phi) => {
                let p = Complex64::from_polar(1.0, *phi);
                [p, zero, zero, p]
            }
            Gate::Swap | Gate::Unitary(_) => return None,
        })
    }

    /// The adjoint (inverse) gate.
    pub(crate) fn adjoint(&self) -> Gate {
        match self {
            Gate::I | Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::Swap => self.clone(),
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(p) => Gate::Phase(-p),
            Gate::GlobalPhase(p) => Gate::GlobalPhase(-p),
            Gate::Unitary(m) => Gate::Unitary(m.adjoint()),
        }
    }

    /// Short mnemonic used in circuit printouts and resource tables.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "i",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::Phase(_) => "p",
            Gate::GlobalPhase(_) => "gphase",
            Gate::Swap => "swap",
            Gate::Unitary(_) => "unitary",
        }
    }

    /// True for gates in the Clifford group (no T gates needed).
    pub(crate) fn is_clifford(&self) -> bool {
        matches!(
            self,
            Gate::I | Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::S | Gate::Sdg | Gate::Swap
        )
    }

    /// True for gates that carry a continuous parameter (and therefore need
    /// Solovay-Kitaev-style synthesis on fault-tolerant hardware).
    pub(crate) fn is_rotation(&self) -> bool {
        matches!(
            self,
            Gate::Rx(_) | Gate::Ry(_) | Gate::Rz(_) | Gate::Phase(_) | Gate::GlobalPhase(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_named_gates_are_unitary() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.3),
            Gate::Rz(2.1),
            Gate::Phase(0.4),
            Gate::GlobalPhase(1.1),
            Gate::Swap,
        ];
        for g in gates {
            assert!(g.matrix().is_unitary(1e-12), "{} is not unitary", g.name());
        }
    }

    #[test]
    fn adjoint_matrices_are_inverses() {
        let gates = vec![
            Gate::S,
            Gate::T,
            Gate::Rx(0.3),
            Gate::Ry(1.0),
            Gate::Rz(-0.8),
            Gate::Phase(2.0),
            Gate::H,
            Gate::Swap,
        ];
        for g in gates {
            let m = g.matrix();
            let madj = g.adjoint().matrix();
            let prod = m.matmul(&madj);
            assert!(
                prod.max_abs_diff(&CMatrix::identity(m.nrows())) < 1e-12,
                "{} adjoint failed",
                g.name()
            );
        }
    }

    #[test]
    fn pauli_algebra() {
        let x = Gate::X.matrix();
        let y = Gate::Y.matrix();
        let z = Gate::Z.matrix();
        // XY = iZ.
        let xy = x.matmul(&y);
        let mut iz = z.clone();
        iz.scale(Complex64::new(0.0, 1.0));
        assert!(xy.max_abs_diff(&iz) < 1e-14);
        // HZH = X.
        let h = Gate::H.matrix();
        let hzh = h.matmul(&z).matmul(&h);
        assert!(hzh.max_abs_diff(&x) < 1e-14);
    }

    #[test]
    fn t_squared_is_s() {
        let t = Gate::T.matrix();
        let s = Gate::S.matrix();
        assert!(t.matmul(&t).max_abs_diff(&s) < 1e-14);
    }

    #[test]
    fn rotation_composition() {
        // Rz(a) Rz(b) = Rz(a + b).
        let a = 0.31;
        let b = 1.17;
        let lhs = Gate::Rz(a).matrix().matmul(&Gate::Rz(b).matrix());
        let rhs = Gate::Rz(a + b).matrix();
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
        // Ry(2π) = -I.
        let full_turn = Gate::Ry(2.0 * std::f64::consts::PI).matrix();
        let mut minus_i = CMatrix::identity(2);
        minus_i.scale(Complex64::new(-1.0, 0.0));
        assert!(full_turn.max_abs_diff(&minus_i) < 1e-12);
    }

    #[test]
    fn phase_vs_rz_differ_by_global_phase() {
        // P(φ) = e^{iφ/2} Rz(φ).
        let phi = 0.9;
        let p = Gate::Phase(phi).matrix();
        let mut rz = Gate::Rz(phi).matrix();
        rz.scale(Complex64::from_polar(1.0, phi / 2.0));
        assert!(p.max_abs_diff(&rz) < 1e-12);
    }

    #[test]
    fn arity_and_classification() {
        assert_eq!(Gate::X.arity(), 1);
        assert_eq!(Gate::Swap.arity(), 2);
        assert_eq!(Gate::Unitary(CMatrix::identity(8)).arity(), 3);
        assert!(Gate::H.is_clifford());
        assert!(!Gate::T.is_clifford());
        assert!(Gate::Rz(0.1).is_rotation());
        assert!(!Gate::X.is_rotation());
    }
}
