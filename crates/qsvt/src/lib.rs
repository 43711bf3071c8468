//! # qls-qsvt
//!
//! The Quantum Singular Value Transformation (QSVT) layer of the
//! reproduction: everything between "a block-encoding of `A†` exists" and
//! "a vector proportional to `A⁻¹ b` comes out".
//!
//! * [`qsp`] — scalar Quantum Signal Processing: the single-qubit model whose
//!   polynomial the QSVT lifts to matrices, used to define and verify phase
//!   factors.
//! * [`phases`] — symmetric-QSP phase-factor computation (the paper's Ref.
//!   \[13\] route, used for small condition numbers).
//! * [`circuit`] — the QSVT operator of Eqs. (2)–(3): alternating
//!   block-encoding calls and projector-controlled phase rotations, plus the
//!   real-part extraction ancilla.
//! * [`solve`] — [`QsvtInverter`]: applies the Eq. (4) matrix-inversion
//!   polynomial to a right-hand side, either through the full simulated
//!   circuit or through the ideal-output emulation path used for the
//!   convergence experiments (see DESIGN.md).

pub mod circuit;
pub mod phases;
pub mod qsp;
pub mod solve;

pub use circuit::QsvtCircuit;
pub use phases::{
    find_phases, find_phases_cached, phase_generation_count, PhaseError, PhaseFindingOptions,
    QspPhases,
};
pub use qsp::{qsp_polynomial, qsp_real_polynomial, qsp_unitary};
pub use solve::{QsvtError, QsvtInverter, QsvtMode, QsvtResources};
