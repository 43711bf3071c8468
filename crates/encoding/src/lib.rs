//! # qls-encoding
//!
//! Quantum data-loading substrate: state preparation and block-encodings.
//!
//! The QSVT linear solver of the paper needs two encodings of classical data
//! into quantum circuits (Section III-A):
//!
//! * **State preparation** — the right-hand side `b` (and, at every refinement
//!   iteration, the residual `r_i`) must be loaded as the amplitudes of a
//!   quantum state.  [`StatePreparation`] implements the tree-based method of
//!   Kerenidis–Prakash (the paper's Ref. \[23\]): a binary tree of partial norms
//!   computed classically in O(N), then a cascade of multiplexed Ry rotations.
//! * **Block-encoding** — the matrix `A†` must be embedded in the top-left
//!   block of a unitary `U` with `(⟨0|_a ⊗ I) U (|0⟩_a ⊗ I) = A†/α`.
//!   Four constructions are provided:
//!   [`lcu`] (Linear Combination of Unitaries over the Pauli decomposition of
//!   `A`, the paper's Refs. \[12\], \[25\]), [`fable`] (FABLE-style encoding with
//!   one ancilla per matrix dimension and threshold compression, Ref. \[10\]),
//!   [`tridiag`] (the Poisson tridiagonal matrix of Eq. (7), used by the
//!   Table-II use case), and [`dilation`] (an exact unitary-dilation
//!   encoding, the one the QSVT inverter runs; its module docs state the
//!   substitution).
//!
//! All encodings implement the [`BlockEncoding`] trait so the QSVT layer in
//! `qls-qsvt` is agnostic to which construction produced the circuit.  The
//! trait's `Ext` methods verify an encoding against its matrix; applying
//! one to a vector is [`block_encoding::embed_data`], a circuit run and
//! [`block_encoding::project_data`], which the QSVT inverter runs through
//! its compile-once `qls_sim::QuantumExecutor`.

pub mod block_encoding;
pub mod dilation;
pub mod fable;
pub mod lcu;
mod pauli;
mod state_prep;
pub mod tridiag;

pub use block_encoding::{BlockEncoding, BlockEncodingExt};
pub use dilation::DilationBlockEncoding;
pub use fable::FableBlockEncoding;
pub use lcu::LcuBlockEncoding;
pub use pauli::{PauliDecomposition, PauliString, PauliTerm};
pub use state_prep::StatePreparation;
pub use tridiag::TridiagBlockEncoding;
