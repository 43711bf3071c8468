//! # qls-linalg
//!
//! Classical dense linear-algebra substrate for the mixed-precision
//! quantum-classical linear solver.
//!
//! The paper ("A mixed-precision quantum-classical algorithm for solving
//! linear systems", Koska–Baboulin–Gazda) relies on a classical processor for
//! several tasks: computing residuals and solution updates in high precision,
//! generating test matrices with prescribed condition numbers, recovering the
//! solution norm with Brent's method, and providing a reference solver (LU)
//! against which the hybrid solver is validated.  This crate provides all of
//! that, from scratch:
//!
//! * generic [`Real`] scalar abstraction over `f32` and `f64`, so the
//!   classical mixed-precision regime `u ≪ u_l` of the paper can be
//!   reproduced deterministically (the unit tests also instantiate it at a
//!   software-emulated reduced precision);
//! * dense [`Matrix`] and [`Vector`] types with
//!   the usual kernels (mat-vec, mat-mat, transpose, norms);
//! * the structured-operator layer ([`operator`]): the
//!   [`LinearOperator`] trait with two implementations — dense [`Matrix`]
//!   and CSR [`SparseMatrix`] (triplet builder, parallel row-partitioned
//!   SIMD SpMV, products bit-identical to the dense kernel) — so residuals,
//!   refinement and condition estimation run at O(nnz) on structured
//!   problems, with dense retained as the default and as the equivalence
//!   oracle;
//! * the structured inner-solver layer ([`inner`]): the
//!   [`FactorizableOperator`] trait maps each
//!   operator to its natural low-precision correction solver — dense LU for
//!   [`Matrix`]; for CSR, the O(N) Thomas factorisation (with pivot
//!   breakdown detection and dense-LU rescue) whenever every stored entry
//!   lies within one diagonal of the main one, and otherwise
//!   Jacobi-preconditioned CG / BiCGSTAB — so
//!   no classical refinement path densifies an O(N²) matrix above the
//!   small-N fallback threshold
//!   ([`DENSIFY_FALLBACK_MAX`]);
//! * LU factorisation with partial pivoting ([`lu`]), Householder QR ([`qr`]),
//!   one-sided Jacobi SVD ([`svd`]) and condition-number computation ([`cond`],
//!   including the matrix-free Lanczos estimate
//!   [`cond_2_estimate`], robust on clustered
//!   spectra where a shifted power iteration stalls);
//! * matrix generators ([`generate`]): random matrices with prescribed
//!   condition number / singular-value distribution, convection-diffusion
//!   operators and sparse graph Laplacians; the 1-D Poisson matrix of
//!   Eq. (7) of the paper and its 2-D and 3-D analogues are CSR matrices
//!   too ([`stencil`]: [`poisson_1d`], [`poisson_2d`], [`poisson_3d`]);
//! * classical fixed- and mixed-precision iterative refinement ([`refine`],
//!   Algorithm 1 of the paper, operator-generic) used as the CPU-only
//!   baseline;
//! * Brent's derivative-free 1-D minimisation and root finding ([`brent`]),
//!   used for the solution-norm recovery of Remark 2;
//! * the forward error and the scaled residual ω ([`error`],
//!   operator-generic).

pub mod brent;
pub mod cond;
pub mod error;
pub mod generate;
pub mod inner;
pub mod lu;
pub mod matrix;
pub mod operator;
#[cfg(test)]
mod precision;
pub mod qr;
pub mod refine;
pub mod scalar;
mod simd;
pub mod sparse;
pub mod stencil;
pub mod svd;
pub mod vector;

pub use brent::{brent_minimize, BrentResult};
pub use cond::{cond_2, cond_2_estimate};
pub use error::{forward_error, residual, scaled_residual};
pub use generate::{
    convection_diffusion_1d, convection_diffusion_2d, graph_laplacian, random_connected_graph,
    random_matrix_with_cond, random_unit_vector, shifted_graph_laplacian, MatrixEnsemble,
    SingularValueDistribution,
};
pub use inner::{
    BiCgStabSolver, ConjugateGradientSolver, DenseLuSolver, FactorizableOperator, InnerSolver,
    InnerSolverKind, ThomasFactorization, DENSIFY_FALLBACK_MAX,
};
pub use lu::LuFactorization;
pub use matrix::{par_map_pulled, Matrix};
pub use operator::LinearOperator;
pub use qr::QrFactorization;
pub use refine::{ClassicalRefiner, RefinementHistory, RefinementOptions, RefinementStatus};
pub use scalar::Real;
pub use sparse::SparseMatrix;
pub use stencil::{
    poisson_1d, poisson_1d_condition_number, poisson_2d, poisson_2d_condition_number,
    poisson_2d_rhs, poisson_3d, poisson_3d_condition_number, poisson_3d_rhs, poisson_rhs,
};
pub use svd::Svd;
pub use vector::Vector;
