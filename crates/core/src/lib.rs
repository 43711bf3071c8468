//! # qls-core
//!
//! The paper's contribution: a mixed-precision hybrid CPU/QPU linear-system
//! solver that computes a first solution with the QSVT at low accuracy ε_l and
//! refines it classically until a target accuracy ε is reached
//! (Koska–Baboulin–Gazda, "A mixed-precision quantum-classical algorithm for
//! solving linear systems").
//!
//! * [`solver`] — one QSVT solve (Remark 2 pipeline: normalise `b`, state
//!   preparation, QSVT of `A†`, readout, Brent norm recovery) with its
//!   per-solve cost record (degree, block-encoding calls, shots,
//!   state-preparation flops, Brent evaluations); Table II's classical
//!   costs are modelled in [`cost`].
//! * [`refine`] — Algorithm 2: the hybrid iterative-refinement loop, its
//!   convergence history, the Theorem III.1 bound, and the fault-recovery
//!   ladder (armed by [`HybridRefinementOptions::recovery`]: retry →
//!   escalate shots → tighten ε_l → classical fallback) with its audit log
//!   ([`RecoveryLog`]).
//! * [`error`] — the unified [`QlsError`] taxonomy (classical, quantum and
//!   non-finite boundary failures, with `source()` chains to the root cause).
//! * [`cost`] — the quantum cost model of Table I and the Poisson breakdown of
//!   Table II.
//! * `comms` — the CPU↔QPU communication timeline of Fig. 1
//!   ([`CommunicationSchedule`]).
//! * [`baselines`] — the classical LU reference and classical
//!   mixed-precision iterative refinement (Algorithm 1).  The paper's other
//!   comparison strategy, one direct high-precision QSVT solve, is a
//!   [`QsvtLinearSolver`] built at the target ε.
//! * [`hhl`] — a QPE-based HHL solver (extension baseline discussed in the
//!   paper's introduction).
//!
//! ## Example
//!
//! ```
//! use qls_core::{HybridRefiner, HybridRefinementOptions};
//! use qls_linalg::generate::{random_matrix_with_cond, random_unit_vector,
//!                            MatrixEnsemble, SingularValueDistribution};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let a = random_matrix_with_cond(
//!     16, 10.0,
//!     SingularValueDistribution::Geometric,
//!     MatrixEnsemble::General,
//!     &mut rng,
//! );
//! let b = random_unit_vector(16, &mut rng);
//!
//! let refiner = HybridRefiner::new(&a, HybridRefinementOptions {
//!     target_epsilon: 1e-10,
//!     epsilon_l: 1e-2,
//!     ..Default::default()
//! }).unwrap();
//! let (x, history) = refiner.solve(&b, &mut rng).unwrap();
//! assert!(history.final_residual() <= 1e-10);
//! assert!(history.iterations() <= history.iteration_bound().unwrap());
//! # let _ = x;
//! ```

pub mod baselines;
mod comms;
pub mod cost;
pub mod error;
pub mod hhl;
mod readout;
pub mod refine;
pub mod solver;

pub use baselines::classical_lu_solve;
pub use comms::{
    CommunicationParameters, CommunicationSchedule, Direction, Payload, TransferEvent,
};
pub use cost::{
    poisson_cost_breakdown, qsvt_degree_model, quantum_cost_comparison, CostParameters,
    PoissonCostParameters, PoissonCostRow, QuantumCostComparison, StrategyCost,
};
pub use error::QlsError;
pub use hhl::{HhlResult, HhlSolver};
pub use readout::sample_direction;
pub use refine::{
    FailureReason, HealthIssue, HybridHistory, HybridRefinementOptions, HybridRefiner,
    HybridStatus, HybridStep, RecoveryAction, RecoveryEvent, RecoveryLog, STAGNATION_WINDOW,
};
pub use solver::{QsvtLinearSolver, QsvtSolveResult, QsvtSolverOptions, SolveCost};
