//! The QSVT linear-system solver (one "QPU solve" of the paper).
//!
//! [`QsvtLinearSolver`] performs a single low-accuracy solve of `A x = b` the
//! way Algorithm 2 of the paper invokes its QPU:
//!
//! 1. normalise `b` (quantum algorithms operate on unit states — Remark 2);
//! 2. prepare the state, apply the QSVT of `A†` with the Eq. (4) polynomial
//!    (through `qls-qsvt`, either the simulated circuit or the ideal-output
//!    emulation), post-select the ancillas;
//! 3. read out the solution *direction* `η = x/‖x‖`, exactly or through a
//!    finite number of measurement shots (`O(1/ε_l²)` in the paper's model);
//! 4. recover the solution norm classically with Brent's method
//!    (`argmin_μ ‖A(μη) − b‖`) and return `x̃ = μ η`.
//!
//! Each solve records its quantum cost (polynomial degree, block-encoding
//! calls, shots), the flops of its state-preparation tree and its Brent
//! evaluations in a [`SolveCost`].  Table II's classical costs are modelled
//! in [`crate::cost`].

use crate::error::QlsError;
use crate::readout::sample_direction;
use qls_cache::CachePolicy;
use qls_encoding::StatePreparation;
use qls_linalg::lu::LinalgError;
use qls_linalg::{brent_minimize, LinearOperator, Matrix, Vector};
use qls_qsvt::{QsvtError, QsvtInverter, QsvtMode, QsvtResources};
use qls_sim::fault::{lock_injector, SharedFaultInjector};
use qls_sim::{shots_for_accuracy, ExecMode, OptLevel};
use rand::Rng;

/// Configuration of a QSVT solve; its accuracy ε_l is an argument of
/// [`QsvtLinearSolver::new`].
#[derive(Debug, Clone, Copy)]
pub struct QsvtSolverOptions {
    /// Execution mode for the quantum part.
    pub mode: QsvtMode,
    /// Number of measurement shots used to read out the solution direction;
    /// `None` reads the exact amplitudes from the simulator (noiseless
    /// readout, the regime of the paper's convergence plots).
    pub shots: Option<usize>,
    /// Iteration/evaluation budget of the Brent norm-recovery step.
    pub brent_tolerance: f64,
    /// Persistent artifact cache policy (`qls-cache`).  `Enabled` — the
    /// default — lets repeat constructions of the same solver (same matrix
    /// spectrum, accuracy, and options) load the QSVT phase factors and the
    /// fused circuit from disk instead of regenerating them; results are
    /// bit-identical either way.  `CachePolicy::Disabled` is the escape
    /// hatch that never reads or writes the cache directory.
    pub cache: CachePolicy,
}

impl Default for QsvtSolverOptions {
    fn default() -> Self {
        QsvtSolverOptions {
            mode: QsvtMode::Emulation,
            shots: None,
            brent_tolerance: 1e-12,
            cache: CachePolicy::default(),
        }
    }
}

/// Result of one QSVT solve.
#[derive(Debug, Clone)]
pub struct QsvtSolveResult {
    /// The recovered (de-normalised) solution `x̃ = μ η`.
    pub solution: Vector<f64>,
    /// The normalised direction `η` returned by the quantum routine.
    pub direction: Vector<f64>,
    /// The recovered norm `μ ≈ ‖x‖`.
    pub scale: f64,
    /// Ancilla post-selection success probability of the QSVT circuit.
    pub success_probability: f64,
    /// Per-solve cost record.
    pub cost: SolveCost,
}

/// Cost bookkeeping for a single solve.  Table II's classical costs (state
/// preparation, residual matvecs) are modelled in [`crate::cost`]
/// ([`crate::poisson_cost_breakdown`]).
#[derive(Debug, Clone, Copy)]
pub struct SolveCost {
    /// Degree of the inversion polynomial.
    pub polynomial_degree: usize,
    /// Calls to the block-encoding of `A†` (and its adjoint).
    pub block_encoding_calls: usize,
    /// Shots used for the readout (the model value when exact readout is used).
    pub shots: usize,
    /// Classical flops of the state-preparation preprocessing (tree build).
    pub state_prep_flops: usize,
    /// Classical evaluations used by the Brent norm recovery.
    pub brent_evaluations: usize,
}

/// A prepared QSVT solver for a fixed matrix.
///
/// Generic over the classical operator representation of `A`
/// ([`LinearOperator`], dense [`Matrix`] by default so existing callers
/// compile unchanged): the quantum side (SVD, block-encoding, compiled QSVT
/// circuit) is built once from the densified matrix in
/// [`QsvtLinearSolver::new`], while the one **per-solve classical matvec**,
/// `A·η` for the Brent norm recovery, runs through the operator at O(nnz).
/// The solver holds the solver stack's only copy of the operator;
/// `HybridRefiner` forms its residuals through it.
pub struct QsvtLinearSolver<Op: LinearOperator<f64> = Matrix<f64>> {
    operator: Op,
    inverter: QsvtInverter,
    options: QsvtSolverOptions,
}

impl<Op: LinearOperator<f64>> QsvtLinearSolver<Op> {
    /// Prepare the solver at accuracy `epsilon_l` (builds the inverse
    /// polynomial and, in circuit mode, the phase factors and the optimized,
    /// compiled-once QSVT circuit).
    /// The densification needed by the quantum-side construction happens here,
    /// once — never on the solve path.  A non-square `A`, an `ε_l` outside
    /// `(0, 1)`, a readout of `Some(0)` shots or, in circuit mode, an `N`
    /// that is not a power of two is a `QsvtError::InvalidInput`.
    pub fn new(a: &Op, epsilon_l: f64, options: QsvtSolverOptions) -> Result<Self, QlsError> {
        check_shots(options.shots)?;
        // The densified temporary is dropped before the operator is cloned,
        // so the dense default (`to_dense` = clone) never holds an extra
        // N² buffer beyond what the inverter keeps.
        let inverter = QsvtInverter::with_config(
            &a.to_dense(),
            epsilon_l,
            options.mode,
            OptLevel::Fuse,
            ExecMode::Flat,
            options.cache,
        )?;
        Ok(QsvtLinearSolver {
            operator: a.clone(),
            inverter,
            options,
        })
    }

    /// Attach a fault injector to the quantum side (see `qls_sim::fault`).
    /// Amplitude noise and transients degrade each inner solve; readout
    /// sign corruption composes with the finite-shot sampling path.
    pub(crate) fn attach_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.inverter.attach_fault_injector(injector);
    }

    /// The operator the solver was built for.
    pub(crate) fn operator(&self) -> &Op {
        &self.operator
    }

    /// The solver options.
    pub fn options(&self) -> &QsvtSolverOptions {
        &self.options
    }

    /// The condition number of the prepared matrix (from its SVD).
    pub fn kappa(&self) -> f64 {
        self.inverter.kappa()
    }

    /// Quantum-side resource description (degree, block-encoding calls, …),
    /// computed once when the solver was built.
    pub fn quantum_resources(&self) -> &QsvtResources {
        self.inverter.resources()
    }

    /// The circuit-optimizer's before/after report for the compiled QSVT
    /// circuit (`Some` only in circuit mode with fusion on).
    pub fn circuit_stats(&self) -> Option<&qls_sim::CircuitStats> {
        self.inverter.circuit_stats()
    }

    /// Solve `A x = b` once at accuracy ε_l.  `rng` is only used when shot
    /// sampling is enabled.
    pub fn solve<R: Rng>(&self, b: &Vector<f64>, rng: &mut R) -> Result<QsvtSolveResult, QlsError> {
        self.solve_with_shots(b, self.options.shots, rng)
    }

    /// [`QsvtLinearSolver::solve`] with a per-call shot override (`None`
    /// reads exact amplitudes; `Some(0)` is a `QsvtError::InvalidInput`).
    /// This is the recovery ladder's shot-escalation rung: the same prepared
    /// solver, more measurements.
    pub(crate) fn solve_with_shots<R: Rng>(
        &self,
        b: &Vector<f64>,
        shots: Option<usize>,
        rng: &mut R,
    ) -> Result<QsvtSolveResult, QlsError> {
        check_shots(shots)?;
        check_right_hand_side(b, self.operator.nrows())?;
        // Quantum solve: direction of the solution, through the compiled-once
        // circuit.
        let (direction, success_probability) = self.inverter.solve_direction(b)?;
        self.finish_solve(b, direction, success_probability, shots, rng)
    }

    /// Solve `A x = b_k` for **many** right-hand sides, reusing the one
    /// compiled QSVT circuit across the whole batch
    /// (`QsvtInverter::solve_direction_batch_checked`, which fans the
    /// registers out across threads in circuit mode).  Results are identical
    /// to calling [`QsvtLinearSolver::solve`] per right-hand side in order.
    /// Each system gets its own verdict: one wrong-length or all-zero
    /// right-hand side, failed post-selection or injected fault only fails
    /// that system, and every other system still returns its solution.
    pub(crate) fn solve_many<R: Rng>(
        &self,
        bs: &[Vector<f64>],
        rng: &mut R,
    ) -> Vec<Result<QsvtSolveResult, QlsError>> {
        let directions = self.inverter.solve_direction_batch_checked(bs);
        bs.iter()
            .zip(directions)
            .map(|(b, outcome)| {
                check_right_hand_side(b, self.operator.nrows())?;
                let (direction, success) = outcome?;
                self.finish_solve(b, direction, success, self.options.shots, rng)
            })
            .collect()
    }

    /// Classical pre/post-processing shared by the single and batched solve:
    /// state-preparation accounting, optional finite-shot readout (with a
    /// per-call shot override), Brent norm recovery (Remark 2) and the cost
    /// record.  Guards the readout boundary: a non-finite direction (e.g. a
    /// NaN-poisoned register from an injected fault) is reported as
    /// [`QlsError::NonFinite`] instead of leaking into the refinement loop.
    fn finish_solve<R: Rng>(
        &self,
        b: &Vector<f64>,
        mut direction: Vector<f64>,
        success_probability: f64,
        shots_override: Option<usize>,
        rng: &mut R,
    ) -> Result<QsvtSolveResult, QlsError> {
        // Classical pre-processing: the state-preparation tree of b/‖b‖.
        let prep = StatePreparation::new(b);
        let state_prep_flops = prep.classical_flops;

        // Optional finite-shot readout: perturb magnitudes with multinomial
        // sampling noise, keep the signs (sign recovery is assumed exact:
        // one extra circuit with a known phase reference provides them).
        // An attached fault injector's readout corruption composes with the
        // sampled path — sign flips model exactly the failure that
        // assumption rules out.  Exact readout records the shots the paper's model
        // prescribes for ε_l (`O(1/ε_l²)`).
        let shots =
            shots_override.unwrap_or_else(|| shots_for_accuracy(self.inverter.epsilon_l(), 1.0));
        if let Some(s) = shots_override {
            direction = sample_direction(&direction, s, rng);
            if let Some(inj) = self.inverter.fault_injector() {
                lock_injector(inj).corrupt_readout(direction.as_mut_slice());
            }
        }

        // Readout boundary guard: everything downstream (Brent, the
        // refiner's residual) assumes finite values.
        if !direction.iter().all(|v| v.is_finite()) {
            return Err(QlsError::NonFinite {
                boundary: "readout",
            });
        }

        // Classical post-processing: norm recovery (Remark 2).
        let a_eta = self.operator.matvec(&direction);
        let b_norm = b.norm2();
        let upper = if a_eta.norm2() > 0.0 {
            2.0 * b_norm / a_eta.norm2() * 2.0
        } else {
            1.0
        };
        let objective = |mu: f64| {
            let mut r = b.clone();
            r.axpy(-mu, &a_eta);
            let v = r.norm2();
            v * v
        };
        let brent = brent_minimize(
            objective,
            0.0,
            upper.max(1e-6),
            self.options.brent_tolerance,
            200,
        );
        let scale = brent.x;

        let solution = direction.scaled(scale);
        let resources = self.inverter.resources();

        Ok(QsvtSolveResult {
            solution,
            direction,
            scale,
            success_probability,
            cost: SolveCost {
                polynomial_degree: resources.degree,
                block_encoding_calls: resources.block_encoding_calls,
                shots,
                state_prep_flops,
                brent_evaluations: brent.evaluations,
            },
        })
    }
}

/// Reject a right-hand side whose length differs from the order `n` of the
/// system, or which is all zeros: there is no state `b/‖b‖` to prepare.
pub(crate) fn check_right_hand_side(b: &Vector<f64>, n: usize) -> Result<(), QlsError> {
    if b.len() != n {
        return Err(QlsError::Linalg(LinalgError::DimensionMismatch));
    }
    if b.iter().all(|&v| v == 0.0) {
        return Err(QlsError::Qsvt(QsvtError::InvalidInput(
            "zero right-hand side",
        )));
    }
    Ok(())
}

/// Reject a readout of zero shots: it has no counts to estimate magnitudes
/// from.
fn check_shots(shots: Option<usize>) -> Result<(), QlsError> {
    if shots == Some(0) {
        return Err(QlsError::Qsvt(QsvtError::InvalidInput(
            "a sampled readout needs at least one shot",
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_linalg::generate::{
        random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
    };
    use qls_linalg::lu::lu_solve;
    use qls_linalg::scaled_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system(kappa: f64, n: usize, seed: u64) -> (Matrix<f64>, Vector<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix_with_cond(
            n,
            kappa,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let b = random_unit_vector(n, &mut rng);
        (a, b)
    }

    #[test]
    fn single_solve_reaches_epsilon_l_accuracy() {
        let (a, b) = system(10.0, 16, 141);
        let solver = QsvtLinearSolver::new(&a, 1e-3, QsvtSolverOptions::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let result = solver.solve(&b, &mut rng).unwrap();
        // The scaled residual of a single low-accuracy solve is ≲ ε_l·κ.
        assert!(scaled_residual(&a, &result.solution, &b) < 1e-3 * 10.0 * 2.0);
        // And the solution is close to the LU reference.
        let reference = lu_solve(&a, &b).unwrap();
        let err = (&result.solution - &reference).norm2() / reference.norm2();
        assert!(err < 5e-3, "forward error {err}");
    }

    #[test]
    fn scale_recovery_matches_least_squares() {
        let (a, b) = system(5.0, 8, 142);
        let solver = QsvtLinearSolver::new(&a, 1e-4, QsvtSolverOptions::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let result = solver.solve(&b, &mut rng).unwrap();
        // Analytic optimum of min_mu ||mu * (A eta) - b||: mu = (A eta)·b / ||A eta||².
        let a_eta = a.matvec(&result.direction);
        let mu_star = a_eta.dot(&b) / a_eta.dot(&a_eta);
        assert!(
            (result.scale - mu_star).abs() / mu_star < 1e-5,
            "Brent {} vs analytic {mu_star}",
            result.scale
        );
    }

    #[test]
    fn shot_noise_degrades_gracefully() {
        let (a, b) = system(10.0, 16, 143);
        let exact = QsvtLinearSolver::new(
            &a,
            1e-4,
            QsvtSolverOptions {
                shots: None,
                ..Default::default()
            },
        )
        .unwrap();
        let sampled = QsvtLinearSolver::new(
            &a,
            1e-4,
            QsvtSolverOptions {
                shots: Some(200_000),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r_exact = exact.solve(&b, &mut rng).unwrap();
        let r_sampled = sampled.solve(&b, &mut rng).unwrap();
        let omega_exact = scaled_residual(&a, &r_exact.solution, &b);
        let omega_sampled = scaled_residual(&a, &r_sampled.solution, &b);
        assert!(omega_sampled >= omega_exact * 0.5);
        // With 2e5 shots the sampled solve is still a usable low-precision solve.
        assert!(omega_sampled < 0.1);
    }

    #[test]
    fn cost_record_is_populated() {
        let (a, b) = system(10.0, 16, 144);
        let solver = QsvtLinearSolver::new(&a, 1e-2, QsvtSolverOptions::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let result = solver.solve(&b, &mut rng).unwrap();
        assert!(result.cost.polynomial_degree > 0);
        assert_eq!(
            result.cost.block_encoding_calls,
            result.cost.polynomial_degree
        );
        assert_eq!(result.cost.shots, shots_for_accuracy(1e-2, 1.0));
        assert!(result.cost.state_prep_flops > 0);
        assert!(result.cost.brent_evaluations > 0);
        assert!(result.success_probability > 0.0);
    }
}
