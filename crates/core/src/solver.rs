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
//! The per-solve resource record (block-encoding calls, shots, classical
//! flops) feeds the cost model of [`crate::cost`].

use crate::error::QlsError;
use qls_cache::CachePolicy;
use qls_encoding::StatePreparation;
use qls_linalg::lu::LinalgError;
use qls_linalg::{brent_minimize, scaled_residual, LinearOperator, Matrix, Vector};
use qls_qsvt::{QsvtError, QsvtInverter, QsvtMode, QsvtResources};
use qls_sim::fault::{lock_injector, SharedFaultInjector};
use qls_sim::{shots_for_accuracy, ExecMode, OptLevel};
use rand::Rng;
use serde::Serialize;

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
    /// Circuit-optimization level of the compiled QSVT circuit (circuit mode
    /// only): the default `OptLevel::Fuse` runs gate fusion + diagonal
    /// merging before compiling; `OptLevel::None` keeps the compiled form
    /// one-op-per-gate (the unoptimized compile-once baseline the perf
    /// trajectory measures fusion against).
    pub opt_level: OptLevel,
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
            opt_level: OptLevel::default(),
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
    /// Scaled residual `‖b − A x̃‖/‖b‖` of the returned solution.
    pub scaled_residual: f64,
    /// Ancilla post-selection success probability of the QSVT circuit.
    pub success_probability: f64,
    /// Per-solve cost record.
    pub cost: SolveCost,
}

/// Cost bookkeeping for a single solve.
#[derive(Debug, Clone, Copy, Serialize)]
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
    /// Classical flops of the residual/verification mat-vec.
    pub classical_matvec_flops: usize,
}

/// A prepared QSVT solver for a fixed matrix.
///
/// Generic over the classical operator representation of `A`
/// ([`LinearOperator`], dense [`Matrix`] by default so existing callers
/// compile unchanged): the quantum side (SVD, block-encoding, compiled QSVT
/// circuit) is built once from the densified matrix in
/// [`QsvtLinearSolver::new`], while every **per-solve classical step** — the
/// Brent norm-recovery matvec and the residual check — runs through the
/// operator at O(nnz).
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
            options.opt_level,
            ExecMode::default(),
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
    pub fn attach_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.inverter.attach_fault_injector(injector);
    }

    /// The solver options.
    pub fn options(&self) -> &QsvtSolverOptions {
        &self.options
    }

    /// The classical operator the per-solve matvecs run through.
    pub fn operator(&self) -> &Op {
        &self.operator
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
    pub fn solve_with_shots<R: Rng>(
        &self,
        b: &Vector<f64>,
        shots: Option<usize>,
        rng: &mut R,
    ) -> Result<QsvtSolveResult, QlsError> {
        check_shots(shots)?;
        self.check_right_hand_side(b)?;
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
    pub fn solve_many<R: Rng>(
        &self,
        bs: &[Vector<f64>],
        rng: &mut R,
    ) -> Vec<Result<QsvtSolveResult, QlsError>> {
        let directions = self.inverter.solve_direction_batch_checked(bs);
        bs.iter()
            .zip(directions)
            .map(|(b, outcome)| {
                self.check_right_hand_side(b)?;
                let (direction, success) = outcome?;
                self.finish_solve(b, direction, success, self.options.shots, rng)
            })
            .collect()
    }

    /// Reject a right-hand side whose length differs from the operator's,
    /// or which is all zeros: there is no state `b/‖b‖` to prepare.
    fn check_right_hand_side(&self, b: &Vector<f64>) -> Result<(), QlsError> {
        if b.len() != self.operator.nrows() {
            return Err(QlsError::Linalg(LinalgError::DimensionMismatch));
        }
        if b.iter().all(|&v| v == 0.0) {
            return Err(QlsError::Qsvt(QsvtError::InvalidInput(
                "zero right-hand side",
            )));
        }
        Ok(())
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
        // sampling noise, keep the signs (sign recovery is assumed exact, see
        // qls-sim::measure::signed_from_magnitudes).  An attached fault
        // injector's readout corruption composes with the sampled path —
        // sign flips model exactly the failure `signed_from_magnitudes`
        // assumes away.  Exact readout records the shots the paper's model
        // prescribes for ε_l (`O(1/ε_l²)`).
        let shots =
            shots_override.unwrap_or_else(|| shots_for_accuracy(self.inverter.epsilon_l(), 1.0));
        if let Some(s) = shots_override {
            direction = sample_direction(&direction, s, rng);
            if let Some(inj) = self.inverter.fault_injector() {
                lock_injector(inj).corrupt_readout(direction.as_mut_slice());
            }
        }

        // Readout boundary guard: everything downstream (Brent, residual)
        // assumes finite values.
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
        let omega = scaled_residual(&self.operator, &solution, b);
        let resources = self.inverter.resources();

        Ok(QsvtSolveResult {
            solution,
            direction,
            scale,
            scaled_residual: omega,
            success_probability,
            cost: SolveCost {
                polynomial_degree: resources.degree,
                block_encoding_calls: resources.block_encoding_calls,
                shots,
                state_prep_flops,
                brent_evaluations: brent.evaluations,
                classical_matvec_flops: 2 * self.operator.nnz(),
            },
        })
    }
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

/// Simulate a finite-shot readout of a normalised real direction vector:
/// magnitudes are re-estimated from a multinomial sample of `shots` outcomes,
/// signs are kept from the exact direction.
///
/// Each shot consumes exactly one `rng.next_u64()` (two 32-bit words):
/// the draw `rng.gen_range(0.0..total)` makes, where `total` is the summed
/// squared magnitude.  Its outcome is the first index whose cumulative
/// weight is not below that draw, clamped to `N − 1`.  The index is found
/// through a guide table (Chen & Asau's indexed search, 1974): `M`, a
/// power of two, buckets split `[0, total)` evenly, and bucket `j` stores
/// the number of cumulative weights below `total·j/M`.  A draw `k` whose
/// top `log₂ M` bits are `j` has `k·2⁻⁵³ ≥ j/M` exactly, and rounding is
/// monotone, so its value is at least `total·j/M`.  The bucket therefore
/// never starts past the outcome, and a forward scan from it stops where a
/// binary search of the cumulative weights would.  So the counts, the
/// result and the RNG's position afterwards are those of drawing with
/// `gen_range` and searching with `partition_point`.
///
/// An empty direction gives the empty vector, and zero shots the all-zero
/// vector (no counts means every magnitude is 0); neither draws a word.
pub fn sample_direction<R: Rng>(direction: &Vector<f64>, shots: usize, rng: &mut R) -> Vector<f64> {
    let n = direction.len();
    if n == 0 || shots == 0 {
        return Vector::zeros(n);
    }
    // Cumulative distribution.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &x in direction.iter() {
        acc += x * x;
        cdf.push(acc);
    }
    let total = acc.max(1e-300);
    // Guide table of M buckets, M the power of two at or above min(8N,
    // shots), so a short readout never pays more for the table than for its
    // draws.  One merge pass: the bucket edges are non-decreasing.
    let buckets = (8 * n).min(shots).next_power_of_two();
    let shift = 53 - buckets.trailing_zeros();
    let mut guide = Vec::with_capacity(buckets);
    let mut below = 0;
    for j in 0..buckets {
        let edge = total * (j as f64 / buckets as f64);
        while below < n && cdf[below] < edge {
            below += 1;
        }
        guide.push(below);
    }
    let last = n.saturating_sub(1);
    let mut counts = vec![0usize; n];
    for _ in 0..shots {
        // `gen_range(0.0..total)` computes `0.0 + (total − 0.0)·u` from the
        // same word; with `total > 0` that is exactly `total·u`.
        let k = rng.next_u64() >> 11;
        let r = total * (k as f64 * (1.0 / (1u64 << 53) as f64));
        let mut idx = guide[(k >> shift) as usize];
        while idx < n && cdf[idx] < r {
            idx += 1;
        }
        counts[idx.min(last)] += 1;
    }
    let mut sampled: Vector<f64> = counts
        .iter()
        .zip(direction.iter())
        .map(|(&c, &d)| {
            let mag = (c as f64 / shots as f64).sqrt();
            if d < 0.0 {
                -mag
            } else {
                mag
            }
        })
        .collect();
    sampled.normalize();
    sampled
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_linalg::generate::{
        random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
    };
    use qls_linalg::lu::lu_solve;
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
        assert!(result.scaled_residual < 1e-3 * 10.0 * 2.0);
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
        assert!(r_sampled.scaled_residual >= r_exact.scaled_residual * 0.5);
        // With 2e5 shots the sampled solve is still a usable low-precision solve.
        assert!(r_sampled.scaled_residual < 0.1);
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

    #[test]
    fn sampled_direction_stays_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let direction = Vector::from_f64_slice(&[0.6, -0.64, 0.48, 0.0]);
        let sampled = sample_direction(&direction, 10_000, &mut rng);
        assert!((sampled.norm2() - 1.0).abs() < 1e-12);
        // Signs preserved.
        assert!(sampled[1] <= 0.0);
        assert!(sampled[0] >= 0.0);
    }

    #[test]
    fn sampling_recovers_every_sign_on_random_directions() {
        // Property: with enough shots the sampled direction never flips a
        // sign on coordinates with non-negligible probability mass.
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let direction = random_unit_vector(16, &mut rng);
            let sampled = sample_direction(&direction, 100_000, &mut rng);
            for (s, d) in sampled.iter().zip(direction.iter()) {
                if d.abs() > 0.05 {
                    assert!(
                        s * d >= 0.0,
                        "seed {seed}: sign flipped on coordinate with mass {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_error_shrinks_with_shot_count() {
        // Property: the readout error follows the O(1/sqrt(shots)) model —
        // averaged over seeds, 100x the shots must cut the error by well
        // over 2x (the theoretical factor is 10x).
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let direction = random_unit_vector(32, &mut rng);
        let mut err_lo = 0.0;
        let mut err_hi = 0.0;
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            err_lo += (&sample_direction(&direction, 1_000, &mut rng) - &direction).norm2();
            err_hi += (&sample_direction(&direction, 100_000, &mut rng) - &direction).norm2();
        }
        assert!(
            err_hi < err_lo / 2.0,
            "100x shots only improved {err_lo:.4} -> {err_hi:.4}"
        );
    }

    #[test]
    fn zero_amplitude_coordinates_never_receive_counts() {
        // Property: a coordinate with zero probability mass can never be hit
        // by the multinomial sampler, at any seed.
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let direction = Vector::from_f64_slice(&[0.8, 0.0, -0.6, 0.0, 0.0, 0.0, 0.0, 0.0]);
            let sampled = sample_direction(&direction, 5_000, &mut rng);
            assert_eq!(sampled[1], 0.0, "seed {seed}");
            for i in 3..8 {
                assert_eq!(sampled[i], 0.0, "seed {seed}, coordinate {i}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let direction = Vector::from_f64_slice(&[0.6, -0.64, 0.48, 0.0]);
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let a = sample_direction(&direction, 10_000, &mut rng_a);
        let b = sample_direction(&direction, 10_000, &mut rng_b);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn empty_and_zero_shot_readouts_draw_no_word() {
        use rand::RngCore;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut untouched = rng.clone();
        // N = 0 gives the empty vector at any shot count.
        for shots in [0, 1, 10_000] {
            assert!(sample_direction(&Vector::zeros(0), shots, &mut rng).is_empty());
        }
        // Zero shots give no counts, so every magnitude is 0.
        for direction in [vec![0.6, 0.8], vec![0.6, -0.64, 0.48, 0.0]] {
            let sampled = sample_direction(&Vector::from_f64_slice(&direction), 0, &mut rng);
            let bits: Vec<u64> = sampled.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, vec![0; direction.len()], "{direction:?}");
        }
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no word drawn");
    }

    /// The sampler before the guide table: one `gen_range` draw and one
    /// binary search of the cumulative distribution per shot, behind the
    /// same empty and zero-shot guard as `sample_direction` (without it,
    /// zero shots gave 0/0 = NaN magnitudes and N = 0 indexed past the end).
    fn oracle_sample_direction<R: Rng>(
        direction: &Vector<f64>,
        shots: usize,
        rng: &mut R,
    ) -> Vector<f64> {
        if direction.is_empty() || shots == 0 {
            return Vector::zeros(direction.len());
        }
        let probs: Vec<f64> = direction.iter().map(|&x| x * x).collect();
        let mut counts = vec![0usize; probs.len()];
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(1e-300);
        for _ in 0..shots {
            let r: f64 = rng.gen_range(0.0..total);
            let idx = cdf.partition_point(|&c| c < r).min(probs.len() - 1);
            counts[idx] += 1;
        }
        let mut sampled: Vector<f64> = counts
            .iter()
            .zip(direction.iter())
            .map(|(&c, &d)| {
                let mag = (c as f64 / shots as f64).sqrt();
                if d < 0.0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        sampled.normalize();
        sampled
    }

    #[test]
    fn guide_table_sampler_is_bit_identical_to_the_binary_search_oracle() {
        use rand::RngCore;
        let mut corpus = ChaCha8Rng::seed_from_u64(2718);
        for case in 0..5_000 {
            let n = corpus.gen_range(1..=300usize);
            let mut v: Vec<f64> = (0..n).map(|_| corpus.gen_range(-1.0..1.0)).collect();
            match case % 8 {
                // Zero coordinates, which no shot may hit.
                0 => v
                    .iter_mut()
                    .filter(|_| corpus.gen_bool(0.5))
                    .for_each(|x| *x = 0.0),
                // Squares that underflow to subnormals or zero.
                1 => v.iter_mut().for_each(|x| *x *= 1e-160),
                // Squares near the top of the range, and past it to ∞.
                2 => v.iter_mut().for_each(|x| *x *= 1e150),
                3 => v.iter_mut().for_each(|x| *x *= 1e155),
                4 => v[corpus.gen_range(0..n)] = f64::NAN,
                5 => v.iter_mut().for_each(|x| *x = 0.0),
                _ => {}
            }
            // Short readouts exercise small guide tables; 10⁴ is the
            // benchmark's readout.
            let shots = match case % 25 {
                0 => 10_000,
                1..=4 => corpus.gen_range(0..16),
                _ => corpus.gen_range(0..1_000),
            };
            let direction = Vector::from_f64_slice(&v);
            let mut rng = ChaCha8Rng::seed_from_u64(corpus.next_u64());
            let mut oracle_rng = rng.clone();
            let got = sample_direction(&direction, shots, &mut rng);
            let want = oracle_sample_direction(&direction, shots, &mut oracle_rng);
            let bits = |s: &Vector<f64>| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: n = {n}, shots = {shots}"
            );
            assert_eq!(rng.next_u32(), oracle_rng.next_u32(), "case {case}");
        }
    }
}
