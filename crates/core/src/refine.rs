//! Algorithm 2: mixed-precision iterative refinement with a QSVT inner solver.
//!
//! This is the paper's contribution.  A first solution `x₀` is computed by the
//! QSVT at low accuracy ε_l (on the "QPU"); then, until the scaled residual
//! `ω = ‖b − A x_i‖/‖b‖` drops below the target ε, each iteration
//!
//! 1. computes the residual `r_i = b − A x_i` in high precision `u` (CPU),
//! 2. solves `A e_i = r_i` at accuracy ε_l with the QSVT (QPU),
//! 3. updates `x_{i+1} = x_i + e_i` in high precision (CPU).
//!
//! Theorem III.1: when `ε_l·κ < 1` the scaled residual contracts by a factor
//! `ε_l·κ` per iteration, so at most `⌈log ε / log(ε_l κ)⌉` iterations are
//! needed.  The refiner records the whole history (per-iteration residuals,
//! contraction factors, quantum cost) so the convergence figures (Figs. 3–4)
//! and the complexity comparison (Fig. 5) can be regenerated directly from a
//! run.
//!
//! ## Robustness: the recovery ladder
//!
//! The refinement loop is the natural place to absorb a noisy or faulty
//! inner solver — the paper's whole point is that ε_l-accurate solves
//! suffice, so a *bad* solve is just a solve whose effective ε_l was too
//! large, and re-running or improving it is always sound.  With
//! [`HybridRefinementOptions::recovery`] set, the refiner intercepts the
//! per-iteration health checks (solve errors such as `PostSelectionFailed`
//! or an injected transient, non-finite corrections/residuals, a
//! contraction factor ≥ 1) and escalates through a fixed, bounded ladder
//! instead of aborting:
//!
//! 1. **retry** the correction solve as-is, `RETRIES` = 1 time (transient
//!    faults and unlucky post-selections are per-run accidents);
//! 2. **escalate shots** `SHOT_ESCALATIONS` = 2 times, each
//!    ×`SHOT_ESCALATION_FACTOR` = 4 (readout noise shrinks as `1/√shots`,
//!    so each halves it) — skipped under exact readout;
//! 3. **tighten the solver**: a second `QsvtLinearSolver` at
//!    ε_l × `EPSILON_TIGHTEN_FACTOR` = ε_l/10 (higher QSVT degree), built
//!    lazily on first use and reused afterwards;
//! 4. **classical fallback**: solve this iteration's correction with the
//!    operator's own structured [`InnerSolver`]
//!    ([`FactorizableOperator::factorize`]) — graceful degradation, the
//!    refinement stays correct but that step ran on the CPU.
//!
//! Every action is recorded in a [`RecoveryLog`] inside [`HybridHistory`],
//! and the terminal status distinguishes *how* the run ended:
//! [`HybridStatus::Converged`] (clean), `RecoveredConverged` (converged
//! after ≥ 1 recovery action), `Degraded` (converged but ≥ 1 iteration used
//! the classical fallback), `Failed { reason }` (the ladder — or the bare
//! solve, when recovery is disabled — could not produce a usable step).
//!
//! With recovery disabled (the default) and no fault injector attached, the
//! loop is bit-identical to the pre-recovery implementation — the house
//! equivalence-oracle pattern;
//! `recovery_enabled_clean_path_is_bit_identical_to_disabled` asserts that
//! switching recovery on leaves a clean run bit-identical too.

use crate::error::QlsError;
use crate::solver::{QsvtLinearSolver, QsvtSolverOptions, SolveCost};
use qls_linalg::lu::LinalgError;
use qls_linalg::{residual, FactorizableOperator, InnerSolver, Matrix, Vector};
use qls_qsvt::QsvtError;
use qls_sim::fault::SharedFaultInjector;
use rand::Rng;
use std::sync::OnceLock;

/// Recovery rung 1: plain re-runs of a failed correction solve.
const RETRIES: usize = 1;

/// Recovery rung 2: shot escalations, each multiplying the shot budget by
/// [`SHOT_ESCALATION_FACTOR`].  Skipped when the solver reads exact
/// amplitudes (`shots: None`).
const SHOT_ESCALATIONS: usize = 2;

/// Shot multiplier per escalation (×4 halves the readout noise).
const SHOT_ESCALATION_FACTOR: usize = 4;

/// Recovery rung 3: ε_l multiplier of the tightened solver.
const EPSILON_TIGHTEN_FACTOR: f64 = 0.1;

/// How many **consecutive** non-contracting iterations (ω_{i+1} >
/// 0.95·ω_i) it takes to declare [`HybridStatus::Stagnated`].  One noisy
/// iteration under finite-shot readout is expected and must not kill the
/// run; two in a row mean the contraction has genuinely stopped (ε_l·κ too
/// close to 1, or limiting accuracy reached).
pub const STAGNATION_WINDOW: usize = 2;

/// An iteration is "contracting" when ω_{i+1} ≤ `CONTRACTION_TOLERANCE`·ω_i
/// (the 5% slack absorbs benign rounding wiggle near limiting accuracy).
const CONTRACTION_TOLERANCE: f64 = 0.95;

/// Options of the hybrid refinement loop.
#[derive(Debug, Clone, Copy)]
pub struct HybridRefinementOptions {
    /// Target scaled residual ε (the paper uses 1e-11 in Fig. 3).
    pub target_epsilon: f64,
    /// Low accuracy ε_l of each QSVT solve.
    pub epsilon_l: f64,
    /// Hard cap on refinement iterations (safety net above the theoretical bound).
    pub max_iterations: usize,
    /// Options passed to the inner QSVT solver (mode, shots, …), which
    /// solves at the ε_l above.
    pub solver: QsvtSolverOptions,
    /// Arm the per-iteration health checks and the fixed recovery ladder
    /// (retry, shot escalations, tightened ε_l, classical fallback; see the
    /// module docs).  Off by default: the loop then aborts on the first
    /// unhealthy step, exactly like the pre-recovery refiner.
    pub recovery: bool,
}

impl Default for HybridRefinementOptions {
    fn default() -> Self {
        HybridRefinementOptions {
            target_epsilon: 1e-11,
            epsilon_l: 1e-2,
            max_iterations: 60,
            solver: QsvtSolverOptions::default(),
            recovery: false,
        }
    }
}

/// What a health check found wrong with one correction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthIssue {
    /// The inner solve itself returned an error.
    SolveFailed(FailureReason),
    /// The correction contained NaN/Inf (caught at the update boundary).
    NonFiniteCorrection,
    /// The residual of the candidate iterate was NaN/Inf.
    NonFiniteResidual,
    /// The candidate iterate did not contract the residual
    /// (ω_new > 0.95·ω_prev).
    NonContracting,
}

/// One rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-run the correction solve unchanged.
    Retry,
    /// Re-run with an escalated shot budget.
    EscalateShots {
        /// The escalated budget used for this attempt.
        shots: usize,
    },
    /// Re-run through the lazily built tighter-ε_l solver.
    TightenSolver,
    /// Solve this iteration's correction classically.
    ClassicalFallback,
    /// The ladder is exhausted; the step is abandoned.
    Abort,
}

/// One recorded recovery decision: which issue triggered which rung at
/// which iteration, and whether that rung produced a healthy step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Refinement iteration (0 = initial solve).
    pub iteration: usize,
    /// The health issue that triggered this action.
    pub issue: HealthIssue,
    /// The ladder rung taken in response.
    pub action: RecoveryAction,
    /// Whether the action produced a healthy step.
    pub recovered: bool,
}

/// The audit log of every recovery action of a run, stored in
/// [`HybridHistory::recovery`].  Empty ⇔ the run never needed the ladder.
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    /// Events in the order they were taken.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// True when no recovery action was ever taken.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recovery actions taken.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when any classical-fallback rung ran (⇒ the run is `Degraded`
    /// if it converged).
    pub fn used_classical_fallback(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.action == RecoveryAction::ClassicalFallback && e.recovered)
    }
}

/// Why a hybrid refinement ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Ancilla post-selection failed and could not be recovered.
    PostSelectionFailed,
    /// An injected transient device fault (see `qls_sim::fault`).
    InjectedFault,
    /// NaN/Inf at the readout boundary (e.g. a NaN-poisoned register).
    NonFiniteReadout,
    /// NaN/Inf in the high-precision residual computation.
    NonFiniteResidual,
    /// NaN/Inf in the correction update.
    NonFiniteCorrection,
    /// Any other inner-solver error (singular matrix, phase finding, …).
    SolverError,
    /// The recovery ladder ran out of rungs without a usable step.
    RecoveryExhausted,
}

/// Why the hybrid refinement stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridStatus {
    /// Target scaled residual reached without any recovery action.
    Converged,
    /// Iteration cap reached first.
    MaxIterations,
    /// The residual stopped contracting for [`STAGNATION_WINDOW`]
    /// consecutive iterations (ε_l·κ too close to 1, or limiting accuracy
    /// reached).
    Stagnated,
    /// Target reached, but ≥ 1 recovery action was needed along the way.
    RecoveredConverged,
    /// Target reached, but ≥ 1 iteration fell back to the classical inner
    /// solver (the quantum solver alone did not suffice).
    Degraded,
    /// No usable step could be produced (ladder exhausted, or the bare
    /// solve failed with recovery disabled).
    Failed {
        /// The terminal failure.
        reason: FailureReason,
    },
}

impl HybridStatus {
    /// True for every status that reached the target residual.
    pub fn reached_target(&self) -> bool {
        matches!(
            self,
            HybridStatus::Converged | HybridStatus::RecoveredConverged | HybridStatus::Degraded
        )
    }
}

/// One step of the refinement history.
#[derive(Debug, Clone)]
pub struct HybridStep {
    /// Iteration index (0 = initial solve).
    pub iteration: usize,
    /// Scaled residual ω after this step.
    pub scaled_residual: f64,
    /// Theorem III.1 prediction `(ε_l κ)^{i+1}` for this step.
    pub theoretical_bound: f64,
    /// Quantum/classical cost of the solve performed at this step.
    pub cost: SolveCost,
}

/// Complete record of a hybrid refinement run.
#[derive(Debug, Clone)]
pub struct HybridHistory {
    /// Per-step records (index 0 is the initial solve).
    pub steps: Vec<HybridStep>,
    /// Termination status.
    pub status: HybridStatus,
    /// Condition number used for the theoretical bound.
    pub kappa: f64,
    /// ε_l of the inner solver.
    pub epsilon_l: f64,
    /// Target ε.
    pub target_epsilon: f64,
    /// Every recovery action taken (empty for a clean run).
    pub recovery: RecoveryLog,
}

impl HybridHistory {
    /// Number of refinement iterations (excluding the initial solve).
    pub fn iterations(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// Final scaled residual.
    pub fn final_residual(&self) -> f64 {
        self.steps
            .last()
            .map(|s| s.scaled_residual)
            .unwrap_or(f64::NAN)
    }

    /// Theorem III.1 iteration bound `⌈log ε / log(ε_l κ)⌉`, when it applies.
    pub fn iteration_bound(&self) -> Option<usize> {
        qls_linalg::refine::iteration_bound(self.target_epsilon, self.epsilon_l, self.kappa)
    }

    /// Per-iteration contraction factors ω_{i+1}/ω_i: the measure the
    /// Theorem III.1 tests assert on.
    #[cfg(test)]
    fn contraction_factors(&self) -> Vec<f64> {
        self.steps
            .windows(2)
            .map(|w| {
                if w[0].scaled_residual == 0.0 {
                    0.0
                } else {
                    w[1].scaled_residual / w[0].scaled_residual
                }
            })
            .collect()
    }

    /// Total number of block-encoding calls across all solves — the quantum
    /// complexity axis of Fig. 5.
    pub fn total_block_encoding_calls(&self) -> usize {
        self.steps.iter().map(|s| s.cost.block_encoding_calls).sum()
    }

    /// Total number of measurement shots across all solves.
    pub fn total_shots(&self) -> usize {
        self.steps.iter().map(|s| s.cost.shots).sum()
    }

    /// True when every measured residual satisfies the Theorem III.1 bound
    /// `ω_i ≤ (ε_l κ)^{i+1}` up to the slack factor.
    pub fn satisfies_theorem_bound(&self, slack: f64) -> bool {
        self.steps
            .iter()
            .all(|s| s.scaled_residual <= s.theoretical_bound * slack)
    }
}

/// One correction attempt: the raw correction vector + its cost, or the
/// error the inner solve produced.
type Attempt = Result<(Vector<f64>, SolveCost), QlsError>;

/// A candidate iterate with its residual `r = b − A x` and scaled residual
/// ω = ‖r‖/‖b‖: one matvec checks the step and sets up the next correction.
struct Candidate {
    x: Vector<f64>,
    r: Vector<f64>,
    omega: f64,
    cost: SolveCost,
}

/// Outcome of one guarded refinement step (initial solve or correction).
enum StepResult {
    /// A healthy step: finite, and contracting (or the initial solve).
    Accepted(Candidate),
    /// Every rung produced finite but non-contracting candidates; this is
    /// the best of them.  The caller counts it toward the stagnation window.
    BestEffort(Candidate),
    /// No rung produced a finite candidate at all.
    Dead { reason: FailureReason },
}

fn failure_reason(e: &QlsError) -> FailureReason {
    match e {
        QlsError::Qsvt(QsvtError::PostSelectionFailed) => FailureReason::PostSelectionFailed,
        QlsError::Qsvt(QsvtError::InjectedFault { .. }) => FailureReason::InjectedFault,
        QlsError::Qsvt(QsvtError::NonFiniteOutput) | QlsError::NonFinite { .. } => {
            FailureReason::NonFiniteReadout
        }
        QlsError::Qsvt(_) | QlsError::Linalg(_) => FailureReason::SolverError,
    }
}

fn issue_reason(issue: HealthIssue) -> FailureReason {
    match issue {
        HealthIssue::SolveFailed(reason) => reason,
        HealthIssue::NonFiniteCorrection => FailureReason::NonFiniteCorrection,
        HealthIssue::NonFiniteResidual => FailureReason::NonFiniteResidual,
        // A non-contracting attempt always leaves a best-effort candidate,
        // so it can never be the terminal reason of a Dead step.
        HealthIssue::NonContracting => FailureReason::SolverError,
    }
}

/// The hybrid CPU/QPU mixed-precision refiner (Algorithm 2).
///
/// Construction compiles; solving never does.  The matrix is fixed, so the
/// block-encoding, polynomial, phase factors *and the compiled QSVT circuit*
/// are all built exactly once in [`HybridRefiner::new`] — every refinement
/// iteration of every [`HybridRefiner::solve`] / [`HybridRefiner::solve_many`]
/// call reuses them (verified against
/// `qls_sim::circuit_compile_count` in the tests).  This is the paper's
/// access pattern: one matrix, many solves.  (The two exceptions are
/// recovery rungs: the tightened solver compiles lazily on its first use,
/// and never on a clean run.)
///
/// The refiner is generic over the classical operator representation of `A`
/// ([`FactorizableOperator`], dense [`Matrix`] by default so every existing
/// caller compiles unchanged).  The CPU half of the loop — the
/// high-precision residual `r = b − A x`, formed once per iteration: its
/// norm checks the step and the vector is the next correction's right-hand
/// side — goes through the operator, so a CSR operator makes
/// the hot classical path O(nnz) instead of O(N²); only the one-time
/// quantum-side construction in `new` densifies (the inner correction solves
/// are the QSVT circuit, not a classical factorization, so after
/// construction no step of `solve` / `solve_many` ever materialises a dense
/// matrix — asserted by the
/// `hybrid_refiner_never_densifies_after_construction` operator-equivalence
/// test; the classical-fallback recovery rung factorizes through the
/// operator's own structured [`InnerSolver`], lazily, and only when that
/// rung actually fires).  Because the CSR matvec is bit-identical to the
/// dense kernel, refining over a structured operator
/// reproduces the dense convergence history float for float (see the
/// operator-equivalence tests).
pub struct HybridRefiner<Op: FactorizableOperator<f64> = Matrix<f64>> {
    /// The inner QSVT solver; it holds the refiner's one copy of the
    /// operator, which every residual and the recovery rungs read.
    solver: QsvtLinearSolver<Op>,
    options: HybridRefinementOptions,
    /// Fault injector shared with the inner solver (and any tightened
    /// solver built later).
    fault: Option<SharedFaultInjector>,
    /// Recovery rung 3: the tighter-ε_l solver, built lazily on first use
    /// (`None` inside = construction failed; never retried).
    tightened: OnceLock<Option<QsvtLinearSolver<Op>>>,
    /// Recovery rung 4: the operator's structured classical solver, built
    /// lazily on first use.
    fallback: OnceLock<Option<Box<dyn InnerSolver<f64>>>>,
}

impl<Op: FactorizableOperator<f64>> HybridRefiner<Op> {
    /// Prepare the refiner: builds the QSVT solver once (block-encoding,
    /// polynomial and compiled circuit are reused across all iterations and
    /// all right-hand sides, as in the paper's communication scheme of
    /// Fig. 1).  Input the solver cannot prepare is an error, not a panic
    /// (see [`QsvtLinearSolver::new`]).
    pub fn new(a: &Op, options: HybridRefinementOptions) -> Result<Self, QlsError> {
        let solver = QsvtLinearSolver::new(a, options.epsilon_l, options.solver)?;
        Ok(HybridRefiner {
            solver,
            options,
            fault: None,
            tightened: OnceLock::new(),
            fallback: OnceLock::new(),
        })
    }

    /// The inner QSVT solver.
    pub fn solver(&self) -> &QsvtLinearSolver<Op> {
        &self.solver
    }

    /// The refinement options.
    pub fn options(&self) -> &HybridRefinementOptions {
        &self.options
    }

    /// Attach a fault injector to the quantum side (and to any tightened
    /// solver the recovery ladder builds later) — see `qls_sim::fault`.
    pub fn attach_fault_injector(&mut self, injector: SharedFaultInjector) {
        self.solver.attach_fault_injector(injector.clone());
        self.fault = Some(injector);
        // A tightened solver built before the attach would be fault-free;
        // rebuild it on next use with the injector wired in.
        self.tightened = OnceLock::new();
    }

    /// The ladder of recovery actions tried **after** a failed primary
    /// attempt, in order.  Empty when recovery is off.
    fn recovery_ladder(&self) -> Vec<RecoveryAction> {
        let mut actions = Vec::new();
        if !self.options.recovery {
            return actions;
        }
        actions.extend([RecoveryAction::Retry; RETRIES]);
        if let Some(base) = self.options.solver.shots {
            let mut shots = base;
            for _ in 0..SHOT_ESCALATIONS {
                shots = shots.saturating_mul(SHOT_ESCALATION_FACTOR);
                actions.push(RecoveryAction::EscalateShots { shots });
            }
        }
        actions.push(RecoveryAction::TightenSolver);
        actions.push(RecoveryAction::ClassicalFallback);
        actions
    }

    /// Rung 3's solver: ε_l × [`EPSILON_TIGHTEN_FACTOR`], same mode/shots,
    /// fault injector re-attached.  Built once, on first use.
    fn tightened_solver(&self) -> Option<&QsvtLinearSolver<Op>> {
        self.tightened
            .get_or_init(|| {
                let epsilon_l =
                    (self.options.epsilon_l * EPSILON_TIGHTEN_FACTOR).clamp(1e-14, 0.49);
                let mut solver =
                    QsvtLinearSolver::new(self.solver.operator(), epsilon_l, self.options.solver)
                        .ok()?;
                if let Some(inj) = &self.fault {
                    solver.attach_fault_injector(inj.clone());
                }
                Some(solver)
            })
            .as_ref()
    }

    /// Rung 4's classical correction solve through the operator's own
    /// structured [`InnerSolver`] (built once, on first use).  The cost
    /// record is purely classical: no degree, no block-encoding calls, no
    /// shots.
    fn classical_correction(&self, r: &Vector<f64>) -> Attempt {
        let solver = self
            .fallback
            .get_or_init(|| self.solver.operator().factorize::<f64>().ok());
        match solver {
            Some(inner) => {
                let correction = inner.solve(r)?;
                Ok((
                    correction,
                    SolveCost {
                        polynomial_degree: 0,
                        block_encoding_calls: 0,
                        shots: 0,
                        state_prep_flops: 0,
                        brent_evaluations: 0,
                    },
                ))
            }
            None => Err(QlsError::Qsvt(QsvtError::Internal(
                "classical fallback factorization failed",
            ))),
        }
    }

    /// Execute one recovery rung for the correction system `A e = r`.
    fn run_action<R: Rng>(&self, action: RecoveryAction, r: &Vector<f64>, rng: &mut R) -> Attempt {
        match action {
            RecoveryAction::Retry => self
                .solver
                .solve(r, rng)
                .map(|res| (res.solution, res.cost)),
            RecoveryAction::EscalateShots { shots } => self
                .solver
                .solve_with_shots(r, Some(shots), rng)
                .map(|res| (res.solution, res.cost)),
            RecoveryAction::TightenSolver => match self.tightened_solver() {
                Some(solver) => solver.solve(r, rng).map(|res| (res.solution, res.cost)),
                None => Err(QlsError::Qsvt(QsvtError::Internal(
                    "tightened solver construction failed",
                ))),
            },
            RecoveryAction::ClassicalFallback => self.classical_correction(r),
            RecoveryAction::Abort => Err(QlsError::Qsvt(QsvtError::Internal(
                "abort is not an executable recovery action",
            ))),
        }
    }

    /// One guarded refinement step: health-check the candidate iterate of
    /// the batched `primary` correction solve, and walk the recovery ladder
    /// until a rung produces a healthy step or the ladder is exhausted.
    ///
    /// `x = None` marks the initial solve (the "correction" *is* the
    /// iterate, and the contraction check does not apply — `prev_omega` is
    /// `None`).  On the clean path (healthy primary, which is the only
    /// possibility with recovery disabled and no faults) this performs
    /// exactly the operations of the pre-recovery loop.
    #[allow(clippy::too_many_arguments)]
    fn guarded_step<R: Rng>(
        &self,
        b: &Vector<f64>,
        x: Option<&Vector<f64>>,
        r: &Vector<f64>,
        prev_omega: Option<f64>,
        primary: Attempt,
        iteration: usize,
        rng: &mut R,
        log: &mut RecoveryLog,
    ) -> StepResult {
        let mut best: Option<Candidate> = None;
        let mut pending: Option<HealthIssue> = None;

        // Rungs run lazily: the loop returns on the first healthy attempt.
        let rungs = self
            .recovery_ladder()
            .into_iter()
            .map(|action| (Some(action), self.run_action(action, r, rng)));
        for (action, attempt) in std::iter::once((None, primary)).chain(rungs) {
            let health: Result<Candidate, HealthIssue> = match attempt {
                Err(e) => Err(HealthIssue::SolveFailed(failure_reason(&e))),
                Ok((correction, cost)) => {
                    if !correction.iter().all(|v| v.is_finite()) {
                        Err(HealthIssue::NonFiniteCorrection)
                    } else {
                        let candidate = match x {
                            Some(x0) => {
                                let mut c = x0.clone();
                                c += &correction;
                                c
                            }
                            None => correction,
                        };
                        let (r, omega) = residual(self.solver.operator(), &candidate, b);
                        if !omega.is_finite() {
                            Err(HealthIssue::NonFiniteResidual)
                        } else {
                            let healthy = match prev_omega {
                                None => true,
                                Some(prev) => {
                                    omega <= self.options.target_epsilon
                                        || omega <= prev * CONTRACTION_TOLERANCE
                                }
                            };
                            let candidate = Candidate {
                                x: candidate,
                                r,
                                omega,
                                cost,
                            };
                            if healthy {
                                Ok(candidate)
                            } else {
                                if best.as_ref().is_none_or(|b| omega < b.omega) {
                                    best = Some(candidate);
                                }
                                Err(HealthIssue::NonContracting)
                            }
                        }
                    }
                }
            };
            match health {
                Ok(candidate) => {
                    if let (Some(issue), Some(act)) = (pending, action) {
                        log.events.push(RecoveryEvent {
                            iteration,
                            issue,
                            action: act,
                            recovered: true,
                        });
                    }
                    return StepResult::Accepted(candidate);
                }
                Err(issue) => {
                    if let (Some(trigger), Some(act)) = (pending, action) {
                        log.events.push(RecoveryEvent {
                            iteration,
                            issue: trigger,
                            action: act,
                            recovered: false,
                        });
                    }
                    pending = Some(issue);
                }
            }
        }

        // Ladder exhausted (or recovery disabled and the one attempt was
        // unhealthy).
        if self.options.recovery {
            if let Some(issue) = pending {
                log.events.push(RecoveryEvent {
                    iteration,
                    issue,
                    action: RecoveryAction::Abort,
                    recovered: false,
                });
            }
        }
        match best {
            Some(candidate) => StepResult::BestEffort(candidate),
            None => StepResult::Dead {
                reason: if self.options.recovery {
                    FailureReason::RecoveryExhausted
                } else {
                    pending
                        .map(issue_reason)
                        .unwrap_or(FailureReason::SolverError)
                },
            },
        }
    }

    /// The terminal status of a run that reached the target residual.
    fn success_status(log: &RecoveryLog) -> HybridStatus {
        if log.used_classical_fallback() {
            HybridStatus::Degraded
        } else if log.is_empty() {
            HybridStatus::Converged
        } else {
            HybridStatus::RecoveredConverged
        }
    }

    /// Run Algorithm 2 for the right-hand side `b`: [`HybridRefiner::solve_many`]
    /// on `[b]`.
    ///
    /// `Err` is reserved for malformed inputs (a non-finite, all-zero or
    /// wrong-length `b`); every runtime failure of the loop itself — solver
    /// errors, injected faults, an exhausted recovery ladder — is reported
    /// **in-band** as [`HybridStatus::Failed`] with the partial history
    /// preserved, so multi-system callers and services can inspect what
    /// happened.
    pub fn solve<R: Rng>(
        &self,
        b: &Vector<f64>,
        rng: &mut R,
    ) -> Result<(Vector<f64>, HybridHistory), QlsError> {
        self.solve_many(std::slice::from_ref(b), rng)?
            .pop()
            .ok_or(QlsError::Qsvt(QsvtError::Internal(
                "one result per right-hand side",
            )))
    }

    /// Run Algorithm 2 for **many** right-hand sides against the same matrix
    /// — the multi-RHS workload (e.g. a Poisson problem under several
    /// forcing terms).  All systems share the one compiled QSVT circuit, and
    /// each round of the refinement loop (the initial solve is round 0)
    /// batches the inner solves of every still-active system through the
    /// inner solver's batched solve (coarse-grained thread fan-out across
    /// the batch in circuit mode).
    ///
    /// A malformed right-hand side (wrong length, non-finite or all zeros)
    /// rejects the whole call before any solve.  Runtime failures are
    /// **per-system**: one failed post-selection or injected fault only
    /// sends that system through the recovery ladder (or marks it
    /// [`HybridStatus::Failed`]) — its siblings keep refining.
    ///
    /// With exact readout (`shots: None`) the returned solutions and
    /// histories are identical to calling [`HybridRefiner::solve`] per
    /// right-hand side; with finite-shot sampling the RNG is consumed in
    /// batch order instead of per-system order.
    pub fn solve_many<R: Rng>(
        &self,
        bs: &[Vector<f64>],
        rng: &mut R,
    ) -> Result<Vec<(Vector<f64>, HybridHistory)>, QlsError> {
        for b in bs {
            if b.len() != self.solver.operator().nrows() {
                return Err(QlsError::Linalg(LinalgError::DimensionMismatch));
            }
            if !b.iter().all(|v| v.is_finite()) {
                return Err(QlsError::NonFinite {
                    boundary: "right-hand side",
                });
            }
            if b.iter().all(|&v| v == 0.0) {
                return Err(QlsError::Qsvt(QsvtError::InvalidInput(
                    "zero right-hand side",
                )));
            }
        }
        let kappa = self.solver.kappa();
        let epsilon_l = self.options.epsilon_l;
        let contraction = (epsilon_l * kappa).min(1.0);

        struct System {
            x: Vector<f64>,
            /// The right-hand side of the next inner solve: `b` in round 0,
            /// then the residual `b − A x` the last step's guard formed.
            r: Vector<f64>,
            steps: Vec<HybridStep>,
            status: Option<HybridStatus>,
            prev_omega: f64,
            streak: usize,
            log: RecoveryLog,
        }
        let mut systems: Vec<System> = bs
            .iter()
            .map(|b| System {
                x: Vector::zeros(b.len()),
                r: b.clone(),
                steps: Vec::new(),
                status: None,
                prev_omega: f64::INFINITY,
                streak: 0,
                log: RecoveryLog::default(),
            })
            .collect();

        for it in 0..=self.options.max_iterations {
            // CPU: the right-hand side of every active system's inner solve —
            // `b` itself in round 0, then the high-precision residual
            // `b − A x` that the previous step's guard already formed
            // (boundary-guarded per system).
            let mut batch: Vec<usize> = Vec::with_capacity(systems.len());
            let mut residuals: Vec<Vector<f64>> = Vec::with_capacity(systems.len());
            for (k, sys) in systems.iter_mut().enumerate() {
                if sys.status.is_some() {
                    continue;
                }
                let r = std::mem::replace(&mut sys.r, Vector::zeros(0));
                if r.iter().all(|v| v.is_finite()) {
                    batch.push(k);
                    residuals.push(r);
                } else {
                    sys.status = Some(HybridStatus::Failed {
                        reason: FailureReason::NonFiniteResidual,
                    });
                }
            }
            if batch.is_empty() {
                break;
            }
            // QPU: one batched round of inner solves at accuracy ε_l, with
            // per-system verdicts feeding the per-system guard.
            let solves = self.solver.solve_many(&residuals, rng);
            for ((&k, r), solve) in batch.iter().zip(&residuals).zip(solves) {
                let sys = &mut systems[k];
                let primary = solve.map(|res| (res.solution, res.cost));
                let (x, prev_omega) = if it == 0 {
                    (None, None)
                } else {
                    (Some(&sys.x), Some(sys.prev_omega))
                };
                let step =
                    self.guarded_step(&bs[k], x, r, prev_omega, primary, it, rng, &mut sys.log);
                let (Candidate { x, r, omega, cost }, stalled) = match step {
                    StepResult::Accepted(candidate) => (candidate, false),
                    StepResult::BestEffort(candidate) => (candidate, true),
                    StepResult::Dead { reason } => {
                        sys.status = Some(HybridStatus::Failed { reason });
                        continue;
                    }
                };
                sys.x = x;
                sys.r = r;
                sys.steps.push(HybridStep {
                    iteration: it,
                    scaled_residual: omega,
                    theoretical_bound: contraction.powi(it as i32 + 1),
                    cost,
                });
                sys.prev_omega = omega;
                if stalled {
                    sys.streak += 1;
                    if sys.streak >= STAGNATION_WINDOW {
                        sys.status = Some(HybridStatus::Stagnated);
                    }
                } else if omega <= self.options.target_epsilon {
                    sys.status = Some(Self::success_status(&sys.log));
                } else {
                    sys.streak = 0;
                }
            }
        }

        Ok(systems
            .into_iter()
            .map(|sys| {
                let history = HybridHistory {
                    steps: sys.steps,
                    status: sys.status.unwrap_or(HybridStatus::MaxIterations),
                    kappa,
                    epsilon_l,
                    target_epsilon: self.options.target_epsilon,
                    recovery: sys.log,
                };
                (sys.x, history)
            })
            .collect())
    }
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
    fn per_run_accidents_get_their_own_failure_reason() {
        // Post-selection failures, injected transients and non-finite
        // outputs are per-run accidents a retry can absorb; singular
        // matrices and dimension mismatches are solver errors.
        let reason = |e: QlsError| failure_reason(&e);
        assert_eq!(
            reason(QsvtError::PostSelectionFailed.into()),
            FailureReason::PostSelectionFailed
        );
        assert_eq!(
            reason(QsvtError::InjectedFault { run_index: 3 }.into()),
            FailureReason::InjectedFault
        );
        assert_eq!(
            reason(QsvtError::NonFiniteOutput.into()),
            FailureReason::NonFiniteReadout
        );
        assert_eq!(
            reason(QlsError::NonFinite {
                boundary: "readout"
            }),
            FailureReason::NonFiniteReadout
        );
        assert_eq!(
            reason(QsvtError::SingularMatrix.into()),
            FailureReason::SolverError
        );
        assert_eq!(
            reason(LinalgError::NotSquare.into()),
            FailureReason::SolverError
        );
    }

    #[test]
    fn converges_to_target_epsilon_for_kappa_10() {
        // The Fig. 3 setting: N = 16, kappa = 10, eps = 1e-11.
        let (a, b) = system(10.0, 16, 151);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-11,
            epsilon_l: 1e-2,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (x, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
        assert!(history.final_residual() <= 1e-11);
        // Iteration count within the Theorem III.1 bound.
        let bound = history.iteration_bound().unwrap();
        assert!(
            history.iterations() <= bound,
            "iterations {} exceed bound {bound}",
            history.iterations()
        );
        // Solution matches LU to the target accuracy scale.
        let reference = lu_solve(&a, &b).unwrap();
        assert!((&x - &reference).norm2() / reference.norm2() < 1e-9);
        // A clean run never touches the recovery machinery.
        assert!(history.recovery.is_empty());
    }

    #[test]
    fn residual_satisfies_theorem_bound_each_iteration() {
        let (a, b) = system(10.0, 16, 152);
        for &eps_l in &[1e-2, 1e-3] {
            let options = HybridRefinementOptions {
                target_epsilon: 1e-11,
                epsilon_l: eps_l,
                ..Default::default()
            };
            let refiner = HybridRefiner::new(&a, options).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(12);
            let (_, history) = refiner.solve(&b, &mut rng).unwrap();
            assert_eq!(history.status, HybridStatus::Converged);
            // Allow a modest constant-factor slack over the bound.
            assert!(
                history.satisfies_theorem_bound(10.0),
                "residuals {:?} vs bounds {:?}",
                history
                    .steps
                    .iter()
                    .map(|s| s.scaled_residual)
                    .collect::<Vec<_>>(),
                history
                    .steps
                    .iter()
                    .map(|s| s.theoretical_bound)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn smaller_epsilon_l_needs_fewer_iterations() {
        let (a, b) = system(10.0, 16, 153);
        let run = |eps_l: f64| -> usize {
            let options = HybridRefinementOptions {
                target_epsilon: 1e-10,
                epsilon_l: eps_l,
                ..Default::default()
            };
            let refiner = HybridRefiner::new(&a, options).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let (_, history) = refiner.solve(&b, &mut rng).unwrap();
            assert_eq!(history.status, HybridStatus::Converged);
            history.iterations()
        };
        let coarse = run(1e-2);
        let fine = run(1e-4);
        assert!(fine <= coarse);
        assert!(coarse >= 2);
    }

    #[test]
    fn contraction_factor_tracks_epsilon_l_kappa() {
        let (a, b) = system(20.0, 16, 154);
        let eps_l = 1e-3;
        let options = HybridRefinementOptions {
            target_epsilon: 1e-12,
            epsilon_l: eps_l,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        let expected = eps_l * 20.0;
        for (i, &factor) in history.contraction_factors().iter().enumerate() {
            // Each contraction factor should not exceed the theoretical eps_l*kappa
            // by more than a small constant (and is usually much better).
            assert!(
                factor <= expected * 5.0,
                "iteration {i}: contraction {factor} vs expected ≤ {expected}"
            );
        }
    }

    #[test]
    fn larger_kappa_converges_with_more_iterations() {
        // The Fig. 4 regime (scaled down in kappa to keep the test fast).
        let (a100, b100) = system(100.0, 16, 155);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-3,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a100, options).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let (_, history) = refiner.solve(&b100, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
        assert!(history.iterations() <= history.iteration_bound().unwrap());
        // At least one refinement iteration is needed: a single eps_l-accurate
        // solve cannot reach 1e-10 for kappa = 100.
        assert!(history.iterations() >= 1);
    }

    #[test]
    fn cost_accumulates_across_iterations() {
        let (a, b) = system(10.0, 16, 156);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-8,
            epsilon_l: 1e-2,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        let per_solve = history.steps[0].cost.block_encoding_calls;
        assert_eq!(
            history.total_block_encoding_calls(),
            per_solve * history.steps.len()
        );
        assert!(history.total_shots() > 0);
    }

    #[test]
    fn refinement_compiles_the_qsvt_circuit_exactly_once() {
        // Acceptance check of the compile-once engine: in circuit mode the
        // QSVT circuit is compiled during `new` and *never* inside the
        // iteration loop.  The compile counter is thread-local, so other
        // test threads cannot perturb it.
        let (a, b) = system(2.0, 4, 158);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-8,
            epsilon_l: 0.05,
            solver: crate::solver::QsvtSolverOptions {
                mode: qls_qsvt::QsvtMode::CircuitReal,
                ..Default::default()
            },
            ..Default::default()
        };
        let before_new = qls_sim::circuit_compile_count();
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let compiles_in_new = qls_sim::circuit_compile_count() - before_new;
        assert!(
            compiles_in_new >= 1,
            "construction must compile the circuit"
        );

        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let before_solve = qls_sim::circuit_compile_count();
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        let (_, _) = (
            refiner
                .solve_many(&[b.clone(), b.clone()], &mut rng)
                .unwrap(),
            (),
        );
        assert_eq!(
            qls_sim::circuit_compile_count(),
            before_solve,
            "no recompilation inside the refinement loop"
        );
        assert!(history.iterations() >= 1, "the loop actually iterated");
    }

    #[test]
    fn solve_many_matches_sequential_solves() {
        let (a, _) = system(10.0, 16, 160);
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let bs: Vec<Vector<f64>> = (0..4).map(|_| random_unit_vector(16, &mut rng)).collect();
        let options = HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-2,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let many = refiner.solve_many(&bs, &mut rng).unwrap();
        assert_eq!(many.len(), bs.len());
        for (b, (x_many, h_many)) in bs.iter().zip(&many) {
            let (x_single, h_single) = refiner.solve(b, &mut rng).unwrap();
            assert_eq!(h_many.status, h_single.status);
            assert_eq!(h_many.steps.len(), h_single.steps.len());
            // Exact readout: batched and sequential refinement are the same
            // float-for-float computation.
            assert_eq!((x_many - &x_single).norm2(), 0.0);
            for (sm, ss) in h_many.steps.iter().zip(&h_single.steps) {
                assert_eq!(sm.scaled_residual, ss.scaled_residual);
            }
        }
        // Every system individually satisfies the convergence contract.
        for (_, history) in &many {
            assert_eq!(history.status, HybridStatus::Converged);
            assert!(history.final_residual() <= 1e-10);
        }
    }

    #[test]
    fn poisson_matrix_refinement() {
        let a = qls_linalg::poisson_1d::<f64>(16, false).to_dense();
        let mut rng = ChaCha8Rng::seed_from_u64(157);
        let b = random_unit_vector(16, &mut rng);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-3,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
    }

    #[test]
    fn recovery_enabled_clean_path_is_bit_identical_to_disabled() {
        // The equivalence oracle of the recovery layer: on a fault-free,
        // exact-readout run the enabled ladder is never consulted, so the
        // solution and the whole history must match the disabled path float
        // for float, with an empty log and a plain Converged status.
        let (a, b) = system(10.0, 16, 162);
        let make = |recovery: bool| HybridRefinementOptions {
            target_epsilon: 1e-10,
            epsilon_l: 1e-2,
            recovery,
            ..Default::default()
        };
        let mut rng_off = ChaCha8Rng::seed_from_u64(21);
        let mut rng_on = ChaCha8Rng::seed_from_u64(21);
        let (x_off, h_off) = HybridRefiner::new(&a, make(false))
            .unwrap()
            .solve(&b, &mut rng_off)
            .unwrap();
        let (x_on, h_on) = HybridRefiner::new(&a, make(true))
            .unwrap()
            .solve(&b, &mut rng_on)
            .unwrap();
        assert_eq!(
            (&x_off - &x_on).norm2(),
            0.0,
            "solutions must be bit-identical"
        );
        assert_eq!(h_off.status, HybridStatus::Converged);
        assert_eq!(h_on.status, HybridStatus::Converged);
        assert_eq!(h_off.steps.len(), h_on.steps.len());
        for (s_off, s_on) in h_off.steps.iter().zip(&h_on.steps) {
            assert_eq!(s_off.scaled_residual, s_on.scaled_residual);
        }
        assert!(h_off.recovery.is_empty());
        assert!(h_on.recovery.is_empty());
    }

    #[test]
    fn stagnation_needs_two_consecutive_non_contracting_iterations() {
        // Finite-shot sampling at a modest budget: single noisy iterations
        // must not kill the run (the pre-fix one-strike rule did exactly
        // that).  With the two-strike window the run either converges or
        // stagnates only after two non-contracting iterations in a row.
        let (a, b) = system(10.0, 16, 163);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-6,
            epsilon_l: 1e-2,
            solver: crate::solver::QsvtSolverOptions {
                shots: Some(4_000_000),
                ..Default::default()
            },
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        let mut converged = 0usize;
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(30 + seed);
            let (_, history) = refiner.solve(&b, &mut rng).unwrap();
            match history.status {
                HybridStatus::Converged => converged += 1,
                HybridStatus::Stagnated => {
                    // Stagnation must only be declared after two consecutive
                    // non-contracting steps: the last two contraction
                    // factors both exceed the tolerance.
                    let factors = history.contraction_factors();
                    assert!(factors.len() >= 2, "stagnated after one step");
                    let tail = &factors[factors.len() - 2..];
                    assert!(
                        tail.iter().all(|&f| f > 0.95),
                        "stagnated although the last window contracted: {factors:?}"
                    );
                }
                other => panic!("seed {seed}: unexpected status {other:?}"),
            }
        }
        // The budget is generous enough that most seeds converge — the
        // one-strike rule killed roughly every seed at this shot count.
        assert!(converged >= 6, "only {converged}/8 seeds converged");
    }

    #[test]
    fn ladder_order_matches_the_documented_escalation() {
        let (a, _) = system(10.0, 16, 164);
        let options = HybridRefinementOptions {
            target_epsilon: 1e-8,
            epsilon_l: 1e-2,
            solver: crate::solver::QsvtSolverOptions {
                shots: Some(1_000),
                ..Default::default()
            },
            recovery: true,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a, options).unwrap();
        assert_eq!(
            refiner.recovery_ladder(),
            vec![
                RecoveryAction::Retry,
                RecoveryAction::EscalateShots { shots: 4_000 },
                RecoveryAction::EscalateShots { shots: 16_000 },
                RecoveryAction::TightenSolver,
                RecoveryAction::ClassicalFallback,
            ]
        );
        // Exact readout: the shot rung disappears, the rest stays.
        let exact = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-8,
                epsilon_l: 1e-2,
                recovery: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            exact.recovery_ladder(),
            vec![
                RecoveryAction::Retry,
                RecoveryAction::TightenSolver,
                RecoveryAction::ClassicalFallback,
            ]
        );
        // Disabled policy: no ladder at all.
        let disabled = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-8,
                epsilon_l: 1e-2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(disabled.recovery_ladder().is_empty());
    }

    #[test]
    fn non_finite_right_hand_side_is_rejected_at_the_boundary() {
        let (a, mut b) = system(10.0, 16, 165);
        b[3] = f64::NAN;
        let refiner = HybridRefiner::new(&a, HybridRefinementOptions::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        match refiner.solve(&b, &mut rng) {
            Err(QlsError::NonFinite { boundary }) => assert_eq!(boundary, "right-hand side"),
            other => panic!("expected a boundary rejection, got {other:?}"),
        }
        match refiner.solve_many(&[b.clone()], &mut rng) {
            Err(QlsError::NonFinite { .. }) => {}
            other => panic!("expected a boundary rejection, got {other:?}"),
        }
    }

    #[test]
    fn wrong_length_right_hand_side_is_an_error_at_every_entry_point() {
        // The same holds for an all-zero right-hand side, which has no state
        // `b/‖b‖` to prepare: a typed error in both modes, and in a batched
        // inner solve only its own system fails.
        let (a, b) = system(2.0, 4, 166);
        let short = Vector::from_f64_slice(&[0.25; 2]);
        let zero = Vector::zeros(4);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mismatch = |e: &QlsError| matches!(e, QlsError::Linalg(LinalgError::DimensionMismatch));
        let zero_rhs = |e: &QlsError| {
            matches!(
                e,
                QlsError::Qsvt(QsvtError::InvalidInput("zero right-hand side"))
            )
        };
        for mode in [
            qls_qsvt::QsvtMode::Emulation,
            qls_qsvt::QsvtMode::CircuitReal,
        ] {
            let options = HybridRefinementOptions {
                epsilon_l: 0.05,
                solver: QsvtSolverOptions {
                    mode,
                    ..Default::default()
                },
                ..Default::default()
            };
            let refiner = HybridRefiner::new(&a, options).unwrap();
            let solver = refiner.solver();
            assert!(refiner.solve(&short, &mut rng).is_err_and(|e| mismatch(&e)));
            assert!(refiner
                .solve_many(std::slice::from_ref(&short), &mut rng)
                .is_err_and(|e| mismatch(&e)));
            assert!(solver.solve(&short, &mut rng).is_err_and(|e| mismatch(&e)));
            let inverter = qls_qsvt::QsvtInverter::new(&a, 0.05, mode).unwrap();
            assert!(inverter
                .solve_direction(&short)
                .is_err_and(|e| format!("{e:?}") == "DimensionMismatch"));

            assert!(refiner.solve(&zero, &mut rng).is_err_and(|e| zero_rhs(&e)));
            assert!(refiner
                .solve_many(&[b.clone(), zero.clone()], &mut rng)
                .is_err_and(|e| zero_rhs(&e)));
            assert!(solver.solve(&zero, &mut rng).is_err_and(|e| zero_rhs(&e)));
            let batch = solver.solve_many(&[b.clone(), zero.clone(), b.clone()], &mut rng);
            assert!(batch[0].is_ok() && batch[2].is_ok(), "{mode:?}");
            assert!(batch[1].as_ref().is_err_and(zero_rhs), "{mode:?}");
        }
    }

    #[test]
    fn invalid_constructor_input_is_an_error_not_a_panic() {
        let (square, b16) = system(4.0, 16, 167);
        let (six, b6) = system(4.0, 6, 168);
        let rectangular = Matrix::from_f64_slice(4, 3, &[1.0; 12]);
        let emulated = |epsilon_l| HybridRefinementOptions {
            epsilon_l,
            ..Default::default()
        };
        let circuit = HybridRefinementOptions {
            epsilon_l: 0.05,
            solver: QsvtSolverOptions {
                mode: qls_qsvt::QsvtMode::CircuitReal,
                ..Default::default()
            },
            ..Default::default()
        };
        let invalid = |e: QlsError| matches!(e, QlsError::Qsvt(QsvtError::InvalidInput(_)));
        for epsilon_l in [0.0, 1.5, f64::NAN] {
            assert!(
                HybridRefiner::new(&square, emulated(epsilon_l)).is_err_and(invalid),
                "epsilon_l = {epsilon_l}"
            );
        }
        assert!(HybridRefiner::new(&rectangular, emulated(0.05)).is_err_and(invalid));
        assert!(HybridRefiner::new(&six, circuit).is_err_and(invalid));
        // A sampled readout of zero shots has no counts to read.
        let no_shots = QsvtSolverOptions {
            shots: Some(0),
            ..Default::default()
        };
        assert!(HybridRefiner::new(
            &square,
            HybridRefinementOptions {
                solver: no_shots,
                ..emulated(0.05)
            }
        )
        .is_err_and(invalid));
        assert!(QsvtLinearSolver::new(&square, 1e-2, no_shots).is_err_and(invalid));
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let exact = QsvtLinearSolver::new(&square, 1e-2, QsvtSolverOptions::default()).unwrap();
        assert!(exact
            .solve_with_shots(&b16, Some(0), &mut rng)
            .is_err_and(invalid));
        // Emulation has no register to fill, so N = 6 is accepted, and it
        // solves: state preparation zero-pads the right-hand side to 8
        // amplitudes.
        let refiner = HybridRefiner::new(&six, emulated(0.05)).unwrap();
        let (x, history) = refiner.solve(&b6, &mut rng).unwrap();
        assert!(history.status.reached_target(), "{:?}", history.status);
        let reference = lu_solve(&six, &b6).unwrap();
        let err = (&x - &reference).norm2() / reference.norm2();
        let bound = 10.0 * refiner.solver().kappa() * refiner.options().target_epsilon;
        assert!(err <= bound, "forward error {err} above {bound}");
    }
}
