//! Deterministic fault injection for the simulator.
//!
//! The paper sells Algorithm 2 as the *robust* way to use a low-precision
//! quantum solver: iterative refinement converges even when each inner solve
//! is only ε_l-accurate (Theorem III.1).  Exercising that claim requires a
//! simulator that can *misbehave on demand* — noisy amplitudes, a transient
//! hardware failure on the k-th run, corrupted readout — and do so
//! **reproducibly**, so a failing recovery path can be replayed from a seed.
//!
//! This module provides that layer:
//!
//! * [`FaultPlan`] — a declarative, seedable description of every fault to
//!   inject: Gaussian amplitude perturbation of configurable strength,
//!   scheduled transient failures (the k-th run returns an injected error or
//!   a NaN-poisoned register), and readout sign corruption that composes with
//!   the finite-shot sampling path of `qls_core`.
//! * [`FaultInjector`] — the stateful executor of a plan: it owns a ChaCha
//!   stream seeded from the plan, counts device runs, applies the scheduled
//!   faults and records every action in an event log.  Same seed + same plan
//!   + same call sequence ⇒ bit-identical fault history, every time.
//!
//! The simulator itself never consults an injector: [`crate::QuantumExecutor`]
//! always runs ideally.  Faults enter in one place, `qls_qsvt::QsvtInverter`,
//! which calls [`FaultInjector::apply_to_state`] on each register after the
//! batch run (circuit mode) or [`FaultInjector::apply_to_direction`] on the
//! ideal output (emulation mode), in input order.  The solver and refiner
//! layers forward their `attach_fault_injector` to it.  Without an injector
//! (or with an empty plan) a solve is bit-identical to one without this
//! module — the house equivalence-oracle pattern (`kernels::reference`,
//! `OptLevel::None`).

use crate::state::StateVector;
use num_complex::Complex64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// What a scheduled transient failure does when its run comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// The run reports a hardware error: the faulted run returns
    /// [`FaultError::InjectedTransient`] instead of a state.
    InjectedError,
    /// The run silently corrupts the register: every amplitude becomes NaN.
    /// Nothing errors at the device boundary — upper layers must *detect*
    /// the poison through their finiteness guards.
    NanPoison,
}

/// A transient failure scheduled for one specific device run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFault {
    /// 0-based index of the device run this fault fires on (each faulted
    /// register or emulated output ticks the counter once).
    pub run_index: usize,
    /// What happens on that run.
    pub kind: TransientKind,
}

/// A declarative, seedable description of every fault to inject.
///
/// The plan is plain data: build it once, hand copies to tests, benches and
/// examples, and every [`FaultInjector`] constructed from it replays the
/// exact same degradation sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private ChaCha stream (independent of the
    /// solver's own RNG, so faults do not perturb shot sampling draws).
    pub seed: u64,
    /// Standard deviation of the Gaussian perturbation added to every
    /// amplitude (real and imaginary part independently) after each run.
    /// `0.0` disables amplitude noise and consumes no randomness.
    pub amplitude_sigma: f64,
    /// Scheduled transient failures, matched against the run counter.
    pub transients: Vec<TransientFault>,
    /// Per-coordinate probability of a sign flip in the sampled readout
    /// (composes with the finite-shot `sample_direction` path: magnitudes
    /// come from shot counts, and this corrupts the recovered signs).
    /// `0.0` disables readout corruption and consumes no randomness.
    pub readout_flip_probability: f64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            amplitude_sigma: 0.0,
            transients: Vec::new(),
            readout_flip_probability: 0.0,
        }
    }

    /// Add Gaussian amplitude noise of strength `sigma` to every run.
    pub fn with_amplitude_noise(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise strength must be non-negative");
        self.amplitude_sigma = sigma;
        self
    }

    /// Schedule a transient failure on the `run_index`-th device run.
    pub fn with_transient(mut self, run_index: usize, kind: TransientKind) -> Self {
        self.transients.push(TransientFault { run_index, kind });
        self
    }

    /// Corrupt the sampled readout: flip each coordinate's sign with
    /// probability `p`.
    pub fn with_readout_sign_flips(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.readout_flip_probability = p;
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.amplitude_sigma == 0.0
            && self.transients.is_empty()
            && self.readout_flip_probability == 0.0
    }
}

/// One recorded fault application (the injector's audit log).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Gaussian amplitude noise of the recorded strength hit this run.
    AmplitudeNoise { run_index: usize, sigma: f64 },
    /// A scheduled transient fired on this run.
    Transient {
        run_index: usize,
        kind: TransientKind,
    },
    /// `flips` coordinates of a sampled readout had their sign flipped.
    ReadoutCorruption { run_index: usize, flips: usize },
}

/// Error surfaced by an injected transient failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The `run_index`-th device run was scheduled to fail.
    InjectedTransient {
        /// Which run reported the failure.
        run_index: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InjectedTransient { run_index } => {
                write!(f, "injected transient failure on device run {run_index}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Shared handle to a [`FaultInjector`], cloneable across the QSVT inverter
/// and the solver readout path so both tick the same run counter and draw
/// from the same deterministic stream.
pub type SharedFaultInjector = Arc<Mutex<FaultInjector>>;

/// The stateful executor of a [`FaultPlan`].
///
/// Deterministic by construction: the ChaCha stream is seeded from the plan,
/// faults are applied in call order, and the only inputs are the plan and
/// the sequence of calls — so identical (seed, plan, call sequence) triples
/// produce identical perturbations, identical scheduled failures and an
/// identical [`FaultInjector::events`] log.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    next_run: usize,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Build an injector executing `plan` from its seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng,
            next_run: 0,
            events: Vec::new(),
        }
    }

    /// Build an injector wrapped in the [`SharedFaultInjector`] handle that
    /// the solver layers' `attach_fault_injector` accepts.
    pub fn shared(plan: FaultPlan) -> SharedFaultInjector {
        Arc::new(Mutex::new(FaultInjector::new(plan)))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of device runs seen so far.
    pub fn runs(&self) -> usize {
        self.next_run
    }

    /// Everything injected so far, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rewind to the initial state (same seed, run counter 0, empty log) so
    /// the exact fault sequence can be replayed.
    pub fn reset(&mut self) {
        self.rng = ChaCha8Rng::seed_from_u64(self.plan.seed);
        self.next_run = 0;
        self.events.clear();
    }

    /// One Gaussian draw (Box–Muller; two uniform draws per call, so the
    /// stream advances deterministically).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    fn scheduled_transient(&self, run: usize) -> Option<TransientKind> {
        self.plan
            .transients
            .iter()
            .find(|t| t.run_index == run)
            .map(|t| t.kind)
    }

    /// Apply the plan to a full simulator register after one device run:
    /// amplitude noise first, then any transient scheduled for this run.
    /// Ticks the run counter exactly once.
    pub fn apply_to_state(&mut self, state: &mut StateVector) -> Result<(), FaultError> {
        let run = self.next_run;
        self.next_run += 1;
        let sigma = self.plan.amplitude_sigma;
        if sigma > 0.0 {
            for amp in state.amplitudes_mut() {
                let noise = Complex64::new(sigma * self.gaussian(), sigma * self.gaussian());
                *amp += noise;
            }
            self.events.push(FaultEvent::AmplitudeNoise {
                run_index: run,
                sigma,
            });
        }
        match self.scheduled_transient(run) {
            Some(TransientKind::NanPoison) => {
                for amp in state.amplitudes_mut() {
                    *amp = Complex64::new(f64::NAN, f64::NAN);
                }
                self.events.push(FaultEvent::Transient {
                    run_index: run,
                    kind: TransientKind::NanPoison,
                });
                Ok(())
            }
            Some(TransientKind::InjectedError) => {
                self.events.push(FaultEvent::Transient {
                    run_index: run,
                    kind: TransientKind::InjectedError,
                });
                Err(FaultError::InjectedTransient { run_index: run })
            }
            None => Ok(()),
        }
    }

    /// Apply the plan to a real output direction — the emulation-mode
    /// equivalent of [`FaultInjector::apply_to_state`] (`QsvtMode::Emulation`
    /// never materialises a register, but models the same device run).
    /// Ticks the run counter exactly once.
    pub fn apply_to_direction(&mut self, direction: &mut [f64]) -> Result<(), FaultError> {
        let run = self.next_run;
        self.next_run += 1;
        let sigma = self.plan.amplitude_sigma;
        if sigma > 0.0 {
            for v in direction.iter_mut() {
                *v += sigma * self.gaussian();
            }
            self.events.push(FaultEvent::AmplitudeNoise {
                run_index: run,
                sigma,
            });
        }
        match self.scheduled_transient(run) {
            Some(TransientKind::NanPoison) => {
                for v in direction.iter_mut() {
                    *v = f64::NAN;
                }
                self.events.push(FaultEvent::Transient {
                    run_index: run,
                    kind: TransientKind::NanPoison,
                });
                Ok(())
            }
            Some(TransientKind::InjectedError) => {
                self.events.push(FaultEvent::Transient {
                    run_index: run,
                    kind: TransientKind::InjectedError,
                });
                Err(FaultError::InjectedTransient { run_index: run })
            }
            None => Ok(()),
        }
    }

    /// Corrupt a sampled readout in place: flip each coordinate's sign with
    /// the plan's probability.  Does **not** tick the run counter (readout
    /// is part of the same device run as the execution it follows) and
    /// consumes no randomness when corruption is disabled.
    pub fn corrupt_readout(&mut self, readout: &mut [f64]) {
        let p = self.plan.readout_flip_probability;
        if p <= 0.0 {
            return;
        }
        let mut flips = 0usize;
        for v in readout.iter_mut() {
            if self.rng.gen_bool(p) {
                *v = -*v;
                flips += 1;
            }
        }
        if flips > 0 {
            self.events.push(FaultEvent::ReadoutCorruption {
                // The readout belongs to the run that just completed.
                run_index: self.next_run.saturating_sub(1),
                flips,
            });
        }
    }
}

/// Lock a shared injector, recovering from a poisoned mutex (the injector's
/// state stays usable — it holds no invariants a panic could break).
pub fn lock_injector(inj: &SharedFaultInjector) -> std::sync::MutexGuard<'_, FaultInjector> {
    inj.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_a_no_op() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        assert!(inj.plan().is_empty());
        let mut state = StateVector::basis_state(2, 1);
        let before = state.amplitudes().to_vec();
        inj.apply_to_state(&mut state).unwrap();
        assert_eq!(state.amplitudes(), &before[..]);
        let mut dir = [0.6, -0.8];
        inj.apply_to_direction(&mut dir).unwrap();
        assert_eq!(dir, [0.6, -0.8]);
        inj.corrupt_readout(&mut dir);
        assert_eq!(dir, [0.6, -0.8]);
        assert_eq!(inj.runs(), 2);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn amplitude_noise_is_deterministic_per_seed() {
        let plan = FaultPlan::new(42).with_amplitude_noise(0.01);
        let run = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            let mut state = StateVector::basis_state(3, 5);
            inj.apply_to_state(&mut state).unwrap();
            state.amplitudes().to_vec()
        };
        assert_eq!(run(plan.clone()), run(plan.clone()));
        // A different seed perturbs differently.
        let other = run(FaultPlan::new(43).with_amplitude_noise(0.01));
        assert_ne!(run(plan), other);
    }

    #[test]
    fn transient_fires_on_the_scheduled_run_only() {
        let plan = FaultPlan::new(7).with_transient(1, TransientKind::InjectedError);
        let mut inj = FaultInjector::new(plan);
        let mut state = StateVector::basis_state(1, 0);
        assert!(inj.apply_to_state(&mut state).is_ok());
        assert_eq!(
            inj.apply_to_state(&mut state),
            Err(FaultError::InjectedTransient { run_index: 1 })
        );
        assert!(inj.apply_to_state(&mut state).is_ok());
        assert_eq!(inj.runs(), 3);
    }

    #[test]
    fn nan_poison_corrupts_without_erroring() {
        let plan = FaultPlan::new(7).with_transient(0, TransientKind::NanPoison);
        let mut inj = FaultInjector::new(plan);
        let mut dir = [0.6, -0.8];
        assert!(inj.apply_to_direction(&mut dir).is_ok());
        assert!(dir.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn reset_replays_the_exact_stream() {
        let plan = FaultPlan::new(11)
            .with_amplitude_noise(0.05)
            .with_readout_sign_flips(0.3);
        let mut inj = FaultInjector::new(plan);
        let mut d1 = vec![0.5; 8];
        inj.apply_to_direction(&mut d1).unwrap();
        inj.corrupt_readout(&mut d1);
        let events1 = inj.events().to_vec();
        inj.reset();
        assert_eq!(inj.runs(), 0);
        let mut d2 = vec![0.5; 8];
        inj.apply_to_direction(&mut d2).unwrap();
        inj.corrupt_readout(&mut d2);
        assert_eq!(d1, d2);
        assert_eq!(events1, inj.events());
    }

    #[test]
    fn gaussian_noise_has_roughly_the_requested_scale() {
        let mut inj = FaultInjector::new(FaultPlan::new(3).with_amplitude_noise(0.1));
        let mut dir = vec![0.0; 4096];
        inj.apply_to_direction(&mut dir).unwrap();
        let mean: f64 = dir.iter().sum::<f64>() / dir.len() as f64;
        let var: f64 = dir.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / dir.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }
}
