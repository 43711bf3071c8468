//! # qls-perfbench
//!
//! The repository's benchmark of Algorithm 2 (a low-accuracy QSVT solve inside
//! high-precision iterative refinement).  The paper sells the algorithm on the
//! cost of reaching a target accuracy ε, so the end-to-end metrics are what a
//! user of [`HybridRefiner`] pays per right-hand side (RHS): time per solve
//! call, RHS per second, set-up time, block-encoding calls, shots and
//! iterations per RHS.  Every answer is checked against a dense LU reference.
//!
//! ## Workloads
//!
//! All three are **closed loops with one caller**: the next RHS (or batch) is
//! submitted when the previous solve returns.  They run in one process whose
//! thread fan-out is the vendored rayon's width, `RAYON_NUM_THREADS` or else
//! `available_parallelism()` ([`machine_threads`], printed by every run; the
//! bounds in `BENCHMARK.json` were set on a machine with 2).  The
//! matrices come from [`qls_bench::paper_test_system`] with a fixed matrix
//! seed, so set-up work is the same for every run; the RHS are unit vectors
//! drawn from the workload seed given on the command line.
//!
//! | workload | inputs | why |
//! |---|---|---|
//! | `circuit_exact` | N = 16, κ = 8, ε_l = 0.05, ε = 1e-10, `QsvtMode::CircuitReal`, exact readout, one `solve` per RHS | The paper's Section IV circuit experiment.  An inner solve is dominated by resource bookkeeping (two circuit walks of 60–100 µs around a circuit run of a few µs), so solve-path bookkeeping shows here first; it is the only construction that runs phase finding, fusion and the artifact cache. |
//! | `emulated_large_kappa` | N = 16, κ = 300, ε_l = 1/(4κ), ε = 1e-11, `QsvtMode::Emulation`, exact readout, one `solve` per RHS | At degree 10167 the emulated polynomial application dominates each solve and set-up is the SVD plus the polynomial.  There is no circuit to walk and the cache is never consulted, so bookkeeping and cache changes must read "no change" here. |
//! | `circuit_shots_batched` | `circuit_exact`'s matrix and solver with 10⁴ shots, `solve_many` on batches of 16 RHS | The same circuit layers used another way: registers run in batches through `run_batch` (the only thread fan-out at these sizes) and readout is sampled.  A gain on the single-solve path that costs the batch or sampling path shows here. |
//!
//! The forward-error tolerance of the LU check is `10 · κ · ε` per workload
//! ([`Spec::tolerance`]); a status other than `Converged` or an error above
//! it counts as a failed RHS.
//!
//! ## Determinism
//!
//! Each solve call gets its own RNG seeded from the workload seed and the
//! call's index in the RHS stream ([`call_rng`]), so the work of a call, and
//! therefore every count metric, is a function of the seed alone — it does
//! not depend on how many calls fit into the timed phase.
//!
//! The count metrics are means over an untimed pass of [`COUNTED_RHS`]
//! right-hand sides, far more than the timed pool, so that they also move
//! little from one seed to the next: iterations per RHS vary between RHS on
//! `circuit_shots_batched`, and over 256 RHS their mean spread 1% across ten
//! seeds, too much for a bound that catches a 1% rise in quantum cost.

use qls_cache::{cache_hit_count, cache_miss_count, with_cache_dir};
use qls_core::{
    classical_lu_solve, HybridHistory, HybridRefinementOptions, HybridRefiner, HybridStatus,
    QsvtSolverOptions,
};
use qls_linalg::{forward_error, random_unit_vector, Matrix, Vector};
use qls_qsvt::{phase_generation_count, QsvtMode};
use qls_sim::{calibration_count, fusion_pass_count};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

pub mod e2e;
pub mod scratch;
pub mod stats;
pub mod trace;

/// Problem size of every workload (the paper's Section IV setting).
pub const N: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Section IV circuit experiment, exact readout, one solve per RHS.
    CircuitExact,
    /// Fig. 4 regime (κ = 300) through the emulated QSVT, one solve per RHS.
    EmulatedLargeKappa,
    /// `CircuitExact`'s solver with sampled readout, batches of 16 RHS.
    CircuitShotsBatched,
}

/// Inputs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Condition number requested from [`qls_bench::paper_test_system`].
    pub kappa: f64,
    /// Seed of the matrix; fixed so set-up work does not depend on the
    /// workload seed.
    pub matrix_seed: u64,
    /// Accuracy ε_l of each QSVT solve.
    pub epsilon_l: f64,
    /// Target scaled residual ε of the refinement.
    pub target_epsilon: f64,
    /// Quantum execution mode.
    pub mode: QsvtMode,
    /// Shots per readout (`None` = exact amplitudes).
    pub shots: Option<usize>,
    /// RHS per solve call: 1 = `HybridRefiner::solve`, more = `solve_many`.
    pub batch: usize,
    /// RHS the timed phase cycles through: the first of the RHS stream.
    pub pool: usize,
}

/// RHS of the untimed counting pass, the first [`Spec::pool`] of which are
/// the timed pool (a multiple of every batch).
pub const COUNTED_RHS: usize = 4096;

impl Spec {
    /// Largest accepted relative forward error against the LU reference:
    /// `10 · κ · ε`, i.e. the target residual turned into a forward error
    /// bound with a factor 10 to spare.
    pub fn tolerance(&self) -> f64 {
        10.0 * self.kappa * self.target_epsilon
    }

    /// Solve calls in one pass over the timed pool.
    pub fn calls_per_pass(&self) -> usize {
        self.pool / self.batch
    }

    /// The refiner options of this workload.
    pub fn options(&self) -> HybridRefinementOptions {
        HybridRefinementOptions {
            target_epsilon: self.target_epsilon,
            epsilon_l: self.epsilon_l,
            solver: QsvtSolverOptions {
                mode: self.mode,
                shots: self.shots,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CircuitExact,
        Workload::EmulatedLargeKappa,
        Workload::CircuitShotsBatched,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CircuitExact => "circuit_exact",
            Workload::EmulatedLargeKappa => "emulated_large_kappa",
            Workload::CircuitShotsBatched => "circuit_shots_batched",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::CircuitExact => Spec {
                kappa: 8.0,
                matrix_seed: 1,
                epsilon_l: 0.05,
                target_epsilon: 1e-10,
                mode: QsvtMode::CircuitReal,
                shots: None,
                batch: 1,
                pool: 256,
            },
            Workload::EmulatedLargeKappa => Spec {
                kappa: 300.0,
                matrix_seed: 102,
                epsilon_l: 0.25 / 300.0,
                target_epsilon: 1e-11,
                mode: QsvtMode::Emulation,
                shots: None,
                batch: 1,
                pool: 256,
            },
            // Four batches, so that each is timed about as often per second
            // as a pool entry of the single-solve workloads (see `e2e`).
            Workload::CircuitShotsBatched => Spec {
                shots: Some(10_000),
                batch: 16,
                pool: 64,
                ..Workload::CircuitExact.spec()
            },
        }
    }

    /// The workload's matrix.
    pub fn matrix(self) -> Matrix<f64> {
        let spec = self.spec();
        qls_bench::paper_test_system(N, spec.kappa, spec.matrix_seed).0
    }
}

/// `count` unit right-hand sides drawn from `seed`.
pub fn rhs_stream(seed: u64, count: usize) -> Vec<Vector<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| random_unit_vector(N, &mut rng))
        .collect()
}

/// The RNG of solve call `call` (index within the RHS stream) of a run with
/// `seed`: readout sampling of a call never depends on the calls before it.
pub fn call_rng(seed: u64, call: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((call as u64).wrapping_add(1)),
    )
}

/// A prepared workload: its refiner, its RHS stream and the LU references.
pub struct Bench {
    /// The workload's inputs.
    pub spec: Spec,
    /// The matrix.
    pub a: Matrix<f64>,
    /// The refiner every timed call goes through.
    pub refiner: HybridRefiner,
    /// Right-hand sides drawn from the seed; the timed pool is the first
    /// [`Spec::pool`] of them.
    pub pool: Vec<Vector<f64>>,
    /// `classical_lu_solve` of every drawn RHS.
    pub reference: Vec<Vector<f64>>,
    seed: u64,
}

/// Work records of a set of solve calls, summed over RHS.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// RHS solved.
    pub rhs: usize,
    /// RHS that did not end `Converged` within the LU tolerance.
    pub failed: usize,
    /// Block-encoding calls from every step's `SolveCost`.
    pub be_calls: usize,
    /// Shots from every step's `SolveCost`.
    pub shots: usize,
    /// `HybridHistory::iterations()`.
    pub iterations: usize,
    /// Inner QSVT solves (history steps).
    pub inner_solves: usize,
    /// Brent evaluations of the norm recovery.
    pub brent_evals: usize,
}

impl Tally {
    /// Per-RHS mean of one of the summed fields.
    pub fn per_rhs(&self, total: usize) -> f64 {
        total as f64 / self.rhs.max(1) as f64
    }
}

impl Bench {
    /// Build the workload's refiner (in whatever cache directory is current)
    /// and draw [`COUNTED_RHS`] right-hand sides from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        Bench::with_rhs(workload, seed, COUNTED_RHS)
    }

    /// [`Bench::new`] drawing `count` right-hand sides (a multiple of the
    /// workload's batch) instead of [`COUNTED_RHS`].
    pub fn with_rhs(workload: Workload, seed: u64, count: usize) -> Bench {
        let spec = workload.spec();
        assert!(
            count >= spec.batch && count.is_multiple_of(spec.batch),
            "the RHS stream must hold whole batches"
        );
        let a = workload.matrix();
        let refiner = HybridRefiner::new(&a, spec.options()).expect("workload refiner");
        let pool = rhs_stream(seed, count);
        let reference = pool
            .iter()
            .map(|b| classical_lu_solve(&a, b).expect("LU reference"))
            .collect();
        Bench {
            spec,
            a,
            refiner,
            pool,
            reference,
            seed,
        }
    }

    /// Solve call `call` of a pass: one `solve` or one `solve_many` batch.
    pub fn solve_call(&self, call: usize) -> Vec<(Vector<f64>, HybridHistory)> {
        let mut rng = call_rng(self.seed, call);
        let batch = self.spec.batch;
        if batch == 1 {
            vec![self
                .refiner
                .solve(&self.pool[call], &mut rng)
                .expect("finite right-hand side")]
        } else {
            self.refiner
                .solve_many(&self.pool[call * batch..(call + 1) * batch], &mut rng)
                .expect("finite right-hand sides")
        }
    }

    /// Add the results of solve call `call` to `tally`, checking each
    /// solution against its LU reference.
    pub fn check(&self, call: usize, results: &[(Vector<f64>, HybridHistory)], tally: &mut Tally) {
        let first = call * self.spec.batch;
        for (k, (x, history)) in results.iter().enumerate() {
            let reference = &self.reference[first + k];
            let ok = history.status == HybridStatus::Converged
                && forward_error(x, reference) <= self.spec.tolerance();
            tally.rhs += 1;
            tally.failed += usize::from(!ok);
            tally.be_calls += history.total_block_encoding_calls();
            tally.shots += history.total_shots();
            tally.iterations += history.iterations();
            tally.inner_solves += history.steps.len();
            tally.brent_evals += history
                .steps
                .iter()
                .map(|s| s.cost.brent_evaluations)
                .sum::<usize>();
        }
    }

    /// One untimed pass over every drawn RHS: the count metrics of the run.
    pub fn counting_pass(&self) -> Tally {
        let mut tally = Tally::default();
        for call in 0..self.pool.len() / self.spec.batch {
            let results = self.solve_call(call);
            self.check(call, &results, &mut tally);
        }
        tally
    }
}

/// Operations of a refiner's fused QSVT circuit (0 in emulation mode).
pub fn fused_ops(refiner: &HybridRefiner) -> usize {
    refiner.solver().circuit_stats().map_or(0, |s| s.fused_ops)
}

/// One `HybridRefiner::new` of a workload on a fresh thread against a cache
/// directory: what a new process pays, since the fusion calibration table
/// and the work counters are thread-local.
#[derive(Debug, Clone, Copy)]
pub struct Construction {
    /// Wall time of `HybridRefiner::new`.
    pub seconds: f64,
    /// Operations of the fused QSVT circuit (0 in emulation mode).
    pub fused_ops: usize,
    /// Artifact-cache lookups that found an entry.
    pub cache_hits: usize,
    /// Artifact-cache lookups that found nothing usable.
    pub cache_misses: usize,
    /// Fusion cost-model calibrations.
    pub calibrations: usize,
    /// QSVT phase-factor generations.
    pub phase_generations: usize,
    /// Fusion passes.
    pub fusion_passes: usize,
}

/// Build `workload`'s refiner on a fresh thread against the cache directory
/// `dir`.
pub fn construct(workload: Workload, dir: &Path) -> Construction {
    let a = workload.matrix();
    let options = workload.spec().options();
    std::thread::scope(|s| {
        s.spawn(|| {
            with_cache_dir(dir, || {
                let before = (
                    cache_hit_count(),
                    cache_miss_count(),
                    calibration_count(),
                    phase_generation_count(),
                    fusion_pass_count(),
                );
                let start = Instant::now();
                let refiner = HybridRefiner::new(&a, options).expect("workload refiner");
                let seconds = start.elapsed().as_secs_f64();
                Construction {
                    seconds,
                    fused_ops: fused_ops(&refiner),
                    cache_hits: cache_hit_count() - before.0,
                    cache_misses: cache_miss_count() - before.1,
                    calibrations: calibration_count() - before.2,
                    phase_generations: phase_generation_count() - before.3,
                    fusion_passes: fusion_pass_count() - before.4,
                }
            })
        })
        .join()
        .expect("construction thread")
    })
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric reading.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// RHS attempted.
    pub attempted: usize,
    /// RHS whose answer was wrong.
    pub failed: usize,
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Worker threads a parallel call of the vendored rayon fans out to.
pub fn machine_threads() -> usize {
    rayon::current_num_threads()
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
