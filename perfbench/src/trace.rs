//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans are taken from this file, around the calls into the public entry
//! point of each layer crate, on the workload's own inputs: its matrix, its
//! RHS stream, and the residuals and directions captured from an untimed
//! replay of the refinement loop ([`capture`]).  A per-call time is the
//! median over calls.  Counts come from the program's own records
//! (`HybridHistory`, `SolveCost`, `CircuitStats`) and its thread-local
//! counters.  A stage the workload's solver never runs reads 0: the circuit
//! set-up stages and the cache in emulation mode, sampled readout under
//! exact readout, and batched directions outside the batched workload.
//!
//! Set-up stages (they move `setup_s` and `setup_warm_s`):
//!
//! | metric | entry point | heavy / light |
//! |---|---|---|
//! | `linalg.svd_ms` | `Svd::new` | with the polynomial, all of `emulated_large_kappa`'s set-up; small in `circuit_exact` |
//! | `poly.inverse_poly_ms` | `InversePolynomial::new` | as above (degree 10167 vs 117) |
//! | `qsvt.phases_ms` | `find_phases`, cold | heavy in `circuit_exact`; never runs in emulation |
//! | `encoding.block_encoding_ms` | `DilationBlockEncoding::of_adjoint` | circuit workloads only |
//! | `qsvt.circuit_assembly_ms` | `QsvtCircuit::with_real_part_extraction` | circuit workloads only |
//! | `sim.fusion_ms` | `optimize_circuit` with `FusionOptions::measured()` | circuit workloads, cold |
//! | `sim.executor_build_ms` | `QuantumExecutor::with_config`, cache disabled | circuit workloads, cold |
//! | `qsvt.phases_warm_ms` | `find_phases_cached`, warm directory | `setup_warm_s` |
//! | `sim.executor_warm_ms` | `QuantumExecutor::with_config`, warm directory | `setup_warm_s` |
//!
//! with the counts `qsvt.degree`, `sim.raw_ops`, `sim.fused_ops`,
//! `sim.calibrations`, `cache.misses_cold` and `cache.entry_bytes` (the
//! bytes a cold build writes) of one cold construction, and
//! `cache.hits_warm`, `qsvt.phase_generations_warm` and
//! `sim.fusion_passes_warm` of one warm construction, each on a fresh thread
//! as a new process would build.
//!
//! Solve stages (they move `solve_ms_p50`, `solve_ms_p90` and `rhs_per_s`):
//!
//! | metric | entry point | heavy / light |
//! |---|---|---|
//! | `core.inner_solve_us` | `QsvtLinearSolver::solve` | all workloads |
//! | `qsvt.direction_us` | `QsvtInverter::solve_direction` on an inverter built with the refiner's arguments | heavy in `emulated_large_kappa`; a few µs in `circuit_exact` |
//! | `qsvt.resources_us` | `QsvtLinearSolver::quantum_resources` | a circuit walk in circuit mode; cheap in emulation |
//! | `encoding.state_prep_us` | `StatePreparation::new` | small at N = 16 |
//! | `linalg.brent_us` | `brent_minimize` on the norm-recovery objective | small at N = 16 |
//! | `linalg.residual_us` | `scaled_residual` | small at N = 16 |
//! | `core.readout_us` | `sample_direction` at the workload's shots | `circuit_shots_batched` only |
//! | `sim.batch_direction_us` | `QsvtInverter::solve_direction_batch` on one batch | `circuit_shots_batched` only; with `sim.batch_vs_sequential` (batch size × `qsvt.direction_us` / `sim.batch_direction_us`) and `machine_threads` it moves that workload's `rhs_per_s` and `solve_ms_p90` |
//!
//! with the per-RHS counts `core.inner_solves_per_rhs`,
//! `linalg.brent_evals_per_rhs` and `sim.circuit_compiles_per_rhs`, and the
//! shares of the traced run's own per-RHS time `core.per_rhs_us`:
//! `qsvt.direction_share`, `core.readout_share` and `linalg.brent_share`
//! take one direction, one readout (when sampled) and one norm recovery per
//! inner solve, as Algorithm 2 fixes them; `core.unattributed_share` is the
//! rest, which is where bookkeeping on the solve path shows.

use crate::scratch::{dir_bytes, Scratch};
use crate::stats::median;
use crate::{call_rng, construct, machine_threads, Bench, Metric, Outcome, Tally, Workload};
use qls_cache::{with_cache_dir, CachePolicy};
use qls_core::{sample_direction, QsvtSolveResult};
use qls_encoding::{DilationBlockEncoding, StatePreparation};
use qls_linalg::{brent_minimize, scaled_residual, Svd, Vector};
use qls_poly::InversePolynomial;
use qls_qsvt::{
    find_phases, find_phases_cached, PhaseFindingOptions, QsvtCircuit, QsvtInverter, QsvtMode,
};
use qls_sim::{
    circuit_compile_count, optimize_circuit, ExecMode, FusionOptions, OptLevel, QuantumExecutor,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A solve stage: its metric name and a call of its entry point on captured
/// input `i`.
type Stage<'a> = (&'static str, Box<dyn FnMut(usize) + 'a>);

/// Repetitions of each set-up stage (the median is reported).
const SETUP_REPS: usize = 7;

/// RHS whose refinement is replayed to capture inner-solve inputs.
const CAPTURED_RHS: usize = 32;

/// One inner solve of the replayed refinement: its input (the RHS or a
/// residual) and the solver's result.
struct Captured {
    input: Vector<f64>,
    result: QsvtSolveResult,
}

/// Replay Algorithm 2's clean path for `rhs` through the refiner's own
/// solver and keep every inner solve's input and result.
fn capture(bench: &Bench, seed: u64, rhs: &[Vector<f64>]) -> Vec<Captured> {
    let solver = bench.refiner.solver();
    let options = bench.refiner.options();
    let mut captured = Vec::new();
    for (call, b) in rhs.iter().enumerate() {
        let mut rng = call_rng(seed, call);
        let first = solver.solve(b, &mut rng).expect("initial inner solve");
        let mut x = first.solution.clone();
        captured.push(Captured {
            input: b.clone(),
            result: first,
        });
        for _ in 0..options.max_iterations {
            if scaled_residual(&bench.a, &x, b) <= options.target_epsilon {
                break;
            }
            let r = b - &bench.a.matvec(&x);
            let result = solver.solve(&r, &mut rng).expect("correction inner solve");
            x += &result.solution;
            captured.push(Captured { input: r, result });
        }
    }
    captured
}

/// The norm recovery of `QsvtLinearSolver` (Remark 2): Brent's method on
/// `μ ↦ ‖b − μ·Aη‖²` over the solver's bracket.
fn norm_recovery(b: &Vector<f64>, a_eta: &Vector<f64>, tolerance: f64) -> f64 {
    let upper = if a_eta.norm2() > 0.0 {
        4.0 * b.norm2() / a_eta.norm2()
    } else {
        1.0
    };
    let objective = |mu: f64| {
        let mut r = b.clone();
        r.axpy(-mu, a_eta);
        let v = r.norm2();
        v * v
    };
    brent_minimize(objective, 0.0, upper.max(1e-6), tolerance, 200).x
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Run the traced measurement of `workload`; solve stages share `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let spec = workload.spec();
    let circuit_mode = spec.mode == QsvtMode::CircuitReal;
    let solver_dir = scratch.fresh_dir("solver");
    let bench = with_cache_dir(&solver_dir, || Bench::new(workload, seed));
    let a = &bench.a;
    let solver = bench.refiner.solver();
    let mut metrics = Vec::new();
    let mut notes = vec![format!(
        "traced workload {} seed {seed}, machine_threads={}",
        workload.name(),
        machine_threads()
    )];

    // ---- Set-up stages ----------------------------------------------------
    let svd = Svd::new(a);
    let poly = InversePolynomial::new(svd.cond(), spec.epsilon_l.clamp(1e-14, 0.49));
    metrics.push(Metric::new(
        "linalg.svd_ms",
        median_ms(SETUP_REPS, || Svd::new(a)),
        "ms",
    ));
    metrics.push(Metric::new(
        "poly.inverse_poly_ms",
        median_ms(SETUP_REPS, || {
            InversePolynomial::new(svd.cond(), spec.epsilon_l.clamp(1e-14, 0.49))
        }),
        "ms",
    ));
    let circuit_stages = if circuit_mode {
        let phase_options = PhaseFindingOptions::default();
        let phases = find_phases(&poly.series, &phase_options).expect("phase factors");
        let be = DilationBlockEncoding::of_adjoint(a, svd.norm2());
        let qsvt = QsvtCircuit::with_real_part_extraction(&be, &phases.phases);
        let circuit = qsvt.circuit();
        // The first fusion on this thread calibrates the cost model.
        black_box(optimize_circuit(circuit, &FusionOptions::measured()));
        [
            median_ms(SETUP_REPS, || find_phases(&poly.series, &phase_options)),
            median_ms(SETUP_REPS, || {
                DilationBlockEncoding::of_adjoint(a, svd.norm2())
            }),
            median_ms(SETUP_REPS, || {
                QsvtCircuit::with_real_part_extraction(&be, &phases.phases)
            }),
            median_ms(SETUP_REPS, || {
                optimize_circuit(circuit, &FusionOptions::measured())
            }),
            median_ms(SETUP_REPS, || {
                QuantumExecutor::with_config(
                    circuit,
                    OptLevel::Fuse,
                    ExecMode::Flat,
                    CachePolicy::Disabled,
                )
            }),
            with_cache_dir(&solver_dir, || {
                median_ms(SETUP_REPS, || {
                    find_phases_cached(&poly.series, &phase_options, CachePolicy::Enabled)
                })
            }),
            with_cache_dir(&solver_dir, || {
                median_ms(SETUP_REPS, || {
                    QuantumExecutor::with_config(
                        circuit,
                        OptLevel::Fuse,
                        ExecMode::Flat,
                        CachePolicy::Enabled,
                    )
                })
            }),
        ]
    } else {
        [0.0; 7]
    };
    for (name, value) in [
        "qsvt.phases_ms",
        "encoding.block_encoding_ms",
        "qsvt.circuit_assembly_ms",
        "sim.fusion_ms",
        "sim.executor_build_ms",
        "qsvt.phases_warm_ms",
        "sim.executor_warm_ms",
    ]
    .into_iter()
    .zip(circuit_stages)
    {
        metrics.push(Metric::new(name, value, "ms"));
    }

    let cold_dir = scratch.fresh_dir("cold");
    let cold = construct(workload, &cold_dir);
    let entry_bytes = dir_bytes(&cold_dir);
    let warm = construct(workload, &solver_dir);
    let stats = solver.circuit_stats().copied();
    let count = |name, value: usize, unit| Metric::new(name, value as f64, unit);
    metrics.extend([
        count("qsvt.degree", solver.quantum_resources().degree, "count"),
        count("sim.raw_ops", stats.map_or(0, |s| s.raw_ops), "count"),
        count("sim.fused_ops", stats.map_or(0, |s| s.fused_ops), "count"),
        count("sim.calibrations", cold.calibrations, "count"),
        count("cache.misses_cold", cold.cache_misses, "count"),
        count("cache.hits_warm", warm.cache_hits, "count"),
        count("cache.entry_bytes", entry_bytes as usize, "bytes"),
        count(
            "qsvt.phase_generations_warm",
            warm.phase_generations,
            "count",
        ),
        count("sim.fusion_passes_warm", warm.fusion_passes, "count"),
    ]);

    // ---- Solve stages -----------------------------------------------------
    // Counts come from one pass of the workload's own solve calls.
    let compiles_before = circuit_compile_count();
    let counts = bench.counting_pass();
    let compiles = circuit_compile_count() - compiles_before;

    let captured = capture(&bench, seed, &bench.pool[..CAPTURED_RHS]);
    let inverter = with_cache_dir(&solver_dir, || {
        QsvtInverter::with_config(
            a,
            spec.epsilon_l,
            spec.mode,
            OptLevel::Fuse,
            ExecMode::Flat,
            CachePolicy::Enabled,
        )
        .expect("inverter with the refiner's arguments")
    });
    let recovery: Vec<Vector<f64>> = captured
        .iter()
        .map(|c| a.matvec(&c.result.direction))
        .collect();
    let batches: Vec<Vec<Vector<f64>>> = captured
        .chunks_exact(spec.batch)
        .map(|batch| batch.iter().map(|c| c.input.clone()).collect())
        .collect();
    let brent_tolerance = solver.options().brent_tolerance;
    let captured = &captured[..];
    let n = captured.len();
    let (mut solve_rng, mut readout_rng) = (
        // An index past every solve call of the run.
        call_rng(seed, bench.pool.len()),
        call_rng(seed, 0),
    );
    let mut stages: Vec<Stage> = vec![
        (
            "core.inner_solve_us",
            Box::new(|i| {
                black_box(solver.solve(&captured[i % n].input, &mut solve_rng)).ok();
            }),
        ),
        (
            "qsvt.direction_us",
            Box::new(|i| {
                black_box(inverter.solve_direction(&captured[i % n].input)).ok();
            }),
        ),
        (
            "qsvt.resources_us",
            Box::new(|_| {
                black_box(solver.quantum_resources());
            }),
        ),
        (
            "encoding.state_prep_us",
            Box::new(|i| {
                black_box(StatePreparation::new(&captured[i % n].input));
            }),
        ),
        (
            "linalg.brent_us",
            Box::new(|i| {
                black_box(norm_recovery(
                    &captured[i % n].input,
                    &recovery[i % n],
                    brent_tolerance,
                ));
            }),
        ),
        (
            "linalg.residual_us",
            Box::new(|i| {
                let c = &captured[i % n];
                black_box(scaled_residual(a, &c.result.solution, &c.input));
            }),
        ),
    ];
    if let Some(shots) = spec.shots {
        stages.push((
            "core.readout_us",
            Box::new(move |i| {
                let direction = &captured[i % n].result.direction;
                black_box(sample_direction(direction, shots, &mut readout_rng));
            }),
        ));
    }
    if spec.batch > 1 {
        stages.push((
            "sim.batch_direction_us",
            Box::new(|i| {
                black_box(inverter.solve_direction_batch(&batches[i % batches.len()])).ok();
            }),
        ));
    }

    // Rounds of one workload solve call (the per-RHS base) and one call of
    // every stage, so all of them see the machine in the same state.
    let calls = spec.calls_per_pass();
    let budget = Duration::from_secs_f64(seconds);
    let mut base = Vec::new();
    let mut stage_samples = vec![Vec::new(); stages.len()];
    let mut timed = Tally::default();
    let start = Instant::now();
    let mut round = 0;
    while round < calls || start.elapsed() < budget {
        let call = round % calls;
        let t0 = Instant::now();
        let results = bench.solve_call(call);
        base.push(t0.elapsed().as_secs_f64() * 1e6 / results.len() as f64);
        bench.check(call, &results, &mut timed);
        for ((_, stage), samples) in stages.iter_mut().zip(&mut stage_samples) {
            let t0 = Instant::now();
            stage(round);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        round += 1;
    }
    let names: Vec<&str> = stages.iter().map(|(name, _)| *name).collect();
    drop(stages);
    // Median time of a stage; 0 for a stage this workload never runs.
    let stage_us = |name: &str| {
        names
            .iter()
            .position(|s| *s == name)
            .map_or(0.0, |k| median(&stage_samples[k]))
    };
    let per_rhs_us = median(&base);
    let direction_us = stage_us("qsvt.direction_us");
    let batch_direction_us = stage_us("sim.batch_direction_us");
    let readout_us = stage_us("core.readout_us");
    let brent_us = stage_us("linalg.brent_us");
    let resources_us = stage_us("qsvt.resources_us");
    let batch_vs_sequential = if spec.batch > 1 {
        spec.batch as f64 * direction_us / batch_direction_us
    } else {
        0.0
    };

    let inner_per_rhs = counts.per_rhs(counts.inner_solves);
    let direction_cost = if spec.batch > 1 {
        batch_direction_us / spec.batch as f64
    } else {
        direction_us
    };
    let share = |per_inner_us: f64| inner_per_rhs * per_inner_us / per_rhs_us;
    let direction_share = share(direction_cost);
    let readout_share = share(readout_us);
    let brent_share = share(brent_us);
    metrics.extend([
        Metric::new("core.per_rhs_us", per_rhs_us, "us"),
        Metric::new("core.inner_solve_us", stage_us("core.inner_solve_us"), "us"),
        Metric::new("qsvt.direction_us", direction_us, "us"),
        Metric::new("qsvt.resources_us", resources_us, "us"),
        Metric::new(
            "encoding.state_prep_us",
            stage_us("encoding.state_prep_us"),
            "us",
        ),
        Metric::new("linalg.brent_us", brent_us, "us"),
        Metric::new("linalg.residual_us", stage_us("linalg.residual_us"), "us"),
        Metric::new("core.readout_us", readout_us, "us"),
        Metric::new("sim.batch_direction_us", batch_direction_us, "us"),
        Metric::new("sim.batch_vs_sequential", batch_vs_sequential, "ratio"),
        count("machine_threads", machine_threads(), "count"),
        Metric::new("core.inner_solves_per_rhs", inner_per_rhs, "count"),
        Metric::new(
            "linalg.brent_evals_per_rhs",
            counts.per_rhs(counts.brent_evals),
            "count",
        ),
        Metric::new(
            "sim.circuit_compiles_per_rhs",
            compiles as f64 / counts.rhs as f64,
            "count",
        ),
        Metric::new("qsvt.direction_share", direction_share, "ratio"),
        Metric::new("core.readout_share", readout_share, "ratio"),
        Metric::new("linalg.brent_share", brent_share, "ratio"),
        Metric::new(
            "core.unattributed_share",
            1.0 - direction_share - readout_share - brent_share,
            "ratio",
        ),
    ]);
    notes.push(format!(
        "captured {n} inner solves from {CAPTURED_RHS} RHS; {round} rounds of one solve \
         call and one call of each stage; resources/direction = {:.1}x",
        resources_us / direction_us
    ));

    Outcome {
        attempted: counts.rhs + timed.rhs,
        failed: counts.failed + timed.failed,
        metrics,
        notes,
    }
}
