//! `bench_json` — the machine-readable perf-trajectory benchmark.
//!
//! Times representative simulator workloads and writes `BENCH_simulator.json`
//! so every future PR can compare against the recorded numbers:
//!
//! 1. a random mixed-gate circuit on 16 qubits (the simulator hot path),
//!    measured through the specialized kernel dispatch *and* through the
//!    retained generic reference path of `qls_sim::kernels::reference`, both
//!    pinned to one thread — their ratio is the kernel speedup;
//! 2. a full gate-level QSVT solve on the paper's 4-qubit (N = 16) test
//!    system (Section IV experimental setup), through the **fused**
//!    compile-once engine every solver runs (`OptLevel::Fuse`) and the
//!    unoptimized compile-once engine (`OptLevel::None`, built through
//!    `QsvtInverter::with_config`) — their ratio is the gate-fusion speedup, and the `fusion_op_reduction` stat records how far the
//!    optimizer shrinks the degree-d QSVT circuit; the build is measured
//!    twice through the artifact cache (`qls_cache`) — cold (fresh cache
//!    directory, includes the store writes) and warm (pre-populated
//!    directory) — with `warm_vs_cold_build_speedup` recording the payoff
//!    and `build_phase_generations_warm` / `build_fusion_passes_warm`
//!    asserting (at 0) that the warm build regenerates nothing;
//! 3. dense-unitary extraction (`circuit_unitary`), the verification hot
//!    loop;
//! 4. an end-to-end hybrid refinement solve (Algorithm 2, circuit mode) on
//!    the fused engine, plus the circuit-compile count inside the loop (from
//!    the thread-local `qls_sim::circuit_compile_count`);
//! 5. the multi-RHS workload: one refiner, many right-hand sides — batched
//!    (`HybridRefiner::solve_many`) vs a sequential loop of `solve`;
//! 6. the structured-operator residual workload (`sparse_residual`): the
//!    refinement-loop hot path `r = b − A x` on the 2-D Poisson problem
//!    through the dense matrix and the CSR operator — the O(N²) vs O(nnz)
//!    comparison of the operator layer, at N = 4096 and N = 16384 on the
//!    full preset;
//! 7. the structured-inner-solve workloads: the classical refiner through the
//!    inner solver selected by `FactorizableOperator::factorize` — Thomas vs
//!    the retained densify-LU oracle on 1-D Poisson (N = 16384 on the full
//!    preset, with a solution-agreement guard), Jacobi-CG on the CSR 3-D
//!    Poisson operator, Jacobi-BiCGSTAB on nonsymmetric
//!    convection-diffusion, and Jacobi-CG on a shifted graph Laplacian at
//!    N ~ 10^5;
//! 8. the fault-injected recovery workload (`noisy_refinement_recovery`):
//!    the hybrid refiner under a seeded `FaultPlan` (amplitude noise + one
//!    scheduled transient) with the recovery ladder armed, vs
//!    the same solve clean — the measured overhead of self-healing, plus
//!    the recovery-event count and final status;
//! 9. the Fig. 4 large-κ workload (`fig4_large_kappa`): the hybrid solve at
//!    κ = 100/200/300 with ε_l·κ = 1/4 (emulation path) — condition number,
//!    polynomial degree, iteration count and solve seconds per κ.
//!
//! Kernel-bound workloads additionally report `simd_vs_scalar_speedup` —
//! the vectorized kernel bodies against their bit-identical scalar oracles
//! (`with_scalar_kernels` for the statevector, `matvec_scalar` for CSR),
//! pinned to one thread — and the random-circuit workload records its fused
//! op count (`static_fusion_ops`).
//! The parallel workload (`multi_rhs_refinement`) carries `machine_threads`
//! and a `parallel_speedup_meaningful` flag (false on 1-thread machines, where
//! the ~1.0 ratios would otherwise read as regressions).
//!
//! Usage: `bench_json [--preset small|full] [--out PATH] [--compare BASELINE]`.
//! The `small` preset shrinks every workload so CI can validate the artifact
//! in seconds; the committed `BENCH_simulator.json` comes from the `full`
//! preset.  `--compare` turns the run into a perf-regression gate: after
//! emitting the artifact it checks the fresh numbers against the committed
//! baseline — every (workload, field) pair of the baseline must be present,
//! generous fractional floors hold the timing *ratios* (which survive preset
//! and machine changes where absolute seconds do not) and exact ceilings the
//! deterministic counters (circuit compiles in the refinement loop,
//! warm-build regenerations) — and exits nonzero listing every violation.

use qls_bench::{experiment_rng, layered_circuit, paper_test_system, random_circuit};
use qls_cache::{with_cache_dir, CachePolicy};
use qls_core::HybridStatus;
use qls_core::{HybridRefinementOptions, HybridRefiner, QsvtSolverOptions};
use qls_linalg::{
    convection_diffusion_2d, poisson_1d, poisson_2d, poisson_3d, random_connected_graph,
    shifted_graph_laplacian, ClassicalRefiner, RefinementOptions, SparseMatrix, Vector,
};
use qls_qsvt::{phase_generation_count, QsvtInverter, QsvtMode};
use qls_sim::kernels::reference;
use qls_sim::{
    circuit_compile_count, circuit_unitary, fusion_pass_count, optimize_circuit_for,
    with_scalar_kernels, ExecMode, OptLevel, StateVector,
};
use rayon::ThreadPoolBuilder;
use serde::{parse_json, Value};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

struct Preset {
    name: &'static str,
    random_qubits: usize,
    random_ops: usize,
    random_reps: usize,
    generic_reps: usize,
    qsvt_n: usize,
    qsvt_kappa: f64,
    qsvt_eps: f64,
    unitary_qubits: usize,
    unitary_layers: usize,
    refine_reps: usize,
    refine_target: f64,
    multi_rhs: usize,
    /// Square 2-D Poisson grid sides for the structured-residual workload
    /// (N = side²).
    sparse_grids: [usize; 2],
    /// 1-D Poisson order for the structured-inner-solve workload (Thomas vs
    /// densify-LU inside the classical refiner).
    inner_tridiag_n: usize,
    /// Cubic 3-D Poisson grid side for the Jacobi-CG refinement workload
    /// (N = side³).
    poisson3d_grid: usize,
    /// Square convection-diffusion grid side for the BiCGSTAB refinement
    /// workload (N = side²).
    convdiff_grid: usize,
    /// Vertex count of the shifted-graph-Laplacian refinement workload.
    graph_n: usize,
    /// Extra random edges on top of the spanning tree of the graph workload.
    graph_extra_edges: usize,
    /// Condition numbers of the Fig. 4 large-κ hybrid solves (emulation
    /// path, ε_l tied to κ by ε_l·κ = 1/4 as in the paper).
    fig4_kappas: &'static [f64],
    /// Outer convergence target of the Fig. 4 workload.
    fig4_eps: f64,
}

const FULL: Preset = Preset {
    name: "full",
    random_qubits: 16,
    random_ops: 120,
    // Interleaved min-of-N: enough rounds that both sides catch a quiet
    // window of this (shared) machine.
    random_reps: 15,
    generic_reps: 3,
    qsvt_n: 16,
    qsvt_kappa: 8.0,
    qsvt_eps: 0.05,
    unitary_qubits: 8,
    unitary_layers: 5,
    refine_reps: 3,
    refine_target: 1e-10,
    multi_rhs: 8,
    sparse_grids: [64, 128], // N = 4096 and N = 16384
    inner_tridiag_n: 16384,
    poisson3d_grid: 24, // N = 13824
    convdiff_grid: 64,  // N = 4096
    graph_n: 100_000,
    graph_extra_edges: 300_000,
    fig4_kappas: &[100.0, 200.0, 300.0],
    fig4_eps: 1e-11,
};

const SMALL: Preset = Preset {
    name: "small",
    random_qubits: 10,
    random_ops: 40,
    random_reps: 3,
    generic_reps: 2,
    qsvt_n: 4,
    qsvt_kappa: 2.0,
    qsvt_eps: 0.05,
    unitary_qubits: 5,
    unitary_layers: 3,
    refine_reps: 2,
    refine_target: 1e-6,
    multi_rhs: 3,
    sparse_grids: [16, 32], // N = 256 and N = 1024: seconds, not minutes, in CI
    inner_tridiag_n: 1024,
    poisson3d_grid: 8, // N = 512
    convdiff_grid: 16, // N = 256
    graph_n: 2000,
    graph_extra_edges: 6000,
    fig4_kappas: &[25.0],
    fig4_eps: 1e-8,
};

/// Minimum over `reps` timed runs of `f`, in seconds.
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Minimum over `reps` *interleaved* timed runs of `f` and `g`: each round
/// times one call of each, so slow drifts of the machine (frequency
/// scaling, a noisy co-tenant) hit both sides equally and their *ratio*
/// stays meaningful.  One untimed warmup of each absorbs cold-start
/// effects (first-touch page faults, instruction-cache misses) that would
/// otherwise bias against whichever side runs first.
fn time_min_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    f();
    g();
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best_f = best_f.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        g();
        best_g = best_g.min(start.elapsed().as_secs_f64());
    }
    (best_f, best_g)
}

fn single_thread_pool() -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
}

fn main() {
    let mut preset = FULL;
    let mut out_path = String::from("BENCH_simulator.json");
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                let v = args.next().expect("--preset needs a value");
                preset = match v.as_str() {
                    "full" => FULL,
                    "small" => SMALL,
                    other => panic!("unknown preset {other:?} (use small|full)"),
                };
            }
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--compare" => compare_path = Some(args.next().expect("--compare needs a value")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let machine_threads = rayon::current_num_threads();
    // On a 1-thread machine the parallel-vs-sequential ratios measure
    // nothing but noise (~1.0); the JSON carries this flag per parallel
    // workload so a trajectory reader never mistakes them for regressions.
    let parallel_meaningful = machine_threads > 1;
    eprintln!(
        "bench_json: preset = {}, machine threads = {machine_threads}{}",
        preset.name,
        if parallel_meaningful {
            ""
        } else {
            " (parallel speedups not meaningful at 1 thread)"
        }
    );

    // -- Workload 1: random mixed-gate circuit (the hot path) ---------------
    let circ = random_circuit(preset.random_qubits, preset.random_ops, 20260728);
    let n = preset.random_qubits;
    let (kernel_1t, scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            preset.random_reps,
            || {
                std::hint::black_box(StateVector::run(&circ));
            },
            || {
                with_scalar_kernels(|| {
                    std::hint::black_box(StateVector::run(&circ));
                })
            },
        )
    });
    let generic_1t = single_thread_pool().install(|| {
        time_min(preset.generic_reps, || {
            let mut sv = StateVector::zero_state(n);
            reference::apply_circuit(&mut sv, &circ);
            std::hint::black_box(sv.probability(0));
        })
    });
    let kernel_speedup = generic_1t / kernel_1t;
    let simd_speedup = scalar_1t / kernel_1t;
    let static_fusion_ops = optimize_circuit_for(&circ, n).len();
    eprintln!(
        "  random_{n}q: kernel {kernel_1t:.4}s, scalar {scalar_1t:.4}s \
         ({simd_speedup:.2}x simd), generic {generic_1t:.4}s \
         ({kernel_speedup:.1}x); fusion {ops} -> {static_fusion_ops} ops",
        ops = preset.random_ops
    );

    // -- Workload 2: QSVT solve on the paper's test system ------------------
    // Two engines: fused compile-once (what every solver runs) and
    // unoptimized compile-once (`OptLevel::None`).  `solve_seconds` keeps its historical
    // meaning (unoptimized compile-once) so the perf trajectory stays
    // comparable across PRs.
    //
    // The build is timed through the artifact cache, hermetically (a bench
    // temp directory, so the run never reads or pollutes the user's
    // `~/.cache/qls`): `build_seconds` keeps its historical from-scratch
    // meaning — each rep sees a fresh empty directory (and now also pays the
    // store writes) — while `build_seconds_warm` rebuilds against a
    // pre-populated directory, where phase factors and the fused circuit are
    // disk reads.  The thread-local generation counters pin the warm path to
    // exactly zero phase-factor generations and zero fusion passes.
    let (a, b) = paper_test_system(preset.qsvt_n, preset.qsvt_kappa, 1);
    let bench_cache_root =
        std::env::temp_dir().join(format!("qls-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bench_cache_root);
    let mut cold_rep = 0usize;
    let qsvt_build = time_min(3, || {
        cold_rep += 1;
        let dir = bench_cache_root.join(format!("cold-{cold_rep}"));
        with_cache_dir(dir, || {
            std::hint::black_box(
                QsvtInverter::new(&a, preset.qsvt_eps, QsvtMode::CircuitReal)
                    .expect("QSVT inverter construction"),
            );
        });
    });
    let warm_dir = bench_cache_root.join("warm");
    let (inverter, unfused_inverter, qsvt_build_warm, warm_phase_gens, warm_fusion_passes) =
        with_cache_dir(warm_dir, || {
            // Populate the directory, keeping this (cache-built) engine for
            // the solve measurements below.
            let inverter = QsvtInverter::new(&a, preset.qsvt_eps, QsvtMode::CircuitReal)
                .expect("QSVT inverter construction");
            let (p0, f0) = (phase_generation_count(), fusion_pass_count());
            let warm = time_min(3, || {
                std::hint::black_box(
                    QsvtInverter::new(&a, preset.qsvt_eps, QsvtMode::CircuitReal)
                        .expect("warm QSVT inverter construction"),
                );
            });
            let unfused_inverter = QsvtInverter::with_config(
                &a,
                preset.qsvt_eps,
                QsvtMode::CircuitReal,
                OptLevel::None,
                ExecMode::Flat,
                CachePolicy::Enabled,
            )
            .expect("unfused QSVT inverter construction");
            (
                inverter,
                unfused_inverter,
                warm,
                phase_generation_count() - p0,
                fusion_pass_count() - f0,
            )
        });
    let warm_build_speedup = qsvt_build / qsvt_build_warm;
    assert_eq!(
        warm_phase_gens, 0,
        "warm build must not regenerate phase factors"
    );
    assert_eq!(
        warm_fusion_passes, 0,
        "warm build must not rerun the fusion pass"
    );
    let degree = inverter.resources().degree;
    let fusion = *inverter.circuit_stats().expect("fusion stats");
    let qsvt_solve_fused = time_min(3, || {
        std::hint::black_box(inverter.solve_direction(&b).expect("fused QSVT solve"));
    });
    let qsvt_solve = time_min(3, || {
        std::hint::black_box(
            unfused_inverter
                .solve_direction(&b)
                .expect("unfused QSVT solve"),
        );
    });
    let qsvt_fused_speedup = qsvt_solve / qsvt_solve_fused;
    // SIMD vs scalar kernel bodies on the same fused engine, pinned to one
    // thread so the ratio is pure kernel-body arithmetic.
    let (qsvt_simd_1t, qsvt_scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            3,
            || {
                std::hint::black_box(inverter.solve_direction(&b).expect("simd QSVT solve"));
            },
            || {
                with_scalar_kernels(|| {
                    std::hint::black_box(inverter.solve_direction(&b).expect("scalar QSVT solve"));
                })
            },
        )
    });
    let qsvt_simd_speedup = qsvt_scalar_1t / qsvt_simd_1t;
    eprintln!(
        "  qsvt_solve n={} kappa={} eps={:.0e}: degree {degree}, build cold {qsvt_build:.4}s \
         vs warm {qsvt_build_warm:.4}s ({warm_build_speedup:.1}x, {warm_phase_gens} phase \
         generations / {warm_fusion_passes} fusion passes warm), \
         fused solve {qsvt_solve_fused:.4}s, unfused {qsvt_solve:.4}s \
         ({qsvt_fused_speedup:.1}x fusion), simd {qsvt_simd_1t:.4}s vs \
         scalar {qsvt_scalar_1t:.4}s ({qsvt_simd_speedup:.2}x); \
         fusion {} -> {} ops ({:.1}x)",
        preset.qsvt_n,
        preset.qsvt_kappa,
        preset.qsvt_eps,
        fusion.raw_ops,
        fusion.fused_ops,
        fusion.op_reduction()
    );

    // -- Workload 3: dense-unitary extraction -------------------------------
    let ucirc = layered_circuit(preset.unitary_qubits, preset.unitary_layers);
    let unitary_secs = time_min(2, || {
        std::hint::black_box(circuit_unitary(&ucirc));
    });
    eprintln!(
        "  circuit_unitary {}q x {} layers: {unitary_secs:.4}s",
        preset.unitary_qubits, preset.unitary_layers
    );

    // -- Workload 4: end-to-end hybrid refinement (Algorithm 2) -------------
    // The optimized QSVT circuit is compiled in `new` and reused by every
    // iteration; the refiner is built outside the timed region, so the
    // timing isolates what the solve itself pays.  The committed
    // `BENCH_simulator.json` also holds `compile_once_seconds` and
    // `fused_vs_unfused_speedup` for this workload: the unfused refiner that
    // produced them is gone, and `--compare` gates neither.
    let refine_options = HybridRefinementOptions {
        target_epsilon: preset.refine_target,
        epsilon_l: preset.qsvt_eps,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
        ..Default::default()
    };
    let fused_refiner = HybridRefiner::new(&a, refine_options).expect("fused refiner");
    let mut rng = experiment_rng(2);
    let (_, history) = fused_refiner.solve(&b, &mut rng).expect("refinement solve");
    let refine_iterations = history.iterations();
    let compiles_before = circuit_compile_count();
    let _ = fused_refiner.solve(&b, &mut rng).expect("solve");
    let compile_once_compiles = circuit_compile_count() - compiles_before;
    let refine_fused = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(3);
        std::hint::black_box(fused_refiner.solve(&b, &mut rng).expect("solve"));
    });
    let (refine_simd_1t, refine_scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            preset.refine_reps,
            || {
                let mut rng = experiment_rng(3);
                std::hint::black_box(fused_refiner.solve(&b, &mut rng).expect("solve"));
            },
            || {
                with_scalar_kernels(|| {
                    let mut rng = experiment_rng(3);
                    std::hint::black_box(fused_refiner.solve(&b, &mut rng).expect("solve"));
                })
            },
        )
    });
    let refine_simd_speedup = refine_scalar_1t / refine_simd_1t;
    eprintln!(
        "  hybrid_refinement n={} kappa={} eps_l={:.0e} target={:.0e}: \
         {refine_iterations} iterations, fused {refine_fused:.4}s \
         ({compile_once_compiles} circuit compiles in the loop); \
         simd {refine_simd_1t:.4}s vs \
         scalar {refine_scalar_1t:.4}s ({refine_simd_speedup:.2}x)",
        preset.qsvt_n, preset.qsvt_kappa, preset.qsvt_eps, preset.refine_target
    );

    // -- Workload 5: multi-RHS — batched vs sequential solves ---------------
    let bs: Vec<Vector<f64>> = {
        let mut rng = experiment_rng(4);
        (0..preset.multi_rhs)
            .map(|_| qls_linalg::generate::random_unit_vector(preset.qsvt_n, &mut rng))
            .collect()
    };
    let batched_secs = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(5);
        std::hint::black_box(
            fused_refiner
                .solve_many(&bs, &mut rng)
                .expect("batched solve"),
        );
    });
    let sequential_secs = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(5);
        for b in &bs {
            std::hint::black_box(fused_refiner.solve(b, &mut rng).expect("solve"));
        }
    });
    let batch_speedup = sequential_secs / batched_secs;
    eprintln!(
        "  multi_rhs {} right-hand sides: batched {batched_secs:.4}s, \
         sequential {sequential_secs:.4}s ({batch_speedup:.2}x)",
        preset.multi_rhs
    );

    // -- Workload 6: structured-operator residual (dense vs CSR) --
    // The refinement-loop hot path r = b − A x on the 2-D Poisson problem.
    // Dense pays O(N²) time (and memory: the N = 16384 matrix is ~2 GiB),
    // the CSR operator pays O(nnz) — same floats out either way (the CSR
    // matvec is bit-identical to the dense kernel).
    let mut sparse_json = String::new();
    for &g in &preset.sparse_grids {
        let n = g * g;
        let csr = poisson_2d::<f64>(g, g, false);
        let nnz = csr.nnz();
        let x: Vector<f64> = (0..n).map(|i| ((i % 101) as f64 / 101.0) - 0.5).collect();
        let b: Vector<f64> = (0..n).map(|i| ((i % 89) as f64 / 89.0) - 0.5).collect();
        // The SpMV's scalar oracle (`matvec_scalar`) is timed interleaved
        // with the SIMD path: the SIMD-vs-scalar ratio of the residual hot
        // loop itself, robust to machine-load drifts.
        let (csr_secs, csr_scalar_secs) = time_min_pair(
            5,
            || {
                std::hint::black_box(&b - &csr.matvec(&x));
            },
            || {
                std::hint::black_box(&b - &csr.matvec_scalar(&x));
            },
        );
        let (dense_secs, reference) = {
            // Scoped so the dense matrix is dropped before the next size.
            let dense = csr.to_dense();
            let secs = time_min(3, || {
                std::hint::black_box(&b - &dense.matvec(&x));
            });
            (secs, &b - &dense.matvec(&x))
        };
        // Equivalence guard: the timed operators compute the same residual.
        assert_eq!(
            (&b - &csr.matvec(&x)).as_slice(),
            reference.as_slice(),
            "CSR residual must be bit-identical to dense"
        );
        let csr_speedup = dense_secs / csr_secs;
        let csr_simd_speedup = csr_scalar_secs / csr_secs;
        eprintln!(
            "  sparse_residual N={n} (grid {g}x{g}, nnz {nnz}): dense {dense_secs:.6}s, \
             csr {csr_secs:.6}s ({csr_speedup:.1}x, {csr_simd_speedup:.2}x over scalar \
             {csr_scalar_secs:.6}s)"
        );
        let _ = write!(
            sparse_json,
            r#",
    {{
      "name": "sparse_residual",
      "matrix_size": {n},
      "grid": {g},
      "nnz": {nnz},
      "dense_residual_seconds": {dense_secs:.6},
      "csr_residual_seconds": {csr_secs:.6},
      "csr_scalar_residual_seconds": {csr_scalar_secs:.6},
      "simd_vs_scalar_speedup": {csr_simd_speedup:.3},
      "csr_vs_dense_speedup": {csr_speedup:.3}
    }}"#
        );
    }

    // -- Workload 7: structured inner solvers (the end of the densify wall) --
    // The whole classical refiner — factorisation *and* solve — through the
    // structured inner solver selected by `FactorizableOperator::factorize`
    // vs the retained densify + dense-LU oracle.  On the 1-D Poisson problem
    // the comparison is Thomas (O(N)) vs a densified O(N²) factorisation; at
    // N = 16384 the dense copy alone is ~2 GiB.  Both paths refine to the
    // same target, and an agreement guard pins their solutions together.
    let mut structured_json = String::new();
    {
        let n = preset.inner_tridiag_n;
        // f64 inner: at this size the 1-D Poisson kappa ~ N² overwhelms an
        // f32 inner solve (epsilon_l * kappa > 1), so both sides run the
        // uniform-precision configuration — the comparison is about the
        // factorisation cost, not the precision gap.
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        };
        let tri = poisson_1d::<f64>(n, false);
        let b: Vector<f64> = (0..n).map(|i| ((i % 97) as f64 / 97.0) - 0.5).collect();
        let solve_structured = || {
            let refiner = ClassicalRefiner::<f64, f64, SparseMatrix<f64>>::new(&tri, opts)
                .expect("structured refiner");
            (
                refiner.inner_kind(),
                refiner.solve(&b).expect("structured solve").0,
            )
        };
        let solve_densify = || {
            let refiner =
                ClassicalRefiner::<f64, f64, SparseMatrix<f64>>::with_dense_lu(&tri, opts)
                    .expect("densify-LU refiner");
            refiner.solve(&b).expect("densify-LU solve").0
        };
        let (inner_solver, x_structured) = solve_structured();
        let x_densify = solve_densify();
        let agreement = (&x_structured - &x_densify).norm2() / x_densify.norm2();
        assert!(
            agreement <= 1e-10,
            "structured and densify-LU refiners disagree by {agreement:e}"
        );
        let structured_secs = time_min(3, || {
            std::hint::black_box(solve_structured());
        });
        let densify_secs = time_min(2, || {
            std::hint::black_box(solve_densify());
        });
        let inner_speedup = densify_secs / structured_secs;
        eprintln!(
            "  structured_inner_solve N={n} (1-D Poisson, {inner_solver} vs densify-LU): \
             structured {structured_secs:.6}s, densify-LU {densify_secs:.6}s \
             ({inner_speedup:.1}x), agreement {agreement:.2e}"
        );
        let _ = write!(
            structured_json,
            r#",
    {{
      "name": "structured_inner_solve",
      "matrix_size": {n},
      "inner_solver": "{inner_solver}",
      "structured_solve_seconds": {structured_secs:.6},
      "densify_lu_solve_seconds": {densify_secs:.6},
      "structured_vs_densify_speedup": {inner_speedup:.3},
      "solution_agreement": {agreement:.3e}
    }}"#
        );
    }

    // 3-D Poisson as CSR: Jacobi-CG inner solves at f32, true mixed
    // precision (epsilon_l * kappa << 1).
    {
        let g = preset.poisson3d_grid;
        let n = g * g * g;
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        };
        let a = poisson_3d::<f64>(g, g, g, false);
        let b: Vector<f64> = (0..n).map(|i| ((i % 89) as f64 / 89.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("3-D refiner");
        let (_, history) = refiner.solve(&b).expect("3-D solve");
        let iterations = history.iterations();
        let inner_solver = refiner.inner_kind();
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("3-D solve"));
        });
        eprintln!(
            "  poisson3d_refinement N={n} (grid {g}^3, {inner_solver} inner): \
             {solve_secs:.6}s, {iterations} iterations"
        );
        let _ = write!(
            structured_json,
            r#",
    {{
      "name": "poisson3d_refinement",
      "matrix_size": {n},
      "grid": {g},
      "inner_solver": "{inner_solver}",
      "iterations": {iterations},
      "solve_seconds": {solve_secs:.6}
    }}"#
        );
    }

    // Nonsymmetric convection-diffusion: the BiCGSTAB inner path.
    {
        let g = preset.convdiff_grid;
        let n = g * g;
        let (px, py) = (0.5, 0.25);
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        };
        let a = convection_diffusion_2d::<f64>(g, g, px, py);
        let b: Vector<f64> = (0..n).map(|i| ((i % 83) as f64 / 83.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("cd refiner");
        let (_, history) = refiner.solve(&b).expect("cd solve");
        let iterations = history.iterations();
        let inner_solver = refiner.inner_kind();
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("cd solve"));
        });
        eprintln!(
            "  convection_diffusion_refinement N={n} (grid {g}x{g}, peclet ({px}, {py}), \
             {inner_solver} inner): {solve_secs:.6}s, {iterations} iterations"
        );
        let _ = write!(
            structured_json,
            r#",
    {{
      "name": "convection_diffusion_refinement",
      "matrix_size": {n},
      "grid": {g},
      "peclet_x": {px},
      "peclet_y": {py},
      "inner_solver": "{inner_solver}",
      "iterations": {iterations},
      "solve_seconds": {solve_secs:.6}
    }}"#
        );
    }

    // Shifted graph Laplacian at N ~ 10^5: matrix-free CG at a scale where a
    // dense copy (N² doubles) would not even fit in memory comfortably.
    {
        let n = preset.graph_n;
        let opts = RefinementOptions {
            target_scaled_residual: 1e-12,
            max_iterations: 40,
        };
        let edges = {
            let mut rng = experiment_rng(23);
            random_connected_graph(n, preset.graph_extra_edges, &mut rng)
        };
        let a: SparseMatrix<f64> = shifted_graph_laplacian(n, &edges, 0.5);
        let nnz = a.nnz();
        let b: Vector<f64> = (0..n).map(|i| ((i % 79) as f64 / 79.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("graph refiner");
        let (_, history) = refiner.solve(&b).expect("graph solve");
        let iterations = history.iterations();
        let inner_solver = refiner.inner_kind();
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("graph solve"));
        });
        eprintln!(
            "  graph_laplacian_refinement N={n} (nnz {nnz}, {inner_solver} inner): \
             {solve_secs:.6}s, {iterations} iterations"
        );
        let _ = write!(
            structured_json,
            r#",
    {{
      "name": "graph_laplacian_refinement",
      "matrix_size": {n},
      "nnz": {nnz},
      "inner_solver": "{inner_solver}",
      "iterations": {iterations},
      "solve_seconds": {solve_secs:.6}
    }}"#
        );
    }

    // -- Workload 8: fault-injected refinement + recovery ladder -------------
    // The robustness layer's overhead, measured: the same system solved
    // clean (no injector, recovery armed but never consulted) and under a
    // seeded fault plan (amplitude noise + one scheduled transient) that
    // forces the ladder to act.  Emulation mode keeps the workload about
    // the recovery machinery, not circuit execution.
    let mut recovery_json = String::new();
    {
        use qls_sim::{FaultInjector, FaultPlan, TransientKind};
        let options = HybridRefinementOptions {
            target_epsilon: preset.refine_target,
            epsilon_l: preset.qsvt_eps,
            recovery: true,
            ..Default::default()
        };
        let clean_refiner = HybridRefiner::new(&a, options).expect("clean refiner");
        let clean_secs = time_min(preset.refine_reps, || {
            let mut rng = experiment_rng(6);
            std::hint::black_box(clean_refiner.solve(&b, &mut rng).expect("clean solve"));
        });
        let plan = FaultPlan::new(41)
            .with_amplitude_noise(1e-4)
            .with_transient(1, TransientKind::InjectedError);
        let make_faulted = || {
            let mut refiner = HybridRefiner::new(&a, options).expect("faulted refiner");
            refiner.attach_fault_injector(FaultInjector::shared(plan.clone()));
            refiner
        };
        let (_, history) = {
            let refiner = make_faulted();
            let mut rng = experiment_rng(6);
            refiner.solve(&b, &mut rng).expect("recovered solve")
        };
        let recovery_events = history.recovery.len();
        let status = format!("{:?}", history.status);
        assert!(
            history.status.reached_target(),
            "the ladder must absorb the benchmark fault plan: {status}"
        );
        assert!(recovery_events > 0, "the plan must trigger the ladder");
        let recovered_secs = time_min(preset.refine_reps, || {
            // A fresh injector per run replays the exact same fault stream.
            let refiner = make_faulted();
            let mut rng = experiment_rng(6);
            std::hint::black_box(refiner.solve(&b, &mut rng).expect("recovered solve"));
        });
        let recovery_overhead = recovered_secs / clean_secs;
        eprintln!(
            "  noisy_refinement_recovery n={} (sigma 1e-4, transient at run 1): \
             clean {clean_secs:.6}s, recovered {recovered_secs:.6}s \
             ({recovery_overhead:.2}x), {recovery_events} recovery events, status {status}",
            preset.qsvt_n
        );
        let _ = write!(
            recovery_json,
            r#",
    {{
      "name": "noisy_refinement_recovery",
      "matrix_size": {qsvt_n},
      "amplitude_sigma": 1e-4,
      "clean_solve_seconds": {clean_secs:.6},
      "recovered_solve_seconds": {recovered_secs:.6},
      "recovery_overhead": {recovery_overhead:.3},
      "recovery_events": {recovery_events},
      "final_status": "{status}"
    }}"#,
            qsvt_n = preset.qsvt_n,
        );
    }

    // -- Workload 9: Fig. 4 large-κ hybrid solves ----------------------------
    // The large-condition-number regime of the `fig4_large_kappa` binary,
    // recorded in the perf trajectory: ε_l tied to κ (ε_l·κ = 1/4, as the
    // paper's angle-estimation algorithm fixes it), emulation path (the
    // polynomial degree reaches tens of thousands).  One entry per κ with
    // the degree and end-to-end solve seconds.
    let mut fig4_json = String::new();
    for (idx, &kappa) in preset.fig4_kappas.iter().enumerate() {
        let epsilon = preset.fig4_eps;
        let epsilon_l = 0.25 / kappa;
        let (a4, b4) = paper_test_system(16, kappa, 100 + idx as u64);
        let options = HybridRefinementOptions {
            target_epsilon: epsilon,
            epsilon_l,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a4, options).expect("fig4 refiner");
        let (_, history) = {
            let mut rng = experiment_rng(11 + idx as u64);
            refiner.solve(&b4, &mut rng).expect("fig4 solve")
        };
        assert_eq!(history.status, HybridStatus::Converged, "kappa = {kappa}");
        let degree = history.steps[0].cost.polynomial_degree;
        let iterations = history.iterations();
        let solve_secs = time_min(1, || {
            let mut rng = experiment_rng(11 + idx as u64);
            std::hint::black_box(refiner.solve(&b4, &mut rng).expect("fig4 solve"));
        });
        eprintln!(
            "  fig4_large_kappa kappa={kappa}: eps={epsilon:.0e}, eps_l={epsilon_l:.2e}, \
             degree {degree}, {iterations} iterations, {solve_secs:.4}s"
        );
        let _ = write!(
            fig4_json,
            r#",
    {{
      "name": "fig4_large_kappa",
      "matrix_size": 16,
      "kappa": {kappa},
      "epsilon": {epsilon:e},
      "epsilon_l": {epsilon_l:e},
      "polynomial_degree": {degree},
      "iterations": {iterations},
      "solve_seconds": {solve_secs:.6}
    }}"#
        );
    }

    // -- Emit JSON -----------------------------------------------------------
    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "schema": "qls-bench/simulator/v1",
  "preset": "{preset_name}",
  "unix_seconds": {unix_seconds},
  "machine_threads": {machine_threads},
  "workloads": [
    {{
      "name": "random_circuit",
      "qubits": {n},
      "ops": {ops},
      "kernel_single_thread_seconds": {kernel_1t:.6},
      "scalar_single_thread_seconds": {scalar_1t:.6},
      "simd_vs_scalar_speedup": {simd_speedup:.3},
      "generic_single_thread_seconds": {generic_1t:.6},
      "kernel_vs_generic_speedup": {kernel_speedup:.3},
      "static_fusion_ops": {static_fusion_ops}
    }},
    {{
      "name": "qsvt_solve_circuit_mode",
      "matrix_size": {qsvt_n},
      "kappa": {qsvt_kappa},
      "epsilon": {qsvt_eps:e},
      "polynomial_degree": {degree},
      "build_seconds": {qsvt_build:.6},
      "build_seconds_warm": {qsvt_build_warm:.6},
      "warm_vs_cold_build_speedup": {warm_build_speedup:.3},
      "build_phase_generations_warm": {warm_phase_gens},
      "build_fusion_passes_warm": {warm_fusion_passes},
      "solve_seconds": {qsvt_solve:.6},
      "fused_solve_seconds": {qsvt_solve_fused:.6},
      "fused_vs_unfused_speedup": {qsvt_fused_speedup:.3},
      "simd_solve_seconds": {qsvt_simd_1t:.6},
      "scalar_solve_seconds": {qsvt_scalar_1t:.6},
      "simd_vs_scalar_speedup": {qsvt_simd_speedup:.3},
      "raw_circuit_ops": {fusion_raw_ops},
      "fused_circuit_ops": {fusion_fused_ops},
      "fusion_op_reduction": {fusion_op_reduction:.3}
    }},
    {{
      "name": "circuit_unitary",
      "qubits": {uq},
      "layers": {ul},
      "seconds": {unitary_secs:.6}
    }},
    {{
      "name": "hybrid_refinement_circuit_mode",
      "matrix_size": {qsvt_n},
      "kappa": {qsvt_kappa},
      "epsilon_l": {qsvt_eps:e},
      "target_epsilon": {refine_target:e},
      "iterations": {refine_iterations},
      "fused_solve_seconds": {refine_fused:.6},
      "simd_solve_seconds": {refine_simd_1t:.6},
      "scalar_solve_seconds": {refine_scalar_1t:.6},
      "simd_vs_scalar_speedup": {refine_simd_speedup:.3},
      "compile_once_circuit_compiles": {compile_once_compiles}
    }},
    {{
      "name": "multi_rhs_refinement",
      "matrix_size": {qsvt_n},
      "num_rhs": {multi_rhs},
      "batched_seconds": {batched_secs:.6},
      "sequential_seconds": {sequential_secs:.6},
      "machine_threads": {machine_threads},
      "parallel_speedup_meaningful": {parallel_meaningful},
      "batched_vs_sequential_speedup": {batch_speedup:.3}
    }}{sparse_json}{structured_json}{recovery_json}{fig4_json}
  ]
}}
"#,
        preset_name = preset.name,
        ops = preset.random_ops,
        qsvt_n = preset.qsvt_n,
        qsvt_kappa = preset.qsvt_kappa,
        qsvt_eps = preset.qsvt_eps,
        uq = preset.unitary_qubits,
        ul = preset.unitary_layers,
        refine_target = preset.refine_target,
        multi_rhs = preset.multi_rhs,
        fusion_raw_ops = fusion.raw_ops,
        fusion_fused_ops = fusion.fused_ops,
        fusion_op_reduction = fusion.op_reduction(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("bench_json: wrote {out_path}");
    print!("{json}");
    let _ = std::fs::remove_dir_all(&bench_cache_root);

    // -- Perf-regression gate (--compare) ------------------------------------
    if let Some(baseline_path) = compare_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let violations = compare_against_baseline(&json, &baseline);
        if violations.is_empty() {
            eprintln!("bench_json: no perf regressions against {baseline_path}");
        } else {
            eprintln!(
                "bench_json: {} perf regression(s) against {baseline_path}:",
                violations.len()
            );
            for v in &violations {
                eprintln!("  REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// A perf floor checked by `--compare`: the current value of
/// `workload.field` must stay at or above `fraction` of the committed
/// baseline value.  The fractions are deliberately generous — the committed
/// artifact comes from the `full` preset on a quiet machine while the gate
/// usually runs the `small` preset on shared CI hardware, so only a
/// *collapse* of a ratio (a lost kernel, a disabled cache, a fusion pass
/// that stopped firing) should trip them, not machine noise.
struct RatioFloor {
    workload: &'static str,
    field: &'static str,
    fraction: f64,
}

/// A deterministic counter checked by `--compare`: the current value of
/// `workload.field` must not exceed the committed baseline value.  These
/// counters (circuit compiles in the refinement loop, warm-build
/// regenerations) are machine- and preset-independent
/// once at their floor, so any increase is a real regression.
struct CounterCeiling {
    workload: &'static str,
    field: &'static str,
}

const RATIO_FLOORS: &[RatioFloor] = &[
    RatioFloor {
        workload: "random_circuit",
        field: "kernel_vs_generic_speedup",
        fraction: 0.25,
    },
    RatioFloor {
        workload: "random_circuit",
        field: "simd_vs_scalar_speedup",
        fraction: 0.5,
    },
    RatioFloor {
        workload: "sparse_residual",
        field: "simd_vs_scalar_speedup",
        fraction: 0.3,
    },
    // The fusion and warm-build payoffs scale with circuit size and
    // polynomial degree, so the small-preset gate run sits far below the
    // full-preset baseline even when healthy; these floors are set where
    // only a collapse to ~1.0x (cache or fusion effectively disabled)
    // lands under them.
    RatioFloor {
        workload: "qsvt_solve_circuit_mode",
        field: "fused_vs_unfused_speedup",
        fraction: 0.03,
    },
    RatioFloor {
        workload: "qsvt_solve_circuit_mode",
        field: "warm_vs_cold_build_speedup",
        fraction: 0.1,
    },
];

const COUNTER_CEILINGS: &[CounterCeiling] = &[
    CounterCeiling {
        workload: "hybrid_refinement_circuit_mode",
        field: "compile_once_circuit_compiles",
    },
    CounterCeiling {
        workload: "qsvt_solve_circuit_mode",
        field: "build_phase_generations_warm",
    },
    CounterCeiling {
        workload: "qsvt_solve_circuit_mode",
        field: "build_fusion_passes_warm",
    },
];

/// First workload entry named `name` in a parsed artifact.
fn find_workload<'v>(doc: &'v Value, name: &str) -> Option<&'v Value> {
    match doc.get("workloads")? {
        Value::Seq(items) => items
            .iter()
            .find(|w| matches!(w.get("name"), Some(Value::Str(s)) if s == name)),
        _ => None,
    }
}

fn numeric(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn workload_field(doc: &Value, workload: &str, field: &str) -> Result<f64, String> {
    let w = find_workload(doc, workload).ok_or_else(|| format!("missing workload {workload}"))?;
    let v = w
        .get(field)
        .ok_or_else(|| format!("workload {workload} missing field {field}"))?;
    numeric(v).ok_or_else(|| format!("workload {workload} field {field} is not numeric"))
}

/// Every `(workload name, field)` pair of a parsed artifact.
fn workload_fields(doc: &Value) -> BTreeSet<(&str, &str)> {
    let Some(Value::Seq(items)) = doc.get("workloads") else {
        return BTreeSet::new();
    };
    items
        .iter()
        .filter_map(|w| match (w.get("name"), w) {
            (Some(Value::Str(name)), Value::Map(fields)) => {
                Some(fields.iter().map(move |(f, _)| (name.as_str(), f.as_str())))
            }
            _ => None,
        })
        .flatten()
        .collect()
}

/// Check the fresh artifact against the committed baseline; returns the list
/// of violated rules (empty = gate passes).  Every `(workload, field)` pair
/// of the baseline must appear in the current run, so the gate never
/// silently passes because a workload or a measurement stopped being
/// emitted; a field missing from the *baseline* is fine — that is how new
/// fields roll out (the floors and ceilings start enforcing them once a
/// regenerated baseline is committed).
fn compare_against_baseline(current_json: &str, baseline_json: &str) -> Vec<String> {
    let current: Value = match parse_json(current_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("current artifact is not valid JSON: {e}")],
    };
    let baseline: Value = match parse_json(baseline_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline artifact is not valid JSON: {e}")],
    };
    let emitted = workload_fields(&current);
    let mut violations: Vec<String> = workload_fields(&baseline)
        .difference(&emitted)
        .map(|(workload, field)| format!("workload {workload} missing field {field}"))
        .collect();
    for floor in RATIO_FLOORS {
        let base = match workload_field(&baseline, floor.workload, floor.field) {
            Ok(v) => v,
            Err(_) => continue, // not in the baseline yet: nothing to hold
        };
        match workload_field(&current, floor.workload, floor.field) {
            Ok(cur) => {
                let min = floor.fraction * base;
                if cur < min {
                    violations.push(format!(
                        "{}.{} = {cur:.3} fell below {min:.3} ({}x of baseline {base:.3})",
                        floor.workload, floor.field, floor.fraction
                    ));
                }
            }
            Err(e) => violations.push(e),
        }
    }
    for ceiling in COUNTER_CEILINGS {
        let base = match workload_field(&baseline, ceiling.workload, ceiling.field) {
            Ok(v) => v,
            Err(_) => continue,
        };
        match workload_field(&current, ceiling.workload, ceiling.field) {
            Ok(cur) => {
                if cur > base {
                    violations.push(format!(
                        "{}.{} = {cur} exceeds the committed baseline {base}",
                        ceiling.workload, ceiling.field
                    ));
                }
            }
            Err(e) => violations.push(e),
        }
    }
    violations
}
