//! # qls — mixed-precision quantum-classical linear-system solver
//!
//! Facade crate of the workspace: re-exports the sub-crates and provides a
//! [`prelude`] so the examples and downstream users can pull in everything the
//! paper's workflow needs with a single `use`.
//!
//! The workspace reproduces *"A mixed-precision quantum-classical algorithm
//! for solving linear systems"* (Koska–Baboulin–Gazda):
//!
//! * [`linalg`] (`qls-linalg`) — the classical substrate: dense linear
//!   algebra in `f32` and `f64`, classical iterative refinement, the
//!   structured-operator layer (`qls_linalg::operator::LinearOperator` with
//!   dense and CSR implementations; the 1-D, 2-D and 3-D Poisson operators
//!   are CSR matrices) and the structured inner-solver layer
//!   (`qls_linalg::inner::FactorizableOperator`: for CSR, Thomas when every
//!   entry lies within one diagonal of the main one and Jacobi-CG /
//!   BiCGSTAB otherwise; dense LU retained as the oracle), so
//!   residuals, refinement *and the low-precision correction solves* all run
//!   at O(nnz) on structured problems — no classical refinement path
//!   densifies an O(N²) matrix;
//! * [`poly`] (`qls-poly`) — Chebyshev machinery and the Eq. (4) inverse
//!   polynomial;
//! * [`sim`] (`qls-sim`) — the state-vector quantum simulator (compiled
//!   in-place gate kernels, sequential per register; see the performance
//!   model in `qls_sim`), the circuit-optimizer pass (`qls_sim::fuse`: gate
//!   fusion + diagonal merging, which every solver circuit runs, reported
//!   by `CircuitStats`), and the compile-once execution engine
//!   (`qls_sim::QuantumExecutor`: optimize + compile a circuit exactly once,
//!   `run` it many times, `run_batch` it across many registers with one
//!   register per worker thread — the simulator's only thread fan-out);
//! * [`encoding`] (`qls-encoding`) — state preparation and block-encodings;
//! * [`qsvt`] (`qls-qsvt`) — QSP phases, QSVT circuits, matrix inversion
//!   (compile-once: `QsvtInverter` compiles its circuit in `new` and offers
//!   batched multi-RHS solves via `solve_direction_batch`);
//! * [`core`] (`qls-core`) — the hybrid solver (Algorithm 2; `HybridRefiner`
//!   reuses one compiled circuit across all refinement iterations and all
//!   right-hand sides of `solve_many`, and accepts any `FactorizableOperator`
//!   — its classical residual path is O(nnz) on structured problems), cost
//!   models, communication model, baselines, the unified `QlsError`
//!   taxonomy, and the fault-recovery ladder (switched on by
//!   `HybridRefinementOptions::recovery`: retry → escalate shots → tighten
//!   ε_l → classical fallback, audited in a `RecoveryLog`);
//! * [`cache`] (`qls-cache`) — the persistent artifact cache behind warm
//!   solver construction (see "Persistent artifact cache" below).
//!
//! ## Performance model: SIMD kernels + cost-gated fusion
//!
//! The hot loops — statevector gate sweeps (`qls_sim::simd`), CSR SpMV and
//! dense matvec/matmul (`qls_linalg::simd`) — are vectorized with the
//! `vendor/wide` `f64x4` stand-in (runtime `avx2,fma` dispatch on x86-64,
//! scalar fallback elsewhere).  The convention throughout: **one output
//! element per lane, accumulated in the scalar kernel's exact operation
//! order**, so every SIMD kernel is *bit-identical* to its retained scalar
//! oracle — toggle with `qls_sim::with_scalar_kernels` (statevector) or
//! call the `_scalar` twins (`matvec_scalar`/`matmul_scalar`) directly;
//! remainders that don't fill a lane group fall back to the same scalar
//! loops.  The fusion optimizer (`qls_sim::fuse`, run on every solver
//! circuit) prices candidate fusions with one fixed table of
//! complex-multiply-equivalent units per kernel class, and uses it to
//! decide two-op lookahead (X·D·X conjugations collapse to one diagonal)
//! and mask-densifying fusion of controlled ops with different control
//! sets.  Fusion is a pure function of the circuit and the register width,
//! so a cold build, a warm cache replay and a second process fuse a
//! circuit the same way, and `qls_sim::fusion_stats` reports the circuit
//! the executor runs.
//!
//! Threads enter in two places only: `QuantumExecutor::run_batch` runs one
//! register per worker, and `qls-linalg` partitions the rows of its large
//! matvec, SpMV and matmul kernels.  A single gate sweep always runs on the
//! calling thread.
//!
//! ## Robustness: faults and recovery
//!
//! The simulator carries a seeded, deterministic fault layer
//! (`qls_sim::fault`): a declarative `FaultPlan` — Gaussian amplitude
//! noise, transient failures scheduled by run index, readout sign
//! corruption — executed by a `FaultInjector` that attaches to
//! `QsvtInverter`, `QsvtLinearSolver` or `HybridRefiner` (the latter two
//! hand it down to their inverter).  Faults enter in one place: the
//! inverter degrades each device run's output after the ideal run, so every
//! operation has one execution path, and a no-fault configuration is
//! bit-identical to the ideal simulator (the equivalence-oracle pattern —
//! asserted by `tests/fault_recovery.rs` and the `qls-qsvt` fault suite).
//! On top, the refiner's recovery ladder absorbs injected faults,
//! failed post-selections, non-finite values and stalled contraction; see
//! `examples/noisy_refinement.rs` for the end-to-end demonstration and
//! `qls_core::refine` for how to write deterministic fault tests.
//!
//! ## Persistent artifact cache: warm solver construction
//!
//! Building a circuit-mode solver is dominated by two one-time stages —
//! symmetric-QSP phase-factor iteration and the gate-fusion pass —
//! both pure functions of their inputs.  The [`cache`] crate (`qls-cache`)
//! makes repeat constructions a disk read: `QsvtInverter::new`,
//! `QsvtLinearSolver::new` and `HybridRefiner::new` consult per-kind stores
//! under `$QLS_CACHE_DIR` (default `~/.cache/qls`) before generating
//! anything, on by default via `QsvtSolverOptions::cache`
//! (`CachePolicy::Disabled` is the escape hatch; results are bit-identical
//! either way — the cache stores decisions, not approximations).
//!
//! **Fingerprint scheme.**  Entries are keyed by a 128-bit content hash
//! (two fixed-key SipHash-2-4 lanes, `qls_cache::FingerprintBuilder`) over
//! *every input the artifact depends on*, with floats hashed by IEEE-754
//! bit pattern: phase factors (kind `qsvt-phases`) hash the polynomial's
//! Chebyshev coefficients; fused circuits (kind `fused-circuits`) hash the
//! gate list (names, params, `Unitary` entries, targets, controls), register
//! width, and the machine fingerprint (arch + OS + SIMD class), because
//! fused products multiply gate matrices built with the platform's
//! `sin`/`cos`, which can differ in the last bit between platforms.  The
//! phase solver and the fusion pass have no options; their constants are
//! covered by each kind's entry-format version.
//!
//! **Invalidation rules.**  There is no staleness check at read time —
//! invalidation is structural: any input change produces a different
//! fingerprint (a never-found key), each kind carries an entry-format
//! version in both the directory layout and the JSON envelope (bumping it
//! orphans old entries), every entry carries a SipHash-2-4 checksum of its
//! payload bytes that the reader checks before parsing, and corrupt,
//! truncated or edited files are a miss, never an error.  Writes are atomic
//! (temp file + rename), so concurrent solvers race benignly.
//! `qls_cache::cache_hit_count` / `cache_miss_count` audit the stores the
//! same way `circuit_compile_count` audits compilation — a hit is a replay
//! the caller used, so an entry it rejects counts as a miss; see
//! `examples/warm_cache.rs` and the
//! `build_seconds_warm` / `warm_vs_cold_build_speedup` fields of
//! `BENCH_simulator.json`.
//!
//! ## Workspace layout
//!
//! ```text
//! Cargo.toml            workspace root + this `qls` facade crate
//! src/lib.rs            facade: re-exports + prelude
//! tests/                cross-crate integration and property tests
//! examples/             runnable walkthroughs (see below)
//! crates/<name>/        the eight qls-* member crates: the seven above, plus
//! crates/bench/         criterion benches + figure/table binaries
//! vendor/<name>/        offline stand-ins for crates.io dependencies
//! ```
//!
//! The `vendor/` crates exist because the build environment has no network
//! access to crates.io: each one implements exactly the API subset the
//! workspace consumes (see each `vendor/*/src/lib.rs` header).  Restoring
//! the real dependencies is a `Cargo.toml`-only change.
//!
//! ## Building and testing
//!
//! The tier-1 gate every change must keep green:
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! Wider sweeps: `cargo test --workspace` runs every member crate's suite;
//! `cargo build --release --workspace --bins --examples` and `cargo bench
//! --no-run` prove all binaries, examples and benches compile (without
//! `--workspace`, `--bins` at the root builds only this facade, which has
//! no binaries).
//!
//! ## Public API
//!
//! An item of a `qls-*` crate is `pub` only when another crate, binary,
//! example, bench, test or the `perfbench/` harness names it; everything
//! else is `pub(crate)`, so rustc's `dead_code` lint (an error under CI's
//! `clippy -D warnings`) flags any item that loses its last caller.  An
//! oracle that only its own crate's unit tests use is `#[cfg(test)]`, and
//! no lint attribute silences the census (CI checks that too).  The same
//! rule holds for the [`prelude`]: it re-exports only what an example, test
//! or doctest imports through it; every other public item stays reachable
//! under its crate's path (`qls::core::…`, `qls::sim::…`, and so on).
//!
//! ## Examples, benches, figure binaries
//!
//! * `cargo run --release --example quickstart` — end-to-end hybrid solve
//!   (also `poisson1d`, `poisson1d_multirhs` — the batched multi-RHS
//!   workload — `poisson2d` and `poisson3d` — the Poisson stencils as CSR —
//!   `noisy_refinement` — the fault-injection + recovery-ladder
//!   demonstration — `hhl_vs_qsvt`, `precision_tradeoff`,
//!   `circuit_resources` and `warm_cache`).
//! * `cargo bench` — criterion micro-benchmarks of every substrate
//!   (`crates/bench/benches/`).
//! * `cargo run --release -p qls-bench --bin table1` — regenerate Table I;
//!   likewise `table2`, `fig1_comms` … `fig5_complexity` for every figure
//!   and table of the paper's evaluation.
//! * `cargo run --release -p qls-bench --bin bench_json` — time the
//!   simulator's representative workloads and write the machine-readable
//!   perf-trajectory artifact `BENCH_simulator.json` (CI validates it with
//!   `--preset small`).

pub use qls_cache as cache;
pub use qls_core as core;
pub use qls_encoding as encoding;
pub use qls_linalg as linalg;
pub use qls_poly as poly;
pub use qls_qsvt as qsvt;
pub use qls_sim as sim;

/// Everything the examples and typical downstream code need, in one import.
pub mod prelude {
    pub use qls_cache::{cache_hit_count, cache_miss_count, with_cache_dir, CachePolicy};
    pub use qls_core::{
        classical_lu_solve, poisson_cost_breakdown, qsvt_degree_model, quantum_cost_comparison,
        CommunicationParameters, CommunicationSchedule, CostParameters, Direction, FailureReason,
        HhlSolver, HybridHistory, HybridRefinementOptions, HybridRefiner, HybridStatus,
        PoissonCostParameters, QsvtLinearSolver, QsvtSolverOptions, RecoveryAction,
    };
    pub use qls_encoding::{
        BlockEncoding, BlockEncodingExt, DilationBlockEncoding, FableBlockEncoding,
        LcuBlockEncoding, StatePreparation, TridiagBlockEncoding,
    };
    pub use qls_linalg::generate::{
        convection_diffusion_1d, convection_diffusion_2d, random_connected_graph,
        random_matrix_with_cond, random_unit_vector, shifted_graph_laplacian, MatrixEnsemble,
        SingularValueDistribution,
    };
    pub use qls_linalg::{
        cond_2, cond_2_estimate, forward_error, poisson_1d, poisson_1d_condition_number,
        poisson_2d, poisson_2d_condition_number, poisson_2d_rhs, poisson_3d,
        poisson_3d_condition_number, poisson_3d_rhs, poisson_rhs, scaled_residual,
        ClassicalRefiner, FactorizableOperator, InnerSolver, InnerSolverKind, LinearOperator,
        Matrix, RefinementOptions, SparseMatrix, Vector, DENSIFY_FALLBACK_MAX,
    };
    pub use qls_poly::InversePolynomial;
    pub use qls_qsvt::{phase_generation_count, QsvtInverter, QsvtMode};
    pub use qls_sim::{
        estimate_resources, fusion_pass_count, fusion_stats, FaultInjector, FaultPlan,
        QuantumExecutor, TCountModel, TransientKind,
    };

    pub use rand::SeedableRng;

    /// Deterministic RNG for reproducible example runs.
    pub fn experiment_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let mut rng = experiment_rng(1);
        let a = random_matrix_with_cond(
            8,
            5.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let b = random_unit_vector(8, &mut rng);
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-10,
                epsilon_l: 1e-2,
                ..Default::default()
            },
        )
        .unwrap();
        let (x, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
        assert!(scaled_residual(&a, &x, &b) <= 1e-10);
    }
}
