//! # qls-sim
//!
//! A from-scratch state-vector quantum-circuit simulator.
//!
//! The paper's experiments run on the myQLM state-vector simulator (Python);
//! this crate is its Rust replacement for the reproduction: gates and circuits
//! ([`gate`], [`circuit`]), exact state-vector execution through compiled
//! in-place kernels ([`state`], [`kernels`]), dense-unitary extraction for
//! verification of block-encodings ([`unitary`]), shot sampling and
//! post-selection ([`measure`]), dense complex matrices ([`cmatrix`]), and
//! fault-tolerant resource estimates (T-count, depth, gate histograms —
//! [`resources`]), which the paper uses to express the quantum cost of its
//! Poisson use case (Table II).
//!
//! ## Performance model
//!
//! Gate application is the workspace-wide hot path, and it is organised
//! around four ideas (full dispatch table in [`kernels`]):
//!
//! 1. **Compile once, apply cheaply.**  [`CompiledCircuit::compile`] turns
//!    each operation into a [`CompiledOp`] — flattened matrix, control mask
//!    and target strides precomputed — classified into the cheapest kernel:
//!    diagonal/phase gates multiply amplitudes in place, X/SWAP permute them,
//!    dense single-qubit gates update `2^(n-1)` amplitude pairs, and only
//!    k-qubit `Gate::Unitary` falls back to a generic blocked mat-vec fed
//!    from a reusable scratch buffer.  Controlled variants enumerate just the
//!    control-satisfied subspace (`2^(n-c)` instead of `2^n` indices).
//! 2. **Sequential kernels.**  One gate application sweeps the register on
//!    the calling thread, through SIMD bodies ([`simd`]) that are
//!    bit-identical to the scalar loops.  The kernels do not split a sweep
//!    across threads: on two threads that ran a 16-qubit random circuit at
//!    0.24–0.62x of one thread, and the solver's registers (6–10 qubits)
//!    never carry enough work to try.
//!
//! 3. **Compile once, execute many.**  [`QuantumExecutor`] ([`executor`]) is
//!    the execution-engine layer the rest of the workspace builds on: it owns
//!    a [`CompiledCircuit`] compiled exactly once at construction and exposes
//!    `run`/`run_in_place` plus a batched `run_batch` that applies the one
//!    compiled circuit to many registers with **coarse-grained fan-out across
//!    the batch** (one register per worker, once the batch carries
//!    [`PARALLEL_WORK_THRESHOLD`] complex multiplies of work).  That is the
//!    simulator's only thread fan-out (the vendored rayon is backed by
//!    `std::thread::scope`), and its results are bit-identical at every
//!    worker count (`rayon::ThreadPoolBuilder::install` pins the count in
//!    tests).  Construction compiles, execution never does; the
//!    thread-local [`kernels::circuit_compile_count`] counter makes that
//!    contract testable.
//!
//! 4. **Optimize before compiling.**  The circuit-optimizer pass ([`fuse`])
//!    rewrites the operation list ahead of compilation — runs of adjacent
//!    gates fuse into one dense sweep (combined target support capped at
//!    three qubits, uncapped when targets nest),
//!    diagonal/phase chains merge into a single table-driven diagonal, and
//!    identities vanish — so `m` gates become far fewer, denser kernel
//!    dispatches.  One fixed cost table prices every candidate fusion, so a
//!    circuit always fuses the same way.  [`QuantumExecutor`] applies it by
//!    default ([`OptLevel::Fuse`]); `OptLevel::None` retains the
//!    one-`CompiledOp`-per-gate path as the equivalence oracle, and
//!    [`CircuitStats`] reports the before/after op counts and estimated
//!    sweep work.
//!
//! The seed's original "rebuild the whole vector per gate" path survives as
//! `kernels::reference`, serving as the property-test oracle and the baseline
//! of the `BENCH_simulator.json` perf trajectory (`bench_json` binary).
//!
//! ## Fault injection
//!
//! The [`fault`] module supplies a seeded, deterministic degradation layer:
//! a declarative [`FaultPlan`] (Gaussian amplitude noise, scheduled transient
//! failures, readout sign corruption) executed by a [`FaultInjector`].  The
//! simulator never consults it — [`QuantumExecutor`] has one ideal execution
//! path — and `qls_qsvt::QsvtInverter` applies it to the registers a run
//! returns, so the no-fault configuration stays bit-identical to the ideal
//! simulator and serves as the equivalence oracle for the robustness layer
//! built on top (`qls-core`'s recovery ladder).
//!
//! ## Qubit convention
//!
//! Qubit `q` is bit `q` of the basis-state index (little-endian).  Helper
//! methods on [`StateVector`] make the ancilla/data split used by
//! block-encodings explicit: data registers occupy the low qubits, ancillas
//! the high qubits.
//!
//! ## Example
//!
//! ```
//! use qls_sim::{Circuit, StateVector};
//!
//! // Prepare a Bell pair and check the outcome probabilities.
//! let mut circuit = Circuit::new(2);
//! circuit.h(0).cx(0, 1);
//! let state = StateVector::run(&circuit);
//! assert!((state.probability(0) - 0.5).abs() < 1e-12);
//! assert!((state.probability(3) - 0.5).abs() < 1e-12);
//! ```

pub mod circuit;
pub mod cmatrix;
pub mod executor;
pub mod fault;
pub mod fuse;
pub mod gate;
pub mod kernels;
pub mod measure;
pub mod resources;
pub mod simd;
pub mod state;
pub mod unitary;

pub use circuit::{Circuit, Operation};
pub use cmatrix::CMatrix;
pub use executor::{ExecMode, OptLevel, QuantumExecutor};
pub use fault::{
    FaultError, FaultEvent, FaultInjector, FaultPlan, SharedFaultInjector, TransientFault,
    TransientKind,
};
pub use fuse::{
    calibration_count, fusion_pass_count, optimize_circuit, optimize_circuit_for, CircuitStats,
    FusionOptions,
};
pub use gate::Gate;
pub use kernels::{circuit_compile_count, CompiledCircuit, CompiledOp, PARALLEL_WORK_THRESHOLD};
pub use measure::{
    estimate_magnitudes, sample, shots_for_accuracy, signed_from_magnitudes, SampleResult,
};
pub use qls_cache::CachePolicy;
pub use resources::{estimate_resources, fusion_stats, ResourceEstimate, TCountModel};
pub use simd::{simd_kernels_enabled, with_scalar_kernels};
pub use state::StateVector;
pub use unitary::{apply_circuit_to_vector, circuit_unitary};
