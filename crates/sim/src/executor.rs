//! The compile-once execution engine.
//!
//! Every layer above the simulator (block-encodings, the QSVT inverter, the
//! hybrid refinement loop) has the paper's access pattern: **one circuit,
//! many executions** — the matrix is fixed, so its block-encoding and QSVT
//! circuit never change, while right-hand sides and residuals arrive by the
//! dozen.  [`QuantumExecutor`] owns that pattern: it compiles a circuit
//! exactly once into its [`CompiledCircuit`] form and then exposes
//!
//! * [`QuantumExecutor::run`] / `run_in_place`
//!   — apply the compiled circuit to one register, on the calling thread
//!   (the kernels of [`crate::kernels`] are sequential);
//! * [`QuantumExecutor::run_batch`] — apply the compiled circuit to **many**
//!   registers, fanning out across the *batch* with one register per worker
//!   thread once the batch carries at least [`PARALLEL_WORK_THRESHOLD`]
//!   complex multiplies of work.  This is the simulator's only thread
//!   fan-out: independent registers never synchronise, so it scales where
//!   splitting one memory-bound gate sweep across threads did not.  Results
//!   are bit-identical to a sequential loop of
//!   [`run`](QuantumExecutor::run) at any thread count.
//!
//! ## Optimization
//!
//! Construction runs the circuit-optimizer pass of [`crate::fuse`]
//! ([`OptLevel::Fuse`]): adjacent gates fuse into denser sweeps and
//! diagonal chains merge before compilation, so every subsequent execution
//! pays fewer kernel dispatches for the same unitary (to ≲ 1e-13 roundoff).
//! The unfused form — the equivalence oracle and perf baseline, in the same
//! spirit as `kernels::reference` — is [`CompiledCircuit::compile`], which
//! compiles the operation list exactly as written.  [`OptLevel::None`]
//! reaches it through [`QuantumExecutor::with_config`] for the benchmark
//! harnesses that time the two side by side.
//!
//! ## Caching contract
//!
//! Construction compiles (and optimizes); execution never does.  The
//! thread-local [`crate::kernels::circuit_compile_count`] makes the contract
//! testable: wrap any `run`/`run_batch` region with it and the count must
//! not move.
//!
//! ## Faults
//!
//! Execution here is always ideal.  A [`crate::fault::FaultInjector`]
//! degrades the registers a run returns, applied by the caller after the
//! run (`qls_qsvt::QsvtInverter` does this, in input order), so the
//! batch fan-out never has to order the injector's random stream.

use crate::circuit::Circuit;
use crate::fuse::CircuitStats;
use crate::gate::Gate;
use crate::kernels::{CompiledCircuit, PARALLEL_WORK_THRESHOLD};
use crate::state::StateVector;
use qls_cache::{machine_fingerprint, CachePolicy, CacheStore, Fingerprint, FingerprintBuilder};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Cache kind for fused-circuit artifacts (see [`qls_cache`]).
const FUSED_CACHE_KIND: &str = "fused-circuits";
/// Bump whenever the fusion pass (its constants included), the
/// [`CachedFusion`] wire shape, the entry format, or the fingerprint recipe
/// below changes meaning — old entries become misses (4: entries carry a
/// payload checksum).
const FUSED_CACHE_VERSION: u32 = 4;

/// The on-disk payload of one fused-circuit cache entry: the rewritten
/// operation list plus the before/after report.  Compilation itself
/// (matrix flattening, control masks, stride tables) is cheap and
/// machine-width-dependent, so a hit replays the *fusion decision* and
/// recompiles — [`crate::kernels::circuit_compile_count`] still ticks once
/// per construction, preserving the compile-once contract tests, while
/// [`crate::fuse::fusion_pass_count`] does not.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachedFusion {
    fused: Circuit,
    stats: CircuitStats,
}

/// Content fingerprint of a fusion job: every input the optimizer's output
/// depends on (the pass has no options; [`FUSED_CACHE_VERSION`] covers its
/// constants).  Gate params and `Unitary` entries are hashed by f64 bit
/// pattern.  The machine fingerprint is included because fused products
/// multiply gate matrices built with the platform's `sin`/`cos`, which can
/// differ in the last bit between platforms — an artifact cache copied to
/// an unlike machine misses instead of replaying another platform's floats.
fn fused_circuit_fingerprint(circuit: &Circuit) -> Fingerprint {
    let mut b = FingerprintBuilder::new(FUSED_CACHE_KIND);
    b.write_u64(machine_fingerprint());
    b.write_usize(circuit.num_qubits());
    b.write_usize(circuit.len());
    // QSVT circuits repeat the same block-encoding unitary degree-many
    // times; hashing every copy would make the fingerprint itself cost more
    // than a warm cache replay saves.  Each *distinct* matrix is hashed
    // once; repeats hash as a back-reference to its first occurrence.  A
    // repeat is usually a clone sharing the first occurrence's storage
    // (`Circuit::append`), found by pointer; otherwise an equality check
    // against the distinct set (a memcmp, several times cheaper than
    // streaming the matrix through the hash) finds it.  Either way the same
    // bytes are hashed (a matrix holding NaN, which never compares equal,
    // is the one exception).  The encoding stays injective: the op stream
    // determines the distinct list and every op's matrix content.
    let mut distinct: Vec<&crate::cmatrix::CMatrix> = Vec::new();
    for op in circuit.operations() {
        b.write_str(op.gate.name());
        match &op.gate {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::Phase(t) | Gate::GlobalPhase(t) => {
                b.write_f64(*t);
            }
            Gate::Unitary(m) => match distinct
                .iter()
                .position(|d| d.shares_storage(m))
                .or_else(|| distinct.iter().position(|d| *d == m))
            {
                Some(i) => {
                    b.write_u64(u64::MAX);
                    b.write_usize(i);
                }
                None => {
                    b.write_usize(m.nrows());
                    for i in 0..m.nrows() {
                        for j in 0..m.ncols() {
                            let z = m[(i, j)];
                            b.write_f64(z.re);
                            b.write_f64(z.im);
                        }
                    }
                    distinct.push(m);
                }
            },
            _ => {}
        }
        b.write_usize_slice(&op.targets);
        b.write_usize_slice(&op.controls);
    }
    b.finish()
}

/// How aggressively [`QuantumExecutor::with_config`] rewrites a circuit
/// before compiling it.  Every solver path fuses; `None` is the unfused
/// baseline that the benchmark harnesses time against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Compile the operation list as-is (one [`CompiledOp`] per gate).  The
    /// unoptimized oracle/baseline path.
    ///
    /// [`CompiledOp`]: crate::kernels::CompiledOp
    None,
    /// Run gate fusion + diagonal merging ([`crate::fuse`]) before
    /// compiling.  The default.  Fusion is a pure function of the circuit
    /// and the register width, so [`crate::resources::fusion_stats`]
    /// reports the circuit this level runs.
    #[default]
    Fuse,
}

/// How the executor lays out the register at run time: one contiguous
/// `2^n`-amplitude register, the only layout.
///
/// It stays a one-variant enum because the benchmark harness in `perfbench/`
/// passes `ExecMode::Flat` to [`QuantumExecutor::with_config`] and
/// `qls_qsvt::QsvtInverter::with_config`; both ignore it.  It goes once that
/// harness stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One contiguous register.
    #[default]
    Flat,
}

/// A circuit compiled once and executable many times, single or batched.
#[derive(Debug, Clone)]
pub struct QuantumExecutor {
    compiled: CompiledCircuit,
    /// Before/after fusion report (`None` for [`OptLevel::None`]).
    stats: Option<CircuitStats>,
}

impl QuantumExecutor {
    /// Fuse ([`OptLevel::Fuse`]) and compile `circuit` once for its own
    /// register width, with the artifact cache disabled — ad-hoc executors
    /// over arbitrary circuits should not populate the user's cache
    /// directory.  Layers with stable, expensive-to-fuse circuits (the QSVT
    /// solver stack) opt in through [`QuantumExecutor::with_config`].
    pub fn new(circuit: &Circuit) -> Self {
        Self::with_config(
            circuit,
            OptLevel::Fuse,
            ExecMode::Flat,
            CachePolicy::Disabled,
        )
    }

    /// The general constructor: explicit [`OptLevel`] and [`CachePolicy`].
    /// `mode` has one value, [`ExecMode::Flat`].
    ///
    /// With the cache enabled, the [`OptLevel::Fuse`] path consults the
    /// persistent `fused-circuits` store before running the optimizer: a hit
    /// replays the previously fused operation list (zero
    /// [`crate::fuse::fusion_pass_count`] ticks), a miss fuses as usual and
    /// stores the result.  Either way the compiled form is bit-identical:
    /// fusion is a pure function of the circuit, and the cache stores the
    /// fusion *decision*, not floats produced by it.
    pub fn with_config(
        circuit: &Circuit,
        opt_level: OptLevel,
        mode: ExecMode,
        cache: CachePolicy,
    ) -> Self {
        // Irrefutable while `Flat` is the only layout.
        let ExecMode::Flat = mode;
        let num_qubits = circuit.num_qubits();
        match opt_level {
            OptLevel::None => QuantumExecutor {
                compiled: CompiledCircuit::compile(circuit),
                stats: None,
            },
            OptLevel::Fuse => {
                let store = match cache {
                    CachePolicy::Enabled => CacheStore::open(),
                    CachePolicy::Disabled => None,
                };
                let key = store.as_ref().map(|_| fused_circuit_fingerprint(circuit));
                if let (Some(store), Some(key)) = (&store, key) {
                    // Belt and braces on top of the deserializer's own
                    // invariant checks: a replayed circuit must still fit
                    // the register (key collisions are negligible, but a
                    // panic from stale data is never acceptable).  One that
                    // does not is a miss.
                    if let Some(cf) = store.load(
                        FUSED_CACHE_KIND,
                        FUSED_CACHE_VERSION,
                        key,
                        |cf: &CachedFusion| cf.fused.num_qubits() <= num_qubits,
                    ) {
                        return QuantumExecutor {
                            compiled: CompiledCircuit::compile_for(&cf.fused, num_qubits),
                            stats: Some(cf.stats),
                        };
                    }
                }
                let (compiled, fused, stats) = CompiledCircuit::optimized(circuit, num_qubits);
                if let (Some(store), Some(key)) = (&store, key) {
                    store.store(
                        FUSED_CACHE_KIND,
                        FUSED_CACHE_VERSION,
                        key,
                        &CachedFusion { fused, stats },
                    );
                }
                QuantumExecutor {
                    compiled,
                    stats: Some(stats),
                }
            }
        }
    }

    /// The before/after fusion report (`Some` iff the optimizer ran).
    pub fn stats(&self) -> Option<&CircuitStats> {
        self.stats.as_ref()
    }

    /// Register width the engine was compiled for.
    pub(crate) fn num_qubits(&self) -> usize {
        self.compiled.num_qubits()
    }

    /// Number of compiled operations.
    pub fn len(&self) -> usize {
        self.compiled.len()
    }

    /// True when the compiled circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.compiled.len() == 0
    }

    /// The compiled artefact itself.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// Apply the compiled circuit to `state` in place.
    pub(crate) fn run_in_place(&self, state: &mut StateVector) {
        self.compiled.apply(state);
    }

    /// Apply the compiled circuit to a copy of `initial` and return the
    /// result.
    pub fn run(&self, initial: &StateVector) -> StateVector {
        let mut state = initial.clone();
        self.run_in_place(&mut state);
        state
    }

    /// Run the compiled circuit on `|0…0⟩`.
    pub fn run_zero(&self) -> StateVector {
        let mut state = StateVector::zero_state(self.num_qubits());
        self.run_in_place(&mut state);
        state
    }

    /// Apply the compiled circuit to every register of `states` in place,
    /// fanning out **across the batch** (one register per worker) when the
    /// total work justifies threads.  Results are bit-identical to
    /// `for s in states { executor.run_in_place(s) }` at any thread count.
    pub fn run_batch(&self, states: &mut [StateVector]) {
        if let Some(first) = states.first() {
            let per_state = self.compiled.work_estimate(first.amplitudes().len());
            let batch_work = per_state.saturating_mul(states.len());
            if states.len() >= 2
                && batch_work >= PARALLEL_WORK_THRESHOLD
                && rayon::current_num_threads() > 1
            {
                states
                    .par_iter_mut()
                    .for_each(|state| self.compiled.apply(state));
                return;
            }
        }
        for state in states {
            self.compiled.apply(state);
        }
    }

    /// [`QuantumExecutor::run_batch`] over owned initial states, returning the
    /// final states in order.
    pub fn run_batch_vec(&self, mut states: Vec<StateVector>) -> Vec<StateVector> {
        self.run_batch(&mut states);
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::kernels::circuit_compile_count;

    fn test_circuit(n: usize) -> Circuit {
        let mut circ = Circuit::new(n);
        circ.h(0);
        for q in 1..n {
            circ.cx(q - 1, q);
        }
        circ.ry(0, 0.31).rz(n - 1, -0.7).t(n / 2);
        circ.gate(Gate::Phase(0.4), &[1]);
        circ
    }

    fn max_diff(a: &StateVector, b: &StateVector) -> f64 {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn a_replay_wider_than_the_register_counts_as_a_miss() {
        // A well-formed fused entry under the circuit's key whose circuit
        // is wider than the register is rejected: the lookup is a miss, the
        // circuit is fused afresh, and the engine runs the circuit's own
        // fused form.
        let dir = std::env::temp_dir().join(format!("qls-exec-wide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let circ = test_circuit(3);
        let wide = test_circuit(4);
        qls_cache::with_cache_dir(&dir, || {
            let stored = CacheStore::open().unwrap().store(
                FUSED_CACHE_KIND,
                FUSED_CACHE_VERSION,
                fused_circuit_fingerprint(&circ),
                &CachedFusion {
                    stats: crate::resources::fusion_stats(&wide),
                    fused: wide,
                },
            );
            assert!(stored);
            let (h, m) = (qls_cache::cache_hit_count(), qls_cache::cache_miss_count());
            let f = crate::fuse::fusion_pass_count();
            let exec = QuantumExecutor::with_config(
                &circ,
                OptLevel::Fuse,
                ExecMode::Flat,
                CachePolicy::Enabled,
            );
            assert_eq!(
                (
                    qls_cache::cache_hit_count() - h,
                    qls_cache::cache_miss_count() - m,
                    crate::fuse::fusion_pass_count() - f
                ),
                (0, 1, 1),
                "(hits, misses, fusion passes)"
            );
            let fresh = QuantumExecutor::new(&circ);
            assert_eq!(exec.run_zero().amplitudes(), fresh.run_zero().amplitudes());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_matches_apply_circuit() {
        let circ = test_circuit(5);
        // The default (fused) engine agrees to roundoff; the unoptimized
        // engine is the same float-for-float computation as apply_circuit.
        let exec = QuantumExecutor::new(&circ);
        let mut via_state = StateVector::zero_state(5);
        via_state.apply_circuit(&circ);
        assert!(max_diff(&exec.run_zero(), &via_state) < 1e-12);
        let raw = QuantumExecutor::with_config(
            &circ,
            OptLevel::None,
            ExecMode::Flat,
            CachePolicy::Disabled,
        );
        assert_eq!(raw.run_zero().amplitudes(), via_state.amplitudes());
        assert!(raw.stats().is_none());
        assert!(exec.stats().unwrap().fused_ops <= exec.stats().unwrap().raw_ops);
    }

    #[test]
    fn construction_compiles_once_and_runs_never_compile() {
        let circ = test_circuit(4);
        let before = circuit_compile_count();
        let exec = QuantumExecutor::new(&circ);
        assert_eq!(circuit_compile_count(), before + 1);
        let mut batch: Vec<StateVector> = (0..6).map(|i| StateVector::basis_state(4, i)).collect();
        let _ = exec.run_zero();
        let _ = exec.run(&batch[0]);
        exec.run_batch(&mut batch);
        assert_eq!(
            circuit_compile_count(),
            before + 1,
            "run/run_batch must not recompile"
        );
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let circ = test_circuit(6);
        let exec = QuantumExecutor::new(&circ);
        let initial: Vec<StateVector> =
            (0..8).map(|i| StateVector::basis_state(6, i * 3)).collect();
        let mut batch = initial.clone();
        exec.run_batch(&mut batch);
        for (b, init) in batch.iter().zip(&initial) {
            let single = exec.run(init);
            assert_eq!(b.amplitudes(), single.amplitudes());
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let exec = QuantumExecutor::new(&test_circuit(2));
        exec.run_batch(&mut []);
        assert!(!exec.is_empty());
        // On the tiny 2-qubit register the mask-densifying pass collapses
        // the whole circuit (cx included) into one dense 2-qubit unitary.
        assert_eq!(exec.len(), 1);
        let raw = CompiledCircuit::compile(&test_circuit(2));
        assert_eq!(raw.len(), 1 + 1 + 3 + 1); // h + cx + ry/rz/t + phase
    }
}
