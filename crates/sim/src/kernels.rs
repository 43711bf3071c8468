//! Compiled in-place gate-application kernels — the simulator hot path.
//!
//! Every end-to-end experiment in this workspace (HHL, QSVT solve,
//! block-encoding verification, the figure/table binaries) bottoms out in
//! applying gates to a `2^n`-amplitude state vector, so this module replaces
//! the generic "rebuild the whole vector per gate" path with specialized
//! kernels that update amplitudes **in place** and visit only the amplitudes
//! a gate can actually change.
//!
//! ## Compilation
//!
//! An [`Operation`] is compiled once into a [`CompiledOp`]: the gate matrix is
//! materialized and flattened a single time, the control mask and target
//! strides are precomputed, and the operation is classified into the cheapest
//! kernel that implements it.  [`CompiledCircuit`] does this for a whole
//! circuit so repeated executions (e.g. the `2^n` columns of
//! [`crate::unitary::circuit_unitary`]) pay compilation once.
//!
//! ## Kernel dispatch table
//!
//! | kernel | gates | work per application |
//! |--------|-------|----------------------|
//! | `Identity`    | `I` | none |
//! | `PhaseShift`  | `Z` `S` `S†` `T` `T†` `P(φ)` | `2^(n-c-1)` complex multiplies |
//! | `Diagonal`    | `Rz` `GlobalPhase` | `2^(n-c)` complex multiplies |
//! | `Flip`        | `X` (incl. `CX`/`CCX`/MCX) | `2^(n-c-1)` swaps |
//! | `SwapBits`    | `SWAP` | `2^(n-c-2)` swaps |
//! | `SingleQubit` | `H` `Y` `Rx` `Ry`, any dense 1-qubit unitary | `2^(n-c-1)` 2×2 updates (4 multiplies each) |
//! | `DiagonalK`   | diagonal k-qubit `Gate::Unitary` (fused phase chains) | `2^(n-c)` table-lookup multiplies |
//! | `Generic`     | dense k-qubit `Gate::Unitary` | `2^(n-c-k)` dense `2^k`×`2^k` mat-vecs |
//!
//! `n` = register qubits, `c` = number of controls, `k` = targets.  Controlled
//! variants enumerate only the control-satisfied subspace (the free indices
//! are expanded around the fixed control/target bit positions), so an
//! `m`-controlled gate costs `2^m` times *less* than its uncontrolled form
//! instead of paying a full-vector scan.
//!
//! ## Parallelism
//!
//! Kernels are sequential: one application sweeps the register on the
//! calling thread.  The simulator's only thread fan-out is
//! [`QuantumExecutor::run_batch`](crate::executor::QuantumExecutor::run_batch),
//! which runs one whole register per worker once a batch carries at least
//! [`PARALLEL_WORK_THRESHOLD`] complex multiplies of work
//! ([`CompiledCircuit::work_estimate`] times the batch size).  Registers
//! never share amplitudes, so every kernel works on a plain `&mut` slice.
//!
//! The seed's original generic path is retained in [`mod@reference`] as the
//! correctness oracle for the kernel property tests and as the baseline the
//! `bench_json` perf-trajectory binary measures speedups against.

use crate::circuit::{Circuit, Operation};
use crate::gate::Gate;
use crate::simd;
use crate::state::StateVector;
use num_complex::Complex64;
use std::cell::Cell;

thread_local! {
    /// Number of [`CompiledCircuit`] compilations performed by *this thread*.
    ///
    /// The counter is thread-local on purpose: compilation always happens on
    /// the thread that calls [`CompiledCircuit::compile_for`] (the batch
    /// fan-out parallelises execution, never compilation), so a test or
    /// bench can assert compile-once behaviour — "this solve performed zero
    /// recompilations" — without races against other test threads.
    static CIRCUIT_COMPILES: Cell<usize> = const { Cell::new(0) };
}

/// The number of circuit compilations ([`CompiledCircuit::compile`] /
/// [`CompiledCircuit::compile_for`]) performed so far by the calling thread.
///
/// Read it before and after a code region to verify a caching contract: the
/// compile-once engines ([`crate::executor::QuantumExecutor`] and everything
/// built on it) must not change this count during `run`/`run_batch`.
pub fn circuit_compile_count() -> usize {
    CIRCUIT_COMPILES.with(|c| c.get())
}

/// Minimum amount of work — measured in complex multiplies — in one
/// [`QuantumExecutor::run_batch`](crate::executor::QuantumExecutor::run_batch)
/// call before the batch fans out, one register per worker.  Each kernel
/// weights its free-index count by its per-iteration cost (1 for
/// diagonal/phase/permutation kernels, 4 for the single-qubit pair kernel,
/// `4^k` for the generic kernel), summed over the circuit and the batch.
/// The vendored rayon spawns scoped threads per call (no pool), so the
/// value is deliberately conservative.  It gates only `run_batch`: a single
/// gate sweep never fans out, because splitting one memory-bound sweep
/// across two threads ran a 16-qubit random circuit at 0.24–0.62x of one
/// thread.
pub const PARALLEL_WORK_THRESHOLD: usize = 1 << 16;

const ZERO: Complex64 = Complex64::new(0.0, 0.0);

/// Insert zero bits at the (ascending) `fixed_bits` positions of `idx`,
/// spreading the remaining bits around them: maps a free-index in
/// `0..2^(n-f)` to the full-register index whose fixed bits are all 0.
#[inline]
fn expand(mut idx: usize, fixed_bits: &[usize]) -> usize {
    for &b in fixed_bits {
        let low = idx & ((1usize << b) - 1);
        idx = ((idx >> b) << (b + 1)) | low;
    }
    idx
}

/// The specialized update a compiled operation dispatches to.
#[derive(Debug, Clone, PartialEq)]
enum Kernel {
    /// No amplitude changes (identity gate, any number of controls).
    Identity,
    /// Dense 2×2 unitary on one target bit (row-major `m`).
    SingleQubit { bit: usize, m: [Complex64; 4] },
    /// `diag(p0, p1)` on one target bit with `p0 ≠ 1` (Rz, global phase).
    Diagonal { bit: usize, phases: [Complex64; 2] },
    /// `diag(1, phase)` on one target bit — only bit-set amplitudes move.
    PhaseShift { bit: usize, phase: Complex64 },
    /// Pauli-X: swap the two amplitudes of each target pair.
    Flip { bit: usize },
    /// SWAP gate: exchange the two target bits.
    SwapBits { bit_a: usize, bit_b: usize },
    /// Diagonal on `k ≥ 2` target bits (produced by the fusion pass of
    /// [`crate::fuse`] and by diagonal `Gate::Unitary` matrices): one table
    /// lookup and multiply per amplitude, whatever the support size.
    DiagonalK {
        /// Target bit positions; bit `t` of the table index ↔ `bits[t]`.
        bits: Vec<usize>,
        /// `2^k` diagonal entries.
        table: Vec<Complex64>,
    },
    /// Dense `2^k × 2^k` unitary on `k` target bits.
    Generic {
        /// Row-major flattened gate matrix (the scalar kernel's layout).
        flat: Vec<Complex64>,
        /// Column-major real plane of the matrix (`col_re[c·dim + r]`), for
        /// the SIMD subspace matvec of [`crate::simd`].
        col_re: Vec<f64>,
        /// Column-major imaginary plane (same layout as `col_re`).
        col_im: Vec<f64>,
        /// `offsets[j]` = OR of the target-bit masks selected by sub-index `j`
        /// (target order gives bit significance, matching `Gate::matrix()`).
        offsets: Vec<usize>,
        /// Subspace dimension `2^k`.
        dim: usize,
    },
}

impl Kernel {
    /// Approximate complex multiplies per free-index iteration, used to
    /// weight [`CompiledOp::work_estimate`].
    fn unit_cost(&self) -> usize {
        match self {
            Kernel::Identity => 0,
            Kernel::Diagonal { .. }
            | Kernel::DiagonalK { .. }
            | Kernel::PhaseShift { .. }
            | Kernel::Flip { .. }
            | Kernel::SwapBits { .. } => 1,
            Kernel::SingleQubit { .. } => 4,
            Kernel::Generic { dim, .. } => dim * dim,
        }
    }
}

/// An [`Operation`] compiled for a fixed register size: control mask, fixed
/// bit positions and kernel selected once, so application is pure arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledOp {
    /// Register width the op was compiled for; [`CompiledOp::apply`] rejects
    /// amplitude buffers smaller than `2^num_qubits` up front.  Without the
    /// check a short buffer would be silently half-processed: the
    /// `chunks_exact_mut` sweeps skip it whenever the target bit lies past
    /// its end, and the indexed loops fail part-way through.
    num_qubits: usize,
    /// OR of the control bits; an index participates iff it contains the mask.
    control_mask: usize,
    /// Bit positions that are *fixed* during enumeration (controls plus the
    /// bits the kernel pins), ascending — the free indices are expanded
    /// around these.
    fixed_bits: Vec<usize>,
    kernel: Kernel,
}

impl CompiledOp {
    /// Compile one operation for an `num_qubits`-wide register.
    pub fn compile(op: &Operation, num_qubits: usize) -> Self {
        assert!(
            op.max_qubit() < num_qubits,
            "operation touches qubit {} outside the register",
            op.max_qubit()
        );
        let control_mask: usize = op.controls.iter().map(|&q| 1usize << q).sum();
        let sorted_with = |extra: &[usize]| -> Vec<usize> {
            let mut bits: Vec<usize> = op.controls.iter().chain(extra).copied().collect();
            bits.sort_unstable();
            bits
        };

        let single =
            |bit: usize, m: [Complex64; 4]| (sorted_with(&[bit]), Kernel::SingleQubit { bit, m });
        let (fixed_bits, kernel) = match &op.gate {
            Gate::I => (Vec::new(), Kernel::Identity),
            Gate::X => {
                let bit = op.targets[0];
                (sorted_with(&[bit]), Kernel::Flip { bit })
            }
            // Exact phase constants, matching `Gate::matrix()` bit-for-bit
            // (from_polar(1.0, PI) would give -1 + 1.2e-16i and make Z·Z
            // deviate from the identity).
            Gate::Z => phase_shift(op, Complex64::new(-1.0, 0.0), &sorted_with),
            Gate::S => phase_shift(op, Complex64::new(0.0, 1.0), &sorted_with),
            Gate::Sdg => phase_shift(op, Complex64::new(0.0, -1.0), &sorted_with),
            Gate::T => phase_shift(
                op,
                Complex64::new(
                    std::f64::consts::FRAC_1_SQRT_2,
                    std::f64::consts::FRAC_1_SQRT_2,
                ),
                &sorted_with,
            ),
            Gate::Tdg => phase_shift(
                op,
                Complex64::new(
                    std::f64::consts::FRAC_1_SQRT_2,
                    -std::f64::consts::FRAC_1_SQRT_2,
                ),
                &sorted_with,
            ),
            Gate::Phase(phi) => phase_shift(op, Complex64::from_polar(1.0, *phi), &sorted_with),
            Gate::Rz(theta) => {
                let bit = op.targets[0];
                let phases = [
                    Complex64::from_polar(1.0, -theta / 2.0),
                    Complex64::from_polar(1.0, theta / 2.0),
                ];
                (sorted_with(&[]), Kernel::Diagonal { bit, phases })
            }
            Gate::GlobalPhase(phi) => {
                let bit = op.targets[0];
                let p = Complex64::from_polar(1.0, *phi);
                (
                    sorted_with(&[]),
                    Kernel::Diagonal {
                        bit,
                        phases: [p, p],
                    },
                )
            }
            Gate::Swap => {
                let (a, b) = (op.targets[0], op.targets[1]);
                (
                    sorted_with(&[a, b]),
                    Kernel::SwapBits { bit_a: a, bit_b: b },
                )
            }
            Gate::H | Gate::Y | Gate::Rx(_) | Gate::Ry(_) => {
                let m = op.gate.matrix();
                single(op.targets[0], [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]])
            }
            // Dense unitaries are classified by *value*: exactly-diagonal
            // matrices (the fusion pass emits these for merged phase chains)
            // go to the one-multiply-per-amplitude diagonal kernels instead
            // of the dense paths.
            Gate::Unitary(m) if op.targets.len() == 1 => {
                let bit = op.targets[0];
                let one = Complex64::new(1.0, 0.0);
                match m.diagonal() {
                    Some(d) if d[0] == one && d[1] == one => (Vec::new(), Kernel::Identity),
                    Some(d) if d[0] == one => {
                        (sorted_with(&[bit]), Kernel::PhaseShift { bit, phase: d[1] })
                    }
                    Some(d) => (
                        sorted_with(&[]),
                        Kernel::Diagonal {
                            bit,
                            phases: [d[0], d[1]],
                        },
                    ),
                    None => single(bit, [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]),
                }
            }
            Gate::Unitary(m) => {
                let k = op.targets.len();
                let dim = 1usize << k;
                debug_assert_eq!(m.nrows(), dim);
                match m.diagonal() {
                    Some(d) if d.iter().all(|&x| x == Complex64::new(1.0, 0.0)) => {
                        (Vec::new(), Kernel::Identity)
                    }
                    Some(d) => (
                        sorted_with(&[]),
                        Kernel::DiagonalK {
                            bits: op.targets.clone(),
                            table: d,
                        },
                    ),
                    None => {
                        let flat: Vec<Complex64> = (0..dim)
                            .flat_map(|r| (0..dim).map(move |c| m[(r, c)]))
                            .collect();
                        let col_re: Vec<f64> = (0..dim)
                            .flat_map(|c| (0..dim).map(move |r| m[(r, c)].re))
                            .collect();
                        let col_im: Vec<f64> = (0..dim)
                            .flat_map(|c| (0..dim).map(move |r| m[(r, c)].im))
                            .collect();
                        let offsets: Vec<usize> = (0..dim)
                            .map(|j| {
                                op.targets
                                    .iter()
                                    .enumerate()
                                    .filter(|(t, _)| j & (1 << t) != 0)
                                    .map(|(_, &q)| 1usize << q)
                                    .sum()
                            })
                            .collect();
                        (
                            sorted_with(&op.targets),
                            Kernel::Generic {
                                flat,
                                col_re,
                                col_im,
                                offsets,
                                dim,
                            },
                        )
                    }
                }
            }
        };
        CompiledOp {
            num_qubits,
            control_mask,
            fixed_bits,
            kernel,
        }
    }

    /// Number of free indices this op enumerates on an `amps.len()`-sized
    /// register (the per-application loop count).
    fn free_count(&self, len: usize) -> usize {
        len >> self.fixed_bits.len()
    }

    /// Approximate complex multiplies of one application to an `len`-amplitude
    /// register: the free-index count weighted by the kernel's per-iteration
    /// cost.  [`CircuitStats`](crate::fuse::CircuitStats) reports it, and
    /// `QuantumExecutor::run_batch` compares it against
    /// [`PARALLEL_WORK_THRESHOLD`] to decide whether a batch fans out.
    pub fn work_estimate(&self, len: usize) -> usize {
        self.free_count(len).saturating_mul(self.kernel.unit_cost())
    }

    /// Apply the compiled operation to `amps` in place.  `scratch` is the
    /// reusable gather buffer for the generic kernel (untouched otherwise).
    ///
    /// `amps` must be a power-of-two length of at least `2^num_qubits` (a
    /// longer buffer is a larger register whose extra qubits the op treats as
    /// free); anything shorter is rejected before any kernel runs, in release
    /// builds too.
    pub fn apply(&self, amps: &mut [Complex64], scratch: &mut Vec<Complex64>) {
        assert!(
            amps.len().is_power_of_two() && amps.len() >= (1usize << self.num_qubits),
            "operation compiled for {} qubits applied to {} amplitudes",
            self.num_qubits,
            amps.len()
        );
        let count = self.free_count(amps.len());
        let cm = self.control_mask;
        let fixed = self.fixed_bits.as_slice();
        // Uncontrolled single-target kernels walk the `2^(bit+1)`-sized
        // blocks with plain slice loops: no per-index bit expansion,
        // contiguous access in both block halves, and the compiler can
        // vectorise.  Controlled kernels take a contiguous-run path when the
        // SIMD bodies are on, and the expand-based loop otherwise (the
        // scalar oracle).
        match &self.kernel {
            Kernel::Identity => {}
            Kernel::SingleQubit { bit, m } => {
                let (bitmask, m) = (1usize << bit, *m);
                if cm == 0 {
                    if simd::active() {
                        simd::single_qubit(amps, *bit, &m);
                        return;
                    }
                    for block in amps.chunks_exact_mut(2 * bitmask) {
                        let (lo, hi) = block.split_at_mut(bitmask);
                        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                            let (x0, x1) = (*a0, *a1);
                            *a0 = m[0] * x0 + m[1] * x1;
                            *a1 = m[2] * x0 + m[3] * x1;
                        }
                    }
                    return;
                }
                // Controlled run path: bits below the lowest fixed bit pass
                // through `expand` untouched, so each step of `run` free
                // indices is a contiguous amplitude run whose pair run lives
                // `bitmask` above — two slice sweeps instead of per-index
                // bit expansion.  Same per-pair arithmetic, bit-identical.
                if simd::active() && fixed[0] >= 1 {
                    let run = 1usize << fixed[0];
                    let mut p = 0;
                    while p < count {
                        let base = expand(p, fixed) | cm;
                        let (lo, hi) = amps.split_at_mut(base | bitmask);
                        simd::single_qubit_runs(&mut lo[base..base + run], &mut hi[..run], &m);
                        p += run;
                    }
                    return;
                }
                for p in 0..count {
                    let i0 = expand(p, fixed) | cm;
                    let i1 = i0 | bitmask;
                    let (a0, a1) = (amps[i0], amps[i1]);
                    amps[i0] = m[0] * a0 + m[1] * a1;
                    amps[i1] = m[2] * a0 + m[3] * a1;
                }
            }
            Kernel::Diagonal { bit, phases } => {
                let (bit, phases) = (*bit, *phases);
                if cm == 0 {
                    // Like `PhaseShift`, the uncontrolled diagonal sweep is
                    // two contiguous scale loops LLVM already vectorizes at
                    // full width — the explicit `simd::diagonal` body
                    // measured no faster, so the scalar loop stays.
                    let stride = 1usize << bit;
                    for block in amps.chunks_exact_mut(2 * stride) {
                        let (lo, hi) = block.split_at_mut(stride);
                        for a in lo {
                            *a *= phases[0];
                        }
                        for a in hi {
                            *a *= phases[1];
                        }
                    }
                    return;
                }
                // Controlled run path (see `SingleQubit`): the target bit is
                // free, so within a contiguous run the phase either follows
                // the uncontrolled diagonal pattern (`bit` below the run
                // width) or is constant (`bit` above it).
                if simd::active() && !fixed.is_empty() && fixed[0] >= 1 {
                    let run = 1usize << fixed[0];
                    let mut p = 0;
                    while p < count {
                        let start = expand(p, fixed) | cm;
                        let chunk = &mut amps[start..start + run];
                        if bit < fixed[0] {
                            simd::diagonal(chunk, bit, &phases);
                        } else {
                            simd::scale_run(chunk, phases[(start >> bit) & 1]);
                        }
                        p += run;
                    }
                    return;
                }
                for p in 0..count {
                    // The target bit is free here, so each `p` maps to
                    // exactly one amplitude index.
                    let i = expand(p, fixed) | cm;
                    amps[i] *= phases[(i >> bit) & 1];
                }
            }
            Kernel::PhaseShift { bit, phase } => {
                let (bitmask, phase) = (1usize << bit, *phase);
                if cm == 0 {
                    // No explicit SIMD body here: this contiguous
                    // multiply-the-hi-half loop is exactly the shape LLVM
                    // auto-vectorizes, and the measured `simd::phase_shift`
                    // variant was *slower* (see `simd.rs` module docs) — the
                    // dispatcher keeps whichever body wins.
                    for block in amps.chunks_exact_mut(2 * bitmask) {
                        for a in &mut block[bitmask..] {
                            *a *= phase;
                        }
                    }
                    return;
                }
                // Controlled run path (see `SingleQubit`).  No bit-0 caveat
                // here: every amplitude of a run is multiplied (no identity
                // lanes), the same arithmetic as the scalar expand loop.
                if simd::active() && fixed[0] >= 1 {
                    let run = 1usize << fixed[0];
                    let mut p = 0;
                    while p < count {
                        let start = expand(p, fixed) | cm | bitmask;
                        simd::scale_run(&mut amps[start..start + run], phase);
                        p += run;
                    }
                    return;
                }
                for p in 0..count {
                    amps[expand(p, fixed) | cm | bitmask] *= phase;
                }
            }
            Kernel::Flip { bit } => {
                let bitmask = 1usize << bit;
                if cm == 0 {
                    for block in amps.chunks_exact_mut(2 * bitmask) {
                        let (lo, hi) = block.split_at_mut(bitmask);
                        lo.swap_with_slice(hi);
                    }
                    return;
                }
                // Controlled run path (see `SingleQubit`): swap whole
                // contiguous runs at memcpy speed — a pure permutation, so
                // gating it on the SIMD toggle only changes speed, and the
                // scalar expand loop below stays the oracle.
                if simd::active() && fixed[0] >= 1 {
                    let run = 1usize << fixed[0];
                    let mut p = 0;
                    while p < count {
                        let base = expand(p, fixed) | cm;
                        let (lo, hi) = amps.split_at_mut(base | bitmask);
                        lo[base..base + run].swap_with_slice(&mut hi[..run]);
                        p += run;
                    }
                    return;
                }
                for p in 0..count {
                    let i0 = expand(p, fixed) | cm;
                    amps.swap(i0, i0 | bitmask);
                }
            }
            Kernel::DiagonalK { bits, table } => {
                let (bits, table) = (bits.as_slice(), table.as_slice());
                let gather = |i: usize| -> usize {
                    bits.iter()
                        .enumerate()
                        .fold(0usize, |acc, (t, &b)| acc | (((i >> b) & 1) << t))
                };
                if cm == 0 {
                    if simd::active() {
                        simd::diagonal_k(amps, bits, table);
                        return;
                    }
                    for (i, a) in amps.iter_mut().enumerate() {
                        *a *= table[gather(i)];
                    }
                    return;
                }
                for p in 0..count {
                    // Every target bit is free, so each `p` maps to exactly
                    // one amplitude index.
                    let i = expand(p, fixed) | cm;
                    amps[i] *= table[gather(i)];
                }
            }
            Kernel::SwapBits { bit_a, bit_b } => {
                let (ma, mb) = (1usize << bit_a, 1usize << bit_b);
                // Run path (see `Flip`): both target bits are fixed, so the
                // swapped pair of each step is a pair of disjoint contiguous
                // runs — exchanged at memcpy speed.  A pure permutation, so
                // gating it on the SIMD toggle only changes speed and the
                // expand loop below stays the oracle.
                if simd::active() && fixed[0] >= 1 {
                    let run = 1usize << fixed[0];
                    let mut p = 0;
                    while p < count {
                        let base = expand(p, fixed) | cm;
                        let (ia, ib) = (base | ma, base | mb);
                        let (lo_i, hi_i) = (ia.min(ib), ia.max(ib));
                        let (lo, hi) = amps.split_at_mut(hi_i);
                        lo[lo_i..lo_i + run].swap_with_slice(&mut hi[..run]);
                        p += run;
                    }
                    return;
                }
                for p in 0..count {
                    let base = expand(p, fixed) | cm;
                    amps.swap(base | ma, base | mb);
                }
            }
            Kernel::Generic {
                flat,
                col_re,
                col_im,
                offsets,
                dim,
            } => {
                let dim = *dim;
                // The SIMD subspace matvec works for controlled ops too (the
                // gather/scatter around it is index arithmetic either way),
                // so it is gated only on the thread-local toggle.
                let use_simd = simd::active();
                scratch.resize(dim, ZERO);
                let mut out = Vec::new();
                if use_simd {
                    out.resize(dim, ZERO);
                }
                for p in 0..count {
                    let base = expand(p, fixed) | cm;
                    for (s, &off) in scratch.iter_mut().zip(offsets) {
                        *s = amps[base | off];
                    }
                    if use_simd {
                        simd::generic_matvec(col_re, col_im, dim, scratch, &mut out);
                        for (o, &off) in out.iter().zip(offsets) {
                            amps[base | off] = *o;
                        }
                    } else {
                        for (r, &off) in offsets.iter().enumerate() {
                            let row = &flat[r * dim..(r + 1) * dim];
                            let mut acc = ZERO;
                            for (mrc, s) in row.iter().zip(scratch.iter()) {
                                acc += mrc * s;
                            }
                            amps[base | off] = acc;
                        }
                    }
                }
            }
        }
    }
}

/// [`CompiledOp::work_estimate`] derived from the gate classification alone
/// (no matrix flattening or offset tables), for cheap stats pricing of raw
/// circuits in [`CompiledCircuit::optimized`].  Mirrors the kernel
/// dispatch of [`CompiledOp::compile`] case for case.
fn op_sweep_work(op: &Operation, len: usize) -> usize {
    let c = op.controls.len();
    let one = Complex64::new(1.0, 0.0);
    match &op.gate {
        Gate::I => 0,
        Gate::X | Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Phase(_) => {
            len >> (c + 1)
        }
        Gate::Rz(_) | Gate::GlobalPhase(_) => len >> c,
        Gate::Swap => len >> (c + 2),
        Gate::H | Gate::Y | Gate::Rx(_) | Gate::Ry(_) => (len >> (c + 1)).saturating_mul(4),
        Gate::Unitary(m) => {
            let k = op.targets.len();
            match m.diagonal() {
                Some(d) if d.iter().all(|&x| x == one) => 0,
                Some(d) if k == 1 && d[0] == one => len >> (c + 1),
                Some(_) => len >> c,
                None if k == 1 => (len >> (c + 1)).saturating_mul(4),
                None => ((len >> c) >> k).saturating_mul(1usize << (2 * k)),
            }
        }
    }
}

fn phase_shift(
    op: &Operation,
    phase: Complex64,
    sorted_with: &impl Fn(&[usize]) -> Vec<usize>,
) -> (Vec<usize>, Kernel) {
    let bit = op.targets[0];
    (sorted_with(&[bit]), Kernel::PhaseShift { bit, phase })
}

/// A circuit compiled once for repeated application.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    num_qubits: usize,
    ops: Vec<CompiledOp>,
}

impl CompiledCircuit {
    /// Compile every operation of `circuit` for its own register width.
    pub fn compile(circuit: &Circuit) -> Self {
        Self::compile_for(circuit, circuit.num_qubits())
    }

    /// Run the optimizer pass of [`crate::fuse`] (gate fusion + diagonal
    /// merging) for a register of `num_qubits` and compile the rewritten
    /// circuit — one compilation, observable through
    /// [`circuit_compile_count`] exactly like [`CompiledCircuit::compile`].
    /// It fuses exactly as [`OptLevel::Fuse`](crate::executor::OptLevel)
    /// does.  Returns the compiled form, the rewritten [`Circuit`] (so a
    /// caller that persists the fused op list, like the executor's
    /// fused-circuit cache, does not re-run the optimizer) and the
    /// before/after [`CircuitStats`](crate::fuse::CircuitStats) report.
    ///
    /// The optimized form implements the same unitary to ≲ 1e-13 (fused ops
    /// are floating-point matrix products); [`CompiledCircuit::compile`] on
    /// the raw circuit remains the unoptimized equivalence oracle.
    pub fn optimized(
        circuit: &Circuit,
        num_qubits: usize,
    ) -> (Self, Circuit, crate::fuse::CircuitStats) {
        let fused = crate::fuse::optimize_circuit_for(circuit, num_qubits);
        let compiled = Self::compile_for(&fused, num_qubits);
        let len = 1usize << num_qubits;
        // Shape-based pricing of the raw circuit for the stats report: the
        // same quantity `CompiledOp::work_estimate` would give, derived from
        // the gate classification alone so construction does not pay a full
        // second compile (no matrix flattening or offset tables).
        let raw_sweep_work = circuit
            .operations()
            .iter()
            .map(|op| op_sweep_work(op, len))
            .fold(0usize, |a, w| a.saturating_add(w));
        let stats = crate::fuse::CircuitStats {
            raw_ops: circuit.len(),
            fused_ops: compiled.len(),
            raw_sweep_work,
            fused_sweep_work: compiled.work_estimate(len),
        };
        (compiled, fused, stats)
    }

    /// Compile for a register of `num_qubits` (≥ the circuit's width), so the
    /// compiled form can run on a larger register directly.
    pub fn compile_for(circuit: &Circuit, num_qubits: usize) -> Self {
        assert!(
            circuit.num_qubits() <= num_qubits,
            "circuit needs {} qubits, register has {}",
            circuit.num_qubits(),
            num_qubits
        );
        CIRCUIT_COMPILES.with(|c| c.set(c.get() + 1));
        CompiledCircuit {
            num_qubits,
            ops: circuit
                .operations()
                .iter()
                .map(|op| CompiledOp::compile(op, num_qubits))
                .collect(),
        }
    }

    /// Register width this circuit was compiled for.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of compiled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when there are no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Approximate complex multiplies of one full application to an
    /// `len`-amplitude register (sum of every operation's
    /// [`CompiledOp::work_estimate`]).
    pub fn work_estimate(&self, len: usize) -> usize {
        self.ops
            .iter()
            .map(|op| op.work_estimate(len))
            .fold(0usize, |a, w| a.saturating_add(w))
    }

    /// Apply all compiled operations to `state` in order, in place.
    pub fn apply(&self, state: &mut StateVector) {
        assert!(
            self.num_qubits <= state.num_qubits(),
            "compiled circuit needs {} qubits, register has {}",
            self.num_qubits,
            state.num_qubits()
        );
        let (amps, scratch) = state.amps_and_scratch();
        for op in &self.ops {
            op.apply(amps, scratch);
        }
    }
}

pub mod reference {
    //! The seed's generic gate-application path, retained verbatim (modulo
    //! being made sequential-only) as the correctness oracle for the kernel
    //! property tests and as the baseline `bench_json` measures the
    //! specialized kernels against.  It re-materializes `Gate::matrix()` on
    //! every application, visits all `2^n` output amplitudes per gate and
    //! allocates a fresh output vector — exactly the costs the compiled
    //! kernels remove.

    use crate::circuit::{Circuit, Operation};
    use crate::state::StateVector;
    use num_complex::Complex64;

    /// Apply one operation by rebuilding the full amplitude vector.
    pub fn apply_op(state: &mut StateVector, op: &Operation) {
        assert!(
            op.max_qubit() < state.num_qubits(),
            "operation touches qubit {} outside the register",
            op.max_qubit()
        );
        let matrix = op.gate.matrix();
        let k = op.targets.len();
        let dim = 1usize << k;
        debug_assert_eq!(matrix.nrows(), dim);

        let control_mask: usize = op.controls.iter().map(|&q| 1usize << q).sum();
        let target_bits: Vec<usize> = op.targets.iter().map(|&q| 1usize << q).collect();

        // Flatten the gate matrix for cheap indexed access.
        let flat: Vec<Complex64> = (0..dim)
            .flat_map(|r| (0..dim).map(move |cidx| (r, cidx)))
            .map(|(r, cidx)| matrix[(r, cidx)])
            .collect();

        let old = state.amplitudes();
        let compute = |i: usize| -> Complex64 {
            // Controls not satisfied: amplitude unchanged.
            if i & control_mask != control_mask {
                return old[i];
            }
            // Row index within the gate's subspace = the target bits of i.
            let mut row = 0usize;
            for (t, &bit) in target_bits.iter().enumerate() {
                if i & bit != 0 {
                    row |= 1 << t;
                }
            }
            // Base index with all target bits cleared.
            let mut base = i;
            for &bit in &target_bits {
                base &= !bit;
            }
            let mut acc = Complex64::new(0.0, 0.0);
            for col in 0..dim {
                let m = flat[row * dim + col];
                if m == Complex64::new(0.0, 0.0) {
                    continue;
                }
                // Source index: base with target bits set according to col.
                let mut src = base;
                for (t, &bit) in target_bits.iter().enumerate() {
                    if col & (1 << t) != 0 {
                        src |= bit;
                    }
                }
                acc += m * old[src];
            }
            acc
        };

        let new_amps: Vec<Complex64> = (0..old.len()).map(compute).collect();
        state.set_amplitudes(new_amps);
    }

    /// Apply a whole circuit through the generic per-gate path.
    pub fn apply_circuit(state: &mut StateVector, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= state.num_qubits(),
            "circuit needs {} qubits, register has {}",
            circuit.num_qubits(),
            state.num_qubits()
        );
        for op in circuit.operations() {
            apply_op(state, op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmatrix::CMatrix;

    fn apply_both(circ: &Circuit) -> (StateVector, StateVector) {
        let mut fast = StateVector::zero_state(circ.num_qubits());
        fast.apply_circuit(circ);
        let mut slow = StateVector::zero_state(circ.num_qubits());
        reference::apply_circuit(&mut slow, circ);
        (fast, slow)
    }

    fn assert_states_close(a: &StateVector, b: &StateVector) {
        let diff: f64 = a
            .amplitudes()
            .iter()
            .zip(b.amplitudes())
            .map(|(x, y)| (x - y).norm())
            .fold(0.0, f64::max);
        assert!(diff < 1e-12, "kernel vs reference max diff {diff}");
    }

    #[test]
    fn expand_inserts_zero_bits() {
        // fixed bits {1, 3}: free index bits map to positions 0, 2, 4, 5, ...
        assert_eq!(expand(0b000, &[1, 3]), 0b00000);
        assert_eq!(expand(0b001, &[1, 3]), 0b00001);
        assert_eq!(expand(0b010, &[1, 3]), 0b00100);
        assert_eq!(expand(0b011, &[1, 3]), 0b00101);
        assert_eq!(expand(0b100, &[1, 3]), 0b10000);
        assert_eq!(expand(0b111, &[1, 3]), 0b10101);
    }

    #[test]
    fn every_named_gate_matches_reference() {
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::I, vec![1]),
            (Gate::X, vec![0]),
            (Gate::Y, vec![2]),
            (Gate::Z, vec![1]),
            (Gate::H, vec![0]),
            (Gate::S, vec![2]),
            (Gate::Sdg, vec![0]),
            (Gate::T, vec![1]),
            (Gate::Tdg, vec![2]),
            (Gate::Rx(0.37), vec![0]),
            (Gate::Ry(-1.2), vec![1]),
            (Gate::Rz(2.6), vec![2]),
            (Gate::Phase(0.9), vec![0]),
            (Gate::GlobalPhase(1.4), vec![1]),
            (Gate::Swap, vec![0, 2]),
        ];
        for (gate, targets) in gates {
            let mut circ = Circuit::new(3);
            // A little entanglement first so amplitudes are non-trivial.
            circ.h(0).cx(0, 1).ry(2, 0.4);
            circ.gate(gate.clone(), &targets);
            let (fast, slow) = apply_both(&circ);
            assert_states_close(&fast, &slow);
        }
    }

    #[test]
    fn controlled_gates_match_reference() {
        let cases: Vec<(Gate, Vec<usize>, Vec<usize>)> = vec![
            (Gate::X, vec![0], vec![2]),
            (Gate::X, vec![1], vec![0, 3]),
            (Gate::Z, vec![3], vec![1]),
            (Gate::Ry(0.7), vec![2], vec![0]),
            (Gate::Rz(-0.9), vec![0], vec![1, 2]),
            (Gate::Phase(1.1), vec![1], vec![3]),
            (Gate::Swap, vec![0, 3], vec![1]),
            (Gate::GlobalPhase(0.5), vec![2], vec![0]),
            (Gate::I, vec![1], vec![2]),
        ];
        for (gate, targets, controls) in cases {
            let mut circ = Circuit::new(4);
            circ.h(0).h(1).h(2).h(3).cx(0, 2).t(3);
            circ.controlled_gate(gate, &targets, &controls);
            let (fast, slow) = apply_both(&circ);
            assert_states_close(&fast, &slow);
        }
    }

    #[test]
    fn dense_multi_qubit_unitary_matches_reference() {
        // 2-qubit unitary: X⊗X composed with a phase, on non-adjacent targets.
        let x = Gate::X.matrix();
        let xx = x.kron(&x);
        let u = Gate::Unitary(CMatrix::from_fn(4, 4, |i, j| {
            xx[(i, j)] * Complex64::from_polar(1.0, 0.3)
        }));
        let mut circ = Circuit::new(4);
        circ.h(0).cx(0, 1).ry(3, 0.8);
        circ.gate(u.clone(), &[1, 3]);
        circ.controlled_gate(u, &[2, 0], &[1]);
        let (fast, slow) = apply_both(&circ);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn compiled_circuit_reuse_matches_fresh_application() {
        let mut circ = Circuit::new(3);
        circ.h(0).cry(0, 1, 0.9).ccx(0, 1, 2).rz(2, -0.4).swap(0, 2);
        let compiled = CompiledCircuit::compile(&circ);
        assert_eq!(compiled.len(), circ.len());
        for col in 0..8 {
            let mut via_compiled = StateVector::basis_state(3, col);
            compiled.apply(&mut via_compiled);
            let mut via_state = StateVector::basis_state(3, col);
            via_state.apply_circuit(&circ);
            assert_states_close(&via_compiled, &via_state);
        }
    }

    #[test]
    fn compile_for_larger_register() {
        let mut circ = Circuit::new(2);
        circ.h(0).cx(0, 1);
        let compiled = CompiledCircuit::compile_for(&circ, 4);
        let mut sv = StateVector::zero_state(4);
        compiled.apply(&mut sv);
        assert!((sv.probability(0) - 0.5).abs() < 1e-14);
        assert!((sv.probability(3) - 0.5).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "compiled for 16 qubits")]
    fn apply_rejects_short_amplitude_buffers() {
        // A buffer shorter than the compiled register must be rejected before
        // any kernel runs, naming the mismatch: without the check this
        // controlled X would fail on an out-of-range index, and an
        // uncontrolled sweep would silently skip the whole buffer.
        let op = CompiledOp::compile(&Operation::new(Gate::X, vec![0], vec![15]), 16);
        let mut amps = vec![ZERO; 4];
        let mut scratch = Vec::new();
        op.apply(&mut amps, &mut scratch);
    }

    #[test]
    fn clifford_phase_gates_are_exact() {
        // Z, S and their adjoints use the exact matrix constants (not
        // from_polar), so Z·Z and S·S† restore amplitudes bit-for-bit.
        let mut circ = Circuit::new(2);
        circ.h(0).cx(0, 1).ry(1, 0.3);
        let start = StateVector::run(&circ);

        let mut zz = start.clone();
        let mut pair = Circuit::new(2);
        pair.z(0).z(0).s(1);
        pair.gate(Gate::Sdg, &[1]);
        zz.apply_circuit(&pair);
        assert_eq!(zz.amplitudes(), start.amplitudes());
    }

    #[test]
    fn kernel_classification() {
        let n = 4;
        let compile = |gate: Gate, targets: &[usize]| {
            CompiledOp::compile(&Operation::new(gate, targets.to_vec(), vec![]), n)
        };
        assert_eq!(compile(Gate::I, &[0]).kernel, Kernel::Identity);
        assert!(matches!(
            compile(Gate::X, &[1]).kernel,
            Kernel::Flip { bit: 1 }
        ));
        assert!(matches!(
            compile(Gate::Z, &[2]).kernel,
            Kernel::PhaseShift { bit: 2, .. }
        ));
        assert!(matches!(
            compile(Gate::Rz(0.1), &[0]).kernel,
            Kernel::Diagonal { bit: 0, .. }
        ));
        assert!(matches!(
            compile(Gate::H, &[3]).kernel,
            Kernel::SingleQubit { bit: 3, .. }
        ));
        assert!(matches!(
            compile(Gate::Swap, &[1, 3]).kernel,
            Kernel::SwapBits { bit_a: 1, bit_b: 3 }
        ));
        let h = Gate::H.matrix();
        assert!(matches!(
            compile(Gate::Unitary(h.kron(&h)), &[0, 2]).kernel,
            Kernel::Generic { dim: 4, .. }
        ));
        // 1-qubit dense unitaries use the pair kernel, not the generic one.
        assert!(matches!(
            compile(Gate::Unitary(Gate::H.matrix()), &[1]).kernel,
            Kernel::SingleQubit { bit: 1, .. }
        ));
        // Unitary matrices that are exactly diagonal route to the diagonal
        // kernels — identity, phase-shift, Rz-like, and the k-qubit table.
        assert_eq!(
            compile(Gate::Unitary(CMatrix::identity(4)), &[0, 2]).kernel,
            Kernel::Identity
        );
        assert_eq!(
            compile(Gate::Unitary(CMatrix::identity(2)), &[1]).kernel,
            Kernel::Identity
        );
        assert!(matches!(
            compile(Gate::Unitary(Gate::Phase(0.3).matrix()), &[1]).kernel,
            Kernel::PhaseShift { bit: 1, .. }
        ));
        assert!(matches!(
            compile(Gate::Unitary(Gate::Rz(0.3).matrix()), &[2]).kernel,
            Kernel::Diagonal { bit: 2, .. }
        ));
        let cz_like = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                Complex64::from_polar(1.0, 0.1 * i as f64)
            } else {
                Complex64::new(0.0, 0.0)
            }
        });
        assert!(matches!(
            compile(Gate::Unitary(cz_like), &[1, 3]).kernel,
            Kernel::DiagonalK { .. }
        ));
    }

    #[test]
    fn op_sweep_work_matches_compiled_work_estimate() {
        // The shape-based pricing used by `optimized` must agree with
        // the real compiled op, case for case, controls included.
        let n = 6;
        let len = 1usize << n;
        let diag = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                Complex64::from_polar(1.0, 0.2 * i as f64)
            } else {
                Complex64::new(0.0, 0.0)
            }
        });
        let h = Gate::H.matrix();
        let cases: Vec<Operation> = vec![
            Operation::new(Gate::I, vec![0], vec![]),
            Operation::new(Gate::X, vec![1], vec![3]),
            Operation::new(Gate::T, vec![2], vec![]),
            Operation::new(Gate::Rz(0.4), vec![0], vec![4, 5]),
            Operation::new(Gate::GlobalPhase(0.3), vec![1], vec![]),
            Operation::new(Gate::Swap, vec![0, 3], vec![1]),
            Operation::new(Gate::H, vec![2], vec![0]),
            Operation::new(Gate::Unitary(Gate::Phase(0.7).matrix()), vec![3], vec![]),
            Operation::new(Gate::Unitary(Gate::Rz(0.7).matrix()), vec![3], vec![1]),
            Operation::new(Gate::Unitary(CMatrix::identity(4)), vec![0, 1], vec![]),
            Operation::new(Gate::Unitary(diag), vec![2, 4], vec![0]),
            Operation::new(Gate::Unitary(h.kron(&h)), vec![1, 5], vec![2]),
            Operation::new(Gate::Unitary(h.clone()), vec![4], vec![]),
        ];
        for op in &cases {
            assert_eq!(
                op_sweep_work(op, len),
                CompiledOp::compile(op, n).work_estimate(len),
                "pricing mismatch for {:?} on {:?}/{:?}",
                op.gate.name(),
                op.targets,
                op.controls
            );
        }
    }

    #[test]
    fn diagonal_k_kernel_matches_reference() {
        // A controlled 2-qubit diagonal through the DiagonalK kernel vs the
        // generic reference path.
        let table: Vec<Complex64> = (0..4)
            .map(|i| Complex64::from_polar(1.0, 0.4 * i as f64 - 0.7))
            .collect();
        let diag = CMatrix::from_fn(4, 4, |i, j| {
            if i == j {
                table[i]
            } else {
                Complex64::new(0.0, 0.0)
            }
        });
        let mut circ = Circuit::new(4);
        circ.h(0).h(1).h(2).h(3).cx(0, 2);
        circ.gate(Gate::Unitary(diag.clone()), &[2, 0]);
        circ.controlled_gate(Gate::Unitary(diag), &[3, 1], &[0]);
        let (fast, slow) = apply_both(&circ);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn optimized_compiles_once_and_matches_compile() {
        let mut circ = Circuit::new(3);
        circ.h(0).rz(0, 0.4).t(0).cx(0, 1).x(2).phase(2, 1.1).x(2);
        let before = circuit_compile_count();
        let (optimized, _, stats) = CompiledCircuit::optimized(&circ, 3);
        assert_eq!(
            circuit_compile_count(),
            before + 1,
            "optimization + compilation counts as one circuit compile"
        );
        assert_eq!(stats.raw_ops, circ.len());
        assert_eq!(stats.fused_ops, optimized.len());
        assert!(stats.fused_ops < stats.raw_ops);
        // Mask-densifying fusion may trade sweep work for fewer dispatches
        // on tiny registers; the optimizer's acceptance gate bounds the
        // trade by the per-op overhead it saves.
        assert!(
            stats.fused_sweep_work
                <= stats.raw_sweep_work + (stats.raw_ops - stats.fused_ops) * 512
        );
        for col in 0..8 {
            let mut a = StateVector::basis_state(3, col);
            optimized.apply(&mut a);
            let mut b = StateVector::basis_state(3, col);
            b.apply_circuit(&circ);
            assert_states_close(&a, &b);
        }
    }
}
