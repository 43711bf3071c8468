//! Circuit-optimizer pass: gate fusion and diagonal merging.
//!
//! The compiled kernels of [`crate::kernels`] make each *individual* gate as
//! cheap as it can be, but a circuit of `m` gates still performs `m` sweeps
//! over the `2^n`-amplitude register.  This module rewrites the operation
//! list *before* compilation so repeated executions pay fewer, denser sweeps:
//!
//! 1. **Dense fusion.**  Runs of adjacent gates whose combined *target*
//!    support stays within [`FusionOptions::max_fused_qubits`] qubits
//!    (default 3) are fused into one dense operation by multiplying their
//!    embedded matrices.  Fusion is always allowed — regardless of the cap —
//!    when one operation's targets are a subset of the other's, because the
//!    fused op is no larger than what the circuit already contained (this is
//!    what lets a deep QSVT sequence collapse into its block-encoding-sized
//!    product).
//! 2. **Diagonal merging.**  Operations that are diagonal in the
//!    computational basis (`Z`/`S`/`T`/`Rz`/`Phase`/`GlobalPhase`, their
//!    controlled forms, and any diagonal `Gate::Unitary`) multiply entrywise,
//!    so chains of them — even on *different* qubits and with *different*
//!    control sets — merge into a single diagonal of support up to
//!    [`FusionOptions::max_diagonal_qubits`].  A controlled diagonal is
//!    itself a diagonal, so mismatched control masks fold into the table.
//! 3. **Controlled fusion.**  Controlled operations fuse whenever their
//!    control sets match: both act as the identity outside the
//!    control-satisfied subspace and compose inside it, so the fused op keeps
//!    the (cheaper) controlled kernel enumeration.
//! 4. **Cleanup.**  Identities (including fusion products that cancel to the
//!    identity, e.g. the `X … X` conjugation pairs of projector rotations)
//!    are dropped, and diagonal factors that do not depend on one of their
//!    qubits are pruned down to their true support.
//!
//! 3b. **Mask-densifying controlled fusion.**  Controlled operations with
//!    *different* control sets (and overlapping supports) can still fuse:
//!    each is embedded as an uncontrolled block-diagonal matrix over
//!    `controls ∪ targets` (identity wherever its controls are unsatisfied)
//!    and the embeddings are multiplied.  The fused op trades the cheap
//!    control-subspace enumeration for a dense sweep, so this fusion lives
//!    or dies by the cost gate: it fires on small, dispatch-dominated
//!    registers and is rejected where the densified sweep would cost more.
//!
//! The pass is a single greedy sweep: each incoming operation looks backwards
//! through the last [`FusionOptions::lookback`] emitted segments, hopping
//! over segments it commutes with (disjoint support, or both diagonal), and
//! fuses into the first compatible one.  Each candidate fusion is priced on
//! this circuit's register before it is accepted: a fusion that would *raise*
//! the estimated sweep cost by more than the saved per-op overhead
//! ([`FusionOptions::op_overhead_cost`]) is rejected, so cheap structured
//! sweeps survive on large registers where arithmetic dominates dispatch,
//! while small solver registers (dispatch-dominated) and cost-neutral fusions
//! (nested or equal targets — the QSVT collapse) fuse at any size.  When a
//! *pairwise* fusion is cost-rejected, a **two-op lookahead** composes the
//! candidate with the preceding segment as well: conjugation patterns like
//! `X · D · X` collapse to a single cheap diagonal even though the greedy
//! `X · D` intermediate is a dense sweep the gate would refuse.
//!
//! Sweep pricing follows the selected [`CostModel`]: the deterministic
//! [`CostModel::Static`] table (the documented complex-multiply-equivalent
//! constants, and the default for explicit [`FusionOptions`]), or
//! [`CostModel::Measured`], which times one representative sweep per kernel
//! class on this machine at first use — cached thread-locally per register
//! size, clamped to [0.25, 4]× the static units — so the gate's break-even
//! points track what the SIMD kernels actually cost here.
//! [`CompiledCircuit::optimized`](crate::kernels::CompiledCircuit::optimized)
//! and [`OptLevel::Fuse`](crate::executor::OptLevel) use the measured model
//! ([`FusionOptions::measured`]).
//! Everything is plain matrix algebra on supports of at most a handful of
//! qubits, *independent of the register size*: the pass costs the equivalent
//! of a few dozen executions at worst (deep circuits collapsing into dense
//! products, e.g. the degree-117 QSVT sequence), repaid across the
//! many-execution workloads the compile-once engines exist for — and far
//! less than one execution on large registers, where it mostly declines to
//! fuse.
//!
//! Use [`optimize_circuit`] directly, or (more commonly)
//! [`CompiledCircuit::optimized`](crate::kernels::CompiledCircuit::optimized)
//! / [`OptLevel::Fuse`](crate::executor::OptLevel) on
//! [`QuantumExecutor`](crate::executor::QuantumExecutor), which also report
//! the before/after [`CircuitStats`].  The unoptimized compile path is
//! retained as the equivalence oracle (`OptLevel::None`, mirroring
//! `kernels::reference`): optimized execution agrees with it to 1e-12 on the
//! property tests in `crates/sim/tests/fusion_equivalence.rs`.

use crate::circuit::{Circuit, Operation};
use crate::cmatrix::CMatrix;
use crate::gate::Gate;
use num_complex::Complex64;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

const ZERO: Complex64 = Complex64::new(0.0, 0.0);
const ONE: Complex64 = Complex64::new(1.0, 0.0);

/// How the fusion cost gate prices candidate sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// The fixed per-kernel-class unit table (complex-multiply
    /// equivalents).  Deterministic — the same circuit always fuses the
    /// same way — and the default for explicitly constructed
    /// [`FusionOptions`], so tests and reproducible pipelines are not at
    /// the mercy of machine noise.
    #[default]
    Static,
    /// Units measured on this machine: at first use for a register size,
    /// one representative sweep per kernel class is timed
    /// (`CompiledOp::apply` on a capped-size buffer) and
    /// normalized so a single-target diagonal multiply is 1 unit.  Results
    /// are cached thread-locally per register size and clamped to
    /// [0.25, 4]× the static units, so a noisy timing can shift break-even
    /// points but never push the gate into pathological territory.
    Measured,
}

/// Tuning knobs of the fusion pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionOptions {
    /// Combined-target cap `K` for dense fusion: two dense ops fuse only when
    /// the union of their targets has at most this many qubits (cost of the
    /// fused generic kernel grows as `4^K` per block, so small caps win).
    /// Ops whose targets nest (subset) always fuse, whatever the cap.
    pub max_fused_qubits: usize,
    /// Support cap for merged diagonals.  A diagonal sweep costs one multiply
    /// per amplitude regardless of support, so this can sit well above
    /// `max_fused_qubits`; it only bounds the `2^k` table size.
    pub max_diagonal_qubits: usize,
    /// How many already-emitted segments an incoming op may scan backwards
    /// (hopping over commuting segments) to find a fusion partner.
    pub lookback: usize,
    /// Fixed cost of one operation application, in complex-multiply
    /// equivalents (dispatch, bounds checks, loop setup, and one more full
    /// pass over the memory-resident state).  A fusion is accepted only when
    /// `sweep_cost(fused) ≤ sweep_cost(a) + sweep_cost(b) + op_overhead_cost`
    /// on this circuit's register, so cheap structured sweeps (X, SWAP,
    /// phase, single-qubit pairs) are *not* densified into `4^k`-multiply
    /// generic blocks on registers large enough that the extra arithmetic
    /// outweighs the saved dispatch.  Nested-target and equal-target fusions
    /// never increase the sweep cost, so they pass at any register size.
    pub op_overhead_cost: usize,
    /// How candidate fusions are priced (see [`CostModel`]).
    pub cost_model: CostModel,
}

impl Default for FusionOptions {
    fn default() -> Self {
        FusionOptions {
            max_fused_qubits: 3,
            max_diagonal_qubits: 6,
            lookback: 16,
            op_overhead_cost: 512,
            cost_model: CostModel::Static,
        }
    }
}

impl FusionOptions {
    /// The default options with the [`CostModel::Measured`] cost gate —
    /// what
    /// [`CompiledCircuit::optimized`](crate::kernels::CompiledCircuit::optimized)
    /// and [`OptLevel::Fuse`](crate::executor::OptLevel) use.
    pub fn measured() -> Self {
        FusionOptions {
            cost_model: CostModel::Measured,
            ..Default::default()
        }
    }
}

/// Resolved per-kernel-class unit costs for the fusion cost gate, in
/// complex-multiply equivalents: per visited amplitude for the diagonal
/// classes, per pair for the permutation/single-qubit classes, per
/// `2^k`-block for the generic classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct CostUnits {
    /// Phase-shift-class diagonal (unit leading entry, one target).
    phase: f64,
    /// Single-target diagonal.
    diag1: f64,
    /// Multi-target table diagonal (`DiagonalK`), which pays a bit-gather
    /// on top of the multiply.
    diagk: f64,
    /// X/SWAP permutation pair (no arithmetic, pure data movement).
    perm: f64,
    /// Dense single-qubit pair update (4 multiplies).
    single: f64,
    /// Generic dense block, `k = 2` (16 multiplies + gather/scatter).
    generic2: f64,
    /// Generic dense block, `k = 3` (64 multiplies + gather/scatter).
    generic3: f64,
}

/// The documented static table (`CostModel::Static`), matching the kernel
/// dispatch commentary in [`crate::kernels`].
const STATIC_UNITS: CostUnits = CostUnits {
    phase: 1.0,
    diag1: 1.0,
    diagk: 2.0,
    perm: 1.0,
    single: 4.0,
    generic2: 32.0,
    generic3: 128.0,
};

impl CostUnits {
    /// Per-block unit of the generic kernel on `k ≥ 2` targets: measured
    /// for `k ∈ {2, 3}` (the sizes dense fusion actually produces under the
    /// default cap), extrapolated by the 4×-per-qubit multiply growth above.
    fn generic(&self, k: usize) -> f64 {
        match k {
            0 | 1 => self.single,
            2 => self.generic2,
            3 => self.generic3,
            _ => self.generic3 * 4f64.powi(k as i32 - 3),
        }
    }
}

thread_local! {
    /// Measured [`CostUnits`] per register size (see [`CostModel::Measured`]).
    static MEASURED_UNITS: RefCell<HashMap<usize, CostUnits>> = RefCell::new(HashMap::new());
    /// Calibration-table fills by this thread, for cache-contract tests.
    static CALIBRATIONS: Cell<usize> = const { Cell::new(0) };
    /// Fusion passes run by this thread, for cache-contract tests.
    static FUSION_PASSES: Cell<usize> = const { Cell::new(0) };
}

/// Number of fusion-cost calibration-table fills so far by the calling
/// thread — at most one per distinct register size under
/// [`CostModel::Measured`], zero under [`CostModel::Static`].  A fill is
/// either a timing run ([`calibrate`]) or a load from the persistent
/// artifact cache (`qls-cache`, kind `fusion-calibration`); either way the
/// thread-local table is primed and later sweeps pay nothing.  Mirrors
/// [`crate::kernels::circuit_compile_count`]: read it around a code region
/// to verify the calibration cache is doing its job.
pub fn calibration_count() -> usize {
    CALIBRATIONS.with(|c| c.get())
}

/// Number of fusion passes ([`optimize_circuit`] / [`optimize_circuit_for`])
/// run so far by the calling thread.  The fused-circuit artifact cache
/// serves warm constructions without a pass, so wrapping a warm-build
/// region with this counter asserts "zero fusion passes" directly.
pub fn fusion_pass_count() -> usize {
    FUSION_PASSES.with(|c| c.get())
}

/// Cache kind for persisted calibration tables (see [`calibration_count`]).
const CALIBRATION_CACHE_KIND: &str = "fusion-calibration";
/// Entry-format version of the calibration store; bump whenever the
/// [`CostUnits`] wire shape changes, so old entries become misses.
const CALIBRATION_CACHE_VERSION: u32 = 2;

fn calibration_fingerprint(num_qubits: usize) -> qls_cache::Fingerprint {
    qls_cache::FingerprintBuilder::new(CALIBRATION_CACHE_KIND)
        .write_u64(qls_cache::machine_fingerprint())
        .write_usize(num_qubits)
        .finish()
}

fn resolve_units(model: CostModel, num_qubits: usize) -> CostUnits {
    match model {
        CostModel::Static => STATIC_UNITS,
        CostModel::Measured => MEASURED_UNITS.with(|cache| {
            *cache.borrow_mut().entry(num_qubits).or_insert_with(|| {
                CALIBRATIONS.with(|c| c.set(c.get() + 1));
                // First use for this register size: take the persisted table
                // for this machine if one exists (first-optimize timing runs
                // then amortize across processes), else measure and persist.
                // `load_quiet` keeps the hit/miss counters for the artifact
                // stores the solver layers assert on.
                let store = qls_cache::CacheStore::open();
                let key = calibration_fingerprint(num_qubits);
                store
                    .as_ref()
                    .and_then(|s| {
                        s.load_quiet(CALIBRATION_CACHE_KIND, CALIBRATION_CACHE_VERSION, key)
                    })
                    .unwrap_or_else(|| {
                        let units = calibrate(num_qubits);
                        if let Some(s) = &store {
                            s.store(
                                CALIBRATION_CACHE_KIND,
                                CALIBRATION_CACHE_VERSION,
                                key,
                                &units,
                            );
                        }
                        units
                    })
            })
        }),
    }
}

/// Time one representative sweep per kernel class and convert to cost
/// units (single-target diagonal multiply ≡ 1), clamped to the static
/// envelope.  Runs on a capped `2^clamp(n, 6, 12)` buffer: per-amplitude
/// kernel costs are insensitive to register size beyond cache-resident
/// scales, and the cap keeps first-use calibration well under a
/// millisecond.
fn calibrate(num_qubits: usize) -> CostUnits {
    use crate::kernels::CompiledOp;
    use std::time::Instant;
    let m = num_qubits.clamp(6, 12);
    let len = 1usize << m;
    let mut amps = vec![Complex64::new((len as f64).sqrt().recip(), 0.0); len];
    let mut scratch: Vec<Complex64> = Vec::new();
    let bit = m / 2; // mid-register target: representative stride pattern
    let mut time = |op: Operation| -> f64 {
        let cop = CompiledOp::compile(&op, m);
        let mut best = f64::INFINITY;
        // Best-of-4: the minimum is the least noise-contaminated estimate
        // of the sweep's intrinsic cost (first pass also warms the buffer).
        for _ in 0..4 {
            let t0 = Instant::now();
            cop.apply(&mut amps, &mut scratch);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let h = Gate::H.matrix();
    let hh = h.kron(&h);
    let hhh = hh.kron(&h);
    let diag2 = CMatrix::from_fn(4, 4, |r, c| {
        if r == c {
            Complex64::from_polar(1.0, 0.3 * r as f64 + 0.1)
        } else {
            ZERO
        }
    });
    let t_phase = time(Operation::new(Gate::Phase(0.7), vec![bit], vec![]));
    let t_diag1 = time(Operation::new(Gate::Rz(0.4), vec![bit], vec![]));
    let t_diagk = time(Operation::new(Gate::Unitary(diag2), vec![0, bit], vec![]));
    let t_perm = time(Operation::new(Gate::X, vec![bit], vec![]));
    let t_single = time(Operation::new(Gate::H, vec![bit], vec![]));
    let t_g2 = time(Operation::new(Gate::Unitary(hh), vec![0, bit], vec![]));
    let t_g3 = time(Operation::new(
        Gate::Unitary(hhh),
        vec![0, bit, m - 1],
        vec![],
    ));
    // One unit = the measured cost of one single-target diagonal multiply
    // (the cheapest full sweep), so on a machine where every kernel hits
    // the static throughput ratios the measured table degenerates to the
    // static one.
    let unit = (t_diag1 / len as f64).max(f64::MIN_POSITIVE);
    let scale = |t: f64, count: usize, stat: f64| -> f64 {
        (t / count as f64 / unit).clamp(stat * 0.25, stat * 4.0)
    };
    CostUnits {
        phase: scale(t_phase, len / 2, STATIC_UNITS.phase),
        diag1: scale(t_diag1, len, STATIC_UNITS.diag1),
        diagk: scale(t_diagk, len, STATIC_UNITS.diagk),
        perm: scale(t_perm, len / 2, STATIC_UNITS.perm),
        single: scale(t_single, len / 2, STATIC_UNITS.single),
        generic2: scale(t_g2, len / 4, STATIC_UNITS.generic2),
        generic3: scale(t_g3, len / 8, STATIC_UNITS.generic3),
    }
}

/// Before/after report of one optimization run.
///
/// "Sweep work" is the quantity `QuantumExecutor::run_batch` weighs against
/// its fan-out threshold ([`crate::kernels::CompiledOp::work_estimate`]):
/// free-index count × per-iteration cost, summed over the circuit — an
/// estimate of the complex multiplies one full application performs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// Operation count of the raw circuit.
    pub raw_ops: usize,
    /// Operation count after fusion.
    pub fused_ops: usize,
    /// Estimated complex multiplies per application of the raw circuit.
    pub raw_sweep_work: usize,
    /// Estimated complex multiplies per application after fusion.
    pub fused_sweep_work: usize,
}

impl CircuitStats {
    /// Raw-to-fused op-count ratio (≥ 1 in practice; the pass never splits).
    pub fn op_reduction(&self) -> f64 {
        ratio(self.raw_ops, self.fused_ops)
    }

    /// Raw-to-fused estimated-sweep-work ratio.
    pub fn work_reduction(&self) -> f64 {
        ratio(self.raw_sweep_work, self.fused_sweep_work)
    }
}

fn ratio(raw: usize, fused: usize) -> f64 {
    if fused == 0 {
        if raw == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        raw as f64 / fused as f64
    }
}

/// How a segment acts on its targets.
#[derive(Debug, Clone)]
enum Body {
    /// Dense `2^k × 2^k` matrix (row/column bit `t` ↔ `targets[t]`).
    Dense(CMatrix),
    /// Diagonal of a computational-basis-diagonal op (`2^k` entries).
    Diag(Vec<Complex64>),
}

/// One (possibly fused) operation in the optimizer's working list.
#[derive(Debug, Clone)]
struct Segment {
    /// Control qubits, sorted ascending.
    controls: Vec<usize>,
    /// Target qubits, sorted ascending.
    targets: Vec<usize>,
    body: Body,
    /// The original operation when the segment is still exactly that op
    /// (so emission preserves the specialized `X`/`SWAP`/named-gate kernels
    /// for everything the pass never touched).
    pristine: Option<Operation>,
}

fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn disjoint(a: &[usize], b: &[usize]) -> bool {
    a.iter().all(|q| !b.contains(q))
}

/// Position of every element of `sub` inside `sup` (both sorted, `sub ⊆ sup`).
fn positions(sub: &[usize], sup: &[usize]) -> Vec<usize> {
    sub.iter()
        .map(|q| sup.iter().position(|x| x == q).expect("subset of support"))
        .collect()
}

/// Gather the bits of `idx` at `pos` into a compact sub-index.
fn gather_bits(idx: usize, pos: &[usize]) -> usize {
    pos.iter()
        .enumerate()
        .fold(0usize, |acc, (t, &p)| acc | (((idx >> p) & 1) << t))
}

/// Re-express a diagonal table from support `from` on the larger support `to`.
fn embed_table(table: &[Complex64], from: &[usize], to: &[usize]) -> Vec<Complex64> {
    let pos = positions(from, to);
    (0..1usize << to.len())
        .map(|j| table[gather_bits(j, &pos)])
        .collect()
}

/// Re-express a dense matrix from support `from` on the larger support `to`
/// (tensoring with the identity on the added qubits).
fn embed_dense(m: &CMatrix, from: &[usize], to: &[usize]) -> CMatrix {
    if from == to {
        return m.clone();
    }
    let pos = positions(from, to);
    let from_mask: usize = pos.iter().map(|&p| 1usize << p).sum();
    let dim = 1usize << to.len();
    CMatrix::from_fn(dim, dim, |r, c| {
        if (r ^ c) & !from_mask != 0 {
            ZERO
        } else {
            m[(gather_bits(r, &pos), gather_bits(c, &pos))]
        }
    })
}

/// The segment's body as a dense matrix on its own targets.
fn dense_of(seg: &Segment) -> CMatrix {
    match &seg.body {
        Body::Dense(m) => m.clone(),
        Body::Diag(d) => {
            CMatrix::from_fn(d.len(), d.len(), |r, c| if r == c { d[r] } else { ZERO })
        }
    }
}

/// A controlled diagonal re-expressed as an *uncontrolled* diagonal over
/// `controls ∪ targets` (entries are 1 wherever a control bit is 0).
fn full_diag_table(seg: &Segment) -> (Vec<usize>, Vec<Complex64>) {
    let Body::Diag(d) = &seg.body else {
        unreachable!("full_diag_table is only called on diagonal segments")
    };
    let qubits = union_sorted(&seg.controls, &seg.targets);
    let cmask: usize = positions(&seg.controls, &qubits)
        .iter()
        .map(|&p| 1usize << p)
        .sum();
    let tpos = positions(&seg.targets, &qubits);
    let table = (0..1usize << qubits.len())
        .map(|j| {
            if j & cmask == cmask {
                d[gather_bits(j, &tpos)]
            } else {
                ONE
            }
        })
        .collect();
    (qubits, table)
}

/// Turn one raw operation into a segment; `None` drops it (identity).
fn segment_of(op: &Operation) -> Option<Segment> {
    if matches!(op.gate, Gate::I) {
        return None;
    }
    let mut controls = op.controls.clone();
    controls.sort_unstable();
    let (targets, matrix) = sorted_targets_matrix(op);
    let body = match matrix.diagonal() {
        Some(d) => Body::Diag(d),
        None => Body::Dense(matrix),
    };
    simplify(Segment {
        controls,
        targets,
        body,
        pristine: Some(op.clone()),
    })
}

/// The gate matrix re-indexed so bit `t` of the sub-index corresponds to the
/// `t`-th *ascending* target qubit.
fn sorted_targets_matrix(op: &Operation) -> (Vec<usize>, CMatrix) {
    let m = op.gate.matrix();
    let mut targets = op.targets.clone();
    targets.sort_unstable();
    if targets == op.targets {
        return (targets, m);
    }
    let pos = positions(&targets, &op.targets);
    let dim = m.nrows();
    let map = |j: usize| gather_bits_scatter(j, &pos);
    let sorted = CMatrix::from_fn(dim, dim, |r, c| m[(map(r), map(c))]);
    (targets, sorted)
}

/// Scatter the bits of a (sorted-order) sub-index `j` back to the original
/// target order: bit `t` of `j` lands at position `pos[t]`.
fn gather_bits_scatter(j: usize, pos: &[usize]) -> usize {
    pos.iter()
        .enumerate()
        .fold(0usize, |acc, (t, &p)| acc | (((j >> t) & 1) << p))
}

/// Canonicalize a segment: recognise diagonals, prune qubits the body does
/// not depend on, and drop exact identities entirely (`None`).
fn simplify(mut seg: Segment) -> Option<Segment> {
    // A dense fusion product that came out diagonal joins the diagonal class
    // (cheaper kernel, wider mergeability).
    if let Body::Dense(m) = &seg.body {
        if let Some(d) = m.diagonal() {
            seg.body = Body::Diag(d);
            seg.pristine = None;
        }
    }
    match &mut seg.body {
        Body::Diag(table) => {
            if table.iter().all(|&x| x == ONE) {
                return None; // identity (controlled identity included)
            }
            // Prune target bits the table does not depend on.
            let mut t = 0;
            while seg.targets.len() > 1 && t < seg.targets.len() {
                let bit = 1usize << t;
                let independent = (0..table.len())
                    .filter(|j| j & bit == 0)
                    .all(|j| table[j] == table[j | bit]);
                if independent {
                    let kept: Vec<Complex64> = (0..table.len())
                        .filter(|j| j & bit == 0)
                        .map(|j| table[j])
                        .collect();
                    *table = kept;
                    seg.targets.remove(t);
                    seg.pristine = None;
                } else {
                    t += 1;
                }
            }
        }
        Body::Dense(m) => {
            // Prune target bits on which the matrix factors as the identity.
            let mut t = 0;
            while seg.targets.len() > 1 && t < seg.targets.len() {
                if dense_identity_factor(m, t) {
                    *m = dense_drop_bit(m, t);
                    seg.targets.remove(t);
                    seg.pristine = None;
                } else {
                    t += 1;
                }
            }
        }
    }
    Some(seg)
}

/// True when `m = I ⊗ m'` with the identity on sub-index bit `t`.
fn dense_identity_factor(m: &CMatrix, t: usize) -> bool {
    let dim = m.nrows();
    let bit = 1usize << t;
    for r in 0..dim {
        for c in 0..dim {
            if (r ^ c) & bit != 0 {
                if m[(r, c)] != ZERO {
                    return false;
                }
            } else if r & bit == 0 && m[(r, c)] != m[(r | bit, c | bit)] {
                return false;
            }
        }
    }
    true
}

/// Remove identity-factor bit `t` from a dense matrix.
fn dense_drop_bit(m: &CMatrix, t: usize) -> CMatrix {
    let insert0 = |idx: usize| -> usize {
        let low = idx & ((1usize << t) - 1);
        ((idx >> t) << (t + 1)) | low
    };
    CMatrix::from_fn(m.nrows() / 2, m.ncols() / 2, |r, c| {
        m[(insert0(r), insert0(c))]
    })
}

/// Fuse `second ∘ first` when the rules allow it (`first` is applied before
/// `second` in circuit order).  The result is not yet simplified.
fn try_fuse(first: &Segment, second: &Segment, opts: &FusionOptions) -> Option<Segment> {
    if first.controls == second.controls {
        let union = union_sorted(&first.targets, &second.targets);
        // Nested targets fuse for free: the fused op is no bigger than one
        // the circuit already contained.
        let nested = union == first.targets || union == second.targets;
        if let (Body::Diag(da), Body::Diag(db)) = (&first.body, &second.body) {
            if !nested && union.len() > opts.max_diagonal_qubits {
                return None;
            }
            let ea = embed_table(da, &first.targets, &union);
            let eb = embed_table(db, &second.targets, &union);
            let table = ea.iter().zip(&eb).map(|(a, b)| a * b).collect();
            return Some(Segment {
                controls: first.controls.clone(),
                targets: union,
                body: Body::Diag(table),
                pristine: None,
            });
        }
        if !nested && union.len() > opts.max_fused_qubits {
            return None;
        }
        let ma = embed_dense(&dense_of(first), &first.targets, &union);
        let mb = embed_dense(&dense_of(second), &second.targets, &union);
        return Some(Segment {
            controls: first.controls.clone(),
            targets: union,
            body: Body::Dense(mb.matmul(&ma)),
            pristine: None,
        });
    }
    // Mismatched control sets: diagonals fuse by folding the controls into
    // the diagonal support (a controlled diagonal is a diagonal).
    let sa = union_sorted(&first.controls, &first.targets);
    let sb = union_sorted(&second.controls, &second.targets);
    if matches!(first.body, Body::Diag(_)) && matches!(second.body, Body::Diag(_)) {
        // Check the support cap before materializing any 2^k table: heavily
        // controlled diagonals would otherwise allocate huge tables only to
        // be rejected.
        if union_sorted(&sa, &sb).len() > opts.max_diagonal_qubits {
            return None;
        }
        let (qa, ta) = full_diag_table(first);
        let (qb, tb) = full_diag_table(second);
        let union = union_sorted(&qa, &qb);
        let ea = embed_table(&ta, &qa, &union);
        let eb = embed_table(&tb, &qb, &union);
        let table = ea.iter().zip(&eb).map(|(a, b)| a * b).collect();
        return Some(Segment {
            controls: Vec::new(),
            targets: union,
            body: Body::Diag(table),
            pristine: None,
        });
    }
    // Mask-densifying fusion: dense ops with different control sets fuse by
    // embedding each as an *uncontrolled* block-diagonal matrix over its
    // controls ∪ targets (identity wherever its controls are unsatisfied).
    // Only attempted on overlapping supports — fusing disjoint ops saves
    // nothing and would block commuting hops (and later cancellations) —
    // and always within the dense cap, since the fused op trades the cheap
    // control-subspace enumeration for a full dense sweep.  The caller's
    // cost gate decides whether that trade pays.
    if disjoint(&sa, &sb) {
        return None;
    }
    let union = union_sorted(&sa, &sb);
    if union.len() > opts.max_fused_qubits {
        return None;
    }
    let ma = embed_dense(&controlled_dense(first), &sa, &union);
    let mb = embed_dense(&controlled_dense(second), &sb, &union);
    Some(Segment {
        controls: Vec::new(),
        targets: union,
        body: Body::Dense(mb.matmul(&ma)),
        pristine: None,
    })
}

/// A controlled segment re-expressed as an *uncontrolled* dense matrix over
/// `controls ∪ targets`: the body on the control-satisfied block, the
/// identity elsewhere.
fn controlled_dense(seg: &Segment) -> CMatrix {
    let qubits = union_sorted(&seg.controls, &seg.targets);
    let cmask: usize = positions(&seg.controls, &qubits)
        .iter()
        .map(|&p| 1usize << p)
        .sum();
    let tpos = positions(&seg.targets, &qubits);
    let tmask: usize = tpos.iter().map(|&p| 1usize << p).sum();
    let m = dense_of(seg);
    let dim = 1usize << qubits.len();
    CMatrix::from_fn(dim, dim, |r, c| {
        if r & cmask != cmask || c & cmask != cmask {
            // Outside the control-satisfied block the op is the identity.
            if r == c {
                ONE
            } else {
                ZERO
            }
        } else if (r ^ c) & !tmask != 0 {
            ZERO
        } else {
            m[(gather_bits(r, &tpos), gather_bits(c, &tpos))]
        }
    })
}

/// Estimated complex multiplies of one application of this segment to a
/// `len`-amplitude register, mirroring the kernel dispatch of
/// [`crate::kernels`]: diagonals and permutation gates (X/SWAP) cost one
/// multiply-equivalent per visited amplitude, dense `k`-target ops cost
/// `4^k` per `2^k`-block, and controls shrink the visited subspace.
fn sweep_cost(seg: &Segment, len: usize, units: &CostUnits) -> usize {
    let c = seg.controls.len();
    let (count, unit) = match &seg.body {
        // Phase-shift-class diagonals (unit leading entry, one target) only
        // touch the target-bit-set half of the subspace; general diagonals
        // visit every control-satisfied amplitude once.  Multi-target tables
        // (the DiagonalK kernel) pay a per-amplitude bit-gather on top of
        // the multiply.
        Body::Diag(d) if seg.targets.len() == 1 && d[0] == ONE => (len >> (c + 1), units.phase),
        Body::Diag(_) if seg.targets.len() == 1 => (len >> c, units.diag1),
        Body::Diag(_) => (len >> c, units.diagk),
        Body::Dense(_) => {
            let k = seg.targets.len();
            let unit = match seg.pristine.as_ref().map(|op| &op.gate) {
                // Permutation kernels move amplitudes without arithmetic.
                Some(Gate::X) | Some(Gate::Swap) => units.perm,
                // The generic k ≥ 2 kernel pays a gather/scatter and strided
                // access on top of its 4^k multiplies (the static table
                // prices that at double the contiguous single-qubit path;
                // the measured model times it directly).
                _ if k >= 2 => units.generic(k),
                _ => units.single,
            };
            (((len >> c) >> k).max(1), unit)
        }
    };
    (count as f64 * unit).round() as usize
}

/// True when the two segments are guaranteed to commute: disjoint supports
/// (controls included), or both diagonal in the computational basis.
fn commutes(a: &Segment, b: &Segment) -> bool {
    if matches!(a.body, Body::Diag(_)) && matches!(b.body, Body::Diag(_)) {
        return true;
    }
    let sa = union_sorted(&a.controls, &a.targets);
    let sb = union_sorted(&b.controls, &b.targets);
    disjoint(&sa, &sb)
}

/// Emit a segment back as an operation.
fn emit(seg: Segment) -> Operation {
    if let Some(op) = seg.pristine {
        return op;
    }
    let matrix = dense_of(&seg);
    Operation::new(Gate::Unitary(matrix), seg.targets, seg.controls)
}

/// Run the fusion/diagonal-merging pass, returning the rewritten circuit.
///
/// The output implements the same unitary (up to floating-point roundoff in
/// the fused matrix products, ≲ 1e-13 for realistic depths) on the same
/// register width, with a shorter — never longer — operation list.
pub fn optimize_circuit(circuit: &Circuit, opts: &FusionOptions) -> Circuit {
    optimize_circuit_for(circuit, circuit.num_qubits(), opts)
}

/// [`optimize_circuit`] with the width of the register the circuit will
/// actually run on (≥ the circuit's own width).  The cost gate prices sweeps
/// at that width, so a small circuit compiled for a big register keeps its
/// cheap structured sweeps instead of densifying.
pub fn optimize_circuit_for(circuit: &Circuit, num_qubits: usize, opts: &FusionOptions) -> Circuit {
    assert!(
        circuit.num_qubits() <= num_qubits,
        "circuit needs {} qubits, register has {}",
        circuit.num_qubits(),
        num_qubits
    );
    FUSION_PASSES.with(|c| c.set(c.get() + 1));
    let len = 1usize << num_qubits;
    let units = resolve_units(opts.cost_model, num_qubits);
    let cost = |seg: &Segment| sweep_cost(seg, len, &units);
    let mut out: Vec<Segment> = Vec::new();
    'ops: for op in circuit.operations() {
        let Some(seg) = segment_of(op) else {
            continue; // identity
        };
        let lo = out.len().saturating_sub(opts.lookback.max(1));
        for j in (lo..out.len()).rev() {
            if let Some(fused) = try_fuse(&out[j], &seg, opts) {
                match simplify(fused) {
                    None => {
                        out.remove(j); // the pair cancelled to the identity
                        continue 'ops;
                    }
                    Some(f) => {
                        // Accept only when the fused sweep is no costlier
                        // than the two sweeps it replaces (plus the saved
                        // per-op overhead); otherwise keep scanning — a
                        // cheaper partner may sit behind a commuting segment.
                        let split = cost(&out[j])
                            .saturating_add(cost(&seg))
                            .saturating_add(opts.op_overhead_cost);
                        if cost(&f) <= split {
                            out[j] = f;
                            continue 'ops;
                        }
                        // Two-op lookahead: the pairwise intermediate is too
                        // costly, but composing it with the *preceding*
                        // segment may still collapse — the X·D·X conjugation
                        // whose greedy X·D intermediate is a dense sweep the
                        // gate just refused.
                        if j >= 1 {
                            if let Some(traw) = try_fuse(&out[j - 1], &f, opts) {
                                let triple_split = cost(&out[j - 1])
                                    .saturating_add(cost(&out[j]))
                                    .saturating_add(cost(&seg))
                                    .saturating_add(2 * opts.op_overhead_cost);
                                match simplify(traw) {
                                    None => {
                                        // The triple cancelled to the identity.
                                        out.remove(j);
                                        out.remove(j - 1);
                                        continue 'ops;
                                    }
                                    Some(t) if cost(&t) <= triple_split => {
                                        out[j - 1] = t;
                                        out.remove(j);
                                        continue 'ops;
                                    }
                                    Some(_) => {}
                                }
                            }
                        }
                    }
                }
            }
            if !commutes(&out[j], &seg) {
                break;
            }
        }
        out.push(seg);
    }
    let mut fused = Circuit::new(circuit.num_qubits());
    for seg in out {
        fused.push(emit(seg));
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    fn assert_equivalent(raw: &Circuit, opts: &FusionOptions) -> Circuit {
        let fused = optimize_circuit(raw, opts);
        for col in 0..1usize << raw.num_qubits() {
            let mut a = StateVector::basis_state(raw.num_qubits(), col);
            a.apply_circuit(raw);
            let mut b = StateVector::basis_state(raw.num_qubits(), col);
            b.apply_circuit(&fused);
            let diff: f64 = a
                .amplitudes()
                .iter()
                .zip(b.amplitudes())
                .map(|(x, y)| (x - y).norm())
                .fold(0.0, f64::max);
            assert!(diff < 1e-12, "column {col} deviates by {diff}");
        }
        fused
    }

    #[test]
    fn single_qubit_rotation_chain_fuses_to_one_op() {
        let mut c = Circuit::new(2);
        c.h(0).rx(0, 0.3).ry(0, -1.1).rz(0, 0.7).h(0);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn diagonal_chain_merges_across_qubits_and_controls() {
        let mut c = Circuit::new(3);
        c.rz(0, 0.4).t(1).cphase(0, 2, 0.9).z(2).crz(2, 1, -0.5);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1, "all-diagonal circuit must merge fully");
    }

    #[test]
    fn x_conjugation_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.x(1).phase(1, 0.8).x(1);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        // X·P(φ)·X = diag(e^{iφ}, 1): one diagonal op.
        assert_eq!(fused.len(), 1);
        let mut cancel = Circuit::new(1);
        cancel.x(0).x(0);
        assert!(optimize_circuit(&cancel, &FusionOptions::default()).is_empty());
    }

    #[test]
    fn matching_control_masks_fuse_mismatched_masks_are_cost_gated() {
        let mut c = Circuit::new(3);
        c.controlled_gate(Gate::X, &[0], &[2])
            .controlled_gate(Gate::Ry(0.4), &[0], &[2])
            .controlled_gate(Gate::H, &[0], &[1]);
        // Small register: CX/CRy share controls {2} and fuse; the
        // {1}-controlled H then mask-densifies over {0, 1, 2} — one op.
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1);
        // Large register: mask-densification is cost-rejected, so the
        // shared-control fusion keeps its cheap subspace enumeration.
        let large = optimize_circuit_for(&c, 14, &FusionOptions::default());
        assert_eq!(large.len(), 2);
        assert_eq!(large.operations()[0].controls, vec![2]);
    }

    #[test]
    fn mismatched_controls_densify_only_when_cheap() {
        // Two controlled dense ops with different control sets and
        // overlapping supports: block-diagonal embedding over
        // controls ∪ targets lets them fuse on a small register...
        let mut c = Circuit::new(3);
        c.controlled_gate(Gate::X, &[0], &[2])
            .controlled_gate(Gate::H, &[0], &[1]);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1);
        assert!(fused.operations()[0].controls.is_empty());
        // ...while on a large register the densified full sweep costs more
        // than the two control-subspace sweeps and must be rejected.
        let large = optimize_circuit_for(&c, 14, &FusionOptions::default());
        assert_eq!(large.len(), 2);
        // Disjoint supports never mask-densify (it would save nothing and
        // block commuting hops).
        let mut d = Circuit::new(4);
        d.controlled_gate(Gate::X, &[0], &[1])
            .controlled_gate(Gate::X, &[2], &[3]);
        let kept = assert_equivalent(&d, &FusionOptions::default());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn x_conjugation_fuses_through_the_lookahead_on_large_registers() {
        // On a large register the greedy X·D intermediate is a dense pair
        // sweep the cost gate refuses (X + phase are cheaper apart), but
        // the full X·D·X conjugation is one cheap diagonal: the two-op
        // lookahead must land it.
        let mut c = Circuit::new(14);
        c.x(1).phase(1, 0.8).x(1);
        let fused = optimize_circuit(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1, "X·P·X must collapse to one diagonal");
        match &fused.operations()[0].gate {
            Gate::Unitary(m) => assert!(m.diagonal().is_some(), "fusion result must be diagonal"),
            g => panic!("expected a fused unitary, found {g:?}"),
        }
        // Degenerate conjugations still vanish completely (the zero phase
        // drops as an identity, then the X pair cancels).
        let mut cancel = Circuit::new(14);
        cancel.x(3).phase(3, 0.0).x(3);
        assert!(optimize_circuit(&cancel, &FusionOptions::default()).is_empty());
    }

    #[test]
    fn measured_model_calibrates_once_per_register_size() {
        let mut c = Circuit::new(5);
        c.h(0).rz(0, 0.4).cx(0, 1).x(2).phase(2, 1.1).x(2);
        let opts = FusionOptions::measured();
        let before = calibration_count();
        let first = optimize_circuit(&c, &opts);
        assert_eq!(
            calibration_count(),
            before + 1,
            "first measured-model run calibrates this register size"
        );
        let second = optimize_circuit(&c, &opts);
        assert_eq!(
            calibration_count(),
            before + 1,
            "second run must reuse the thread-local cache"
        );
        assert_eq!(first.len(), second.len(), "cached units → same decisions");
        // Static pricing never calibrates.
        optimize_circuit(&c, &FusionOptions::default());
        assert_eq!(calibration_count(), before + 1);
        // And the measured-model output is still the same unitary.
        assert_equivalent(&c, &opts);
    }

    #[test]
    fn measured_units_stay_within_the_static_envelope() {
        let u = calibrate(10);
        let s = STATIC_UNITS;
        for (name, measured, stat) in [
            ("phase", u.phase, s.phase),
            ("diag1", u.diag1, s.diag1),
            ("diagk", u.diagk, s.diagk),
            ("perm", u.perm, s.perm),
            ("single", u.single, s.single),
            ("generic2", u.generic2, s.generic2),
            ("generic3", u.generic3, s.generic3),
        ] {
            assert!(
                measured >= stat * 0.25 && measured <= stat * 4.0,
                "{name} unit {measured} escaped the [0.25, 4]x clamp of {stat}"
            );
        }
        // The generic extrapolation grows 4x per extra target qubit.
        assert!((u.generic(4) - u.generic3 * 4.0).abs() < 1e-12);
        assert!((STATIC_UNITS.generic(5) - (2u64 << 10) as f64).abs() < 1e-12);
    }

    #[test]
    fn cost_model_defaults() {
        assert_eq!(FusionOptions::default().cost_model, CostModel::Static);
        assert_eq!(FusionOptions::measured().cost_model, CostModel::Measured);
        assert_eq!(CostModel::default(), CostModel::Static);
    }

    #[test]
    fn commuting_gates_are_hopped_over() {
        let build = |n: usize| {
            let mut c = Circuit::new(n);
            c.ry(0, 0.3).h(2).cx(2, 3).ry(0, -0.3);
            c
        };
        // Equivalence on the small register, where densification is cheap
        // enough that the pass may collapse everything.
        assert_equivalent(&build(4), &FusionOptions::default());
        // On a large register densification is cost-rejected, so the second
        // Ry must hop backwards over the disjoint h/cx to merge with the
        // first.  Ry(θ)·Ry(−θ) is an identity only up to roundoff (its
        // diagonal is cos² + sin²), so the merged pair survives as one
        // dense single-qubit op: 4 raw ops become 3.
        let fused = optimize_circuit(&build(14), &FusionOptions::default());
        assert_eq!(fused.len(), 3);
        let on_q0 = fused
            .operations()
            .iter()
            .filter(|op| op.targets == [0])
            .count();
        assert_eq!(on_q0, 1, "the hopped Ry pair must merge into one op");
        // An exactly self-inverse pair (X·X = I in floats) cancels outright
        // after the same backwards hop.
        let mut exact = Circuit::new(14);
        exact.x(0).h(2).cx(2, 3).x(0);
        assert_eq!(optimize_circuit(&exact, &FusionOptions::default()).len(), 2);
    }

    #[test]
    fn nested_targets_fuse_beyond_the_dense_cap() {
        // A 4-target dense op (beyond K = 3) still absorbs single-qubit ops
        // on its own support.
        let mut inner = Circuit::new(4);
        inner.h(0).cx(0, 1).cx(1, 2).cx(2, 3).ry(3, 0.3);
        let u = crate::unitary::circuit_unitary(&inner);
        let mut c = Circuit::new(4);
        c.rz(1, 0.7);
        c.gate(Gate::Unitary(u), &[0, 1, 2, 3]);
        c.phase(2, -0.4).x(0);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn identity_gates_are_dropped() {
        let mut c = Circuit::new(2);
        c.gate(Gate::I, &[0])
            .controlled_gate(Gate::I, &[1], &[0])
            .h(1);
        let fused = assert_equivalent(&c, &FusionOptions::default());
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn unsorted_targets_are_canonicalised() {
        // SWAP with targets given in descending order must still fuse
        // correctly with ops on its support.
        let mut c = Circuit::new(3);
        c.gate(Gate::Swap, &[2, 0]).h(0).h(2);
        assert_equivalent(&c, &FusionOptions::default());
    }

    #[test]
    fn lookback_zero_still_fuses_adjacent_ops() {
        let opts = FusionOptions {
            lookback: 0,
            ..Default::default()
        };
        let mut c = Circuit::new(1);
        c.rz(0, 0.1).rz(0, 0.2);
        assert_eq!(assert_equivalent(&c, &opts).len(), 1);
    }

    #[test]
    fn costly_densification_is_rejected_on_large_registers() {
        // Three H's on distinct qubits of a big register: densifying them
        // into one 3-qubit generic block (64 multiplies per 8 amplitudes)
        // costs more arithmetic than three pair sweeps, so above the
        // overhead break-even the pass must leave them alone — while the
        // same circuit on a small register fuses fully.
        let build = |n: usize| {
            let mut c = Circuit::new(n);
            c.h(0).h(1).h(2);
            c
        };
        let opts = FusionOptions::default();
        // The generic k >= 2 kernel is costed at twice its multiply count
        // (gather/scatter overhead), so none of the cross-qubit
        // densifications pay off on a big register.
        let large = optimize_circuit(&build(14), &opts);
        assert_eq!(large.len(), 3, "no densification at 14 qubits");
        let small = assert_equivalent(&build(3), &opts);
        assert_eq!(small.len(), 1, "full fusion on a 3-qubit register");
        // Equal-target fusion is cost-neutral and must happen at any size.
        let mut pair = Circuit::new(14);
        pair.ry(5, 0.3).rx(5, -0.8);
        assert_eq!(optimize_circuit(&pair, &opts).len(), 1);
        // A small circuit compiled for a big register must be priced at the
        // *register* width, not its own width.
        let widened = optimize_circuit_for(&build(3), 14, &opts);
        assert_eq!(widened.len(), 3, "no densification when run on 14 qubits");
    }

    #[test]
    fn stats_ratios() {
        let stats = CircuitStats {
            raw_ops: 10,
            fused_ops: 4,
            raw_sweep_work: 100,
            fused_sweep_work: 50,
        };
        assert!((stats.op_reduction() - 2.5).abs() < 1e-15);
        assert!((stats.work_reduction() - 2.0).abs() < 1e-15);
        let empty = CircuitStats {
            raw_ops: 0,
            fused_ops: 0,
            raw_sweep_work: 0,
            fused_sweep_work: 0,
        };
        assert_eq!(empty.op_reduction(), 1.0);
    }
}
