//! Circuit-optimizer pass: gate fusion and diagonal merging.
//!
//! The compiled kernels of [`crate::kernels`] make each *individual* gate as
//! cheap as it can be, but a circuit of `m` gates still performs `m` sweeps
//! over the `2^n`-amplitude register.  This module rewrites the operation
//! list *before* compilation so repeated executions pay fewer, denser sweeps:
//!
//! 1. **Dense fusion.**  Runs of adjacent gates whose combined *target*
//!    support stays within `MAX_FUSED_QUBITS` (3) qubits are fused into one
//!    dense operation: the incoming gate is applied to the rows of the
//!    accumulated block (see the cost paragraph below).  Fusion is
//!    always allowed — regardless of the cap — when one operation's targets
//!    are a subset of the other's, because the fused op is no larger than
//!    what the circuit already contained (this is what lets a deep QSVT
//!    sequence collapse into its block-encoding-sized product).
//! 2. **Diagonal merging.**  Operations that are diagonal in the
//!    computational basis (`Z`/`S`/`T`/`Rz`/`Phase`/`GlobalPhase`, their
//!    controlled forms, and any diagonal `Gate::Unitary`) multiply entrywise,
//!    so chains of them with the same control set — even on *different*
//!    qubits — merge into a single diagonal of support up to
//!    `MAX_DIAGONAL_QUBITS` (6).
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
//! through the last `LOOKBACK` (16) emitted segments, hopping over
//! segments it commutes with (disjoint support, or both diagonal), and
//! fuses into the first compatible one.  Each candidate fusion is priced on
//! this circuit's register before it is accepted: a fusion that would *raise*
//! the estimated sweep cost by more than the saved per-op overhead
//! (`OP_OVERHEAD_COST`, 512) is rejected, so cheap structured sweeps
//! survive on large registers where arithmetic dominates dispatch,
//! while small solver registers (dispatch-dominated) and cost-neutral fusions
//! (nested or equal targets — the QSVT collapse) fuse at any size.  When a
//! *pairwise* fusion is cost-rejected, a **two-op lookahead** composes the
//! candidate with the preceding segment as well: conjugation patterns like
//! `X · D · X` collapse to a single cheap diagonal even though the greedy
//! `X · D` intermediate is a dense sweep the gate would refuse.
//!
//! Sweep pricing uses one fixed table of complex-multiply-equivalent units
//! per kernel class (`STATIC_UNITS`, matching the dispatch table of
//! [`crate::kernels`]), so fusion is a pure function of the circuit and the
//! register width: a cold build, a warm cache replay and a second process
//! all fuse a circuit the same way, and [`crate::resources::fusion_stats`]
//! reports the circuit that
//! [`OptLevel::Fuse`](crate::executor::OptLevel) actually runs.
//! Everything is plain matrix algebra on supports of at most a handful of
//! qubits, *independent of the register size*.  A fusion never builds the
//! incoming op's embedding on the fused support (`d = 2^q` rows for `q`
//! qubits): row `r` of the product sums one row of the accumulated block per
//! nonzero entry of the op's row, so a `k`-qubit op costs `d · 2^k` row
//! updates, and only a dense op of the full support pays the `d³` product.
//! A fused block stays on split re/im planes from the product that creates
//! it until the pass emits it.  Each product is one call of the
//! runtime-dispatched block kernel that [`CMatrix::matmul`] also uses,
//! written into a spare block that then takes the replaced block's place
//! (and hands its buffers on as the next spare), so absorbing a gate
//! neither re-splits nor re-interleaves the block; every product gives the
//! bits the embedded interleaved product gave.
//!
//! Deep circuits that collapse into dense products cost the most, and they
//! repeat one matrix many times: the QSVT sequence applies its block
//! encoding `U` and `U†` degree-many times each.  So the pass keeps a memo
//! of the dense matrices a circuit repeats, each under one placement (the
//! same matrix, by shared storage or else by equal bits, on the same
//! targets and controls).  A repeated matrix's segment (its planes, diagonal check
//! and pruning) is built once and every repeat borrows it; its row terms
//! are built once per fused support, so every repeat makes the same kernel
//! call on the same terms as before.  Until a fusion replaces it, a segment
//! also borrows its raw op (supports and gate), so a one-qubit or diagonal
//! op pays little besides its kernel call.  The degree-117 QSVT sequence of
//! the `circuit_exact` benchmark (1184 ops, 234 of them 32×32
//! block-encoding products) fuses into 5 ops in about 1.9 ms on a 2-thread
//! x86-64 container with AVX-512, about 1.3 ms of it in the kernel calls of
//! the dense products, repaid across the many-execution workloads the
//! compile-once engines exist for; on large registers the pass mostly
//! declines to fuse.
//!
//! Use [`optimize_circuit_for`] directly, or (more commonly)
//! `CompiledCircuit::optimized`
//! / [`OptLevel::Fuse`](crate::executor::OptLevel) on
//! [`QuantumExecutor`](crate::executor::QuantumExecutor), which also report
//! the before/after [`CircuitStats`].  The unoptimized compile path is
//! retained as the equivalence oracle
//! ([`CompiledCircuit::compile`](crate::kernels::CompiledCircuit::compile)
//! on the raw circuit, mirroring `kernels::reference`): optimized execution agrees with it to 1e-12 on the
//! property tests in `crates/sim/tests/fusion_equivalence.rs`.

use crate::circuit::{Circuit, Operation};
use crate::cmatrix::{CMatrix, Planar, RowTerms};
use crate::gate::Gate;
use num_complex::Complex64;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};

const ZERO: Complex64 = Complex64::new(0.0, 0.0);
const ONE: Complex64 = Complex64::new(1.0, 0.0);

/// Combined-target cap for dense fusion: two dense ops fuse only when the
/// union of their targets has at most this many qubits (the fused generic
/// kernel on `k` targets costs `4^k` per block, so small caps win).  Ops
/// whose targets nest (subset) always fuse, whatever the cap.  Changing it
/// changes fused circuits, so it needs a bump of `FUSED_CACHE_VERSION`
/// (`executor.rs`).
const MAX_FUSED_QUBITS: usize = 3;

/// Support cap for merged diagonals.  A diagonal sweep costs one multiply
/// per amplitude regardless of support, so this sits well above
/// [`MAX_FUSED_QUBITS`]; it only bounds the `2^k` table size.  Changing it
/// needs a bump of `FUSED_CACHE_VERSION`.
const MAX_DIAGONAL_QUBITS: usize = 6;

/// How many already-emitted segments an incoming op may scan backwards
/// (hopping over commuting segments) to find a fusion partner.  Changing it
/// needs a bump of `FUSED_CACHE_VERSION`.
const LOOKBACK: usize = 16;

/// Fixed cost of one operation application, in complex-multiply
/// equivalents (dispatch, bounds checks, loop setup, and one more full pass
/// over the memory-resident state).  A fusion is accepted only when
/// `sweep_cost(fused) ≤ sweep_cost(a) + sweep_cost(b) + OP_OVERHEAD_COST`
/// on this circuit's register, so cheap structured sweeps (X, SWAP, phase,
/// single-qubit pairs) are *not* densified into `4^k`-multiply generic
/// blocks on registers large enough that the extra arithmetic outweighs the
/// saved dispatch.  Nested-target and equal-target fusions never increase
/// the sweep cost, so they pass at any register size.  Changing it needs a
/// bump of `FUSED_CACHE_VERSION`.
const OP_OVERHEAD_COST: usize = 512;

/// The fusion pass has no settings: it fuses with the constants above and
/// prices fusions with one fixed cost table, so an equal circuit and
/// register width always give an equal fused circuit.  This empty struct
/// stays only because the benchmark harness in `perfbench/` passes it to
/// [`optimize_circuit`], and goes once that harness stops naming it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FusionOptions;

impl FusionOptions {
    /// [`FusionOptions::default`], kept for the benchmark harness in
    /// `perfbench/`.
    pub fn measured() -> Self {
        Self
    }
}

/// Per-kernel-class unit costs for the fusion cost gate, in
/// complex-multiply equivalents: per visited amplitude for the diagonal
/// classes, per pair for the permutation/single-qubit classes, per
/// `2^k`-block for the generic classes.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The fusion pass's one cost table, matching the kernel dispatch
/// commentary in [`crate::kernels`].
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
    /// Per-block unit of the generic kernel on `k ≥ 2` targets: tabulated
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
    /// Fusion passes run by this thread, for cache-contract tests.
    static FUSION_PASSES: Cell<usize> = const { Cell::new(0) };
}

/// Always 0: the fusion pass no longer calibrates a cost table.  It stays
/// only because the benchmark harness in `perfbench/` reads it (its
/// per-layer `sim.calibrations` metric), and goes once that harness stops
/// naming it.
pub fn calibration_count() -> usize {
    0
}

/// Number of fusion passes ([`optimize_circuit`] / [`optimize_circuit_for`])
/// run so far by the calling thread.  The fused-circuit artifact cache
/// serves warm constructions without a pass, so wrapping a warm-build
/// region with this counter asserts "zero fusion passes" directly.
pub fn fusion_pass_count() -> usize {
    FUSION_PASSES.with(|c| c.get())
}

/// Before/after report of one optimization run.
///
/// "Sweep work" is the quantity `QuantumExecutor::run_batch` weighs against
/// its fan-out threshold (`CompiledOp::work_estimate`):
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
enum Body<'a> {
    /// Dense `2^k × 2^k` matrix on split re/im planes (row/column bit `t`
    /// ↔ `targets[t]`).
    Dense(Cow<'a, Planar>),
    /// Diagonal of a computational-basis-diagonal op (`2^k` entries).
    Diag(Cow<'a, [Complex64]>),
}

/// One (possibly fused) operation in the optimizer's working list.  It
/// borrows its supports, body and original op from its raw op or [`Memo`]
/// entry for as long as they are still theirs; a fusion gives it a body of
/// its own.
#[derive(Debug, Clone)]
struct Segment<'a> {
    /// Control qubits, sorted ascending.
    controls: Cow<'a, [usize]>,
    /// Target qubits, sorted ascending.
    targets: Cow<'a, [usize]>,
    body: Body<'a>,
    /// The original operation when the segment is still exactly that op
    /// (so emission preserves the specialized `X`/`SWAP`/named-gate kernels
    /// for everything the pass never touched); [`emit`] clones it.
    pristine: Option<&'a Operation>,
    /// The [`Memo`] entry this segment is a copy of, until a fusion
    /// replaces it.
    shared: Option<usize>,
}

impl Segment<'_> {
    /// This memo entry's segment for `op`, one of the ops that repeat it:
    /// the supports and body borrowed, nothing copied.
    fn borrowed<'m>(&'m self, op: &'m Operation, entry: usize) -> Segment<'m> {
        Segment {
            controls: Cow::Borrowed(&self.controls),
            targets: Cow::Borrowed(&self.targets),
            body: match &self.body {
                Body::Dense(m) => Body::Dense(Cow::Borrowed(m)),
                Body::Diag(d) => Body::Diag(Cow::Borrowed(d)),
            },
            pristine: self.pristine.map(|_| op),
            shared: Some(entry),
        }
    }
}

/// The dense matrices a circuit repeats, each under one placement: the QSVT
/// sequence applies its block encoding `U` and `U†` degree-many times.
/// Ops are grouped by their `Unitary` matrix, found as
/// `fused_circuit_fingerprint` (`executor.rs`) finds repeats (shared
/// storage first, then equal bits), and by their targets and controls.  A
/// group's segment (planes, diagonal check and pruning) is built once, when
/// the pass meets its first op, and every op of the group borrows it; the
/// pass's [`Scratch`] builds the group's row terms once per fused support.
/// So every op gets the segment and the terms it would have built itself.
#[derive(Debug, Default)]
struct Memo<'a> {
    /// Each group's segment once built (`None` inside: the identity).
    entries: Vec<OnceCell<Option<Segment<'a>>>>,
    /// Each op's group, for the ops whose matrix and placement repeat.
    slots: Vec<Option<usize>>,
}

impl<'a> Memo<'a> {
    fn of(circuit: &'a Circuit) -> Self {
        let mut firsts: Vec<(&Operation, &CMatrix)> = Vec::new();
        let mut uses: Vec<usize> = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(circuit.len());
        for op in circuit.operations() {
            let Gate::Unitary(m) = &op.gate else {
                slots.push(None);
                continue;
            };
            let placed =
                |first: &Operation| first.targets == op.targets && first.controls == op.controls;
            let id = firsts
                .iter()
                .position(|(first, f)| placed(first) && f.shares_storage(m))
                .or_else(|| {
                    firsts
                        .iter()
                        .position(|(first, f)| placed(first) && f.bits_eq(m))
                })
                .unwrap_or_else(|| {
                    firsts.push((op, m));
                    uses.push(0);
                    firsts.len() - 1
                });
            uses[id] += 1;
            slots.push(Some(id));
        }
        // A matrix placed once has nothing to share.
        for slot in &mut slots {
            if slot.is_some_and(|id| uses[id] == 1) {
                *slot = None;
            }
        }
        Memo {
            entries: uses.iter().map(|_| OnceCell::new()).collect(),
            slots,
        }
    }

    /// The segment of `op`, the circuit's op `i` (`None` drops it): its
    /// group's, borrowed, when its matrix and placement repeat, else its own.
    fn segment_of<'m>(&'m self, i: usize, op: &'a Operation) -> Option<Segment<'m>> {
        match self.slots.get(i).copied().flatten() {
            Some(entry) => self.entries[entry]
                .get_or_init(|| segment_of(op))
                .as_ref()
                .map(|seg| seg.borrowed(op, entry)),
            None => segment_of(op),
        }
    }
}

fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The union of two sorted supports: a copy of whichever holds the other
/// (free while that one is borrowed), else a new list.
fn union_of<'a>(a: &Cow<'a, [usize]>, b: &Cow<'a, [usize]>) -> Cow<'a, [usize]> {
    if b.iter().all(|q| a.contains(q)) {
        a.clone()
    } else if a.iter().all(|q| b.contains(q)) {
        b.clone()
    } else {
        Cow::Owned(union_sorted(a, b))
    }
}

/// The qubits sorted ascending, borrowed when they already are.
fn sorted(qubits: &[usize]) -> Cow<'_, [usize]> {
    if qubits.is_sorted() {
        Cow::Borrowed(qubits)
    } else {
        let mut owned = qubits.to_vec();
        owned.sort_unstable();
        Cow::Owned(owned)
    }
}

/// True when the two segments share no qubit, controls included.
fn disjoint(a: &Segment, b: &Segment) -> bool {
    a.controls
        .iter()
        .chain(a.targets.iter())
        .all(|q| !b.controls.contains(q) && !b.targets.contains(q))
}

/// Position of every element of `sub` inside `sup`.
fn positions(sub: &[usize], sup: &[usize]) -> Vec<usize> {
    sub.iter()
        .map(|q| sup.iter().position(|x| x == q).expect("subset of support"))
        .collect()
}

/// The positions of `sub`'s qubits inside `sup` (both sorted, `sub ⊆ sup`)
/// as a bit mask.
fn mask_of(sub: &[usize], sup: &[usize]) -> usize {
    sub.iter().fold(0, |mask, q| {
        mask | 1 << sup.iter().position(|x| x == q).expect("subset of support")
    })
}

/// The bits of `idx` under `mask`, packed into the low bits in order.
fn extract(idx: usize, mask: usize) -> usize {
    let (mut packed, mut rest, mut bit) = (0, mask, 0);
    while rest != 0 {
        let low = rest & rest.wrapping_neg();
        if idx & low != 0 {
            packed |= 1 << bit;
        }
        rest ^= low;
        bit += 1;
    }
    packed
}

/// Re-express a diagonal table from support `from` on the larger support `to`.
fn embed_table(table: &[Complex64], from: &[usize], to: &[usize]) -> Vec<Complex64> {
    let mask = mask_of(from, to);
    (0..1usize << to.len())
        .map(|j| table[extract(j, mask)])
        .collect()
}

/// Re-express a dense matrix from support `from` on the larger support `to`
/// (tensoring with the identity on the added qubits); on its own support it
/// is `m` itself.
fn embed_dense<'a>(m: Cow<'a, Planar>, from: &[usize], to: &[usize]) -> Cow<'a, Planar> {
    if from == to {
        return m;
    }
    let mask = mask_of(from, to);
    let dim = 1usize << to.len();
    Cow::Owned(Planar::from_fn(dim, dim, |r, c| {
        if (r ^ c) & !mask != 0 {
            ZERO
        } else {
            m.get(extract(r, mask), extract(c, mask))
        }
    }))
}

/// Buffers the pass reuses from one product to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// The row terms of the product being formed.
    terms: RowTerms,
    /// The matrix the next product is written into: the body of the last
    /// segment a fusion replaced (empty until a fusion has replaced one).
    spare: Planar,
    /// For each [`Memo`] group, the row terms of its matrix on each fused
    /// support it has met (its own support never changes), each built once.
    shared: Vec<Vec<(Vec<usize>, RowTerms)>>,
}

impl Scratch {
    /// [`apply_embedded`] for the matrix `m` of [`Memo`] group `entry`: the
    /// same kernel call on the same terms, which the group builds on its
    /// first product on the fused support `to` and keeps for the rest of
    /// the pass.
    fn shared_product(
        &mut self,
        entry: usize,
        m: &Planar,
        from: &[usize],
        to: &[usize],
        block: &Planar,
    ) -> Planar {
        if self.shared.len() <= entry {
            self.shared.resize_with(entry + 1, Vec::new);
        }
        let supports = &mut self.shared[entry];
        let at = match supports.iter().position(|(support, _)| support[..] == *to) {
            Some(at) => at,
            None => {
                let mut terms = RowTerms::default();
                row_terms(m, from, to, &mut terms);
                supports.push((to.to_vec(), terms));
                supports.len() - 1
            }
        };
        let mut out = std::mem::take(&mut self.spare);
        out.assign_product(&self.shared[entry][at].1, block);
        out
    }
}

/// `embed_dense(m, from, to) · block` without building the embedding, in
/// one call of the block kernel, written into `scratch.spare`.  Row `r` of
/// the embedding holds `m[(gather(r), c)]` at the column `k` that is `r`
/// with its `from` bits set to `c`, and zero elsewhere; `c` ascending gives
/// `k` ascending.  So the row-apply sums, over the nonzero entries of `m`'s
/// row, the same terms in the same order as `matmul`'s zero-skipping loop
/// over the embedding's row, and the product is bit-identical to it.  A
/// gate with one nonzero per row (X, a phase, a global phase, any
/// diagonal) gives one term per row.
fn apply_embedded(
    m: &Planar,
    from: &[usize],
    to: &[usize],
    block: &Planar,
    scratch: &mut Scratch,
) -> Planar {
    row_terms(m, from, to, &mut scratch.terms);
    let mut out = std::mem::take(&mut scratch.spare);
    out.assign_product(&scratch.terms, block);
    out
}

/// The row terms [`apply_embedded`] hands the kernel, in place of `terms`'
/// old ones.
fn row_terms(m: &Planar, from: &[usize], to: &[usize], terms: &mut RowTerms) {
    let mask = mask_of(from, to);
    terms.clear();
    for r in 0..1usize << to.len() {
        let (row, rest) = (extract(r, mask), r & !mask);
        // `k` steps through the subsets of `mask` in ascending order: the
        // column of the embedding that holds `m[(row, c)]`.
        let mut k = 0;
        for a in m.row(row) {
            if a != ZERO {
                terms.push(rest | k, a);
            }
            k = (k | !mask).wrapping_add(1) & mask;
        }
        terms.end_row();
    }
}

/// How [`try_fuse`] forms `embed(second) · embed(first)`: the arguments are
/// `second`'s matrix, its support, the fused support, `embed(first)` and
/// the pass's scratch.  The pass uses [`apply_embedded`] (through
/// [`Scratch::shared_product`] for a [`Memo`] group's segment); the tests
/// swap in the `embed_dense` + interleaved `matmul` oracle on a pass with
/// no memo.
type Product = fn(&Planar, &[usize], &[usize], &Planar, &mut Scratch) -> Planar;

/// The segment's body as a dense matrix on its own targets.
fn dense_of<'s>(seg: &'s Segment) -> Cow<'s, Planar> {
    match &seg.body {
        Body::Dense(m) => Cow::Borrowed(m),
        Body::Diag(d) => Cow::Owned(Planar::from_fn(d.len(), d.len(), |r, c| {
            if r == c {
                d[r]
            } else {
                ZERO
            }
        })),
    }
}

/// Turn one raw operation into a segment that borrows it; `None` drops it
/// (identity).
fn segment_of(op: &Operation) -> Option<Segment<'_>> {
    if matches!(op.gate, Gate::I) {
        return None;
    }
    let (targets, body) = match op.gate.matrix2() {
        // One target, and a matrix on the stack.
        Some(m) => (Cow::Borrowed(&op.targets[..]), body_of(&m, 2)),
        None => {
            let (targets, m) = sorted_targets_matrix(op);
            (targets, body_of(m.as_slice(), m.nrows()))
        }
    };
    simplify(Segment {
        controls: sorted(&op.controls),
        targets,
        body,
        pristine: Some(op),
        shared: None,
    })
}

/// The body of a row-major `dim × dim` gate matrix: its diagonal when every
/// off-diagonal entry is exactly zero, its planes otherwise.
fn body_of(m: &[Complex64], dim: usize) -> Body<'static> {
    let at = |r: usize, c: usize| m[r * dim + c];
    if (0..dim).all(|r| (0..dim).all(|c| r == c || at(r, c) == ZERO)) {
        Body::Diag(Cow::Owned((0..dim).map(|i| at(i, i)).collect()))
    } else {
        Body::Dense(Cow::Owned(Planar::from_fn(dim, dim, at)))
    }
}

/// The gate matrix re-indexed so bit `t` of the sub-index corresponds to the
/// `t`-th *ascending* target qubit.
fn sorted_targets_matrix(op: &Operation) -> (Cow<'_, [usize]>, CMatrix) {
    let m = op.gate.matrix();
    let targets = sorted(&op.targets);
    if let Cow::Borrowed(_) = targets {
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
fn simplify(mut seg: Segment<'_>) -> Option<Segment<'_>> {
    // A dense fusion product that came out diagonal joins the diagonal class
    // (cheaper kernel, wider mergeability).
    if let Body::Dense(m) = &seg.body {
        if let Some(d) = m.diagonal() {
            seg.body = Body::Diag(Cow::Owned(d));
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
                    *table = Cow::Owned(kept);
                    seg.targets.to_mut().remove(t);
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
                    *m = Cow::Owned(dense_drop_bit(m, t));
                    seg.targets.to_mut().remove(t);
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
fn dense_identity_factor(m: &Planar, t: usize) -> bool {
    let dim = m.nrows();
    let bit = 1usize << t;
    for r in 0..dim {
        for c in 0..dim {
            if (r ^ c) & bit != 0 {
                if m.get(r, c) != ZERO {
                    return false;
                }
            } else if r & bit == 0 && m.get(r, c) != m.get(r | bit, c | bit) {
                return false;
            }
        }
    }
    true
}

/// Remove identity-factor bit `t` from a dense matrix.
fn dense_drop_bit(m: &Planar, t: usize) -> Planar {
    let insert0 = |idx: usize| -> usize {
        let low = idx & ((1usize << t) - 1);
        ((idx >> t) << (t + 1)) | low
    };
    Planar::from_fn(m.nrows() / 2, m.ncols() / 2, |r, c| {
        m.get(insert0(r), insert0(c))
    })
}

/// Fuse `second ∘ first` when the rules allow it (`first` is applied before
/// `second` in circuit order).  The result is not yet simplified.
fn try_fuse<'a>(
    first: &Segment<'a>,
    second: &Segment<'a>,
    product: Product,
    scratch: &mut Scratch,
) -> Option<Segment<'a>> {
    if first.controls == second.controls {
        let union = union_of(&first.targets, &second.targets);
        // Nested targets fuse for free: the fused op is no bigger than one
        // the circuit already contained.
        let nested = union.len() == first.targets.len() || union.len() == second.targets.len();
        if let (Body::Diag(da), Body::Diag(db)) = (&first.body, &second.body) {
            if !nested && union.len() > MAX_DIAGONAL_QUBITS {
                return None;
            }
            let ea = embed_table(da, &first.targets, &union);
            let eb = embed_table(db, &second.targets, &union);
            let table = ea.iter().zip(&eb).map(|(a, b)| a * b).collect();
            return Some(Segment {
                controls: first.controls.clone(),
                targets: union,
                body: Body::Diag(Cow::Owned(table)),
                pristine: None,
                shared: None,
            });
        }
        if !nested && union.len() > MAX_FUSED_QUBITS {
            return None;
        }
        let block = embed_dense(dense_of(first), &first.targets, &union);
        let m = dense_of(second);
        let fused = match second.shared {
            Some(entry) => scratch.shared_product(entry, &m, &second.targets, &union, &block),
            None => product(&m, &second.targets, &union, &block, scratch),
        };
        return Some(Segment {
            controls: first.controls.clone(),
            targets: union,
            body: Body::Dense(Cow::Owned(fused)),
            pristine: None,
            shared: None,
        });
    }
    // Mask-densifying fusion: ops with different control sets fuse by
    // embedding each as an *uncontrolled* block-diagonal matrix over its
    // controls ∪ targets (identity wherever its controls are unsatisfied).
    // Only attempted on overlapping supports — fusing disjoint ops saves
    // nothing and would block commuting hops (and later cancellations) —
    // and always within the dense cap, since the fused op trades the cheap
    // control-subspace enumeration for a full dense sweep.  The caller's
    // cost gate decides whether that trade pays.
    let support = |seg: &Segment| seg.controls.len() + seg.targets.len();
    if support(first).max(support(second)) > MAX_FUSED_QUBITS || disjoint(first, second) {
        return None;
    }
    let sa = union_sorted(&first.controls, &first.targets);
    let sb = union_sorted(&second.controls, &second.targets);
    let union = union_sorted(&sa, &sb);
    if union.len() > MAX_FUSED_QUBITS {
        return None;
    }
    let block = embed_dense(Cow::Owned(controlled_dense(first)), &sa, &union);
    let fused = product(&controlled_dense(second), &sb, &union, &block, scratch);
    Some(Segment {
        controls: Cow::Borrowed(&[]),
        targets: Cow::Owned(union),
        body: Body::Dense(Cow::Owned(fused)),
        pristine: None,
        shared: None,
    })
}

/// A controlled segment re-expressed as an *uncontrolled* dense matrix over
/// `controls ∪ targets`: the body on the control-satisfied block, the
/// identity elsewhere.
fn controlled_dense(seg: &Segment) -> Planar {
    let qubits = union_sorted(&seg.controls, &seg.targets);
    let cmask = mask_of(&seg.controls, &qubits);
    let tmask = mask_of(&seg.targets, &qubits);
    let m = dense_of(seg);
    let dim = 1usize << qubits.len();
    Planar::from_fn(dim, dim, |r, c| {
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
            m.get(extract(r, tmask), extract(c, tmask))
        }
    })
}

/// Estimated complex multiplies of one application of this segment to a
/// `len`-amplitude register, mirroring the kernel dispatch of
/// [`crate::kernels`]: diagonals and permutation gates (X/SWAP) cost one
/// multiply-equivalent per visited amplitude, dense `k`-target ops cost
/// `4^k` per `2^k`-block, and controls shrink the visited subspace.
fn sweep_cost(seg: &Segment, len: usize) -> usize {
    let units = &STATIC_UNITS;
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
            let unit = match seg.pristine.map(|op| &op.gate) {
                // Permutation kernels move amplitudes without arithmetic.
                Some(Gate::X) | Some(Gate::Swap) => units.perm,
                // The generic k ≥ 2 kernel pays a gather/scatter and strided
                // access on top of its 4^k multiplies (the table prices that
                // at double the contiguous single-qubit path).
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
    matches!((&a.body, &b.body), (Body::Diag(_), Body::Diag(_))) || disjoint(a, b)
}

/// Emit a segment back as an operation.
fn emit(seg: Segment) -> Operation {
    if let Some(op) = seg.pristine {
        return op.clone();
    }
    let matrix = dense_of(&seg).to_cmatrix();
    Operation::new(
        Gate::Unitary(matrix),
        seg.targets.into_owned(),
        seg.controls.into_owned(),
    )
}

/// Run the fusion/diagonal-merging pass, returning the rewritten circuit:
/// [`optimize_circuit_for`] at the circuit's own width.  The options are
/// empty (see [`FusionOptions`]).
///
/// The output implements the same unitary (up to floating-point roundoff in
/// the fused matrix products, ≲ 1e-13 for realistic depths) on the same
/// register width, with a shorter — never longer — operation list.
pub fn optimize_circuit(circuit: &Circuit, _opts: &FusionOptions) -> Circuit {
    optimize_circuit_for(circuit, circuit.num_qubits())
}

/// The fusion pass for the width of the register the circuit will actually
/// run on (≥ the circuit's own width).  The cost gate prices sweeps at that
/// width, so a small circuit compiled for a big register keeps its cheap
/// structured sweeps instead of densifying.
pub fn optimize_circuit_for(circuit: &Circuit, num_qubits: usize) -> Circuit {
    fuse_ops(circuit, num_qubits, apply_embedded, &Memo::of(circuit))
}

/// The fusion pass, taking each op's segment from `memo` and forming each
/// fused matrix with `product`.
fn fuse_ops<'a>(
    circuit: &'a Circuit,
    num_qubits: usize,
    product: Product,
    memo: &Memo<'a>,
) -> Circuit {
    assert!(
        circuit.num_qubits() <= num_qubits,
        "circuit needs {} qubits, register has {}",
        circuit.num_qubits(),
        num_qubits
    );
    FUSION_PASSES.with(|c| c.set(c.get() + 1));
    let len = 1usize << num_qubits;
    let cost = |seg: &Segment| sweep_cost(seg, len);
    let mut out: Vec<Segment> = Vec::new();
    let mut scratch = Scratch::default();
    'ops: for (i, op) in circuit.operations().iter().enumerate() {
        let Some(seg) = memo.segment_of(i, op) else {
            continue; // identity
        };
        let lo = out.len().saturating_sub(LOOKBACK);
        for j in (lo..out.len()).rev() {
            if let Some(fused) = try_fuse(&out[j], &seg, product, &mut scratch) {
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
                            .saturating_add(OP_OVERHEAD_COST);
                        if cost(&f) <= split {
                            // The replaced body, unless borrowed from the
                            // memo, takes the next product.
                            if let Body::Dense(Cow::Owned(old)) =
                                std::mem::replace(&mut out[j], f).body
                            {
                                scratch.spare = old;
                            }
                            continue 'ops;
                        }
                        // Two-op lookahead: the pairwise intermediate is too
                        // costly, but composing it with the *preceding*
                        // segment may still collapse — the X·D·X conjugation
                        // whose greedy X·D intermediate is a dense sweep the
                        // gate just refused.
                        if j >= 1 {
                            if let Some(traw) = try_fuse(&out[j - 1], &f, product, &mut scratch) {
                                let triple_split = cost(&out[j - 1])
                                    .saturating_add(cost(&out[j]))
                                    .saturating_add(cost(&seg))
                                    .saturating_add(2 * OP_OVERHEAD_COST);
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
    use crate::simd::{with_tier, Tier};
    use crate::state::StateVector;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The fusion pass at the circuit's own width.
    fn fuse(c: &Circuit) -> Circuit {
        optimize_circuit_for(c, c.num_qubits())
    }

    /// The fusion pass with no memo, every op building its own segment,
    /// forming each fused matrix with `product`.
    fn fuse_with(circuit: &Circuit, num_qubits: usize, product: Product) -> Circuit {
        fuse_ops(circuit, num_qubits, product, &Memo::default())
    }

    /// The row-apply's oracle: the embedded matrix times the block, by the
    /// interleaved zero-skipping loop (the planes only carry the entries in
    /// and out, bit for bit).
    fn embedded_product(
        m: &Planar,
        from: &[usize],
        to: &[usize],
        block: &Planar,
        _: &mut Scratch,
    ) -> Planar {
        let embedded = embed_dense(Cow::Borrowed(m), from, to).to_cmatrix();
        Planar::from(&embedded.matmul_interleaved(&block.to_cmatrix()))
    }

    /// The entries of a matrix as bit patterns (signed zeros included).
    fn bits(m: &CMatrix) -> Vec<[u64; 2]> {
        m.as_slice()
            .iter()
            .map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    /// Equal op lists, every gate matrix bit for bit.
    fn assert_bit_identical(a: &Circuit, b: &Circuit) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.operations().iter().zip(b.operations()) {
            assert_eq!((&x.targets, &x.controls), (&y.targets, &y.controls));
            assert_eq!(bits(&x.gate.matrix()), bits(&y.gate.matrix()));
        }
    }

    /// A seeded random op on `n ≥ 3` qubits: a dense, diagonal or
    /// permutation gate on one or two targets under zero to two controls,
    /// so that pairs meet equal and different control sets.
    fn random_op(n: usize, rng: &mut ChaCha8Rng) -> Operation {
        let angle = rng.gen_range(-3.0..3.0);
        let (gate, arity) = match rng.gen_range(0..7u32) {
            0 => (Gate::X, 1),
            1 => (Gate::H, 1),
            2 => (Gate::Ry(angle), 1),
            3 => (Gate::Rz(angle), 1),
            4 => (Gate::Phase(angle), 1),
            5 => (Gate::Swap, 2),
            _ => (
                Gate::Unitary(Gate::H.matrix().kron(&Gate::Rx(angle).matrix())),
                2,
            ),
        };
        let mut qubits: Vec<usize> = (0..n).collect();
        let num_controls = rng.gen_range(0..=2usize.min(n - arity - 1));
        let mut picked: Vec<usize> = (0..arity + num_controls)
            .map(|_| qubits.swap_remove(rng.gen_range(0..qubits.len())))
            .collect();
        let controls = picked.split_off(arity);
        Operation::new(gate, picked, controls)
    }

    #[test]
    fn row_apply_is_bit_identical_to_the_embedded_product() {
        // Both branches of try_fuse that form a dense product: equal control
        // sets, and different ones (mask-densifying), on every kernel tier
        // this CPU supports.
        for tier in Tier::supported() {
            let mut rng = ChaCha8Rng::seed_from_u64(24);
            let (mut same_controls, mut mask_densified) = (0, 0);
            let mut scratch = Scratch::default();
            for _ in 0..2000 {
                let ops = [random_op(4, &mut rng), random_op(4, &mut rng)];
                let (Some(a), Some(b)) = (segment_of(&ops[0]), segment_of(&ops[1])) else {
                    continue;
                };
                let fast = with_tier(tier, || try_fuse(&a, &b, apply_embedded, &mut scratch));
                let oracle = try_fuse(&a, &b, embedded_product, &mut scratch);
                assert_eq!(fast.is_some(), oracle.is_some());
                if let (Some(fast), Some(oracle)) = (fast, oracle) {
                    if let (Body::Dense(f), Body::Dense(o)) = (&fast.body, &oracle.body) {
                        assert_eq!(bits(&f.to_cmatrix()), bits(&o.to_cmatrix()), "{tier:?}");
                        if a.controls == b.controls {
                            same_controls += 1;
                        } else {
                            mask_densified += 1;
                        }
                    }
                }
            }
            assert!(
                same_controls >= 50 && mask_densified >= 50,
                "{tier:?}: {same_controls} same-control and {mask_densified} mask-densifying products"
            );
        }
    }

    #[test]
    fn fusion_pass_is_bit_identical_to_the_embedded_product_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for trial in 0..60 {
            let n = 3 + trial % 3;
            let mut c = Circuit::new(n);
            for _ in 0..40 {
                c.push(random_op(n, &mut rng));
            }
            // At the circuit's own width most pairs fuse; on a 14-qubit
            // register the cost gate refuses the densifying ones.
            for width in [n, 14] {
                assert_bit_identical(
                    &optimize_circuit_for(&c, width),
                    &fuse_with(&c, width, embedded_product),
                );
            }
        }
    }

    /// The Walsh–Hadamard matrix on `m` qubits, `(−1)^{popcount(r & c)}`
    /// over `2^{m/2}`: exact in floating point for even `m`, and its own
    /// inverse.
    fn walsh(m: usize) -> CMatrix {
        let scale = 1.0 / f64::from(1u32 << (m / 2));
        CMatrix::from_fn(1 << m, 1 << m, |r, c| {
            let sign = if (r & c).count_ones() % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            Complex64::new(sign * scale, 0.0)
        })
    }

    /// A seeded monomial unitary on `m` qubits: a permutation whose entries
    /// are ±1 or ±i, so every product with it is exact.
    fn monomial(m: usize, rng: &mut ChaCha8Rng) -> CMatrix {
        let dim = 1usize << m;
        let mut perm: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let units = [ONE, -ONE, Complex64::i(), -Complex64::i()];
        let phases: Vec<Complex64> = (0..dim).map(|_| units[rng.gen_range(0..4usize)]).collect();
        CMatrix::from_fn(dim, dim, |r, c| if perm[r] == c { phases[r] } else { ZERO })
    }

    /// The product of a control-free circuit's gates, embedded one by one
    /// and multiplied by the interleaved loop (exact on the dyadic entries
    /// of the nested-block corpus).
    fn exact_unitary(body: &Circuit) -> CMatrix {
        let all: Vec<usize> = (0..body.num_qubits()).collect();
        let mut acc = CMatrix::identity(1 << body.num_qubits());
        for op in body.operations() {
            let (targets, m) = sorted_targets_matrix(op);
            let embedded = embed_dense(Cow::Owned(Planar::from(&m)), &targets, &all);
            acc = embedded.to_cmatrix().matmul_interleaved(&acc);
        }
        acc
    }

    #[test]
    fn nested_large_blocks_fuse_bit_identically_to_the_oracle() {
        // A 4- or 5-target dense op, then exactly invertible nested gates
        // under the same controls, then one op that takes the block exactly
        // to the identity (it cancels), to a ±1/±i diagonal (it turns
        // diagonal) or to an op that is the identity on one target (it
        // drops that qubit), then inexact nested gates that keep fusing.
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let mut events = [0usize; 3];
        for trial in 0..48 {
            let k = 4 + trial % 2;
            let goal = (trial / 2) % 3;
            let dense = if k == 4 {
                monomial(4, &mut rng).matmul(&walsh(4))
            } else {
                monomial(5, &mut rng).matmul(&walsh(4).kron(&monomial(1, &mut rng)))
            };
            let mut body = Circuit::new(k);
            let all: Vec<usize> = (0..k).collect();
            body.gate(Gate::Unitary(dense), &all);
            for _ in 0..rng.gen_range(2..8) {
                let a = rng.gen_range(0..k);
                let b = (a + rng.gen_range(1..k)) % k;
                match rng.gen_range(0..7u32) {
                    0 => body.x(a),
                    1 => body.z(a),
                    2 => body.gate(Gate::S, &[a]),
                    3 => body.gate(Gate::Sdg, &[a]),
                    4 => body.swap(a, b),
                    5 => body.gate(Gate::Unitary(walsh(2)), &[a, b]),
                    _ => body.gate(Gate::Unitary(monomial(2, &mut rng)), &[b, a]),
                };
            }
            // The block's exact inverse, taken to the goal.
            let inverse = exact_unitary(&body).adjoint();
            let dim = 1usize << k;
            let target = match goal {
                0 => CMatrix::identity(dim),
                1 => {
                    let units = [ONE, -ONE, Complex64::i(), -Complex64::i()];
                    let d: Vec<Complex64> =
                        (0..dim).map(|_| units[rng.gen_range(0..4usize)]).collect();
                    CMatrix::from_fn(dim, dim, |r, c| if r == c { d[r] } else { ZERO })
                }
                _ => {
                    let t = rng.gen_range(0..k);
                    let inner = monomial(k - 1, &mut rng);
                    let drop = |i: usize| ((i >> (t + 1)) << t) | (i & ((1 << t) - 1));
                    CMatrix::from_fn(dim, dim, |r, c| {
                        if (r ^ c) >> t & 1 == 0 {
                            inner[(drop(r), drop(c))]
                        } else {
                            ZERO
                        }
                    })
                }
            };
            body.gate(Gate::Unitary(target.matmul(&inverse)), &all);
            // Spread the targets over a wider register, out of order, under
            // zero to two controls.
            let n = k + 2;
            let mut qubits: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                qubits.swap(i, rng.gen_range(0..=i));
            }
            let controls: Vec<usize> = qubits[k..k + rng.gen_range(0..=2usize)].to_vec();
            let place = |c: &Circuit| c.remapped(n, |q| qubits[q]).into_controlled(&controls);
            let prefix = place(&body);
            let fused = optimize_circuit_for(&prefix, n);
            let event = match goal {
                0 => fused.is_empty(),
                1 => fused.len() == 1 && fused.operations()[0].gate.matrix().diagonal().is_some(),
                _ => fused.len() == 1 && fused.operations()[0].targets.len() < k,
            };
            assert!(event, "trial {trial}: goal {goal} not reached: {fused:?}");
            events[goal] += 1;
            // Inexact nested gates after the event keep the block fusing.
            for _ in 0..rng.gen_range(1..5) {
                let a = rng.gen_range(0..k);
                let b = (a + rng.gen_range(1..k)) % k;
                let angle = rng.gen_range(-3.0..3.0);
                match rng.gen_range(0..4u32) {
                    0 => body.h(a),
                    1 => body.ry(a, angle),
                    2 => body.phase(a, angle),
                    _ => body.gate(
                        Gate::Unitary(Gate::H.matrix().kron(&Gate::Rx(angle).matrix())),
                        &[a, b],
                    ),
                };
            }
            let full = place(&body);
            for tier in Tier::supported() {
                for circuit in [&prefix, &full] {
                    for width in [n, 14] {
                        assert_bit_identical(
                            &with_tier(tier, || optimize_circuit_for(circuit, width)),
                            &fuse_with(circuit, width, embedded_product),
                        );
                    }
                }
            }
        }
        assert_eq!(events, [16, 16, 16]);
    }

    #[test]
    fn circuit_exact_qsvt_circuit_fuses_bit_identically_to_the_oracle() {
        use qls_encoding::DilationBlockEncoding;
        use qls_linalg::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution, Svd};
        use qls_qsvt::{find_phases, PhaseFindingOptions, QsvtCircuit};
        // The circuit of the `circuit_exact` benchmark: N = 16, κ = 8,
        // matrix seed 1, ε_l = 0.05 (degree 117).
        let a = random_matrix_with_cond(
            16,
            8.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let svd = Svd::new(&a);
        let poly = qls_poly::InversePolynomial::new(svd.cond(), 0.05);
        let phases = find_phases(&poly.series, &PhaseFindingOptions).expect("phases");
        let be = DilationBlockEncoding::of_adjoint(&a, svd.norm2());
        let qsvt = QsvtCircuit::with_real_part_extraction(&be, &phases.phases);
        // qls-qsvt links the library build of this crate, which is another
        // crate than this test build: carry the circuit over serialized.
        let raw = Circuit::deserialize(&qsvt.circuit().serialize()).expect("circuit");
        assert_eq!(raw.len(), 1184);
        let fused = fuse(&raw);
        assert_eq!(fused.len(), 5);
        assert_bit_identical(&fused, &fuse_with(&raw, raw.num_qubits(), embedded_product));
    }

    /// The circuit of `circuit_exact_qsvt_circuit_fuses_bit_identically_to_the_oracle`,
    /// carried over serialized, so its 234 block-encoding calls hold
    /// separate copies of U and U†.
    fn circuit_exact_circuit() -> Circuit {
        use qls_encoding::DilationBlockEncoding;
        use qls_linalg::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution, Svd};
        use qls_qsvt::{find_phases, PhaseFindingOptions, QsvtCircuit};
        let a = random_matrix_with_cond(
            16,
            8.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let svd = Svd::new(&a);
        let poly = qls_poly::InversePolynomial::new(svd.cond(), 0.05);
        let phases = find_phases(&poly.series, &PhaseFindingOptions).expect("phases");
        let be = DilationBlockEncoding::of_adjoint(&a, svd.norm2());
        let qsvt = QsvtCircuit::with_real_part_extraction(&be, &phases.phases);
        Circuit::deserialize(&qsvt.circuit().serialize()).expect("circuit")
    }

    #[test]
    fn block_encodings_sharing_storage_fuse_bit_identically_to_the_unshared_oracle() {
        // The QSVT builder's circuit shares U's and U†'s storage among
        // their 234 calls, as the memo finds it: re-share the serialized
        // copy's equal matrices (each repeat a clone of its first
        // occurrence) and fuse it, against the oracle pass on the copy.
        let unshared = circuit_exact_circuit();
        let mut firsts: Vec<CMatrix> = Vec::new();
        let mut shared = Circuit::new(unshared.num_qubits());
        for op in unshared.operations() {
            let gate = match &op.gate {
                Gate::Unitary(m) => match firsts.iter().find(|first| *first == m) {
                    Some(first) => Gate::Unitary(first.clone()),
                    None => {
                        firsts.push(m.clone());
                        op.gate.clone()
                    }
                },
                gate => gate.clone(),
            };
            shared.push(Operation::new(
                gate,
                op.targets.clone(),
                op.controls.clone(),
            ));
        }
        let calls = shared
            .operations()
            .iter()
            .filter(|op| match &op.gate {
                Gate::Unitary(m) => firsts.iter().any(|first| first.shares_storage(m)),
                _ => false,
            })
            .count();
        assert_eq!((firsts.len(), calls), (2, 234), "U and U†, 117 calls each");
        let n = shared.num_qubits();
        let fused = optimize_circuit_for(&shared, n);
        assert_eq!(fused.len(), 5);
        assert_bit_identical(&fused, &fuse_with(&unshared, n, embedded_product));
    }

    #[test]
    fn a_matrix_repeated_on_two_placements_fuses_bit_identically_to_the_oracle() {
        // One dense 8×8 matrix, shared by storage, on two target orders
        // under two control sets, among random ops and 4-qubit dense ops
        // that take it onto a larger fused support: each placement needs
        // its own segment and each fused support its own row terms.
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        let placements = [(vec![0, 1, 2], vec![]), (vec![2, 0, 1], vec![4])];
        for _ in 0..40 {
            let n = 6;
            let m = monomial(3, &mut rng).matmul(
                &Gate::H
                    .matrix()
                    .kron(&Gate::Rx(rng.gen_range(-3.0..3.0)).matrix())
                    .kron(&Gate::Ry(rng.gen_range(-3.0..3.0)).matrix()),
            );
            let mut c = Circuit::new(n);
            for _ in 0..40 {
                let (targets, controls) = &placements[rng.gen_range(0..2usize)];
                match rng.gen_range(0..5u32) {
                    0 | 1 => c.push(Operation::new(
                        Gate::Unitary(m.clone()),
                        targets.clone(),
                        controls.clone(),
                    )),
                    2 => c.push(Operation::new(
                        Gate::Unitary(monomial(4, &mut rng).matmul(&walsh(4))),
                        vec![3, 1, 0, 2],
                        controls.clone(),
                    )),
                    _ => c.push(random_op(n, &mut rng)),
                };
            }
            for width in [n, 14] {
                assert_bit_identical(
                    &optimize_circuit_for(&c, width),
                    &fuse_with(&c, width, embedded_product),
                );
            }
        }
    }

    fn assert_equivalent(raw: &Circuit) -> Circuit {
        let fused = fuse(raw);
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
        c.h(0).gate(Gate::Rx(0.3), &[0]).ry(0, -1.1).rz(0, 0.7).h(0);
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn diagonal_chain_merges_across_qubits() {
        let mut c = Circuit::new(3);
        c.rz(0, 0.4).t(1).z(2).rz(1, -0.3);
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1, "all-diagonal circuit must merge fully");
        // Diagonals under the same control set merge into one controlled
        // diagonal.
        let mut c = Circuit::new(3);
        c.controlled_gate(Gate::Rz(-0.5), &[0], &[2])
            .controlled_gate(Gate::T, &[1], &[2]);
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused.operations()[0].controls, vec![2]);
    }

    #[test]
    fn x_conjugation_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.x(1).phase(1, 0.8).x(1);
        let fused = assert_equivalent(&c);
        // X·P(φ)·X = diag(e^{iφ}, 1): one diagonal op.
        assert_eq!(fused.len(), 1);
        let mut cancel = Circuit::new(1);
        cancel.x(0).x(0);
        assert!(fuse(&cancel).is_empty());
    }

    #[test]
    fn matching_control_masks_fuse_mismatched_masks_are_cost_gated() {
        let mut c = Circuit::new(3);
        c.controlled_gate(Gate::X, &[0], &[2])
            .controlled_gate(Gate::Ry(0.4), &[0], &[2])
            .controlled_gate(Gate::H, &[0], &[1]);
        // Small register: CX/CRy share controls {2} and fuse; the
        // {1}-controlled H then mask-densifies over {0, 1, 2} — one op.
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
        // Large register: mask-densification is cost-rejected, so the
        // shared-control fusion keeps its cheap subspace enumeration.
        let large = optimize_circuit_for(&c, 14);
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
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
        assert!(fused.operations()[0].controls.is_empty());
        // ...while on a large register the densified full sweep costs more
        // than the two control-subspace sweeps and must be rejected.
        let large = optimize_circuit_for(&c, 14);
        assert_eq!(large.len(), 2);
        // Disjoint supports never mask-densify (it would save nothing and
        // block commuting hops).
        let mut d = Circuit::new(4);
        d.controlled_gate(Gate::X, &[0], &[1])
            .controlled_gate(Gate::X, &[2], &[3]);
        let kept = assert_equivalent(&d);
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
        let fused = fuse(&c);
        assert_eq!(fused.len(), 1, "X·P·X must collapse to one diagonal");
        match &fused.operations()[0].gate {
            Gate::Unitary(m) => assert!(m.diagonal().is_some(), "fusion result must be diagonal"),
            g => panic!("expected a fused unitary, found {g:?}"),
        }
        // Degenerate conjugations still vanish completely (the zero phase
        // drops as an identity, then the X pair cancels).
        let mut cancel = Circuit::new(14);
        cancel.x(3).phase(3, 0.0).x(3);
        assert!(fuse(&cancel).is_empty());
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
        assert_equivalent(&build(4));
        // On a large register densification is cost-rejected, so the second
        // Ry must hop backwards over the disjoint h/cx to merge with the
        // first.  Ry(θ)·Ry(−θ) is an identity only up to roundoff (its
        // diagonal is cos² + sin²), so the merged pair survives as one
        // dense single-qubit op: 4 raw ops become 3.
        let fused = fuse(&build(14));
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
        assert_eq!(fuse(&exact).len(), 2);
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
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn identity_gates_are_dropped() {
        let mut c = Circuit::new(2);
        c.gate(Gate::I, &[0])
            .controlled_gate(Gate::I, &[1], &[0])
            .h(1);
        let fused = assert_equivalent(&c);
        assert_eq!(fused.len(), 1);
    }

    #[test]
    fn unsorted_targets_are_canonicalised() {
        // SWAP with targets given in descending order must still fuse
        // correctly with ops on its support.
        let mut c = Circuit::new(3);
        c.gate(Gate::Swap, &[2, 0]).h(0).h(2);
        assert_equivalent(&c);
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
        // The generic k >= 2 kernel is costed at twice its multiply count
        // (gather/scatter overhead), so none of the cross-qubit
        // densifications pay off on a big register.
        let large = fuse(&build(14));
        assert_eq!(large.len(), 3, "no densification at 14 qubits");
        let small = assert_equivalent(&build(3));
        assert_eq!(small.len(), 1, "full fusion on a 3-qubit register");
        // Equal-target fusion is cost-neutral and must happen at any size.
        let mut pair = Circuit::new(14);
        pair.ry(5, 0.3).gate(Gate::Rx(-0.8), &[5]);
        assert_eq!(fuse(&pair).len(), 1);
        // A small circuit compiled for a big register must be priced at the
        // *register* width, not its own width.
        let widened = optimize_circuit_for(&build(3), 14);
        assert_eq!(widened.len(), 3, "no densification when run on 14 qubits");
        // The generic unit extrapolates 4x per target qubit past k = 3.
        assert_eq!(STATIC_UNITS.generic(5), 2048.0);
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
