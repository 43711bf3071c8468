//! Quantum circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered list of [`Operation`]s (gate + target qubits +
//! control qubits) on a fixed-width register.  Circuits compose (`append`),
//! invert (`adjoint`) and can be promoted to controlled circuits — the three
//! transformations the QSVT construction of Eqs. (2)–(3) of the paper needs:
//! it alternates the block-encoding `U`, its adjoint `U†`, and
//! projector-controlled phase rotations built from controlled gates.
//!
//! Qubit convention: qubit `q` is bit `q` of the basis-state index
//! (little-endian), i.e. basis state `|q_{n-1} … q_1 q_0⟩` has index
//! `Σ q_i 2^i`.

use crate::gate::Gate;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A gate placed on specific target and control qubits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    /// The gate applied to the targets.
    pub gate: Gate,
    /// Target qubits (length must equal `gate.arity()`).
    pub targets: Vec<usize>,
    /// Control qubits (the gate acts only on the subspace where all controls
    /// are |1⟩); must be disjoint from the targets.
    pub controls: Vec<usize>,
}

impl Operation {
    /// Build an operation, validating arity and target/control disjointness.
    pub fn new(gate: Gate, targets: Vec<usize>, controls: Vec<usize>) -> Self {
        assert_eq!(
            gate.arity(),
            targets.len(),
            "gate {} expects {} targets, got {}",
            gate.name(),
            gate.arity(),
            targets.len()
        );
        let mut all: Vec<usize> = targets.iter().chain(controls.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            targets.len() + controls.len(),
            "targets and controls must be distinct qubits"
        );
        Operation {
            gate,
            targets,
            controls,
        }
    }

    /// Highest qubit index used by the operation.
    pub fn max_qubit(&self) -> usize {
        self.targets
            .iter()
            .chain(self.controls.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// All qubits touched by the operation.
    pub fn qubits(&self) -> Vec<usize> {
        self.targets
            .iter()
            .chain(self.controls.iter())
            .copied()
            .collect()
    }
}

/// An ordered sequence of operations on `num_qubits` qubits.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Operation>,
}

// Deserialize is hand-written (Serialize is derived) so a decoded circuit
// re-establishes every invariant [`Circuit::push`] and [`Operation::new`]
// enforce — arity, target/control disjointness, register bounds, and
// well-formed `Gate::Unitary` dimensions.  A cache entry that decodes but
// violates an invariant becomes a decode *error* (treated as a cache miss
// upstream), never a malformed circuit that panics later.
impl<'de> serde::Deserialize<'de> for Circuit {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        let num_qubits = usize::deserialize(value.field("Circuit", "num_qubits")?)?;
        let ops = Vec::<Operation>::deserialize(value.field("Circuit", "ops")?)?;
        for (i, op) in ops.iter().enumerate() {
            let fail = |why: &str| {
                Err(serde::DeError::new(format!(
                    "Circuit: operation {i} ({}) {why}",
                    op.gate.name()
                )))
            };
            if let Gate::Unitary(m) = &op.gate {
                let dim = m.nrows();
                if m.ncols() != dim || !dim.is_power_of_two() || dim < 2 {
                    return fail("has a non-2^k-square unitary");
                }
            }
            if op.gate.arity() != op.targets.len() {
                return fail("has the wrong target count");
            }
            let mut all: Vec<usize> = op
                .targets
                .iter()
                .chain(op.controls.iter())
                .copied()
                .collect();
            all.sort_unstable();
            all.dedup();
            if all.len() != op.targets.len() + op.controls.len() {
                return fail("reuses a qubit as target and control");
            }
            if op.max_qubit() >= num_qubits {
                return fail("touches a qubit outside the register");
            }
        }
        Ok(Circuit { num_qubits, ops })
    }
}

impl Circuit {
    /// Create an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The operations in execution order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the circuit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append a raw operation.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        assert!(
            op.max_qubit() < self.num_qubits,
            "operation touches qubit {} but the circuit has only {} qubits",
            op.max_qubit(),
            self.num_qubits
        );
        self.ops.push(op);
        self
    }

    /// Append a gate on the given targets with no controls.
    pub fn gate(&mut self, gate: Gate, targets: &[usize]) -> &mut Self {
        self.push(Operation::new(gate, targets.to_vec(), vec![]))
    }

    /// Append a controlled gate.
    pub fn controlled_gate(
        &mut self,
        gate: Gate,
        targets: &[usize],
        controls: &[usize],
    ) -> &mut Self {
        self.push(Operation::new(gate, targets.to_vec(), controls.to_vec()))
    }

    // ---- convenience builders for the common gates ----

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::X, &[q])
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Y, &[q])
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Z, &[q])
    }
    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::H, &[q])
    }
    /// S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::S, &[q])
    }
    /// T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::T, &[q])
    }
    /// X-rotation by `theta` on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::Rx(theta), &[q])
    }
    /// Y-rotation by `theta` on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::Ry(theta), &[q])
    }
    /// Z-rotation by `theta` on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::Rz(theta), &[q])
    }
    /// Phase gate by `phi` on `q`.
    pub fn phase(&mut self, q: usize, phi: f64) -> &mut Self {
        self.gate(Gate::Phase(phi), &[q])
    }
    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.controlled_gate(Gate::X, &[t], &[c])
    }
    /// Controlled-Z between `c` and `t`.
    pub fn cz(&mut self, c: usize, t: usize) -> &mut Self {
        self.controlled_gate(Gate::Z, &[t], &[c])
    }
    /// Toffoli (CCX) with controls `c1`, `c2` and target `t`.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.controlled_gate(Gate::X, &[t], &[c1, c2])
    }
    /// Multi-controlled X.
    pub fn mcx(&mut self, controls: &[usize], t: usize) -> &mut Self {
        self.controlled_gate(Gate::X, &[t], controls)
    }
    /// Controlled Y-rotation.
    pub fn cry(&mut self, c: usize, t: usize, theta: f64) -> &mut Self {
        self.controlled_gate(Gate::Ry(theta), &[t], &[c])
    }
    /// Controlled Z-rotation.
    pub fn crz(&mut self, c: usize, t: usize, theta: f64) -> &mut Self {
        self.controlled_gate(Gate::Rz(theta), &[t], &[c])
    }
    /// Controlled phase.
    pub fn cphase(&mut self, c: usize, t: usize, phi: f64) -> &mut Self {
        self.controlled_gate(Gate::Phase(phi), &[t], &[c])
    }
    /// SWAP of qubits `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.gate(Gate::Swap, &[a, b])
    }

    /// Append all operations of another circuit (must fit in this register).
    /// Appended `Gate::Unitary` matrices share storage with `other`'s (a
    /// [`CMatrix`](crate::CMatrix) clone only bumps a count), so appending
    /// one block-encoding degree-many times holds one copy of its matrix.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    /// Move another circuit's operations onto the end of this one.  Same
    /// contract as [`Circuit::append`], but consuming: the gate payloads
    /// (notably `Gate::Unitary` matrices) transfer without being cloned,
    /// which matters when appending block-encoding-heavy QSVT sequences.
    pub fn append_owned(&mut self, other: Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.ops.extend(other.ops);
        self
    }

    /// The adjoint (inverse) circuit: reversed order, each gate replaced by its
    /// adjoint, controls preserved.
    pub fn adjoint(&self) -> Circuit {
        let ops = self
            .ops
            .iter()
            .rev()
            .map(|op| Operation {
                gate: op.gate.adjoint(),
                targets: op.targets.clone(),
                controls: op.controls.clone(),
            })
            .collect();
        Circuit {
            num_qubits: self.num_qubits,
            ops,
        }
    }

    /// A copy of the circuit in which every operation gains the given extra
    /// control qubits (which must not already be used as targets).
    pub fn controlled(&self, extra_controls: &[usize]) -> Circuit {
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let mut controls = op.controls.clone();
                controls.extend_from_slice(extra_controls);
                Operation::new(op.gate.clone(), op.targets.clone(), controls)
            })
            .collect();
        let max_extra = extra_controls
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        Circuit {
            num_qubits: self.num_qubits.max(max_extra),
            ops,
        }
    }

    /// Consuming variant of [`Circuit::controlled`]: adds the extra controls
    /// to every operation in place, without cloning gate payloads.
    pub fn into_controlled(mut self, extra_controls: &[usize]) -> Circuit {
        for op in &mut self.ops {
            for &c in extra_controls {
                assert!(
                    !op.targets.contains(&c) && !op.controls.contains(&c),
                    "control qubit {c} collides with an existing target/control"
                );
            }
            op.controls.extend_from_slice(extra_controls);
        }
        let max_extra = extra_controls
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        self.num_qubits = self.num_qubits.max(max_extra);
        self
    }

    /// A copy of the circuit with every qubit index remapped through `map`
    /// (e.g. to embed a sub-register circuit into a larger register).
    pub fn remapped(&self, new_num_qubits: usize, map: impl Fn(usize) -> usize) -> Circuit {
        let ops = self
            .ops
            .iter()
            .map(|op| {
                Operation::new(
                    op.gate.clone(),
                    op.targets.iter().map(|&q| map(q)).collect(),
                    op.controls.iter().map(|&q| map(q)).collect(),
                )
            })
            .collect();
        let circ = Circuit {
            num_qubits: new_num_qubits,
            ops,
        };
        for op in &circ.ops {
            assert!(
                op.max_qubit() < new_num_qubits,
                "remapped operation out of range"
            );
        }
        circ
    }

    /// Total number of gates, counting a controlled gate as one operation.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Gate counts grouped by gate mnemonic (controls appear as a `c`-prefix
    /// per control, e.g. a Toffoli is counted under "ccx").
    pub fn gate_histogram(&self) -> HashMap<String, usize> {
        let mut hist = HashMap::new();
        for op in &self.ops {
            let name = format!("{}{}", "c".repeat(op.controls.len()), op.gate.name());
            *hist.entry(name).or_insert(0) += 1;
        }
        hist
    }

    /// Circuit depth: the length of the longest chain of operations sharing a
    /// qubit (greedy as-soon-as-possible scheduling).
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let qubits = || op.targets.iter().chain(&op.controls);
            let start = qubits().map(|&q| qubit_depth[q]).max().unwrap_or(0);
            let end = start + 1;
            for &q in qubits() {
                qubit_depth[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Number of two-or-more-qubit operations (entangling gates).
    pub fn entangling_gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| op.targets.len() + op.controls.len() >= 2)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).rz(2, 0.5).swap(0, 2);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.entangling_gate_count(), 3);
        let hist = c.gate_histogram();
        assert_eq!(hist["h"], 1);
        assert_eq!(hist["cx"], 1);
        assert_eq!(hist["ccx"], 1);
        assert_eq!(hist["rz"], 1);
        assert_eq!(hist["swap"], 1);
    }

    #[test]
    fn depth_computation() {
        let mut c = Circuit::new(3);
        // Layer 1: H(0), H(1), H(2) — all parallel.
        c.h(0).h(1).h(2);
        assert_eq!(c.depth(), 1);
        // Layer 2: CX(0,1) blocks qubits 0 and 1.
        c.cx(0, 1);
        assert_eq!(c.depth(), 2);
        // X(2) still fits in layer 2.
        c.x(2);
        assert_eq!(c.depth(), 2);
        // CX(1,2) must wait for both.
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn adjoint_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).t(1).cx(0, 1).rz(0, 0.7);
        let adj = c.adjoint();
        assert_eq!(adj.len(), 4);
        assert_eq!(adj.operations()[0].gate, Gate::Rz(-0.7));
        assert_eq!(adj.operations()[3].gate, Gate::H);
        assert_eq!(adj.operations()[1].gate, Gate::X); // cx is self-adjoint
    }

    #[test]
    fn controlled_circuit_adds_controls() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cc = c.controlled(&[2]);
        assert_eq!(cc.operations()[0].controls, vec![2]);
        assert_eq!(cc.operations()[1].controls, vec![0, 2]);
        assert_eq!(cc.num_qubits(), 3);
    }

    #[test]
    fn remapping_moves_qubits() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let shifted = c.remapped(4, |q| q + 2);
        assert_eq!(shifted.operations()[0].targets, vec![2]);
        assert_eq!(shifted.operations()[1].targets, vec![3]);
        assert_eq!(shifted.operations()[1].controls, vec![2]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(2);
        c.x(5);
    }

    #[test]
    #[should_panic]
    fn overlapping_target_and_control_rejected() {
        let _ = Operation::new(Gate::X, vec![1], vec![1]);
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
    }
}
