//! Tree-based amplitude state preparation (Kerenidis–Prakash).
//!
//! Given a real vector `v ∈ R^N`, build a circuit on `n = ⌈log₂ N⌉` qubits
//! that maps `|0…0⟩` to `Σ_i (v_i/‖v‖) |i⟩` (a length that is not a power of
//! two is zero-padded to `2^n`).  Following the paper's Ref. \[23\], a
//! binary tree of partial squared norms is computed classically in O(N)
//! flops (the "SP — classical O(2^n)" row of Table II); the tree angles then
//! drive a cascade of multiplexed Ry rotations, one level per qubit.
//! Negative entries are handled by a final layer of basis-state phase flips.
//!
//! Qubit convention: the prepared register is the *data* register of the
//! solver, occupying qubits `0..n`; within the register, qubit `n-1` (the
//! highest) corresponds to the most significant bit of the vector index, so
//! that amplitude `i` of the produced state equals `v_i/‖v‖`.

use qls_linalg::Vector;
use qls_sim::{Circuit, Gate};

/// The classical preprocessing product of the Kerenidis–Prakash method: the
/// binary tree of partial norms, the rotation angles, and the sign pattern.
#[derive(Debug, Clone)]
pub struct StatePreparation {
    /// Number of data qubits, `⌈log₂ N⌉`.
    pub num_qubits: usize,
    /// Norm of the input vector (returned to the caller so it can undo the
    /// normalisation classically, per Remark 2 of the paper).
    pub norm: f64,
    /// Rotation angles per tree level: `angles[l]` has `2^l` entries.
    pub angles: Vec<Vec<f64>>,
    /// Indices of the entries with a negative sign.
    pub negative_indices: Vec<usize>,
    /// Classical flop count spent building the tree (reported in Table II).
    pub classical_flops: usize,
}

impl StatePreparation {
    /// Run the classical preprocessing for a vector of any length `N ≥ 1`.
    /// The leaves are zero-padded to the next power of two; for a length
    /// that already is one the padding is a no-op, so its angles and flop
    /// count are those of the unpadded tree.
    ///
    /// Empty and all-zero vectors are rejected; callers should short-circuit
    /// that case.
    pub fn new(v: &Vector<f64>) -> Self {
        let norm = v.norm2();
        assert!(norm > 0.0, "cannot prepare the zero vector");
        let len = v.len().next_power_of_two();
        let num_qubits = len.trailing_zeros() as usize;

        let mut flops = 0usize;

        // Leaves of the tree: squared magnitudes, zero-padded to `2^n`.
        let mut level: Vec<f64> = v.iter().map(|&x| x * x).collect();
        level.resize(len, 0.0);
        flops += len;
        // Build the tree bottom-up: levels[l][j] = sum of squared magnitudes of
        // the subtree rooted at node j of level l (level 0 = root).
        let mut levels: Vec<Vec<f64>> = vec![level.clone()];
        while level.len() > 1 {
            let next: Vec<f64> = level.chunks(2).map(|c| c[0] + c[1]).collect();
            flops += next.len();
            levels.push(next.clone());
            level = next;
        }
        levels.reverse(); // levels[0] = root, levels[n] = leaves

        // Angles: at level l, node j splits its mass between children 2j (left,
        // bit 0) and 2j+1 (right, bit 1); the Ry angle is 2·atan2(√right, √left).
        let mut angles = Vec::with_capacity(num_qubits);
        for l in 0..num_qubits {
            let parents = &levels[l];
            let children = &levels[l + 1];
            let mut level_angles = Vec::with_capacity(parents.len());
            for (j, &mass) in parents.iter().enumerate() {
                let left = children[2 * j];
                let right = children[2 * j + 1];
                let angle = if mass <= 0.0 {
                    0.0
                } else {
                    2.0 * right.sqrt().atan2(left.sqrt())
                };
                flops += 4;
                level_angles.push(angle);
            }
            angles.push(level_angles);
        }

        let negative_indices: Vec<usize> = v
            .iter()
            .enumerate()
            .filter(|(_, &x)| x < 0.0)
            .map(|(i, _)| i)
            .collect();

        StatePreparation {
            num_qubits,
            norm,
            angles,
            negative_indices,
            classical_flops: flops,
        }
    }

    /// Build the preparation circuit on `num_qubits` qubits.
    ///
    /// Level-`l` rotations act on qubit `n-1-l` (most significant bit first)
    /// and are multiplexed over the `l` previously prepared qubits; the
    /// multiplexing is realised as one multi-controlled Ry per control pattern
    /// (0-controls implemented by X conjugation).
    pub fn circuit(&self) -> Circuit {
        let n = self.num_qubits;
        let mut circuit = Circuit::new(n.max(1));
        if n == 0 {
            return circuit;
        }
        for (l, level_angles) in self.angles.iter().enumerate() {
            let target = n - 1 - l;
            // Control qubits: the l already-prepared qubits (the more significant ones).
            let controls: Vec<usize> = (0..l).map(|k| n - 1 - k).collect();
            for (pattern, &angle) in level_angles.iter().enumerate() {
                if angle == 0.0 {
                    continue;
                }
                if controls.is_empty() {
                    circuit.ry(target, angle);
                    continue;
                }
                // Pattern bit k corresponds to control qubit n-1-k.
                let zero_controls: Vec<usize> = controls
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| pattern & (1 << (l - 1 - k)) == 0)
                    .map(|(_, &q)| q)
                    .collect();
                for &q in &zero_controls {
                    circuit.x(q);
                }
                circuit.controlled_gate(Gate::Ry(angle), &[target], &controls);
                for &q in &zero_controls {
                    circuit.x(q);
                }
            }
        }
        // Sign layer: flip the phase of every negative entry.
        for &idx in &self.negative_indices {
            apply_basis_phase_flip(&mut circuit, n, idx);
        }
        circuit
    }
}

/// Append a phase flip of the single computational basis state `index` to the
/// circuit (multi-controlled Z with 0-controls handled by X conjugation).
fn apply_basis_phase_flip(circuit: &mut Circuit, n: usize, index: usize) {
    // The amplitude index uses the convention: bit k of `index` (from the most
    // significant, k = 0) lives on qubit n-1-k, i.e. plain little-endian on the
    // basis index — qubit q holds bit q of the index.
    let zero_qubits: Vec<usize> = (0..n).filter(|q| index & (1 << q) == 0).collect();
    for &q in &zero_qubits {
        circuit.x(q);
    }
    if n == 1 {
        circuit.z(0);
    } else {
        let controls: Vec<usize> = (0..n - 1).collect();
        circuit.controlled_gate(Gate::Z, &[n - 1], &controls);
    }
    for &q in &zero_qubits {
        circuit.x(q);
    }
}

/// Verify a preparation circuit by running it and comparing amplitudes with
/// the normalised input, zero-padded to the register (returns the maximum
/// absolute amplitude error): the oracle of the preparation tests.
#[cfg(test)]
fn verify_preparation(v: &Vector<f64>, circuit: &Circuit) -> f64 {
    let state = qls_sim::StateVector::run(circuit);
    let norm = v.norm2();
    let mut err = 0.0f64;
    for (i, got) in state.amplitudes().iter().enumerate() {
        let target = v.as_slice().get(i).map_or(0.0, |&vi| vi / norm);
        err = err.max((got.re - target).abs().max(got.im.abs()));
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_roundtrip(v: &[f64]) {
        let vec = Vector::from_f64_slice(v);
        let prep = StatePreparation::new(&vec);
        assert!((prep.norm - vec.norm2()).abs() < 1e-14);
        let err = verify_preparation(&vec, &prep.circuit());
        assert!(err < 1e-12, "preparation error {err} for {v:?}");
    }

    #[test]
    fn prepares_positive_vectors() {
        check_roundtrip(&[1.0, 0.0]);
        check_roundtrip(&[1.0, 1.0]);
        check_roundtrip(&[0.5, 0.25, 0.125, 0.125]);
        check_roundtrip(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
    }

    #[test]
    fn prepares_vectors_with_negative_entries() {
        check_roundtrip(&[1.0, -1.0]);
        check_roundtrip(&[0.5, -0.25, -0.125, 0.125]);
        check_roundtrip(&[-3.0, 1.0, -4.0, 1.0, -5.0, 9.0, -2.0, 6.0]);
    }

    #[test]
    fn prepares_sparse_vectors() {
        check_roundtrip(&[0.0, 1.0, 0.0, 0.0]);
        check_roundtrip(&[0.0, 0.0, 0.0, -2.0]);
        check_roundtrip(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn prepares_random_vectors_of_various_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        for &n in &[1usize, 2, 3, 4, 5] {
            let v: Vec<f64> = (0..(1 << n)).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_roundtrip(&v);
        }
    }

    #[test]
    fn single_qubit_case() {
        check_roundtrip(&[0.6, 0.8]);
        check_roundtrip(&[0.6, -0.8]);
    }

    #[test]
    fn classical_cost_is_linear_in_n() {
        let v16 = Vector::from_f64_slice(&[1.0; 16]);
        let v64 = Vector::from_f64_slice(&vec![1.0; 64]);
        let p16 = StatePreparation::new(&v16);
        let p64 = StatePreparation::new(&v64);
        assert!(p64.classical_flops > p16.classical_flops);
        // O(N): the ratio should be ≈ 4, certainly below 8.
        assert!((p64.classical_flops as f64 / p16.classical_flops as f64) < 8.0);
    }

    #[test]
    fn circuit_size_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let v: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let prep = StatePreparation::new(&Vector::from_f64_slice(&v));
        let circuit = prep.circuit();
        assert_eq!(circuit.num_qubits(), 4);
        assert!(circuit.gate_count() > 0);
    }

    #[test]
    #[should_panic]
    fn zero_vector_rejected() {
        let _ = StatePreparation::new(&Vector::from_f64_slice(&[0.0, 0.0]));
    }

    #[test]
    fn non_power_of_two_lengths_are_zero_padded() {
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        for (len, qubits) in [(3, 2), (5, 3), (6, 3), (7, 3)] {
            let v: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_roundtrip(&v);
            let prep = StatePreparation::new(&Vector::from_f64_slice(&v));
            assert_eq!(prep.num_qubits, qubits, "length {len}");
            assert_eq!(prep.circuit().num_qubits(), qubits, "length {len}");
        }
    }
}
