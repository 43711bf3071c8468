//! Property tests: every specialized in-place kernel agrees with the seed's
//! retained generic gate-application path to 1e-12 on random circuits mixing
//! controlled/uncontrolled, diagonal, permutation and dense gates over 1–10
//! qubits, from random (normalised) start states.

use num_complex::Complex64;
use qls_sim::kernels::reference;
use qls_sim::{CMatrix, Circuit, CompiledCircuit, Gate, Operation, StateVector};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random dense 1-qubit unitary (product of the three rotation generators).
fn random_1q_unitary(rng: &mut ChaCha8Rng) -> CMatrix {
    let rz1 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    let ry = Gate::Ry(rng.gen_range(-3.0..3.0)).matrix();
    let rz2 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    rz1.matmul(&ry).matmul(&rz2)
}

/// A random dense k-qubit unitary built from tensor products of random
/// 1-qubit unitaries interleaved with SWAP mixing (unitary by construction,
/// dense enough to exercise every entry of the generic kernel).
fn random_dense_unitary(k: usize, rng: &mut ChaCha8Rng) -> CMatrix {
    let mut u = random_1q_unitary(rng);
    for _ in 1..k {
        u = u.kron(&random_1q_unitary(rng));
    }
    if k == 2 {
        u = u.matmul(&Gate::Swap.matrix());
        let v = random_1q_unitary(rng).kron(&random_1q_unitary(rng));
        u = u.matmul(&v);
    }
    u
}

/// Sample `count` distinct qubit indices from `0..n`.
fn distinct_qubits(n: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    assert!(count <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

/// Append one random operation, mixing every kernel class: identity, dense
/// single-qubit, diagonal, phase-shift, permutation (X/SWAP), dense k-qubit
/// unitaries — each with a random (possibly empty) control set.
fn push_random_op(circ: &mut Circuit, n: usize, rng: &mut ChaCha8Rng) {
    let max_targets = n.min(3);
    let (gate, arity): (Gate, usize) = match rng.gen_range(0..13u32) {
        0 => (Gate::I, 1),
        1 => (Gate::X, 1),
        2 => (Gate::Y, 1),
        3 => (Gate::Z, 1),
        4 => (Gate::H, 1),
        5 => (
            [Gate::S, Gate::Sdg, Gate::T, Gate::Tdg][rng.gen_range(0..4usize)].clone(),
            1,
        ),
        6 => (Gate::Rx(rng.gen_range(-3.0..3.0)), 1),
        7 => (Gate::Ry(rng.gen_range(-3.0..3.0)), 1),
        8 => (Gate::Rz(rng.gen_range(-3.0..3.0)), 1),
        9 => (Gate::Phase(rng.gen_range(-3.0..3.0)), 1),
        10 => (Gate::GlobalPhase(rng.gen_range(-3.0..3.0)), 1),
        11 if n >= 2 => (Gate::Swap, 2),
        12 if max_targets >= 2 => {
            let k = rng.gen_range(2..=max_targets);
            (Gate::Unitary(random_dense_unitary(k, rng)), k)
        }
        _ => (Gate::Unitary(random_1q_unitary(rng)), 1),
    };
    let free = n - arity;
    let num_controls = if free == 0 {
        0
    } else {
        // Bias towards 0–2 controls; occasionally more.
        rng.gen_range(0..=free.min(3))
    };
    let qubits = distinct_qubits(n, arity + num_controls, rng);
    let (targets, controls) = qubits.split_at(arity);
    circ.push(Operation::new(gate, targets.to_vec(), controls.to_vec()));
}

/// A random normalised start state (so 1e-12 is a meaningful tolerance).
fn random_state(n: usize, rng: &mut ChaCha8Rng) -> StateVector {
    let amps: Vec<Complex64> = (0..1usize << n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    StateVector::from_amplitudes(amps)
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (x - y).norm())
        .fold(0.0, f64::max)
}

#[test]
fn random_circuits_match_reference_on_1_to_10_qubits() {
    let mut rng = ChaCha8Rng::seed_from_u64(20260728);
    for n in 1..=10usize {
        for rep in 0..8 {
            let ops = 5 + 3 * n;
            let mut circ = Circuit::new(n);
            for _ in 0..ops {
                push_random_op(&mut circ, n, &mut rng);
            }
            let start = random_state(n, &mut rng);

            let mut fast = start.clone();
            fast.apply_circuit(&circ);
            let mut slow = start.clone();
            reference::apply_circuit(&mut slow, &circ);

            let diff = max_amp_diff(&fast, &slow);
            assert!(
                diff < 1e-12,
                "kernel dispatch deviates from the generic path by {diff} \
                 (n = {n}, rep = {rep}, {ops} ops)"
            );
        }
    }
}

#[test]
fn compiled_circuit_matches_reference_column_by_column() {
    // The compile-once/apply-many path of `circuit_unitary` must agree with
    // per-column generic application (catches any state carried between
    // applications, e.g. a stale scratch buffer).
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 5;
    let mut circ = Circuit::new(n);
    for _ in 0..25 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let compiled = CompiledCircuit::compile(&circ);
    for col in 0..1usize << n {
        let mut fast = StateVector::basis_state(n, col);
        compiled.apply(&mut fast);
        let mut slow = StateVector::basis_state(n, col);
        reference::apply_circuit(&mut slow, &circ);
        assert!(max_amp_diff(&fast, &slow) < 1e-12, "column {col} deviates");
    }
}

#[test]
fn unitarity_is_preserved_by_long_random_circuits() {
    // All specialized kernels are unitary maps, so norms must survive hundreds
    // of applications without drift beyond roundoff.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let n = 6;
    let mut circ = Circuit::new(n);
    for _ in 0..300 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let mut sv = random_state(n, &mut rng);
    sv.apply_circuit(&circ);
    assert!((sv.norm() - 1.0).abs() < 1e-11);
}

#[test]
fn probability_of_one_matches_filtered_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    for n in 1..=8usize {
        let sv = random_state(n, &mut rng);
        for q in 0..n {
            let mask = 1usize << q;
            let expected: f64 = sv
                .amplitudes()
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            let got = sv.probability_of_one(q);
            assert!(
                (got - expected).abs() < 1e-13,
                "n = {n}, q = {q}: {got} vs {expected}"
            );
        }
    }
}

#[test]
fn apply_circuit_is_linear_without_normalisation() {
    // The rewritten path must act linearly on arbitrary, non-normalised
    // inputs (no normalise/renormalise round trip).
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let n = 4;
    let mut circ = Circuit::new(n);
    for _ in 0..20 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let apply = |input: &[Complex64]| {
        let mut sv = StateVector::from_amplitudes_unchecked(input.to_vec());
        sv.apply_circuit(&circ);
        sv.into_amplitudes()
    };
    let input: Vec<Complex64> = (0..1usize << n)
        .map(|_| Complex64::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
        .collect();
    let scale = Complex64::new(-2.5, 1.25);
    let scaled: Vec<Complex64> = input.iter().map(|a| a * scale).collect();

    let out = apply(&input);
    let out_scaled = apply(&scaled);
    for (a, b) in out.iter().zip(&out_scaled) {
        assert!((a * scale - b).norm() < 1e-11);
    }

    // And the zero vector maps to the zero vector.
    let zeros = apply(&vec![Complex64::new(0.0, 0.0); 1 << n]);
    assert!(zeros.iter().all(|a| a.norm() == 0.0));
}
