//! SIMD ↔ scalar bit-identity: the vectorized kernel bodies of
//! `qls_sim::simd` replicate the scalar loops' per-amplitude operation
//! order exactly, so compiled circuits must produce **bit-identical**
//! amplitudes (`==` on every `f64`, not "close") with the SIMD bodies on
//! or off.  These tests sweep random 1–10-qubit circuits mixing every
//! kernel class — dense single-qubit, diagonal, phase-shift, permutation,
//! k-qubit dense unitaries, each with random control sets — through both
//! the per-gate compiled path and the fused executor path, comparing
//! against the same run under [`with_scalar_kernels`].

use num_complex::Complex64;
use qls_sim::{
    with_scalar_kernels, CMatrix, Circuit, CompiledCircuit, Gate, QuantumExecutor, StateVector,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_1q_unitary(rng: &mut ChaCha8Rng) -> CMatrix {
    let rz1 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    let ry = Gate::Ry(rng.gen_range(-3.0..3.0)).matrix();
    let rz2 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    rz1.matmul(&ry).matmul(&rz2)
}

/// A dense k-qubit unitary (tensor products of random 1-qubit unitaries
/// with SWAP mixing so every matrix entry is generically nonzero).
fn random_dense_unitary(k: usize, rng: &mut ChaCha8Rng) -> CMatrix {
    let mut u = random_1q_unitary(rng);
    for _ in 1..k {
        u = u.kron(&random_1q_unitary(rng));
    }
    if k == 2 {
        u = u.matmul(&Gate::Swap.matrix());
        u = u.matmul(&random_1q_unitary(rng).kron(&random_1q_unitary(rng)));
    }
    u
}

fn distinct_qubits(n: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    (0..count)
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

/// One random operation drawn from every kernel class, with a random
/// (possibly empty) control set so the controlled expand/run paths and the
/// uncontrolled sweeps are both exercised.
fn push_random_op(circ: &mut Circuit, n: usize, rng: &mut ChaCha8Rng) {
    let max_targets = n.min(3);
    let (gate, arity): (Gate, usize) = match rng.gen_range(0..10u32) {
        0 => (Gate::X, 1),
        1 => (Gate::H, 1),
        2 => (Gate::Ry(rng.gen_range(-3.0..3.0)), 1),
        3 => (Gate::Rz(rng.gen_range(-3.0..3.0)), 1),
        4 => (Gate::Phase(rng.gen_range(-3.0..3.0)), 1),
        5 => (
            [Gate::S, Gate::T, Gate::Z][rng.gen_range(0..3usize)].clone(),
            1,
        ),
        6 if n >= 2 => (Gate::Swap, 2),
        7 if max_targets >= 2 => {
            let k = rng.gen_range(2..=max_targets);
            (Gate::Unitary(random_dense_unitary(k, rng)), k)
        }
        _ => (Gate::Unitary(random_1q_unitary(rng)), 1),
    };
    let free = n - arity;
    let num_controls = if free == 0 {
        0
    } else {
        rng.gen_range(0..=free.min(2))
    };
    let qubits = distinct_qubits(n, arity + num_controls, rng);
    let (targets, controls) = qubits.split_at(arity);
    if controls.is_empty() {
        circ.gate(gate, targets);
    } else {
        circ.controlled_gate(gate, targets, controls);
    }
}

fn random_circuit(n: usize, len: usize, rng: &mut ChaCha8Rng) -> Circuit {
    let mut circ = Circuit::new(n);
    for _ in 0..len {
        push_random_op(&mut circ, n, rng);
    }
    circ
}

fn random_state(n: usize, rng: &mut ChaCha8Rng) -> StateVector {
    let amps: Vec<Complex64> = (0..1usize << n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    StateVector::from_amplitudes(amps)
}

#[test]
fn compiled_circuits_are_bit_identical_with_simd_on_or_off() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51D0);
    for n in 1..=10usize {
        for _ in 0..4 {
            let circ = random_circuit(n, 4 + 3 * n, &mut rng);
            let initial = random_state(n, &mut rng);
            let compiled = CompiledCircuit::compile(&circ);
            let mut fast = initial.clone();
            compiled.apply(&mut fast);
            let mut slow = initial.clone();
            with_scalar_kernels(|| compiled.apply(&mut slow));
            assert_eq!(
                fast.amplitudes(),
                slow.amplitudes(),
                "SIMD ≠ scalar on n={n}: {circ:?}"
            );
        }
    }
}

#[test]
fn fused_executor_is_bit_identical_with_simd_on_or_off() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF05E);
    for n in 2..=10usize {
        let circ = random_circuit(n, 5 + 2 * n, &mut rng);
        let initial = random_state(n, &mut rng);
        // Build the executor under scalar kernels too: fusion must not
        // consult the SIMD switch (same fused op list either way).
        let exec = QuantumExecutor::new(&circ);
        let fast = exec.run(&initial);
        let slow = with_scalar_kernels(|| exec.run(&initial));
        assert_eq!(fast.amplitudes(), slow.amplitudes(), "fused n={n}");
    }
}

#[test]
fn unoptimized_path_stays_float_identical_to_the_seed_reference() {
    // The unfused compile is the equivalence oracle: with SIMD on it must still
    // reproduce `StateVector::apply_circuit` exactly (the SIMD bodies
    // replicate the scalar operation order, and no fusion reorders gates).
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A11);
    for n in 1..=8usize {
        let circ = random_circuit(n, 3 + 2 * n, &mut rng);
        let initial = random_state(n, &mut rng);
        let mut via_exec = initial.clone();
        CompiledCircuit::compile(&circ).apply(&mut via_exec);
        let mut direct = initial.clone();
        direct.apply_circuit(&circ);
        assert_eq!(via_exec.amplitudes(), direct.amplitudes(), "raw n={n}");
    }
}
