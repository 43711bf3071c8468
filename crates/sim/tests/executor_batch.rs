//! Batched-execution regression tests for the compile-once engine
//! ([`qls_sim::QuantumExecutor`]): `run_batch` must produce amplitudes
//! **bit-identical** to a sequential loop of `run` at every worker count,
//! whether the batch fan-out engages (many registers, one per worker) or not
//! (few registers / little work, a plain loop) — and executing must never
//! recompile.

use num_complex::Complex64;
use qls_sim::{
    circuit_compile_count, Circuit, Gate, QuantumExecutor, StateVector, PARALLEL_WORK_THRESHOLD,
};
use rayon::ThreadPoolBuilder;

/// A circuit exercising every kernel class on `n` qubits.
fn mixed_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.rz(0, 0.7)
        .t(n - 1)
        .x(2 % n)
        .swap(0, n - 1)
        .cry(n / 2, (n / 2 + 1) % n, -0.6);
    let h = Gate::H.matrix();
    let hh = h.kron(&h).matmul(&Gate::Swap.matrix());
    c.gate(Gate::Unitary(hh), &[0, n - 1]);
    c
}

fn batch_inputs(n: usize, count: usize) -> Vec<StateVector> {
    (0..count)
        .map(|i| {
            let dim = 1usize << n;
            // Deterministic non-trivial amplitudes, different per register.
            let amps: Vec<Complex64> = (0..dim)
                .map(|k| {
                    let x = ((k * 37 + i * 101) % 113) as f64 / 113.0 - 0.5;
                    let y = ((k * 53 + i * 29) % 97) as f64 / 97.0 - 0.5;
                    Complex64::new(x, y)
                })
                .collect();
            StateVector::from_amplitudes(amps)
        })
        .collect()
}

fn run_batch_with_threads(
    exec: &QuantumExecutor,
    inputs: &[StateVector],
    threads: usize,
) -> Vec<Vec<Complex64>> {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| {
            let mut batch = inputs.to_vec();
            exec.run_batch(&mut batch);
            batch
                .into_iter()
                .map(StateVector::into_amplitudes)
                .collect()
        })
}

#[test]
fn run_batch_is_bit_identical_to_sequential_runs_at_any_thread_count() {
    // Large enough that the batch fan-out engages: per-register work is
    // ops x free-indices, and 12 registers of a 10-qubit mixed circuit
    // comfortably clear PARALLEL_WORK_THRESHOLD in total.
    let n = 10;
    let circ = mixed_circuit(n);
    let exec = QuantumExecutor::new(&circ);
    let inputs = batch_inputs(n, 12);
    assert!(
        exec.compiled().work_estimate(1 << n) * inputs.len() >= PARALLEL_WORK_THRESHOLD,
        "batch must be above the fan-out threshold for this test to bite"
    );

    // Sequential reference: one register at a time, single-threaded.
    let reference: Vec<Vec<Complex64>> = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| {
            inputs
                .iter()
                .map(|s| exec.run(s).into_amplitudes())
                .collect()
        });

    for threads in [1, 2, 3, 8] {
        let batched = run_batch_with_threads(&exec, &inputs, threads);
        assert_eq!(
            reference, batched,
            "batched amplitudes differ from the sequential loop at {threads} threads"
        );
    }
}

#[test]
fn small_batches_below_threshold_also_match() {
    // Tiny work: the batch path falls back to the sequential loop — results
    // must still be identical.
    let n = 4;
    let circ = mixed_circuit(n);
    let exec = QuantumExecutor::new(&circ);
    let inputs = batch_inputs(n, 3);
    let reference: Vec<Vec<Complex64>> = inputs
        .iter()
        .map(|s| exec.run(s).into_amplitudes())
        .collect();
    for threads in [1, 4] {
        let batched = run_batch_with_threads(&exec, &inputs, threads);
        assert_eq!(reference, batched);
    }
}

#[test]
fn executing_never_compiles() {
    let circ = mixed_circuit(6);
    let before = circuit_compile_count();
    let exec = QuantumExecutor::new(&circ);
    assert_eq!(circuit_compile_count(), before + 1, "new() compiles once");

    let inputs = batch_inputs(6, 5);
    let mut batch = inputs.clone();
    let after_compile = circuit_compile_count();
    exec.run_batch(&mut batch);
    for s in &inputs {
        let _ = exec.run(s);
    }
    assert_eq!(
        circuit_compile_count(),
        after_compile,
        "run/run_batch must not recompile the circuit"
    );
}

#[test]
fn run_batch_vec_returns_states_in_order() {
    let circ = mixed_circuit(5);
    let exec = QuantumExecutor::new(&circ);
    let inputs = batch_inputs(5, 4);
    let outputs = exec.run_batch_vec(inputs.clone());
    for (input, output) in inputs.iter().zip(&outputs) {
        assert_eq!(exec.run(input).amplitudes(), output.amplitudes());
    }
}
