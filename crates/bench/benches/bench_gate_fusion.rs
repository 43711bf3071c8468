//! Criterion micro-benchmarks of the circuit-optimizer pass
//! (`qls_sim::fuse`): fused vs unoptimized compile-once execution on
//! representative workloads, plus the one-time cost of the pass itself.

use criterion::{criterion_group, criterion_main, Criterion};
use qls_sim::{Circuit, CompiledCircuit, QuantumExecutor, StateVector};

/// A projector-rotation-shaped workload (the QSVT inner-loop pattern):
/// X-conjugated controlled phases between dense single-qubit layers.
fn phase_block_circuit(num_qubits: usize, blocks: usize) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for k in 0..blocks {
        let phi = 0.07 * k as f64 - 1.3;
        c.gate(qls_sim::Gate::GlobalPhase(-phi), &[0]);
        c.x(num_qubits - 1);
        c.phase(num_qubits - 1, 2.0 * phi);
        c.x(num_qubits - 1);
        for q in 0..num_qubits {
            c.ry(q, 0.1 * (k + q) as f64);
        }
    }
    c
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    let cases: Vec<(&str, Circuit)> = vec![
        ("layered_12q", qls_bench::layered_circuit(12, 6)),
        ("random_12q", qls_bench::random_circuit(12, 150, 7)),
        ("phase_blocks_10q", phase_block_circuit(10, 30)),
    ];
    let mut group = c.benchmark_group("sim/gate_fusion");
    group.sample_size(30);
    for (name, circ) in &cases {
        let fused = QuantumExecutor::new(circ);
        let raw = CompiledCircuit::compile(circ);
        let input = StateVector::zero_state(circ.num_qubits());
        group.bench_function(format!("{name}/fused"), |b| {
            b.iter(|| std::hint::black_box(fused.run(&input)))
        });
        group.bench_function(format!("{name}/unfused"), |b| {
            b.iter(|| {
                let mut state = input.clone();
                raw.apply(&mut state);
                std::hint::black_box(state)
            })
        });
        group.bench_function(format!("{name}/optimize_pass"), |b| {
            b.iter(|| std::hint::black_box(qls_sim::optimize_circuit_for(circ, circ.num_qubits())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fused_vs_unfused);
criterion_main!(benches);
