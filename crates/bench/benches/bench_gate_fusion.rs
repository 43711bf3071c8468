//! Criterion micro-benchmarks of the circuit-optimizer pass
//! (`qls_sim::fuse`): fused vs unoptimized compile-once execution on
//! representative workloads, plus the one-time cost of the pass itself,
//! there and on the QSVT circuit of the `circuit_exact` benchmark, and that
//! circuit's warm build from the fused-circuit cache.

use criterion::{criterion_group, criterion_main, Criterion};
use qls_encoding::DilationBlockEncoding;
use qls_linalg::Svd;
use qls_poly::InversePolynomial;
use qls_qsvt::{find_phases, PhaseFindingOptions, QsvtCircuit};
use qls_sim::{
    CachePolicy, Circuit, CompiledCircuit, ExecMode, OptLevel, QuantumExecutor, StateVector,
};

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

/// The QSVT circuit the `circuit_exact` benchmark builds: N = 16, κ = 8,
/// matrix seed 1, ε_l = 0.05, so degree 117 and 1184 ops, 234 of them
/// 32×32 block-encoding calls the pass multiplies into the fused block.
fn circuit_exact_qsvt_circuit() -> Circuit {
    let (a, _) = qls_bench::paper_test_system(16, 8.0, 1);
    let svd = Svd::new(&a);
    let poly = InversePolynomial::new(svd.cond(), 0.05);
    let phases = find_phases(&poly.series, &PhaseFindingOptions).expect("phase factors");
    let be = DilationBlockEncoding::of_adjoint(&a, svd.norm2());
    let circuit = QsvtCircuit::with_real_part_extraction(&be, &phases.phases)
        .circuit()
        .clone();
    assert_eq!(circuit.len(), 1184, "the circuit_exact QSVT circuit");
    circuit
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
    let qsvt = circuit_exact_qsvt_circuit();
    group.bench_function("circuit_exact_qsvt/optimize_pass", |b| {
        b.iter(|| std::hint::black_box(qls_sim::optimize_circuit_for(&qsvt, qsvt.num_qubits())))
    });
    // The warm build: fingerprint, read, checksum, decode and compile of
    // the entry the first build stores in a fresh cache directory.
    let dir = std::env::temp_dir().join(format!("qls-bench-warm-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        QuantumExecutor::with_config(&qsvt, OptLevel::Fuse, ExecMode::Flat, CachePolicy::Enabled)
    };
    qls_cache::with_cache_dir(&dir, || {
        build();
        group.bench_function("circuit_exact_qsvt/warm_build", |b| {
            b.iter(|| std::hint::black_box(build()))
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(benches, bench_fused_vs_unfused);
criterion_main!(benches);
