//! Criterion micro-benchmarks of the SIMD kernel bodies against their
//! bit-identical scalar oracles, at the layer where the vectorization
//! actually lives: statevector gate sweeps (`qls_sim::simd` vs the scalar
//! loops behind [`with_scalar_kernels`]), the CSR SpMV
//! (`SparseMatrix::matvec` vs `matvec_scalar`) and the dense matvec/matmul
//! (`Matrix::matvec`/`matmul` vs their `_scalar` twins).  Everything runs
//! single-threaded — the ratios are pure kernel-body arithmetic, the same
//! quantity the `simd_vs_scalar_speedup` fields of `bench_json` record
//! end-to-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qls_bench::random_circuit;
use qls_linalg::{poisson_2d, Matrix, Vector};
use qls_sim::{with_scalar_kernels, CompiledCircuit, StateVector};

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/statevector");
    group.sample_size(20);
    for &n in &[10usize, 14] {
        let circ = random_circuit(n, 60, 20260808);
        let compiled = CompiledCircuit::compile(&circ);
        group.bench_with_input(BenchmarkId::new("simd", n), &n, |b, _| {
            b.iter(|| {
                let mut sv = StateVector::zero_state(n);
                compiled.apply(&mut sv);
                std::hint::black_box(sv.probability(0))
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                with_scalar_kernels(|| {
                    let mut sv = StateVector::zero_state(n);
                    compiled.apply(&mut sv);
                    std::hint::black_box(sv.probability(0))
                })
            })
        });
    }
    group.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/spmv");
    group.sample_size(20);
    for &g in &[32usize, 64] {
        let n = g * g;
        let csr = poisson_2d::<f64>(g, g, false);
        let x: Vector<f64> = (0..n).map(|i| ((i % 101) as f64 / 101.0) - 0.5).collect();
        group.bench_with_input(BenchmarkId::new("simd", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(csr.matvec(&x)))
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(csr.matvec_scalar(&x)))
        });
    }
    group.finish();
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/dense");
    group.sample_size(20);
    let n = 192usize;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 101) as f64 / 101.0 - 0.5);
    let m = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 89) as f64 / 89.0 - 0.5);
    let x: Vector<f64> = (0..n).map(|i| ((i % 97) as f64 / 97.0) - 0.5).collect();
    group.bench_with_input(BenchmarkId::new("matvec_simd", n), &n, |b, _| {
        b.iter(|| std::hint::black_box(a.matvec(&x)))
    });
    group.bench_with_input(BenchmarkId::new("matvec_scalar", n), &n, |b, _| {
        b.iter(|| std::hint::black_box(a.matvec_scalar(&x)))
    });
    group.bench_with_input(BenchmarkId::new("matmul_simd", n), &n, |b, _| {
        b.iter(|| std::hint::black_box(a.matmul(&m)))
    });
    group.bench_with_input(BenchmarkId::new("matmul_scalar", n), &n, |b, _| {
        b.iter(|| std::hint::black_box(a.matmul_scalar(&m)))
    });
    group.finish();
}

criterion_group!(benches, bench_statevector, bench_spmv, bench_dense);
criterion_main!(benches);
