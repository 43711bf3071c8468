//! Criterion micro-benchmarks of the structured-operator matvec
//! implementations against the dense kernel: the O(nnz) CSR and tridiagonal
//! products vs the O(N²) dense row product, on the 2-D Poisson problem (the
//! workload whose residual path the operator layer exists to accelerate),
//! plus the residual `r = b − A x` as it appears inside the refinement
//! loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qls_linalg::{poisson_1d, poisson_2d, Vector};

fn grid_vector(n: usize) -> Vector<f64> {
    (0..n).map(|i| ((i % 101) as f64 / 101.0) - 0.5).collect()
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/spmv");
    group.sample_size(20);
    for &g in &[16usize, 32] {
        let n = g * g;
        let csr = poisson_2d::<f64>(g, g, false);
        let dense = csr.to_dense();
        let x = grid_vector(n);
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(dense.matvec(&x)))
        });
        group.bench_with_input(BenchmarkId::new("csr", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(csr.matvec(&x)))
        });
    }
    group.finish();
}

fn bench_tridiagonal(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/spmv_tridiagonal");
    group.sample_size(20);
    for &n in &[1024usize, 16384] {
        let t = poisson_1d::<f64>(n, false);
        let x = grid_vector(n);
        group.bench_with_input(BenchmarkId::new("tridiag", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(t.matvec(&x)))
        });
        let csr = t.to_sparse();
        group.bench_with_input(BenchmarkId::new("csr", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(csr.matvec(&x)))
        });
    }
    group.finish();
}

fn bench_residual(c: &mut Criterion) {
    // The refinement-loop hot path: r = b − A x at high precision.
    let mut group = c.benchmark_group("linalg/residual");
    group.sample_size(20);
    let g = 32usize;
    let n = g * g;
    let csr = poisson_2d::<f64>(g, g, false);
    let dense = csr.to_dense();
    let x = grid_vector(n);
    let b = csr.matvec(&grid_vector(n));
    group.bench_function(format!("dense_{n}"), |bench| {
        bench.iter(|| std::hint::black_box(&b - &dense.matvec(&x)))
    });
    group.bench_function(format!("csr_{n}"), |bench| {
        bench.iter(|| std::hint::black_box(&b - &csr.matvec(&x)))
    });
    group.finish();
}

criterion_group!(benches, bench_spmv, bench_tridiagonal, bench_residual);
criterion_main!(benches);
