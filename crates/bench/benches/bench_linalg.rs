//! Criterion micro-benchmarks of the dense linear-algebra substrate:
//! LU factorisation/solve, SVD, matrix generation and classical
//! mixed-precision iterative refinement (the CPU side of Algorithm 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qls_bench::paper_test_system;
use qls_linalg::{ClassicalRefiner, LuFactorization, RefinementOptions, Svd};

fn bench_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/lu");
    group.sample_size(20);
    for &n in &[16usize, 32, 64] {
        let (a, b) = paper_test_system(n, 100.0, 1);
        group.bench_with_input(BenchmarkId::new("factor+solve", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = LuFactorization::new(&a).unwrap();
                std::hint::black_box(lu.solve(&b).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/svd");
    group.sample_size(10);
    for &n in &[16usize, 32] {
        let (a, _) = paper_test_system(n, 100.0, 2);
        group.bench_with_input(BenchmarkId::new("jacobi", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(Svd::new(&a).cond()))
        });
    }
    group.finish();
}

fn bench_classical_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/classical_mixed_precision_ir");
    group.sample_size(20);
    let (a, b) = paper_test_system(32, 100.0, 3);
    group.bench_function("f32_inner_solver_to_1e-12", |bench| {
        bench.iter(|| {
            let refiner = ClassicalRefiner::<f64, f32>::new(
                &a,
                RefinementOptions {
                    target_scaled_residual: 1e-12,
                    max_iterations: 20,
                },
            )
            .unwrap();
            std::hint::black_box(refiner.solve(&b).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lu, bench_svd, bench_classical_refinement);
criterion_main!(benches);
