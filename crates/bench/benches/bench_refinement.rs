//! Criterion benchmarks of the full hybrid solver (Algorithm 2), the workload
//! behind Figs. 3 and 4: end-to-end refinement runs at the paper's problem
//! size for several (κ, ε_l) settings, plus the HHL baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qls_bench::{experiment_rng, paper_test_system};
use qls_core::{HhlSolver, HybridRefinementOptions, HybridRefiner};
use qls_linalg::generate::{random_matrix_with_cond, MatrixEnsemble, SingularValueDistribution};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_hybrid_refinement(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/hybrid_refinement_fig3");
    group.sample_size(10);
    for &epsilon_l in &[1e-2f64, 1e-4] {
        let (a, b) = paper_test_system(16, 10.0, 9);
        let refiner = HybridRefiner::new(
            &a,
            HybridRefinementOptions {
                target_epsilon: 1e-11,
                epsilon_l,
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::new("kappa10_eps1e-11_eps_l", format!("{epsilon_l:.0e}")),
            &epsilon_l,
            |bench, _| {
                bench.iter(|| {
                    let mut rng = experiment_rng(1);
                    std::hint::black_box(refiner.solve(&b, &mut rng).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_large_kappa(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/hybrid_refinement_fig4");
    group.sample_size(10);
    let kappa = 100.0;
    let (a, b) = paper_test_system(16, kappa, 10);
    let refiner = HybridRefiner::new(
        &a,
        HybridRefinementOptions {
            target_epsilon: 1e-11,
            epsilon_l: 0.25 / kappa,
            ..Default::default()
        },
    )
    .unwrap();
    group.bench_function("kappa100", |bench| {
        bench.iter(|| {
            let mut rng = experiment_rng(2);
            std::hint::black_box(refiner.solve(&b, &mut rng).unwrap())
        })
    });
    group.finish();
}

fn bench_hhl_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/hhl_baseline");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let a = random_matrix_with_cond(
        4,
        4.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::SymmetricPositiveDefinite,
        &mut rng,
    );
    let b = qls_linalg::generate::random_unit_vector(4, &mut rng);
    let solver = HhlSolver::new(&a, 6).expect("HHL solver");
    group.bench_function("n4_clock6", |bench| {
        bench.iter(|| std::hint::black_box(solver.solve_direction(&b)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hybrid_refinement,
    bench_large_kappa,
    bench_hhl_baseline
);
criterion_main!(benches);
