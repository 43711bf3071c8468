//! Criterion micro-benchmarks of the QSVT layer: symmetric-QSP phase finding,
//! QSVT circuit simulation (circuit mode, small κ) and the emulated
//! application of the inversion polynomial (the mode used by the convergence
//! experiments).

use criterion::{criterion_group, criterion_main, Criterion};
use qls_bench::paper_test_system;
use qls_poly::ChebyshevSeries;
use qls_qsvt::{find_phases, PhaseFindingOptions, QsvtInverter, QsvtMode};

fn bench_phase_finding(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsvt/phase_finding");
    group.sample_size(10);
    let target = ChebyshevSeries::new(vec![0.0, 0.3, 0.0, -0.2, 0.0, 0.15, 0.0, -0.1]);
    group.bench_function("degree_7_odd_target", |bench| {
        bench.iter(|| std::hint::black_box(find_phases(&target, &PhaseFindingOptions).unwrap()))
    });
    group.finish();
}

fn bench_emulated_inversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsvt/emulated_solve");
    group.sample_size(10);
    for &kappa in &[10.0f64, 100.0] {
        let (a, b) = paper_test_system(16, kappa, 7);
        let inverter = QsvtInverter::new(&a, 1e-3, QsvtMode::Emulation).unwrap();
        group.bench_function(format!("kappa_{kappa}"), |bench| {
            bench.iter(|| std::hint::black_box(inverter.solve_direction(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_circuit_mode_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsvt/circuit_mode_solve");
    group.sample_size(10);
    let (a, b) = paper_test_system(4, 2.0, 8);
    let inverter = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
    group.bench_function("kappa_2_n4_full_circuit", |bench| {
        bench.iter(|| std::hint::black_box(inverter.solve_direction(&b).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_phase_finding,
    bench_emulated_inversion,
    bench_circuit_mode_solve
);
criterion_main!(benches);
