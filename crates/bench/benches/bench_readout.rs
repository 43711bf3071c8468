//! Criterion micro-benchmarks of the finite-shot readout: `sample_direction`
//! at the end-to-end benchmark's readout (N = 16, 10⁴ shots, one
//! `next_u64` per shot) and the `ChaCha8Rng::next_u64` draw it is built on.
//! Divide a reported time by 10⁴ for the cost per shot or per draw.

use criterion::{criterion_group, criterion_main, Criterion};
use qls_bench::paper_test_system;
use qls_core::sample_direction;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SHOTS: usize = 10_000;

fn bench_sample_direction(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout/sample_direction");
    group.sample_size(200);
    let (_, b) = paper_test_system(16, 8.0, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    group.bench_function("n16_shots10000", |bench| {
        bench.iter(|| std::hint::black_box(sample_direction(&b, SHOTS, &mut rng)))
    });
    group.finish();
}

fn bench_next_u64(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout/chacha8_next_u64");
    group.sample_size(200);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    group.bench_function("draws10000", |bench| {
        bench.iter(|| {
            let mut acc = 0u64;
            for _ in 0..SHOTS {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sample_direction, bench_next_u64);
criterion_main!(benches);
