//! Criterion micro-benchmarks of the finite-shot readout.
//!
//! `sample_direction` at N = 16, the end-to-end benchmark's register, with
//! 10², 10⁴ (the benchmark's readout) and 10⁶ shots.  It draws the counts
//! as N conditional binomials, so the three times should be about equal:
//! the cost follows N, not the shot count.  `ChaCha8Rng::next_u64` × 10⁴
//! is the floor a sampler that drew one word per shot would pay at 10⁴
//! shots.

use criterion::{criterion_group, criterion_main, Criterion};
use qls_bench::paper_test_system;
use qls_core::sample_direction;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_sample_direction(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout/sample_direction");
    group.sample_size(200);
    let (_, b) = paper_test_system(16, 8.0, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for shots in [100, 10_000, 1_000_000] {
        group.bench_function(format!("n16_shots{shots}"), |bench| {
            bench.iter(|| std::hint::black_box(sample_direction(&b, shots, &mut rng)))
        });
    }
    group.finish();
}

fn bench_next_u64(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout/chacha8_next_u64");
    group.sample_size(200);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    group.bench_function("draws10000", |bench| {
        bench.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sample_direction, bench_next_u64);
criterion_main!(benches);
