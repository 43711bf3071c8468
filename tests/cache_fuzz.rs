//! Seeded fuzzing through the persistent artifact cache: whatever the disk
//! holds under a circuit-mode inverter's two entries (`qsvt-phases` and
//! `fused-circuits`), rebuilding the inverter must not panic.  Every
//! mutated entry fails its payload checksum, so it is a cache miss, never a
//! replay: the rebuilt inverter solves bit-identically to an uncached
//! build.
//!
//! Each mutation starts from the pristine entry, which is restored after
//! the rebuild: bit flips, truncation at a random length, a splice of random
//! bytes, a duplicated span, and once a 4 MiB file of random bytes.

use qls::prelude::*;
use qls::qsvt::QsvtError;
use qls::sim::{ExecMode, OptLevel};
use rand::{Rng, RngCore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Mutations per operator and per entry: 200 per entry in all.
const MUTATIONS: usize = 50;

/// The one entry of cache kind `kind` stored under `dir`.
fn entry(dir: &Path, kind: &str) -> PathBuf {
    let mut entries = Vec::new();
    for version in std::fs::read_dir(dir.join(kind)).unwrap() {
        for file in std::fs::read_dir(version.unwrap().path()).unwrap() {
            entries.push(file.unwrap().path());
        }
    }
    assert_eq!(entries.len(), 1, "one {kind} entry: {entries:?}");
    entries.pop().unwrap()
}

/// A seeded edit of an entry's bytes.
type Mutation = fn(&mut Vec<u8>, &mut rand_chacha::ChaCha8Rng);

fn flip_bits(bytes: &mut [u8], rng: &mut impl Rng) {
    for _ in 0..rng.gen_range(1..=8usize) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8u32);
    }
}

fn truncate(bytes: &mut Vec<u8>, rng: &mut impl Rng) {
    bytes.truncate(rng.gen_range(0..bytes.len()));
}

fn splice_random(bytes: &mut Vec<u8>, rng: &mut impl Rng) {
    let start = rng.gen_range(0..bytes.len());
    let end = rng.gen_range(start..=bytes.len().min(start + 64));
    let mut noise = vec![0u8; rng.gen_range(0..=64usize)];
    rng.fill_bytes(&mut noise);
    bytes.splice(start..end, noise);
}

fn duplicate_span(bytes: &mut Vec<u8>, rng: &mut impl Rng) {
    let start = rng.gen_range(0..bytes.len());
    let end = rng.gen_range(start..=bytes.len());
    let span = bytes[start..end].to_vec();
    let at = rng.gen_range(0..=bytes.len());
    bytes.splice(at..at, span);
}

#[test]
fn mutated_cache_entries_never_panic_the_inverter() {
    let dir = std::env::temp_dir().join(format!("qls-cache-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = experiment_rng(20261018);
    // κ = 2 and ε_l = 0.1 keep the polynomial at degree 19, so a rebuild
    // that misses costs a few milliseconds in the test profile.
    let a = random_matrix_with_cond(
        4,
        2.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(4, &mut rng);
    let build = || QsvtInverter::new(&a, 0.1, QsvtMode::CircuitReal);
    let bits = |inverter: &QsvtInverter| {
        let (x, scale) = inverter.solve_direction(&b).unwrap();
        let mut bits: Vec<u64> = x.as_slice().iter().map(|v| v.to_bits()).collect();
        bits.push(scale.to_bits());
        bits
    };
    let uncached = bits(
        &QsvtInverter::with_config(
            &a,
            0.1,
            QsvtMode::CircuitReal,
            OptLevel::Fuse,
            ExecMode::Flat,
            CachePolicy::Disabled,
        )
        .unwrap(),
    );
    let operators: [(&str, Mutation); 4] = [
        ("bit flips", |bytes, rng| flip_bits(bytes, rng)),
        ("truncation", truncate),
        ("random splice", splice_random),
        ("duplicated span", duplicate_span),
    ];
    with_cache_dir(&dir, || {
        build().expect("cold build");
        let entries = ["qsvt-phases", "fused-circuits"].map(|kind| (kind, entry(&dir, kind)));
        for (kind, path) in entries {
            let pristine = std::fs::read(&path).unwrap();
            let rebuild = |what: &str, bytes: &[u8]| {
                std::fs::write(&path, bytes).unwrap();
                let outcome: Result<Result<QsvtInverter, QsvtError>, _> =
                    catch_unwind(AssertUnwindSafe(build));
                let inverter = outcome
                    .unwrap_or_else(|_| panic!("{kind}, {what}: the rebuild panicked"))
                    .unwrap_or_else(|e| panic!("{kind}, {what}: the rebuild failed: {e}"));
                assert!(
                    bits(&inverter) == uncached,
                    "{kind}, {what}: the rebuild replayed the mutated entry"
                );
                std::fs::write(&path, &pristine).unwrap();
            };
            for (what, mutate) in operators {
                for _ in 0..MUTATIONS {
                    let mut bytes = pristine.clone();
                    mutate(&mut bytes, &mut rng);
                    rebuild(what, &bytes);
                }
            }
            let mut noise = vec![0u8; 4 << 20];
            rng.fill_bytes(&mut noise);
            rebuild("4 MiB of random bytes", &noise);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
