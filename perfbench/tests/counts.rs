//! Count determinism: every count metric of a run is a function of its seed.
//!
//! Each short run builds its solver on a fresh thread against a fresh cache
//! directory, as a separate process would, so the fused circuit is
//! re-derived (including the timing-based fusion calibration) every time.

use qls_cache::with_cache_dir;
use qls_perfbench::scratch::Scratch;
use qls_perfbench::{fused_ops, Bench, Workload};

/// RHS of the short run (two batches of the batched workload).
const POOL: usize = 32;

/// The counts the benchmark reports: `be_calls_per_rhs`, `shots_per_rhs`,
/// `iterations_per_rhs`, `linalg.brent_evals_per_rhs`, `qsvt.degree` and
/// `sim.fused_ops`, plus the RHS stream itself.
#[derive(Debug, PartialEq)]
struct Counts {
    be_calls_per_rhs: f64,
    shots_per_rhs: f64,
    iterations_per_rhs: f64,
    brent_evals_per_rhs: f64,
    degree: usize,
    fused_ops: usize,
    rhs: Vec<Vec<f64>>,
}

fn short_run(workload: Workload, seed: u64, scratch: &Scratch) -> Counts {
    let dir = scratch.fresh_dir("counts");
    std::thread::scope(|s| {
        s.spawn(|| {
            with_cache_dir(&dir, || {
                let bench = Bench::with_rhs(workload, seed, POOL);
                let tally = bench.counting_pass();
                assert_eq!(tally.rhs, POOL);
                assert_eq!(tally.failed, 0, "{} seed {seed}", workload.name());
                Counts {
                    be_calls_per_rhs: tally.per_rhs(tally.be_calls),
                    shots_per_rhs: tally.per_rhs(tally.shots),
                    iterations_per_rhs: tally.per_rhs(tally.iterations),
                    brent_evals_per_rhs: tally.per_rhs(tally.brent_evals),
                    degree: bench.refiner.solver().quantum_resources().degree,
                    fused_ops: fused_ops(&bench.refiner),
                    rhs: bench.pool.iter().map(|b| b.as_slice().to_vec()).collect(),
                }
            })
        })
        .join()
        .expect("short run")
    })
}

#[test]
fn counts_repeat_for_one_seed_and_the_seed_reaches_the_rhs_stream() {
    let scratch = Scratch::create("count-determinism").expect("scratch directory");
    for workload in Workload::ALL {
        let first = short_run(workload, 7, &scratch);
        let again = short_run(workload, 7, &scratch);
        assert_eq!(
            first,
            again,
            "{}: counts moved between runs",
            workload.name()
        );
        let other = short_run(workload, 8, &scratch);
        assert_ne!(
            first.rhs,
            other.rhs,
            "{}: another seed must draw another RHS stream",
            workload.name()
        );
    }
}
