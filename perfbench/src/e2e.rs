//! The end-to-end run (`--trace 0`): what a user of the refiner sees.
//!
//! ## Timings on a shared machine
//!
//! On a shared virtual machine (two threads) the same work was seen to take
//! up to 1.8 times as long from one minute to the next, as other tenants
//! came and went; the circuit workloads' resource walk and fusion feel it
//! most, the emulated polynomial least.  Throughput and the tail are what a
//! user pays, so they are taken over **every timed call**.  The median and
//! the set-up times are the metrics that failed a steadiness check when
//! taken over all samples of a run, so they are taken from the **fastest of
//! repeated timings of identical work**, with the median across distinct
//! pieces of work:
//!
//! * each solve call is fixed by the seed and its index in the RHS pool
//!   ([`crate::call_rng`]), and the timed phase cycles through the pool
//!   many times, so every pool entry has a fastest solve time;
//! * the constructions are identical, and [`SLICES`] cold ones and
//!   [`WARM_PER_SLICE`] times as many warm ones are spread over the run;
//!   [`GROUPS`] groups take every `GROUPS`-th one, so each group's fastest
//!   construction spans the whole run.
//!
//! The timed phase is cut into [`SLICES`] slices of equal solving time,
//! each preceded by one cold and [`WARM_PER_SLICE`] warm constructions.
//!
//! | metric | definition |
//! |---|---|
//! | `rhs_per_s` | RHS solved in the timed phase over the summed wall time of its solve calls |
//! | `solve_ms_p50` | median over pool entries of the fastest time of that entry's solve call (one `solve`, or one `solve_many` batch of 16): 256 entries for the single-solve workloads, 4 batches for `circuit_shots_batched` |
//! | `solve_ms_p90` | p90 over every timed solve call; the run prints the number of calls |
//! | `setup_s` | median over groups of the fastest cold construction: `HybridRefiner::new` on a fresh thread against a fresh, empty cache directory |
//! | `setup_warm_s` | the same for warm constructions, against the directory the run's own solver populated |
//! | `be_calls_per_rhs`, `shots_per_rhs`, `iterations_per_rhs` | means over the untimed counting pass of [`crate::COUNTED_RHS`] RHS, from `SolveCost` and `HybridHistory` |
//! | `ok_rate` | RHS that ended `Converged` within the LU tolerance, over RHS attempted |
//! | `peak_rss_mb` | peak resident set of the process |
//!
//! ## Why the timings are defined this way
//!
//! Simpler definitions were tried and failed a steadiness check (two sets of
//! ten runs of identical code, one seed per run):
//!
//! * `circuit_exact/solve_ms_p50` moved −5.8% between the sets when it was
//!   the median over all timed calls, which follows the machine's speed
//!   during most of the run.  It is now the median over pool entries of
//!   each entry's fastest solve.  Lazy one-time work (SIMD dispatch, fusion
//!   calibration, first-touch pages) finishes in an untimed construction and
//!   the untimed counting pass before timing starts.
//! * `emulated_large_kappa/setup_s` moved +4.8% and its `setup_warm_s`
//!   +7.9% when set-up was one construction per run, a single draw of disk
//!   and scheduler.  Both are now medians of group minima over [`SLICES`]
//!   constructions spread over the run, each on a fresh thread so that every
//!   cold build pays what a new process pays, including the thread-local
//!   fusion calibration.
//! * The machine switches between a fast mode and one about 1.5 times
//!   slower every second or so, in shares that differ from run to run (seen
//!   in every timing of a run: solve slices, warm and cold constructions).
//!   With 40 constructions, five per group, a group often saw no fast
//!   moment, and `circuit_exact/setup_s` and `setup_warm_s` spread 34% and
//!   29% over ten runs; fifteen per group find the fast mode in all but
//!   runs that almost never visit it.
//! * `circuit_shots_batched/solve_ms_p50` spread 20.6% over ten runs when
//!   its pool held 16 batches: a batch call takes 30–50 ms, so each batch
//!   came round only every 0.5–0.8 s, about 35 times in a run, and half of
//!   the batches often missed the fast moments.  The pool now holds four
//!   batches, each timed about as often per second as a single-solve pool
//!   entry.
//! * In the same check `circuit_shots_batched/setup_warm_s` spread 22.9%
//!   with fifteen warm constructions per group.  A warm construction takes
//!   about 3.5 ms, so [`WARM_PER_SLICE`] of them per slice cost about a
//!   second and a half a run and give sixty per group.
//!
//! `rhs_per_s` over all timed calls agreed within 1.2% between the two sets
//! on every workload, so it keeps that definition.  The p90 is taken over
//! all timed calls too, so that a slow path hit by a tenth of the calls, or
//! the jitter of the vendored rayon's per-call thread spawn in
//! `circuit_shots_batched`, shows.
//!
//! Three metrics re-measure others.  The emulated solver never consults the
//! cache, so `emulated_large_kappa/setup_warm_s` re-measures its `setup_s`;
//! `circuit_shots_batched` builds `circuit_exact`'s solver, so its `setup_s`
//! and `setup_warm_s` re-measure that workload's.  Every run prints every
//! end-to-end metric all the same, so that each workload's result line has
//! the same keys.

use crate::scratch::Scratch;
use crate::stats::{median, quantile};
use crate::{
    construct, fused_ops, machine_threads, peak_rss_mb, Bench, Metric, Outcome, Tally, Workload,
};
use qls_cache::with_cache_dir;
use std::time::{Duration, Instant};

/// Slices of the timed phase; also the number of cold constructions timed
/// (fifteen per group).
pub const SLICES: usize = 120;

/// Warm constructions timed per slice (sixty per group).
pub const WARM_PER_SLICE: usize = 4;

/// Groups the constructions are split into (see the module docs).
pub const GROUPS: usize = 8;

/// The fastest sample of each of [`GROUPS`] groups (every `GROUPS`-th one).
fn group_minima(samples: &[f64]) -> Vec<f64> {
    (0..GROUPS)
        .map(|g| {
            samples
                .iter()
                .skip(g)
                .step_by(GROUPS)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Run `workload` end to end for `seconds` of timed solving.
pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let spec = workload.spec();
    let mut notes = vec![format!(
        "workload {} seed {seed}: N={} kappa={} eps_l={:.3e} eps={:.0e} mode={:?} shots={:?} \
         batch={} pool={} tolerance={:.1e}; closed loop, 1 caller, machine_threads={}",
        workload.name(),
        crate::N,
        spec.kappa,
        spec.epsilon_l,
        spec.target_epsilon,
        spec.mode,
        spec.shots,
        spec.batch,
        spec.pool,
        spec.tolerance(),
        machine_threads()
    )];

    // The solver every timed call uses, built cold; its directory is the
    // warm directory of `setup_warm_s`.
    let solver_dir = scratch.fresh_dir("solver");
    let bench = with_cache_dir(&solver_dir, || Bench::new(workload, seed));
    // Untimed pass over every drawn RHS, the timed pool first: counts,
    // correctness, warm-up.
    let counts = bench.counting_pass();

    let calls = spec.calls_per_pass();
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let mut fastest = vec![f64::INFINITY; calls];
    let mut every = Vec::new();
    let (mut cold, mut warm, mut cold_fused) = (Vec::new(), Vec::new(), Vec::new());
    let mut checked = Tally::default();
    let mut timed_call = |checked: &mut Tally| {
        let k = every.len() % calls;
        let t0 = Instant::now();
        let results = bench.solve_call(k);
        let t = t0.elapsed().as_secs_f64();
        fastest[k] = fastest[k].min(t);
        every.push(t);
        bench.check(k, &results, checked);
    };
    for _ in 0..SLICES {
        let dir = scratch.fresh_dir("cold");
        let built = construct(workload, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        cold.push(built.seconds);
        cold_fused.push(built.fused_ops);
        for _ in 0..WARM_PER_SLICE {
            warm.push(construct(workload, &solver_dir).seconds);
        }

        let start = Instant::now();
        while start.elapsed() < slice {
            timed_call(&mut checked);
        }
    }
    // Every pool entry is timed at least once, however slow the solver.
    while checked.rhs < spec.pool {
        timed_call(&mut checked);
    }
    notes.push(format!(
        "timed phase: {} solve calls ({} RHS); solve_ms_p50 over {calls} pool entries, each \
         the fastest of at least {} timed calls; solve_ms_p90 over all {} calls; {SLICES} cold \
         + {} warm constructions in {GROUPS} groups; counts over {} RHS",
        every.len(),
        checked.rhs,
        every.len() / calls,
        every.len(),
        warm.len(),
        counts.rhs
    ));
    notes.push(format!(
        "sim.fused_ops: timed solver {}, cold constructions {cold_fused:?}",
        fused_ops(&bench.refiner)
    ));

    let attempted = counts.rhs + checked.rhs;
    let failed = counts.failed + checked.failed;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new(
                "rhs_per_s",
                checked.rhs as f64 / every.iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new("solve_ms_p50", 1e3 * median(&fastest), "ms"),
            Metric::new("solve_ms_p90", 1e3 * quantile(&every, 0.9), "ms"),
            Metric::new("setup_s", median(&group_minima(&cold)), "s"),
            Metric::new("setup_warm_s", median(&group_minima(&warm)), "s"),
            Metric::new("be_calls_per_rhs", counts.per_rhs(counts.be_calls), "count"),
            Metric::new("shots_per_rhs", counts.per_rhs(counts.shots), "count"),
            Metric::new(
                "iterations_per_rhs",
                counts.per_rhs(counts.iterations),
                "count",
            ),
            Metric::new(
                "ok_rate",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        notes,
    }
}
