//! Cold-vs-warm equivalence of the persistent artifact cache (`qls_cache`):
//! a warm construction must perform zero phase-factor generations and zero
//! fusion passes, and everything downstream — phase angles (via the raw QSVT
//! circuit), solve directions, refinement histories — must be bit-identical
//! to the cold build, with the cache enabled or disabled.  A phase entry
//! that is not what the phase solver returns is regenerated, never
//! replayed, and a replay the caller rejects counts as a miss, not a hit.
//!
//! Every test runs against its own temp directory through `with_cache_dir`
//! (a thread-local override), so parallel tests never share cache state and
//! the user's real `~/.cache/qls` is never touched.

use qls::cache::{CacheStore, Fingerprint};
use qls::prelude::*;
use qls::qsvt::phases::{QspPhases, PHASES_CACHE_KIND, PHASES_CACHE_VERSION};
use qls::sim::{ExecMode, OptLevel};
use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qls-warm-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_system(n: usize, kappa: f64, seed: u64) -> (Matrix<f64>, Vector<f64>) {
    let mut rng = experiment_rng(seed);
    let a = random_matrix_with_cond(
        n,
        kappa,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(n, &mut rng);
    (a, b)
}

fn bits(v: &Vector<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn qsvt_inverter_warm_replay_is_bit_identical_and_regenerates_nothing() {
    let dir = test_dir("inverter");
    let (a, b) = test_system(8, 8.0, 1);
    with_cache_dir(&dir, || {
        let (p0, f0) = (phase_generation_count(), fusion_pass_count());
        let cold = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        assert_eq!(
            phase_generation_count(),
            p0 + 1,
            "cold build generates phases once"
        );
        assert_eq!(fusion_pass_count(), f0 + 1, "cold build fuses once");

        let (p1, f1) = (phase_generation_count(), fusion_pass_count());
        let (h1, m1) = (cache_hit_count(), cache_miss_count());
        let warm = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        assert_eq!(
            phase_generation_count(),
            p1,
            "warm build must not regenerate phase factors"
        );
        assert_eq!(
            fusion_pass_count(),
            f1,
            "warm build must not rerun the fusion pass"
        );
        assert_eq!(cache_hit_count(), h1 + 2, "phases + fused circuit hits");
        assert_eq!(cache_miss_count(), m1, "warm build must not miss");

        // The raw QSVT circuits agree exactly — the projector-rotation
        // angles inside are the phase factors, so this is the bit-identity
        // of the cached phases.
        assert_eq!(
            cold.qsvt_circuit().unwrap().circuit(),
            warm.qsvt_circuit().unwrap().circuit(),
            "replayed phases must reproduce the identical circuit"
        );
        assert_eq!(cold.circuit_stats(), warm.circuit_stats());
        let (x_cold, s_cold) = cold.solve_direction(&b).unwrap();
        let (x_warm, s_warm) = warm.solve_direction(&b).unwrap();
        assert_eq!(bits(&x_cold), bits(&x_warm));
        assert_eq!(s_cold.to_bits(), s_warm.to_bits());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solver_and_refiner_warm_builds_regenerate_nothing() {
    let dir = test_dir("layers");
    let (a, b) = test_system(8, 4.0, 2);
    let solver_options = QsvtSolverOptions {
        mode: QsvtMode::CircuitReal,
        ..Default::default()
    };
    let refiner_options = HybridRefinementOptions {
        target_epsilon: 1e-8,
        epsilon_l: 0.05,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
        ..Default::default()
    };
    with_cache_dir(&dir, || {
        // One cold construction per layer populates the store…
        let _ = QsvtLinearSolver::new(&a, 0.05, solver_options).unwrap();
        let _ = HybridRefiner::new(&a, refiner_options).unwrap();
        // …then every layer's second construction is pure replay.
        let (p, f) = (phase_generation_count(), fusion_pass_count());
        let solver = QsvtLinearSolver::new(&a, 0.05, solver_options).unwrap();
        let refiner = HybridRefiner::new(&a, refiner_options).unwrap();
        assert_eq!(
            phase_generation_count(),
            p,
            "warm solver/refiner must not regenerate phase factors"
        );
        assert_eq!(
            fusion_pass_count(),
            f,
            "warm solver/refiner must not rerun the fusion pass"
        );
        // The replayed engines still solve.
        let mut rng = experiment_rng(3);
        let result = solver.solve(&b, &mut rng).unwrap();
        assert!(scaled_residual(&a, &result.solution, &b).is_finite());
        let (_, history) = refiner.solve(&b, &mut rng).unwrap();
        assert_eq!(history.status, HybridStatus::Converged);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refinement_histories_are_bit_identical_cold_vs_warm() {
    let dir = test_dir("history");
    let (a, b) = test_system(8, 8.0, 4);
    let options = HybridRefinementOptions {
        target_epsilon: 1e-10,
        epsilon_l: 0.05,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            ..Default::default()
        },
        ..Default::default()
    };
    with_cache_dir(&dir, || {
        let cold = HybridRefiner::new(&a, options).unwrap();
        let (x_cold, h_cold) = cold.solve(&b, &mut experiment_rng(5)).unwrap();
        let warm = HybridRefiner::new(&a, options).unwrap();
        let (x_warm, h_warm) = warm.solve(&b, &mut experiment_rng(5)).unwrap();
        assert_eq!(bits(&x_cold), bits(&x_warm));
        assert_eq!(h_cold.status, h_warm.status);
        assert_eq!(h_cold.steps.len(), h_warm.steps.len());
        for (s_cold, s_warm) in h_cold.steps.iter().zip(&h_warm.steps) {
            assert_eq!(
                s_cold.scaled_residual.to_bits(),
                s_warm.scaled_residual.to_bits(),
                "iteration {}",
                s_cold.iteration
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_enabled_cold_path_matches_cache_disabled_bit_identically() {
    let dir = test_dir("disabled");
    let (a, b) = test_system(8, 8.0, 6);
    let enabled_options = QsvtSolverOptions {
        mode: QsvtMode::CircuitReal,
        ..Default::default()
    };
    let disabled_options = QsvtSolverOptions {
        cache: CachePolicy::Disabled,
        ..enabled_options
    };
    with_cache_dir(&dir, || {
        let (h0, m0) = (cache_hit_count(), cache_miss_count());
        let off = QsvtLinearSolver::new(&a, 0.05, disabled_options).unwrap();
        assert_eq!(
            (cache_hit_count(), cache_miss_count()),
            (h0, m0),
            "CachePolicy::Disabled must never touch the store"
        );
        let on = QsvtLinearSolver::new(&a, 0.05, enabled_options).unwrap(); // cold: misses + stores
        let off_result = off.solve(&b, &mut experiment_rng(7)).unwrap();
        let on_result = on.solve(&b, &mut experiment_rng(7)).unwrap();
        assert_eq!(bits(&off_result.solution), bits(&on_result.solution));
        assert_eq!(
            scaled_residual(&a, &off_result.solution, &b).to_bits(),
            scaled_residual(&a, &on_result.solution, &b).to_bits()
        );
        // And the warm replay of the enabled path stays on those same bits.
        let warm = QsvtLinearSolver::new(&a, 0.05, enabled_options).unwrap();
        let warm_result = warm.solve(&b, &mut experiment_rng(7)).unwrap();
        assert_eq!(bits(&off_result.solution), bits(&warm_result.solution));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one `qsvt-phases` entry stored under `dir`.
fn phases_entry(dir: &Path) -> PathBuf {
    let mut entries = Vec::new();
    for version in std::fs::read_dir(dir.join("qsvt-phases")).unwrap() {
        for entry in std::fs::read_dir(version.unwrap().path()).unwrap() {
            entries.push(entry.unwrap().path());
        }
    }
    assert_eq!(entries.len(), 1, "one phases entry: {entries:?}");
    entries.pop().unwrap()
}

/// An edit of a stored phase list and degree.
type Corruption = fn(&mut Vec<String>, &mut usize);

/// Rewrite the phase list and the degree of a stored `qsvt-phases` entry
/// through `edit`, leaving the envelope (schema, key) and the other fields
/// as written.  The payload's fields are in declaration order, so the
/// phase list comes first and the degree last.
fn rewrite_phases(entry: &Path, edit: Corruption) {
    let text = std::fs::read_to_string(entry).unwrap();
    let value = |name: &str, end: char| {
        let start = text.find(&format!("\"{name}\":")).expect(name) + name.len() + 3;
        start..start + text[start..].find(end).unwrap()
    };
    let (list, degree_at) = (value("phases", ']'), value("degree", '}'));
    assert!(list.end < degree_at.start, "phases precede degree");
    let mut phases: Vec<String> = text[list.start + 1..list.end]
        .split(',')
        .filter(|p| !p.is_empty())
        .map(String::from)
        .collect();
    let mut degree: usize = text[degree_at.clone()].parse().unwrap();
    edit(&mut phases, &mut degree);
    let out = format!(
        "{}[{}{}{degree}{}",
        &text[..list.start],
        phases.join(","),
        &text[list.end..degree_at.start],
        &text[degree_at.end..]
    );
    std::fs::write(entry, out).unwrap();
}

#[test]
fn corrupt_phase_entries_are_regenerated_not_replayed() {
    // A phase entry that decodes but is not what `find_phases` returns used
    // to reach circuit assembly: too few phases panicked the constructor, a
    // wrong-length vector built a circuit of another degree, and a NaN
    // phase poisoned every solve.  Each is now a miss: the inverter builds,
    // solves bit-identically to an uncached build, and the entry is
    // overwritten with the regenerated phases.
    let dir = test_dir("corrupt-phases");
    let (a, b) = test_system(4, 4.0, 8);
    let uncached = QsvtInverter::with_config(
        &a,
        0.05,
        QsvtMode::CircuitReal,
        OptLevel::Fuse,
        ExecMode::Flat,
        CachePolicy::Disabled,
    )
    .unwrap();
    let (x_ref, s_ref) = uncached.solve_direction(&b).unwrap();
    let corruptions: [(&str, Corruption); 5] = [
        ("no phases", |p, _| p.clear()),
        ("the single phase [0.5]", |p, _| *p = vec!["0.5".into()]),
        ("one phase short", |p, _| {
            p.pop();
        }),
        ("a NaN phase", |p, _| p[1] = "NaN".into()),
        ("a consistent entry of degree d - 2", |p, d| {
            p.truncate(p.len() - 2);
            *d -= 2;
        }),
    ];
    with_cache_dir(&dir, || {
        QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        let entry = phases_entry(&dir);
        let pristine = std::fs::read_to_string(&entry).unwrap();
        for (what, corrupt) in corruptions {
            rewrite_phases(&entry, corrupt);
            assert_ne!(std::fs::read_to_string(&entry).unwrap(), pristine);
            let inverter = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let (x, s) = inverter.solve_direction(&b).unwrap();
            assert_eq!(bits(&x), bits(&x_ref), "{what}");
            assert_eq!(s.to_bits(), s_ref.to_bits(), "{what}");
            assert_eq!(
                std::fs::read_to_string(&entry).unwrap(),
                pristine,
                "{what}: the regenerated phases overwrite the entry"
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_replay_of_another_degree_counts_as_a_miss() {
    // A self-consistent phase entry of degree d - 2, stored through the
    // cache under the target's key (so its checksum holds), decodes but
    // fails the degree check: the rebuild regenerates the phases and counts
    // that lookup as a miss.  The fused circuit of the regenerated phases is
    // the cold build's, so its lookup is the one hit.
    let dir = test_dir("rejected-replay");
    let (a, b) = test_system(4, 4.0, 8);
    with_cache_dir(&dir, || {
        let cold = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        let d = cold.resources().degree;
        let entry = phases_entry(&dir);
        let stem = entry.file_stem().unwrap().to_str().unwrap();
        let key = Fingerprint(u128::from_str_radix(stem, 16).unwrap());
        let shorter = QspPhases {
            phases: vec![0.0; d - 1],
            residual: 0.0,
            iterations: 1,
            degree: d - 2,
        };
        assert!(CacheStore::at(&dir).store(PHASES_CACHE_KIND, PHASES_CACHE_VERSION, key, &shorter));
        let (h, m, g) = (
            cache_hit_count(),
            cache_miss_count(),
            phase_generation_count(),
        );
        let warm = QsvtInverter::new(&a, 0.05, QsvtMode::CircuitReal).unwrap();
        assert_eq!(
            (
                cache_hit_count() - h,
                cache_miss_count() - m,
                phase_generation_count() - g
            ),
            (1, 1, 1),
            "(hits, misses, phase generations) of the rebuild"
        );
        let (x_cold, s_cold) = cold.solve_direction(&b).unwrap();
        let (x_warm, s_warm) = warm.solve_direction(&b).unwrap();
        assert_eq!(bits(&x_warm), bits(&x_cold));
        assert_eq!(s_warm.to_bits(), s_cold.to_bits());
    });
    let _ = std::fs::remove_dir_all(&dir);
}
