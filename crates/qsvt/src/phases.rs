//! Symmetric QSP phase-factor computation.
//!
//! Given a real target polynomial `f` with definite parity, degree `d` and
//! `|f(x)| ≤ 1` on [-1, 1] (for the linear solver, the normalised inverse
//! polynomial of Eq. (4)), find a *symmetric* phase vector
//! `Φ = (φ_0, …, φ_d)`, `φ_k = φ_{d−k}`, such that
//! `Re ⟨0|U_Φ(x)|0⟩ = f(x)`.
//!
//! This follows the approach the paper uses for small condition numbers
//! (its Ref. \[13\], Dong–Lin–Ni–Wang): symmetric QSP turns phase finding into a
//! square nonlinear system `F(ψ) = c`, where `ψ` is the reduced (half) phase
//! vector measured from the reference point `Φ* = (π/4, 0, …, 0, π/4)` and `c`
//! collects the Chebyshev coefficients of `f` with the right parity.  The
//! system is solved by a full-step quasi-Newton iteration from `ψ = 0`.  The
//! Jacobian there, `J(0)`, is well-conditioned and nonzero only on its
//! diagonal and anti-diagonal, so grouped finite differences (Curtis, Powell
//! & Reid, 1974) recover it from three evaluations of `F` instead of
//! `dim + 1`; a dense finite-difference Jacobian replaces it whenever
//! convergence stalls.  Each evaluation of `F` runs the QSP product at all
//! of the solver's nodes at once.  For the very high degrees needed by large
//! condition numbers the paper switches to the estimation method of its
//! Ref. \[32\]; this reproduction switches to the matrix-function emulation
//! path instead ([`crate::solve`]'s `Emulation` mode, which applies the
//! polynomial to the singular values), so the solver here only needs to be
//! robust for moderate degrees.

#[cfg(test)]
use crate::qsp::qsp_real_polynomial;
use crate::qsp::qsp_real_polynomials;
use qls_cache::{CachePolicy, CacheStore, FingerprintBuilder};
use qls_linalg::{LuFactorization, Matrix, Vector};
use qls_poly::{ChebyshevSeries, Parity};
use serde::Serialize;
use std::cell::Cell;

/// Cache kind under which computed phase vectors are stored (see
/// [`find_phases_cached`] and the `qls-cache` crate docs for the
/// fingerprint scheme).
pub const PHASES_CACHE_KIND: &str = "qsvt-phases";
/// Entry-format version of the phase store; bump to orphan old entries.
/// Changing the phase solver (its constants included), the fingerprint
/// recipe of [`find_phases_cached`] or the entry format needs a bump (3:
/// entries carry a payload checksum; 4: grouped J(0)).
pub const PHASES_CACHE_VERSION: u32 = 4;

thread_local! {
    /// Phase-factor generations performed by this thread, for cache-contract
    /// tests (mirrors `qls_sim::circuit_compile_count`).
    static PHASE_GENERATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Number of phase-factor generations (actual quasi-Newton runs, cache hits
/// excluded) performed so far by the calling thread.  Read it around a code
/// region to verify the "warm construction never regenerates" contract.
pub fn phase_generation_count() -> usize {
    PHASE_GENERATIONS.with(|c| c.get())
}

/// Convergence tolerance on the coefficient residual (∞-norm).  Changing
/// it needs a bump of [`PHASES_CACHE_VERSION`].
const TOLERANCE: f64 = 1e-11;

/// Maximum number of quasi-Newton iterations.  Changing it needs a bump of
/// [`PHASES_CACHE_VERSION`].
const MAX_ITERATIONS: usize = 200;

/// Refresh the finite-difference Jacobian when the residual decreases by
/// less than this factor between iterations.  Changing it needs a bump of
/// [`PHASES_CACHE_VERSION`].
const STALL_FACTOR: f64 = 0.9;

/// Finite-difference step of both Jacobians.  Changing it needs a bump of
/// [`PHASES_CACHE_VERSION`].
const STEP: f64 = 1e-6;

/// The phase solver has no settings: it runs full (undamped) quasi-Newton
/// steps with the constants above.  This empty struct stays only because
/// the benchmark harness in `perfbench/` passes it to [`find_phases`] and
/// [`find_phases_cached`], and goes once that harness stops naming it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseFindingOptions;

/// Why phase finding failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseError {
    /// The target polynomial has no definite parity.
    MixedParity,
    /// The target exceeds 1 in magnitude on [-1, 1] (violates the QSP model).
    NotBounded {
        /// The measured maximum magnitude.
        max_abs: f64,
    },
    /// The iteration did not reach the tolerance.
    NotConverged {
        /// The final residual.
        residual: f64,
    },
    /// The target polynomial is empty.
    EmptyTarget,
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::MixedParity => write!(f, "target polynomial has mixed parity"),
            PhaseError::NotBounded { max_abs } => {
                write!(
                    f,
                    "target polynomial reaches magnitude {max_abs} > 1 on [-1, 1]"
                )
            }
            PhaseError::NotConverged { residual } => {
                write!(
                    f,
                    "phase iteration did not converge (residual {residual:.3e})"
                )
            }
            PhaseError::EmptyTarget => write!(f, "target polynomial is empty"),
        }
    }
}

impl std::error::Error for PhaseError {}

/// A computed symmetric phase vector together with solver diagnostics.
#[derive(Debug, Clone, Serialize)]
pub struct QspPhases {
    /// Full phase vector `(φ_0, …, φ_d)` in the Wx convention.
    pub phases: Vec<f64>,
    /// Final ∞-norm residual on the Chebyshev coefficients.
    pub residual: f64,
    /// Number of quasi-Newton iterations used.
    pub iterations: usize,
    /// Degree of the realised polynomial.
    pub degree: usize,
}

// Deserialize is hand-written (Serialize is derived) so a decoded entry
// holds what `find_phases` returns: `degree + 1 ≥ 2` finite phases and a
// finite residual.  Anything else is a decode error, which the cache
// treats as a miss — a short vector used to panic circuit assembly, a
// wrong-length one built a circuit of another degree than the resource
// record reports, and a NaN phase poisoned every solve.
impl<'de> serde::Deserialize<'de> for QspPhases {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        let phases = Vec::<f64>::deserialize(value.field("QspPhases", "phases")?)?;
        let residual = f64::deserialize(value.field("QspPhases", "residual")?)?;
        let iterations = usize::deserialize(value.field("QspPhases", "iterations")?)?;
        let degree = usize::deserialize(value.field("QspPhases", "degree")?)?;
        let fail = |why: &str| Err(serde::DeError::new(format!("QspPhases: {why}")));
        if phases.len() < 2 {
            return fail("fewer than 2 phases");
        }
        if phases.len() - 1 != degree {
            return fail("phase count is not degree + 1");
        }
        if !phases.iter().all(|p| p.is_finite()) || !residual.is_finite() {
            return fail("non-finite phase or residual");
        }
        Ok(QspPhases {
            phases,
            residual,
            iterations,
            degree,
        })
    }
}

impl QspPhases {
    /// Maximum deviation `|Re⟨0|U_Φ(x)|0⟩ − f(x)|` over a uniform grid: the
    /// oracle of the phase-solver tests.
    #[cfg(test)]
    fn verify_against(&self, target: &ChebyshevSeries, samples: usize) -> f64 {
        (0..samples)
            .map(|i| -1.0 + 2.0 * i as f64 / (samples - 1) as f64)
            .map(|x| (qsp_real_polynomial(&self.phases, x) - target.eval(x)).abs())
            .fold(0.0, f64::max)
    }
}

/// Internal helper: the reduced-phase → full-phase expansion around the
/// reference point `Φ* = (π/4, 0, …, 0, π/4)`.
fn expand_phases(reduced: &[f64], degree: usize) -> Vec<f64> {
    let mut full = vec![0.0; degree + 1];
    for (k, slot) in full.iter_mut().enumerate() {
        let idx = k.min(degree - k);
        *slot = reduced[idx];
    }
    full[0] += std::f64::consts::FRAC_PI_4;
    full[degree] += std::f64::consts::FRAC_PI_4;
    full
}

/// Internal helper shared by the solver: evaluate the parity-restricted
/// Chebyshev coefficients of `Re⟨0|U_Φ(x)|0⟩` for reduced phases `ψ`.
struct CoefficientMap {
    degree: usize,
    nodes: Vec<f64>,
    /// LU factorisation of the node/basis matrix `M[k][j] = T_{2j+parity}(x_k)`.
    basis_lu: LuFactorization<f64>,
}

impl CoefficientMap {
    fn new(degree: usize, parity: usize, dim: usize) -> Self {
        // Positive Chebyshev-type nodes, one per unknown coefficient.
        let nodes: Vec<f64> = (0..dim)
            .map(|k| ((2 * k + 1) as f64 * std::f64::consts::PI / (4.0 * dim as f64)).cos())
            .collect();
        // `chebyshev_t(n, x) = cos(n·arccos x)` on these nodes (all in
        // (0, 1)), with each node's arccos taken once.
        let angles: Vec<f64> = nodes.iter().map(|x| x.acos()).collect();
        let basis = Matrix::from_fn(dim, dim, |k, j| ((2 * j + parity) as f64 * angles[k]).cos());
        let basis_lu = LuFactorization::new(&basis).expect("Chebyshev basis matrix is nonsingular");
        CoefficientMap {
            degree,
            nodes,
            basis_lu,
        }
    }

    /// Coefficients (c_{parity}, c_{parity+2}, …) of a scalar function from
    /// its samples at the solver nodes.
    fn project(&self, samples: Vec<f64>) -> Vector<f64> {
        self.basis_lu
            .solve(&Vector::from(samples))
            .expect("basis solve")
    }

    /// F(ψ): coefficients realised by the reduced phases ψ.
    fn realised(&self, reduced: &[f64]) -> Vector<f64> {
        let full = expand_phases(reduced, self.degree);
        self.project(qsp_real_polynomials(&full, &self.nodes))
    }

    /// Finite-difference Jacobian of F at ψ: `dim + 1` evaluations.
    fn jacobian(&self, reduced: &[f64]) -> Matrix<f64> {
        let m = reduced.len();
        let base = self.realised(reduced);
        let mut jac = Matrix::zeros(m, m);
        let mut perturbed = reduced.to_vec();
        for j in 0..m {
            perturbed[j] += STEP;
            let shifted = self.realised(&perturbed);
            perturbed[j] = reduced[j];
            for i in 0..m {
                jac[(i, j)] = (shifted[i] - base[i]) / STEP;
            }
        }
        jac
    }

    /// The Jacobian at ψ = 0 from grouped differences (Curtis, Powell &
    /// Reid, 1974), given `start = F(0)`.  At ψ = 0 column `j` is zero off
    /// rows `j` and `dim − 1 − j`, so the columns `j < ⌈dim/2⌉` touch
    /// disjoint rows and share one perturbation, and the others share a
    /// second: three evaluations instead of `dim + 1`.
    fn starting_jacobian(&self, start: &Vector<f64>) -> Matrix<f64> {
        let dim = start.len();
        let half = dim.div_ceil(2);
        let mut jac = Matrix::zeros(dim, dim);
        for group in [0..half, half..dim] {
            let mut perturbed = vec![0.0; dim];
            perturbed[group.clone()].fill(STEP);
            let shifted = self.realised(&perturbed);
            for j in group {
                for i in [j, dim - 1 - j] {
                    jac[(i, j)] = (shifted[i] - start[i]) / STEP;
                }
            }
        }
        jac
    }

    /// Full-step quasi-Newton iteration for `F(ψ) = c` from ψ = 0, given
    /// `start = F(0)` and the Jacobian `jac0` there.  The Jacobian is
    /// refreshed by finite differences whenever the residual stalls.
    fn solve(
        &self,
        c: &Vector<f64>,
        start: Vector<f64>,
        jac0: &Matrix<f64>,
    ) -> Result<QspPhases, PhaseError> {
        let mut reduced = vec![0.0f64; c.len()];
        let mut jac_lu = LuFactorization::new(jac0).map_err(|_| PhaseError::NotConverged {
            residual: f64::INFINITY,
        })?;
        // `realised` is always F(reduced).  `iterations` is the number of
        // residual checks at convergence (the steps taken plus one), and
        // the cap otherwise.
        let mut realised = start;
        let mut previous = f64::INFINITY;
        let mut iterations = MAX_ITERATIONS;
        for it in 0..MAX_ITERATIONS {
            let residual = &realised - c;
            let norm = residual.norm_inf();
            if norm <= TOLERANCE {
                iterations = it + 1;
                break;
            }
            // Refresh the Jacobian when progress stalls.
            if norm > previous * STALL_FACTOR {
                jac_lu = LuFactorization::new(&self.jacobian(&reduced))
                    .map_err(|_| PhaseError::NotConverged { residual: norm })?;
            }
            previous = norm;
            let step = jac_lu
                .solve(&residual)
                .map_err(|_| PhaseError::NotConverged { residual: norm })?;
            for (r, s) in reduced.iter_mut().zip(step.iter()) {
                *r -= s;
            }
            realised = self.realised(&reduced);
        }

        // Final residual check (a NaN residual fails it too).
        let residual = (&realised - c).norm_inf();
        if residual.is_nan() || residual > TOLERANCE * 10.0 {
            return Err(PhaseError::NotConverged { residual });
        }
        Ok(QspPhases {
            phases: expand_phases(&reduced, self.degree),
            residual,
            iterations,
            degree: self.degree,
        })
    }
}

/// Find symmetric QSP phases realising the target Chebyshev series.  The
/// options are empty (see [`PhaseFindingOptions`]).
pub fn find_phases(
    target: &ChebyshevSeries,
    _options: &PhaseFindingOptions,
) -> Result<QspPhases, PhaseError> {
    PHASE_GENERATIONS.with(|c| c.set(c.get() + 1));
    if target.is_empty() || target.coeffs.iter().all(|&c| c == 0.0) {
        return Err(PhaseError::EmptyTarget);
    }
    let degree = target.degree();
    let parity = degree % 2;
    match target.parity(1e-12) {
        Parity::Odd if parity == 1 => {}
        Parity::Even if parity == 0 => {}
        _ => return Err(PhaseError::MixedParity),
    }
    let max_abs = target.max_abs_on_interval(2001);
    if max_abs > 1.0 + 1e-9 {
        return Err(PhaseError::NotBounded { max_abs });
    }

    // Number of unknowns = number of parity-compatible coefficients up to d.
    let dim = degree / 2 + 1;
    let map = CoefficientMap::new(degree, parity, dim);

    // Target coefficients in the same (node-projected) representation.
    let c = map.project(map.nodes.iter().map(|&x| target.eval(x)).collect());

    // Quasi-Newton iteration from ψ = 0 (the zero polynomial).
    let start = map.realised(&vec![0.0; dim]);
    let jac0 = map.starting_jacobian(&start);
    map.solve(&c, start, &jac0)
}

/// The phase-cache key: the full coefficient vector by `f64` bit pattern
/// (which already encodes κ, ε and the degree for the solver's inversion
/// polynomial) — the complete input set of the pure function
/// [`find_phases`], whose constants [`PHASES_CACHE_VERSION`] covers.
fn phases_fingerprint(target: &ChebyshevSeries) -> qls_cache::Fingerprint {
    let mut b = FingerprintBuilder::new(PHASES_CACHE_KIND);
    b.write_f64_slice(&target.coeffs);
    b.finish()
}

/// [`find_phases`] behind the persistent artifact cache: a warm lookup
/// replays the cold run's exact phase vector (bit-identical, and
/// [`PhaseError`]-free since only successes are stored) without running the
/// quasi-Newton solver.  With [`CachePolicy::Disabled`] — or when no cache
/// directory resolves — this is exactly [`find_phases`].
///
/// An entry that does not decode into a well-formed [`QspPhases`] is a
/// miss, and so is one whose degree differs from `target`'s: either way
/// the phases are regenerated, the entry is overwritten, and only
/// `cache_miss_count` ticks.
pub fn find_phases_cached(
    target: &ChebyshevSeries,
    options: &PhaseFindingOptions,
    policy: CachePolicy,
) -> Result<QspPhases, PhaseError> {
    let store = match policy {
        CachePolicy::Enabled => CacheStore::open(),
        CachePolicy::Disabled => None,
    };
    let Some(store) = store else {
        return find_phases(target, options);
    };
    let key = phases_fingerprint(target);
    let degree = target.degree();
    if let Some(phases) = store.load(
        PHASES_CACHE_KIND,
        PHASES_CACHE_VERSION,
        key,
        |p: &QspPhases| p.degree == degree,
    ) {
        return Ok(phases);
    }
    let phases = find_phases(target, options)?;
    store.store(PHASES_CACHE_KIND, PHASES_CACHE_VERSION, key, &phases);
    Ok(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_poly::{interpolate, InversePolynomial};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The coefficient map, the target coefficients and `F(0)` for a
    /// target, as `find_phases` builds them.
    fn problem(target: &ChebyshevSeries) -> (CoefficientMap, Vector<f64>, Vector<f64>) {
        let degree = target.degree();
        let dim = degree / 2 + 1;
        let map = CoefficientMap::new(degree, degree % 2, dim);
        let c = map.project(map.nodes.iter().map(|&x| target.eval(x)).collect());
        let start = map.realised(&vec![0.0; dim]);
        (map, c, start)
    }

    /// Inverse-polynomial targets of degrees 19, 31, 37, 51, 83, 117
    /// (the `circuit_exact` benchmark's) and 133.
    fn inverse_targets() -> Vec<ChebyshevSeries> {
        [
            (2.0, 0.1),
            (2.0, 0.01),
            (3.0, 0.05),
            (4.0, 0.05),
            (6.0, 0.05),
            (8.0, 0.05),
            (8.0, 0.02),
        ]
        .map(|(kappa, epsilon)| InversePolynomial::new(kappa, epsilon).series)
        .to_vec()
    }

    #[test]
    fn grouped_starting_jacobian_gives_the_dense_ones_phases() {
        for target in inverse_targets() {
            let (map, c, start) = problem(&target);
            let dense = map.jacobian(&vec![0.0; c.len()]);
            let grouped = map.solve(&c, start.clone(), &map.starting_jacobian(&start));
            let grouped = grouped.expect("grouped J(0)");
            let reference = map.solve(&c, start, &dense).expect("dense J(0)");
            let degree = grouped.degree;
            assert_eq!(grouped.iterations, reference.iterations, "degree {degree}");
            let gap = grouped
                .phases
                .iter()
                .zip(&reference.phases)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(gap <= 1e-15, "degree {degree}: max |Δφ| = {gap:e}");
            let found = find_phases(&target, &PhaseFindingOptions).expect("phases");
            assert_eq!(found.phases, grouped.phases, "find_phases groups J(0)");
        }
    }

    #[test]
    fn starting_jacobian_is_diagonal_plus_anti_diagonal() {
        // The structure the grouped differences rest on, read off the dense
        // differences.
        for target in inverse_targets() {
            let (map, c, _) = problem(&target);
            let dim = c.len();
            let dense = map.jacobian(&vec![0.0; dim]);
            for i in 0..dim {
                for j in (0..dim).filter(|&j| j != i && j != dim - 1 - i) {
                    let entry = dense[(i, j)];
                    assert!(entry.abs() <= 1e-9, "dim {dim}: J[{i}][{j}] = {entry:e}");
                }
            }
        }
    }

    #[test]
    fn batched_evaluation_matches_the_per_node_product_bit_for_bit() {
        // The solver's nodes (block remainders included) and a grid with
        // the clamped ends, under the reference phases (exact zeros inside)
        // and random ones.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let grid: Vec<f64> = (0..=20).map(|i| -1.0 + 0.1 * i as f64).collect();
        for degree in [1, 2, 9, 20, 117] {
            let dim = degree / 2 + 1;
            let map = CoefficientMap::new(degree, degree % 2, dim);
            let random: Vec<f64> = (0..=degree).map(|_| rng.gen_range(-3.2..3.2)).collect();
            for phases in [expand_phases(&vec![0.0; dim], degree), random] {
                for xs in [&map.nodes, &grid] {
                    let batched = qsp_real_polynomials(&phases, xs);
                    for (&x, value) in xs.iter().zip(batched) {
                        let expected = qsp_real_polynomial(&phases, x);
                        assert_eq!(
                            value.to_bits(),
                            expected.to_bits(),
                            "degree {degree}, x {x}"
                        );
                    }
                }
            }
        }
    }

    fn check_target(target: &ChebyshevSeries, tol: f64) -> QspPhases {
        let phases = find_phases(target, &PhaseFindingOptions).expect("phase finding");
        let err = phases.verify_against(target, 801);
        assert!(err < tol, "verification error {err}");
        // Symmetry of the phase vector.
        let d = phases.degree;
        for k in 0..=d {
            assert!(
                (phases.phases[k] - phases.phases[d - k]).abs() < 1e-9,
                "phases not symmetric at {k}"
            );
        }
        phases
    }

    #[test]
    fn finds_phases_for_scaled_t1() {
        let target = ChebyshevSeries::new(vec![0.0, 0.6]);
        check_target(&target, 1e-9);
    }

    #[test]
    fn finds_phases_for_scaled_t3() {
        let target = ChebyshevSeries::new(vec![0.0, 0.0, 0.0, 0.55]);
        check_target(&target, 1e-9);
    }

    #[test]
    fn finds_phases_for_odd_combination() {
        let target = ChebyshevSeries::new(vec![0.0, 0.3, 0.0, -0.2, 0.0, 0.15]);
        check_target(&target, 1e-9);
    }

    #[test]
    fn finds_phases_for_even_polynomial() {
        let target = ChebyshevSeries::new(vec![0.1, 0.0, 0.4, 0.0, -0.25]);
        check_target(&target, 1e-9);
    }

    #[test]
    fn finds_phases_for_smooth_interpolated_function() {
        // 0.5·sin(2x) has odd parity; interpolate and symmetrise to odd degree 9.
        let raw = interpolate(|x: f64| 0.5 * (2.0 * x).sin(), 10);
        let mut coeffs = raw.coeffs.clone();
        for c in coeffs.iter_mut().step_by(2) {
            *c = 0.0;
        }
        let target = ChebyshevSeries::new(coeffs);
        check_target(&target, 1e-8);
    }

    #[test]
    fn finds_phases_for_inverse_polynomial_small_kappa() {
        // The normalised 1/(2κx) approximation for κ = 2 at modest accuracy has
        // a small enough degree for the circuit-path phase solver.
        let inv = InversePolynomial::new(2.0, 1e-2);
        let mut target = inv.series.clone();
        // Extra safety margin so |f| ≤ 1 holds strictly inside (-1/κ, 1/κ) too.
        target.scale(0.5);
        let phases = check_target(&target, 1e-7);
        assert_eq!(phases.degree, inv.degree());
        // The realised polynomial therefore approximates 0.5/(2κ x) on the domain.
        for i in 0..50 {
            let x = 0.5 + 0.5 * i as f64 / 49.0;
            let expected = 0.5 / (2.0 * 2.0 * x);
            assert!(
                (qsp_real_polynomial(&phases.phases, x) - expected).abs() < 2e-2,
                "x = {x}"
            );
        }
    }

    #[test]
    fn rejects_mixed_parity() {
        let target = ChebyshevSeries::new(vec![0.3, 0.3]);
        assert!(matches!(
            find_phases(&target, &PhaseFindingOptions),
            Err(PhaseError::MixedParity)
        ));
    }

    #[test]
    fn rejects_unbounded_target() {
        let target = ChebyshevSeries::new(vec![0.0, 1.7]);
        match find_phases(&target, &PhaseFindingOptions) {
            Err(PhaseError::NotBounded { max_abs }) => assert!(max_abs > 1.5),
            other => panic!("expected NotBounded, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_target() {
        let target = ChebyshevSeries::new(vec![0.0, 0.0]);
        assert!(matches!(
            find_phases(&target, &PhaseFindingOptions),
            Err(PhaseError::EmptyTarget)
        ));
    }

    #[test]
    fn reference_expansion_is_symmetric() {
        let full = expand_phases(&[0.1, 0.2, 0.3], 5);
        assert_eq!(full.len(), 6);
        assert!((full[0] - (0.1 + std::f64::consts::FRAC_PI_4)).abs() < 1e-15);
        assert!((full[5] - (0.1 + std::f64::consts::FRAC_PI_4)).abs() < 1e-15);
        assert_eq!(full[1], 0.2);
        assert_eq!(full[4], 0.2);
        assert_eq!(full[2], 0.3);
        assert_eq!(full[3], 0.3);
    }
}
