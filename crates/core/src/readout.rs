//! Finite-shot readout of a solution direction: [`sample_direction`] and
//! the exact binomial samplers it draws its outcome counts with.

use qls_linalg::Vector;
use rand::Rng;

/// Simulate a finite-shot readout of a real direction vector: magnitudes
/// are re-estimated as `√(count_i / shots)` from the outcome counts of
/// `shots` measurements in the computational basis, signs are kept from
/// the exact direction, and the result is normalised.
///
/// Each shot lands on basis state `i` with probability `x_i² / ‖x‖²`, and
/// all a readout keeps of its shots is how often each outcome came up: one
/// multinomial draw.  That draw is made directly instead of shot by shot:
/// outcome `i` takes `Bin(shots left, w_i / Σ_{j≥i} w_j)` (conditional
/// binomials; Davis, "The computer generation of multinomial random
/// variates", Comput. Stat. Data Anal. 16, 1993), each binomial drawn
/// exactly, by inversion when its mean is below 10 and by Hörmann's BTRS
/// transformed rejection otherwise ("The generation of binomial random
/// variates", J. Stat. Comput. Simul. 46, 1993).  So a readout costs about
/// `N` binomial draws at any shot count.  How many words it takes from
/// `rng` depends on the counts; the same `rng` state always gives the same
/// readout, and a rescaled `direction` gives the same counts as long as
/// rescaling it is exact (a power of two).
///
/// Input that has no counts to draw takes no word from `rng`:
/// - an empty direction gives the empty vector;
/// - a direction with a NaN or infinite entry gives an all-NaN vector, so a
///   finiteness check after it (the solver's readout guard) fails instead
///   of passing a plausible answer on;
/// - zero shots, or an all-zero direction, give the all-zero vector (no
///   counts means every magnitude is 0).
pub fn sample_direction<R: Rng>(direction: &Vector<f64>, shots: usize, rng: &mut R) -> Vector<f64> {
    let n = direction.len();
    if direction.iter().any(|x| !x.is_finite()) {
        return Vector::from(vec![f64::NAN; n]);
    }
    if n == 0 || shots == 0 {
        return Vector::zeros(n);
    }
    let counts = multinomial(direction.as_slice(), shots, rng);
    let mut sampled: Vector<f64> = counts
        .iter()
        .zip(direction.iter())
        .map(|(&c, &d)| {
            let mag = (c as f64 / shots as f64).sqrt();
            if d < 0.0 {
                -mag
            } else {
                mag
            }
        })
        .collect();
    sampled.normalize();
    sampled
}

/// Outcome counts of `shots` draws that land on `i` with probability
/// `x_i² / ‖x‖²`, for finite `amplitudes`.
///
/// The weights are `w_i = (x_i / max_j |x_j|)²`, so no square overflows,
/// and a square underflows only for an outcome with under 1e-307 of the
/// mass.  The suffix sums `Σ_{j≥i} w_j` run from the end, so each
/// conditional probability is at most 1, and the last outcome with mass
/// gets probability 1 exactly and takes every shot left.  All-zero
/// amplitudes give all-zero counts without drawing.
fn multinomial<R: Rng>(amplitudes: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    let mut counts = vec![0; amplitudes.len()];
    let largest = amplitudes.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    if largest == 0.0 {
        return counts;
    }
    let weight = |x: f64| {
        let r = x / largest;
        r * r
    };
    let mut tail: Vec<f64> = amplitudes
        .iter()
        .rev()
        .scan(0.0, |sum, &x| {
            *sum += weight(x);
            Some(*sum)
        })
        .collect();
    tail.reverse();
    let mut left = shots;
    for ((count, &x), &total) in counts.iter_mut().zip(amplitudes).zip(&tail) {
        // Past the last outcome with mass nothing is left, so a zero
        // `total` is never divided by.
        if left == 0 {
            break;
        }
        *count = binomial(left, weight(x) / total, rng);
        left -= *count;
    }
    counts
}

/// One draw from the binomial distribution `Bin(n, p)`.
///
/// `p ≤ 0` and `p ≥ 1` return 0 and `n` without drawing.  `p > ½` is drawn
/// as `n − Bin(n, 1 − p)` (`1 − p` is exact there), so both samplers below
/// only see `p ≤ ½`, the range BTRS was designed for.
fn binomial<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    // A NaN would fail every comparison below and keep BTRS rejecting
    // forever; `sample_direction` never passes one.
    debug_assert!(p.is_finite(), "binomial probability {p}");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    if n as f64 * p < 10.0 {
        inversion(n, p, rng)
    } else {
        Btrs::new(n, p).sample(rng)
    }
}

/// Inversion for a binomial of mean below 10 (BINV; Kachitvichyanukul &
/// Schmeiser, "Binomial random variate generation", Commun. ACM 31, 1988):
/// walk the pmf up from `f(0) = (1 − p)^n` by the ratio
/// `f(k)/f(k−1) = (n − k + 1)/k · p/(1 − p)` until one uniform is used up.
/// Past `np + 10·√(np(1 − p) + 1)` lies under 1e-13 of the mass, so a walk
/// that gets there is spending rounding error: it restarts with a new
/// uniform.
fn inversion<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    let odds = p / (1.0 - p);
    let mean = n as f64 * p;
    let start = (n as f64 * (-p).ln_1p()).exp();
    let bound = (mean + 10.0 * (mean * (1.0 - p) + 1.0).sqrt()).min(n as f64) as usize;
    'draw: loop {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut f = start;
        let mut k = 0;
        while u > f {
            u -= f;
            k += 1;
            if k > bound {
                continue 'draw;
            }
            f *= (n - k + 1) as f64 / k as f64 * odds;
        }
        return k;
    }
}

/// Hörmann's BTRS sampler for `Bin(n, p)` with `np ≥ 10` and `p ≤ ½`: a
/// transformed-rejection proposal `k = ⌊(2a/u_s + b)·u + c⌋` from two
/// uniforms, accepted at once inside the squeeze `u_s ≥ 0.07, v ≤ v_r` and
/// otherwise by comparing `ln v` against `ln f(k)/f(m)` at the mode `m`.
struct Btrs {
    n: f64,
    a: f64,
    b: f64,
    c: f64,
    v_r: f64,
    alpha: f64,
    odds: f64,
    m: f64,
}

impl Btrs {
    fn new(n: usize, p: f64) -> Self {
        let n = n as f64;
        let spq = (n * p * (1.0 - p)).sqrt();
        let b = 1.15 + 2.53 * spq;
        Btrs {
            n,
            a: -0.0873 + 0.0248 * b + 0.01 * p,
            b,
            c: n * p + 0.5,
            v_r: 0.92 - 4.2 / b,
            alpha: (2.83 + 5.1 / b) * spq,
            odds: p / (1.0 - p),
            m: ((n + 1.0) * p).floor(),
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        loop {
            let u: f64 = rng.gen_range(0.0..1.0) - 0.5;
            let v: f64 = rng.gen_range(0.0..1.0);
            let us = 0.5 - u.abs();
            let k = ((2.0 * self.a / us + self.b) * u + self.c).floor();
            if k < 0.0 || k > self.n {
                continue;
            }
            if us >= 0.07 && v <= self.v_r {
                return k as usize;
            }
            if (v * self.alpha / (self.a / (us * us) + self.b)).ln() <= self.log_ratio(k) {
                return k as usize;
            }
        }
    }

    /// `ln f(k)/f(m)` of the binomial pmf `f` from Stirling's formula with
    /// its exact tail [`stirling_tail`]: the `ln k!` terms grouped so that
    /// no two large logarithms cancel.
    fn log_ratio(&self, k: f64) -> f64 {
        let (n, m, r) = (self.n, self.m, self.odds);
        (m + 0.5) * ((m + 1.0) / (r * (n - m + 1.0))).ln()
            + (n + 1.0) * ((n - m + 1.0) / (n - k + 1.0)).ln()
            + (k + 0.5) * (r * (n - k + 1.0) / (k + 1.0)).ln()
            + stirling_tail(m)
            + stirling_tail(n - m)
            - stirling_tail(k)
            - stirling_tail(n - k)
    }
}

/// `ln k! − ((k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π)` for a whole `k ≥ 0`:
/// tabulated below 10, and the first three terms of Stirling's series
/// `1/12z − 1/360z³ + 1/1260z⁵` at `z = k + 1` above (error < 4e-11).
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.08106146679532726,
        0.0413406959554093,
        0.02767792568499834,
        0.020790672103765093,
        0.016644691189821193,
        0.013876128823070748,
        0.01189670994589177,
        0.010411265261972096,
        0.009255462182712733,
        0.00833056343336287,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let z = k + 1.0;
    let z2 = z * z;
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / z2) / z2) / z
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_linalg::generate::random_unit_vector;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampled_direction_stays_normalised() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let direction = Vector::from_f64_slice(&[0.6, -0.64, 0.48, 0.0]);
        let sampled = sample_direction(&direction, 10_000, &mut rng);
        assert!((sampled.norm2() - 1.0).abs() < 1e-12);
        // Signs preserved.
        assert!(sampled[1] <= 0.0);
        assert!(sampled[0] >= 0.0);
    }

    #[test]
    fn sampling_recovers_every_sign_on_random_directions() {
        // Property: with enough shots the sampled direction never flips a
        // sign on coordinates with non-negligible probability mass.
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let direction = random_unit_vector(16, &mut rng);
            let sampled = sample_direction(&direction, 100_000, &mut rng);
            for (s, d) in sampled.iter().zip(direction.iter()) {
                if d.abs() > 0.05 {
                    assert!(
                        s * d >= 0.0,
                        "seed {seed}: sign flipped on coordinate with mass {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_error_shrinks_with_shot_count() {
        // Property: the readout error follows the O(1/sqrt(shots)) model —
        // averaged over seeds, 100x the shots must cut the error by well
        // over 2x (the theoretical factor is 10x).
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let direction = random_unit_vector(32, &mut rng);
        let mut err_lo = 0.0;
        let mut err_hi = 0.0;
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            err_lo += (&sample_direction(&direction, 1_000, &mut rng) - &direction).norm2();
            err_hi += (&sample_direction(&direction, 100_000, &mut rng) - &direction).norm2();
        }
        assert!(
            err_hi < err_lo / 2.0,
            "100x shots only improved {err_lo:.4} -> {err_hi:.4}"
        );
    }

    #[test]
    fn zero_amplitude_coordinates_never_receive_counts() {
        // Property: a coordinate with zero probability mass can never be hit
        // by the multinomial sampler, at any seed.
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let direction = Vector::from_f64_slice(&[0.8, 0.0, -0.6, 0.0, 0.0, 0.0, 0.0, 0.0]);
            let sampled = sample_direction(&direction, 5_000, &mut rng);
            assert_eq!(sampled[1], 0.0, "seed {seed}");
            for i in 3..8 {
                assert_eq!(sampled[i], 0.0, "seed {seed}, coordinate {i}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let direction = Vector::from_f64_slice(&[0.6, -0.64, 0.48, 0.0]);
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let a = sample_direction(&direction, 10_000, &mut rng_a);
        let b = sample_direction(&direction, 10_000, &mut rng_b);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn empty_and_zero_shot_readouts_draw_no_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut untouched = rng.clone();
        // N = 0 gives the empty vector at any shot count.
        for shots in [0, 1, 10_000] {
            assert!(sample_direction(&Vector::zeros(0), shots, &mut rng).is_empty());
        }
        // Zero shots give no counts, so every magnitude is 0.
        for direction in [vec![0.6, 0.8], vec![0.6, -0.64, 0.48, 0.0]] {
            let sampled = sample_direction(&Vector::from_f64_slice(&direction), 0, &mut rng);
            let bits: Vec<u64> = sampled.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, vec![0; direction.len()], "{direction:?}");
        }
        assert_eq!(rng.next_u64(), untouched.next_u64(), "no word drawn");
    }

    /// The per-shot sampler the conditional binomials replaced, kept as the
    /// oracle of the statistical tests: one `gen_range` draw and one binary
    /// search of the cumulative distribution per shot, behind the empty and
    /// zero-shot guard (without it, zero shots gave 0/0 = NaN magnitudes
    /// and N = 0 indexed past the end).
    fn oracle_sample_direction<R: Rng>(
        direction: &Vector<f64>,
        shots: usize,
        rng: &mut R,
    ) -> Vector<f64> {
        if direction.is_empty() || shots == 0 {
            return Vector::zeros(direction.len());
        }
        let probs: Vec<f64> = direction.iter().map(|&x| x * x).collect();
        let mut counts = vec![0usize; probs.len()];
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for &p in &probs {
            acc += p;
            cdf.push(acc);
        }
        let total = acc.max(1e-300);
        for _ in 0..shots {
            let r: f64 = rng.gen_range(0.0..total);
            let idx = cdf.partition_point(|&c| c < r).min(probs.len() - 1);
            counts[idx] += 1;
        }
        let mut sampled: Vector<f64> = counts
            .iter()
            .zip(direction.iter())
            .map(|(&c, &d)| {
                let mag = (c as f64 / shots as f64).sqrt();
                if d < 0.0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        sampled.normalize();
        sampled
    }

    type Sampler = fn(&Vector<f64>, usize, &mut ChaCha8Rng) -> Vector<f64>;

    /// The sampler under test and its per-shot oracle: every statistical
    /// test below holds both to the same exact distribution.
    const SAMPLERS: [(&str, Sampler); 2] = [
        ("conditional binomials", sample_direction::<ChaCha8Rng>),
        ("per-shot oracle", oracle_sample_direction::<ChaCha8Rng>),
    ];

    /// The counts behind a readout of `shots` shots: `sampled_i² · shots`
    /// is a whole number up to rounding.
    fn counts_of(sampled: &Vector<f64>, shots: usize) -> Vec<usize> {
        sampled
            .iter()
            .map(|s| (s * s * shots as f64).round() as usize)
            .collect()
    }

    /// Pearson's X² of `observed` against `expected` counts, neighbouring
    /// cells merged in order until each expects at least 5.  It fails when
    /// the Chernoff bound `P(χ²_k ≥ x) ≤ (x/k)^{k/2}·e^{(k−x)/2}` at the
    /// statistic is below 1e-6, so a correct sampler fails with probability
    /// at most 1e-6.
    fn assert_fits(observed: &[u64], expected: &[f64], what: &str) {
        let mut cells = Vec::new();
        let mut open = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            open = (open.0 + o as f64, open.1 + e);
            if open.1 >= 5.0 {
                cells.push(open);
                open = (0.0, 0.0);
            }
        }
        let last = cells.last_mut().expect("at least 5 expected draws");
        last.0 += open.0;
        last.1 += open.1;
        assert!(cells.len() >= 2, "{what}: one cell tests nothing");
        let x2: f64 = cells.iter().map(|(o, e)| (o - e) * (o - e) / e).sum();
        let k = (cells.len() - 1) as f64;
        let log_bound = 0.5 * k * (x2 / k).ln() + 0.5 * (k - x2);
        assert!(
            x2 <= k || log_bound > 1e-6_f64.ln(),
            "{what}: X² = {x2:.1} on {k} degrees of freedom, tail bound {:.1e}",
            log_bound.exp()
        );
    }

    /// The pmf of `Bin(n, p)`, walked up from `(1 − p)^n` in log space.
    fn binomial_pmf(n: usize, p: f64) -> impl Iterator<Item = f64> {
        let log_odds = (p / (1.0 - p)).ln();
        (0..=n).scan(n as f64 * (-p).ln_1p(), move |log_f, k| {
            if k > 0 {
                *log_f += ((n - k + 1) as f64 / k as f64).ln() + log_odds;
            }
            Some(log_f.exp())
        })
    }

    #[test]
    fn binomial_draws_fit_the_exact_pmf() {
        const DRAWS: usize = 20_000;
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        // Inversion (the first three), BTRS from its np = 10 boundary up,
        // the benchmark's first conditional binomial (N = 16, 10⁴ shots),
        // the mirror of p > ½, and a large n.  The last is a near-certain
        // outcome: unmirrored, BTRS would see a variance of 0.5, below its
        // design range, and miss the pmf by far.
        for (n, p) in [
            (1, 0.3),
            (20, 0.3),
            (50, 0.1),
            (200, 0.05),
            (10_000, 0.0625),
            (10_000, 0.9),
            (1_000_000, 0.01),
            (100, 0.995),
        ] {
            let mut observed = vec![0; n + 1];
            for _ in 0..DRAWS {
                observed[binomial(n, p, &mut rng)] += 1;
            }
            let expected: Vec<f64> = binomial_pmf(n, p).map(|f| f * DRAWS as f64).collect();
            assert_fits(&observed, &expected, &format!("Bin({n}, {p})"));
        }
    }

    /// BTRS at both ends of its np = 10 boundary, in the benchmark's
    /// regime, at p = ½ and at a large n.
    const BTRS_CASES: [(usize, f64); 5] = [
        (20, 0.5),
        (200, 0.05),
        (10_000, 0.0625),
        (10_000, 0.5),
        (1_000_000, 0.01),
    ];

    #[test]
    fn stirling_tail_matches_ln_factorial_summed_directly() {
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let mut ln_factorial = 0.0;
        for k in 0..=40 {
            let k = f64::from(k);
            if k > 0.0 {
                ln_factorial += k.ln();
            }
            let direct = ln_factorial - ((k + 0.5) * (k + 1.0).ln() - (k + 1.0) + half_ln_2pi);
            // The table is exact; the series above it is off by less than
            // its next term, 1/(1680·11⁷) ≈ 3e-11.
            let tolerance = if k < 10.0 { 1e-14 } else { 1e-10 };
            let got = stirling_tail(k);
            assert!(
                (got - direct).abs() <= tolerance,
                "k = {k}: {got} vs {direct}"
            );
        }
    }

    #[test]
    fn btrs_log_ratio_is_the_exact_log_pmf_ratio_to_the_mode() {
        for (n, p) in BTRS_CASES {
            let btrs = Btrs::new(n, p);
            // ln f(k) − ln f(lo) over ±8 standard deviations, by the ratio
            // of consecutive terms; its maximum is at the mode.
            let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
            let lo = (mean - 8.0 * sd).max(0.0) as usize;
            let hi = ((mean + 8.0 * sd) as usize).min(n);
            let log_odds = (p / (1.0 - p)).ln();
            let walk: Vec<f64> = (lo..=hi)
                .scan(0.0, |log_f, k| {
                    if k > lo {
                        *log_f += ((n - k + 1) as f64 / k as f64).ln() + log_odds;
                    }
                    Some(*log_f)
                })
                .collect();
            let peak = walk.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
            for (k, log_f) in (lo..=hi).zip(&walk) {
                let got = btrs.log_ratio(k as f64);
                assert!(
                    (got - (log_f - peak)).abs() <= 1e-8,
                    "Bin({n}, {p}) at k = {k}: {got} vs {}",
                    log_f - peak
                );
            }
        }
    }

    #[test]
    fn btrs_squeeze_accepts_only_what_the_exact_test_accepts() {
        // Inside the squeeze (u_s ≥ 0.07) BTRS accepts every v ≤ v_r
        // without evaluating f; that is exact only if v = v_r would pass
        // the full test everywhere there.
        for (n, p) in BTRS_CASES {
            let btrs = Btrs::new(n, p);
            for i in 0..=10_000 {
                let u = -0.43 + 0.86 * f64::from(i) / 10_000.0;
                let us = 0.5 - u.abs();
                let k = ((2.0 * btrs.a / us + btrs.b) * u + btrs.c).floor();
                assert!((0.0..=btrs.n).contains(&k), "Bin({n}, {p}): k = {k}");
                let squeeze = (btrs.v_r * btrs.alpha / (btrs.a / (us * us) + btrs.b)).ln();
                assert!(
                    squeeze <= btrs.log_ratio(k),
                    "Bin({n}, {p}) at u = {u}, k = {k}: squeeze {squeeze} above {}",
                    btrs.log_ratio(k)
                );
            }
        }
    }

    #[test]
    fn readout_counts_fit_the_exact_multinomial_for_three_outcomes_and_four_shots() {
        const SHOTS: usize = 4;
        const READOUTS: usize = 20_000;
        let direction = Vector::from_f64_slice(&[0.2_f64.sqrt(), -0.3_f64.sqrt(), 0.5_f64.sqrt()]);
        let pi: Vec<f64> = direction.iter().map(|x| x * x).collect();
        // All 15 ways to split 4 shots over 3 outcomes, and the probability
        // 4!/(c₀!·c₁!·c₂!)·π₀^c₀·π₁^c₁·π₂^c₂ of each.
        let outcomes: Vec<Vec<usize>> = (0..=SHOTS)
            .flat_map(|a| (0..=SHOTS - a).map(move |b| vec![a, b, SHOTS - a - b]))
            .collect();
        assert_eq!(outcomes.len(), 15);
        let factorial = |k: usize| (1..=k).product::<usize>() as f64;
        let expected: Vec<f64> = outcomes
            .iter()
            .map(|c| {
                let split: f64 = c
                    .iter()
                    .zip(&pi)
                    .map(|(&k, p)| p.powi(k as i32) / factorial(k))
                    .product();
                factorial(SHOTS) * split * READOUTS as f64
            })
            .collect();
        for (seed, (name, sampler)) in (40..).zip(SAMPLERS) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut observed = vec![0; outcomes.len()];
            for _ in 0..READOUTS {
                let counts = counts_of(&sampler(&direction, SHOTS, &mut rng), SHOTS);
                let cell = outcomes.iter().position(|o| *o == counts);
                observed[cell.expect("the counts split the shots")] += 1;
            }
            assert_fits(&observed, &expected, name);
        }
    }

    /// `E[X²Y²]` for sums `X`, `Y` of `shots` independent copies of centred
    /// per-shot variables `a`, `b`: only terms that pair equal shots have a
    /// nonzero expectation.
    fn fourth_moment(shots: f64, e_aabb: f64, e_aa: f64, e_bb: f64, e_ab: f64) -> f64 {
        shots * e_aabb + shots * (shots - 1.0) * (e_aa * e_bb + 2.0 * e_ab * e_ab)
    }

    #[test]
    fn readout_moments_match_the_multinomial() {
        let mut corpus = ChaCha8Rng::seed_from_u64(2626);
        for n in [2, 16, 300] {
            // Every fifth coordinate from the fourth on has no mass.  The
            // others have magnitudes in [0.5, 1], so every sum below expects
            // at least about 7 counts, and the normal approximation behind
            // the 7-standard-deviation limits fails a correct sampler with
            // probability under 1e-6 per assertion, Poisson-like tails
            // included.
            let direction: Vector<f64> = (0..n)
                .map(|i| match i % 5 {
                    3 => 0.0,
                    _ if corpus.gen_bool(0.5) => corpus.gen_range(0.5..1.0_f64),
                    _ => -corpus.gen_range(0.5..1.0_f64),
                })
                .collect();
            let norm_squared: f64 = direction.iter().map(|x| x * x).sum();
            let pi: Vec<f64> = direction.iter().map(|x| x * x / norm_squared).collect();
            for (shots, readouts) in [(1, 4_000), (5, 4_000), (1_000, 200), (10_000, 50)] {
                let (s, r) = (shots as f64, f64::from(readouts));
                let mean: Vec<f64> = pi.iter().map(|p| s * p).collect();
                for (name, sampler) in SAMPLERS {
                    let mut rng = ChaCha8Rng::seed_from_u64(corpus.next_u64());
                    let (mut sum, mut square, mut cross) = (vec![0.0; n], vec![0.0; n], 0.0);
                    for _ in 0..readouts {
                        let counts = counts_of(&sampler(&direction, shots, &mut rng), shots);
                        assert_eq!(counts.iter().sum::<usize>(), shots, "{name}");
                        for i in 0..n {
                            let dev = counts[i] as f64 - mean[i];
                            sum[i] += counts[i] as f64;
                            square[i] += dev * dev;
                        }
                        cross += (counts[0] as f64 - mean[0]) * (counts[1] as f64 - mean[1]);
                    }
                    // `got` sums `readouts` copies of a statistic with this
                    // expectation and variance.
                    let check = |got: f64, expectation: f64, variance: f64, what: String| {
                        let limit = 7.0 * (r * variance).sqrt();
                        assert!(
                            (got - r * expectation).abs() <= limit,
                            "{name}, N = {n}, {shots} shots, {what}: {got} vs {} ± {limit}",
                            r * expectation
                        );
                    };
                    for (i, &p) in pi.iter().enumerate() {
                        if p == 0.0 {
                            assert_eq!(sum[i], 0.0, "{name}: counts on massless coordinate {i}");
                            continue;
                        }
                        let e_aa = p * (1.0 - p);
                        let e_aaaa = e_aa * ((1.0 - p).powi(3) + p.powi(3));
                        let variance = s * e_aa;
                        check(sum[i], mean[i], variance, format!("mean of {i}"));
                        let spread =
                            fourth_moment(s, e_aaaa, e_aa, e_aa, e_aa) - variance * variance;
                        check(square[i], variance, spread, format!("variance of {i}"));
                    }
                    let (p0, p1) = (pi[0], pi[1]);
                    let e_ab = -p0 * p1;
                    let e_aabb = p0 * (1.0 - p0).powi(2) * p1 * p1
                        + p1 * (1.0 - p1).powi(2) * p0 * p0
                        + (1.0 - p0 - p1) * p0 * p0 * p1 * p1;
                    let e_abab = fourth_moment(s, e_aabb, p0 * (1.0 - p0), p1 * (1.0 - p1), e_ab);
                    let covariance = s * e_ab;
                    check(
                        cross,
                        covariance,
                        e_abab - covariance * covariance,
                        "covariance of 0 and 1".into(),
                    );
                }
            }
        }
    }

    #[test]
    fn rescaling_by_a_power_of_two_keeps_the_counts() {
        let mut corpus = ChaCha8Rng::seed_from_u64(31);
        for n in [1, 2, 16, 300] {
            let direction = random_unit_vector(n, &mut corpus);
            for shots in [1, 7, 10_000, 1_000_000] {
                let seed = corpus.next_u64();
                let want =
                    sample_direction(&direction, shots, &mut ChaCha8Rng::seed_from_u64(seed));
                assert_eq!(counts_of(&want, shots).iter().sum::<usize>(), shots);
                for scale in [2_f64.powi(500), 2_f64.powi(-530)] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let got = sample_direction(&direction.scaled(scale), shots, &mut rng);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "N = {n}, {shots} shots, scale {scale:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_directions_read_nan_and_zero_ones_read_zero_without_drawing() {
        let mut corpus = ChaCha8Rng::seed_from_u64(2718);
        for case in 0..1_000 {
            let n = corpus.gen_range(1..=300usize);
            let mut v: Vec<f64> = (0..n).map(|_| corpus.gen_range(-1.0..1.0)).collect();
            match case % 8 {
                // Zero coordinates, which no shot may hit.
                0 => v
                    .iter_mut()
                    .filter(|_| corpus.gen_bool(0.5))
                    .for_each(|x| *x = 0.0),
                // Squares that underflow, or overflow past the largest f64.
                1 => v.iter_mut().for_each(|x| *x *= 1e-160),
                2 => v.iter_mut().for_each(|x| *x *= 1e150),
                3 => v.iter_mut().for_each(|x| *x *= 1e155),
                4 => v[corpus.gen_range(0..n)] = f64::NAN,
                5 => v.iter_mut().for_each(|x| *x = 0.0),
                6 => v[corpus.gen_range(0..n)] = f64::NEG_INFINITY,
                _ => {}
            }
            let shots = match case % 25 {
                0 => 10_000,
                1..=4 => corpus.gen_range(0..16),
                _ => corpus.gen_range(0..1_000),
            };
            let mut rng = ChaCha8Rng::seed_from_u64(corpus.next_u64());
            let mut untouched = rng.clone();
            let sampled = sample_direction(&Vector::from_f64_slice(&v), shots, &mut rng);
            let what = format!("case {case}: N = {n}, {shots} shots");
            assert_eq!(sampled.len(), n, "{what}");
            if v.iter().any(|x| !x.is_finite()) {
                assert!(sampled.iter().all(|x| x.is_nan()), "{what}");
            } else if shots == 0 || v.iter().all(|&x| x == 0.0) {
                assert!(sampled.iter().all(|&x| x == 0.0), "{what}");
            } else {
                assert_eq!(
                    counts_of(&sampled, shots).iter().sum::<usize>(),
                    shots,
                    "{what}"
                );
                for (s, x) in sampled.iter().zip(&v) {
                    assert!(
                        s * x >= 0.0 && (*x != 0.0 || *s == 0.0),
                        "{what}: {s} from {x}"
                    );
                }
                continue;
            }
            assert_eq!(
                rng.next_u64(),
                untouched.next_u64(),
                "{what}: a word was drawn"
            );
        }
    }
}
