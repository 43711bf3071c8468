//! Scalar special functions implemented from scratch.
//!
//! The Chebyshev coefficients of the inverse-function approximation (Eq. (4)
//! of the paper) are symmetric-binomial tail probabilities
//! `2^{-2b} Σ_{i>j} C(2b, b+i)`, where `b` can reach 10⁵–10⁶ for the condition
//! numbers studied in the paper.  Computing them through naive factorials is
//! impossible at that scale, so we go through the log-gamma function.

/// Natural logarithm of the gamma function, Lanczos approximation (g = 7,
/// n = 9 coefficients), accurate to ~1e-13 relative error for x > 0.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7 from the standard Lanczos tables.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_binomial: k = {k} > n = {n}");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// The probability mass `P(X = b + i)` for `X ~ Binomial(2b, 1/2)`, i.e.
/// `2^{-2b} C(2b, b + i)`, computed in log space.
pub fn binomial_center_pmf(b: u64, i: u64) -> f64 {
    if i > b {
        return 0.0;
    }
    let ln_p = ln_binomial(2 * b, b + i) - 2.0 * (b as f64) * std::f64::consts::LN_2;
    ln_p.exp()
}

/// The symmetric-binomial tail probability `P(X > b + j) = 2^{-2b} Σ_{i=j+1}^{b} C(2b, b+i)`
/// for `X ~ Binomial(2b, 1/2)` — exactly the inner sum of Eq. (4) of the paper.
///
/// Terms are accumulated from the centre outwards and truncated once they fall
/// below `1e-30` relative to the running sum, which keeps the cost
/// `O(√b)` per call instead of `O(b)`.
pub fn binomial_tail(b: u64, j: u64) -> f64 {
    if j >= b {
        return 0.0;
    }
    let mut sum = 0.0f64;
    let mut i = j + 1;
    loop {
        if i > b {
            break;
        }
        let term = binomial_center_pmf(b, i);
        sum += term;
        if term < 1e-30 && term < sum * 1e-18 {
            break;
        }
        i += 1;
    }
    sum
}

/// All tail sums `S_j = P(X > b + j)` for `j = 0..=j_max`, computed in a single
/// backward pass (suffix sums of the pmf), so the whole coefficient vector of
/// Eq. (4) costs `O(j_max + √b)` pmf evaluations.
pub fn binomial_tails(b: u64, j_max: u64) -> Vec<f64> {
    let j_max = j_max.min(b);
    // Find the largest index where the pmf is still non-negligible.
    // The pmf at offset i is ~ exp(-i²/b)/√(πb); it drops below 1e-30 around
    // i ≈ √(70 b), clamped to b.
    let cutoff = (((70.0 * b as f64).sqrt().ceil() as u64).max(j_max + 2)).min(b);
    let mut pmf = vec![0.0f64; (cutoff + 2) as usize];
    for (idx, p) in pmf.iter_mut().enumerate().take((cutoff + 1) as usize + 1) {
        let i = idx as u64;
        if i > b {
            break;
        }
        *p = binomial_center_pmf(b, i);
    }
    // Suffix sums: S_j = Σ_{i=j+1..cutoff} pmf[i]   (terms beyond cutoff < 1e-30).
    let mut tails = vec![0.0f64; (j_max + 1) as usize];
    let mut acc = 0.0f64;
    let mut i = cutoff + 1;
    while i > 0 {
        let idx = i as usize;
        if idx < pmf.len() {
            acc += pmf[idx];
        }
        if i - 1 <= j_max {
            tails[(i - 1) as usize] = acc;
        }
        i -= 1;
    }
    tails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma(n as f64 + 1.0);
            assert!(
                (lg - f.ln()).abs() < 1e-12,
                "ln_gamma({}) = {lg}, expected {}",
                n + 1,
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
        // Γ(3/2) = √π / 2.
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_binomial_small_cases() {
        assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_binomial(10, 5) - 252f64.ln()).abs() < 1e-12);
        assert_eq!(ln_binomial(7, 0), 0.0);
        assert_eq!(ln_binomial(7, 7), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        // Σ_{k} C(2b,k) 2^{-2b} = 1, i.e. pmf(0) + 2 Σ_{i≥1} pmf(i) = 1.
        for &b in &[5u64, 20, 100] {
            let mut total = binomial_center_pmf(b, 0);
            for i in 1..=b {
                total += 2.0 * binomial_center_pmf(b, i);
            }
            assert!((total - 1.0).abs() < 1e-10, "b = {b}, total = {total}");
        }
    }

    #[test]
    fn tail_matches_direct_sum_small_b() {
        // Direct evaluation with exact binomials for b = 10.
        let b = 10u64;
        let binom = |n: u64, k: u64| -> f64 {
            let mut r = 1.0f64;
            for i in 0..k {
                r = r * (n - i) as f64 / (i + 1) as f64;
            }
            r
        };
        for j in 0..b {
            let mut direct = 0.0;
            for i in (j + 1)..=b {
                direct += binom(2 * b, b + i);
            }
            direct /= 4f64.powi(b as i32);
            let fast = binomial_tail(b, j);
            assert!(
                (fast - direct).abs() < 1e-12,
                "j = {j}: fast {fast} vs direct {direct}"
            );
        }
    }

    #[test]
    fn tails_vector_matches_scalar_tails() {
        let b = 5000u64;
        let tails = binomial_tails(b, 50);
        for j in 0..=50u64 {
            let scalar = binomial_tail(b, j);
            let rel = if scalar > 0.0 {
                (tails[j as usize] - scalar).abs() / scalar
            } else {
                tails[j as usize].abs()
            };
            assert!(rel < 1e-10, "j = {j}");
        }
    }

    #[test]
    fn tail_decreases_with_j_and_starts_below_half() {
        let b = 1000u64;
        let tails = binomial_tails(b, 100);
        assert!(tails[0] < 0.5);
        for w in tails.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn large_b_is_fast_and_finite() {
        // b of the order used for kappa = 300: must not overflow or be NaN.
        let b = 1_000_000u64;
        let tails = binomial_tails(b, 10);
        assert!(tails.iter().all(|t| t.is_finite() && *t >= 0.0 && *t < 0.5));
    }
}
