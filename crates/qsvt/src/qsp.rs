//! Scalar Quantum Signal Processing (QSP).
//!
//! QSVT phase factors are defined through the single-qubit QSP model: for a
//! phase vector `Φ = (φ_0, …, φ_d)` and a signal `x ∈ [-1, 1]`, the product
//!
//! ```text
//! U_Φ(x) = e^{iφ_0 Z} · W(x) e^{iφ_1 Z} · W(x) e^{iφ_2 Z} ⋯ W(x) e^{iφ_d Z},
//! W(x) = [[x, i√(1-x²)], [i√(1-x²), x]]
//! ```
//!
//! has `⟨0|U_Φ(x)|0⟩ = P(x)` for a degree-`d` complex polynomial `P`, and the
//! QSVT circuit built from the same phases applies `P` to every singular value
//! of the block-encoded operator.  The phase solver in [`crate::phases`]
//! targets the *real part* `Re P(x)`, which is the convention of the symmetric
//! QSP method the paper cites (\[13\]).  The solver evaluates it at all of its
//! nodes at once ([`qsp_real_polynomials`]); the per-signal 2×2 products are
//! the tests' oracle.

use num_complex::Complex64;

/// A 2×2 complex matrix stored as `[[a, b], [c, d]]`.
pub type Mat2 = [[Complex64; 2]; 2];

#[cfg(test)]
fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[Complex64::new(0.0, 0.0); 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            out[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// The signal operator `W(x)` (an X-rotation by `-2·arccos(x)` up to
/// convention), for `x ∈ [-1, 1]`.
pub(crate) fn signal_operator(x: f64) -> Mat2 {
    let x = x.clamp(-1.0, 1.0);
    let s = (1.0 - x * x).max(0.0).sqrt();
    [
        [Complex64::new(x, 0.0), Complex64::new(0.0, s)],
        [Complex64::new(0.0, s), Complex64::new(x, 0.0)],
    ]
}

/// The phase operator `e^{iφ Z} = diag(e^{iφ}, e^{-iφ})`.
pub(crate) fn phase_operator(phi: f64) -> Mat2 {
    [
        [Complex64::from_polar(1.0, phi), Complex64::new(0.0, 0.0)],
        [Complex64::new(0.0, 0.0), Complex64::from_polar(1.0, -phi)],
    ]
}

/// The full QSP unitary `U_Φ(x)` for `d = phases.len() - 1` applications of the
/// signal operator.
#[cfg(test)]
pub(crate) fn qsp_unitary(phases: &[f64], x: f64) -> Mat2 {
    assert!(!phases.is_empty(), "need at least one phase");
    let w = signal_operator(x);
    let mut u = phase_operator(phases[0]);
    for &phi in &phases[1..] {
        u = mat2_mul(&u, &w);
        u = mat2_mul(&u, &phase_operator(phi));
    }
    u
}

/// The complex QSP polynomial `P(x) = ⟨0|U_Φ(x)|0⟩`.
#[cfg(test)]
pub(crate) fn qsp_polynomial(phases: &[f64], x: f64) -> Complex64 {
    qsp_unitary(phases, x)[0][0]
}

/// The real part `Re ⟨0|U_Φ(x)|0⟩` targeted by the symmetric-QSP phase solver:
/// the per-signal oracle of [`qsp_real_polynomials`].
#[cfg(test)]
pub(crate) fn qsp_real_polynomial(phases: &[f64], x: f64) -> f64 {
    qsp_polynomial(phases, x).re
}

/// Signals that [`qsp_real_polynomials`] carries through the phases in
/// lockstep.
const LANES: usize = 8;

/// `Re ⟨0|U_Φ(x)|0⟩` at every signal `x` of `xs`, bit for bit what the
/// per-signal product `qsp_unitary` gives.
///
/// The entry `[0][0]` of a product depends only on the first row of its
/// left factor, so only that row of the running product is carried, with
/// `mat2_mul`'s row-0 products and sums.  The products with the zero
/// entries of `e^{iφZ}` stay: their signed zeros can flip the sign of a
/// zero part, and dropping them changes bits.  The phase operators are
/// formed once for all signals, and the signals advance through them in
/// blocks of [`LANES`].
pub(crate) fn qsp_real_polynomials(phases: &[f64], xs: &[f64]) -> Vec<f64> {
    let (first, rest) = phases.split_first().expect("need at least one phase");
    let zero = Complex64::new(0.0, 0.0);
    let diagonals: Vec<[Complex64; 2]> = rest
        .iter()
        .map(|&phi| {
            let p = phase_operator(phi);
            [p[0][0], p[1][1]]
        })
        .collect();
    let start = phase_operator(*first)[0];
    let mut out = Vec::with_capacity(xs.len());
    for block in xs.chunks(LANES) {
        // A short last block repeats its last signal in the spare lanes.
        let w: [Mat2; LANES] =
            std::array::from_fn(|l| signal_operator(block[l.min(block.len() - 1)]));
        let mut rows = [start; LANES];
        for &[e, e_conj] in &diagonals {
            for (row, w) in rows.iter_mut().zip(&w) {
                let [u0, u1] = *row;
                let v0 = u0 * w[0][0] + u1 * w[1][0];
                let v1 = u0 * w[0][1] + u1 * w[1][1];
                *row = [v0 * e + v1 * zero, v0 * zero + v1 * e_conj];
            }
        }
        out.extend(rows[..block.len()].iter().map(|row| row[0].re));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_poly::chebyshev_t;

    fn is_unitary(m: &Mat2) -> bool {
        // Columns orthonormal.
        let c0 = (m[0][0].norm_sqr() + m[1][0].norm_sqr() - 1.0).abs();
        let c1 = (m[0][1].norm_sqr() + m[1][1].norm_sqr() - 1.0).abs();
        let dot = (m[0][0].conj() * m[0][1] + m[1][0].conj() * m[1][1]).norm();
        c0 < 1e-12 && c1 < 1e-12 && dot < 1e-12
    }

    #[test]
    fn signal_and_phase_operators_are_unitary() {
        for &x in &[-1.0, -0.3, 0.0, 0.7, 1.0] {
            assert!(is_unitary(&signal_operator(x)));
        }
        for &phi in &[0.0, 0.4, -1.2, std::f64::consts::PI] {
            assert!(is_unitary(&phase_operator(phi)));
        }
    }

    #[test]
    fn qsp_unitary_is_unitary() {
        let phases = [0.3, -0.2, 0.9, 0.1, -0.5];
        for i in 0..=20 {
            let x = -1.0 + 0.1 * i as f64;
            assert!(is_unitary(&qsp_unitary(&phases, x)), "x = {x}");
        }
    }

    #[test]
    fn zero_phases_give_chebyshev_polynomials() {
        // With all phases zero, U = W(x)^d and <0|U|0> = T_d(x).
        for d in 1..8usize {
            let phases = vec![0.0; d + 1];
            for i in 0..=20 {
                let x = -1.0 + 0.1 * i as f64;
                let p = qsp_polynomial(&phases, x);
                assert!(
                    (p.re - chebyshev_t(d, x)).abs() < 1e-12,
                    "d = {d}, x = {x}: {} vs {}",
                    p.re,
                    chebyshev_t(d, x)
                );
            }
        }
    }

    #[test]
    fn trivial_phase_vector_realises_identity_signal() {
        // d = 1, phases (0, 0): P(x) = x.
        let phases = [0.0, 0.0];
        for i in 0..=10 {
            let x = -1.0 + 0.2 * i as f64;
            assert!((qsp_real_polynomial(&phases, x) - x).abs() < 1e-13);
        }
    }

    #[test]
    fn reference_phases_give_zero_real_part() {
        // Phases (π/4, 0, …, 0, π/4) give U00 = i·T_d(x): zero real part.
        for d in 1..6usize {
            let mut phases = vec![0.0; d + 1];
            phases[0] = std::f64::consts::FRAC_PI_4;
            phases[d] = std::f64::consts::FRAC_PI_4;
            for i in 0..=10 {
                let x = -1.0 + 0.2 * i as f64;
                assert!(
                    qsp_real_polynomial(&phases, x).abs() < 1e-12,
                    "d = {d}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn polynomial_magnitude_bounded_by_one() {
        let phases = [1.0, -0.7, 0.2, 0.5, -0.1, 0.9];
        for i in 0..=50 {
            let x = -1.0 + 0.04 * i as f64;
            assert!(qsp_polynomial(&phases, x).norm() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn parity_of_realised_polynomial() {
        // d even → even polynomial, d odd → odd polynomial (in Re and Im).
        let even_phases = [0.2, -0.3, 0.2];
        let odd_phases = [0.1, 0.4, 0.4, 0.1];
        for i in 1..=10 {
            let x = 0.1 * i as f64;
            let pe = qsp_polynomial(&even_phases, x);
            let pe_neg = qsp_polynomial(&even_phases, -x);
            assert!((pe.re - pe_neg.re).abs() < 1e-12);
            let po = qsp_polynomial(&odd_phases, x);
            let po_neg = qsp_polynomial(&odd_phases, -x);
            assert!((po.re + po_neg.re).abs() < 1e-12);
        }
    }
}
