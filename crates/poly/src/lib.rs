//! # qls-poly
//!
//! Polynomial machinery for the Quantum Singular Value Transformation.
//!
//! Solving a linear system with the QSVT requires a polynomial approximation of
//! the inverse function that satisfies the QSVT constraints (definite parity,
//! bounded by 1 in magnitude on [-1, 1]).  Section II-A4 of the paper uses the
//! classical construction of Childs–Kothari–Somma / Gilyén et al.: the function
//! `f_{ε,κ}(x) = (1 − (1 − x²)^b)/x` with `b(ε,κ) = ⌈κ² log(κ/ε)⌉` is an
//! ε-approximation of 1/x on `[-1, -1/κ] ∪ [1/κ, 1]`, and it admits the
//! explicit Chebyshev expansion of Eq. (4), truncated at
//! `D(ε,κ) = ⌈√(b log(4b/ε))⌉` terms.
//!
//! This crate implements:
//!
//! * `chebyshev` — Chebyshev polynomials of the first kind: evaluation,
//!   Clenshaw summation of series ([`ChebyshevSeries`]), interpolation of
//!   arbitrary functions at Chebyshev nodes, parity analysis;
//! * [`inverse`] — the paper's Eq. (4): the explicit Chebyshev coefficients of
//!   the polynomial approximation of 1/x, the degree formulas `b(ε,κ)` and
//!   `D(ε,κ)`, and error measurement on the domain `[-1,-1/κ] ∪ [1/κ,1]`;
//! * `special` — the scalar special functions these constructions need
//!   (log-gamma, binomial tail probabilities), implemented from scratch.

mod chebyshev;
pub mod inverse;
mod special;

pub use chebyshev::{chebyshev_t, interpolate, ChebyshevSeries, Parity};
pub use inverse::{degree_b, degree_cap_d, InversePolynomial};
