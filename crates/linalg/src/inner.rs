//! Structured inner solvers for the mixed-precision refinement loop.
//!
//! Algorithm 1/2 of the paper factor the matrix **once** at the low precision
//! `u_l` and reuse that factorisation for every correction solve.  Until this
//! module existed, the only inner solver was dense LU, so even an O(nnz)
//! operator paid O(N²) memory (and O(N²)–O(N³) time) the moment a refiner was
//! built — the last dense wall on the classical path.
//!
//! [`FactorizableOperator`] closes it: every operator representation knows how
//! to build the cheapest exact-enough inner solver for its own structure, and
//! the refiners route every correction solve through the resulting
//! [`InnerSolver`] handle.  The selection table:
//!
//! | operator | inner solver | cost | fallback |
//! |---|---|---|---|
//! | [`Matrix`] | dense LU | O(N³) + O(N²) mem | — (it *is* the oracle) |
//! | [`TridiagonalMatrix`] | Thomas LU ([`ThomasFactorization`]) | O(N) | dense LU on pivot breakdown |
//! | [`SparseMatrix`] | Jacobi-CG (SPD) / Jacobi-BiCGSTAB | O(nnz)/iter | dense LU for N ≤ [`DENSIFY_FALLBACK_MAX`] |
//!
//! The small-N densify fallback is not just a convenience: for N ≤ 64 the
//! dense factors are cheap, and reusing the *exact same* dense-LU code keeps
//! the structured refiners **bit-identical** to the dense refiner on the small
//! equivalence problems (the same oracle pattern as `kernels::reference` and
//! `OptLevel::None` on the simulator side).  At any size,
//! [`FactorizableOperator::factorize_dense_lu`] stays available as the
//! equivalence oracle — `ClassicalRefiner::with_dense_lu` uses it so every
//! structured run can be checked against the dense history.
//!
//! The iterative inner solvers run entirely at the low precision and do not
//! need to hit machine accuracy: per Theorem III.1 any relative accuracy
//! ε_l with ε_l·κ < 1 contracts the outer residual, so CG/BiCGSTAB stop at a
//! few units of roundoff of the low format (or return their best iterate on
//! stagnation, which refinement absorbs).  What they must never do is return
//! garbage silently — breakdowns surface as [`LinalgError`]s.

use std::fmt;

use crate::lu::{LinalgError, LuFactorization};
use crate::matrix::Matrix;
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::sparse::SparseMatrix;
use crate::tridiag::TridiagonalMatrix;
use crate::vector::Vector;

/// Largest order for which CSR operators fall back to densify + dense LU
/// instead of an iterative inner solver.
///
/// Below this size the dense factorisation is cheaper than an iterative
/// solve's setup, and — more importantly — it keeps small structured refiners
/// bit-identical to the dense oracle (the equivalence tests run at N ≤ 64).
pub const DENSIFY_FALLBACK_MAX: usize = 64;

/// Which factorisation / iteration a [`FactorizableOperator`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerSolverKind {
    /// Dense LU with partial pivoting (the equivalence oracle).
    DenseLu,
    /// Thomas tridiagonal LU, O(N) factor and solve.
    Thomas,
    /// Jacobi-preconditioned conjugate gradients (SPD systems).
    ConjugateGradient,
    /// Jacobi-preconditioned BiCGSTAB (nonsymmetric systems).
    BiCgStab,
}

impl fmt::Display for InnerSolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InnerSolverKind::DenseLu => "dense-lu",
            InnerSolverKind::Thomas => "thomas",
            InnerSolverKind::ConjugateGradient => "jacobi-cg",
            InnerSolverKind::BiCgStab => "jacobi-bicgstab",
        };
        f.write_str(name)
    }
}

/// A reusable low-precision inner solver: factor (or set up) once, solve many
/// right-hand sides.  The solve is fallible — iterative breakdowns and
/// singular factors surface as errors instead of silent inf/NaN.
pub trait InnerSolver<T: Real>: Send + Sync {
    /// Which solver this is (for reports and debugging).
    fn kind(&self) -> InnerSolverKind;
    /// Solve `A x = b`.
    fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError>;
}

/// An operator that can build the structured inner solver appropriate to its
/// own representation, at any target precision `L`.
///
/// This is the trait the mixed-precision refiners are generic over: the
/// operator is stored at the working precision `H`, while `factorize::<L>()`
/// converts whatever compact data the solver needs down to `L` — never
/// materialising an O(N²) matrix for a structured operator above the
/// [`DENSIFY_FALLBACK_MAX`] threshold.
pub trait FactorizableOperator<T: Real>: LinearOperator<T> {
    /// Build the structured inner solver for this operator at precision `L`.
    fn factorize<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError>;

    /// Densify and factorise with dense LU at precision `L` — the equivalence
    /// oracle every structured path can be validated against, and the small-N
    /// fallback of the CSR implementation.
    fn factorize_dense_lu<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let a_low: Matrix<L> = self.to_dense().convert();
        Ok(Box::new(DenseLuSolver::new(&a_low)?))
    }
}

/// Relative residual tolerance for the iterative inner solvers at precision
/// `L`: a few units of roundoff of the low format (refinement absorbs the
/// rest per Theorem III.1).
fn inner_tolerance<L: Real>() -> f64 {
    (16.0 * L::unit_roundoff()).max(1e-15)
}

// ---------------------------------------------------------------------------
// Dense LU (the oracle).
// ---------------------------------------------------------------------------

/// [`InnerSolver`] wrapper around [`LuFactorization`].
pub struct DenseLuSolver<T: Real> {
    lu: LuFactorization<T>,
}

impl<T: Real> DenseLuSolver<T> {
    /// Factorise a dense matrix with partial pivoting.
    pub(crate) fn new(a: &Matrix<T>) -> Result<Self, LinalgError> {
        Ok(DenseLuSolver {
            lu: LuFactorization::new(a)?,
        })
    }
}

impl<T: Real> InnerSolver<T> for DenseLuSolver<T> {
    fn kind(&self) -> InnerSolverKind {
        InnerSolverKind::DenseLu
    }

    fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        self.lu.solve(b)
    }
}

// ---------------------------------------------------------------------------
// Thomas: tridiagonal LU without pivoting, O(N) factor + solve.
// ---------------------------------------------------------------------------

/// The Thomas algorithm as a reusable factorisation `T = L·U`:
/// `L` unit lower bidiagonal with multipliers `l_i = lower_{i−1}/m_{i−1}`,
/// `U` upper bidiagonal with pivots `m_i = d_i − l_i·upper_{i−1}` and the
/// original super-diagonal.  One O(N) elimination serves every `T x = b`
/// (forward `L`, back `U`).
///
/// Thomas does not pivot, so a pivot `|m_i|` at or below a scaled threshold
/// (`4·u·max|entry|`) is reported as [`LinalgError::Singular`] instead of
/// silently amplifying into inf/NaN — the caller (e.g.
/// [`TridiagonalMatrix::factorize`](FactorizableOperator::factorize)) falls
/// back to pivoted dense LU, which handles matrices like `[[0,1],[1,0]]` that
/// are perfectly well conditioned but break the unpivoted recurrence.
pub struct ThomasFactorization<T: Real> {
    /// Pivots `m_i` (the diagonal of U), length n.
    pivots: Vec<T>,
    /// Multipliers `l_i` (sub-diagonal of L); `lowers[0]` is unused (zero).
    lowers: Vec<T>,
    /// The original super-diagonal (the off-diagonal of U), length n−1.
    uppers: Vec<T>,
}

impl<T: Real> ThomasFactorization<T> {
    /// Eliminate in O(N); fails with [`LinalgError::Singular`] on a pivot
    /// below the scaled breakdown threshold.
    pub(crate) fn new(t: &TridiagonalMatrix<T>) -> Result<Self, LinalgError> {
        let n = t.order();
        let scale = t
            .diag
            .iter()
            .chain(&t.lower)
            .chain(&t.upper)
            .fold(T::zero(), |acc, &v| acc.max(v.abs()));
        let threshold = scale * T::from_f64(4.0 * T::unit_roundoff());

        let mut pivots = vec![T::zero(); n];
        let mut lowers = vec![T::zero(); n];
        for i in 0..n {
            let m = if i == 0 {
                t.diag[0]
            } else {
                let l = t.lower[i - 1] / pivots[i - 1];
                lowers[i] = l;
                t.diag[i] - l * t.upper[i - 1]
            };
            if m.abs() <= threshold {
                return Err(LinalgError::Singular { step: i });
            }
            pivots[i] = m;
        }
        Ok(ThomasFactorization {
            pivots,
            lowers,
            uppers: t.upper.clone(),
        })
    }
}

impl<T: Real> InnerSolver<T> for ThomasFactorization<T> {
    fn kind(&self) -> InnerSolverKind {
        InnerSolverKind::Thomas
    }

    fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        let n = self.pivots.len();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        if n == 0 {
            return Ok(Vector::zeros(0));
        }
        // Forward: L y = b.
        let mut y = Vector::zeros(n);
        y[0] = b[0];
        for i in 1..n {
            y[i] = b[i] - self.lowers[i] * y[i - 1];
        }
        // Back: U x = y.
        y[n - 1] /= self.pivots[n - 1];
        for i in (0..n - 1).rev() {
            y[i] = (y[i] - self.uppers[i] * y[i + 1]) / self.pivots[i];
        }
        Ok(y)
    }
}

// ---------------------------------------------------------------------------
// Jacobi-preconditioned CG and BiCGSTAB over any LinearOperator.
// ---------------------------------------------------------------------------

/// Jacobi-preconditioned conjugate gradients for SPD systems, matrix-free
/// over any [`LinearOperator`] at the low precision.
///
/// The solve stops at a relative residual of a few units of roundoff of the
/// format, returns its best iterate on stagnation (refinement absorbs an
/// inexact inner solve), and reports [`LinalgError::Singular`] if the very
/// first search direction shows the operator is not positive definite.
pub struct ConjugateGradientSolver<T: Real, Op: LinearOperator<T>> {
    op: Op,
    inv_diag: Vector<T>,
    rel_tol: f64,
    max_iterations: usize,
}

impl<T: Real, Op: LinearOperator<T>> ConjugateGradientSolver<T, Op> {
    /// Set up CG with the Jacobi preconditioner built from `diag` (must be
    /// strictly positive — SPD matrices have positive diagonals).
    pub(crate) fn new(
        op: Op,
        diag: &Vector<T>,
        rel_tol: f64,
        max_iterations: usize,
    ) -> Result<Self, LinalgError> {
        if !op.is_square() {
            return Err(LinalgError::NotSquare);
        }
        if diag.len() != op.nrows() {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut inv = Vec::with_capacity(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            if d <= T::zero() {
                return Err(LinalgError::Singular { step: i });
            }
            inv.push(T::one() / d);
        }
        Ok(ConjugateGradientSolver {
            op,
            inv_diag: Vector::from_vec(inv),
            rel_tol,
            max_iterations,
        })
    }

    fn precondition(&self, r: &Vector<T>) -> Vector<T> {
        r.iter()
            .zip(self.inv_diag.iter())
            .map(|(&ri, &di)| ri * di)
            .collect()
    }
}

impl<T: Real, Op: LinearOperator<T> + 'static> InnerSolver<T> for ConjugateGradientSolver<T, Op> {
    fn kind(&self) -> InnerSolverKind {
        InnerSolverKind::ConjugateGradient
    }

    fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        let n = self.op.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let bnorm = b.norm2();
        if bnorm == T::zero() {
            return Ok(Vector::zeros(n));
        }
        let tol = T::from_f64(self.rel_tol) * bnorm;

        let mut x = Vector::zeros(n);
        let mut r = b.clone();
        let mut z = self.precondition(&r);
        let mut p = z.clone();
        let mut rz = r.dot(&z);
        let mut best = x.clone();
        let mut best_res = bnorm;
        for step in 0..self.max_iterations {
            let ap = self.op.matvec(&p);
            let pap = p.dot(&ap);
            if pap <= T::zero() {
                if step == 0 {
                    // Not positive definite along the very first direction:
                    // CG is the wrong solver, report it rather than iterate.
                    return Err(LinalgError::Singular { step });
                }
                break;
            }
            let alpha = rz / pap;
            x.axpy(alpha, &p);
            r.axpy(-alpha, &ap);
            let rnorm = r.norm2();
            if rnorm <= tol {
                return Ok(x);
            }
            if rnorm < best_res {
                best_res = rnorm;
                best = x.clone();
            }
            z = self.precondition(&r);
            let rz_new = r.dot(&z);
            if rz_new == T::zero() {
                break;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            p = &z + &(&p * beta);
        }
        Ok(best)
    }
}

/// Jacobi-preconditioned BiCGSTAB for nonsymmetric systems, matrix-free over
/// any [`LinearOperator`] at the low precision.
///
/// On a breakdown (`ρ → 0`, `r̂·v → 0` or `t·t → 0`) the best iterate so far
/// is returned; the refinement loop detects any resulting stagnation.
pub struct BiCgStabSolver<T: Real, Op: LinearOperator<T>> {
    op: Op,
    inv_diag: Vector<T>,
    rel_tol: f64,
    max_iterations: usize,
}

impl<T: Real, Op: LinearOperator<T>> BiCgStabSolver<T, Op> {
    /// Set up BiCGSTAB with a Jacobi preconditioner from `diag`; zero diagonal
    /// entries downgrade the preconditioner to the identity.
    pub(crate) fn new(op: Op, diag: &Vector<T>, rel_tol: f64, max_iterations: usize) -> Self {
        assert!(op.is_square(), "BiCGSTAB needs a square operator");
        let inv = if diag.iter().any(|&d| d == T::zero()) {
            Vector::from_vec(vec![T::one(); op.nrows()])
        } else {
            diag.iter().map(|&d| T::one() / d).collect()
        };
        BiCgStabSolver {
            op,
            inv_diag: inv,
            rel_tol,
            max_iterations,
        }
    }

    fn precondition(&self, r: &Vector<T>) -> Vector<T> {
        r.iter()
            .zip(self.inv_diag.iter())
            .map(|(&ri, &di)| ri * di)
            .collect()
    }
}

impl<T: Real, Op: LinearOperator<T> + 'static> InnerSolver<T> for BiCgStabSolver<T, Op> {
    fn kind(&self) -> InnerSolverKind {
        InnerSolverKind::BiCgStab
    }

    fn solve(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        let n = self.op.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let bnorm = b.norm2();
        if bnorm == T::zero() {
            return Ok(Vector::zeros(n));
        }
        let tol = T::from_f64(self.rel_tol) * bnorm;

        let mut x = Vector::zeros(n);
        let mut r = b.clone();
        let r_hat = b.clone();
        let mut rho = T::one();
        let mut alpha = T::one();
        let mut omega = T::one();
        let mut v = Vector::zeros(n);
        let mut p = Vector::zeros(n);
        let mut best = x.clone();
        let mut best_res = bnorm;
        for _ in 0..self.max_iterations {
            let rho_new = r_hat.dot(&r);
            if rho_new == T::zero() || omega == T::zero() {
                break;
            }
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // p = r + beta (p − omega v)
            p = &r + &(&(&p - &(&v * omega)) * beta);
            let p_hat = self.precondition(&p);
            v = self.op.matvec(&p_hat);
            let rhv = r_hat.dot(&v);
            if rhv == T::zero() {
                break;
            }
            alpha = rho / rhv;
            let s = &r - &(&v * alpha);
            x.axpy(alpha, &p_hat);
            let snorm = s.norm2();
            if snorm <= tol {
                return Ok(x);
            }
            if snorm < best_res {
                best_res = snorm;
                best = x.clone();
            }
            let s_hat = self.precondition(&s);
            let t = self.op.matvec(&s_hat);
            let tt = t.dot(&t);
            if tt == T::zero() {
                break;
            }
            omega = t.dot(&s) / tt;
            x.axpy(omega, &s_hat);
            r = &s - &(&t * omega);
            let rnorm = r.norm2();
            if rnorm <= tol {
                return Ok(x);
            }
            if rnorm < best_res {
                best_res = rnorm;
                best = x.clone();
            }
        }
        Ok(best)
    }
}

// ---------------------------------------------------------------------------
// Per-operator factorize implementations.
// ---------------------------------------------------------------------------

impl<T: Real> FactorizableOperator<T> for Matrix<T> {
    /// Dense matrices keep dense LU — the representation *is* dense, and this
    /// path stays the equivalence oracle for all structured solvers.
    fn factorize<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError> {
        self.factorize_dense_lu::<L>()
    }
}

impl<T: Real> FactorizableOperator<T> for TridiagonalMatrix<T> {
    /// O(N) Thomas elimination at precision `L`; on pivot breakdown the
    /// pivoted dense LU takes over (e.g. `[[0,1],[1,0]]` — nonsingular, but
    /// fatal for the unpivoted recurrence).
    fn factorize<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError> {
        let low: TridiagonalMatrix<L> = self.convert();
        match ThomasFactorization::new(&low) {
            Ok(f) => Ok(Box::new(f)),
            Err(LinalgError::Singular { .. }) => self.factorize_dense_lu::<L>(),
            Err(e) => Err(e),
        }
    }
}

impl<T: Real> FactorizableOperator<T> for SparseMatrix<T> {
    /// Jacobi-CG for symmetric matrices with positive diagonal, BiCGSTAB
    /// otherwise; densify-LU below [`DENSIFY_FALLBACK_MAX`].
    fn factorize<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let n = self.nrows();
        if n <= DENSIFY_FALLBACK_MAX {
            return self.factorize_dense_lu::<L>();
        }
        let symmetric = self.is_symmetric();
        let low: SparseMatrix<L> = self.convert();
        let diag = low.diagonal();
        let tol = inner_tolerance::<L>();
        if symmetric && diag.iter().all(|&d| d > L::zero()) {
            Ok(Box::new(ConjugateGradientSolver::new(low, &diag, tol, n)?))
        } else {
            Ok(Box::new(BiCgStabSolver::new(low, &diag, tol, 2 * n)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_solve;
    use crate::stencil::poisson_2d;
    use crate::tridiag::poisson_1d;

    fn assert_close(a: &Vector<f64>, b: &Vector<f64>, tol: f64, label: &str) {
        let diff = (a - b).norm2() / b.norm2().max(1e-300);
        assert!(diff <= tol, "{label}: relative diff {diff}");
    }

    #[test]
    fn thomas_factorization_matches_lu() {
        let t = TridiagonalMatrix::new(
            vec![1.0, -2.0, 0.5, 1.5],
            vec![4.0, 5.0, 6.0, 7.0, 8.0],
            vec![-1.0, 3.0, 2.5, -0.5],
        );
        let d = t.to_dense();
        let f = ThomasFactorization::new(&t).unwrap();
        assert_eq!(f.kind(), InnerSolverKind::Thomas);
        let b = Vector::from_f64_slice(&[0.3, -0.9, 1.7, 0.2, -1.1]);
        assert_close(
            &f.solve(&b).unwrap(),
            &lu_solve(&d, &b).unwrap(),
            1e-13,
            "solve",
        );
    }

    #[test]
    fn thomas_breakdown_detected_and_rescued_by_factorize() {
        // [[0, 1], [1, 0]]: perfectly conditioned, but the first Thomas pivot
        // is exactly zero.
        let t = TridiagonalMatrix::new(vec![1.0], vec![0.0, 0.0], vec![1.0]);
        assert!(matches!(
            ThomasFactorization::new(&t),
            Err(LinalgError::Singular { step: 0 })
        ));
        // factorize() falls back to pivoted dense LU and solves it.
        let solver = t.factorize::<f64>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::DenseLu);
        let b = Vector::from_f64_slice(&[2.0, 3.0]);
        let x = solver.solve(&b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14 && (x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn tridiagonal_factorize_selects_thomas() {
        let t = poisson_1d::<f64>(200, false);
        let solver = t.factorize::<f64>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::Thomas);
        let b: Vector<f64> = (0..200).map(|i| ((i as f64) * 0.1).sin()).collect();
        let x = solver.solve(&b).unwrap();
        assert!((&t.matvec(&x) - &b).norm2() / b.norm2() < 1e-12);
    }

    #[test]
    fn cg_solves_spd_csr_to_low_precision_accuracy() {
        let csr = poisson_2d::<f64>(12, 12, false);
        let solver = csr.factorize::<f64>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::ConjugateGradient);
        let b: Vector<f64> = (0..144).map(|i| ((i as f64) * 0.31).cos()).collect();
        let x = solver.solve(&b).unwrap();
        assert!((&csr.matvec(&x) - &b).norm2() / b.norm2() < 1e-10);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_csr() {
        // 1-D convection-diffusion: tridiagonal but fed through CSR to force
        // the nonsymmetric sparse path.
        let n = 80;
        let t = TridiagonalMatrix::new(vec![-1.4; n - 1], vec![2.0; n], vec![-0.6; n - 1]);
        let csr = t.to_sparse();
        let solver = csr.factorize::<f64>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::BiCgStab);
        let b: Vector<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let x = solver.solve(&b).unwrap();
        assert!((&csr.matvec(&x) - &b).norm2() / b.norm2() < 1e-10);
    }

    #[test]
    fn small_operators_fall_back_to_the_dense_oracle() {
        let csr = poisson_2d::<f64>(8, 8, false);
        assert_eq!(csr.nrows(), DENSIFY_FALLBACK_MAX);
        assert_eq!(
            csr.factorize::<f32>().unwrap().kind(),
            InnerSolverKind::DenseLu
        );
    }

    #[test]
    fn cg_rejects_indefinite_first_direction() {
        // -I is symmetric with negative diagonal: the sparse selector must
        // not pick CG, and CG itself must fail fast if forced.
        let neg = SparseMatrix::from_dense(&Matrix::from_diag(&[-1.0; 80]));
        let diag = Vector::from_vec(vec![1.0f64; 80]);
        let cg = ConjugateGradientSolver::new(neg.clone(), &diag, 1e-12, 80).unwrap();
        let b = Vector::from_vec(vec![1.0f64; 80]);
        assert!(matches!(
            cg.solve(&b),
            Err(LinalgError::Singular { step: 0 })
        ));
        // The selector routes it to BiCGSTAB instead, which solves it.
        let solver = neg.factorize::<f64>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::BiCgStab);
        let x = solver.solve(&b).unwrap();
        assert!((&neg.matvec(&x) - &b).norm2() / b.norm2() < 1e-12);
    }

    #[test]
    fn low_precision_cg_reaches_low_precision_tolerance() {
        let csr = poisson_2d::<f64>(12, 12, false);
        let solver = csr.factorize::<f32>().unwrap();
        assert_eq!(solver.kind(), InnerSolverKind::ConjugateGradient);
        let b: Vector<f32> = (0..144).map(|i| ((i as f64) * 0.17).sin() as f32).collect();
        let x = solver.solve(&b).unwrap();
        let rel = (&csr.convert::<f32>().matvec(&x) - &b).norm2() / b.norm2();
        assert!(rel < 1e-4, "f32 CG relative residual {rel}");
    }
}
