//! The 2-D and 3-D Poisson problems as CSR matrices.
//!
//! The d-dimensional analogue of the paper's Poisson running example
//! (Section III-C4) discretises `−Δu = f` on the unit square or cube with
//! homogeneous Dirichlet boundary conditions: the matrix is the Kronecker sum
//! of the 1-D second-difference matrices of every axis
//! (`A = T_x ⊗ I_ny + I_nx ⊗ T_y` in 2-D) — the classic five-point and
//! seven-point stencils.  At `N` unknowns the dense form costs O(N²) memory;
//! the generators here build the `(2d + 1)`-diagonal pattern directly as a
//! [`SparseMatrix`], so storage and every residual cost O(nnz) and run
//! through the CSR SIMD SpMV.  Its product is **bit-identical** to
//! `to_dense().matvec(..)` (same column order, same fused multiply-adds), so
//! the CSR operator can replace the dense matrix inside the refinement loop
//! without changing a single bit of the convergence history (verified by the
//! end-to-end equivalence tests).

use crate::scalar::Real;
use crate::sparse::SparseMatrix;
use crate::vector::Vector;

/// The d-dimensional Poisson operator on the interior grid of the unit
/// hypercube with Dirichlet boundary conditions: the Kronecker sum of 1-D
/// second-difference factors along every axis.
///
/// Grid point `(c_0, …, c_{d−1})` on a `dims[0] × … × dims[d−1]` grid maps to
/// the row-major flat index `Σ c_a·stride_a` (`stride_{d−1} = 1`); each row
/// couples a point to itself with `center` and to its two neighbours along
/// axis `a` with `−s_a`.  With `scaled_by_h2` each axis carries its `1/h_a²`
/// factor `s_a` (`h_a = 1/(dims[a]+1)`); without it, `s_a = 1` and
/// `center = 2d`, whose spectrum lies in `(0, 4d)`.
fn poisson_nd<T: Real>(dims: &[usize], scaled_by_h2: bool) -> SparseMatrix<T> {
    assert!(
        dims.iter().all(|&d| d >= 1),
        "Poisson grid must be non-empty"
    );
    let scales: Vec<f64> = dims
        .iter()
        .map(|&d| {
            if scaled_by_h2 {
                let h = 1.0 / (d as f64 + 1.0);
                1.0 / (h * h)
            } else {
                1.0
            }
        })
        .collect();
    let center = T::from_f64(2.0 * scales.iter().sum::<f64>());
    let offs: Vec<T> = scales.iter().map(|&s| T::from_f64(-s)).collect();

    let d = dims.len();
    let mut strides = vec![1usize; d];
    for a in (0..d - 1).rev() {
        strides[a] = strides[a + 1] * dims[a + 1];
    }
    let n: usize = dims.iter().product();
    let nnz = n + dims.iter().map(|&m| 2 * (m - 1) * (n / m)).sum::<usize>();
    let mut triplets = Vec::with_capacity(nnz);
    for k in 0..n {
        // Minus-neighbours by decreasing stride, the centre, then
        // plus-neighbours by increasing stride: increasing column order.
        for a in 0..d {
            let c = (k / strides[a]) % dims[a];
            if c > 0 {
                triplets.push((k, k - strides[a], offs[a]));
            }
        }
        triplets.push((k, k, center));
        for a in (0..d).rev() {
            let c = (k / strides[a]) % dims[a];
            if c + 1 < dims[a] {
                triplets.push((k, k + strides[a], offs[a]));
            }
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// The 3-D Poisson (seven-point) operator on an `nx × ny × nz` interior grid.
pub fn poisson_3d<T: Real>(nx: usize, ny: usize, nz: usize, scaled_by_h2: bool) -> SparseMatrix<T> {
    poisson_nd(&[nx, ny, nz], scaled_by_h2)
}

/// Exact 2-norm condition number of the **unscaled** d-dimensional Poisson
/// stencil (also valid for the `1/h²`-scaled operator on a grid with equal
/// extents): the eigenvalues are sums of per-axis 1-D eigenvalues, so the
/// extremes are sums of per-axis extremes — O(Σ `dims[a]`), usable at N ~ 10⁶.
fn poisson_nd_condition_number(dims: &[usize]) -> f64 {
    let mut min = 0.0;
    let mut max = 0.0;
    for &d in dims {
        let ev = crate::tridiag::poisson_1d_eigenvalues(d);
        min += ev.iter().cloned().fold(f64::MAX, f64::min);
        max += ev.iter().cloned().fold(f64::MIN, f64::max);
    }
    max / min
}

/// Exact 2-norm condition number of the unscaled 3-D Poisson stencil.
pub fn poisson_3d_condition_number(nx: usize, ny: usize, nz: usize) -> f64 {
    poisson_nd_condition_number(&[nx, ny, nz])
}

/// Sample `f(x, y, z)` on the interior grid of the 3-D Poisson problem,
/// flattened in the operator's row-major `(ix·ny + iy)·nz + iz` ordering.
pub fn poisson_3d_rhs<T: Real>(
    nx: usize,
    ny: usize,
    nz: usize,
    f: impl Fn(f64, f64, f64) -> f64,
) -> Vector<T> {
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let hz = 1.0 / (nz as f64 + 1.0);
    let mut out = Vec::with_capacity(nx * ny * nz);
    for ix in 1..=nx {
        for iy in 1..=ny {
            for iz in 1..=nz {
                out.push(T::from_f64(f(
                    ix as f64 * hx,
                    iy as f64 * hy,
                    iz as f64 * hz,
                )));
            }
        }
    }
    Vector::from_vec(out)
}

/// The 2-D Poisson (five-point) operator on an `nx × ny` interior grid of the
/// unit square with Dirichlet boundary conditions; grid point `(ix, iy)` is
/// row `ix·ny + iy`.
///
/// With `scaled_by_h2` the operator is the PDE discretisation
/// `(1/hx²)·tridiag(−1,2,−1) ⊗ I + I ⊗ (1/hy²)·tridiag(−1,2,−1)`
/// (`hx = 1/(nx+1)`, `hy = 1/(ny+1)`); without it, the pure stencil with
/// `center = 4`, `off = −1`, whose spectrum lies in `(0, 8)` — the form most
/// convenient for block-encoding (spectral norm bounded independently of N).
pub fn poisson_2d<T: Real>(nx: usize, ny: usize, scaled_by_h2: bool) -> SparseMatrix<T> {
    poisson_nd(&[nx, ny], scaled_by_h2)
}

/// Exact 2-norm condition number of the unscaled 2-D Poisson stencil
/// (also valid for the `1/h²`-scaled operator on a **square** grid, where the
/// scaling is a uniform positive factor).
pub fn poisson_2d_condition_number(nx: usize, ny: usize) -> f64 {
    poisson_nd_condition_number(&[nx, ny])
}

/// Sample `f(x, y)` on the interior grid of the 2-D Poisson problem
/// (`x = ix·hx`, `y = iy·hy` for `ix = 1..nx`, `iy = 1..ny`), flattened in
/// the operator's `ix·ny + iy` ordering.
pub fn poisson_2d_rhs<T: Real>(nx: usize, ny: usize, f: impl Fn(f64, f64) -> f64) -> Vector<T> {
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let mut out = Vec::with_capacity(nx * ny);
    for ix in 1..=nx {
        for iy in 1..=ny {
            out.push(T::from_f64(f(ix as f64 * hx, iy as f64 * hy)));
        }
    }
    Vector::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::cond_2;
    use crate::matrix::Matrix;
    use crate::operator::LinearOperator;
    use crate::tridiag::{poisson_1d, poisson_1d_eigenvalues};

    /// The Kronecker sum `Σ_a I ⊗ … ⊗ T_a ⊗ … ⊗ I` of dense 1-D factors,
    /// row-major over the axes (axis 0 outermost), summed in axis order.
    fn kronecker_sum(factors: &[Matrix<f64>]) -> Matrix<f64> {
        let dims: Vec<usize> = factors.iter().map(|t| t.nrows()).collect();
        let n: usize = dims.iter().product();
        let coords = |mut k: usize| {
            let mut c = vec![0; dims.len()];
            for a in (0..dims.len()).rev() {
                c[a] = k % dims[a];
                k /= dims[a];
            }
            c
        };
        Matrix::from_fn(n, n, |r, c| {
            let (cr, cc) = (coords(r), coords(c));
            (0..dims.len()).fold(0.0, |acc, a| {
                let others_equal = (0..dims.len()).all(|b| b == a || cr[b] == cc[b]);
                if others_equal {
                    acc + factors[a][(cr[a], cc[a])]
                } else {
                    acc
                }
            })
        })
    }

    #[test]
    fn poisson_operators_are_kronecker_sums_of_poisson_1d() {
        for scaled in [false, true] {
            let t = |m: usize| poisson_1d::<f64>(m, scaled).to_dense();
            for (nx, ny) in [(3, 2), (5, 4), (5, 1), (1, 4), (1, 1)] {
                assert_eq!(
                    poisson_2d::<f64>(nx, ny, scaled).to_dense(),
                    kronecker_sum(&[t(nx), t(ny)]),
                    "2-D {nx}x{ny}, scaled {scaled}"
                );
            }
            for (nx, ny, nz) in [(3, 4, 2), (2, 3, 3), (1, 4, 1), (3, 1, 2), (1, 1, 1)] {
                assert_eq!(
                    poisson_3d::<f64>(nx, ny, nz, scaled).to_dense(),
                    kronecker_sum(&[t(nx), t(ny), t(nz)]),
                    "3-D {nx}x{ny}x{nz}, scaled {scaled}"
                );
            }
        }
    }

    #[test]
    fn matvec_is_bit_identical_to_dense() {
        let s = poisson_2d::<f64>(5, 4, true);
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        let x: Vector<f64> = (0..20).map(|i| ((i as f64) * 0.37).sin()).collect();
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
        assert_eq!(
            LinearOperator::matvec_transposed(&s, &x).as_slice(),
            d.matvec(&x).as_slice()
        );
        let s = poisson_3d::<f64>(3, 4, 2, true);
        assert_eq!(s.nrows(), 24);
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        let x: Vector<f64> = (0..24).map(|i| ((i as f64) * 0.73).cos()).collect();
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
    }

    #[test]
    fn condition_numbers_match_dense() {
        let kappa_analytic = poisson_2d_condition_number(4, 3);
        let kappa_numeric = cond_2(&poisson_2d::<f64>(4, 3, false).to_dense());
        assert!((kappa_analytic - kappa_numeric).abs() / kappa_analytic < 1e-8);
        let kappa_analytic = poisson_3d_condition_number(3, 2, 4);
        let kappa_numeric = cond_2(&poisson_3d::<f64>(3, 2, 4, false).to_dense());
        assert!((kappa_analytic - kappa_numeric).abs() / kappa_analytic < 1e-8);
    }

    #[test]
    fn condition_number_2d_equals_the_eigenvalue_list_formula_bit_for_bit() {
        // The extremes of `λx + λy` over every pair are the sums of the
        // per-axis extremes, because rounding is monotone.
        for (nx, ny) in [(4, 3), (8, 8), (16, 5), (1, 7), (63, 64)] {
            let ex = poisson_1d_eigenvalues(nx);
            let ey = poisson_1d_eigenvalues(ny);
            let sums: Vec<f64> = ex
                .iter()
                .flat_map(|&lx| ey.iter().map(move |&ly| lx + ly))
                .collect();
            let max = sums.iter().cloned().fold(f64::MIN, f64::max);
            let min = sums.iter().cloned().fold(f64::MAX, f64::min);
            assert_eq!(
                poisson_2d_condition_number(nx, ny).to_bits(),
                (max / min).to_bits(),
                "{nx}x{ny}"
            );
        }
    }

    #[test]
    fn rhs_sampling_follows_grid_ordering() {
        // f(x, y) = x so the sample varies only along ix (the outer index).
        let b = poisson_2d_rhs::<f64>(2, 3, |x, _| x);
        let hx = 1.0 / 3.0;
        assert!((b[0] - hx).abs() < 1e-15);
        assert!((b[2] - hx).abs() < 1e-15);
        assert!((b[3] - 2.0 * hx).abs() < 1e-15);
        // f = z varies fastest (innermost axis).
        let b = poisson_3d_rhs::<f64>(2, 2, 3, |_, _, z| z);
        let hz = 1.0 / 4.0;
        assert!((b[0] - hz).abs() < 1e-15);
        assert!((b[1] - 2.0 * hz).abs() < 1e-15);
        assert!((b[3] - hz).abs() < 1e-15);
    }

    #[test]
    fn degenerate_one_dimensional_grids() {
        // ny = 1 reduces to the 1-D Poisson matrix along x, plus the 2·I the
        // absent y-neighbours leave on the diagonal.
        let d = poisson_2d::<f64>(5, 1, false).to_dense();
        let mut expect = poisson_1d::<f64>(5, false).to_dense();
        for i in 0..5 {
            expect[(i, i)] += 2.0;
        }
        assert_eq!(d, expect);
    }
}
