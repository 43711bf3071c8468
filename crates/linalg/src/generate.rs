//! Test-matrix and test-vector generators.
//!
//! Section IV of the paper evaluates the solver on "randomly generated"
//! matrices with prescribed condition numbers (κ = 10, 100, 200, 300, …) and
//! unit-norm right-hand sides.  The standard way to build such matrices is
//! `A = U Σ Vᵀ` with Haar-random orthogonal `U`, `V` and a chosen singular
//! value profile; this module implements that construction plus a symmetric
//! positive-definite variant and uniform random matrices.

use crate::matrix::Matrix;
use crate::qr::QrFactorization;
use crate::sparse::SparseMatrix;
use crate::vector::Vector;
use rand::Rng;

pub use crate::stencil::{poisson_2d, poisson_2d_condition_number, poisson_2d_rhs};

/// How the singular values are distributed between 1 and 1/κ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingularValueDistribution {
    /// Geometric spacing: σ_i = κ^{-(i-1)/(n-1)} (LAPACK "mode 3", the default
    /// used in mixed-precision iterative-refinement studies).
    Geometric,
    /// Arithmetic (linear) spacing between 1 and 1/κ.
    Arithmetic,
    /// One large singular value, all the others equal to 1/κ (LAPACK "mode 1").
    OneLarge,
    /// All singular values equal to 1 except the smallest equal to 1/κ
    /// (LAPACK "mode 2").
    OneSmall,
    /// Clustered: half the spectrum at 1, half at 1/κ.
    Clustered,
}

impl SingularValueDistribution {
    /// Generate `n` singular values in `[1/κ, 1]`, sorted in non-increasing
    /// order, with σ_max = 1 and σ_min = 1/κ (so κ₂ = κ exactly).
    pub(crate) fn singular_values(self, n: usize, kappa: f64) -> Vec<f64> {
        assert!(n >= 1, "need at least one singular value");
        assert!(kappa >= 1.0, "condition number must be >= 1");
        if n == 1 {
            return vec![1.0];
        }
        let smin = 1.0 / kappa;
        let mut sv: Vec<f64> = match self {
            SingularValueDistribution::Geometric => (0..n)
                .map(|i| kappa.powf(-(i as f64) / (n as f64 - 1.0)))
                .collect(),
            SingularValueDistribution::Arithmetic => (0..n)
                .map(|i| 1.0 - (1.0 - smin) * (i as f64) / (n as f64 - 1.0))
                .collect(),
            SingularValueDistribution::OneLarge => {
                let mut v = vec![smin; n];
                v[0] = 1.0;
                v
            }
            SingularValueDistribution::OneSmall => {
                let mut v = vec![1.0; n];
                v[n - 1] = smin;
                v
            }
            SingularValueDistribution::Clustered => {
                let half = n / 2;
                let mut v = vec![1.0; n];
                for item in v.iter_mut().skip(half) {
                    *item = smin;
                }
                v
            }
        };
        // Enforce the extremes exactly so cond_2 == kappa.
        sv[0] = 1.0;
        sv[n - 1] = smin;
        sv.sort_by(|a, b| b.partial_cmp(a).unwrap());
        sv
    }
}

/// Which matrix ensemble to draw the orthogonal factors from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixEnsemble {
    /// General nonsymmetric matrix: independent Haar-random U and V.
    General,
    /// Symmetric positive definite: A = Q Σ Qᵀ with a single Haar-random Q.
    SymmetricPositiveDefinite,
    /// Symmetric indefinite: A = Q D Qᵀ with alternating signs on the diagonal.
    SymmetricIndefinite,
}

/// Draw an n×n matrix with independent standard-normal entries
/// (Box–Muller transform so only a uniform RNG is required).
pub(crate) fn random_gaussian_matrix<R: Rng>(n: usize, rng: &mut R) -> Matrix<f64> {
    Matrix::from_fn(n, n, |_, _| {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    })
}

/// Draw a Haar-distributed random orthogonal matrix (QR of a Gaussian matrix,
/// with the sign convention fixed so the distribution is exactly Haar).
pub(crate) fn random_orthogonal<R: Rng>(n: usize, rng: &mut R) -> Matrix<f64> {
    let g = random_gaussian_matrix(n, rng);
    let qr = QrFactorization::new(&g).expect("QR of a random Gaussian matrix");
    let mut q = qr.q();
    let r = qr.r();
    // Fix signs: multiply column j of Q by sign(r_jj) so the factorisation is
    // unique and Q is Haar-distributed.
    for j in 0..n {
        if r[(j, j)] < 0.0 {
            for i in 0..n {
                q[(i, j)] = -q[(i, j)];
            }
        }
    }
    q
}

/// Generate a random n×n matrix with 2-norm condition number exactly `kappa`,
/// spectral norm 1, and the requested singular-value profile / symmetry.
pub fn random_matrix_with_cond<R: Rng>(
    n: usize,
    kappa: f64,
    dist: SingularValueDistribution,
    ensemble: MatrixEnsemble,
    rng: &mut R,
) -> Matrix<f64> {
    let sv = dist.singular_values(n, kappa);
    match ensemble {
        MatrixEnsemble::General => {
            let u = random_orthogonal(n, rng);
            let v = random_orthogonal(n, rng);
            let mut us = u;
            for j in 0..n {
                for i in 0..n {
                    us[(i, j)] *= sv[j];
                }
            }
            us.matmul(&v.transpose())
        }
        MatrixEnsemble::SymmetricPositiveDefinite => {
            let q = random_orthogonal(n, rng);
            let mut qs = q.clone();
            for j in 0..n {
                for i in 0..n {
                    qs[(i, j)] *= sv[j];
                }
            }
            qs.matmul(&q.transpose())
        }
        MatrixEnsemble::SymmetricIndefinite => {
            let q = random_orthogonal(n, rng);
            let mut qs = q.clone();
            for j in 0..n {
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                for i in 0..n {
                    qs[(i, j)] *= sv[j] * sign;
                }
            }
            qs.matmul(&q.transpose())
        }
    }
}

/// Generate a random vector with independent uniform entries in [-1, 1],
/// normalised to unit Euclidean norm (the paper fixes ‖b‖ = 1).
pub fn random_unit_vector<R: Rng>(n: usize, rng: &mut R) -> Vector<f64> {
    loop {
        let mut v: Vector<f64> = (0..n)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect::<Vector<f64>>();
        let norm = v.normalize();
        if norm > 1e-12 {
            return v;
        }
    }
}

/// The (weighted) graph Laplacian `L = D − W` of an undirected graph on `n`
/// vertices, built directly in CSR form: each edge `(u, v, w)` contributes
/// `+w` to both diagonal entries and `−w` to both off-diagonal couplings.
/// Parallel edges are merged by the triplet builder (their weights sum).
///
/// `L` is symmetric positive **semi**-definite — the constant vector is
/// always in its null space — so linear solves use
/// [`shifted_graph_laplacian`] (adds `shift·I`, making the system SPD), the
/// standard regularisation for graph workloads.
pub fn graph_laplacian<T: crate::scalar::Real>(
    n: usize,
    edges: &[(usize, usize, f64)],
) -> SparseMatrix<T> {
    SparseMatrix::from_triplets(n, n, &laplacian_triplets(n, edges))
}

/// [`graph_laplacian`] plus `shift·I` (symmetric positive definite for any
/// `shift > 0` — the solvable form of a graph-Laplacian system).
pub fn shifted_graph_laplacian<T: crate::scalar::Real>(
    n: usize,
    edges: &[(usize, usize, f64)],
    shift: f64,
) -> SparseMatrix<T> {
    let mut triplets = laplacian_triplets(n, edges);
    for i in 0..n {
        triplets.push((i, i, T::from_f64(shift)));
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// The `L = D − W` triplets shared by the Laplacian builders (duplicate
/// coordinates are summed by the triplet builder).
fn laplacian_triplets<T: crate::scalar::Real>(
    n: usize,
    edges: &[(usize, usize, f64)],
) -> Vec<(usize, usize, T)> {
    let mut triplets: Vec<(usize, usize, T)> = Vec::with_capacity(4 * edges.len() + n);
    for &(u, v, w) in edges {
        assert!(
            u < n && v < n,
            "graph_laplacian: edge ({u}, {v}) out of range"
        );
        assert_ne!(u, v, "graph_laplacian: self-loops are not allowed");
        let w = T::from_f64(w);
        triplets.push((u, u, w));
        triplets.push((v, v, w));
        triplets.push((u, v, -w));
        triplets.push((v, u, -w));
    }
    triplets
}

/// A random connected weighted graph: a random spanning tree (vertex `v`
/// attaches to a uniformly chosen earlier vertex) plus `extra_edges` uniform
/// random edges, all with weights in `[0.5, 1.5)`.  Duplicate edges are fine
/// — the Laplacian builders merge them.
pub fn random_connected_graph<R: Rng>(
    n: usize,
    extra_edges: usize,
    rng: &mut R,
) -> Vec<(usize, usize, f64)> {
    assert!(n >= 2, "need at least two vertices");
    let mut edges = Vec::with_capacity(n - 1 + extra_edges);
    for v in 1..n {
        let u = rng.gen_range(0..v);
        edges.push((u, v, rng.gen_range(0.5..1.5)));
    }
    for _ in 0..extra_edges {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        edges.push((u.min(v), u.max(v), rng.gen_range(0.5..1.5)));
    }
    edges
}

/// The 1-D convection-diffusion operator `−u'' + p·u'` on a uniform grid with
/// Dirichlet boundaries, centrally differenced and scaled by `h²`: the
/// tridiagonal CSR matrix with rows `(−1 − p/2, 2, −1 + p/2)` where `p` is
/// the mesh Péclet number `c·h`.  Nonsymmetric for any `p ≠ 0` — the
/// canonical small workload for the transposed matvec and for an unpivoted
/// Thomas elimination that needs no symmetry.  For `|p| < 2` the matrix is
/// (weakly) row diagonally dominant and all eigenvalues
/// `2 − 2·√((1−p/2)(1+p/2))·cos(kπ/(n+1))` are real and positive.
pub fn convection_diffusion_1d<T: crate::scalar::Real>(n: usize, peclet: f64) -> SparseMatrix<T> {
    assert!(n >= 1, "convection_diffusion_1d: empty grid");
    assert!(
        peclet.abs() < 2.0,
        "convection_diffusion_1d: |peclet| must be < 2 for a stable central scheme"
    );
    let lower = T::from_f64(-1.0 - peclet / 2.0);
    let upper = T::from_f64(-1.0 + peclet / 2.0);
    let center = T::from_f64(2.0);
    let mut triplets: Vec<(usize, usize, T)> = Vec::with_capacity(3 * n);
    for k in 0..n {
        if k > 0 {
            triplets.push((k, k - 1, lower));
        }
        triplets.push((k, k, center));
        if k + 1 < n {
            triplets.push((k, k + 1, upper));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// The 2-D convection-diffusion operator `−Δu + (cx, cy)·∇u` on an
/// `nx × ny` interior grid (Dirichlet boundaries, central differences,
/// scaled by `h²`), built directly in CSR form.  With mesh Péclet numbers
/// `px = cx·h` and `py = cy·h` the five-point rows are
/// `center 4`, `west −1 − px/2`, `east −1 + px/2`,
/// `south −1 − py/2`, `north −1 + py/2` — nonsymmetric whenever either
/// Péclet number is nonzero.  Grid point `(ix, iy)` maps to row
/// `ix·ny + iy` (row-major, matching [`crate::stencil::poisson_2d`]).
pub fn convection_diffusion_2d<T: crate::scalar::Real>(
    nx: usize,
    ny: usize,
    peclet_x: f64,
    peclet_y: f64,
) -> SparseMatrix<T> {
    assert!(nx >= 1 && ny >= 1, "convection_diffusion_2d: empty grid");
    assert!(
        peclet_x.abs() < 2.0 && peclet_y.abs() < 2.0,
        "convection_diffusion_2d: mesh Péclet numbers must satisfy |p| < 2"
    );
    let n = nx * ny;
    let west = T::from_f64(-1.0 - peclet_x / 2.0);
    let east = T::from_f64(-1.0 + peclet_x / 2.0);
    let south = T::from_f64(-1.0 - peclet_y / 2.0);
    let north = T::from_f64(-1.0 + peclet_y / 2.0);
    let center = T::from_f64(4.0);
    let mut triplets: Vec<(usize, usize, T)> = Vec::with_capacity(5 * n);
    for ix in 0..nx {
        for iy in 0..ny {
            let k = ix * ny + iy;
            if ix > 0 {
                triplets.push((k, k - ny, west));
            }
            if iy > 0 {
                triplets.push((k, k - 1, south));
            }
            triplets.push((k, k, center));
            if iy + 1 < ny {
                triplets.push((k, k + 1, north));
            }
            if ix + 1 < nx {
                triplets.push((k, k + ny, east));
            }
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::cond_2;
    use crate::svd::Svd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn singular_value_profiles_hit_extremes() {
        for dist in [
            SingularValueDistribution::Geometric,
            SingularValueDistribution::Arithmetic,
            SingularValueDistribution::OneLarge,
            SingularValueDistribution::OneSmall,
            SingularValueDistribution::Clustered,
        ] {
            let sv = dist.singular_values(8, 100.0);
            assert_eq!(sv.len(), 8);
            assert!((sv[0] - 1.0).abs() < 1e-15);
            assert!((sv[7] - 0.01).abs() < 1e-15);
            for w in sv.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn orthogonal_matrices_are_orthogonal() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let q = random_orthogonal(10, &mut rng);
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(10)) < 1e-12);
    }

    #[test]
    fn generated_matrix_has_requested_cond_and_unit_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let a = random_matrix_with_cond(
            16,
            200.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::General,
            &mut rng,
        );
        let svd = Svd::new(&a);
        assert!((svd.norm2() - 1.0).abs() < 1e-10);
        assert!((svd.cond() - 200.0).abs() / 200.0 < 1e-8);
    }

    #[test]
    fn spd_matrix_is_symmetric_with_positive_eigenvalues() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let a = random_matrix_with_cond(
            8,
            50.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::SymmetricPositiveDefinite,
            &mut rng,
        );
        assert!(a.is_symmetric(1e-12));
        // Positive definiteness: xᵀAx > 0 for a few random x.
        for seed in 0..5u64 {
            let mut r2 = ChaCha8Rng::seed_from_u64(100 + seed);
            let x = random_unit_vector(8, &mut r2);
            assert!(x.dot(&a.matvec(&x)) > 0.0);
        }
        assert!((cond_2(&a) - 50.0).abs() / 50.0 < 1e-8);
    }

    #[test]
    fn symmetric_indefinite_is_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let a = random_matrix_with_cond(
            8,
            20.0,
            SingularValueDistribution::Geometric,
            MatrixEnsemble::SymmetricIndefinite,
            &mut rng,
        );
        assert!(a.is_symmetric(1e-12));
        assert!((cond_2(&a) - 20.0).abs() / 20.0 < 1e-8);
    }

    #[test]
    fn unit_vector_has_norm_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let v = random_unit_vector(16, &mut rng);
        assert!((v.norm2() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn graph_laplacian_has_zero_row_sums_and_is_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(38);
        let edges = random_connected_graph(12, 8, &mut rng);
        let l = graph_laplacian::<f64>(12, &edges);
        let d = l.to_dense();
        assert!(d.is_symmetric(1e-14));
        // L * 1 = 0 (the constant null vector).
        let ones = Vector::ones(12);
        assert!(l.matvec(&ones).norm2() < 1e-12);
        // Positive semi-definite: xᵀLx >= 0.
        for seed in 0..3u64 {
            let mut r2 = ChaCha8Rng::seed_from_u64(200 + seed);
            let x = random_unit_vector(12, &mut r2);
            assert!(x.dot(&l.matvec(&x)) >= -1e-12);
        }
    }

    #[test]
    fn shifted_graph_laplacian_is_positive_definite() {
        let mut rng = ChaCha8Rng::seed_from_u64(39);
        let edges = random_connected_graph(10, 5, &mut rng);
        let l = shifted_graph_laplacian::<f64>(10, &edges, 0.5);
        // Smallest eigenvalue is exactly shift (the constant vector), so the
        // matrix is comfortably SPD and LU-solvable.
        let x = crate::lu::lu_solve(&l.to_dense(), &Vector::ones(10)).unwrap();
        assert!((&l.matvec(&x) - &Vector::ones(10)).norm2() < 1e-10);
        for seed in 0..3u64 {
            let mut r2 = ChaCha8Rng::seed_from_u64(300 + seed);
            let v = random_unit_vector(10, &mut r2);
            assert!(v.dot(&l.matvec(&v)) >= 0.5 - 1e-10);
        }
    }

    #[test]
    fn parallel_edges_merge_in_the_laplacian() {
        // The same edge twice behaves like one edge of summed weight.
        let twice = graph_laplacian::<f64>(3, &[(0, 1, 0.75), (0, 1, 0.25), (1, 2, 1.0)]);
        let once = graph_laplacian::<f64>(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(twice.to_dense(), once.to_dense());
    }

    #[test]
    fn convection_diffusion_1d_is_nonsymmetric_with_dominant_rows() {
        let t = convection_diffusion_1d::<f64>(6, 0.8);
        let a = t.to_dense();
        // Row pattern (−1.4, 2, −0.6): nonsymmetric, weakly dominant.
        assert_eq!(a[(1, 0)], -1.4);
        assert_eq!(a[(1, 1)], 2.0);
        assert_eq!(a[(1, 2)], -0.6);
        assert!(a.max_abs_diff(&a.transpose()) > 0.5);
        // peclet = 0 recovers the 1-D Poisson matrix exactly.
        let p0 = convection_diffusion_1d::<f64>(6, 0.0).to_dense();
        assert_eq!(p0, crate::stencil::poisson_1d::<f64>(6, false).to_dense());
    }

    #[test]
    fn convection_diffusion_2d_reduces_to_poisson_at_zero_peclet() {
        let cd = convection_diffusion_2d::<f64>(4, 3, 0.0, 0.0);
        let poisson = crate::stencil::poisson_2d::<f64>(4, 3, false);
        assert_eq!(cd.to_dense(), poisson.to_dense());
    }

    #[test]
    fn convection_diffusion_2d_couples_the_grid_directionally() {
        let (nx, ny) = (3, 4);
        let a = convection_diffusion_2d::<f64>(nx, ny, 0.5, -0.25);
        let d = a.to_dense();
        // Interior point (1, 1) → row 1·ny + 1 = 5.
        let k = ny + 1;
        assert_eq!(d[(k, k)], 4.0);
        assert_eq!(d[(k, k - ny)], -1.25); // west  (−1 − px/2)
        assert_eq!(d[(k, k + ny)], -0.75); // east  (−1 + px/2)
        assert_eq!(d[(k, k - 1)], -0.875); // south (−1 − py/2)
        assert_eq!(d[(k, k + 1)], -1.125); // north (−1 + py/2)
        assert!(!a.is_symmetric());
    }

    #[test]
    fn deterministic_given_seed() {
        let a1 = {
            let mut rng = ChaCha8Rng::seed_from_u64(37);
            random_matrix_with_cond(
                8,
                10.0,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            )
        };
        let a2 = {
            let mut rng = ChaCha8Rng::seed_from_u64(37);
            random_matrix_with_cond(
                8,
                10.0,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            )
        };
        assert_eq!(a1, a2);
    }
}
