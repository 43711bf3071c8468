//! End-to-end equivalence of the operator layer: running Algorithm 2 over a
//! structured operator (the CSR Poisson stencils) must reproduce the
//! dense-matrix refiner's convergence history **bit for bit**.
//!
//! This is the operator-layer analogue of the simulator's
//! `kernels::reference` / `OptLevel::None` oracles: the CSR matvec
//! accumulates in the same column order with the same fused multiply-adds as
//! the dense kernel, so swapping the representation changes *nothing* about
//! the computed floats — only the cost of computing them.  The tests also
//! hold each refiner to its matvec budget: every step forms the residual of
//! its iterate once.

use qls::linalg::lu::LinalgError;
use qls::linalg::Real;
use qls::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Operator wrapper that counts every `to_dense` and every `matvec` call —
/// the probe behind the "no classical refinement path densifies a
/// structured operator" guarantee and the per-solve matvec budget.  Clones
/// share the counters.
#[derive(Clone, Debug)]
struct CountingOperator<Op> {
    inner: Op,
    densify_calls: Arc<AtomicUsize>,
    matvec_calls: Arc<AtomicUsize>,
}

impl<Op> CountingOperator<Op> {
    fn new(inner: Op) -> Self {
        CountingOperator {
            inner,
            densify_calls: Arc::new(AtomicUsize::new(0)),
            matvec_calls: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn densify_count(&self) -> usize {
        self.densify_calls.load(Ordering::SeqCst)
    }

    fn matvec_count(&self) -> usize {
        self.matvec_calls.load(Ordering::SeqCst)
    }
}

impl<Op: LinearOperator<f64>> LinearOperator<f64> for CountingOperator<Op> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn matvec(&self, x: &Vector<f64>) -> Vector<f64> {
        self.matvec_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.matvec(x)
    }
    fn matvec_transposed(&self, x: &Vector<f64>) -> Vector<f64> {
        self.inner.matvec_transposed(x)
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn to_dense(&self) -> Matrix<f64> {
        self.densify_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.to_dense()
    }
    fn norm_frobenius(&self) -> f64 {
        self.inner.norm_frobenius()
    }
}

impl<Op: FactorizableOperator<f64>> FactorizableOperator<f64> for CountingOperator<Op> {
    fn factorize<L: Real>(&self) -> Result<Box<dyn InnerSolver<L>>, LinalgError> {
        self.inner.factorize::<L>()
    }
    // `factorize_dense_lu` keeps its default body, which goes through
    // `self.to_dense()` and is therefore counted.
}

/// The N = 64 test problem: the 8x8 2-D Poisson stencil (kappa ≈ 32, so the
/// epsilon_l = 1e-2 inner solver still contracts per Theorem III.1), as CSR
/// and densified.
fn poisson_64() -> (SparseMatrix<f64>, Matrix<f64>) {
    let csr = poisson_2d::<f64>(8, 8, false);
    let dense = csr.to_dense();
    (csr, dense)
}

fn options() -> HybridRefinementOptions {
    HybridRefinementOptions {
        target_epsilon: 1e-10,
        epsilon_l: 1e-2,
        ..Default::default()
    }
}

fn assert_identical_histories(
    label: &str,
    (x_a, h_a): &(Vector<f64>, HybridHistory),
    (x_b, h_b): &(Vector<f64>, HybridHistory),
) {
    assert_eq!(h_a.status, h_b.status, "{label}: status differs");
    assert_eq!(
        h_a.steps.len(),
        h_b.steps.len(),
        "{label}: iteration count differs"
    );
    for (sa, sb) in h_a.steps.iter().zip(&h_b.steps) {
        assert_eq!(
            sa.scaled_residual, sb.scaled_residual,
            "{label}: scaled residual differs at iteration {}",
            sa.iteration
        );
    }
    assert_eq!(
        x_a.as_slice(),
        x_b.as_slice(),
        "{label}: solutions differ bitwise"
    );
}

#[test]
fn hybrid_refiner_histories_are_bit_identical_across_operator_representations() {
    let (csr, dense) = poisson_64();
    assert_eq!(dense.nrows(), 64);
    let b = poisson_2d_rhs::<f64>(8, 8, |x, y| 2.0 * y * (1.0 - y) + 2.0 * x * (1.0 - x));

    let dense_refiner = HybridRefiner::new(&dense, options()).expect("dense refiner");
    let csr_refiner = HybridRefiner::new(&csr, options()).expect("CSR refiner");

    // Identical RNG seeds (exact readout never consumes the RNG, but the
    // contract should hold for the full call signature).
    let dense_run = dense_refiner
        .solve(&b, &mut experiment_rng(42))
        .expect("dense solve");
    let csr_run = csr_refiner
        .solve(&b, &mut experiment_rng(42))
        .expect("CSR solve");

    // The run must actually exercise the refinement loop, converge, and
    // agree bit for bit across both representations.
    assert_eq!(dense_run.1.status, HybridStatus::Converged);
    assert!(
        dense_run.1.iterations() >= 2,
        "expected a multi-iteration run, got {}",
        dense_run.1.iterations()
    );
    assert_identical_histories("csr vs dense", &csr_run, &dense_run);
}

#[test]
fn classical_refiner_is_bit_identical_over_csr() {
    // Algorithm 1 (classical mixed-precision IR, f32 inner LU) over the CSR
    // operator vs the dense matrix: the low-precision factorisation runs on
    // the same densified matrix and the high-precision residuals are
    // bit-identical, so the whole history must match exactly.
    let (csr, dense) = poisson_64();
    let b = poisson_2d_rhs::<f64>(8, 8, |x, y| (3.0 * x - y).sin());
    let opts = RefinementOptions {
        target_scaled_residual: 1e-13,
        max_iterations: 30,
        ..Default::default()
    };
    let dense_refiner = ClassicalRefiner::<f64, f32>::new(&dense, opts).expect("dense refiner");
    let csr_refiner =
        ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&csr, opts).expect("CSR refiner");
    let (x_dense, h_dense) = dense_refiner.solve(&b).expect("dense solve");
    let (x_csr, h_csr) = csr_refiner.solve(&b).expect("CSR solve");
    assert_eq!(h_dense.status, h_csr.status);
    assert!(h_dense.iterations() >= 1);
    assert_eq!(h_dense.steps.len(), h_csr.steps.len());
    for (d, s) in h_dense.steps.iter().zip(&h_csr.steps) {
        assert_eq!(d.scaled_residual, s.scaled_residual);
    }
    assert_eq!(x_dense.as_slice(), x_csr.as_slice());
}

/// Deterministic right-hand side for the larger-than-fallback problems.
fn smooth_rhs(n: usize) -> Vector<f64> {
    (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect()
}

/// Run the structured refiner and the dense-LU oracle over the same operator
/// and assert: the structured path picked the expected inner solver, both
/// converged with zero `to_dense` calls on the structured side, a history of
/// k steps applied the high-precision operator k times (one residual per
/// step), and the final solutions agree to 1e-10.
fn assert_structured_matches_oracle<Op: FactorizableOperator<f64> + Clone>(
    label: &str,
    op: &Op,
    expected_kind: InnerSolverKind,
) {
    let n = op.nrows();
    assert!(
        n > DENSIFY_FALLBACK_MAX,
        "{label}: the probe only means something above the fallback threshold"
    );
    let b = smooth_rhs(n);
    let opts = RefinementOptions {
        target_scaled_residual: 1e-13,
        max_iterations: 60,
        ..Default::default()
    };

    let counted = CountingOperator::new(op.clone());
    let refiner = ClassicalRefiner::<f64, f32, CountingOperator<Op>>::new(&counted, opts)
        .expect("structured refiner");
    assert_eq!(
        refiner.inner_kind(),
        expected_kind,
        "{label}: wrong inner solver selected"
    );
    let (x_structured, h_structured) = refiner.solve(&b).expect("structured solve");
    assert_eq!(
        counted.densify_count(),
        0,
        "{label}: the structured refinement path called to_dense"
    );
    assert_eq!(
        counted.matvec_count(),
        h_structured.steps.len(),
        "{label}: one high-precision residual per step"
    );

    let oracle =
        ClassicalRefiner::<f64, f32, Op>::with_dense_lu(op, opts).expect("dense-LU oracle");
    assert_eq!(oracle.inner_kind(), InnerSolverKind::DenseLu);
    let (x_oracle, h_oracle) = oracle.solve(&b).expect("oracle solve");

    assert_eq!(
        h_structured.status, h_oracle.status,
        "{label}: status differs from the oracle"
    );
    assert!(
        h_structured.final_residual() <= 1e-13,
        "{label}: structured path did not converge ({:e})",
        h_structured.final_residual()
    );
    let rel = (&x_structured - &x_oracle).norm2() / x_oracle.norm2();
    assert!(
        rel <= 1e-10,
        "{label}: structured and oracle solutions differ by {rel:e}"
    );
}

#[test]
fn thomas_refinement_matches_the_dense_lu_oracle() {
    // 1-D Poisson at N = 256: O(N) Thomas inner solves vs densify-LU.
    let tridiag = poisson_1d::<f64>(256, false);
    assert_structured_matches_oracle("tridiag-256", &tridiag, InnerSolverKind::Thomas);
}

#[test]
fn stencil_cg_refinement_matches_the_dense_lu_oracle() {
    // The 2-D Poisson stencil at 16x16 (N = 256) as CSR: Jacobi-CG inner
    // solves.
    let csr = poisson_2d::<f64>(16, 16, false);
    assert_structured_matches_oracle("poisson2d-16x16", &csr, InnerSolverKind::ConjugateGradient);
}

#[test]
fn stencil_nd_cg_refinement_matches_the_dense_lu_oracle() {
    // The 3-D (seven-point) Poisson stencil on a 6x5x4 grid (N = 120) as CSR.
    let csr = poisson_3d::<f64>(6, 5, 4, false);
    assert_structured_matches_oracle("poisson3d-6x5x4", &csr, InnerSolverKind::ConjugateGradient);
}

#[test]
fn bicgstab_refinement_matches_the_dense_lu_oracle() {
    // Nonsymmetric convection-diffusion on a 12x10 grid (N = 120): exercises
    // the BiCGSTAB inner path (and `matvec_transposed` inside it).
    let cd = convection_diffusion_2d::<f64>(12, 10, 0.4, 0.2);
    assert_structured_matches_oracle("convdiff-12x10", &cd, InnerSolverKind::BiCgStab);
}

#[test]
fn hybrid_refiner_never_densifies_after_construction() {
    // The hybrid loop densifies exactly once — in `new`, for the quantum-side
    // block-encoding.  Neither `solve` nor `solve_many` may densify again:
    // the classical half of Algorithm 2 is residuals + updates only.
    let counted = CountingOperator::new(poisson_2d::<f64>(8, 8, false));
    let refiner = HybridRefiner::new(&counted, options()).expect("hybrid refiner");
    let after_new = counted.densify_count();
    assert!(after_new >= 1, "construction builds the block-encoding");

    let b = poisson_2d_rhs::<f64>(8, 8, |x, y| x * y + 0.5);
    let (_, history) = refiner
        .solve(&b, &mut experiment_rng(3))
        .expect("hybrid solve");
    assert!(history.iterations() >= 1);
    refiner
        .solve_many(&[b.clone(), b], &mut experiment_rng(4))
        .expect("hybrid solve_many");
    assert_eq!(
        counted.densify_count(),
        after_new,
        "the refinement loop must not densify the operator"
    );
}

#[test]
fn inner_solve_applies_the_operator_once() {
    // Each inner QSVT solve applies A once (`A·η` for the norm recovery),
    // and each refinement step once more for the residual `b − A x` of its
    // candidate iterate, whose norm is the step's ω and which the next step
    // solves for.  So a history of k steps costs 2k matvecs.
    let counted = CountingOperator::new(poisson_2d::<f64>(8, 8, false));
    let bs = [
        poisson_2d_rhs::<f64>(8, 8, |x, y| x * y + 0.5),
        poisson_2d_rhs::<f64>(8, 8, |x, y| (5.0 * x * y).cos()),
        poisson_2d_rhs::<f64>(8, 8, |x, _| if x > 0.5 { 1.0 } else { -1.0 }),
    ];

    let solver =
        QsvtLinearSolver::new(&counted, 1e-2, QsvtSolverOptions::default()).expect("QSVT solver");
    let before = counted.matvec_count();
    solver
        .solve(&bs[0], &mut experiment_rng(1))
        .expect("inner solve");
    assert_eq!(counted.matvec_count() - before, 1, "one inner solve");

    let refiner = HybridRefiner::new(&counted, options()).expect("hybrid refiner");
    let before = counted.matvec_count();
    let (_, history) = refiner
        .solve(&bs[0], &mut experiment_rng(2))
        .expect("hybrid solve");
    let k = history.steps.len();
    assert!(k >= 2, "the refinement must take at least one correction");
    assert_eq!(history.status, HybridStatus::Converged);
    assert_eq!(counted.matvec_count() - before, 2 * k, "{k} steps");

    let before = counted.matvec_count();
    let runs = refiner
        .solve_many(&bs, &mut experiment_rng(3))
        .expect("hybrid solve_many");
    let expected: usize = runs.iter().map(|(_, h)| 2 * h.steps.len()).sum();
    assert_eq!(
        counted.matvec_count() - before,
        expected,
        "solve_many over {} systems",
        bs.len()
    );
}

#[test]
fn multi_rhs_refinement_is_bit_identical_over_the_stencil() {
    // The batched multi-RHS path over the CSR Poisson stencil.
    let (csr, dense) = poisson_64();
    let bs: Vec<Vector<f64>> = vec![
        poisson_2d_rhs::<f64>(8, 8, |x, y| x + y),
        poisson_2d_rhs::<f64>(8, 8, |x, y| (5.0 * x * y).cos()),
        poisson_2d_rhs::<f64>(8, 8, |x, _| if x > 0.5 { 1.0 } else { -1.0 }),
    ];
    let dense_refiner = HybridRefiner::new(&dense, options()).expect("dense refiner");
    let csr_refiner = HybridRefiner::new(&csr, options()).expect("CSR refiner");
    let dense_runs = dense_refiner
        .solve_many(&bs, &mut experiment_rng(7))
        .expect("dense solve_many");
    let csr_runs = csr_refiner
        .solve_many(&bs, &mut experiment_rng(7))
        .expect("CSR solve_many");
    for (k, (d, c)) in dense_runs.iter().zip(&csr_runs).enumerate() {
        assert_identical_histories(&format!("multi-rhs system {k}"), c, d);
    }
}
