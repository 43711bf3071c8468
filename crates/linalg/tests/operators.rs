//! Property tests of the structured-operator layer against the dense oracle.
//!
//! Whatever random matrix is drawn, the CSR and tridiagonal
//! implementations of [`LinearOperator`] must agree with the dense
//! materialisation — to 1e-12 in general, and *bit for bit* for the CSR
//! matvecs (they accumulate in the same column order with the same fused
//! multiply-adds, and skipping a structural zero is an exact no-op).
//! The triplet builder's merge/sort/empty-row handling is exercised
//! separately with adversarial inputs.

use proptest::prelude::*;
use qls_linalg::{LinearOperator, Matrix, SparseMatrix, TridiagonalMatrix, Vector};

/// Deterministic pseudo-random value in [-1, 1] from integer coordinates.
fn hash_val(i: usize, j: usize, seed: u64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((i as u64) << 32 | j as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % 2_000_001) as f64 / 1_000_000.0 - 1.0
}

fn random_sparse_dense_pair(
    n: usize,
    density_pct: u64,
    seed: u64,
) -> (SparseMatrix<f64>, Matrix<f64>) {
    let dense = Matrix::from_fn(n, n, |i, j| {
        if (hash_val(i, j, seed.wrapping_add(1)).abs() * 100.0) as u64 <= density_pct {
            hash_val(i, j, seed)
        } else {
            0.0
        }
    });
    (SparseMatrix::from_dense(&dense), dense)
}

fn test_vector(n: usize, seed: u64) -> Vector<f64> {
    (0..n).map(|i| hash_val(i, 7, seed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_matvec_agrees_with_dense_oracle(
        n in 1usize..24,
        density in 5u64..95,
        seed in 0u64..10_000,
    ) {
        let (sparse, dense) = random_sparse_dense_pair(n, density, seed);
        let x = test_vector(n, seed.wrapping_add(11));
        let y_sparse = sparse.matvec(&x);
        let y_dense = dense.matvec(&x);
        // 1e-12 agreement as the contract...
        prop_assert!((&y_sparse - &y_dense).norm2() < 1e-12);
        // ...and in fact bit-identity, because the accumulation order matches.
        prop_assert_eq!(y_sparse.as_slice(), y_dense.as_slice());
        let yt_sparse = sparse.matvec_transposed(&x);
        let yt_dense = dense.matvec_transposed(&x);
        prop_assert!((&yt_sparse - &yt_dense).norm2() < 1e-12);
        prop_assert_eq!(yt_sparse.as_slice(), yt_dense.as_slice());
    }

    #[test]
    fn tridiagonal_matvec_agrees_with_dense_oracle(
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let t = TridiagonalMatrix::new(
            (1..n).map(|i| hash_val(i, 0, seed)).collect(),
            (0..n).map(|i| hash_val(i, 1, seed)).collect(),
            (1..n).map(|i| hash_val(i, 2, seed)).collect(),
        );
        let d = t.to_dense();
        let x = test_vector(n, seed.wrapping_add(13));
        prop_assert!((&t.matvec(&x) - &d.matvec(&x)).norm2() < 1e-12);
        prop_assert!(
            (&t.matvec_transposed(&x) - &d.matvec_transposed(&x)).norm2() < 1e-12
        );
    }

    #[test]
    fn triplet_builder_with_duplicates_and_shuffled_input_matches_dense(
        n in 2usize..12,
        seed in 0u64..10_000,
        extra in 0usize..20,
    ) {
        // Base pattern plus `extra` duplicated coordinates appended out of
        // order: the builder must sum duplicates onto the base entries.
        let (sparse, dense) = random_sparse_dense_pair(n, 40, seed);
        let mut triplets: Vec<(usize, usize, f64)> = sparse.iter_entries().collect();
        triplets.reverse(); // thoroughly unsorted input
        let mut expected = dense.clone();
        for k in 0..extra {
            let i = (hash_val(k, 3, seed).abs() * n as f64) as usize % n;
            let j = (hash_val(k, 4, seed).abs() * n as f64) as usize % n;
            let v = hash_val(k, 5, seed);
            triplets.push((i, j, v));
            expected[(i, j)] += v;
        }
        let rebuilt = SparseMatrix::from_triplets(n, n, &triplets);
        prop_assert!(rebuilt.to_dense().max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    fn operator_norms_agree_with_dense(
        n in 1usize..16,
        density in 10u64..90,
        seed in 0u64..10_000,
    ) {
        let (sparse, dense) = random_sparse_dense_pair(n, density, seed);
        prop_assert!(
            (LinearOperator::norm_frobenius(&sparse) - dense.norm_frobenius()).abs()
                < 1e-12
        );
        prop_assert_eq!(LinearOperator::nnz(&sparse), sparse.nnz());
    }
}

#[test]
fn triplet_builder_empty_rows_and_columns() {
    // Only row 3 and column 1 are populated; everything else must behave as
    // structurally zero through the whole trait surface.
    let t = SparseMatrix::<f64>::from_triplets(6, 6, &[(3, 1, 2.5), (3, 4, -1.0)]);
    assert_eq!(t.nnz(), 2);
    let x = Vector::ones(6);
    assert_eq!(t.matvec(&x).as_slice(), &[0.0, 0.0, 0.0, 1.5, 0.0, 0.0]);
    let y = t.matvec_transposed(&x);
    assert_eq!(y.as_slice(), &[0.0, 2.5, 0.0, 0.0, -1.0, 0.0]);
    for i in 0..6 {
        if i != 3 {
            let (cols, vals) = t.row(i);
            assert!(cols.is_empty() && vals.is_empty());
        }
    }
}
