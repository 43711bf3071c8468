//! Pauli decomposition of dense matrices.
//!
//! The LCU block-encoding (Section II-A1 of the paper, Refs. \[12\], \[25\])
//! represents `A` as a weighted sum of unitaries; for a general dense matrix
//! the natural unitary basis is the set of `4^n` Pauli strings, and the paper's
//! authors' own tree-approach Pauli decomposition (Ref. \[25\]) is the classical
//! pre-processing step whose `O(n 4^n)` cost appears in Section III-C2.  This
//! module computes the decomposition `A = Σ_P c_P P` exactly, exploiting the
//! permutation-with-phases structure of Pauli strings so each coefficient costs
//! `O(2^n)` instead of `O(4^n)`.

use num_complex::Complex64;
use qls_sim::{CMatrix, Circuit, Gate};

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PauliOp {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

/// An `n`-qubit Pauli string; `ops[q]` acts on qubit `q` (little-endian, qubit
/// 0 = least significant bit of the basis index).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    /// Per-qubit operators.
    pub ops: Vec<PauliOp>,
}

impl PauliString {
    /// Build the string from its index in `{0..4^n}` (base-4 digits, digit `q`
    /// selecting the operator on qubit `q`: 0=I, 1=X, 2=Y, 3=Z).
    pub(crate) fn from_index(n: usize, mut index: usize) -> Self {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(match index % 4 {
                0 => PauliOp::I,
                1 => PauliOp::X,
                2 => PauliOp::Y,
                _ => PauliOp::Z,
            });
            index /= 4;
        }
        PauliString { ops }
    }

    /// Bit mask of qubits carrying X or Y (the bit-flip part of the string).
    pub(crate) fn x_mask(&self) -> usize {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == PauliOp::X || p == PauliOp::Y)
            .map(|(q, _)| 1usize << q)
            .sum()
    }

    /// Bit mask of qubits carrying Z or Y (the phase-flip part of the string).
    pub(crate) fn z_mask(&self) -> usize {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == PauliOp::Z || p == PauliOp::Y)
            .map(|(q, _)| 1usize << q)
            .sum()
    }

    /// Number of Y factors.
    pub(crate) fn y_count(&self) -> usize {
        self.ops.iter().filter(|&&p| p == PauliOp::Y).count()
    }

    /// The action on a basis state: `P|k⟩ = phase(k) |k ⊕ x_mask⟩`.
    pub(crate) fn apply_to_basis(&self, k: usize) -> (usize, Complex64) {
        let x_mask = self.x_mask();
        let z_mask = self.z_mask();
        // Phase: i^{#Y} · (-1)^{popcount(k & z_mask)}.
        let mut phase = match self.y_count() % 4 {
            0 => Complex64::new(1.0, 0.0),
            1 => Complex64::new(0.0, 1.0),
            2 => Complex64::new(-1.0, 0.0),
            _ => Complex64::new(0.0, -1.0),
        };
        if (k & z_mask).count_ones() % 2 == 1 {
            phase = -phase;
        }
        (k ^ x_mask, phase)
    }

    /// Append the string's gates to a circuit on the given data qubits.
    pub(crate) fn append_to_circuit(&self, circuit: &mut Circuit, controls: &[usize]) {
        for (q, &p) in self.ops.iter().enumerate() {
            let gate = match p {
                PauliOp::I => continue,
                PauliOp::X => Gate::X,
                PauliOp::Y => Gate::Y,
                PauliOp::Z => Gate::Z,
            };
            if controls.is_empty() {
                circuit.gate(gate, &[q]);
            } else {
                circuit.controlled_gate(gate, &[q], controls);
            }
        }
    }
}

/// One term `c · P` of a Pauli decomposition.
#[derive(Debug, Clone)]
pub struct PauliTerm {
    /// The Pauli string.
    pub string: PauliString,
    /// Its (complex) coefficient.
    pub coefficient: Complex64,
}

/// The full decomposition `A = Σ c_P P`.
#[derive(Debug, Clone)]
pub struct PauliDecomposition {
    /// Number of qubits (`A` is `2^n × 2^n`).
    pub num_qubits: usize,
    /// Non-negligible terms, sorted by decreasing coefficient magnitude.
    pub terms: Vec<PauliTerm>,
}

impl PauliDecomposition {
    /// Decompose a complex matrix, dropping coefficients below `tolerance`.
    pub(crate) fn decompose(a: &CMatrix, tolerance: f64) -> Self {
        assert_eq!(
            a.nrows(),
            a.ncols(),
            "Pauli decomposition needs a square matrix"
        );
        let dim = a.nrows();
        assert!(dim.is_power_of_two(), "dimension must be a power of two");
        let n = dim.trailing_zeros() as usize;

        let mut terms = Vec::new();
        for index in 0..(4usize.pow(n as u32)) {
            let string = PauliString::from_index(n, index);
            // c_P = Tr(P A) / 2^n.  With P|k⟩ = phase(k)|k ⊕ x⟩ the only
            // non-zero entry in column k of P is P[k ⊕ x, k] = phase(k), so
            // Tr(P A) = Σ_k P[k ⊕ x, k] · A[k, k ⊕ x] = Σ_k phase(k) A[k, k ⊕ x].
            let mut trace = Complex64::new(0.0, 0.0);
            for k in 0..dim {
                let (col, phase) = string.apply_to_basis(k);
                trace += phase * a[(k, col)];
            }
            let coeff = trace / dim as f64;
            if coeff.norm() > tolerance {
                terms.push(PauliTerm {
                    string,
                    coefficient: coeff,
                });
            }
        }
        terms.sort_by(|a, b| {
            b.coefficient
                .norm()
                .partial_cmp(&a.coefficient.norm())
                .unwrap()
        });
        PauliDecomposition {
            num_qubits: n,
            terms,
        }
    }

    /// Decompose a real matrix (convenience wrapper).
    pub fn decompose_real(a: &qls_linalg::Matrix<f64>, tolerance: f64) -> Self {
        Self::decompose(&CMatrix::from_real(a), tolerance)
    }

    /// Decompose a real matrix given only its **nonzero entries**
    /// `(row, col, value)`, in `O(2^n · nnz)` instead of the dense path's
    /// `O(8^n)`.  Entries may arrive in any order; duplicate coordinates are
    /// summed (the same convention as `SparseMatrix::from_triplets`), so the
    /// decomposition is always that of the represented matrix.
    ///
    /// The key structural fact: a Pauli string with bit-flip mask `x` only
    /// reads the matrix entries on the "XOR diagonal" `col = row ⊕ x`, so
    /// only masks that actually occur among the given entries can carry a
    /// nonzero coefficient.  A tridiagonal matrix has just `n + 1` distinct
    /// masks and a sparse matrix at most `nnz`; for each occurring mask the
    /// `2^n` strings sharing it (I/Z on the unflipped qubits, X/Y on the
    /// flipped ones) get their traces from the stored entries alone.  The
    /// resulting terms are identical to [`PauliDecomposition::decompose`] on
    /// the densified matrix (coefficients and ordering), so structured
    /// constructors can skip the dense round-trip entirely.
    pub(crate) fn decompose_real_entries(
        n: usize,
        entries: &[(usize, usize, f64)],
        tolerance: f64,
    ) -> Self {
        let dim = 1usize << n;
        // Canonicalise first: duplicates of the same coordinate are summed
        // (in input order) and entries sorted row-major, so the represented
        // matrix — not the entry list's shape — determines the result, and
        // the per-mask summation order matches the dense path's k-ascending
        // trace loop exactly.
        let mut merged: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        for &(r, c, v) in entries {
            assert!(
                r < dim && c < dim,
                "entry ({r}, {c}) out of range for n = {n}"
            );
            *merged.entry((r, c)).or_insert(0.0) += v;
        }
        // Group by XOR-diagonal mask (row-major within each mask).
        let mut by_mask: std::collections::BTreeMap<usize, Vec<(usize, f64)>> =
            std::collections::BTreeMap::new();
        for (&(r, c), &v) in &merged {
            by_mask.entry(r ^ c).or_default().push((r, v));
        }

        let i_pow = |y_count: u32| match y_count % 4 {
            0 => Complex64::new(1.0, 0.0),
            1 => Complex64::new(0.0, 1.0),
            2 => Complex64::new(-1.0, 0.0),
            _ => Complex64::new(0.0, -1.0),
        };
        // `indexed` carries the base-4 string index so the final ordering can
        // reproduce the dense path's stable sort exactly.
        let mut indexed: Vec<(usize, PauliTerm)> = Vec::new();
        for (&x_mask, ents) in &by_mask {
            // z_mask ranges over all 2^n choices: Z vs I on unflipped qubits,
            // Y vs X on flipped ones.
            for z_mask in 0..dim {
                // Σ_k phase(k)·A[k, k⊕x]: signs from the Z part; the i^{#Y}
                // unit factor multiplies the (real) signed sum exactly, so
                // the coefficient matches the dense trace bit for bit.
                let mut signed_sum = 0.0f64;
                for &(k, v) in ents {
                    if (k & z_mask).count_ones() % 2 == 1 {
                        signed_sum -= v;
                    } else {
                        signed_sum += v;
                    }
                }
                let y_count = (x_mask & z_mask).count_ones();
                let coeff = i_pow(y_count) * (signed_sum / dim as f64);
                if coeff.norm() > tolerance {
                    let mut ops = Vec::with_capacity(n);
                    let mut index = 0usize;
                    for q in 0..n {
                        let flips = x_mask >> q & 1 == 1;
                        let phases = z_mask >> q & 1 == 1;
                        let (op, digit) = match (flips, phases) {
                            (false, false) => (PauliOp::I, 0),
                            (true, false) => (PauliOp::X, 1),
                            (true, true) => (PauliOp::Y, 2),
                            (false, true) => (PauliOp::Z, 3),
                        };
                        ops.push(op);
                        index += digit << (2 * q);
                    }
                    indexed.push((
                        index,
                        PauliTerm {
                            string: PauliString { ops },
                            coefficient: coeff,
                        },
                    ));
                }
            }
        }
        // Decreasing magnitude, ties broken by string index — exactly the
        // order the dense path's stable sort over index-ascending terms
        // produces.
        indexed.sort_by(|(ia, a), (ib, b)| {
            b.coefficient
                .norm()
                .partial_cmp(&a.coefficient.norm())
                .unwrap()
                .then(ia.cmp(ib))
        });
        PauliDecomposition {
            num_qubits: n,
            terms: indexed.into_iter().map(|(_, t)| t).collect(),
        }
    }

    /// Decompose a tridiagonal CSR matrix straight from its stored entries
    /// (square, of order a power of two).  A tridiagonal matrix touches only
    /// the `n + 1` XOR-diagonal masks `0, 1, 3, 7, …, 2^n − 1`, so this costs
    /// `O(4^n)` total instead of the dense path's `O(8^n)`.
    pub(crate) fn decompose_tridiagonal(t: &qls_linalg::SparseMatrix<f64>, tolerance: f64) -> Self {
        let order = t.nrows();
        assert!(
            order == t.ncols() && order.is_power_of_two(),
            "tridiagonal order must be a power of two"
        );
        let n = order.trailing_zeros() as usize;
        let entries: Vec<(usize, usize, f64)> = t.iter_entries().collect();
        Self::decompose_real_entries(n, &entries, tolerance)
    }

    /// Number of retained terms.
    pub(crate) fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The 1-norm of the coefficients, `λ = Σ|c_P|` — the sub-normalisation
    /// factor of the LCU block-encoding.
    pub(crate) fn lambda(&self) -> f64 {
        self.terms.iter().map(|t| t.coefficient.norm()).sum()
    }

    /// Reconstruct the matrix `Σ c_P P`: the oracle of the decomposition
    /// tests.
    #[cfg(test)]
    fn reconstruct(&self) -> CMatrix {
        let dim = 1usize << self.num_qubits;
        let mut m = CMatrix::zeros(dim, dim);
        for term in &self.terms {
            for k in 0..dim {
                let (row, phase) = term.string.apply_to_basis(k);
                m[(row, k)] += term.coefficient * phase;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_linalg::Matrix;

    #[test]
    fn string_indexing_roundtrip() {
        for idx in 0..64 {
            let s = PauliString::from_index(3, idx);
            assert_eq!(s.ops.len(), 3);
            // Re-derive the index from the operators.
            let back: usize = s
                .ops
                .iter()
                .enumerate()
                .map(|(q, &p)| {
                    let d = match p {
                        PauliOp::I => 0,
                        PauliOp::X => 1,
                        PauliOp::Y => 2,
                        PauliOp::Z => 3,
                    };
                    d * 4usize.pow(q as u32)
                })
                .sum();
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn decomposition_of_identity() {
        let a = Matrix::<f64>::identity(4);
        let d = PauliDecomposition::decompose_real(&a, 1e-12);
        assert_eq!(d.num_terms(), 1);
        assert!(d.terms[0].string.ops.iter().all(|&p| p == PauliOp::I));
        assert!((d.terms[0].coefficient.re - 1.0).abs() < 1e-14);
        assert!((d.lambda() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn decomposition_reconstructs_random_matrix() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(91);
        let a = Matrix::from_fn(8, 8, |_, _| rng.gen_range(-1.0..1.0));
        let d = PauliDecomposition::decompose_real(&a, 0.0);
        let rec = d.reconstruct();
        assert!(rec.max_abs_diff(&CMatrix::from_real(&a)) < 1e-12);
    }

    #[test]
    fn decomposition_reconstructs_complex_matrix() {
        let a = CMatrix::from_fn(4, 4, |i, j| {
            Complex64::new(i as f64 - j as f64, (i * j) as f64 * 0.1)
        });
        let d = PauliDecomposition::decompose(&a, 0.0);
        assert!(d.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn known_decomposition_of_symmetric_2x2() {
        // [[a, b], [b, c]] = ((a+c)/2) I + b X + ((a-c)/2) Z.
        let a = Matrix::from_f64_slice(2, 2, &[3.0, 1.5, 1.5, -1.0]);
        let d = PauliDecomposition::decompose_real(&a, 1e-12);
        assert_eq!(d.num_terms(), 3);
        let coeff_of = |op: PauliOp| -> f64 {
            d.terms
                .iter()
                .find(|t| t.string.ops == [op])
                .map(|t| t.coefficient.re)
                .unwrap_or(0.0)
        };
        assert!((coeff_of(PauliOp::I) - 1.0).abs() < 1e-14);
        assert!((coeff_of(PauliOp::X) - 1.5).abs() < 1e-14);
        assert!((coeff_of(PauliOp::Z) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn sparse_matrix_has_fewer_terms_with_tolerance() {
        let t = qls_linalg::poisson_1d::<f64>(8, false).to_dense();
        let all = PauliDecomposition::decompose_real(&t, 0.0);
        let trimmed = PauliDecomposition::decompose_real(&t, 1e-12);
        assert!(trimmed.num_terms() <= all.num_terms());
        // Reconstruction of the trimmed decomposition is still exact to 1e-10.
        assert!(trimmed.reconstruct().max_abs_diff(&CMatrix::from_real(&t)) < 1e-10);
    }

    #[test]
    fn entries_decomposition_matches_dense_on_tridiagonal() {
        // A non-Toeplitz, nonsymmetric tridiagonal: the structured O(4^n)
        // path must reproduce the dense O(8^n) decomposition exactly —
        // same terms, same coefficients, same order.
        let lower = [0.3, -1.1, 0.7, 2.0, -0.4, 0.9, 1.3];
        let diag = [2.0, -1.5, 3.0, 0.25, 1.0, -2.25, 0.5, 1.75];
        let upper = [-0.8, 0.6, 1.2, -0.1, 0.55, -1.9, 0.05];
        let mut triplets = Vec::new();
        for i in 0..8 {
            if i > 0 {
                triplets.push((i, i - 1, lower[i - 1]));
            }
            triplets.push((i, i, diag[i]));
            if i < 7 {
                triplets.push((i, i + 1, upper[i]));
            }
        }
        let t = qls_linalg::SparseMatrix::from_triplets(8, 8, &triplets);
        let dense = PauliDecomposition::decompose_real(&t.to_dense(), 1e-13);
        let structured = PauliDecomposition::decompose_tridiagonal(&t, 1e-13);
        assert_eq!(dense.num_terms(), structured.num_terms());
        for (d, s) in dense.terms.iter().zip(&structured.terms) {
            assert_eq!(d.string, s.string, "term order must match the dense path");
            assert_eq!(d.coefficient, s.coefficient);
        }
    }

    #[test]
    fn entries_decomposition_merges_duplicates_and_ignores_input_order() {
        // Duplicate coordinates sum; shuffled input decomposes the same
        // matrix as the canonical row-major entry list.
        let duplicated = PauliDecomposition::decompose_real_entries(
            1,
            &[(1, 0, 0.25), (0, 1, 0.5), (0, 1, 0.5), (1, 0, 0.25)],
            1e-14,
        );
        let canonical =
            PauliDecomposition::decompose_real_entries(1, &[(0, 1, 1.0), (1, 0, 0.5)], 1e-14);
        assert_eq!(duplicated.num_terms(), canonical.num_terms());
        for (d, c) in duplicated.terms.iter().zip(&canonical.terms) {
            assert_eq!(d.string, c.string);
            assert_eq!(d.coefficient, c.coefficient);
        }
    }

    #[test]
    fn entries_decomposition_matches_dense_on_random_sparse() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(93);
        let a = Matrix::from_fn(8, 8, |_, _| {
            if rng.gen_range(0.0..1.0) < 0.3 {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let entries: Vec<(usize, usize, f64)> = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, a[(i, j)]))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        let dense = PauliDecomposition::decompose_real(&a, 1e-13);
        let structured = PauliDecomposition::decompose_real_entries(3, &entries, 1e-13);
        assert_eq!(dense.num_terms(), structured.num_terms());
        for (d, s) in dense.terms.iter().zip(&structured.terms) {
            assert_eq!(d.string, s.string);
            assert_eq!(d.coefficient, s.coefficient);
        }
        // And the reconstruction is exact.
        assert!(
            structured
                .reconstruct()
                .max_abs_diff(&CMatrix::from_real(&a))
                < 1e-12
        );
    }

    #[test]
    fn lambda_bounds_spectral_norm() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(92);
        let a = Matrix::from_fn(8, 8, |_, _| rng.gen_range(-1.0..1.0));
        let d = PauliDecomposition::decompose_real(&a, 1e-14);
        let norm = qls_linalg::Svd::new(&a).norm2();
        assert!(
            d.lambda() >= norm - 1e-10,
            "lambda {} < ||A|| {}",
            d.lambda(),
            norm
        );
    }

    #[test]
    fn append_to_circuit_matches_apply_to_basis() {
        // The circuit the LCU's SELECT applies and the action the
        // decomposition's traces assume are the same operator: column k of
        // the circuit unitary holds `phase` at row `k ⊕ x_mask` and 0
        // elsewhere.
        let s = PauliString {
            ops: vec![PauliOp::X, PauliOp::Y, PauliOp::Z],
        };
        let mut circ = qls_sim::Circuit::new(3);
        s.append_to_circuit(&mut circ, &[]);
        let u = qls_sim::circuit_unitary(&circ);
        for k in 0..8 {
            let (row, phase) = s.apply_to_basis(k);
            for i in 0..8 {
                let expected = if i == row {
                    phase
                } else {
                    Complex64::new(0.0, 0.0)
                };
                assert!((u[(i, k)] - expected).norm() < 1e-13, "({i}, {k})");
            }
        }
    }
}
