//! Quantum and classical cost models (Tables I and II of the paper).
//!
//! Table I compares the quantum cost of solving `A x = b` once with the QSVT
//! at high precision ε against the mixed-precision refined solver:
//!
//! | quantity       | QSVT only              | QSVT + iterative refinement        |
//! |----------------|------------------------|------------------------------------|
//! | # solves       | 1                      | ⌈log ε / log(κ ε_l)⌉              |
//! | C_QSVT         | O(B κ log(κ/ε))        | O(B κ log(κ/ε_l))                  |
//! | # samples      | O(1/ε²)                | O(1/ε_l²)                          |
//! | total          | product of the above   | product of the above               |
//!
//! Table II breaks down the classical flops and quantum gate scaling of each
//! phase (state preparation, block-encoding, QSVT, solution recovery) for the
//! 1-D Poisson use case, separately for the first solve and for each
//! refinement iteration.  Both models are parameterised by the block-encoding
//! cost `B`, so they can be evaluated either with the analytic tridiagonal
//! counts of Ref. \[37\] or with the measured gate counts of the constructions
//! in `qls-encoding`.

use qls_linalg::refine::iteration_bound;
use qls_qsvt::degree_cap_d;

/// Parameters of the quantum cost model of Table I.
#[derive(Debug, Clone, Copy)]
pub struct CostParameters {
    /// Condition number κ of the matrix.
    pub kappa: f64,
    /// Target (high) accuracy ε.
    pub epsilon: f64,
    /// Low accuracy ε_l of each QSVT solve (for the refined solver).
    pub epsilon_l: f64,
    /// Cost `B` of one call to the block-encoding circuit (in whatever unit
    /// the caller wants the totals: gates, T gates, seconds, …).
    pub block_encoding_cost: f64,
}

/// The Table-I cost of one strategy.
#[derive(Debug, Clone, Copy)]
pub struct StrategyCost {
    /// Number of calls to the solver.
    pub solves: f64,
    /// Per-solve QSVT cost `C_QSVT` (block-encoding calls × B).
    pub qsvt_cost: f64,
    /// Number of calls to the block-encoding per solve (polynomial degree).
    pub block_encoding_calls_per_solve: f64,
    /// Number of measurement samples per solve.
    pub samples: f64,
    /// Total cost = solves × C_QSVT × samples.
    pub total: f64,
}

/// The two columns of Table I.
#[derive(Debug, Clone, Copy)]
pub struct QuantumCostComparison {
    /// Parameters the comparison was evaluated at.
    pub parameters: CostParameters,
    /// Left column: direct QSVT at precision ε.
    pub qsvt_only: StrategyCost,
    /// Right column: QSVT at precision ε_l + iterative refinement.
    pub qsvt_with_refinement: StrategyCost,
    /// The ratio total(QSVT only) / total(refined); > 1 means refinement wins.
    pub speedup: f64,
}

/// Number of block-encoding calls (polynomial degree) of a QSVT solve at
/// accuracy `eps`: the degree `2·D(ε, κ) + 1` of the Eq. (4) polynomial the
/// solver builds ([`qls_qsvt::degree_cap_d`]), which grows as
/// `Θ(κ log(κ/ε))`, the scaling the paper uses in Table I.  Panics unless
/// `κ ≥ 1` and `0 < ε < 1`.
pub fn qsvt_degree_model(kappa: f64, eps: f64) -> f64 {
    (2 * degree_cap_d(kappa, eps) + 1) as f64
}

/// Evaluate the Table-I comparison at the given parameters.
pub fn quantum_cost_comparison(parameters: CostParameters) -> QuantumCostComparison {
    let CostParameters {
        kappa,
        epsilon,
        epsilon_l,
        block_encoding_cost,
    } = parameters;

    // Left column: one solve at accuracy ε.
    let degree_high = qsvt_degree_model(kappa, epsilon.min(0.49));
    let qsvt_only = StrategyCost {
        solves: 1.0,
        block_encoding_calls_per_solve: degree_high,
        qsvt_cost: degree_high * block_encoding_cost,
        samples: 1.0 / (epsilon * epsilon),
        total: degree_high * block_encoding_cost / (epsilon * epsilon),
    };

    // Right column: ⌈log ε / log(κ ε_l)⌉ solves at accuracy ε_l (the paper's
    // Table-I bound; at least the initial solve is always performed).
    let bound = iteration_bound(epsilon, epsilon_l, kappa)
        .map(|b| (b as f64).max(1.0))
        .unwrap_or(f64::INFINITY);
    let degree_low = qsvt_degree_model(kappa, epsilon_l.min(0.49));
    let per_solve = degree_low * block_encoding_cost;
    let samples_low = 1.0 / (epsilon_l * epsilon_l);
    let qsvt_with_refinement = StrategyCost {
        solves: bound,
        block_encoding_calls_per_solve: degree_low,
        qsvt_cost: per_solve,
        samples: samples_low,
        total: bound * per_solve * samples_low,
    };

    let speedup = qsvt_only.total / qsvt_with_refinement.total;
    QuantumCostComparison {
        parameters,
        qsvt_only,
        qsvt_with_refinement,
        speedup,
    }
}

/// One row of Table II (cost of one sub-task of the Poisson use case).
#[derive(Debug, Clone)]
pub struct PoissonCostRow {
    /// Phase: "first solve" or "iteration".
    pub phase: &'static str,
    /// Sub-task: SP, BE, QSVT, Solution.
    pub task: &'static str,
    /// Classical cost in flops (0 when the task is fully quantum).
    pub classical_flops: f64,
    /// Quantum cost in T gates (0 when the task is fully classical).
    pub quantum_t_gates: f64,
    /// The asymptotic expression reported by the paper for this cell.
    pub paper_scaling: &'static str,
}

/// Parameters of the Table-II Poisson breakdown.
#[derive(Debug, Clone, Copy)]
pub struct PoissonCostParameters {
    /// Number of data qubits n (N = 2^n grid points).
    pub n_qubits: usize,
    /// Condition number κ of the Poisson matrix.
    pub kappa: f64,
    /// Low accuracy ε_l of each QSVT solve.
    pub epsilon_l: f64,
    /// Target accuracy ε.
    pub epsilon: f64,
}

/// Evaluate the Table-II breakdown: classical flops and quantum T-gate counts
/// of every sub-task, for the first solve and for one refinement iteration.
pub fn poisson_cost_breakdown(p: PoissonCostParameters) -> Vec<PoissonCostRow> {
    let n = p.n_qubits as f64;
    let big_n = (1u64 << p.n_qubits) as f64;
    let kappa = p.kappa;
    // T-gate cost of one call to the tridiagonal block-encoding (Ref. [37] scaling).
    let be_t = 48.0 * n + 28.0;
    // Block-encoding calls per solve: degree of the inversion polynomial.
    let degree = qsvt_degree_model(kappa, p.epsilon_l.max(1e-14));
    let qsvt_t = degree * be_t;
    // Classical costs.
    let sp_classical = 2.0 * big_n;
    let phases_classical = kappa; // O(κ) phase estimation [32]
    let solution_classical = 4.0 * big_n + (1.0 / p.epsilon).ln().max(1.0);

    vec![
        PoissonCostRow {
            phase: "first solve",
            task: "SP",
            classical_flops: sp_classical,
            quantum_t_gates: 4.0 * n * n,
            paper_scaling: "classical O(2^n), quantum O(polylog n)",
        },
        PoissonCostRow {
            phase: "first solve",
            task: "BE",
            classical_flops: 0.0,
            quantum_t_gates: qsvt_t,
            paper_scaling: "quantum O(n κ log(κ/ε_l))",
        },
        PoissonCostRow {
            phase: "first solve",
            task: "QSVT (Φ, U_Φ)",
            classical_flops: phases_classical,
            quantum_t_gates: qsvt_t,
            paper_scaling: "classical O(κ), quantum O(n κ log(κ/ε_l))",
        },
        PoissonCostRow {
            phase: "first solve",
            task: "Solution",
            classical_flops: solution_classical,
            quantum_t_gates: 0.0,
            paper_scaling: "classical O(4n + log(1/ε))",
        },
        PoissonCostRow {
            phase: "iteration",
            task: "SP",
            classical_flops: sp_classical,
            quantum_t_gates: 4.0 * n * n,
            paper_scaling: "classical O(2^n), quantum O(polylog n)",
        },
        PoissonCostRow {
            phase: "iteration",
            task: "BE",
            classical_flops: 0.0,
            quantum_t_gates: qsvt_t,
            paper_scaling: "quantum O(n κ log(κ/ε_l))",
        },
        PoissonCostRow {
            phase: "iteration",
            task: "QSVT (U_Φ)",
            classical_flops: 0.0,
            quantum_t_gates: qsvt_t,
            paper_scaling: "quantum O(n κ log(κ/ε_l))",
        },
        PoissonCostRow {
            phase: "iteration",
            task: "Solution",
            classical_flops: solution_classical,
            quantum_t_gates: 0.0,
            paper_scaling: "classical O(4n + log(1/ε))",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(kappa: f64, eps: f64, eps_l: f64) -> CostParameters {
        CostParameters {
            kappa,
            epsilon: eps,
            epsilon_l: eps_l,
            block_encoding_cost: 1.0,
        }
    }

    #[test]
    fn refinement_wins_when_eps_much_smaller_than_eps_l() {
        // The Fig. 5 regime: kappa = 2, eps_l ≈ 1/kappa, eps ≪ eps_l.
        let comparison = quantum_cost_comparison(params(2.0, 1e-8, 0.4));
        assert!(comparison.speedup > 1.0, "speedup {}", comparison.speedup);
        assert!(comparison.qsvt_with_refinement.total < comparison.qsvt_only.total);
    }

    #[test]
    fn costs_coincide_when_eps_equals_eps_l() {
        // At ε = ε_l both strategies run the same polynomial degree and the same
        // number of samples per solve; the measured Fig. 5 curves therefore meet
        // there (the analytic worst-case bound still allows a few refinement
        // iterations, which is why the comparison is per-solve here).
        let comparison = quantum_cost_comparison(params(2.0, 0.4, 0.4));
        assert_eq!(
            comparison.qsvt_only.block_encoding_calls_per_solve,
            comparison
                .qsvt_with_refinement
                .block_encoding_calls_per_solve
        );
        assert_eq!(
            comparison.qsvt_only.samples,
            comparison.qsvt_with_refinement.samples
        );
        // And the advantage appears as ε shrinks below ε_l.
        let tight = quantum_cost_comparison(params(2.0, 1e-8, 0.4));
        assert!(tight.speedup > comparison.speedup);
    }

    #[test]
    fn sample_count_scales_inverse_square() {
        let c1 = quantum_cost_comparison(params(10.0, 1e-6, 1e-2));
        assert!((c1.qsvt_only.samples - 1e12).abs() / 1e12 < 1e-9);
        assert!((c1.qsvt_with_refinement.samples - 1e4).abs() / 1e4 < 1e-9);
    }

    #[test]
    fn degree_model_increases_with_kappa_and_accuracy() {
        assert!(qsvt_degree_model(10.0, 1e-4) > qsvt_degree_model(10.0, 1e-2));
        assert!(qsvt_degree_model(100.0, 1e-2) > qsvt_degree_model(10.0, 1e-2));
    }

    #[test]
    fn degree_model_matches_constructed_polynomial() {
        // The model and the actual InversePolynomial should agree exactly.
        for &(kappa, eps) in &[(2.0, 1e-2), (10.0, 1e-3), (50.0, 1e-2)] {
            let poly = qls_poly::InversePolynomial::new(kappa, eps);
            let model = qsvt_degree_model(kappa, eps);
            assert_eq!(model as usize, poly.degree());
        }
    }

    #[test]
    fn speedup_grows_as_target_accuracy_tightens() {
        let loose = quantum_cost_comparison(params(2.0, 1e-4, 0.4));
        let tight = quantum_cost_comparison(params(2.0, 1e-10, 0.4));
        assert!(tight.speedup > loose.speedup);
    }

    #[test]
    fn poisson_breakdown_has_eight_rows_and_sensible_scalings() {
        let rows = poisson_cost_breakdown(PoissonCostParameters {
            n_qubits: 4,
            kappa: 100.0,
            epsilon_l: 1e-2,
            epsilon: 1e-10,
        });
        assert_eq!(rows.len(), 8);
        // Quantum-only tasks have zero classical flops and vice versa.
        let be_row = rows
            .iter()
            .find(|r| r.phase == "iteration" && r.task == "BE")
            .unwrap();
        assert_eq!(be_row.classical_flops, 0.0);
        assert!(be_row.quantum_t_gates > 0.0);
        let sol_row = rows
            .iter()
            .find(|r| r.phase == "iteration" && r.task == "Solution")
            .unwrap();
        assert_eq!(sol_row.quantum_t_gates, 0.0);
        assert!(sol_row.classical_flops > 0.0);
        // The first solve includes the O(κ) classical phase computation, the
        // iterations do not.
        let first_qsvt = rows
            .iter()
            .find(|r| r.phase == "first solve" && r.task.starts_with("QSVT"))
            .unwrap();
        let iter_qsvt = rows
            .iter()
            .find(|r| r.phase == "iteration" && r.task.starts_with("QSVT"))
            .unwrap();
        assert!(first_qsvt.classical_flops > 0.0);
        assert_eq!(iter_qsvt.classical_flops, 0.0);
    }

    #[test]
    fn poisson_quantum_cost_grows_with_n_and_kappa() {
        let small = poisson_cost_breakdown(PoissonCostParameters {
            n_qubits: 4,
            kappa: 50.0,
            epsilon_l: 1e-2,
            epsilon: 1e-10,
        });
        let large = poisson_cost_breakdown(PoissonCostParameters {
            n_qubits: 8,
            kappa: 200.0,
            epsilon_l: 1e-2,
            epsilon: 1e-10,
        });
        let total =
            |rows: &[PoissonCostRow]| -> f64 { rows.iter().map(|r| r.quantum_t_gates).sum() };
        assert!(total(&large) > total(&small));
    }
}
