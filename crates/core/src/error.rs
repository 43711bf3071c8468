//! The workspace-level error taxonomy.
//!
//! Every failure a hybrid solve can hit — classical factorization trouble
//! (`qls-linalg`), phase-factor or QSVT-circuit trouble (`qls-qsvt`,
//! including injected faults from `qls_sim::fault`), or a non-finite value
//! crossing a layer boundary — converges into one [`QlsError`] with a full
//! [`std::error::Error::source`] chain, so callers match on a single enum
//! and diagnostics can walk down to the root cause
//! (`QlsError → QsvtError → PhaseError`).
//!
//! Non-finite guards live at the boundaries where NaN/Inf can *enter* the
//! computation — the QSVT readout (`QsvtError::NonFiniteOutput`), the
//! residual computation and the correction update
//! ([`QlsError::NonFinite`]) — instead of letting NaN propagate into
//! comparisons, where it silently fails every `==`/`<` test and corrupts
//! control flow without a trace.

use qls_linalg::lu::LinalgError;
use qls_qsvt::QsvtError;

/// Unified error for the hybrid solver stack.
#[derive(Debug, Clone)]
pub enum QlsError {
    /// A classical linear-algebra failure (LU/Cholesky/Thomas factorization,
    /// dimension mismatch, singular pivot).
    Linalg(LinalgError),
    /// A quantum-side failure (singular matrix, phase finding, ancilla
    /// post-selection, injected fault, non-finite circuit output).
    Qsvt(QsvtError),
    /// A non-finite (NaN/Inf) value was caught crossing the named layer
    /// boundary ("residual", "readout", "correction", …).
    NonFinite {
        /// Which boundary the value was caught at.
        boundary: &'static str,
    },
}

impl std::fmt::Display for QlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QlsError::Linalg(e) => write!(f, "classical linear algebra failed: {e}"),
            QlsError::Qsvt(e) => write!(f, "quantum solve failed: {e}"),
            QlsError::NonFinite { boundary } => {
                write!(f, "non-finite value crossed the {boundary} boundary")
            }
        }
    }
}

impl std::error::Error for QlsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QlsError::Linalg(e) => Some(e),
            QlsError::Qsvt(e) => Some(e),
            QlsError::NonFinite { .. } => None,
        }
    }
}

impl From<LinalgError> for QlsError {
    fn from(e: LinalgError) -> Self {
        QlsError::Linalg(e)
    }
}

impl From<QsvtError> for QlsError {
    fn from(e: QsvtError) -> Self {
        QlsError::Qsvt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qls_qsvt::PhaseError;

    #[test]
    fn source_chain_reaches_the_root_cause() {
        let root = PhaseError::MixedParity;
        let err = QlsError::from(QsvtError::Phases(root));
        let qsvt = std::error::Error::source(&err).expect("QlsError -> QsvtError");
        let phase = qsvt.source().expect("QsvtError -> PhaseError");
        assert!(phase.to_string().contains("parity"), "{phase}");
        assert!(std::error::Error::source(&QlsError::NonFinite {
            boundary: "residual"
        })
        .is_none());
    }
}
