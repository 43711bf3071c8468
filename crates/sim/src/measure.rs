//! Measurement cost.
//!
//! The paper's complexity model charges `O(1/ε²)` *samples* per solve because
//! the QSVT result is read out by repeated measurement (Remark 3: the hybrid
//! algorithm relies on the "collapse" of the quantum solution).  This module
//! holds that shot count; the readout itself is
//! `qls_core::sample_direction`, which draws the shot counts those
//! measurements would give (one multinomial draw) from the post-selected
//! amplitudes the solver already holds, at a cost that grows with the
//! register, not with the shot count.

/// Number of shots the paper's model prescribes to reach accuracy ε: `⌈c/ε²⌉`.
pub fn shots_for_accuracy(epsilon: f64, constant: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    (constant / (epsilon * epsilon)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_count_formula() {
        assert_eq!(shots_for_accuracy(1e-2, 1.0), 10_000);
        assert_eq!(shots_for_accuracy(0.5, 2.0), 8);
        assert!(shots_for_accuracy(1e-4, 1.0) > shots_for_accuracy(1e-3, 1.0));
    }
}
