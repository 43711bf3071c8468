//! CPU ↔ QPU data-communication model (Fig. 1 of the paper).
//!
//! Algorithm 2 alternates between the classical and quantum processors, and
//! Fig. 1 of the paper sketches which artefacts cross the link and when:
//!
//! * once, before the first solve: the block-encoding circuit `BE(A†)`, the
//!   phase vector `Φ` (size = polynomial degree), and the state-preparation
//!   circuit `SP(b)`;
//! * at every refinement iteration: only `SP(r_i)` goes to the QPU and the
//!   sampled solution (a vector of size `N = 2^n`) comes back;
//! * the block-encoding and the phases are *not* re-sent — the "linker-loader"
//!   style reuse the paper emphasises.
//!
//! This module reproduces the figure as a quantitative event timeline with
//! byte estimates, so the communication pattern can be printed, plotted and
//! tested.

/// Direction of a transfer on the CPU–QPU link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// From the classical host to the quantum device.
    CpuToQpu,
    /// From the quantum device back to the classical host.
    QpuToCpu,
}

/// What is being transferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// The block-encoding circuit of `A†`.
    BlockEncodingCircuit,
    /// The QSVT phase vector Φ.
    PhaseVector,
    /// A state-preparation circuit (for `b` or a residual `r_i`).
    StatePreparation,
    /// The sampled solution vector.
    SampledSolution,
}

/// One transfer event of the Fig. 1 timeline.
#[derive(Debug, Clone)]
pub struct TransferEvent {
    /// Refinement phase: 0 = setup/first solve, i ≥ 1 = iteration i.
    pub iteration: usize,
    /// Transfer direction.
    pub direction: Direction,
    /// What is transferred.
    pub payload: Payload,
    /// Estimated payload size in bytes.
    pub bytes: usize,
    /// Human-readable label (matches the annotations of Fig. 1).
    pub label: String,
}

/// Parameters of the communication model.
#[derive(Debug, Clone, Copy)]
pub struct CommunicationParameters {
    /// Number of data qubits n (N = 2^n).
    pub n_qubits: usize,
    /// Gate count of the block-encoding circuit.
    pub block_encoding_gates: usize,
    /// Gate count of one state-preparation circuit.
    pub state_prep_gates: usize,
    /// Degree of the inversion polynomial (length of Φ).
    pub polynomial_degree: usize,
    /// Number of refinement iterations performed.
    pub iterations: usize,
    /// Bytes per serialised gate (circuit descriptions).
    pub bytes_per_gate: usize,
    /// Bytes per real scalar (phases, sampled amplitudes).
    pub bytes_per_scalar: usize,
}

impl Default for CommunicationParameters {
    fn default() -> Self {
        CommunicationParameters {
            n_qubits: 4,
            block_encoding_gates: 200,
            state_prep_gates: 50,
            polynomial_degree: 101,
            iterations: 5,
            bytes_per_gate: 16,
            bytes_per_scalar: 8,
        }
    }
}

/// The complete Fig. 1 timeline for one run of Algorithm 2.
#[derive(Debug, Clone)]
pub struct CommunicationSchedule {
    /// Parameters the schedule was built from.
    pub parameters: CommunicationParameters,
    /// Ordered transfer events.
    pub events: Vec<TransferEvent>,
}

impl CommunicationSchedule {
    /// Build the timeline.
    pub fn new(parameters: CommunicationParameters) -> Self {
        let p = &parameters;
        let n_amplitudes = 1usize << p.n_qubits;
        // Setup + first solve: BE(A†), Φ and SP(b) go to the QPU once.
        let mut events = vec![TransferEvent {
            iteration: 0,
            direction: Direction::CpuToQpu,
            payload: Payload::BlockEncodingCircuit,
            bytes: p.block_encoding_gates * p.bytes_per_gate,
            label: "BE(A†)".to_string(),
        }];
        events.push(TransferEvent {
            iteration: 0,
            direction: Direction::CpuToQpu,
            payload: Payload::PhaseVector,
            bytes: p.polynomial_degree * p.bytes_per_scalar,
            label: "Φ".to_string(),
        });
        events.push(TransferEvent {
            iteration: 0,
            direction: Direction::CpuToQpu,
            payload: Payload::StatePreparation,
            bytes: p.state_prep_gates * p.bytes_per_gate,
            label: "SP(b)".to_string(),
        });
        events.push(TransferEvent {
            iteration: 0,
            direction: Direction::QpuToCpu,
            payload: Payload::SampledSolution,
            bytes: n_amplitudes * p.bytes_per_scalar,
            label: "x₀".to_string(),
        });

        // Each refinement iteration: SP(r_i) out, sampled solution back.
        for i in 1..=p.iterations {
            events.push(TransferEvent {
                iteration: i,
                direction: Direction::CpuToQpu,
                payload: Payload::StatePreparation,
                bytes: p.state_prep_gates * p.bytes_per_gate,
                label: format!("SP(r{i})"),
            });
            events.push(TransferEvent {
                iteration: i,
                direction: Direction::QpuToCpu,
                payload: Payload::SampledSolution,
                bytes: n_amplitudes * p.bytes_per_scalar,
                label: format!("x{i}"),
            });
        }

        CommunicationSchedule { parameters, events }
    }

    /// Bytes sent CPU → QPU during the setup / first solve.
    pub fn setup_bytes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.iteration == 0 && e.direction == Direction::CpuToQpu)
            .map(|e| e.bytes)
            .sum()
    }

    /// Bytes sent CPU → QPU for one refinement iteration.
    pub fn per_iteration_bytes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.iteration == 1 && e.direction == Direction::CpuToQpu)
            .map(|e| e.bytes)
            .sum()
    }

    /// Total bytes over the whole run, per direction.
    pub fn total_bytes(&self, direction: Direction) -> usize {
        self.events
            .iter()
            .filter(|e| e.direction == direction)
            .map(|e| e.bytes)
            .sum()
    }

    /// Count the transfers of a given payload type: what the schedule
    /// tests assert on.
    #[cfg(test)]
    fn count_payload(&self, payload: Payload) -> usize {
        self.events.iter().filter(|e| e.payload == payload).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_encoding_and_phases_sent_exactly_once() {
        let schedule = CommunicationSchedule::new(CommunicationParameters {
            iterations: 7,
            ..Default::default()
        });
        assert_eq!(schedule.count_payload(Payload::BlockEncodingCircuit), 1);
        assert_eq!(schedule.count_payload(Payload::PhaseVector), 1);
    }

    #[test]
    fn one_state_prep_per_solve_and_one_result_back() {
        let iterations = 5;
        let schedule = CommunicationSchedule::new(CommunicationParameters {
            iterations,
            ..Default::default()
        });
        // SP(b) + SP(r_1..r_k).
        assert_eq!(
            schedule.count_payload(Payload::StatePreparation),
            iterations + 1
        );
        assert_eq!(
            schedule.count_payload(Payload::SampledSolution),
            iterations + 1
        );
    }

    #[test]
    fn per_iteration_traffic_is_much_smaller_than_setup() {
        let schedule = CommunicationSchedule::new(CommunicationParameters::default());
        assert!(schedule.per_iteration_bytes() < schedule.setup_bytes());
    }

    #[test]
    fn totals_scale_with_iterations() {
        let small = CommunicationSchedule::new(CommunicationParameters {
            iterations: 2,
            ..Default::default()
        });
        let large = CommunicationSchedule::new(CommunicationParameters {
            iterations: 10,
            ..Default::default()
        });
        assert!(large.total_bytes(Direction::CpuToQpu) > small.total_bytes(Direction::CpuToQpu));
        assert!(large.total_bytes(Direction::QpuToCpu) > small.total_bytes(Direction::QpuToCpu));
    }

    #[test]
    fn events_are_ordered_by_iteration() {
        let schedule = CommunicationSchedule::new(CommunicationParameters::default());
        let iterations: Vec<usize> = schedule.events.iter().map(|e| e.iteration).collect();
        let mut sorted = iterations.clone();
        sorted.sort_unstable();
        assert_eq!(iterations, sorted);
    }
}
