//! Static analysis of flattened circuits for backend selection.
//!
//! The engine routes each circuit to the cheapest capable simulator; the
//! routing decision is made once per compiled plan from a [`CircuitProfile`]
//! computed by a single linear walk over the flat gate list. The walk tracks
//! each live wire's current type (measurement turns quantum wires classical,
//! paper §4.2.3), which matters because the Clifford table
//! ([`quipper_circuit::clifford`]) that decides stabilizer routing only
//! sees quantum controls: a *classical* control gates the whole operation,
//! while a second *quantum* control leaves the fragment.

use std::collections::HashMap;

use quipper_circuit::clifford;
use quipper_circuit::{Circuit, Gate, GateName, Wire, WireType};

/// What a flat circuit needs from a simulator, computed in one pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CircuitProfile {
    /// Every gate is a permutation of computational basis states (X / swap /
    /// Z-basis phases / classical gates), so the bit-per-wire simulator can
    /// run it.
    pub classical_only: bool,
    /// Every gate is in the Clifford table ([`clifford::steps`]) that the
    /// CHP tableau simulator replays — classical controls allowed — or is
    /// an initialization, assertive termination, measurement or discard.
    pub clifford_only: bool,
    /// Peak number of simultaneously live quantum wires. State-vector cost is
    /// `2^peak_qubits` amplitudes, so this bounds which circuits the exact
    /// simulator will accept.
    pub peak_qubits: usize,
    /// Number of circuit inputs (quantum and classical).
    pub num_inputs: usize,
    /// Total gate count of the flattened circuit.
    pub num_gates: usize,
    /// Every circuit output is a classical wire, i.e. the circuit measures or
    /// asserts away all its qubits. Sampling jobs require this.
    pub outputs_classical: bool,
}

/// Whether the bit-per-wire classical simulator accepts this gate (mirrors
/// `ClassicalState::apply`).
fn is_classical(gate: &Gate) -> bool {
    match gate {
        Gate::Comment { .. }
        | Gate::QInit { .. }
        | Gate::CInit { .. }
        | Gate::QTerm { .. }
        | Gate::CTerm { .. }
        | Gate::QMeas { .. }
        | Gate::QDiscard { .. }
        | Gate::CDiscard { .. }
        | Gate::GPhase { .. } => true,
        Gate::QGate { name, .. } => matches!(
            name,
            GateName::X | GateName::Swap | GateName::Z | GateName::S | GateName::T
        ),
        Gate::CGate { name, .. } => matches!(&**name, "xor" | "and" | "or" | "not"),
        Gate::QRot { .. } | Gate::Subroutine { .. } => false,
    }
}

/// Whether the stabilizer simulator accepts this gate: the bookkeeping
/// gates, plus every gate the Clifford table ([`clifford::steps`]) expands,
/// with each control typed by its wire's current type. A control on a wire
/// of unknown type refuses.
fn is_clifford(gate: &Gate, types: &HashMap<Wire, WireType>) -> bool {
    match gate {
        Gate::Comment { .. }
        | Gate::QInit { .. }
        | Gate::CInit { .. }
        | Gate::QTerm { .. }
        | Gate::CTerm { .. }
        | Gate::QMeas { .. }
        | Gate::QDiscard { .. }
        | Gate::CDiscard { .. } => true,
        Gate::QGate { controls, .. } | Gate::GPhase { controls, .. } => {
            controls.iter().all(|c| types.contains_key(&c.wire))
                && clifford::steps(gate, |w| types.get(&w) == Some(&WireType::Quantum)).is_some()
        }
        Gate::QRot { .. } | Gate::CGate { .. } | Gate::Subroutine { .. } => false,
    }
}

/// Profiles a flattened circuit in one linear pass.
///
/// Subroutine calls are not expected in flat circuits; if one appears it is
/// conservatively classified as neither classical nor Clifford.
pub fn profile(flat: &Circuit) -> CircuitProfile {
    let mut types: HashMap<Wire, WireType> = flat.inputs.iter().copied().collect();
    let mut live_qubits = flat
        .inputs
        .iter()
        .filter(|(_, t)| *t == WireType::Quantum)
        .count();
    let mut peak_qubits = live_qubits;
    let mut classical_only = true;
    let mut clifford_only = true;

    for gate in &flat.gates {
        classical_only = classical_only && is_classical(gate);
        clifford_only = clifford_only && is_clifford(gate, &types);
        // Update wire types and the live-qubit count.
        match gate {
            Gate::QInit { wire, .. }
                if types.insert(*wire, WireType::Quantum) != Some(WireType::Quantum) =>
            {
                live_qubits += 1;
                peak_qubits = peak_qubits.max(live_qubits);
            }
            Gate::CInit { wire, .. }
                if types.insert(*wire, WireType::Classical) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::CGate { target, .. } => {
                types.insert(*target, WireType::Classical);
            }
            Gate::QMeas { wire }
                if types.insert(*wire, WireType::Classical) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::QTerm { wire, .. } | Gate::QDiscard { wire }
                if types.remove(wire) == Some(WireType::Quantum) =>
            {
                live_qubits -= 1;
            }
            Gate::CTerm { wire, .. } | Gate::CDiscard { wire } => {
                types.remove(wire);
            }
            _ => {}
        }
    }

    CircuitProfile {
        classical_only,
        clifford_only,
        peak_qubits,
        num_inputs: flat.inputs.len(),
        num_gates: flat.gates.len(),
        outputs_classical: flat.outputs.iter().all(|(_, t)| *t == WireType::Classical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_circuit::flatten::inline_all;

    fn profile_of(bc: &quipper_circuit::BCircuit) -> CircuitProfile {
        profile(&inline_all(&bc.db, &bc.main).unwrap())
    }

    #[test]
    fn toffoli_circuit_is_classical_but_not_clifford() {
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.toffoli(t, a, b);
                (a, b, t)
            },
        );
        let p = profile_of(&bc);
        assert!(p.classical_only);
        assert!(!p.clifford_only, "doubly-controlled X is not Clifford");
        assert_eq!(p.peak_qubits, 3);
    }

    #[test]
    fn bell_pair_is_clifford_but_not_classical() {
        let bc = Circ::build(&(false, false), |c, (a, b): (Qubit, Qubit)| {
            c.hadamard(a);
            c.cnot(b, a);
            let x = c.measure(a);
            let y = c.measure(b);
            (x, y)
        });
        let p = profile_of(&bc);
        assert!(!p.classical_only);
        assert!(p.clifford_only);
        assert!(p.outputs_classical);
    }

    #[test]
    fn t_gate_breaks_clifford() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            c.hadamard(q);
            c.gate_t(q);
            q
        });
        let p = profile_of(&bc);
        assert!(!p.clifford_only);
        assert!(!p.classical_only);
        assert!(!p.outputs_classical);
    }

    #[test]
    fn peak_counts_ancillas() {
        let bc = Circ::build(&false, |c, q: Qubit| {
            let a = c.qinit_bit(false);
            let b = c.qinit_bit(false);
            c.qterm_bit(false, a);
            let d = c.qinit_bit(false);
            c.qterm_bit(false, b);
            c.qterm_bit(false, d);
            q
        });
        // Alive: q plus at most two ancillas at once.
        assert_eq!(profile_of(&bc).peak_qubits, 3);
    }

    #[test]
    fn measurement_makes_control_classical() {
        // A classically-controlled X after measurement stays Clifford even
        // with a second (classical) control — the stabilizer simulator gates
        // the whole operation on classical controls.
        let bc = Circ::build(
            &(false, false, false),
            |c, (a, b, t): (Qubit, Qubit, Qubit)| {
                c.hadamard(a);
                let ma = c.measure(a);
                let mb = c.measure(b);
                c.qnot_ctrl(t, &(ma, mb));
                (ma, mb, c.measure(t))
            },
        );
        let p = profile_of(&bc);
        assert!(p.clifford_only, "two classical controls are fine for CHP");
    }
}
