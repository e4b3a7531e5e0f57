//! One Clifford fragment: the router, the stabilizer tableau and Pauli
//! conjugation all read `quipper_circuit::clifford`, so they accept the same
//! gates. This test enumerates every gate name × inversion × zero, one or
//! two controls × control polarity × quantum or classical control wire, and
//! checks that the three agree on each.

use quipper_circuit::pauli::{Pauli, PauliString};
use quipper_circuit::{Circuit, Control, Gate, GateName, Wire, WireType};
use quipper_exec::profile;
use quipper_sim::stabilizer::Stabilizer;

fn names() -> Vec<GateName> {
    vec![
        GateName::X,
        GateName::Y,
        GateName::Z,
        GateName::H,
        GateName::S,
        GateName::T,
        GateName::V,
        GateName::W,
        GateName::Swap,
        GateName::named("G"),
    ]
}

/// Every control list of length 0–2 over wires 10 and 11: each control is
/// positive or negative, on a quantum or a classical wire.
fn control_sets() -> Vec<Vec<(Control, WireType)>> {
    let one = |w: u32| {
        let mut out = Vec::new();
        for ty in [WireType::Quantum, WireType::Classical] {
            out.push((Control::positive(Wire(w)), ty));
            out.push((Control::negative(Wire(w)), ty));
        }
        out
    };
    let mut sets = vec![vec![]];
    for a in one(10) {
        sets.push(vec![a]);
        for b in one(11) {
            sets.push(vec![a, b]);
        }
    }
    sets
}

/// The gate alone in a circuit whose inputs are its targets (quantum) and
/// its control wires (typed as given).
fn single_gate_circuit(gate: &Gate, targets: &[Wire], controls: &[(Control, WireType)]) -> Circuit {
    let mut inputs: Vec<(Wire, WireType)> =
        targets.iter().map(|&t| (t, WireType::Quantum)).collect();
    inputs.extend(controls.iter().map(|&(c, ty)| (c.wire, ty)));
    let mut circ = Circuit::with_inputs(inputs);
    circ.gates.push(gate.clone());
    circ.outputs = circ.inputs.clone();
    circ
}

/// Routing accepts the gate iff the tableau does; with every control
/// quantum, conjugating a string with X on every touched wire succeeds iff
/// both do (conjugation sees every control as quantum, so classical control
/// wires are the caller's business there).
fn check(gate: &Gate, targets: &[Wire], controls: &[(Control, WireType)]) -> bool {
    let circ = single_gate_circuit(gate, targets, controls);
    let routed = profile(&circ).clifford_only;
    for value in [false, true] {
        let mut sim = Stabilizer::new(7);
        for &(w, ty) in &circ.inputs {
            sim.add_input(w, ty, value);
        }
        let applied = sim.apply(gate);
        assert_eq!(
            routed,
            applied.is_ok(),
            "{} with controls {controls:?}: router says {routed}, tableau says {applied:?}",
            gate.describe()
        );
    }
    if controls.iter().all(|&(_, ty)| ty == WireType::Quantum) {
        let mut string = PauliString::identity();
        gate.for_each_wire(&mut |w| string = string.mul(&PauliString::single(w, Pauli::X)));
        assert_eq!(
            routed,
            string.conjugate(gate).is_some(),
            "{} with controls {controls:?}: router and conjugation disagree",
            gate.describe()
        );
    }
    routed
}

#[test]
fn router_tableau_and_conjugation_accept_the_same_gates() {
    let mut routed = 0;
    for controls in control_sets() {
        let ctl: Vec<Control> = controls.iter().map(|&(c, _)| c).collect();
        for name in names() {
            let arity = name.fixed_arity().unwrap_or(1);
            let targets: Vec<Wire> = (0..arity as u32).map(Wire).collect();
            for inverted in [false, true] {
                let gate = Gate::QGate {
                    name: name.clone(),
                    inverted,
                    targets: targets.clone(),
                    controls: ctl.clone(),
                };
                routed += usize::from(check(&gate, &targets, &controls));
            }
        }
        let gphase = Gate::GPhase {
            angle: 0.25,
            controls: ctl.clone(),
        };
        routed += usize::from(check(&gphase, &[], &controls));
    }
    // The seven Clifford names (X, Y, Z, H, S, V, Swap) × 2 inversions,
    // plus GPhase, route with no quantum control: 15 per control set that
    // has none (1 empty + 2 one-classical + 4 two-classical sets). X and Z
    // × 2 inversions route with one quantum control: 4 per set that has
    // exactly one (2 one-quantum + 8 mixed sets).
    assert_eq!(routed, 15 * 7 + 4 * 10);
}

/// The copies the one table replaced disagreed on V†, on negative quantum
/// controls and on a global phase; all three now accept each of them.
#[test]
fn former_disagreements_are_accepted_everywhere() {
    let q = |w: u32| (Wire(w), WireType::Quantum);
    let cases = [
        Gate::QGate {
            name: GateName::V,
            inverted: true,
            targets: vec![Wire(0)],
            controls: vec![],
        },
        Gate::QGate {
            name: GateName::X,
            inverted: false,
            targets: vec![Wire(0)],
            controls: vec![Control::negative(Wire(1))],
        },
        Gate::QGate {
            name: GateName::Z,
            inverted: false,
            targets: vec![Wire(0)],
            controls: vec![Control::negative(Wire(1))],
        },
        Gate::GPhase {
            angle: 0.125,
            controls: vec![],
        },
    ];
    for gate in &cases {
        let mut circ = Circuit::with_inputs(vec![q(0), q(1)]);
        circ.gates.push(gate.clone());
        circ.outputs = circ.inputs.clone();
        assert!(profile(&circ).clifford_only, "{}", gate.describe());
        let mut sim = Stabilizer::new(1);
        sim.add_input(Wire(0), WireType::Quantum, false);
        sim.add_input(Wire(1), WireType::Quantum, false);
        assert!(sim.apply(gate).is_ok(), "{}", gate.describe());
        let string =
            PauliString::single(Wire(0), Pauli::X).mul(&PauliString::single(Wire(1), Pauli::X));
        assert!(string.conjugate(gate).is_some(), "{}", gate.describe());
    }
}
