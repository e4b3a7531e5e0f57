//! The Clifford fragment, written once.
//!
//! Quipper's `run_clifford_generic` (paper §4.4.5) runs circuits from the
//! Clifford fragment only. This module is that fragment: [`steps`] maps a
//! gate to a short sequence of stabilizer-tableau primitives, or to `None`
//! when the gate is outside it. Three consumers read the one table, so they
//! cannot disagree:
//!
//! * the execution engine's router (`quipper-exec`'s circuit profile) sends
//!   a circuit to the stabilizer backend exactly when the table accepts
//!   every gate;
//! * the tableau (`quipper-sim`'s `CliffordSim`) replays the steps, one
//!   generator update each;
//! * Pauli conjugation ([`PauliString::conjugate`](crate::pauli::PauliString::conjugate))
//!   folds one conjugation rule per primitive over the steps, which is what
//!   the lint's stabilizer walker and QL041 transport strings with.
//!
//! | gate                                     | steps                      |
//! |------------------------------------------|----------------------------|
//! | X, Z, H, S                               | itself                     |
//! | Y = Z·X                                  | `Z`, `X`                   |
//! | S† = S³                                  | `S`, `S`, `S`              |
//! | V = H·S·H, V† = H·S†·H                   | `H`, `S` (or `S`×3), `H`   |
//! | Swap                                     | `Swap`                     |
//! | X, Z with one positive quantum control   | `Cx`, `Cz`                 |
//! | X, Z with one negative quantum control   | `X`(c), `Cx`/`Cz`, `X`(c)  |
//! | GPhase with no quantum control           | nothing                    |
//!
//! Classical controls are left to the caller, which tells the table which
//! control wires are quantum: a classical control gates the whole
//! operation, so it does not change the steps.

use std::ops::Deref;

use crate::gate::{Gate, GateName};
use crate::wire::{Control, Wire};

/// One stabilizer-tableau primitive, on circuit wires.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Pauli X.
    X(Wire),
    /// Pauli Z.
    Z(Wire),
    /// Hadamard.
    H(Wire),
    /// The phase gate S = diag(1, i).
    S(Wire),
    /// CNOT, control first.
    Cx(Wire, Wire),
    /// Controlled Z (symmetric).
    Cz(Wire, Wire),
    /// Swap of two distinct wires.
    Swap(Wire, Wire),
}

/// The longest expansion in the table: V† = H·S·S·S·H.
const MAX_STEPS: usize = 5;

/// A gate's expansion, held inline so a lookup allocates nothing.
/// Dereferences to the steps in time order.
#[derive(Copy, Clone, Debug)]
pub struct Steps {
    buf: [Step; MAX_STEPS],
    len: usize,
}

impl Steps {
    fn of(steps: &[Step]) -> Steps {
        let mut buf = [Step::X(Wire(0)); MAX_STEPS];
        buf[..steps.len()].copy_from_slice(steps);
        Steps {
            buf,
            len: steps.len(),
        }
    }
}

impl Deref for Steps {
    type Target = [Step];

    fn deref(&self) -> &[Step] {
        &self.buf[..self.len]
    }
}

/// The expansion of `gate` into tableau primitives, or `None` when the gate
/// is outside the Clifford fragment.
///
/// `quantum(w)` says whether control wire `w` is quantum; the other
/// controls are classical and ignored here. Malformed gates (wrong target
/// count, a control on its own target, a swap of one wire) are refused.
pub fn steps(gate: &Gate, quantum: impl Fn(Wire) -> bool) -> Option<Steps> {
    let (name, inverted, targets, controls) = match gate {
        Gate::QGate {
            name,
            inverted,
            targets,
            controls,
        } => (name, *inverted, targets, controls),
        Gate::GPhase { controls, .. } => {
            return controls
                .iter()
                .all(|c| !quantum(c.wire))
                .then(|| Steps::of(&[]));
        }
        _ => return None,
    };
    let mut quantum_controls = controls.iter().filter(|c| quantum(c.wire));
    let control = quantum_controls.next();
    if quantum_controls.next().is_some() || control.is_some_and(|c| targets.contains(&c.wire)) {
        return None;
    }
    use Step::*;
    let steps = match (name, control, targets.as_slice()) {
        (GateName::X, None, &[t]) => Steps::of(&[X(t)]),
        (GateName::X, Some(c), &[t]) => controlled(c, Cx(c.wire, t)),
        (GateName::Z, None, &[t]) => Steps::of(&[Z(t)]),
        (GateName::Z, Some(c), &[t]) => controlled(c, Cz(c.wire, t)),
        (GateName::Y, None, &[t]) => Steps::of(&[Z(t), X(t)]),
        (GateName::H, None, &[t]) => Steps::of(&[H(t)]),
        (GateName::S, None, &[t]) if !inverted => Steps::of(&[S(t)]),
        (GateName::S, None, &[t]) => Steps::of(&[S(t), S(t), S(t)]),
        (GateName::V, None, &[t]) if !inverted => Steps::of(&[H(t), S(t), H(t)]),
        (GateName::V, None, &[t]) => Steps::of(&[H(t), S(t), S(t), S(t), H(t)]),
        (GateName::Swap, None, &[a, b]) if a != b => Steps::of(&[Swap(a, b)]),
        _ => return None,
    };
    Some(steps)
}

/// A singly-controlled step; a negative control is X on the control wire
/// before and after.
fn controlled(c: &Control, step: Step) -> Steps {
    if c.positive {
        Steps::of(&[step])
    } else {
        Steps::of(&[Step::X(c.wire), step, Step::X(c.wire)])
    }
}
