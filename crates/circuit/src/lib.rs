//! Hierarchical quantum circuit intermediate representation.
//!
//! This crate provides the circuit model underlying the `quipper` EDSL — a Rust
//! reproduction of the circuit model described in *Quipper: A Scalable Quantum
//! Programming Language* (Green, Lumsdaine, Ross, Selinger, Valiron; PLDI 2013),
//! Section 4.2. The model extends the textbook unitary circuit model with:
//!
//! * **Explicit qubit initialization and assertive termination** (`QInit`,
//!   `QTerm`), which make ancilla *scopes* explicit (paper §4.2.1–4.2.2).
//! * **Mixed classical/quantum circuits**: classical wires, measurement,
//!   classical gates and classically-controlled quantum gates (paper §4.2.3).
//! * **Hierarchical (boxed) subcircuits** (paper §4.4.4), allowing circuits
//!   with trillions of gates to be represented, counted and manipulated in
//!   memory without ever being expanded.
//!
//! The main types are [`Circuit`] (a flat gate list with typed input/output
//! arities), [`CircuitDb`] (a store of named boxed subcircuits) and
//! [`BCircuit`] (a circuit together with the database it references).
//!
//! # Example
//!
//! ```
//! use quipper_circuit::{Circuit, Gate, GateName, Wire, WireType};
//!
//! // Build a Bell-pair circuit by hand (the `quipper` crate provides a much
//! // more convenient builder on top of this IR).
//! let a = Wire(0);
//! let b = Wire(1);
//! let mut circ = Circuit::with_inputs(vec![(a, WireType::Quantum), (b, WireType::Quantum)]);
//! circ.gates.push(Gate::unary(GateName::H, a));
//! circ.gates.push(Gate::cnot(b, a));
//! circ.outputs = circ.inputs.clone();
//! circ.validate_standalone().unwrap();
//! assert_eq!(circ.gates.len(), 2);
//! ```

pub mod clifford;
pub mod commute;
pub mod count;
pub mod error;
pub mod fingerprint;
pub mod flatten;
pub mod gate;
pub mod pauli;
pub mod print;
pub mod qasm;
pub mod qelib;
pub mod resources;
pub mod reverse;
pub mod validate;
pub mod wire;

mod circuit;

pub use circuit::{BCircuit, BoxId, Circuit, CircuitDb, SubDef};
pub use count::{GateClass, GateCount};
pub use error::CircuitError;
pub use gate::{ClassKind, Gate, GateName};
pub use wire::{Control, Wire, WireType};
