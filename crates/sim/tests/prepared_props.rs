//! Property tests of the split run: [`Prepared`] runs a circuit's
//! measurement-free prefix once and replays only the tail per shot, reading
//! the shared prefix state through a pending projection until a tail op
//! writes amplitudes. Shots must be exactly what whole-circuit runs give:
//!
//! * **Against the scan oracle.** Over unmerged window segments the kernels
//!   do the scan's arithmetic, so `Prepared::shot(seed)` must equal
//!   `run_flat_reference(seed)` bit for bit — outputs, and error values
//!   (which carry probabilities) too.
//! * **Against fresh single-shot runs.** On the full default path (fusion,
//!   windows, SIMD, swap relabeling), N shots from one prepare must equal N
//!   independent `run_fused` calls: outcomes, errors and, where qubits stay
//!   live, the final amplitudes.
//!
//! The random circuits measure, discard and terminate mid-circuit, allocate
//! again after measurement, apply gates after measurement, and control gates
//! classically on measured bits.

use std::borrow::Cow;

use proptest::prelude::*;
use quipper::{Bit, Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit};
use quipper_sim::statevec::{run_flat_reference, run_fused, RunResult, StateVecConfig};
use quipper_sim::{fuse_circuit, segment_circuit, Prepared, SimError};

const QUBITS: usize = 5;

#[derive(Clone, Copy, Debug)]
enum Op {
    H(usize),
    T(usize),
    Ry(usize, u8),
    Cnot(usize, usize),
    Toffoli(usize, usize, usize),
    Swap(usize, usize),
    /// Measure a qubit; the register entry becomes its bit.
    Measure(usize),
    /// Discard a qubit and allocate a fresh one in its place.
    Discard(usize),
    /// Drop a measured bit and allocate a qubit in its place.
    Realloc(usize, bool),
    /// X on a qubit, classically controlled on a measured bit.
    CtrlX(usize, usize),
    /// H on a qubit, classically controlled on a measured bit.
    CtrlH(usize, usize),
    /// A scoped ancilla, correctly uncomputed and terminated.
    Ancilla(usize),
    /// An ancilla copied from a qubit and asserted |0⟩: fails unless the
    /// qubit is definitely 0, possibly only under some seeds.
    RiskyTerm(usize),
}

/// The ops that cannot fail an assertion, measurement listed twice so
/// circuits measure often.
fn safe_op() -> impl Strategy<Value = Op> {
    let q = 0..QUBITS;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::T),
        (q.clone(), 0u8..8).prop_map(|(a, k)| Op::Ry(a, k)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (q.clone(), q.clone(), q.clone()).prop_map(|(a, b, t)| Op::Toffoli(a, b, t)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
        q.clone().prop_map(Op::Measure),
        q.clone().prop_map(Op::Measure),
        q.clone().prop_map(Op::Discard),
        (q.clone(), any::<bool>()).prop_map(|(a, v)| Op::Realloc(a, v)),
        (q.clone(), q.clone()).prop_map(|(b, t)| Op::CtrlX(b, t)),
        (q.clone(), q.clone()).prop_map(|(b, t)| Op::CtrlH(b, t)),
        q.prop_map(Op::Ancilla),
    ]
}

/// A random op; one in sixteen is a [`Op::RiskyTerm`], so most circuits
/// run to the end while some fail, in the prefix or only under some seeds.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        safe_op(),
        safe_op(),
        safe_op(),
        safe_op(),
        safe_op(),
        safe_op(),
        safe_op(),
        prop_oneof![safe_op(), (0..QUBITS).prop_map(Op::RiskyTerm)],
    ]
}

#[derive(Clone, Copy)]
enum Reg {
    Q(Qubit),
    B(Bit),
}

/// Builds the circuit over a register of `QUBITS` entries, each a live
/// qubit or a measured bit; an op whose entries have the wrong kind (or
/// coincide) is skipped. With `measure_all`, remaining qubits are measured
/// at the end and every output is a bit; otherwise live qubits stay quantum
/// outputs.
fn circuit(ops: &[Op], measure_all: bool) -> BCircuit {
    let mut c = Circ::new();
    let mut reg: Vec<Reg> = (0..QUBITS).map(|_| Reg::Q(c.qinit_bit(false))).collect();
    for &op in ops {
        let q = |i: usize| match reg[i] {
            Reg::Q(q) => Some(q),
            Reg::B(_) => None,
        };
        let b = |i: usize| match reg[i] {
            Reg::B(b) => Some(b),
            Reg::Q(_) => None,
        };
        match op {
            Op::H(a) => q(a).into_iter().for_each(|q| c.hadamard(q)),
            Op::T(a) => q(a).into_iter().for_each(|q| c.gate_t(q)),
            Op::Ry(a, k) => {
                if let Some(q) = q(a) {
                    c.rot("Ry(%)", f64::from(k) * 0.37 + 0.1, q);
                }
            }
            Op::Cnot(a, t) if a != t => {
                if let (Some(qa), Some(qt)) = (q(a), q(t)) {
                    c.cnot(qt, qa);
                }
            }
            Op::Toffoli(a, b2, t) if a != b2 && a != t && b2 != t => {
                if let (Some(qa), Some(qb), Some(qt)) = (q(a), q(b2), q(t)) {
                    c.toffoli(qt, qa, qb);
                }
            }
            Op::Swap(a, t) if a != t => {
                if let (Some(qa), Some(qt)) = (q(a), q(t)) {
                    c.swap(qa, qt);
                }
            }
            Op::Measure(a) => {
                if let Some(q) = q(a) {
                    reg[a] = Reg::B(c.measure_bit(q));
                }
            }
            Op::Discard(a) => {
                if let Some(q) = q(a) {
                    c.qdiscard(q);
                    reg[a] = Reg::Q(c.qinit_bit(false));
                }
            }
            Op::Realloc(a, v) => {
                if let Some(bit) = b(a) {
                    c.cdiscard(bit);
                    reg[a] = Reg::Q(c.qinit_bit(v));
                }
            }
            Op::CtrlX(bi, t) => {
                if let (Some(bit), Some(qt)) = (b(bi), q(t)) {
                    c.with_controls(&bit, |c| c.qnot(qt));
                }
            }
            Op::CtrlH(bi, t) => {
                if let (Some(bit), Some(qt)) = (b(bi), q(t)) {
                    c.with_controls(&bit, |c| c.hadamard(qt));
                }
            }
            Op::Ancilla(a) => {
                if let Some(qa) = q(a) {
                    c.with_ancilla(|c, anc| {
                        c.cnot(anc, qa);
                        c.gate_t(anc);
                        c.cnot(anc, qa);
                    });
                }
            }
            Op::RiskyTerm(a) => {
                if let Some(qa) = q(a) {
                    let anc = c.qinit_bit(false);
                    c.cnot(anc, qa);
                    c.qterm_bit(false, anc);
                }
            }
            _ => {}
        }
    }
    if measure_all {
        let bits: Vec<Bit> = reg
            .into_iter()
            .map(|r| match r {
                Reg::Q(q) => c.measure_bit(q),
                Reg::B(b) => b,
            })
            .collect();
        c.finish(&bits)
    } else {
        let qubits: Vec<Qubit> = reg
            .into_iter()
            .filter_map(|r| match r {
                Reg::Q(q) => Some(q),
                Reg::B(b) => {
                    c.cdiscard(b);
                    None
                }
            })
            .collect();
        c.finish(&qubits)
    }
}

fn flat_of(bc: &BCircuit) -> Circuit {
    inline_all(&bc.db, &bc.main).unwrap()
}

/// Outputs of a measured run, or its error.
fn outputs(r: Result<RunResult, SimError>) -> Result<Vec<bool>, SimError> {
    r.map(|r| r.classical_outputs())
}

/// Bit-for-bit amplitude equality (`==` on each component, so ±0 agree).
fn same_amplitudes(a: &RunResult, b: &RunResult) -> bool {
    let (xa, xb) = (a.state.amplitudes(), b.state.amplitudes());
    xa.len() == xb.len() && xa.iter().zip(xb).all(|(x, y)| x.re == y.re && x.im == y.im)
}

/// Consecutive measurements on an entangled state with uneven outcome
/// probabilities stack several renormalizations in the pending projection;
/// the live qubits left behind must carry exactly the amplitudes eager
/// projection gives, whether the shot stays on the shared state to the end
/// or copies it for a gate after the measurements.
#[test]
fn stacked_projections_match_eager_projection() {
    for gate_after in [false, true] {
        let bc = Circ::build(&vec![false; 6], |c, qs: Vec<Qubit>| {
            for (i, &q) in qs.iter().enumerate() {
                c.rot("Ry(%)", 0.3 + 0.41 * i as f64, q);
            }
            for w in qs.windows(2) {
                c.cnot(w[1], w[0]);
            }
            let bits: Vec<Bit> = qs[..4].iter().map(|&q| c.measure_bit(q)).collect();
            if gate_after {
                c.hadamard(qs[4]);
            }
            for b in bits {
                c.cdiscard(b);
            }
            (qs[4], qs[5])
        });
        let fused = fuse_circuit(&flat_of(&bc));
        let config = StateVecConfig::default();
        let prepared = Prepared::new(Cow::Borrowed(&fused), &[false; 6], config).unwrap();
        for seed in 0..64 {
            let shot = prepared.shot(seed).unwrap();
            let fresh = run_fused(&fused, &[false; 6], seed, config).unwrap();
            assert!(
                same_amplitudes(&shot, &fresh),
                "gate_after {gate_after}, seed {seed}: {:?} vs {:?}",
                shot.state.amplitudes(),
                fresh.state.amplitudes()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over unmerged windows the kernels do the scan's arithmetic, so each
    /// shot from one prepare equals the scan oracle's whole-circuit run,
    /// error values included.
    #[test]
    fn prepared_shots_match_the_scan_oracle(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let flat = flat_of(&circuit(&ops, true));
        let config = StateVecConfig {
            window: true,
            window_block_bits: 2,
            window_max_high: 1,
            ..StateVecConfig::sequential()
        };
        let segmented = segment_circuit(&flat);
        let prepared = Prepared::new(Cow::Borrowed(&segmented), &[], config);
        for seed in 0..20 {
            let oracle = outputs(run_flat_reference(&flat, &[], seed));
            let shot = match &prepared {
                Ok(p) => outputs(p.shot(seed)),
                Err(e) => Err(e.clone()),
            };
            prop_assert_eq!(shot, oracle, "seed {}", seed);
        }
    }

    /// On the full default path, N shots from one prepare equal N fresh
    /// single-shot runs: outcomes and errors, and the final amplitudes when
    /// qubits stay live.
    #[test]
    fn prepared_shots_match_fresh_runs(
        ops in proptest::collection::vec(op(), 1..40),
        measure_all in any::<bool>(),
    ) {
        let flat = flat_of(&circuit(&ops, measure_all));
        let config = StateVecConfig {
            threads: 1,
            window_block_bits: 2,
            window_max_high: 2,
            ..StateVecConfig::default()
        };
        let fused = fuse_circuit(&flat);
        let prepared = Prepared::new(Cow::Borrowed(&fused), &[], config);
        for seed in 0..20 {
            let fresh = run_fused(&fused, &[], seed, config);
            let shot = match &prepared {
                Ok(p) => p.shot(seed),
                Err(e) => Err(e.clone()),
            };
            match (shot, fresh) {
                (Ok(s), Ok(f)) if !measure_all => {
                    prop_assert!(same_amplitudes(&s, &f), "seed {}: amplitudes differ", seed);
                }
                (Ok(s), Ok(f)) => {
                    prop_assert_eq!(s.classical_outputs(), f.classical_outputs(), "seed {}", seed);
                }
                (s, f) => prop_assert_eq!(s.err(), f.err(), "seed {}", seed),
            }
        }
    }
}
