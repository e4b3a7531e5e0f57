//! Property tests of the bit-packed stabilizer tableau: on random Clifford
//! circuits with measurements, [`PackedTableau`] must produce the same
//! outputs as the bool-matrix reference `BoolTableau` defined here, seed
//! for seed.
//!
//! Both backends draw randomness in the same order (exactly one RNG draw
//! per *random* measurement, none for deterministic ones), so equality is
//! exact, not statistical: every random-measurement branch, every
//! deterministic g-sum, and the destabilizer write-back in the packed
//! word-parallel phase arithmetic is pinned against the row-at-a-time
//! reference.
//!
//! The shot path is pinned the same way: [`PreparedClifford`] runs the
//! prefix before the first measurement once and clones the tableau per
//! shot, and each of its shots must equal a whole-circuit run on the
//! reference tableau under the same seed.

use proptest::prelude::*;
use quipper::{Circ, Qubit};
use quipper_circuit::flatten::inline_all;
use quipper_circuit::{BCircuit, Circuit, GateName};
use quipper_sim::stabilizer::{
    run_clifford_flat_tableau, CliffordSim, PackedTableau, PreparedClifford, Tableau,
};
use quipper_sim::SimError;
use rand::rngs::StdRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Bool-matrix reference tableau

/// One-`bool`-per-cell tableau: the executable specification the packed
/// form is tested against. `x[i][q]`/`z[i][q]` index row `i`
/// (destabilizers then stabilizers), column `q`.
#[derive(Clone, Debug)]
struct BoolTableau {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl BoolTableau {
    /// The phase-exponent contribution of multiplying Paulis (the `g`
    /// function of Aaronson & Gottesman).
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => i32::from(z2) - i32::from(x2),
            (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
            (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
        }
    }

    fn rowsum_into(&mut self, h: usize, i: usize) {
        let mut phase = 2 * i32::from(self.r[h]) + 2 * i32::from(self.r[i]);
        for q in 0..self.n {
            phase += Self::g(self.x[i][q], self.z[i][q], self.x[h][q], self.z[h][q]);
        }
        self.r[h] = phase.rem_euclid(4) == 2;
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
    }
}

impl Tableau for BoolTableau {
    fn empty() -> Self {
        BoolTableau {
            n: 0,
            x: Vec::new(),
            z: Vec::new(),
            r: Vec::new(),
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn grow(&mut self) -> usize {
        let q = self.n;
        self.n += 1;
        for row in self.x.iter_mut().chain(self.z.iter_mut()) {
            row.push(false);
        }
        // Insert a new destabilizer row at index n-1 (end of destabilizers)
        // and a new stabilizer row at the very end.
        let mut dx = vec![false; self.n];
        dx[q] = true;
        let dz = vec![false; self.n];
        let sx = vec![false; self.n];
        let mut sz = vec![false; self.n];
        sz[q] = true;
        self.x.insert(q, dx);
        self.z.insert(q, dz);
        self.r.insert(q, false);
        self.x.push(sx);
        self.z.push(sz);
        self.r.push(false);
        q
    }

    fn gate_h(&mut self, q: usize) {
        for i in 0..2 * self.n {
            let (xi, zi) = (self.x[i][q], self.z[i][q]);
            self.r[i] ^= xi && zi;
            self.x[i][q] = zi;
            self.z[i][q] = xi;
        }
    }

    fn gate_s(&mut self, q: usize) {
        for i in 0..2 * self.n {
            let (xi, zi) = (self.x[i][q], self.z[i][q]);
            self.r[i] ^= xi && zi;
            self.z[i][q] = zi ^ xi;
        }
    }

    fn gate_x(&mut self, q: usize) {
        for i in 0..2 * self.n {
            self.r[i] ^= self.z[i][q];
        }
    }

    fn gate_z(&mut self, q: usize) {
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q];
        }
    }

    fn gate_cnot(&mut self, ctl: usize, tgt: usize) {
        for i in 0..2 * self.n {
            let (xa, za) = (self.x[i][ctl], self.z[i][ctl]);
            let (xb, zb) = (self.x[i][tgt], self.z[i][tgt]);
            self.r[i] ^= xa && zb && (xb == za);
            self.x[i][tgt] = xb ^ xa;
            self.z[i][ctl] = za ^ zb;
        }
    }

    fn gate_cz(&mut self, a: usize, b: usize) {
        // CZ = H(b) · CNOT(a→b) · H(b).
        self.gate_h(b);
        self.gate_cnot(a, b);
        self.gate_h(b);
    }

    fn measure_slot(&mut self, q: usize, rng: &mut StdRng) -> (bool, bool) {
        let n = self.n;
        let p = (n..2 * n).find(|&i| self.x[i][q]);
        match p {
            Some(p) => {
                // Random outcome.
                let outcome = rng.gen::<bool>();
                for i in 0..2 * n {
                    if i != p && self.x[i][q] {
                        self.rowsum_into(i, p);
                    }
                }
                // Destabilizer row p-n := old stabilizer row p.
                self.x[p - n] = self.x[p].clone();
                self.z[p - n] = self.z[p].clone();
                self.r[p - n] = self.r[p];
                // Stabilizer row p := Z_q with sign = outcome.
                for k in 0..n {
                    self.x[p][k] = false;
                    self.z[p][k] = false;
                }
                self.z[p][q] = true;
                self.r[p] = outcome;
                (outcome, false)
            }
            None => {
                // Deterministic outcome: accumulate into a scratch row.
                let mut sx = vec![false; n];
                let mut sz = vec![false; n];
                let mut sr = false;
                for i in 0..n {
                    if self.x[i][q] {
                        // rowsum of scratch with stabilizer row i+n.
                        let mut phase = 2 * i32::from(sr) + 2 * i32::from(self.r[i + n]);
                        for k in 0..n {
                            phase += Self::g(self.x[i + n][k], self.z[i + n][k], sx[k], sz[k]);
                        }
                        sr = phase.rem_euclid(4) == 2;
                        for k in 0..n {
                            sx[k] ^= self.x[i + n][k];
                            sz[k] ^= self.z[i + n][k];
                        }
                    }
                }
                (sr, true)
            }
        }
    }
}

const QUBITS: usize = 8;

/// One random Clifford instruction: the 1q generators and their inverses,
/// the supported 2q gates (CNOT, CZ, Swap), and a mid-circuit measurement
/// that classically controls an X and re-allocates the measured qubit.
#[derive(Clone, Copy, Debug)]
enum Op {
    H(usize),
    X(usize),
    Y(usize),
    Z(usize),
    S(usize),
    SInv(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    /// Measure qubit `a`, apply X to qubit `t` if the outcome is 1, and
    /// allocate a fresh `|0⟩` in `a`'s place.
    MeasureCtrlX(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    let q = 0..QUBITS;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::X),
        q.clone().prop_map(Op::Y),
        q.clone().prop_map(Op::Z),
        q.clone().prop_map(Op::S),
        q.clone().prop_map(Op::SInv),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cnot(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Cz(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, b)| Op::Swap(a, b)),
        (q.clone(), q.clone()).prop_map(|(a, t)| Op::MeasureCtrlX(a, t)),
    ]
}

/// Builds the random Clifford circuit; 2q ops whose wires coincide are
/// skipped. Every qubit is measured at the end, so each run exercises a
/// mix of random (H-touched) and deterministic (post-collapse, entangled)
/// measurements.
fn circuit(ops: &[Op]) -> BCircuit {
    let mut c = Circ::new();
    let mut qs: Vec<Qubit> = (0..QUBITS).map(|_| c.qinit_bit(false)).collect();
    for &op in ops {
        match op {
            Op::H(a) => c.hadamard(qs[a]),
            Op::X(a) => c.qnot(qs[a]),
            Op::Y(a) => c.gate_y(qs[a]),
            Op::Z(a) => c.gate_z(qs[a]),
            Op::S(a) => c.gate_s(qs[a]),
            Op::SInv(a) => c.gate_inv(GateName::S, qs[a]),
            Op::Cnot(a, b) if a != b => c.cnot(qs[a], qs[b]),
            Op::Cz(a, b) if a != b => {
                let (qa, qb) = (qs[a], qs[b]);
                c.with_controls(&qb, |c| c.gate_z(qa));
            }
            Op::Swap(a, b) if a != b => c.swap(qs[a], qs[b]),
            Op::MeasureCtrlX(a, t) if a != t => {
                let bit = c.measure_bit(qs[a]);
                let target = qs[t];
                c.with_controls(&bit, |c| c.qnot(target));
                c.cdiscard(bit);
                qs[a] = c.qinit_bit(false);
            }
            _ => {}
        }
    }
    let ms: Vec<_> = qs.into_iter().map(|q| c.measure_bit(q)).collect();
    c.finish(&ms)
}

fn flat_of(bc: &BCircuit) -> Circuit {
    inline_all(&bc.db, &bc.main).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed tableau matches the bool-matrix reference on every
    /// output bit, for every seed.
    #[test]
    fn packed_tableau_matches_bool_reference(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let flat = flat_of(&circuit(&ops));
        for seed in 0..8u64 {
            let packed = run_clifford_flat_tableau::<PackedTableau>(&flat, &[], seed).unwrap();
            let reference = run_clifford_flat_tableau::<BoolTableau>(&flat, &[], seed).unwrap();
            prop_assert_eq!(
                &packed,
                &reference,
                "backends diverge at seed {}",
                seed
            );
        }
    }
}

/// A whole-circuit run on the reference tableau: the oracle for the split
/// shot path.
fn whole_run_on_bool_tableau(flat: &Circuit, seed: u64) -> Result<Vec<bool>, SimError> {
    let mut sim: CliffordSim<BoolTableau> = CliffordSim::new(seed);
    for gate in &flat.gates {
        sim.apply(gate)?;
    }
    flat.outputs
        .iter()
        .map(|&(w, _)| {
            sim.classical_value(w)
                .ok_or(SimError::UnknownWire { wire: w })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shots from one prepared prefix equal whole-circuit runs on the
    /// reference tableau, seed for seed, mid-circuit measurements and
    /// classical control included.
    #[test]
    fn prepared_shots_match_whole_runs_on_the_reference(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let flat = flat_of(&circuit(&ops));
        let prepared = PreparedClifford::<PackedTableau>::new(&flat, &[]).unwrap();
        for seed in 0..20u64 {
            prop_assert_eq!(
                prepared.shot(seed),
                whole_run_on_bool_tableau(&flat, seed),
                "seed {}",
                seed
            );
        }
    }
}

/// The packed tableau matches the reference past one word of rows: a
/// 70-qubit GHZ chain crosses the 64-row capacity boundary and forces a
/// relayout.
#[test]
fn ghz_across_word_boundary_matches_bool_reference() {
    const N: usize = 70;
    let bc = Circ::build(&vec![false; N], |c, qs: Vec<Qubit>| {
        c.hadamard(qs[0]);
        for i in 1..N {
            c.cnot(qs[i], qs[i - 1]);
        }
        c.measure(qs)
    });
    let flat = flat_of(&bc);
    for seed in 0..10 {
        let packed = run_clifford_flat_tableau::<PackedTableau>(&flat, &[false; N], seed).unwrap();
        let reference = run_clifford_flat_tableau::<BoolTableau>(&flat, &[false; N], seed).unwrap();
        assert_eq!(packed, reference, "backends diverge at seed {seed}");
    }
}
