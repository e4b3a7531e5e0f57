//! The backend abstraction and the built-in simulator adapters.
//!
//! Quipper separates circuit *description* from the run functions that
//! consume circuits (paper §4.4.5). A [`Backend`] packages one run function
//! behind a uniform capability-checked interface so the engine can route each
//! compiled plan to the cheapest simulator that can execute it:
//!
//! * [`ClassicalBackend`] — bit-per-wire permutation simulation, linear time.
//! * [`StabilizerBackend`] — CHP tableau simulation, polynomial in width.
//! * [`StateVecBackend`] — exact state vectors, exponential in width but
//!   universal; the only backend supporting *dynamic lifting* (paper §4.3).
//! * [`CountingBackend`] — no simulation at all: resource estimation over the
//!   hierarchical circuit (gate counts, peak width, depth).
//!
//! A job runs in two steps. [`Backend::prepare`] does the seed-independent
//! work once: each simulator runs the circuit up to its first random op
//! (the classical backend, which draws nothing, runs all of it). The
//! returned [`PreparedShots`] then runs each shot from that state with the
//! shot's own seed.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use quipper::Lifter;
use quipper_circuit::count::{self, GateCount, Peak};
use quipper_circuit::BCircuit;
use quipper_sim::{
    pass_through, run_classical_flat, Prepared, PreparedClifford, SimError, SimLifter,
    StateVecConfig,
};

use crate::error::ExecError;
use crate::plan::Plan;
use crate::profile::CircuitProfile;

/// What a backend can do, advertised statically for routing and reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Capabilities {
    /// Can execute gates that create superpositions (H, V, W, rotations).
    pub superposition: bool,
    /// Can execute non-Clifford gates (T, rotations, arbitrary named gates).
    pub non_clifford: bool,
    /// Hard upper bound on the peak number of live qubits, if any.
    pub max_qubits: Option<usize>,
    /// Supports dynamic lifting: measurement outcomes fed back into circuit
    /// generation (paper §4.3).
    pub dynamic_lifting: bool,
}

/// A run function behind a uniform interface: capability advertisement,
/// admission check, and execution of a compiled [`Plan`] as one
/// [`prepare`](Backend::prepare) per job plus one
/// [`shot`](PreparedShots::shot) per shot.
///
/// Backends are stateless between jobs — a job's shared state lives in its
/// [`PreparedShots`], each shot's on the worker's stack — so one backend
/// instance is shared (`Send + Sync`) across the engine's worker threads.
pub trait Backend: Send + Sync {
    /// Stable short name, used in reports and for explicit backend selection.
    fn name(&self) -> &'static str;

    /// Static capabilities of this backend.
    fn capabilities(&self) -> Capabilities;

    /// Whether this backend can execute circuits with the given profile;
    /// `Err` carries a human-readable rejection reason.
    fn admit(&self, profile: &CircuitProfile) -> Result<(), String>;

    /// Does a job's seed-independent work once: runs `plan` on basis-state
    /// `inputs` up to its first random op.
    ///
    /// # Errors
    ///
    /// Whatever that part of the run raises — the error every shot would
    /// have raised — or [`ExecError::Unsupported`] for a backend that
    /// cannot run shots.
    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError>;

    /// A dynamic-lifting executor seeded with `seed`, if this backend
    /// supports interleaving circuit generation with execution.
    fn make_lifter(&self, _seed: u64) -> Option<Rc<RefCell<dyn Lifter>>> {
        None
    }
}

/// A job prepared by [`Backend::prepare`]. Shots only read it, so the
/// engine's workers share one instance (`Sync`).
pub trait PreparedShots: Sync {
    /// Runs one shot, returning the circuit's output bits. `seed` drives
    /// any measurement randomness; equal seeds give equal outcomes.
    ///
    /// # Errors
    ///
    /// Whatever the rest of the run raises under this seed.
    fn shot(&self, seed: u64) -> Result<Vec<bool>, ExecError>;
}

fn sim_err(backend: &'static str) -> impl Fn(SimError) -> ExecError {
    move |source| ExecError::Sim { backend, source }
}

impl PreparedShots for Prepared<'_> {
    fn shot(&self, seed: u64) -> Result<Vec<bool>, ExecError> {
        // The engine admits only all-classical-output circuits to sampling,
        // so this cannot hit `classical_outputs`' quantum-output panic.
        Prepared::shot(self, seed)
            .map(|result| result.classical_outputs())
            .map_err(sim_err("statevec"))
    }
}

impl PreparedShots for PreparedClifford<'_> {
    fn shot(&self, seed: u64) -> Result<Vec<bool>, ExecError> {
        PreparedClifford::shot(self, seed).map_err(sim_err("stabilizer"))
    }
}

/// A seed-independent run's output bits, returned by every shot.
struct Fixed(Vec<bool>);

impl PreparedShots for Fixed {
    fn shot(&self, _seed: u64) -> Result<Vec<bool>, ExecError> {
        Ok(self.0.clone())
    }
}

/// Adapter over the exact state-vector simulator (`run_generic`): universal
/// but exponential in circuit width.
#[derive(Clone, Copy, Debug)]
pub struct StateVecBackend {
    /// Reject circuits whose peak live-qubit count exceeds this; the state
    /// vector holds `2^peak` complex amplitudes.
    pub max_qubits: usize,
    /// Hot-path tuning: gate fusion, kernel threading and its threshold.
    pub config: StateVecConfig,
}

/// The default width cap: 2²⁴ amplitudes ≈ 256 MiB, a safe single-host bound.
pub const DEFAULT_MAX_QUBITS: usize = 24;

impl Default for StateVecBackend {
    fn default() -> Self {
        StateVecBackend {
            max_qubits: DEFAULT_MAX_QUBITS,
            config: StateVecConfig::default(),
        }
    }
}

impl Backend for StateVecBackend {
    fn name(&self) -> &'static str {
        "statevec"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            superposition: true,
            non_clifford: true,
            max_qubits: Some(self.max_qubits),
            dynamic_lifting: true,
        }
    }

    fn admit(&self, profile: &CircuitProfile) -> Result<(), String> {
        if profile.peak_qubits > self.max_qubits {
            return Err(format!(
                "peak width {} qubits exceeds the state-vector cap of {}",
                profile.peak_qubits, self.max_qubits
            ));
        }
        Ok(())
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError> {
        // Replay the plan's pre-fused op stream (fused once at compile time)
        // unless fusion is disabled, in which case run the raw gate list.
        let ops = if self.config.fuse {
            Cow::Borrowed(&plan.fused)
        } else {
            Cow::Owned(pass_through(&plan.flat))
        };
        let prepared = Prepared::new(ops, inputs, self.config).map_err(sim_err(self.name()))?;
        Ok(Box::new(prepared))
    }

    fn make_lifter(&self, seed: u64) -> Option<Rc<RefCell<dyn Lifter>>> {
        Some(Rc::new(RefCell::new(SimLifter::new(seed))))
    }
}

/// Adapter over the bit-per-wire classical simulator
/// (`run_classical_generic`): linear time, deterministic, but only for
/// circuits that permute computational basis states.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicalBackend;

impl Backend for ClassicalBackend {
    fn name(&self) -> &'static str {
        "classical"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            superposition: false,
            non_clifford: true, // Toffoli et al. are fine: still permutations.
            max_qubits: None,
            dynamic_lifting: false,
        }
    }

    fn admit(&self, profile: &CircuitProfile) -> Result<(), String> {
        if !profile.classical_only {
            return Err("circuit contains superposition-creating gates".to_string());
        }
        Ok(())
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError> {
        // Deterministic: one run answers every shot.
        let bits = run_classical_flat(&plan.flat, inputs).map_err(sim_err(self.name()))?;
        Ok(Box::new(Fixed(bits)))
    }
}

/// Adapter over the CHP tableau simulator (`run_clifford_generic`):
/// polynomial in width, but only for Clifford circuits.
#[derive(Clone, Copy, Debug, Default)]
pub struct StabilizerBackend;

impl Backend for StabilizerBackend {
    fn name(&self) -> &'static str {
        "stabilizer"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            superposition: true,
            non_clifford: false,
            max_qubits: None,
            dynamic_lifting: false,
        }
    }

    fn admit(&self, profile: &CircuitProfile) -> Result<(), String> {
        if !profile.clifford_only {
            return Err("circuit contains non-Clifford gates".to_string());
        }
        Ok(())
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a Plan,
        inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError> {
        let prepared = PreparedClifford::new(&plan.flat, inputs).map_err(sim_err(self.name()))?;
        Ok(Box::<PreparedClifford>::new(prepared))
    }
}

/// Resource estimates produced by the [`CountingBackend`].
#[derive(Clone, Debug)]
pub struct ResourceEstimate {
    /// Gate counts by class, as printed by the paper's `print_generic`
    /// counting output.
    pub gates: GateCount,
    /// Peak simultaneously-alive wires.
    pub peak: Peak,
    /// Circuit depth (longest wire-dependency chain).
    pub depth: u128,
}

/// A "backend" that never executes anything: it walks the *hierarchical*
/// circuit, multiplying through subroutine repetitions, to produce resource
/// estimates — the paper's third run function alongside printing and
/// simulation (§4.4.5).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingBackend;

impl CountingBackend {
    /// Counts gates, peak width and depth without flattening the circuit.
    pub fn estimate(&self, bc: &BCircuit) -> ResourceEstimate {
        ResourceEstimate {
            gates: count::count(&bc.db, &bc.main),
            peak: count::max_alive(&bc.db, &bc.main),
            depth: count::depth(&bc.db, &bc.main),
        }
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            superposition: false,
            non_clifford: false,
            max_qubits: None,
            dynamic_lifting: false,
        }
    }

    fn admit(&self, _profile: &CircuitProfile) -> Result<(), String> {
        Err("counting backend estimates resources; it cannot run shots".to_string())
    }

    fn prepare<'a>(
        &'a self,
        _plan: &'a Plan,
        _inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError> {
        Err(ExecError::Unsupported {
            backend: self.name(),
            what: "shot execution",
        })
    }
}
