//! Seeded fault injection: a [`Backend`] wrapper that fails shots and adds
//! latency spikes with configured probabilities. Faults are drawn per shot,
//! after the inner backend has prepared the job.
//!
//! The service's graceful-degradation story (retry, backoff, zero lost
//! jobs) is only credible if it can be demonstrated under faults; this
//! wrapper makes faults a reproducible input instead of an operational
//! anecdote. Draws are a pure function of `(seed, draw counter)`, so a
//! given configuration injects a deterministic fault *sequence* — the
//! per-shot result seeds are untouched, which is why a retried job remains
//! bit-identical to a fault-free run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use quipper_exec::{Backend, Capabilities, CircuitProfile, EngineConfig, ExecError, PreparedShots};
use quipper_trace::names;

use crate::unit_draw;

/// Fault-injection parameters.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability that a shot attempt fails with a transient fault.
    pub fail_prob: f64,
    /// Probability that a (non-faulted) shot is delayed by `spike`.
    pub spike_prob: f64,
    /// The injected latency spike.
    pub spike: Duration,
    /// Seed for the deterministic draw sequence.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            fail_prob: 0.0,
            spike_prob: 0.0,
            spike: Duration::from_millis(1),
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A config that only injects transient failures.
    pub fn failing(fail_prob: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            fail_prob,
            seed,
            ..FaultConfig::default()
        }
    }
}

/// A [`Backend`] wrapper injecting transient faults and latency spikes in
/// front of an inner backend. Routing is transparent: the wrapper reports
/// the inner backend's name, capabilities, and admission decisions.
pub struct FaultInjector {
    inner: Arc<dyn Backend>,
    config: FaultConfig,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Wraps one backend.
    pub fn new(inner: Arc<dyn Backend>, config: FaultConfig) -> FaultInjector {
        FaultInjector {
            inner,
            config,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Wraps every default backend of `engine_config`, giving each wrapper
    /// a distinct seed stream. The result slots straight into
    /// [`Engine::with_backends`](quipper_exec::Engine::with_backends).
    pub fn wrap_default_backends(
        engine_config: &EngineConfig,
        config: FaultConfig,
    ) -> Vec<Arc<dyn Backend>> {
        quipper_exec::Engine::default_backends(engine_config)
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                let per_backend = FaultConfig {
                    seed: config.seed.wrapping_add(0x5151_0000 + i as u64),
                    ..config
                };
                Arc::new(FaultInjector::new(inner, per_backend)) as Arc<dyn Backend>
            })
            .collect()
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl Backend for FaultInjector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn admit(&self, profile: &CircuitProfile) -> Result<(), String> {
        self.inner.admit(profile)
    }

    fn prepare<'a>(
        &'a self,
        plan: &'a quipper_exec::Plan,
        inputs: &[bool],
    ) -> Result<Box<dyn PreparedShots + 'a>, ExecError> {
        let inner = self.inner.prepare(plan, inputs)?;
        Ok(Box::new(Faulty {
            injector: self,
            inner,
        }))
    }

    fn make_lifter(
        &self,
        seed: u64,
    ) -> Option<std::rc::Rc<std::cell::RefCell<dyn quipper::Lifter>>> {
        self.inner.make_lifter(seed)
    }
}

/// A prepared job behind a [`FaultInjector`]: every shot first draws its
/// fault and spike.
struct Faulty<'a> {
    injector: &'a FaultInjector,
    inner: Box<dyn PreparedShots + 'a>,
}

impl PreparedShots for Faulty<'_> {
    fn shot(&self, seed: u64) -> Result<Vec<bool>, ExecError> {
        let injector = self.injector;
        let n = injector.draws.fetch_add(1, Ordering::Relaxed);
        let draw = unit_draw(injector.config.seed ^ n.wrapping_mul(2));
        if draw < injector.config.fail_prob {
            let k = injector.injected.fetch_add(1, Ordering::Relaxed) + 1;
            quipper_trace::count(names::SERVE_FAULTS_INJECTED, 1);
            return Err(ExecError::Transient {
                backend: injector.inner.name(),
                detail: format!("injected fault #{k}"),
            });
        }
        if unit_draw(injector.config.seed ^ n.wrapping_mul(2).wrapping_add(1))
            < injector.config.spike_prob
        {
            std::thread::sleep(injector.config.spike);
        }
        self.inner.shot(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quipper::{Circ, Qubit};
    use quipper_exec::{ClassicalBackend, Engine, Job};

    fn parity() -> quipper_circuit::BCircuit {
        Circ::build(
            &(vec![false; 2], false),
            |c, (xs, t): (Vec<Qubit>, Qubit)| {
                for &x in &xs {
                    c.cnot(t, x);
                }
                let ms: Vec<_> = xs.into_iter().map(|x| c.measure(x)).collect();
                (ms, c.measure(t))
            },
        )
    }

    #[test]
    fn injects_transient_faults_at_roughly_the_configured_rate() {
        let injector =
            FaultInjector::new(Arc::new(ClassicalBackend), FaultConfig::failing(0.25, 99));
        let engine = Engine::with_backends(EngineConfig::default(), vec![]);
        let plan = {
            // Compile through a throwaway engine's cache to get a Plan.
            let bc = parity();
            let _ = &engine;
            quipper_exec::PlanCache::new()
                .get_or_compile(&bc)
                .unwrap()
                .0
        };
        let prepared = injector.prepare(&plan, &[true, false, false]).unwrap();
        let mut faults = 0;
        for shot in 0..400 {
            match prepared.shot(shot) {
                Ok(bits) => assert_eq!(bits, vec![true, false, true]),
                Err(e) => {
                    assert!(e.is_transient(), "unexpected error {e}");
                    faults += 1;
                }
            }
        }
        assert_eq!(faults, injector.injected());
        // 400 draws at p = 0.25: the seeded sequence lands well inside
        // (50, 150); exact value pinned by the seed.
        assert!((50..150).contains(&faults), "faults = {faults}");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let injector =
                FaultInjector::new(Arc::new(ClassicalBackend), FaultConfig::failing(0.3, 1234));
            let plan = quipper_exec::PlanCache::new()
                .get_or_compile(&parity())
                .unwrap()
                .0;
            let prepared = injector.prepare(&plan, &[false, false, false]).unwrap();
            (0..64)
                .map(|shot| prepared.shot(shot).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wrapped_engine_still_routes_and_runs() {
        let config = EngineConfig::default();
        let backends = FaultInjector::wrap_default_backends(&config, FaultConfig::failing(0.0, 0));
        let engine = Engine::with_backends(config, backends);
        let bc = parity();
        let result = engine
            .run(&Job::new(&bc).inputs(vec![true, true, false]).shots(20))
            .unwrap();
        assert_eq!(result.report.backend, "classical");
        assert_eq!(result.histogram.len(), 1);
    }
}
