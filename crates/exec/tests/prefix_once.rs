//! The engine prepares each job once: a state-vector job's measurement-free
//! prefix runs a single time however many shots follow, so the process-wide
//! kernel counters grow per job, not per shot.
//!
//! Its own test binary: the counters are process-wide, and no other test
//! may run kernels while one reads them.

use quipper::{Circ, Qubit};
use quipper_exec::{Engine, EngineConfig, Job};
use quipper_trace::names;

#[test]
fn eight_shots_run_the_prefix_once() {
    // Non-Clifford, wide enough for window segments, measured only at the
    // end: the whole simulation is prefix.
    let bc = Circ::build(&vec![false; 8], |c, qs: Vec<Qubit>| {
        for _ in 0..3 {
            for &q in &qs {
                c.hadamard(q);
                c.gate_t(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[1], w[0]);
            }
        }
        c.measure(qs)
    });
    let engine = Engine::with_config(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let tracer = quipper_trace::tracer();
    tracer.set_enabled(true);
    let windows = || tracer.metrics().counter(names::KERNEL_WINDOWS);
    let mut deltas = Vec::new();
    for shots in [1, 8] {
        let job = Job::new(&bc).inputs(vec![false; 8]).shots(shots);
        let before = windows();
        let result = engine.run(&job).unwrap();
        assert_eq!(result.report.backend, "statevec");
        deltas.push(windows() - before);
    }
    tracer.set_enabled(false);
    assert!(deltas[0] > 0, "the prefix should run windowed kernels");
    assert_eq!(deltas[1], deltas[0], "8 shots must not re-run the prefix");
}
