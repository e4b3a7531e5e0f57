//! The workloads and the requests they send, all derived from the seed.

use std::path::Path;
use std::sync::Arc;

use quipper::{Circ, GateName, Qubit};
use quipper_circuit::{BCircuit, WireType};
use quipper_serve::catalog::Catalog;
use quipper_trace::escape_into;

use crate::util::{derive, Rng};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeSmall,
    ServeCompile,
    ServeSv20,
    Generate,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve-small" => Workload::ServeSmall,
            "serve-compile" => Workload::ServeCompile,
            "serve-sv20" => Workload::ServeSv20,
            "generate" => Workload::Generate,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::ServeCompile => "serve-compile",
            Workload::ServeSv20 => "serve-sv20",
            Workload::Generate => "generate",
        }
    }
}

/// Catalog circuits `serve-small` submits by name. The catalog's
/// `parity4` is left out: it ends with live qubits, which the engine
/// refuses to sample.
pub const CATALOG_JOBS: [&str; 5] = ["ghz3", "ghz5", "grover3", "qft4", "teleportation"];

/// Tenants requests are spread over, round-robin. With the default quota
/// (1 000-token burst, 100 tokens/s refill, 1 + shots/1000 tokens a job),
/// 64 tenants sustain 6 400 jobs/s and absorb a 64 000-job burst, so no
/// rate this client can reach is ever refused.
const TENANTS: u64 = 64;

/// Seed streams: measured jobs, warm-up jobs, tenant names, oracle sample.
const STREAM_JOB: u64 = 1;
const STREAM_WARM: u64 = 2;
const STREAM_TENANT: u64 = 3;
pub const STREAM_SAMPLE: u64 = 4;

/// Where a job's circuit comes from.
#[derive(Clone)]
pub enum Source {
    Catalog(&'static str),
    Qasm(Arc<String>),
}

/// One generated job: everything the submit line says.
#[derive(Clone)]
pub struct JobSpec {
    pub source: Source,
    pub shots: u64,
    pub seed: u64,
    pub tenant: String,
    /// The submit request line, newline included.
    pub line: String,
}

impl JobSpec {
    fn new(source: Source, shots: u64, seed: u64, tenant: String) -> JobSpec {
        let mut line = String::from("{\"op\":\"submit\",");
        match &source {
            Source::Catalog(name) => {
                line.push_str("\"circuit\":\"");
                line.push_str(name);
            }
            Source::Qasm(text) => {
                line.push_str("\"qasm\":\"");
                escape_into(&mut line, text);
            }
        }
        line.push_str(&format!(
            "\",\"tenant\":\"{tenant}\",\"shots\":{shots},\"seed\":{seed}}}\n"
        ));
        JobSpec {
            source,
            shots,
            seed,
            tenant,
            line,
        }
    }

    /// Builds the circuit the server builds for this job.
    pub fn circuit(&self, catalog: &Catalog) -> Result<Arc<BCircuit>, String> {
        match &self.source {
            Source::Catalog(name) => catalog
                .get(name)
                .ok_or_else(|| format!("no catalog circuit {name}")),
            Source::Qasm(text) => quipper_qasm::compile(text)
                .map(Arc::new)
                .map_err(|d| format!("qasm rejected: {d:?}")),
        }
    }

    pub fn is_qasm(&self) -> bool {
        matches!(self.source, Source::Qasm(_))
    }
}

/// A serving traffic mix: its connections, how many jobs each keeps
/// outstanding, and its seeded request stream.
pub struct Mix {
    pub workload: Workload,
    pub seed: u64,
    pub connections: usize,
    pub outstanding: usize,
    /// Jobs whose histograms the output oracle checks per run.
    pub oracle_samples: usize,
    /// File names of the QASM fixtures `serve-small` sends.
    pub fixture_names: Vec<String>,
    tenants: Vec<String>,
    fixtures: Vec<Arc<String>>,
    sv20: Option<Arc<String>>,
}

impl Mix {
    /// Builds the mix; `root` is the repository checkout (for the QASM
    /// fixtures `serve-small` sends).
    pub fn new(workload: Workload, seed: u64, root: &Path) -> Result<Mix, String> {
        let tenants = (0..TENANTS)
            .map(|i| format!("t{:016x}", derive(seed, STREAM_TENANT, i)))
            .collect();
        let (connections, outstanding, oracle_samples) = match workload {
            Workload::ServeSmall => (2, 4, 8),
            Workload::ServeCompile => (2, 2, 4),
            Workload::ServeSv20 => (2, 1, 1),
            Workload::Generate => return Err("generate is not a serving mix".into()),
        };
        let (fixture_names, fixtures) = if workload == Workload::ServeSmall {
            qasm_fixtures(root)?.into_iter().unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        let sv20 = (workload == Workload::ServeSv20)
            .then(|| quipper_circuit::qasm::to_qasm(&mixed_workload(20, 4)).map(Arc::new))
            .transpose()
            .map_err(|e| format!("mixed-20q does not export: {e}"))?;
        Ok(Mix {
            workload,
            seed,
            connections,
            outstanding,
            oracle_samples,
            fixture_names,
            tenants,
            fixtures,
            sv20,
        })
    }

    /// Measured job `index`.
    pub fn job(&self, index: u64) -> JobSpec {
        self.make(STREAM_JOB, index, index % 2 == 1)
    }

    /// Jobs sent before the measured window: every distinct circuit once
    /// for the cache-hit mixes, a few throwaway programs for `serve-compile`.
    pub fn warmup(&self) -> Vec<JobSpec> {
        match self.workload {
            Workload::ServeSmall => {
                let tenant = &self.tenants[0];
                CATALOG_JOBS
                    .iter()
                    .map(|name| Source::Catalog(name))
                    .chain(self.fixtures.iter().map(|q| Source::Qasm(Arc::clone(q))))
                    .enumerate()
                    .map(|(i, s)| {
                        JobSpec::new(
                            s,
                            64,
                            derive(self.seed, STREAM_WARM, i as u64),
                            tenant.clone(),
                        )
                    })
                    .collect()
            }
            Workload::ServeCompile => (0..self.connections as u64 * 2)
                .map(|i| self.make(STREAM_WARM, i, false))
                .collect(),
            // One single-shot job per connection compiles and caches the plan.
            _ => (0..self.connections as u64)
                .map(|i| {
                    let job = self.make(STREAM_WARM, i, false);
                    JobSpec::new(job.source, 1, job.seed, job.tenant)
                })
                .collect(),
        }
    }

    fn make(&self, stream: u64, index: u64, odd: bool) -> JobSpec {
        let seed = derive(self.seed, stream, index);
        let mut rng = Rng::new(seed);
        let tenant = self.tenants[(index % TENANTS) as usize].clone();
        match self.workload {
            Workload::ServeSmall => {
                let source = if odd {
                    Source::Qasm(Arc::clone(&self.fixtures[rng.below(self.fixtures.len())]))
                } else {
                    Source::Catalog(CATALOG_JOBS[rng.below(CATALOG_JOBS.len())])
                };
                JobSpec::new(source, 64, job_seed(&mut rng), tenant)
            }
            Workload::ServeCompile => {
                let text = random_qasm(&mut rng, 10, 2000);
                JobSpec::new(Source::Qasm(Arc::new(text)), 4, job_seed(&mut rng), tenant)
            }
            _ => {
                let text = Arc::clone(self.sv20.as_ref().expect("sv20 mix has its program"));
                JobSpec::new(Source::Qasm(text), 8, job_seed(&mut rng), tenant)
            }
        }
    }
}

/// A job seed the wire carries exactly (JSON numbers are doubles).
fn job_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// `tests/golden/*.qasm` and `tests/qasm_corpus/ok_*.qasm` that measure
/// every qubit, in name order. The others end with live qubits, which the
/// engine rightly refuses to sample.
fn qasm_fixtures(root: &Path) -> Result<Vec<(String, Arc<String>)>, String> {
    let mut paths = Vec::new();
    for (dir, prefix) in [("tests/golden", ""), ("tests/qasm_corpus", "ok_")] {
        let entries = std::fs::read_dir(root.join(dir)).map_err(|e| format!("{dir}: {e}"))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(prefix) && name.ends_with(".qasm") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut fixtures = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let measured = quipper_qasm::compile(&text)
            .map(|bc| {
                bc.main
                    .outputs
                    .iter()
                    .all(|&(_, t)| t == WireType::Classical)
            })
            .unwrap_or(false);
        if measured {
            let name = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .display()
                .to_string();
            fixtures.push((name, Arc::new(text)));
        }
    }
    if fixtures.is_empty() {
        return Err("no fully measured QASM fixtures under tests/".into());
    }
    Ok(fixtures)
}

/// A seeded random OpenQASM 2.0 program: `gates` gates from
/// `h t tdg s rz cx cz` on `qubits` qubits, then every qubit measured.
pub fn random_qasm(rng: &mut Rng, qubits: usize, gates: usize) -> String {
    let mut out =
        format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{qubits}];\ncreg c[{qubits}];\n");
    for _ in 0..gates {
        let a = rng.below(qubits);
        match rng.below(7) {
            0 => out.push_str(&format!("h q[{a}];\n")),
            1 => out.push_str(&format!("t q[{a}];\n")),
            2 => out.push_str(&format!("tdg q[{a}];\n")),
            3 => out.push_str(&format!("s q[{a}];\n")),
            4 => {
                let angle = (rng.below(20_000) as f64 - 10_000.0) / 3_183.0;
                out.push_str(&format!("rz({angle:.4}) q[{a}];\n"));
            }
            k => {
                let b = (a + 1 + rng.below(qubits - 1)) % qubits;
                let gate = if k == 5 { "cx" } else { "cz" };
                out.push_str(&format!("{gate} q[{a}],q[{b}];\n"));
            }
        }
    }
    out.push_str("measure q -> c;\n");
    out
}

/// The `mixed-20q` circuit of the `opt_gate_counts` bench (`n` qubits,
/// `layers` layers): mergeable rotation runs, Hadamard pairs around
/// diagonal gates, phase-polynomial T terms, every qubit measured.
pub fn mixed_workload(n: usize, layers: usize) -> BCircuit {
    Circ::build(&vec![false; n], |c, qs: Vec<Qubit>| {
        for layer in 0..layers {
            for (i, &q) in qs.iter().enumerate() {
                c.hadamard(q);
                c.rot("exp(-i%Z)", 0.11 * (i + 1) as f64, q);
                c.rot("exp(-i%Z)", 0.07, q);
                c.rot("exp(-i%Z)", -0.07, q);
                c.hadamard(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[1], w[0]);
            }
            let (a, b) = (qs[layer % n], qs[(layer + 1) % n]);
            c.gate_t(a);
            c.gate_ctrl(GateName::Z, a, &b);
            c.gate_inv(GateName::T, a);
            c.gate_t(b);
            c.cnot(b, a);
            c.gate_t(b);
            c.cnot(b, a);
            c.gate_t(b);
        }
        qs.into_iter().map(|q| c.measure(q)).collect::<Vec<_>>()
    })
}
