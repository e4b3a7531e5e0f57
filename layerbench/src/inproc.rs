//! The in-process half of the traced run: replays jobs through the same
//! library entry points the server calls, timing each from here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use quipper_circuit::flatten::inline_all;
use quipper_circuit::validate::validate;
use quipper_exec::{Engine, EngineConfig, Job, OptLevel};
use quipper_serve::catalog::Catalog;
use quipper_serve::protocol::handle_line;
use quipper_serve::{QuotaPolicy, Service, ServiceConfig, TenantQuotas};
use quipper_sim::{fuse_circuit, StateVecConfig};
use quipper_trace::{parse_json, Json};

use crate::util::{mean, ratio, us};
use crate::workload::JobSpec;

/// Per-job timings of one replayed job, in microseconds.
#[derive(Default)]
struct JobTimes {
    qasm: bool,
    source_bytes: usize,
    decode_submit: f64,
    decode_poll: f64,
    ingest: f64,
    quota: f64,
    plan: f64,
    validate: f64,
    optimize: f64,
    lint: f64,
    inline: f64,
    fuse: f64,
    handle_submit: f64,
    handle_poll: Option<f64>,
    handle_result: f64,
    execute: f64,
    shots: u64,
    gates_before: f64,
    gates_after: f64,
    profile: [f64; 5],
}

/// Means over the replayed jobs (microseconds unless named otherwise).
pub struct InProc {
    pub jobs: usize,
    pub refused: u64,
    pub decode_submit_us: f64,
    pub decode_poll_us: f64,
    pub catalog_get_us: f64,
    pub qasm_compile_us: f64,
    pub qasm_mb_per_s: f64,
    pub quota_us: f64,
    pub plan_us: f64,
    pub validate_us: f64,
    pub optimize_us: f64,
    pub lint_us: f64,
    pub inline_us: f64,
    pub fuse_us: f64,
    pub gates_removed_share: f64,
    /// `handle_line` on a submit line, by source kind (catalog, qasm).
    pub handle_submit_us: [f64; 2],
    /// `handle_line` on a `result` poll of an unfinished job.
    pub handle_poll_us: f64,
    /// `handle_line` on `result` for a completed job.
    pub handle_result_us: f64,
    pub execute_ms_per_job: f64,
    pub execute_us_per_shot: f64,
    /// Sampled window time by class: diagonal, permutation, general, mat4,
    /// as shares of all sampled time.
    pub profile_share: [f64; 4],
}

impl InProc {
    /// In-process time of the pre-admission work on the connection thread
    /// for a job of this kind: decode, ingest and quota.
    pub fn pre_admit_us(&self, qasm: bool) -> f64 {
        self.decode_submit_us
            + if qasm {
                self.qasm_compile_us
            } else {
                self.catalog_get_us
            }
            + self.quota_us
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, us(start.elapsed()))
}

/// Replays `warmup` untimed, then `jobs` in order (at least one, then
/// until `budget` is spent), with the tracer and the window profiler on.
pub fn replay(warmup: &[JobSpec], jobs: &[JobSpec], budget: Duration) -> Result<InProc, String> {
    quipper_trace::tracer().set_enabled(true);
    let config = EngineConfig {
        statevec: StateVecConfig {
            profile: true,
            ..StateVecConfig::default()
        },
        ..EngineConfig::default()
    };
    let service = Service::start(Engine::with_config(config), ServiceConfig::default());
    let catalog = Catalog::new();
    let quotas = TenantQuotas::new(QuotaPolicy::default());
    let handle = |line: &str| -> Result<Json, String> {
        let handled = handle_line(&service, &catalog, line);
        parse_json(&handled.response).map_err(|e| format!("bad in-process response: {e}"))
    };
    for spec in warmup {
        handle(&spec.line)?;
    }
    service.drain();

    let engine = service.engine();
    let level = engine.opt_level();
    let started = Instant::now();
    let mut times: Vec<JobTimes> = Vec::new();
    let mut refused = 0;
    for spec in jobs {
        if !times.is_empty() && started.elapsed() > budget {
            break;
        }
        let mut t = JobTimes {
            qasm: spec.is_qasm(),
            shots: spec.shots,
            ..JobTimes::default()
        };
        t.decode_submit = timed(|| parse_json(spec.line.trim())).1;
        let (circuit, ingest) = timed(|| spec.circuit(&catalog));
        let circuit = circuit?;
        t.ingest = ingest;
        if let crate::workload::Source::Qasm(text) = &spec.source {
            t.source_bytes = text.len();
        }
        let cost = quotas.policy().cost(spec.shots);
        let (acquired, quota) = timed(|| quotas.try_acquire(&spec.tenant, cost));
        t.quota = quota;
        refused += u64::from(acquired.is_err());

        let misses = engine.plan_cache().misses();
        let (plan, plan_us) = timed(|| engine.plan_with(&circuit, level));
        let plan = plan.map_err(|e| format!("plan: {e}"))?;
        t.plan = plan_us;
        if engine.plan_cache().misses() > misses {
            compile_children(&circuit, level, &mut t)?;
        }
        if let Some(report) = &plan.opt {
            t.gates_before = report.gates_before() as f64;
            t.gates_after = report.gates_after() as f64;
        }

        let (submitted, handle_submit) = timed(|| handle_line(&service, &catalog, &spec.line));
        t.handle_submit = handle_submit;
        let id = parse_json(&submitted.response)
            .map_err(|e| format!("bad in-process response: {e}"))?
            .get("id")
            .and_then(Json::as_num)
            .ok_or("in-process submit was refused")? as u64;
        let poll = format!("{{\"op\":\"result\",\"id\":{id}}}");
        t.decode_poll = timed(|| parse_json(&poll)).1;
        let (first, handle_poll) = timed(|| handle_line(&service, &catalog, &poll));
        if first.response.contains(", no result") {
            t.handle_poll = Some(handle_poll);
        }
        service.drain();
        let (result, handle_result) = timed(|| handle_line(&service, &catalog, &poll));
        if !result.response.starts_with("{\"ok\":true") {
            return Err(format!("in-process job failed: {}", result.response));
        }
        t.handle_result = handle_result;

        let inputs = vec![false; circuit.main.inputs.len()];
        let job = Job::new(&circuit)
            .inputs(inputs)
            .shots(spec.shots)
            .seed(spec.seed);
        let (run, execute) = timed(|| engine.run_sequential(&job));
        let run = run.map_err(|e| format!("in-process run: {e}"))?;
        t.execute = execute;
        if let Some(p) = run.report.profile {
            t.profile = [
                p.diagonal_ns as f64,
                p.permutation_ns as f64,
                p.general_ns as f64,
                p.mat4_ns as f64,
                p.sampled_ns as f64,
            ];
        }
        times.push(t);
    }
    service.shutdown();
    quipper_trace::tracer().set_enabled(false);

    let avg = |f: &dyn Fn(&JobTimes) -> f64| mean(&times.iter().map(f).collect::<Vec<_>>());
    let avg_kind = |qasm: bool, f: &dyn Fn(&JobTimes) -> f64| {
        mean(
            &times
                .iter()
                .filter(|t| t.qasm == qasm)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: &dyn Fn(&JobTimes) -> f64| times.iter().map(f).sum::<f64>();
    let qasm_us = sum(&|t| if t.qasm { t.ingest } else { 0.0 });
    let polls: Vec<f64> = times.iter().filter_map(|t| t.handle_poll).collect();
    let sampled = sum(&|t| t.profile[4]);
    Ok(InProc {
        jobs: times.len(),
        refused,
        decode_submit_us: avg(&|t| t.decode_submit),
        decode_poll_us: avg(&|t| t.decode_poll),
        catalog_get_us: avg_kind(false, &|t| t.ingest),
        qasm_compile_us: avg_kind(true, &|t| t.ingest),
        qasm_mb_per_s: ratio(sum(&|t| t.source_bytes as f64), qasm_us),
        quota_us: avg(&|t| t.quota),
        plan_us: avg(&|t| t.plan),
        validate_us: avg(&|t| t.validate),
        optimize_us: avg(&|t| t.optimize),
        lint_us: avg(&|t| t.lint),
        inline_us: avg(&|t| t.inline),
        fuse_us: avg(&|t| t.fuse),
        gates_removed_share: ratio(
            sum(&|t| t.gates_before - t.gates_after),
            sum(&|t| t.gates_before),
        ),
        handle_submit_us: [
            avg_kind(false, &|t| t.handle_submit),
            avg_kind(true, &|t| t.handle_submit),
        ],
        handle_poll_us: mean(&polls),
        handle_result_us: avg(&|t| t.handle_result),
        execute_ms_per_job: avg(&|t| t.execute) / 1e3,
        execute_us_per_shot: ratio(sum(&|t| t.execute), sum(&|t| t.shots as f64)),
        profile_share: [0, 1, 2, 3].map(|k| ratio(sum(&|t| t.profile[k]), sampled)),
    })
}

/// Times the stages of `Plan::compile_with` one by one, in its order.
fn compile_children(
    bc: &Arc<quipper_circuit::BCircuit>,
    level: OptLevel,
    t: &mut JobTimes,
) -> Result<(), String> {
    let (checked, validate_us) = timed(|| validate(&bc.db, &bc.main));
    checked.map_err(|e| format!("validate: {e}"))?;
    t.validate = validate_us;
    let optimized = if level == OptLevel::Off {
        (**bc).clone()
    } else {
        let ((optimized, _), optimize_us) = timed(|| quipper_opt::optimize(bc, level));
        t.optimize = optimize_us;
        let (checked, validate_us) = timed(|| validate(&optimized.db, &optimized.main));
        checked.map_err(|e| format!("validate optimized: {e}"))?;
        t.validate += validate_us;
        optimized
    };
    t.lint = timed(|| quipper_lint::lint(&optimized)).1;
    let (flat, inline_us) = timed(|| inline_all(&optimized.db, &optimized.main));
    let flat = flat.map_err(|e| format!("inline: {e}"))?;
    t.inline = inline_us;
    t.fuse = timed(|| fuse_circuit(&flat)).1;
    Ok(())
}
