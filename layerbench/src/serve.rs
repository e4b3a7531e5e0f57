//! The serving workloads: a spawned `quipper-served` driven over loopback
//! TCP, with output oracles, workload self-checks and, in the traced run,
//! the per-layer breakdown.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use quipper_exec::{Engine, EngineConfig, ExecError, Job, OptLevel};
use quipper_serve::catalog::Catalog;
use quipper_sim::StateVecConfig;
use quipper_trace::{parse_json, Json};

use crate::client::{drive, ConnLog, JobRec, LineKind, Outcome, ServerProc};
use crate::inproc::{self, InProc};
use crate::util::{mean, median, ms, ratio, tail, us, Rng};
use crate::workload::{Mix, Workload, STREAM_SAMPLE};
use crate::{Report, Settings};

/// Server spawns per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One measured window against one server.
struct Pass {
    start: Instant,
    logs: Vec<ConnLog>,
    /// `stats` deltas over the window.
    completed: f64,
    compiles: f64,
    rejected: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
}

impl Pass {
    fn jobs(&self) -> impl Iterator<Item = &JobRec> {
        self.logs.iter().flat_map(|l| l.jobs.iter())
    }

    fn completed_jobs(&self) -> impl Iterator<Item = (&JobRec, &str)> {
        self.jobs().filter_map(|j| match &j.outcome {
            Outcome::Completed { response } => Some((j, response.as_str())),
            _ => None,
        })
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.completed_jobs()
            .map(|(j, _)| ms(j.latency()))
            .collect()
    }

    fn jobs_per_s(&self) -> f64 {
        self.logs.iter().map(|l| l.rate(self.start)).sum()
    }

    /// Share of jobs whose plan came from the cache: 1 − compiles / jobs.
    fn cache_hit_ratio(&self) -> f64 {
        1.0 - ratio(self.compiles, self.completed)
    }
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// Warms `server` up with the mix's warm-up jobs, then measures one window.
fn measure(mix: &Mix, server: &ServerProc, window: Duration) -> Result<Pass, String> {
    let warmup = mix.warmup();
    let (_, logs) = drive(
        server.addr,
        mix.connections,
        warmup.len(),
        Some(warmup.len() as u64),
        Duration::MAX,
        &|i| warmup[i as usize].clone(),
    )?;
    for job in logs.iter().flat_map(|l| l.jobs.iter()) {
        match &job.outcome {
            Outcome::Completed { .. } => {}
            Outcome::Refused(r) | Outcome::Failed(r) => {
                return Err(format!("warm-up job {} did not complete: {r}", job.index))
            }
        }
    }
    let mut conn = crate::client::Conn::connect(server.addr)?;
    let before = conn.call_ok("{\"op\":\"stats\"}\n")?;
    let cpu_before =
        crate::util::process_cpu_ns(server.pid()).ok_or("cannot read server CPU time")?;
    let (start, logs) = drive(
        server.addr,
        mix.connections,
        mix.outstanding,
        None,
        window,
        &|i| mix.job(i),
    )?;
    let cpu_after =
        crate::util::process_cpu_ns(server.pid()).ok_or("cannot read server CPU time")?;
    let after = conn.call_ok("{\"op\":\"stats\"}\n")?;
    let delta = |key: &str| stat(&after, key) - stat(&before, key);
    Ok(Pass {
        start,
        logs,
        completed: delta("completed"),
        compiles: delta("engine_cache_misses"),
        rejected: delta("rejected"),
        cpu_ms: (cpu_after - cpu_before) as f64 / 1e6,
        peak_rss_mb: crate::util::peak_rss_mb(server.pid()).ok_or("cannot read server VmHWM")?,
    })
}

/// The served histogram of a `result` response, sorted by outcome.
fn served_histogram(response: &str) -> Option<Vec<(Vec<bool>, u64)>> {
    let json = parse_json(response).ok()?;
    let mut hist = Vec::new();
    for entry in json.get("histogram")?.as_arr()? {
        let bits = entry
            .get("bits")?
            .as_arr()?
            .iter()
            .map(|b| b.as_num() == Some(1.0))
            .collect();
        hist.push((bits, entry.get("count")?.as_num()? as u64));
    }
    hist.sort();
    Some(hist)
}

fn backend_of(response: &str) -> Option<String> {
    let json = parse_json(response).ok()?;
    json.get("backend")?.as_str().map(str::to_string)
}

/// Output oracle: reruns a seeded sample of the completed jobs in-process
/// on the reference path (optimizer off, sequential unfused state-vector
/// kernels) on the backend the server used, and compares histograms.
/// Seeded samples are bit-identical across optimizer levels and kernel
/// paths on one backend, not across backends; when the unoptimized plan is
/// not admitted by the served backend (the optimizer made the circuit
/// Clifford, say) the reference runs the optimized plan on the sequential
/// kernels. Returns (checked, on the optimized plan, mismatches).
fn oracle(mix: &Mix, pass: &Pass, report: &mut Report) -> Result<(u64, u64, u64), String> {
    let mut done: Vec<(&JobRec, &str)> = pass.completed_jobs().collect();
    done.sort_by_key(|(j, _)| j.index);
    let mut rng = Rng::new(crate::util::derive(mix.seed, STREAM_SAMPLE, 0));
    let reference = |opt| {
        Engine::with_config(EngineConfig {
            opt,
            statevec: StateVecConfig::sequential(),
            ..EngineConfig::default()
        })
    };
    let (unoptimized, optimized) = (reference(OptLevel::Off), reference(OptLevel::default()));
    let catalog = Catalog::new();
    let (mut checked, mut fallback, mut wrong) = (0, 0, 0);
    for _ in 0..mix.oracle_samples.min(done.len()) {
        let (job, response) = done.swap_remove(rng.below(done.len()));
        let spec = mix.job(job.index);
        let circuit = spec.circuit(&catalog)?;
        let backend = backend_of(response).ok_or("result names no backend")?;
        let inputs = vec![false; circuit.main.inputs.len()];
        let run = Job::new(&circuit)
            .inputs(inputs)
            .shots(spec.shots)
            .seed(spec.seed)
            .on_backend(&backend);
        let result = match unoptimized.run(&run) {
            Err(ExecError::NoBackend { .. }) => {
                fallback += 1;
                optimized.run(&run)
            }
            other => other,
        };
        let mut expected = result
            .map_err(|e| format!("oracle run of job {}: {e}", job.index))?
            .histogram;
        expected.sort();
        checked += 1;
        if served_histogram(response).as_ref() != Some(&expected) {
            wrong += 1;
            report.note(format!(
                "oracle mismatch on job {} (id {}): served {response}",
                job.index, job.id
            ));
        }
    }
    Ok((checked, fallback, wrong))
}

/// Counts a pass's failures and runs its self-checks and, with `oracle`,
/// its output oracle.
fn check(mix: &Mix, pass: &Pass, oracle_on: bool, report: &mut Report) -> Result<(), String> {
    let mut refused = 0;
    let mut failed = 0;
    for job in pass.jobs() {
        match &job.outcome {
            Outcome::Completed { .. } => {}
            Outcome::Refused(r) => {
                refused += 1;
                report.note(format!("job {} refused: {r}", job.index));
            }
            Outcome::Failed(r) => {
                failed += 1;
                report.note(format!("job {} failed: {r}", job.index));
            }
        }
    }
    let (checked, fallback, wrong) = if oracle_on {
        oracle(mix, pass, report)?
    } else {
        (0, 0, 0)
    };
    report.attempted += pass.jobs().count() as u64;
    report.failed += refused + failed + wrong;
    if oracle_on {
        report.line(format!(
            "oracle: {checked} sampled job(s) rerun on the reference path ({fallback} on the optimized plan), {wrong} mismatch(es)"
        ));
    }

    let hit = pass.cache_hit_ratio();
    let expect_hit = match mix.workload {
        Workload::ServeCompile => 0.0,
        _ => 1.0,
    };
    report.check(
        format!("plan.cache_hit_ratio = {hit:.4} (want {expect_hit})"),
        (hit - expect_hit).abs() < 1e-9,
    );
    report.check(
        format!(
            "refusals: {refused} at the client, {} in server stats (want 0)",
            pass.rejected
        ),
        refused == 0 && pass.rejected == 0.0,
    );
    if mix.workload == Workload::ServeSv20 {
        let (mut statevec, mut total) = (0, 0);
        for (_, response) in pass.completed_jobs() {
            total += 1;
            statevec += u64::from(backend_of(response).as_deref() == Some("statevec"));
        }
        report.check(
            format!("routed to statevec: {statevec}/{total} (want all)"),
            statevec == total,
        );
    }
    Ok(())
}

/// Runs one serving workload and fills `report`.
pub fn run(workload: Workload, settings: &Settings, report: &mut Report) -> Result<(), String> {
    let mix = Mix::new(workload, settings.seed, &settings.root)?;
    let window = Duration::from_secs(settings.seconds);
    report.line(format!(
        "mix: {} connection(s) x {} outstanding, closed loop; oracle samples {}",
        mix.connections, mix.outstanding, mix.oracle_samples
    ));
    if !mix.fixture_names.is_empty() {
        report.line(format!("qasm fixtures: {}", mix.fixture_names.join(" ")));
    }
    if settings.trace {
        return traced(&mix, settings, report);
    }
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        let (spawned, setup) = ServerProc::spawn(&settings.served, &[])?;
        setups.push(setup.as_secs_f64());
        server = Some(spawned);
    }
    let server = server.expect("at least one server spawned");
    let pass = measure(&mix, &server, window)?;
    server.shutdown()?;
    check(&mix, &pass, true, report)?;

    let latencies = pass.latencies_ms();
    let t = tail(&latencies);
    report.samples(latencies.len(), &t);
    let completed = latencies.len() as f64;
    let m = &mut report.metrics;
    m.set("jobs_per_s", pass.jobs_per_s(), "1/s");
    m.set("latency_p50_ms", median(&latencies), "ms");
    m.set("latency_tail_ms", t.value, "ms");
    m.set("server_cpu_ms_per_job", ratio(pass.cpu_ms, completed), "ms");
    m.set("peak_rss_mb", pass.peak_rss_mb, "MB");
    m.set("setup_s", median(&setups), "s");
    Ok(())
}

/// One job's flight timeline: span durations by phase, and the offset of
/// its terminal stamp from admission (all microseconds).
struct Flight {
    spans: BTreeMap<String, f64>,
    total: f64,
}

fn flights(server: &ServerProc) -> Result<BTreeMap<u64, Flight>, String> {
    let mut conn = crate::client::Conn::connect(server.addr)?;
    let response = conn.call_ok("{\"op\":\"flight\",\"recent\":1024}\n")?;
    let mut out = BTreeMap::new();
    for f in response
        .get("flights")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let Some(id) = f.get("id").and_then(Json::as_num) else {
            continue;
        };
        // Durations are taken between stamps in time order. The service
        // stamps `queue` after the push that lets a worker start, so under
        // load that stamp can land after the worker's `compile`, `shots`,
        // or later stamps; the job was queued no later than its pickup.
        let mut events: Vec<(&str, f64)> = f
            .get("events")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                let phase = e.get("phase").and_then(Json::as_str).unwrap_or("?");
                (phase, e.get("at_us").and_then(Json::as_num).unwrap_or(0.0))
            })
            .collect();
        let pickup = events
            .iter()
            .filter(|e| e.0 == "compile" || e.0 == "coalesce")
            .map(|e| e.1)
            .fold(f64::INFINITY, f64::min);
        for e in events.iter_mut().filter(|e| e.0 == "queue") {
            e.1 = e.1.min(pickup);
        }
        events.sort_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| (a.0 != "queue").cmp(&(b.0 != "queue")))
        });
        let total = events.last().map_or(0.0, |e| e.1);
        let mut spans = BTreeMap::new();
        for (i, &(phase, at)) in events.iter().enumerate() {
            let end = events.get(i + 1).map_or(at, |e| e.1);
            // Waiting on another job's compile is the compile layer, and
            // retried attempts are execution.
            let phase = match phase {
                "coalesce" => "compile",
                "retry" => "shots",
                other => other,
            };
            *spans.entry(phase.to_string()).or_insert(0.0) += end - at;
        }
        out.insert(id as u64, Flight { spans, total });
    }
    Ok(out)
}

/// The traced run: an untraced and a traced replay of the same seeded
/// requests over TCP, then an in-process replay timing each layer.
fn traced(mix: &Mix, settings: &Settings, report: &mut Report) -> Result<(), String> {
    let window = Duration::from_secs_f64(settings.seconds as f64 * 0.35);
    let (server, _) = ServerProc::spawn(&settings.served, &[])?;
    let plain = measure(mix, &server, window)?;
    server.shutdown()?;
    let (server, _) = ServerProc::spawn(&settings.served, &["--trace"])?;
    let pass = measure(mix, &server, window)?;
    let flights = flights(&server)?;
    server.shutdown()?;
    check(mix, &plain, false, report)?;
    check(mix, &pass, true, report)?;

    let mut indices: Vec<u64> = pass.completed_jobs().map(|(j, _)| j.index).collect();
    indices.sort_unstable();
    let replay: Vec<_> = indices.iter().map(|&i| mix.job(i)).collect();
    let budget = Duration::from_secs_f64(settings.seconds as f64 * 0.2);
    let ip = inproc::replay(&mix.warmup(), &replay, budget)?;
    report.line(format!(
        "in-process replay: {} job(s); traced TCP replay: {} job(s), {} flight timeline(s)",
        ip.jobs,
        indices.len(),
        flights.len()
    ));
    layers(mix, &plain, &pass, &flights, &ip, report);
    Ok(())
}

/// In-process `handle_line` estimate for one request line.
fn handled_us(ip: &InProc, kind: LineKind, qasm: bool) -> f64 {
    match kind {
        LineKind::Submit => ip.handle_submit_us[usize::from(qasm)],
        LineKind::Poll => ip.handle_poll_us,
        LineKind::Result => ip.handle_result_us,
    }
}

/// Per-layer metrics and the attribution of client-observed latency.
fn layers(
    mix: &Mix,
    plain: &Pass,
    pass: &Pass,
    flights: &BTreeMap<u64, Flight>,
    ip: &InProc,
    report: &mut Report,
) {
    let jobs: Vec<&JobRec> = pass.completed_jobs().map(|(j, _)| j).collect();
    let n = jobs.len() as f64;

    // A job's own request lines: round trip minus the server's in-process
    // handling of the line. The critical-path wire time below also holds
    // the other jobs' lines a job waited behind on its connection.
    let mut rtts = Vec::new();
    let (mut wire_own, mut requests, mut polls, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    for log in &pass.logs {
        for line in &log.lines {
            rtts.push(us(line.rtt));
            wire_own += us(line.rtt) - handled_us(ip, line.kind, mix.job(line.index).is_qasm());
            requests += 1.0;
            polls += f64::from(u8::from(line.kind != LineKind::Submit));
            bytes += line.bytes as f64;
        }
    }

    // Critical path of each job with a flight timeline: the server-side
    // span (admission to terminal stamp) is on it by construction; the
    // in-process pre-admission work and result encode are on it; client
    // idle time after the job finished (waiting for the next scheduled
    // poll) is the residue; the rest is the front door.
    const ROWS: [&str; 9] = [
        "server.wire (front door)",
        "protocol.decode",
        "ingest (qasm/catalog)",
        "quota + admit",
        "queue wait",
        "plan compile",
        "execute (shots)",
        "result poll (decode+encode)",
        "residue (client poll wait)",
    ];
    let mut rows = [0.0; ROWS.len()];
    let (mut total_latency, mut attributed) = (0.0, 0.0);
    let mut queue_waits = Vec::new();
    let mut flight_means: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for j in &jobs {
        let Some(f) = flights.get(&j.id) else {
            continue;
        };
        let latency = us(j.latency());
        let qasm = mix.job(j.index).is_qasm();
        let span = |p: &str| f.spans.get(p).copied().unwrap_or(0.0);
        let pre = ip.pre_admit_us(qasm);
        let done = j.submitted + Duration::from_secs_f64((pre + f.total) / 1e6);
        let idle: f64 = pass.logs[j.conn]
            .idle
            .iter()
            .map(|&(a, b)| {
                let (a, b) = (a.max(done), b.min(j.finished));
                if b > a {
                    us(b - a)
                } else {
                    0.0
                }
            })
            .sum();
        let mut parts = [
            0.0,
            ip.decode_submit_us,
            pre - ip.decode_submit_us - ip.quota_us,
            ip.quota_us + span("admit"),
            span("queue"),
            span("compile"),
            span("shots"),
            ip.handle_result_us,
            idle,
        ];
        parts[0] = latency - parts.iter().sum::<f64>();
        for (row, part) in rows.iter_mut().zip(parts) {
            *row += part;
        }
        total_latency += latency;
        attributed += latency - idle;
        queue_waits.push(span("queue"));
        for p in ["admit", "compile", "shots"] {
            flight_means.entry(p).or_default().push(span(p));
        }
    }
    let traced_jobs = queue_waits.len() as f64;
    let wire_critical = rows[0];
    let p50_traced = median(&pass.latencies_ms());
    let p50_plain = median(&plain.latencies_ms());

    let backend_share = |name: &str| {
        let hits = pass
            .completed_jobs()
            .filter(|(_, r)| backend_of(r).as_deref() == Some(name))
            .count();
        ratio(hits as f64, n)
    };
    let decode_us = ratio(
        (requests - polls) * ip.decode_submit_us + polls * ip.decode_poll_us,
        requests,
    );
    let qt = tail(&queue_waits);
    let m = &mut report.metrics;
    m.set("server.rtt_p50_us", median(&rtts), "us");
    m.set(
        "server.wire_ms_per_job",
        ratio(wire_critical, traced_jobs) / 1e3,
        "ms",
    );
    m.set("server.wire_own_ms_per_job", ratio(wire_own, n) / 1e3, "ms");
    m.set("server.requests_per_job", ratio(requests, n), "count");
    m.set("server.polls_per_job", ratio(polls, n), "count");
    m.set("server.bytes_in_per_job", ratio(bytes, n), "bytes");
    m.set("protocol.decode_us", decode_us, "us");
    m.set("protocol.encode_result_us", ip.handle_result_us, "us");
    m.set("qasm.compile_us", ip.qasm_compile_us, "us");
    m.set("qasm.mb_per_s", ip.qasm_mb_per_s, "MB/s");
    m.set("catalog.get_us", ip.catalog_get_us, "us");
    m.set("quota.acquire_us", ip.quota_us, "us");
    let refused = pass
        .jobs()
        .filter(|j| matches!(j.outcome, Outcome::Refused(_)))
        .count() as u64;
    m.set("quota.refused", (refused + ip.refused) as f64, "count");
    m.set("queue.wait_p50_us", median(&queue_waits), "us");
    m.set("queue.wait_tail_us", qt.value, "us");
    m.set("plan.compile_us", ip.plan_us, "us");
    m.set("plan.validate_us", ip.validate_us, "us");
    m.set("opt.optimize_us", ip.optimize_us, "us");
    m.set("lint.lint_us", ip.lint_us, "us");
    m.set("plan.inline_us", ip.inline_us, "us");
    m.set("sim.fuse_us", ip.fuse_us, "us");
    let children = ip.validate_us + ip.optimize_us + ip.lint_us + ip.inline_us + ip.fuse_us;
    m.set("plan.self_us", ip.plan_us - children, "us");
    m.set("plan.cache_hit_ratio", pass.cache_hit_ratio(), "ratio");
    m.set("opt.gates_removed_share", ip.gates_removed_share, "ratio");
    m.set("engine.execute_ms_per_job", ip.execute_ms_per_job, "ms");
    m.set("engine.execute_us_per_shot", ip.execute_us_per_shot, "us");
    for backend in ["statevec", "stabilizer", "classical"] {
        m.set(
            format!("engine.backend_share.{backend}"),
            backend_share(backend),
            "ratio",
        );
    }
    for (k, class) in ["diagonal", "permutation", "general", "mat4"]
        .iter()
        .enumerate()
    {
        m.set(
            format!("sim.profile.{class}_share"),
            ip.profile_share[k],
            "ratio",
        );
    }
    for (p, name) in [
        ("admit", "flight.admit_us"),
        ("compile", "flight.compile_us"),
        ("shots", "flight.shots_us"),
    ] {
        m.set(
            name,
            mean(flight_means.get(p).map_or(&[][..], Vec::as_slice)),
            "us",
        );
    }
    m.set(
        "residue_share",
        1.0 - ratio(attributed, total_latency),
        "ratio",
    );
    m.set(
        "tracing_overhead_share",
        ratio(p50_traced, p50_plain) - 1.0,
        "ratio",
    );

    // The attribution report: mean critical-path time per job by layer.
    report.line(format!(
        "attribution over {traced_jobs} traced job(s): client p50 {p50_traced:.3} ms (untraced p50 {p50_plain:.3} ms), mean {:.3} ms",
        ratio(total_latency, traced_jobs) / 1e3
    ));
    for (name, total) in ROWS.iter().zip(rows) {
        let per_job = ratio(total, traced_jobs) / 1e3;
        report.line(format!(
            "  {name:<34} {per_job:>12.4} ms/job  {:>6.1}%",
            100.0 * ratio(total, total_latency)
        ));
    }
    let residue = report.metrics.get("residue_share");
    if residue > 0.10 {
        report.line(format!(
            "  FLAG: residue {:.1}% is above the 10% target",
            residue * 100.0
        ));
    }
    report.line(format!(
        "server-side layers (in-process, per job): ingest {:.1} us, quota {:.2} us, plan {:.1} us, execute {:.3} ms, encode {:.1} us; queue wait p50 {:.1} us ({} {:.1} us)",
        ip.pre_admit_us(false).max(ip.pre_admit_us(true)) - ip.decode_submit_us - ip.quota_us,
        ip.quota_us,
        ip.plan_us,
        ip.execute_ms_per_job,
        ip.handle_result_us,
        median(&queue_waits),
        qt.label,
        qt.value
    ));
}
