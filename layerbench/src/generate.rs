//! The `generate` workload: the paper's scalability result, built and
//! counted in a child process of its own (so its peak memory is its own).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use quipper::classical::synth;
use quipper::{Circ, Qubit};
use quipper_algorithms::bf::{hex_winner_dag, HexBoard};
use quipper_algorithms::tf::{a1_qwtfp, OrthodoxOracle, TfSpec};
use quipper_arith::fpreal::{sin_dag, FPFormat};
use quipper_circuit::BCircuit;
use quipper_trace::{parse_json, Json};

use crate::util::{median, ratio, tail, Metrics};
use crate::{Report, Settings};

/// Child-process spawns per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// E7, E9 and E10 of EXPERIMENTS.md with their recorded totals and qubit
/// counts (the output oracle).
pub const CIRCUITS: [(&str, u128, u64); 3] = [
    ("tf-full", 1_232_940_510_960, 4_470),
    ("hex-oracle", 87_157, 21_853),
    ("sin-oracle", 951_914, 186_409),
];

fn build(name: &str) -> BCircuit {
    match name {
        // E7: full Triangle Finding at l=31, n=15, r=6.
        "tf-full" => a1_qwtfp(TfSpec { l: 31, n: 15, r: 6 }, &OrthodoxOracle::new(15, 31)),
        // E9: the Hex flood-fill winner oracle on a 9x7 board, sharing on.
        "hex-oracle" => {
            let board = HexBoard::new(9, 7);
            let dag = hex_winner_dag(board, true, None);
            Circ::build(
                &(vec![false; board.cells()], false),
                |c, (cells, out): (Vec<Qubit>, Qubit)| {
                    synth::classical_to_reversible(c, &dag, &cells, &[out]);
                    (cells, out)
                },
            )
        }
        // E10: sin(x) over 32+32-bit fixed point, one-shot lifting.
        _ => {
            let fmt = FPFormat::new(32, 32);
            let dag = sin_dag(fmt);
            Circ::build(&vec![false; fmt.width()], |c, xs: Vec<Qubit>| {
                let outs = synth::synthesize_clean(c, &dag, &xs);
                (xs, outs)
            })
        }
    }
}

/// Child mode: print `ready`, then make passes over the three circuits
/// (each pass starting at circuit `seed mod 3`), building and counting
/// each, until `seconds` have passed; print one JSON line of per-circuit
/// and per-pass timings, own CPU time and peak memory.
pub fn child(seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    println!("ready");
    if seconds <= 0.0 {
        return Ok(());
    }
    quipper_trace::tracer().set_enabled(trace);
    let pid = std::process::id();
    let cpu_before = crate::util::process_cpu_ns(pid).ok_or("cannot read own CPU time")?;
    let start = Instant::now();
    let mut rows = Vec::new();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = Instant::now();
        for k in 0..CIRCUITS.len() {
            rows.push(build_and_count(
                CIRCUITS[(seed as usize + k) % CIRCUITS.len()],
            ));
        }
        passes.push(format!("{:?}", pass.elapsed().as_secs_f64() * 1e3));
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_after = crate::util::process_cpu_ns(pid).ok_or("cannot read own CPU time")?;
    let rss = crate::util::peak_rss_mb(pid).ok_or("cannot read own VmHWM")?;
    println!(
        "{{\"wall_s\":{wall:?},\"cpu_ms\":{:?},\"peak_rss_mb\":{rss:?},\"passes_ms\":[{}],\"circuits\":[{}]}}",
        (cpu_after - cpu_before) as f64 / 1e6,
        passes.join(","),
        rows.join(",")
    );
    Ok(())
}

/// Builds and counts one circuit; a JSON row of its timings and counts.
fn build_and_count((name, total, qubits): (&str, u128, u64)) -> String {
    {
        let t0 = Instant::now();
        let bc = std::hint::black_box(build(name));
        let t1 = Instant::now();
        let count = std::hint::black_box(bc.gate_count());
        let t2 = Instant::now();
        drop(bc);
        let ok = count.total() == total && count.qubits_in_circuit == qubits;
        format!(
            "{{\"name\":\"{name}\",\"generate_ms\":{:?},\"count_ms\":{:?},\"ok\":{ok},\"total\":\"{}\",\"qubits\":{}}}",
            (t1 - t0).as_secs_f64() * 1e3,
            (t2 - t1).as_secs_f64() * 1e3,
            count.total(),
            count.qubits_in_circuit
        )
    }
}

/// One circuit built and counted, as the child reported it.
struct Row {
    name: String,
    generate_ms: f64,
    count_ms: f64,
    ok: bool,
    detail: String,
}

struct ChildRun {
    setup: Duration,
    wall_s: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
    /// Wall time of each pass over the three circuits.
    passes_ms: Vec<f64>,
    rows: Vec<Row>,
}

/// Spawns the child and waits for it: set-up is spawn to `ready`.
fn spawn_child(settings: &Settings, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--generate-child", "--seed", &settings.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let ready = out.read_line(&mut line).is_ok() && line.trim() == "ready";
    let setup = start.elapsed();
    let mut result = String::new();
    let read = out.read_line(&mut result);
    let status = child.wait().map_err(|e| format!("generator: {e}"))?;
    if !ready || !status.success() || read.is_err() {
        return Err(format!("generator failed ({status})"));
    }
    if seconds <= 0.0 {
        return Ok(ChildRun {
            setup,
            wall_s: 0.0,
            cpu_ms: 0.0,
            peak_rss_mb: 0.0,
            passes_ms: Vec::new(),
            rows: Vec::new(),
        });
    }
    let json = parse_json(result.trim()).map_err(|e| format!("generator output: {e}"))?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_num).unwrap_or(0.0);
    let rows = json
        .get("circuits")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| Row {
            name: r
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            generate_ms: num(r, "generate_ms"),
            count_ms: num(r, "count_ms"),
            ok: r.get("ok") == Some(&Json::Bool(true)),
            detail: format!(
                "{} gates, {} qubits",
                r.get("total").and_then(Json::as_str).unwrap_or("?"),
                num(r, "qubits")
            ),
        })
        .collect();
    Ok(ChildRun {
        setup,
        wall_s: num(&json, "wall_s"),
        cpu_ms: num(&json, "cpu_ms"),
        peak_rss_mb: num(&json, "peak_rss_mb"),
        passes_ms: json
            .get("passes_ms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_num)
            .collect(),
        rows,
    })
}

/// Counts the run's circuits and checks them against the recorded numbers.
fn check(run: &ChildRun, report: &mut Report) {
    report.attempted += run.rows.len() as u64;
    for row in run.rows.iter().filter(|r| !r.ok) {
        report.failed += 1;
        report.note(format!(
            "{} counted {} (EXPERIMENTS.md differs)",
            row.name, row.detail
        ));
    }
    let right = run.rows.iter().filter(|r| r.ok).count();
    report.line(format!(
        "oracle: {right}/{} circuit(s) match the EXPERIMENTS.md totals and qubit counts",
        run.rows.len()
    ));
}

pub fn run(settings: &Settings, report: &mut Report) -> Result<(), String> {
    let seconds = settings.seconds as f64;
    if settings.trace {
        let plain = spawn_child(settings, seconds * 0.5, false)?;
        let traced = spawn_child(settings, seconds * 0.5, true)?;
        check(&plain, report);
        check(&traced, report);
        let mut attributed = 0.0;
        for (name, _, _) in CIRCUITS {
            let rows: Vec<&Row> = traced.rows.iter().filter(|r| r.name == name).collect();
            let gen = crate::util::mean(&rows.iter().map(|r| r.generate_ms).collect::<Vec<_>>());
            let count = crate::util::mean(&rows.iter().map(|r| r.count_ms).collect::<Vec<_>>());
            report
                .metrics
                .set(format!("core.generate_ms.{name}"), gen, "ms");
            report
                .metrics
                .set(format!("circuit.count_ms.{name}"), count, "ms");
            attributed += rows.len() as f64 * (gen + count);
            report.line(format!(
                "  {name:<12} generate {gen:>10.3} ms  count {count:>8.3} ms  ({} built)",
                rows.len()
            ));
        }
        let m = &mut report.metrics;
        let passes: f64 = traced.passes_ms.iter().sum();
        m.set("residue_share", 1.0 - ratio(attributed, passes), "ratio");
        m.set(
            "tracing_overhead_share",
            ratio(median(&traced.passes_ms), median(&plain.passes_ms)) - 1.0,
            "ratio",
        );
        return Ok(());
    }
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        setups.push(spawn_child(settings, 0.0, false)?.setup.as_secs_f64());
    }
    let run = spawn_child(settings, seconds, false)?;
    setups.push(run.setup.as_secs_f64());
    check(&run, report);
    // A job here is one pass: E7, E9 and E10 each built and counted.
    let lat = &run.passes_ms;
    let t = tail(lat);
    report.samples(lat.len(), &t);
    let n = lat.len() as f64;
    let m: &mut Metrics = &mut report.metrics;
    m.set("jobs_per_s", ratio(n, run.wall_s), "1/s");
    m.set("latency_p50_ms", median(lat), "ms");
    m.set("latency_tail_ms", t.value, "ms");
    m.set("server_cpu_ms_per_job", ratio(run.cpu_ms, n), "ms");
    m.set("peak_rss_mb", run.peak_rss_mb, "MB");
    m.set("setup_s", median(&setups), "s");
    report.line(format!(
        "circuits_per_s = {:.4} 1/s (a job here is one pass over the 3 circuits)",
        ratio(run.rows.len() as f64, run.wall_s)
    ));
    Ok(())
}
