//! The layered benchmark of the Quipper reproduction.
//!
//! ```text
//! layerbench --served PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `serve-small`, `serve-compile` and `serve-sv20` drive a
//! spawned `quipper-served` (default flags) over loopback TCP; `generate`
//! builds and counts the paper's large circuits in-process. With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
//! it replays the same seeded requests with tracing on and reports the
//! per-layer breakdown. Either way it checks outputs, prints a report,
//! and ends with one JSON result line. `layerbench/run.py` builds both
//! binaries and runs this one.

mod client;
mod generate;
mod inproc;
mod serve;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{Metrics, Tail};
use workload::Workload;

/// End-to-end metrics, reported by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("server_cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every `--trace 1` run; a layer the
/// workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("server.rtt_p50_us", "us"),
    ("server.wire_ms_per_job", "ms"),
    ("server.wire_own_ms_per_job", "ms"),
    ("server.requests_per_job", "count"),
    ("server.polls_per_job", "count"),
    ("server.bytes_in_per_job", "bytes"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_result_us", "us"),
    ("qasm.compile_us", "us"),
    ("qasm.mb_per_s", "MB/s"),
    ("catalog.get_us", "us"),
    ("quota.acquire_us", "us"),
    ("quota.refused", "count"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_tail_us", "us"),
    ("plan.compile_us", "us"),
    ("plan.validate_us", "us"),
    ("opt.optimize_us", "us"),
    ("lint.lint_us", "us"),
    ("plan.inline_us", "us"),
    ("sim.fuse_us", "us"),
    ("plan.self_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("opt.gates_removed_share", "ratio"),
    ("engine.execute_ms_per_job", "ms"),
    ("engine.execute_us_per_shot", "us"),
    ("engine.backend_share.statevec", "ratio"),
    ("engine.backend_share.stabilizer", "ratio"),
    ("engine.backend_share.classical", "ratio"),
    ("sim.profile.diagonal_share", "ratio"),
    ("sim.profile.permutation_share", "ratio"),
    ("sim.profile.general_share", "ratio"),
    ("sim.profile.mat4_share", "ratio"),
    ("flight.admit_us", "us"),
    ("flight.compile_us", "us"),
    ("flight.shots_us", "us"),
    ("core.generate_ms.tf-full", "ms"),
    ("core.generate_ms.hex-oracle", "ms"),
    ("core.generate_ms.sin-oracle", "ms"),
    ("circuit.count_ms.tf-full", "ms"),
    ("circuit.count_ms.hex-oracle", "ms"),
    ("circuit.count_ms.sin-oracle", "ms"),
    ("residue_share", "ratio"),
    ("tracing_overhead_share", "ratio"),
];

pub struct Settings {
    pub served: PathBuf,
    pub root: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run found: counts, checks, metrics and report lines.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks_failed: u64,
    pub metrics: Metrics,
    notes: usize,
}

impl Report {
    pub fn line(&self, line: String) {
        println!("{line}");
    }

    /// A problem worth reading, capped so a bad run stays readable.
    pub fn note(&mut self, line: String) {
        self.notes += 1;
        if self.notes <= 100 {
            self.line(format!("  ! {}", truncate(&line, 300)));
        }
    }

    pub fn check(&mut self, what: String, ok: bool) {
        self.checks_failed += u64::from(!ok);
        self.line(format!(
            "self-check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    pub fn samples(&mut self, n: usize, t: &Tail) {
        self.line(format!(
            "samples: {n} latencies; tail = {} ({} samples beyond it)",
            t.label, t.beyond
        ));
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

const USAGE: &str =
    "usage: layerbench --served PATH --workload serve-small|serve-compile|serve-sv20|generate \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Settings, String> {
    let mut served = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--served" => served = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value()? == "1"),
            "--generate-child" => child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let settings = Settings {
        served: served.unwrap_or_default(),
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        workload: workload.unwrap_or(Workload::Generate),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(0.0).ceil() as u64,
        trace: trace.ok_or("--trace is required")?,
    };
    if child {
        // The generator child takes fractional seconds; pass them through.
        generate::child(settings.seed, seconds, settings.trace)?;
        std::process::exit(0);
    }
    if workload.is_none() {
        return Err("--workload is required".into());
    }
    if settings.workload != Workload::Generate && !settings.served.is_file() {
        return Err("--served must name the quipper-served executable".into());
    }
    if settings.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(settings)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the checkout itself;
/// "unknown" outside a git checkout.
fn git_revision(root: &std::path::Path) -> String {
    let read = |path: &str| std::fs::read_to_string(root.join(".git").join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(str::to_string)
        }),
        None => Some(head),
    };
    match rev.as_deref().map(str::trim) {
        Some(rev) if rev.len() >= 12 => rev[..12].to_string(),
        _ => "unknown".into(),
    }
}

fn metadata(settings: &Settings) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scalar_forced = std::env::var_os(quipper_sim::simd::FORCE_SCALAR_ENV).is_some();
    println!(
        "layerbench: workload {} seed {} seconds {} trace {}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    println!(
        "machine: {cores} core(s); quipper-sim SIMD {} ({} {}); {}; git {}",
        quipper_sim::simd::feature_name(),
        quipper_sim::simd::FORCE_SCALAR_ENV,
        if scalar_forced { "set" } else { "unset" },
        command_line("rustc", &["--version"]),
        git_revision(&settings.root),
    );
    if settings.workload != Workload::Generate {
        println!(
            "server: {} with default flags{} (workers = cores, default quota and queue)",
            settings.served.display(),
            if settings.trace {
                "; traced replay adds --trace"
            } else {
                ""
            }
        );
    }
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(settings) => settings,
        Err(msg) => {
            eprintln!("layerbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    metadata(&settings);
    let mut report = Report::default();
    let outcome = match settings.workload {
        Workload::Generate => generate::run(&settings, &mut report),
        w => serve::run(w, &settings, &mut report),
    };
    if let Err(msg) = outcome {
        eprintln!("layerbench: {msg}");
        return ExitCode::FAILURE;
    }
    let names: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Metrics::default();
    for &(name, unit) in names {
        metrics.set(name, report.metrics.get(name), unit);
    }
    if !settings.trace {
        println!(
            "failed_share = {:.6} ratio ({} failed of {} attempted)",
            util::ratio(report.failed as f64, report.attempted as f64),
            report.failed,
            report.attempted
        );
    }
    for (name, (value, unit)) in metrics.iter() {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let correct = report.failed == 0 && report.checks_failed == 0 && report.attempted > 0;
    println!(
        "{}",
        util::result_line(correct, report.attempted, report.failed, &metrics)
    );
    ExitCode::SUCCESS
}
