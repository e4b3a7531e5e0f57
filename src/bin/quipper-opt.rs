//! `quipper-opt`: run the pass-manager optimizer over the built-in circuit
//! suite and report the gate deltas.
//!
//! The suite is the same one `quipper-lint` checks, so the delta table
//! shows what the optimizer does to exactly the circuits the examples
//! execute:
//!
//! ```text
//! cargo run --release --bin quipper-opt -- --level default
//! ```
//!
//! Exit status is 0 unless arguments are malformed; the tool reports, it
//! does not gate (CI asserts reductions through the benchmark instead).

use std::process::ExitCode;

use quipper_circuit::BCircuit;
use quipper_opt::{optimize, OptLevel, OptReport};

#[path = "../circuit_suite.rs"]
mod circuit_suite;
use circuit_suite::suite;

fn usage() -> String {
    format!(
        "\
quipper-opt: pass-manager circuit optimizer over the built-in suite

USAGE: quipper-opt [OPTIONS]

OPTIONS:
  --list             print the suite's circuit names and exit
  --only NAME        optimize only this circuit (repeatable)
  --qasm FILE        also optimize an OpenQASM file (repeatable); files
                     that do not parse report their QP codes and fail
  --level LEVEL      pipeline to run: {} (default: {})
  --json             emit JSON Lines instead of the pretty table
  -h, --help         this text",
        OptLevel::names(),
        OptLevel::default(),
    )
}

struct Options {
    list: bool,
    json: bool,
    level: OptLevel,
    only: Vec<String>,
    qasm: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        json: false,
        level: OptLevel::default(),
        only: Vec::new(),
        qasm: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--json" => opts.json = true,
            "--level" => {
                opts.level = match args.next().as_deref().and_then(OptLevel::parse) {
                    Some(level) => level,
                    None => return Err(format!("--level expects {}", OptLevel::names())),
                }
            }
            "--only" => match args.next() {
                Some(name) => opts.only.push(name),
                None => return Err("--only expects a circuit name".into()),
            },
            "--qasm" => match args.next() {
                Some(path) => opts.qasm.push(path),
                None => return Err("--qasm expects a file path".into()),
            },
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn report_json(name: &str, report: &OptReport) {
    let passes: Vec<String> = report
        .passes
        .iter()
        .map(|p| {
            format!(
                "{{\"pass\":\"{}\",\"gates_before\":{},\"gates_after\":{},\"rewrites\":{}}}",
                p.name, p.gates_before, p.gates_after, p.rewrites
            )
        })
        .collect();
    println!(
        "{{\"kind\":\"circuit\",\"name\":\"{name}\",\"level\":\"{}\",\
         \"gates_before\":{},\"gates_after\":{},\"removed\":{},\"rewrites\":{},\
         \"t_before\":{},\"t_after\":{},\"twoq_before\":{},\"twoq_after\":{},\
         \"passes\":[{}]}}",
        report.level,
        report.gates_before(),
        report.gates_after(),
        report.removed(),
        report.rewrites(),
        report.before.t_count(),
        report.after.t_count(),
        report.before.two_qubit(),
        report.after.two_qubit(),
        passes.join(","),
    );
}

fn optimize_one(name: &str, bc: &BCircuit, opts: &Options) -> OptReport {
    let (_, report) = optimize(bc, opts.level);
    if opts.json {
        report_json(name, &report);
    } else {
        let pct = if report.gates_before() > 0 {
            100.0 * report.removed() as f64 / report.gates_before() as f64
        } else {
            0.0
        };
        println!(
            "{name:<16}{:>10} -> {:<10}{:>+8}  ({pct:.1}%)  T {:>4} -> {:<4} 2q {:>4} -> {:<4} {} rewrites",
            report.gates_before(),
            report.gates_after(),
            -report.removed(),
            report.before.t_count(),
            report.after.t_count(),
            report.before.two_qubit(),
            report.after.two_qubit(),
            report.rewrites(),
        );
    }
    report
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let suite = suite();
    if opts.list {
        for (name, _) in &suite {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(unknown) = opts
        .only
        .iter()
        .find(|name| !suite.iter().any(|(n, _)| n == *name))
    {
        eprintln!("error: no circuit named {unknown:?} (see --list)");
        return ExitCode::FAILURE;
    }

    if !opts.json {
        println!(
            "{:<16}{:>10}    {:<10}{:>8}  {:<27}level: {}",
            "circuit", "before", "after", "delta", "T-count / 2q-count", opts.level
        );
    }
    let mut selected = 0usize;
    let mut total_before: u128 = 0;
    let mut total_after: u128 = 0;
    for (name, build) in &suite {
        if !opts.only.is_empty() && !opts.only.iter().any(|n| n == name) {
            continue;
        }
        selected += 1;
        let report = optimize_one(name, &build(), &opts);
        total_before += report.gates_before();
        total_after += report.gates_after();
    }
    let mut parse_failures = 0usize;
    for path in &opts.qasm {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                parse_failures += 1;
                continue;
            }
        };
        match quipper_qasm::compile(&source) {
            Ok(bc) => {
                selected += 1;
                let report = optimize_one(path, &bc, &opts);
                total_before += report.gates_before();
                total_after += report.gates_after();
            }
            Err(diags) => {
                eprintln!("error: {path} does not parse:");
                for d in diags.iter() {
                    eprintln!("  {d}");
                }
                parse_failures += 1;
            }
        }
    }
    if !opts.json {
        println!(
            "{selected} circuit{} optimized at --level {}: {total_before} -> {total_after} gates",
            if selected == 1 { "" } else { "s" },
            opts.level,
        );
    }
    if parse_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
