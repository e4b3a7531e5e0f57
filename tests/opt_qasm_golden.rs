//! Golden-file tests for OpenQASM 2.0 exports of *optimized* circuits.
//!
//! Each named circuit from the serve catalog is optimized, lowered to the
//! binary gate base (`quipper::decompose`, every gate on at most two wires)
//! and optimized again; the smaller of the lowered and the unlowered result
//! is exported and compared byte-for-byte against
//! `tests/golden/<name>.opt.qasm`. Beyond pinning the optimizer's exact
//! output, the test proves the constrained target set whenever the lowered
//! form is kept: every quantum statement in the export names at most two
//! qubits (no `ccx`, no multi-controlled anything).
//!
//! To re-bless after an *intentional* optimizer or exporter change:
//!
//! ```text
//! QASM_BLESS=1 cargo test --test opt_qasm_golden
//! ```

use std::path::PathBuf;

use quipper::decompose::{decompose, GateBase};
use quipper_circuit::qasm::to_qasm;
use quipper_circuit::BCircuit;
use quipper_opt::{optimize, OptLevel};
use quipper_serve::catalog::Catalog;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.opt.qasm"))
}

/// Number of distinct `q[i]` operands in one QASM statement.
fn qubit_operands(line: &str) -> usize {
    line.match_indices("q[").count()
}

/// Optimize, lower to the binary gate base, and optimize the expansion;
/// keep the lowered circuit unless it ends up with more gates than the
/// unlowered one. Returns the kept circuit and whether it is the lowered
/// one.
fn optimize_then_lower(circuit: &BCircuit) -> (BCircuit, bool) {
    let (optimized, _) = optimize(circuit, OptLevel::Default);
    let (lowered, _) = optimize(&decompose(GateBase::Binary, &optimized), OptLevel::Default);
    if lowered.gate_count().total() > optimized.gate_count().total() {
        (optimized, false)
    } else {
        (lowered, true)
    }
}

fn check(name: &str) {
    let catalog = Catalog::new();
    let circuit = catalog
        .get(name)
        .unwrap_or_else(|| panic!("no circuit {name}"));
    let (optimized, binary) = optimize_then_lower(&circuit);
    optimized.validate().unwrap();
    let qasm =
        to_qasm(&optimized).unwrap_or_else(|e| panic!("optimized {name} does not export: {e}"));

    // The binary target set, as exported: no statement may touch three or
    // more qubits. Only guaranteed when the lowered form was kept — the
    // unlowered circuit wins when lowering leaves it larger.
    if binary {
        for line in qasm.lines() {
            assert!(
                qubit_operands(line) <= 2,
                "{name}: statement exceeds the binary gate set: {line}"
            );
        }
    }

    let path = golden_path(name);
    if std::env::var_os("QASM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &qasm).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with QASM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        qasm, expected,
        "optimized {name} drifted from its golden file; if intentional, re-bless with QASM_BLESS=1"
    );
}

/// Teleportation: the classically-controlled corrections survive the
/// optimizer untouched while the unitary prefix is cleaned up.
#[test]
fn teleportation_opt_matches_golden() {
    check("teleportation");
}

/// Grover over 3 qubits: lowering the oracle's Toffolis to the binary set
/// costs more gates than it saves, so the unlowered circuit is kept.
#[test]
fn grover3_opt_matches_golden() {
    check("grover3");
}

/// GHZ: already binary and irreducible; the export pins that the pipeline
/// leaves it alone.
#[test]
fn ghz3_opt_matches_golden() {
    check("ghz3");
}

/// QFT over 4 qubits: the controlled-phase cascade is already binary but
/// rotation merging sees adjacent diagonal runs.
#[test]
fn qft4_opt_matches_golden() {
    check("qft4");
}
