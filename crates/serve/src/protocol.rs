//! The newline-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line of at most
//! [`MAX_LINE_BYTES`]; each response is one JSON object on one line.
//! Requests name an operation via `"op"`:
//!
//! | op        | fields                                                        |
//! |-----------|---------------------------------------------------------------|
//! | `submit`  | `circuit` (catalog name) *or* `qasm` (inline OpenQASM 2.0     |
//! |           | source, size-capped; rejected with span-anchored `QP###`      |
//! |           | `diagnostics`), plus `tenant`, `shots`, `seed`, `label`,      |
//! |           | `priority`, `deadline_ms`, `inputs` (array of 0/1), `opt`     |
//! |           | (`"off"`/`"default"`, defaults to the engine's configured     |
//! |           | level) — all optional except circuit/qasm                     |
//! | `status`  | `id`                                                          |
//! | `result`  | `id` — histogram + report once completed; failed and          |
//! |           | deadline-missed jobs attach their flight timeline             |
//! | `cancel`  | `id`                                                          |
//! | `export`  | `circuit` (catalog name) *or* `qasm` (inline source, parsed   |
//! |           | and re-emitted canonically) — OpenQASM 2.0 text               |
//! | `list`    | — catalog names                                               |
//! | `stats`   | — service + engine counters                                   |
//! | `metrics` | `format` (`"json"` lines or `"prometheus"` text, default      |
//! |           | `"json"`) — full metrics-registry snapshot as `text`          |
//! | `flight`  | `id` (one job's timeline) or `recent` (last N finished,       |
//! |           | default 8) — flight-recorder dump                             |
//! | `ping`    | — liveness                                                    |
//! | `shutdown`| — stop accepting, drain, exit                                 |
//!
//! Responses carry `"ok": true` plus op-specific fields, or `"ok": false`
//! with `"error"` and — for backpressure rejections — `"retry_after_ms"`,
//! so well-behaved clients know when to come back. Parsing reuses the
//! dependency-free reader from `quipper-trace`; responses are assembled
//! with the same escaping, so everything round-trips.

use std::fmt::Write as _;
use std::sync::Arc;

use quipper_trace::{escape_into, parse_json, Json};

use crate::catalog::Catalog;
use crate::flight::FlightTimeline;
use crate::service::{JobState, RejectReason, Service, Submission};

/// The outcome of handling one request line.
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the request asked the server to shut down.
    pub shutdown: bool,
}

fn ok(fields: &str) -> Handled {
    let response = if fields.is_empty() {
        "{\"ok\":true}".to_string()
    } else {
        format!("{{\"ok\":true,{fields}}}")
    };
    Handled {
        response,
        shutdown: false,
    }
}

fn err(message: &str) -> Handled {
    let mut response = String::from("{\"ok\":false,\"error\":\"");
    escape_into(&mut response, message);
    response.push_str("\"}");
    Handled {
        response,
        shutdown: false,
    }
}

/// An error response carrying the job's flight timeline, so a failed or
/// deadline-missed `result` answers "where did the time go" in one round
/// trip.
fn err_with_flight(service: &Service, id: u64, message: &str) -> Handled {
    let mut response = String::from("{\"ok\":false,\"error\":\"");
    escape_into(&mut response, message);
    response.push('"');
    if let Some(timeline) = service.flight(id) {
        let _ = write!(response, ",\"flight\":{}", flight_json(&timeline));
    }
    response.push('}');
    Handled {
        response,
        shutdown: false,
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

fn bits_to_json(bits: &[bool]) -> String {
    let mut out = String::from("[");
    for (i, b) in bits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push(if *b { '1' } else { '0' });
    }
    out.push(']');
    out
}

fn get_u64(req: &Json, key: &str) -> Option<u64> {
    req.get(key).and_then(Json::as_num).map(|n| n as u64)
}

/// One flight timeline as a JSON object: identity, terminal/current state,
/// and the stamped events with derived span durations in microseconds.
fn flight_json(timeline: &FlightTimeline) -> String {
    let mut out = format!(
        "{{\"id\":{},\"tenant\":{},\"label\":{},\"state\":{},\"events\":[",
        timeline.id,
        quoted(&timeline.tenant),
        quoted(&timeline.label),
        quoted(&timeline.state),
    );
    for (i, (phase, at, dur, detail)) in timeline.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"phase\":{},\"at_us\":{},\"dur_us\":{}",
            quoted(phase),
            at.as_micros(),
            dur.as_micros(),
        );
        if let Some(detail) = detail {
            let _ = write!(out, ",\"detail\":{}", quoted(detail));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Handles one request line against the service and catalog. Pure with
/// respect to I/O: the caller owns the socket.
pub fn handle_line(service: &Service, catalog: &Catalog, line: &str) -> Handled {
    let req = match parse_json(line.trim()) {
        Ok(req) => req,
        Err(e) => return err(&format!("bad request: {e}")),
    };
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return err("missing \"op\""),
    };
    match op {
        "ping" => ok("\"pong\":true"),
        "list" => {
            let names: Vec<String> = catalog.names().iter().map(|n| quoted(n)).collect();
            ok(&format!("\"circuits\":[{}]", names.join(",")))
        }
        "stats" => {
            let s = service.stats();
            ok(&format!(
                "\"submitted\":{},\"admitted\":{},\"rejected\":{},\"completed\":{},\
                 \"failed\":{},\"cancelled\":{},\"deadline_misses\":{},\"retries\":{},\
                 \"coalesced\":{},\"engine_cache_hits\":{},\"engine_cache_misses\":{},\
                 \"engine_cached_plans\":{},\"engine_fused_gates\":{},\
                 \"engine_opt_gates_removed\":{}",
                s.submitted,
                s.admitted,
                s.rejected_queue_full + s.rejected_quota,
                s.completed,
                s.failed,
                s.cancelled,
                s.deadline_misses,
                s.retries,
                s.coalesced_compiles,
                s.engine_cache_hits,
                s.engine_cache_misses,
                s.engine_cached_plans,
                s.engine_fused_gates,
                s.engine_opt_gates_removed,
            ))
        }
        "metrics" => {
            let format = req.get("format").and_then(Json::as_str).unwrap_or("json");
            let snapshot = service.metrics_snapshot();
            let text = match format {
                "json" => quipper_trace::to_metrics_json_lines(&snapshot),
                "prometheus" => quipper_trace::to_prometheus_text(&snapshot),
                other => {
                    return err(&format!(
                        "unknown metrics format {other:?} (json/prometheus)"
                    ))
                }
            };
            ok(&format!(
                "\"format\":{},\"text\":{}",
                quoted(format),
                quoted(&text)
            ))
        }
        "flight" => match get_u64(&req, "id") {
            Some(id) => match service.flight(id) {
                None => err(&format!("no flight timeline for job id {id}")),
                Some(timeline) => ok(&format!("\"flights\":[{}]", flight_json(&timeline))),
            },
            None => {
                let n = get_u64(&req, "recent").unwrap_or(8).min(1024) as usize;
                let rows: Vec<String> = service.flights(n).iter().map(|t| flight_json(t)).collect();
                ok(&format!("\"flights\":[{}]", rows.join(",")))
            }
        },
        "shutdown" => Handled {
            response: "{\"ok\":true,\"stopping\":true}".to_string(),
            shutdown: true,
        },
        "submit" => handle_submit(service, catalog, &req),
        "export" => match (
            req.get("circuit").and_then(Json::as_str),
            req.get("qasm").and_then(Json::as_str),
        ) {
            (Some(_), Some(_)) => err("export takes \"circuit\" or \"qasm\", not both"),
            (None, None) => err("export needs a \"circuit\" (see op \"list\") or inline \"qasm\""),
            (Some(name), None) => match catalog.get(name) {
                None => err(&format!("unknown circuit {name:?} (see op \"list\")")),
                Some(circuit) => match quipper_circuit::qasm::to_qasm(&circuit) {
                    Ok(qasm) => ok(&format!(
                        "\"circuit\":{},\"qasm\":{}",
                        quoted(name),
                        quoted(&qasm)
                    )),
                    Err(e) => err(&format!("{name} does not export: {e}")),
                },
            },
            // Canonicalization: parse the client's text and re-emit it in
            // the exporter's dialect (idempotent on its own output).
            (None, Some(source)) => match ingest_qasm(source) {
                Ok(bc) => match quipper_circuit::qasm::to_qasm(&bc) {
                    Ok(qasm) => ok(&format!("\"circuit\":\"qasm\",\"qasm\":{}", quoted(&qasm))),
                    Err(e) => err(&format!("submitted qasm does not re-export: {e}")),
                },
                Err(handled) => handled,
            },
        },
        "status" => match get_u64(&req, "id") {
            None => err("status needs a numeric \"id\""),
            Some(id) => match service.status(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => ok(&format!(
                    "\"id\":{},\"state\":{},\"label\":{},\"attempts\":{}",
                    status.id,
                    quoted(status.state.tag()),
                    quoted(&status.label),
                    status.attempts,
                )),
            },
        },
        "result" => match get_u64(&req, "id") {
            None => err("result needs a numeric \"id\""),
            Some(id) => match service.status(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => match &status.state {
                    JobState::Completed(result) => {
                        let mut hist = String::from("[");
                        for (i, (bits, count)) in result.histogram.iter().enumerate() {
                            if i > 0 {
                                hist.push(',');
                            }
                            let _ = write!(
                                hist,
                                "{{\"bits\":{},\"count\":{count}}}",
                                bits_to_json(bits)
                            );
                        }
                        hist.push(']');
                        ok(&format!(
                            "\"id\":{id},\"label\":{},\"backend\":{},\"shots\":{},\
                             \"histogram\":{hist}",
                            quoted(&status.label),
                            quoted(result.report.backend),
                            result.report.shots,
                        ))
                    }
                    JobState::Failed(detail) => {
                        err_with_flight(service, id, &format!("job {id} failed: {detail}"))
                    }
                    JobState::DeadlineExceeded => {
                        err_with_flight(service, id, &format!("job {id} missed its deadline"))
                    }
                    state => err(&format!("job {id} is {}, no result", state.tag())),
                },
            },
        },
        "cancel" => match get_u64(&req, "id") {
            None => err("cancel needs a numeric \"id\""),
            Some(id) => match service.cancel(id) {
                None => err(&format!("unknown job id {id}")),
                Some(status) => ok(&format!(
                    "\"id\":{},\"state\":{}",
                    status.id,
                    quoted(status.state.tag())
                )),
            },
        },
        other => err(&format!("unknown op {other:?}")),
    }
}

/// Wire-level cap on inline OpenQASM submissions: bounded work per request
/// line, well under the library's own ingestion cap.
pub const MAX_QASM_BYTES: usize = 256 * 1024;

/// Wire-level cap on one request line, newline excluded: room for a
/// maximal inline program after JSON escaping. The server answers a longer
/// line with [`line_too_long`] and closes the connection.
pub const MAX_LINE_BYTES: usize = 4 * MAX_QASM_BYTES;

/// The response to a request line over [`MAX_LINE_BYTES`].
pub fn line_too_long() -> Handled {
    err(&format!(
        "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
    ))
}

/// Cap on concurrently open connections, each served by its own thread.
/// The server answers a connection over the cap with
/// [`too_many_connections`] and closes it.
pub const MAX_CONNECTIONS: usize = 256;

/// The response to a connection over [`MAX_CONNECTIONS`], or one whose
/// thread could not be started.
pub fn too_many_connections() -> Handled {
    err(&format!(
        "server is at its limit of {MAX_CONNECTIONS} connections; closing this one, retry later"
    ))
}

/// Renders a diagnostics collection as a JSON array of
/// `{code, severity, line, col, message}` objects.
fn diagnostics_json(diags: &quipper_qasm::Diagnostics) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":{},\"severity\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            quoted(d.code.as_str()),
            quoted(d.severity.label()),
            d.span.line,
            d.span.col,
            quoted(&d.message),
        );
    }
    out.push(']');
    out
}

/// Rejects an inline-QASM request with the full diagnostics list, so
/// clients can render span-anchored errors without another round trip.
fn err_with_diagnostics(message: &str, diags: &quipper_qasm::Diagnostics) -> Handled {
    let mut response = String::from("{\"ok\":false,\"error\":\"");
    escape_into(&mut response, message);
    let _ = write!(response, "\",\"diagnostics\":{}", diagnostics_json(diags));
    response.push('}');
    Handled {
        response,
        shutdown: false,
    }
}

/// Parses an inline OpenQASM submission into a circuit, or a ready-made
/// error response. Every parse failure is a structured rejection — client
/// bytes can never panic the server.
fn ingest_qasm(source: &str) -> Result<Arc<quipper_circuit::BCircuit>, Handled> {
    if source.len() > MAX_QASM_BYTES {
        return Err(err(&format!(
            "inline qasm is {} bytes; the wire cap is {MAX_QASM_BYTES}",
            source.len()
        )));
    }
    match quipper_qasm::compile(source) {
        Ok(bc) => Ok(Arc::new(bc)),
        Err(diags) => {
            let errors = diags.count(quipper_qasm::Severity::Error);
            Err(err_with_diagnostics(
                &format!("qasm rejected with {errors} error(s)"),
                &diags,
            ))
        }
    }
}

fn handle_submit(service: &Service, catalog: &Catalog, req: &Json) -> Handled {
    let name_field = req.get("circuit").and_then(Json::as_str);
    let qasm_field = req.get("qasm").and_then(Json::as_str);
    let (name, circuit, default_inputs) = match (name_field, qasm_field) {
        (Some(_), Some(_)) => return err("submit takes \"circuit\" or \"qasm\", not both"),
        (None, None) => {
            return err("submit needs a \"circuit\" (see op \"list\") or inline \"qasm\"")
        }
        (Some(name), None) => match catalog.get(name) {
            Some(circuit) => (name, circuit, catalog.input_arity(name).unwrap_or(0)),
            None => return err(&format!("unknown circuit {name:?} (see op \"list\")")),
        },
        (None, Some(source)) => match ingest_qasm(source) {
            Ok(bc) => {
                let arity = bc.main.inputs.len();
                ("qasm", bc, arity)
            }
            Err(handled) => return handled,
        },
    };
    let inputs = match req.get("inputs") {
        None => vec![false; default_inputs],
        Some(value) => match value.as_arr() {
            None => return err("\"inputs\" must be an array of 0/1"),
            Some(items) => items
                .iter()
                .map(|v| v.as_num().map(|n| n != 0.0).unwrap_or(false))
                .collect(),
        },
    };
    let tenant = req
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anonymous");
    let mut submission = Submission::new(tenant, Arc::clone(&circuit))
        .inputs(inputs)
        .shots(get_u64(req, "shots").unwrap_or(1).max(1))
        .seed(get_u64(req, "seed").unwrap_or(0))
        .priority(get_u64(req, "priority").unwrap_or(0).min(255) as u8);
    if let Some(label) = req.get("label").and_then(Json::as_str) {
        submission = submission.label(label);
    } else {
        submission = submission.label(name);
    }
    if let Some(ms) = get_u64(req, "deadline_ms") {
        submission = submission.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(spec) = req.get("opt").and_then(Json::as_str) {
        match quipper_exec::OptLevel::parse(spec) {
            Some(level) => submission = submission.opt(level),
            None => {
                return err(&format!(
                    "unknown opt level {spec:?} ({})",
                    quipper_exec::OptLevel::names()
                ))
            }
        }
    }
    match service.submit(submission) {
        Ok(id) => ok(&format!("\"id\":{id}")),
        Err(rejection) => {
            let mut response = String::from("{\"ok\":false,\"error\":\"");
            escape_into(&mut response, &rejection.reason.to_string());
            let _ = write!(
                response,
                "\",\"retry_after_ms\":{},\"reason\":{}",
                rejection.retry_after.as_millis(),
                quoted(match rejection.reason {
                    RejectReason::QueueFull => "queue_full",
                    RejectReason::QuotaExhausted => "quota_exhausted",
                })
            );
            response.push('}');
            Handled {
                response,
                shutdown: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use quipper_exec::Engine;
    use quipper_trace::parse_json;

    fn fixture() -> (Service, Catalog) {
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        (Service::start(Engine::new(), config), Catalog::new())
    }

    fn handle_ok(service: &Service, catalog: &Catalog, line: &str) -> Json {
        let handled = handle_line(service, catalog, line);
        let json = parse_json(&handled.response).expect("response parses");
        assert_eq!(
            json.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            handled.response
        );
        json
    }

    #[test]
    fn submit_status_result_round_trip() {
        let (service, catalog) = fixture();
        let resp = handle_ok(
            &service,
            &catalog,
            r#"{"op":"submit","circuit":"ghz3","tenant":"t","shots":32,"seed":7,"label":"demo","opt":"default"}"#,
        );
        let id = resp.get("id").and_then(Json::as_num).unwrap() as u64;
        service.drain();
        let status = handle_ok(
            &service,
            &catalog,
            &format!(r#"{{"op":"status","id":{id}}}"#),
        );
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("completed")
        );
        assert_eq!(status.get("label").and_then(Json::as_str), Some("demo"));
        let result = handle_ok(
            &service,
            &catalog,
            &format!(r#"{{"op":"result","id":{id}}}"#),
        );
        let hist = result.get("histogram").and_then(Json::as_arr).unwrap();
        let total: u64 = hist
            .iter()
            .map(|e| e.get("count").and_then(Json::as_num).unwrap() as u64)
            .sum();
        assert_eq!(total, 32);
        // GHZ: only all-zeros and all-ones appear.
        assert!(hist.len() <= 2);
        service.shutdown();
    }

    #[test]
    fn errors_are_json_with_ok_false() {
        let (service, catalog) = fixture();
        for line in [
            "not json at all",
            r#"{"missing":"op"}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"submit","circuit":"nope"}"#,
            r#"{"op":"submit","circuit":"ghz3","opt":"extreme"}"#,
            r#"{"op":"result","id":999}"#,
        ] {
            let handled = handle_line(&service, &catalog, line);
            let json = parse_json(&handled.response).expect("error responses parse");
            assert_eq!(json.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert!(json.get("error").is_some(), "{line}");
        }
        service.shutdown();
    }

    #[test]
    fn removed_aggressive_level_is_refused_naming_the_valid_levels() {
        let (service, catalog) = fixture();
        let handled = handle_line(
            &service,
            &catalog,
            r#"{"op":"submit","circuit":"ghz3","opt":"aggressive"}"#,
        );
        let json = parse_json(&handled.response).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            json.get("error").and_then(Json::as_str),
            Some(r#"unknown opt level "aggressive" (off|default)"#)
        );
        assert_eq!(service.stats().admitted, 0);
        service.shutdown();
    }

    #[test]
    fn export_returns_qasm_that_round_trips_through_escaping() {
        let (service, catalog) = fixture();
        let resp = handle_ok(
            &service,
            &catalog,
            r#"{"op":"export","circuit":"teleportation"}"#,
        );
        let qasm = resp.get("qasm").and_then(Json::as_str).unwrap();
        assert!(qasm.starts_with("OPENQASM 2.0;\n"));
        // The dynamic-lifting corrections survive the wire format.
        assert!(qasm.contains("if(c1==1) x q[2];"), "{qasm}");
        service.shutdown();
    }

    #[test]
    fn inline_qasm_submission_runs_end_to_end() {
        let (service, catalog) = fixture();
        // GHZ on 3 ancillas, measured: the job goes through the same
        // lint/optimize/cache pipeline as catalog circuits.
        let qasm = "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\ncreg c[3];\\nreset q;\\nh q[0];\\ncx q[0],q[1];\\ncx q[1],q[2];\\nmeasure q -> c;\\n";
        let resp = handle_ok(
            &service,
            &catalog,
            &format!(
                r#"{{"op":"submit","qasm":"{qasm}","tenant":"t","shots":16,"seed":3,"opt":"default"}}"#
            ),
        );
        let id = resp.get("id").and_then(Json::as_num).unwrap() as u64;
        service.drain();
        let status = handle_ok(
            &service,
            &catalog,
            &format!(r#"{{"op":"status","id":{id}}}"#),
        );
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("completed")
        );
        // Default label for inline submissions.
        assert_eq!(status.get("label").and_then(Json::as_str), Some("qasm"));
        let result = handle_ok(
            &service,
            &catalog,
            &format!(r#"{{"op":"result","id":{id}}}"#),
        );
        let hist = result.get("histogram").and_then(Json::as_arr).unwrap();
        let total: u64 = hist
            .iter()
            .map(|e| e.get("count").and_then(Json::as_num).unwrap() as u64)
            .sum();
        assert_eq!(total, 16);
        assert!(hist.len() <= 2, "GHZ collapses to all-zeros/all-ones");
        service.shutdown();
    }

    #[test]
    fn bad_qasm_is_rejected_with_coded_diagnostics() {
        let (service, catalog) = fixture();
        let handled = handle_line(
            &service,
            &catalog,
            r#"{"op":"submit","qasm":"OPENQASM 2.0;\nqreg q[1];\nfrob q[0];\n"}"#,
        );
        let json = parse_json(&handled.response).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        let diags = json.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("QP103")));
        assert!(diags
            .iter()
            .all(|d| d.get("line").and_then(Json::as_num).is_some()));
        // Both sources at once is ambiguous.
        let handled = handle_line(
            &service,
            &catalog,
            r#"{"op":"submit","circuit":"ghz3","qasm":"OPENQASM 2.0;"}"#,
        );
        let json = parse_json(&handled.response).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        service.shutdown();
    }

    #[test]
    fn export_canonicalizes_inline_qasm() {
        let (service, catalog) = fixture();
        // Lowercase gates without the include, QASM-3 spellings: the
        // canonical form normalizes all of it.
        let resp = handle_ok(
            &service,
            &catalog,
            r#"{"op":"export","qasm":"OPENQASM 3;\nqubit[2] q;\nU(0,0,3.141592653589793) q[0];\nCX q[0],q[1];\n"}"#,
        );
        let qasm = resp.get("qasm").and_then(Json::as_str).unwrap();
        assert!(qasm.starts_with("OPENQASM 2.0;\n"), "{qasm}");
        assert!(qasm.contains("cx q[0],q[1];"), "{qasm}");
        // Canonicalization is idempotent: exporting the canonical text
        // again returns it unchanged.
        let again = handle_ok(
            &service,
            &catalog,
            &format!(r#"{{"op":"export","qasm":{}}}"#, super::quoted(qasm)),
        );
        assert_eq!(again.get("qasm").and_then(Json::as_str), Some(qasm));
        service.shutdown();
    }

    #[test]
    fn list_ping_stats_and_shutdown() {
        let (service, catalog) = fixture();
        let list = handle_ok(&service, &catalog, r#"{"op":"list"}"#);
        let names = list.get("circuits").and_then(Json::as_arr).unwrap();
        assert!(names.iter().any(|n| n.as_str() == Some("teleportation")));
        handle_ok(&service, &catalog, r#"{"op":"ping"}"#);
        handle_ok(&service, &catalog, r#"{"op":"stats"}"#);
        let handled = handle_line(&service, &catalog, r#"{"op":"shutdown"}"#);
        assert!(handled.shutdown);
        service.shutdown();
    }
}
