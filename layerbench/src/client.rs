//! The TCP side: a spawned `quipper-served`, line-protocol connections,
//! and the closed-loop load generator that submits and polls jobs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quipper_trace::{parse_json, Json};

use crate::workload::JobSpec;

/// One client connection. Every request line goes out in one `write` on a
/// `TCP_NODELAY` socket, so a Nagle or delayed-ACK stall that shows up in
/// a round trip belongs to the server's side.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    response: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        // Every request is answered at once (results are polled), so a
        // silent server is a hung server: fail the run instead of waiting.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            response: String::new(),
        })
    }

    /// Sends `line` (newline included) and reads one response line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        debug_assert!(line.ends_with('\n'));
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.response.clear();
        match self.reader.read_line(&mut self.response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.response.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// As [`Conn::call`], parsing the response and requiring `ok:true`.
    pub fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let text = self.call(line)?;
        let json = parse_json(text).map_err(|e| format!("bad response {text:?}: {e}"))?;
        if json.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("request {:?} failed: {text}", line.trim_end()));
        }
        Ok(json)
    }
}

/// A running `quipper-served` child process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns the server with `args` and returns it with its set-up time:
    /// from the spawn to the first `pong`.
    pub fn spawn(exe: &Path, args: &[&str]) -> Result<(ServerProc, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        // Keep the pipe drained so the exit report can never block the server.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout.by_ref(), &mut std::io::sink());
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(drain),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("server did not report its address: {first:?}")),
        }
        let mut conn = Conn::connect(server.addr)?;
        let pong = conn.call_ok("{\"op\":\"ping\"}\n")?;
        let setup = start.elapsed();
        if pong.get("pong") != Some(&Json::Bool(true)) {
            return Err("ping was not answered with pong".into());
        }
        Ok((server, setup))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.call_ok("{\"op\":\"shutdown\"}\n").map(drop));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("server did not stop after shutdown ({asked:?})"));
                }
            }
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
        asked
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

/// Poll schedule: a pending job is polled again after `age / 16`, kept
/// within 0.1 ms and 2 ms, so polling adds at most 1/16 of a job's age
/// (and never more than 2 ms) to its observed latency.
pub fn poll_delay(age: Duration) -> Duration {
    (age / 16).clamp(Duration::from_micros(100), Duration::from_millis(2))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineKind {
    Submit,
    /// A `result` poll answered "not finished yet".
    Poll,
    /// The `result` poll that returned the job's outcome.
    Result,
}

/// One request line as the client saw it.
pub struct LineRec {
    /// Index of the job the line is about.
    pub index: u64,
    pub kind: LineKind,
    pub rtt: Duration,
    pub bytes: usize,
}

pub enum Outcome {
    Completed { response: String },
    Refused(String),
    Failed(String),
}

/// One job as the client saw it.
pub struct JobRec {
    pub index: u64,
    pub id: u64,
    pub conn: usize,
    pub submitted: Instant,
    pub finished: Instant,
    pub outcome: Outcome,
}

impl JobRec {
    pub fn latency(&self) -> Duration {
        self.finished - self.submitted
    }
}

/// What one connection did during a window.
pub struct ConnLog {
    pub lines: Vec<LineRec>,
    pub jobs: Vec<JobRec>,
    /// Intervals the client slept waiting for the next scheduled poll.
    pub idle: Vec<(Instant, Instant)>,
}

impl ConnLog {
    /// Completed jobs per second from the window start to this
    /// connection's last completion (closed loop: no quantization to the
    /// window's end).
    pub fn rate(&self, start: Instant) -> f64 {
        let done = self
            .jobs
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Completed { .. }));
        let (n, last) = done.fold((0u64, start), |(n, last), j| (n + 1, last.max(j.finished)));
        crate::util::ratio(n as f64, (last - start).as_secs_f64())
    }
}

struct Pending {
    index: u64,
    id: u64,
    submitted: Instant,
    next_poll: Instant,
}

/// Runs a closed loop: `connections` clients each keep `outstanding` jobs
/// in flight, taking job indices `0..limit` in order from a shared
/// counter, until `window` has passed; then they stop submitting and
/// collect what is still in flight. Returns the window start and each
/// connection's log.
pub fn drive(
    addr: SocketAddr,
    connections: usize,
    outstanding: usize,
    limit: Option<u64>,
    window: Duration,
    job: &(dyn Fn(u64) -> JobSpec + Sync),
) -> Result<(Instant, Vec<ConnLog>), String> {
    let mut conns = (0..connections)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicU64::new(0);
    let limit = limit.unwrap_or(u64::MAX);
    let start = Instant::now();
    let deadline = start
        .checked_add(window)
        .unwrap_or(start + Duration::from_secs(86_400));
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let next = &next;
                s.spawn(move || run_connection(conn, c, outstanding, deadline, (next, limit), job))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((start, logs))
}

fn run_connection(
    conn: &mut Conn,
    c: usize,
    outstanding: usize,
    deadline: Instant,
    (next, limit): (&AtomicU64, u64),
    job: &(dyn Fn(u64) -> JobSpec + Sync),
) -> Result<ConnLog, String> {
    let mut log = ConnLog {
        lines: Vec::new(),
        jobs: Vec::new(),
        idle: Vec::new(),
    };
    let mut pending: Vec<Pending> = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && pending.len() < outstanding && Instant::now() < deadline {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= limit {
                exhausted = true;
                break;
            }
            let spec = job(index);
            let submitted = Instant::now();
            let response = conn.call(&spec.line)?;
            let rtt = submitted.elapsed();
            log.lines.push(LineRec {
                index,
                kind: LineKind::Submit,
                rtt,
                bytes: spec.line.len(),
            });
            let id = parse_json(response)
                .ok()
                .filter(|r| r.get("ok") == Some(&Json::Bool(true)))
                .and_then(|r| r.get("id").and_then(Json::as_num));
            match id {
                Some(id) => pending.push(Pending {
                    index,
                    id: id as u64,
                    submitted,
                    next_poll: submitted + rtt,
                }),
                None => {
                    let outcome = if response.contains("\"reason\"") {
                        Outcome::Refused(response.to_string())
                    } else {
                        Outcome::Failed(response.to_string())
                    };
                    log.jobs.push(JobRec {
                        index,
                        id: 0,
                        conn: c,
                        submitted,
                        finished: submitted + rtt,
                        outcome,
                    });
                }
            }
        }
        let Some(due) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.next_poll)
            .map(|(i, _)| i)
        else {
            break;
        };
        let now = Instant::now();
        if pending[due].next_poll > now {
            std::thread::sleep(pending[due].next_poll - now);
            log.idle.push((now, Instant::now()));
        }
        let line = format!("{{\"op\":\"result\",\"id\":{}}}\n", pending[due].id);
        let sent = Instant::now();
        let response = conn.call(&line)?;
        let finished = Instant::now();
        let not_yet = response.starts_with("{\"ok\":false") && response.contains(", no result");
        log.lines.push(LineRec {
            index: pending[due].index,
            kind: if not_yet {
                LineKind::Poll
            } else {
                LineKind::Result
            },
            rtt: finished - sent,
            bytes: line.len(),
        });
        if not_yet {
            let p = &mut pending[due];
            p.next_poll = finished + poll_delay(finished - p.submitted);
            continue;
        }
        let outcome = if response.starts_with("{\"ok\":true") {
            Outcome::Completed {
                response: response.to_string(),
            }
        } else {
            Outcome::Failed(response.to_string())
        };
        let p = pending.swap_remove(due);
        log.jobs.push(JobRec {
            index: p.index,
            id: p.id,
            conn: c,
            submitted: p.submitted,
            finished,
            outcome,
        });
    }
    Ok(log)
}
