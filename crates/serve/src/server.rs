//! The TCP front door: newline-delimited JSON over `std::net`.
//!
//! One listener thread accepts connections (non-blocking accept with a
//! short poll sleep, so shutdown is prompt); each connection gets a thread
//! reading request lines and writing response lines via
//! [`crate::protocol::handle_line`]. At most [`MAX_CONNECTIONS`] connections
//! are open at once, and a line longer than [`MAX_LINE_BYTES`] is refused;
//! either way the client gets one structured error and its connection is
//! closed, so threads and buffered bytes stay bounded. The server is deliberately boring —
//! all scheduling intelligence lives in the [`Service`]; this layer only
//! moves lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::catalog::Catalog;
use crate::protocol::{
    handle_line, line_too_long, too_many_connections, MAX_CONNECTIONS, MAX_LINE_BYTES,
};
use crate::service::Service;

/// A running NDJSON server over a [`Service`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `service` and `catalog`.
    pub fn start(
        addr: &str,
        service: Arc<Service>,
        catalog: Arc<Catalog>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, service, catalog, accept_stop))
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested (by [`Server::stop`] or a
    /// client's `shutdown` op).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Blocks until the accept loop exits (a client sent `shutdown`, or
    /// another thread called [`Server::stop`]).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            handle.join().expect("accept thread panicked");
        }
    }

    /// Requests the accept loop to exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<Service>,
    catalog: Arc<Catalog>,
    stop: Arc<AtomicBool>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                reap(&mut connections);
                if connections.len() >= MAX_CONNECTIONS {
                    refuse(stream);
                    continue;
                }
                // A second handle to answer on if the thread cannot start
                // (the spawn consumes the first).
                let fallback = stream.try_clone();
                let service = Arc::clone(&service);
                let catalog = Arc::clone(&catalog);
                let stop = Arc::clone(&stop);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || serve_connection(stream, &service, &catalog, &stop));
                match (spawned, fallback) {
                    (Ok(handle), _) => connections.push(handle),
                    (Err(_), Ok(stream)) => refuse(stream),
                    (Err(_), Err(_)) => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        reap(&mut connections);
    }
    for handle in connections {
        join_connection(handle);
    }
}

/// Joins the connection threads that have finished.
fn reap(connections: &mut Vec<JoinHandle<()>>) {
    let (done, live) = std::mem::take(connections)
        .into_iter()
        .partition(|handle| handle.is_finished());
    *connections = live;
    for handle in done {
        join_connection(handle);
    }
}

/// Joins one connection thread, reporting a panic instead of dropping it.
fn join_connection(handle: JoinHandle<()>) {
    if let Err(panic) = handle.join() {
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        eprintln!("quipper-serve: a connection thread panicked: {message}");
    }
}

/// Answers a connection the server will not serve with one structured
/// error line, then closes it.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = stream
        .write_all(too_many_connections().response.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
}

fn serve_connection(stream: TcpStream, service: &Service, catalog: &Catalog, stop: &AtomicBool) {
    // Blocking per-connection reads with a timeout, so a silent client
    // doesn't pin the thread past server shutdown.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, not a `String`: `read_until` keeps whatever arrived before
    // a read timeout, where `read_line` drops a partial multi-byte
    // character along with the error. Each read may take only up to one
    // byte past `MAX_LINE_BYTES`, so the buffer stays bounded.
    let mut line = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client hung up
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let response = line_too_long().response;
                let _ = writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                return;
            }
            Ok(_) => {
                let request = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => None,
                    Ok(text) => Some(handle_line(service, catalog, text)),
                    Err(_) => return, // not UTF-8: not a protocol client
                };
                line.clear();
                let Some(handled) = request else { continue };
                // Raise the stop flag before answering: a one-shot client
                // may close right after sending `shutdown`, and a failed
                // response write must not swallow the request.
                if handled.shutdown {
                    stop.store(true, Ordering::Relaxed);
                }
                if writer
                    .write_all(handled.response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return;
                }
                if handled.shutdown {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Any partial line stays in `line` until its newline arrives.
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use quipper_exec::Engine;
    use quipper_trace::{parse_json, Json};

    fn client_round_trip(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        for line in lines {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            responses.push(parse_json(response.trim()).unwrap());
        }
        responses
    }

    #[test]
    fn serves_a_submit_result_session_over_tcp() {
        let service = Arc::new(Service::start(
            Engine::new(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();

        let responses = client_round_trip(
            addr,
            &[
                r#"{"op":"ping"}"#,
                r#"{"op":"submit","circuit":"ghz3","shots":16}"#,
            ],
        );
        assert_eq!(responses[0].get("pong"), Some(&Json::Bool(true)));
        let id = responses[1].get("id").and_then(Json::as_num).unwrap() as u64;
        service.drain();

        let responses = client_round_trip(addr, &[&format!(r#"{{"op":"result","id":{id}}}"#)]);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));

        // A second connection still works, then shutdown stops the loop.
        let responses = client_round_trip(addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(responses[0].get("stopping"), Some(&Json::Bool(true)));
        server.join();
        service.shutdown();
    }

    /// A request that arrives in pieces straddling the connection's read
    /// timeout is reassembled, not truncated to its tail.
    #[test]
    fn a_line_split_across_the_read_timeout_is_kept_whole() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(br#"{"op":"pi"#).unwrap();
        writer.flush().unwrap();
        // Twice the server's 200 ms read timeout.
        std::thread::sleep(Duration::from_millis(400));
        writer.write_all(b"ng\"}\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let json = parse_json(response.trim()).unwrap();
        assert_eq!(json.get("pong"), Some(&Json::Bool(true)), "{response}");
        server.stop();
        server.join();
        service.shutdown();
    }

    /// A request line longer than `MAX_LINE_BYTES` is answered with one
    /// structured error and the connection is closed, instead of being
    /// buffered without bound; other connections are unaffected.
    #[test]
    fn an_overlong_request_line_is_refused_and_the_connection_closed() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(&vec![b'x'; crate::protocol::MAX_LINE_BYTES + 1])
            .unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let json = parse_json(response.trim()).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)), "{response}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");

        let responses = client_round_trip(server.local_addr(), &[r#"{"op":"ping"}"#]);
        assert_eq!(responses[0].get("pong"), Some(&Json::Bool(true)));
        server.stop();
        server.join();
        service.shutdown();
    }

    /// Connections beyond `MAX_CONNECTIONS` get one structured error and are
    /// closed instead of each pinning another OS thread; once a connection
    /// ends, a new client is served again.
    #[test]
    fn connections_over_the_cap_are_refused_and_closed() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();
        let mut held: Vec<TcpStream> = (0..crate::protocol::MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();

        let extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(extra);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let json = parse_json(response.trim()).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)), "{response}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");

        // Freeing a slot lets the next client in (the accept loop reaps the
        // finished thread before it counts).
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let json = parse_json(response.trim()).unwrap();
            if json.get("pong") == Some(&Json::Bool(true)) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "{response}");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(held);
        server.stop();
        server.join();
        service.shutdown();
    }

    /// A one-shot client (`printf '{"op":"shutdown"}' | nc`) closes the
    /// socket without reading the response; the failed response write must
    /// not swallow the shutdown request.
    #[test]
    fn shutdown_from_a_client_that_hangs_up_immediately() {
        let service = Arc::new(Service::start(Engine::new(), ServiceConfig::default()));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .unwrap();
        let addr = server.local_addr();

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            // Drop without reading: the server's response write hits a
            // closed peer.
        }
        server.join();
        service.shutdown();
    }
}
