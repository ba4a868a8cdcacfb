//! Minimal std-only HTTP front end for the job service, plus the
//! tiny client the CLI verbs and the load drill use.
//!
//! Same defensive posture as the hardened metrics listener: request
//! heads are read under a byte cap, bodies only up to a bounded
//! `Content-Length`, unknown routes get 404, wrong methods 405, and
//! a malformed request can never wedge the accept loop (each
//! connection is handled on its own thread with read timeouts).
//!
//! Routes:
//!
//! | route            | method | semantics                                   |
//! |------------------|--------|---------------------------------------------|
//! | `/jobs`          | POST   | submit a [`JobSpec`]; 202 `{"job": id}`     |
//! | `/jobs/<id>`     | GET    | job status JSON                             |
//! | `/stats`         | GET    | [`crate::ServeStats`] JSON                  |
//! | `/healthz`       | GET    | liveness/readiness (503 while draining)     |
//! | `/metrics`       | GET    | Prometheus exposition from the metrics hub  |
//! | `/shutdown`      | POST   | graceful drain, then the server exits       |

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grm_obs::EXPOSITION_CONTENT_TYPE;

use crate::job::JobSpec;
use crate::service::Service;

/// Byte cap on a request head (request line + headers).
const HEAD_CAP: usize = 8 * 1024;
/// Byte cap on a request body.
const BODY_CAP: usize = 64 * 1024;

/// One parsed (and capped) HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// Reads and parses one request from `stream` under the head/body
/// caps. `Err` is the HTTP status + message to answer with.
fn read_request(stream: &mut TcpStream) -> Result<Request, (u16, String)> {
    let mut head = Vec::new();
    let mut body = Vec::new();
    let mut buf = [0u8; 1024];
    let split_at = loop {
        if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if head.len() >= HEAD_CAP {
            return Err((400, "request head exceeds cap".into()));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err((400, "connection closed mid-request".into())),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err((400, format!("read error: {e}"))),
        }
    };
    body.extend_from_slice(&head[split_at + 4..]);
    head.truncate(split_at);
    let head_text = String::from_utf8_lossy(&head).to_string();
    let mut lines = head_text.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err((400, "malformed request line".into()));
    };
    if !version.starts_with("HTTP/") || parts.next().is_some() {
        return Err((400, "malformed request line".into()));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| (400, "bad Content-Length".to_owned()))?;
            }
        }
    }
    if content_length > BODY_CAP {
        return Err((413, format!("body exceeds the {BODY_CAP} byte cap")));
    }
    while body.len() < content_length {
        match stream.read(&mut buf) {
            Ok(0) => return Err((400, "connection closed mid-body".into())),
            Ok(n) => body.extend_from_slice(&buf[..n]),
            Err(e) => return Err((400, format!("read error: {e}"))),
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_owned(),
        path: target.split('?').next().unwrap_or(target).to_owned(),
        body: String::from_utf8_lossy(&body).to_string(),
    })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Content type of every body but the `/metrics` exposition.
const JSON: &str = "application/json";

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status_text(status),
        body.len(),
        body
    );
}

/// JSON string literal (quotes + escapes) for hand-rolled bodies —
/// the vendored serde_json has no `json!` macro.
fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).unwrap_or_else(|_| "\"\"".into())
}

fn error_body(reason: &str, message: &str) -> String {
    format!("{{\"error\":{},\"reason\":{}}}", json_str(message), json_str(reason))
}

/// Routes one request. Split from the socket loop so tests can drive
/// it with a synthetic [`Request`]. Returns `(status, body)`; the
/// bool asks the caller to start a graceful drain after responding.
pub fn route(service: &Arc<Service>, request: &Request) -> (u16, String, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => match serde_json::from_str::<JobSpec>(&request.body) {
            Err(e) => (400, error_body("invalid", &format!("bad job spec: {e}")), false),
            Ok(spec) => match service.submit(spec) {
                Ok(id) => (202, format!("{{\"job\":{id}}}"), false),
                Err(rejection) => (
                    rejection.http_status(),
                    error_body(rejection.reason(), &rejection.message()),
                    false,
                ),
            },
        },
        ("GET", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>().ok().and_then(|id| service.job(id)) {
                Some(status) => (200, serde_json::to_string(&status).unwrap_or_default(), false),
                None => (404, error_body("not_found", "no such job"), false),
            }
        }
        ("GET", "/stats") => {
            (200, serde_json::to_string(&service.stats()).unwrap_or_default(), false)
        }
        ("GET", "/healthz") => {
            let stats = service.stats();
            let status = if stats.draining { 503 } else { 200 };
            let body = format!(
                "{{\"status\":\"{}\",\"queue_depth\":{},\"queue_depth_limit\":{},\"running\":{}}}",
                if stats.draining { "draining" } else { "ok" },
                stats.queue_depth,
                stats.queue_depth_limit,
                stats.running
            );
            (status, body, false)
        }
        ("GET", "/metrics") => match service.exposition() {
            Some(text) => (200, text, false),
            None => (404, error_body("not_found", "no metrics hub attached"), false),
        },
        ("POST", "/shutdown") => {
            (202, error_body("draining", "draining; server exits when idle"), true)
        }
        ("GET", _) | ("POST", _) => (404, error_body("not_found", "unknown route"), false),
        _ => (405, error_body("method_not_allowed", "use GET or POST"), false),
    }
}

/// Serves `service` on `listener` until a `POST /shutdown` drain
/// completes. Thread per connection; blocks the calling thread.
pub fn serve_http(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    match read_request(&mut stream) {
                        Err((status, message)) => {
                            respond(&mut stream, status, JSON, &error_body("bad_request", &message))
                        }
                        Ok(request) => {
                            let (status, body, drain) = route(&service, &request);
                            let exposition = status == 200 && request.path == "/metrics";
                            let content_type =
                                if exposition { EXPOSITION_CONTENT_TYPE } else { JSON };
                            respond(&mut stream, status, content_type, &body);
                            if drain {
                                // Drain after answering so the client
                                // is not held for the whole drain.
                                service.drain();
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
        // Reap finished connection threads so a long-lived server
        // does not accumulate handles.
        handles.retain(|h| !h.is_finished());
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Tiny blocking HTTP client: one request, one response. Returns
/// `(status, body)`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed response: {response:.60}")))?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((status, body))
}
