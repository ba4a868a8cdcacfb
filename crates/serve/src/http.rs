//! The workspace's one HTTP server — [`serve_http`] for `grm serve`
//! and [`serve_metrics`] for `grm mine --metrics-listen` — plus the
//! tiny client the CLI verbs and the load drill use.
//!
//! Request heads are read under a byte cap, bodies only up to a
//! bounded `Content-Length`, unknown routes get 404, wrong methods 405
//! with `Allow`, and a malformed request can never wedge the accept
//! loop (each connection is handled on its own thread with read
//! timeouts). Routes of [`serve_http`]:
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

use grm_obs::{MetricsHub, EXPOSITION_CONTENT_TYPE};

use crate::job::JobSpec;
use crate::service::Service;

/// Byte cap on a request head (request line + headers + blank line).
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

/// A parsed request head: `path` is the target without its query
/// string, `len` the head's bytes up to and including its blank line.
#[derive(Debug, PartialEq)]
struct Head {
    method: String,
    path: String,
    content_length: usize,
    len: usize,
}

fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|pos| pos + 4)
}

/// Parses the head at the start of `bytes`, everything read from a
/// connection so far. The head must end in a blank line within
/// [`HEAD_CAP`] bytes and open with a request line `METHOD TARGET
/// HTTP/x` whose method and target are not empty. `Err` is the status
/// and message to answer with.
fn parse_head(bytes: &[u8]) -> Result<Head, (u16, String)> {
    let Some(len) = head_end(bytes).filter(|&len| len <= HEAD_CAP) else {
        return Err((400, format!("request head is torn or over the {HEAD_CAP} byte cap")));
    };
    let text = String::from_utf8_lossy(&bytes[..len]);
    let mut lines = text.lines();
    let mut parts = lines.next().unwrap_or_default().split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err((400, "malformed request line".into()));
    };
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/") {
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
    let path = target.split('?').next().unwrap_or(target);
    Ok(Head { method: method.to_owned(), path: path.to_owned(), content_length, len })
}

/// Reads one request from `stream`: the head up to its blank line or
/// the head cap, then the body up to its `Content-Length`. `Err` is
/// the HTTP status + message to answer with.
fn read_request(stream: &mut TcpStream) -> Result<Request, (u16, String)> {
    let mut buf = [0u8; 1024];
    // Appends the next read to `bytes`; `false` at the end of the
    // stream.
    let mut more = |bytes: &mut Vec<u8>| {
        let n = stream.read(&mut buf).map_err(|e| (400, format!("read error: {e}")))?;
        bytes.extend_from_slice(&buf[..n]);
        Ok::<_, (u16, String)>(n > 0)
    };
    let mut bytes = Vec::new();
    while head_end(&bytes).is_none() && bytes.len() < HEAD_CAP && more(&mut bytes)? {}
    let head = parse_head(&bytes)?;
    let mut body = bytes.split_off(head.len);
    while body.len() < head.content_length {
        if !more(&mut body)? {
            return Err((400, "connection closed mid-body".into()));
        }
    }
    body.truncate(head.content_length);
    Ok(Request {
        method: head.method,
        path: head.path,
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

/// Answers one connection with `answer`'s `(status, content type,
/// body)` or the reader's 400/413, in one write; a 405 names `allow`
/// (RFC 9110 §15.5.6).
fn exchange(
    stream: &mut TcpStream,
    allow: &str,
    answer: impl FnOnce(&Request) -> (u16, &'static str, String),
) {
    let (status, content_type, body) = match read_request(stream) {
        Ok(request) => answer(&request),
        Err((status, message)) => (status, JSON, error_body("bad_request", &message)),
    };
    let allow = if status == 405 { format!("Allow: {allow}\r\n") } else { String::new() };
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
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
    let stop = Arc::new(AtomicBool::new(false));
    let drained = Arc::clone(&stop);
    accept_until(listener, &stop, move |stream| {
        let mut drain = false;
        exchange(stream, "GET, POST", |request| {
            let (status, body, then_drain) = route(&service, request);
            drain = then_drain;
            let exposition = status == 200 && request.path == "/metrics";
            (status, if exposition { EXPOSITION_CONTENT_TYPE } else { JSON }, body)
        });
        if drain {
            // Drain after answering so the client is not held for the
            // whole drain.
            service.drain();
            drained.store(true, Ordering::Relaxed);
        }
    })
}

/// Serves `hub`'s exposition on `listener` until `stop` is set: `GET
/// /metrics` (query string allowed) gets it, any other path 404 and
/// any other method 405. Thread per connection; blocks the calling
/// thread.
pub fn serve_metrics(
    hub: Arc<MetricsHub>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    accept_until(listener, &stop, move |stream| {
        exchange(stream, "GET", |request| match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/metrics") => (200, EXPOSITION_CONTENT_TYPE, hub.exposition()),
            ("GET", _) => (404, JSON, error_body("not_found", "metrics live at /metrics")),
            _ => (405, JSON, error_body("method_not_allowed", "use GET")),
        })
    })
}

/// The accept loop: polls `listener` every 25 ms until `stop` is set,
/// runs `connection` on each stream on its own thread under a 5 s read
/// timeout, and returns once every connection thread has finished.
fn accept_until(
    listener: TcpListener,
    stop: &AtomicBool,
    connection: impl Fn(&mut TcpStream) + Clone + Send + 'static,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let connection = connection.clone();
                handles.push(std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    connection(&mut stream);
                }));
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(method, path)` of the request line of `bytes` when it is well
    /// formed: a blank line ends the head within the cap, and its first
    /// line is a method, a target and an `HTTP/` version split by
    /// single spaces, the first two not empty.
    fn request_line(bytes: &[u8]) -> Option<(String, String)> {
        let end = bytes.windows(4).position(|w| w == b"\r\n\r\n").filter(|e| e + 4 <= HEAD_CAP)?;
        let line = bytes[..end].split(|&b| b == b'\n').next()?;
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        match line.split(|&b| b == b' ').collect::<Vec<_>>()[..] {
            [method, target, version]
                if !method.is_empty() && !target.is_empty() && version.starts_with(b"HTTP/") =>
            {
                let path = target.split(|&b| b == b'?').next()?;
                let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
                Some((text(method), text(path)))
            }
            _ => None,
        }
    }

    /// Arbitrary bytes, and heads built from request-line pieces that
    /// are each wrong, doubled or missing one time in four.
    fn heads() -> impl Strategy<Value = Vec<u8>> {
        let piece = |good: &'static str, bad: &'static str| prop_oneof![good, good, good, bad];
        let line = (
            piece("[A-Za-z]{1,4}", "[A-Za-z ]{0,2}"),
            piece(" ", "[ ]{0,2}"),
            piece("/[a-zé?=]{0,5}", "[/a-z]{0,1}"),
            piece(" ", "[ \r]{0,2}"),
            piece("HTTP/[0-9.]{0,3}", "[SPDYHT/3]{0,6}"),
            piece("\r\nHost: h\r\n\r\n", "[ a-z:0-9\\r\\n]{0,16}"),
        )
            .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f].concat().into_bytes())
            .boxed();
        prop_oneof![prop::collection::vec(any::<u8>(), 0..48), line.clone(), line.clone(), line]
    }

    #[test]
    fn rejected_heads_get_their_status() {
        let over_cap = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(HEAD_CAP));
        let too_long = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", BODY_CAP + 1);
        for (head, status) in [
            ("", 400),
            ("GET /metrics HTTP/1.1", 400), // torn: no blank line
            ("GET\r\n\r\n", 400),
            ("GET /metrics\r\n\r\n", 400),
            ("GET /metrics HTTP/1.1 extra\r\n\r\n", 400),
            ("GET /metrics SPDY/3\r\n\r\n", 400),
            (" /metrics HTTP/1.1\r\n\r\n", 400), // empty method
            (&over_cap, 400),
            ("POST /jobs HTTP/1.1\r\nContent-Length: two\r\n\r\n", 400),
            (&too_long, 413),
        ] {
            let got = parse_head(head.as_bytes()).expect_err("a rejected head parsed").0;
            assert_eq!(got, status, "{head:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn only_well_formed_request_lines_parse(bytes in heads()) {
            match parse_head(&bytes) {
                Ok(head) => prop_assert_eq!(Some((head.method, head.path)), request_line(&bytes)),
                Err((status, _)) => prop_assert_eq!((status, request_line(&bytes)), (400, None)),
            }
        }

        #[test]
        fn generated_requests_parse_back(
            method in "[A-Z]{1,7}",
            path in "/[a-z0-9/]{0,12}",
            query in prop_oneof![Just(String::new()), "[?][a-z=&]{0,6}"],
            content_length in 0usize..=BODY_CAP,
        ) {
            let head = format!("{method} {path}{query} HTTP/1.1\r\ncontent-length: {content_length}\r\n\r\n");
            let parsed = parse_head(head.as_bytes()).expect("a generated head parses");
            prop_assert_eq!(parsed, Head { method, path, content_length, len: head.len() });
        }
    }
}
