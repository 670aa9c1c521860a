//! A deliberately tiny HTTP/1.0 observability endpoint.
//!
//! Each process node serves:
//!
//! * `GET /metrics` — the live [`Registry`] in Prometheus text
//!   exposition format (the same renderer batch runs write to disk).
//! * `GET /timeline` — the wall-clock metric [`Timeline`] as JSON.
//! * `GET /healthz` — `ok` while the runtime is up.
//!
//! No external HTTP stack: the build environment is offline, and the
//! endpoint only needs `GET` + `Content-Length` + `Connection: close`.
//! The runtime's accept loop ([`crate::tcp`]) owns the listener and each
//! connection; `serve` answers the one request a connection carries.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use harmony_common::{Error, Result};
use harmony_metrics::{Registry, Timeline};
use parking_lot::Mutex;

/// Longest request line plus headers taken in. `GET /metrics` with a
/// handful of headers is a few hundred bytes; a client that sends more
/// without ending its head is answered `431` and hung up on.
const MAX_HEAD_BYTES: usize = 8 << 10;

/// Longest a connection may sit between two reads of its head.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

const TEXT: &str = "text/plain; charset=utf-8";

/// Read the request head up to its first blank line, or to end of
/// stream, and return its request line; `None` once more than
/// [`MAX_HEAD_BYTES`] came without a blank line.
fn read_request_line(mut stream: &TcpStream) -> io::Result<Option<String>> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !(head.windows(2).any(|w| w == b"\n\n") || head.windows(3).any(|w| w == b"\n\r\n")) {
        if head.len() > MAX_HEAD_BYTES {
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    Ok(Some(String::from_utf8_lossy(line).into_owned()))
}

/// Answer the one request on `stream`; the caller closes it.
pub(crate) fn serve(stream: &TcpStream, registry: &Registry, timeline: &Mutex<Timeline>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(request_line) = read_request_line(stream) else {
        return;
    };
    let request = request_line.as_deref().map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
    });
    let (status, content_type, body) = match request {
        None => (
            "431 Request Header Fields Too Large",
            TEXT,
            "request head too large\n".to_string(),
        ),
        Some((method, _)) if method != "GET" => (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        ),
        Some((_, "/metrics")) => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        Some((_, "/timeline")) => (
            "200 OK",
            "application/json; charset=utf-8",
            timeline.lock().to_json(),
        ),
        Some((_, "/healthz")) => ("200 OK", TEXT, "ok\n".to_string()),
        Some(_) => ("404 Not Found", TEXT, "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut out = stream;
    let _ = out.write_all(response.as_bytes());
}

/// Minimal blocking HTTP GET against a node's observability endpoint —
/// returns the response body on a `200`.
///
/// # Errors
/// Socket errors, malformed responses, and non-`200` statuses.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String> {
    let mut stream = TcpStream::connect(addr).map_err(Error::Io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(Error::Io)?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: harmony\r\nConnection: close\r\n\r\n"
    )
    .map_err(Error::Io)?;
    stream.flush().map_err(Error::Io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(Error::Io)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::Corruption("http response without header terminator".into()))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(Error::InvalidArgument(format!("GET {path}: {status_line}")));
    }
    Ok(body.to_string())
}
