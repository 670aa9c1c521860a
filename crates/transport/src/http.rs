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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use harmony_common::{Error, Result};
use harmony_metrics::{Registry, Timeline};
use parking_lot::Mutex;

/// Spawn the observability server; returns the bound address and the
/// accept thread, which exits on the first connection it takes once
/// `shutdown` is set.
pub(crate) fn spawn_http(
    addr: SocketAddr,
    registry: Arc<Registry>,
    timeline: Arc<Mutex<Timeline>>,
    shutdown: Arc<AtomicBool>,
) -> Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr).map_err(Error::Io)?;
    let bound = listener.local_addr().map_err(Error::Io)?;
    let thread = thread::Builder::new()
        .name("harmony-http".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let registry = Arc::clone(&registry);
                let timeline = Arc::clone(&timeline);
                let _ = thread::Builder::new()
                    .name("harmony-http-conn".into())
                    .spawn(move || serve_conn(stream, &registry, &timeline));
            }
        })
        .map_err(Error::Io)?;
    Ok((bound, thread))
}

fn serve_conn(stream: TcpStream, registry: &Registry, timeline: &Mutex<Timeline>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers up to the blank line; we don't act on any of them.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                registry.render_prometheus(),
            ),
            "/timeline" => (
                "200 OK",
                "application/json; charset=utf-8",
                timeline.lock().to_json(),
            ),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let mut out = stream;
    let _ = write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = out.flush();
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
