//! Zero-dependency HTTP/1.1 request plane for the scoring server.
//!
//! A second listener (enabled by `--http-port`) serves four endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition of the whole registry
//!   (counters, gauges, histograms with cumulative buckets).
//! * `GET /healthz` — `200 ok`, `200 degraded` (batch ceiling shrunk), or
//!   `503 draining` once shutdown began.
//! * `GET /statusz` — live JSON: queue depth and capacity, effective batch
//!   ceiling, pool state, terminal counters, and the most recent completed
//!   spans from the telemetry ring.
//! * `POST /score` — the same request object the NDJSON plane accepts
//!   (`{"password", "id", "deadline_ms", "trace_id"}`), admitted by the
//!   same `admit` into the same queue and workers. The response body is
//!   the NDJSON response line, so scores are bit-identical across planes
//!   and both feed one reconciliation invariant. What this plane adds is
//!   framing: the UTF-8 body check, a bounded wait for the engine's answer,
//!   and the status mapping (`429` with `Retry-After` when the queue is
//!   full, `503` when draining, `400` for a malformed body).
//!
//! The parser is hand-rolled over `std::net` — request line, headers,
//! `Content-Length` bodies, HTTP/1.1 keep-alive — and caps the head at
//! [`MAX_HEAD_BYTES`] and the body at [`MAX_BODY_BYTES`]. The plane stays
//! up through the drain (see `run_with_listeners`): connections only close
//! once the HTTP stop token fires *and* the socket goes idle, so a monitor
//! holding a keep-alive connection observes `/healthz` flip to draining.
//! Open connections are counted in the `serve.http_connections` gauge.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use pagpass_telemetry::render_prometheus;

use crate::control::CancelToken;

use super::tcp;
use super::{admit, OpenConn, ScoreOutcome, Shared, READ_POLL};

/// Hard cap on one request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on one request body; matches the NDJSON line cap.
const MAX_BODY_BYTES: usize = tcp::MAX_LINE_BYTES;

/// How long `POST /score` waits for the engine before giving up; far past
/// any plausible drain, so hitting it indicates a wedged server.
const SCORE_WAIT: Duration = Duration::from_secs(120);

/// Recent-span window returned by `GET /statusz`.
const STATUSZ_SPANS: usize = 128;

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Serves one connection: parse requests off the socket and answer them
/// until the client goes away, an error closes the stream, or the stop
/// token fires *and* the socket goes idle for one read-poll (so requests
/// already in flight at stop time are still answered).
pub(super) fn handle_connection(mut stream: TcpStream, shared: &Shared<'_>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // A response goes out as two writes, head then body: without this the
    // body waits for the client's delayed ACK of the head. A socket that
    // refuses the option is still served.
    let _ = stream.set_nodelay(true);
    let _open = OpenConn::new(&shared.http_connections, &shared.metrics.http_connections);
    serve_connection(&mut stream, shared);
}

fn serve_connection(stream: &mut TcpStream, shared: &Shared<'_>) {
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match take_request(&mut acc) {
            Ok(Some(req)) => {
                shared.metrics.http_requests.inc();
                let keep_alive = req.keep_alive;
                if !respond_to(stream, &req, shared) || !keep_alive {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(status) => {
                let _ = write_response(stream, status, "text/plain", b"bad request\n", false, None);
                return;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => acc.extend_from_slice(&buf[..n]),
            // Interrupted: a signal (e.g. the SIGTERM that starts the
            // drain) landed on this thread mid-read; retry, don't close
            // the monitor's connection.
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle. Once the post-drain stop fired, an idle connection
                // has nothing left to wait for.
                if shared.http_stop.is_cancelled() && acc.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Extracts one complete request from the front of `acc`, if present.
/// Returns `Err(status_line)` for malformed or oversized requests.
fn take_request(acc: &mut Vec<u8>) -> Result<Option<HttpRequest>, &'static str> {
    let Some(head_end) = find_head_end(acc) else {
        if acc.len() > MAX_HEAD_BYTES {
            return Err("431 Request Header Fields Too Large");
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err("431 Request Header Fields Too Large");
    }
    let head = String::from_utf8_lossy(&acc[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err("400 Bad Request");
    };
    if !version.starts_with("HTTP/1.") {
        return Err("505 HTTP Version Not Supported");
    }
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| "400 Bad Request")?;
        } else if name == "connection" {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                keep_alive = false;
            } else if v.contains("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("413 Content Too Large");
    }
    let body_start = head_end + 4;
    if acc.len() < body_start + content_length {
        return Ok(None); // Body still in flight.
    }
    let body = acc[body_start..body_start + content_length].to_vec();
    acc.drain(..body_start + content_length);
    Ok(Some(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body,
        keep_alive,
    }))
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(acc: &[u8]) -> Option<usize> {
    acc.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Routes one request. Returns false when the connection must close (a
/// write failed).
fn respond_to(stream: &mut TcpStream, req: &HttpRequest, shared: &Shared<'_>) -> bool {
    let (status, content_type, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&shared.tel.snapshot()),
        ),
        ("GET", "/healthz") => {
            let (status, body) = if shared.cancel.is_cancelled() {
                ("503 Service Unavailable", "draining\n")
            } else if shared.degrade.effective_max() < shared.cfg.max_batch.max(1) {
                ("200 OK", "degraded\n")
            } else {
                ("200 OK", "ok\n")
            };
            (status, "text/plain", body.to_string())
        }
        ("GET", "/statusz") => ("200 OK", "application/json", render_statusz(shared)),
        ("POST", "/score") => return score_over_http(stream, req, shared),
        (_, "/metrics" | "/healthz" | "/statusz" | "/score") => (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write_response(
        stream,
        status,
        content_type,
        body.as_bytes(),
        req.keep_alive,
        None,
    )
}

/// Admits one `POST /score` body — the NDJSON request object — waits for
/// the engine's answer, and maps the outcome to an HTTP status. The body
/// of every answered request is the exact NDJSON response line,
/// bit-identical scores included.
fn score_over_http(stream: &mut TcpStream, req: &HttpRequest, shared: &Shared<'_>) -> bool {
    let (outcome_tx, outcome_rx) = mpsc::sync_channel(1);
    // The handler thread may have timed out and gone; dropping the outcome
    // then is fine — terminal accounting already happened.
    let respond = move |reply, outcome| {
        let _ = outcome_tx.send((reply, outcome));
    };
    let admitted = match std::str::from_utf8(&req.body) {
        Ok(text) => admit(shared, text.trim(), CancelToken::new(), respond),
        Err(_) => {
            shared.metrics.bad_requests.inc();
            Err("bad request: body is not UTF-8".to_string())
        }
    };
    if let Err(why) = admitted {
        let body = tcp::render_error(&why);
        return write_response(
            stream,
            "400 Bad Request",
            "application/json",
            body.as_bytes(),
            req.keep_alive,
            None,
        );
    }
    let Ok((reply, outcome)) = outcome_rx.recv_timeout(SCORE_WAIT) else {
        return write_response(
            stream,
            "504 Gateway Timeout",
            "text/plain",
            b"scoring timed out\n",
            false,
            None,
        );
    };
    let (status, retry_after) = match &outcome {
        ScoreOutcome::Rejected { draining: true, .. } => ("503 Service Unavailable", None),
        ScoreOutcome::Rejected {
            draining: false,
            retry_after_ms,
        } => ("429 Too Many Requests", Some(*retry_after_ms)),
        _ => ("200 OK", None),
    };
    let body = reply.render(&outcome);
    reply.timed_write(&shared.metrics, &shared.tracer, || {
        write_response(
            stream,
            status,
            "application/json",
            body.as_bytes(),
            req.keep_alive,
            retry_after,
        )
    })
}

/// Live server state as one JSON document.
fn render_statusz(shared: &Shared<'_>) -> String {
    use std::fmt::Write as _;
    let m = &shared.metrics;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"draining\":{},\"queue_depth\":{},\"queue_cap\":{},\
         \"effective_max_batch\":{},\"max_batch\":{},\"sessions\":{},\
         \"connections\":{},\"http_connections\":{},\
         \"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{},\
         \"rejected\":{},\"lost\":{},\"recent_spans\":[",
        shared.cancel.is_cancelled(),
        shared.queue.len(),
        shared.cfg.queue_cap,
        shared.degrade.effective_max(),
        shared.cfg.max_batch.max(1),
        shared.cfg.sessions.max(1),
        m.connections.get() as i64,
        m.http_connections.get() as i64,
        m.admitted.get(),
        m.completed.get(),
        m.shed.get(),
        m.failed.get(),
        m.rejected.get(),
        m.lost.get(),
    );
    let spans = shared.tel.spans().snapshot();
    let skip = spans.len().saturating_sub(STATUSZ_SPANS);
    for (i, s) in spans.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{},\"name\":",
            s.trace_id, s.span_id, s.parent_span_id
        );
        pagpass_telemetry::write_json_str(&mut out, &s.name);
        let _ = write!(out, ",\"start_ms\":{},\"ms\":", s.start_ms);
        pagpass_telemetry::write_json_f64(&mut out, s.dur_ms);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Writes one response with `Content-Length` framing. Returns false on a
/// write error (caller closes the connection).
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after_ms: Option<u64>,
) -> bool {
    use std::fmt::Write as _;
    let mut head = String::with_capacity(160);
    let _ = write!(
        head,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(ms) = retry_after_ms {
        // Retry-After is whole seconds; round the hint up.
        let _ = write!(head, "Retry-After: {}\r\n", ms.div_ceil(1000).max(1));
    }
    let _ = write!(
        head,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    stream.write_all(head.as_bytes()).is_ok() && stream.write_all(body).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(acc: &mut Vec<u8>, s: &str) {
        acc.extend_from_slice(s.as_bytes());
    }

    #[test]
    fn parses_a_get_request_and_keep_alive_defaults() {
        let mut acc = Vec::new();
        push(&mut acc, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let req = take_request(&mut acc).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
        assert!(acc.is_empty());

        let mut acc = Vec::new();
        push(&mut acc, "GET / HTTP/1.0\r\n\r\n");
        let req = take_request(&mut acc).unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");

        let mut acc = Vec::new();
        push(&mut acc, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        let req = take_request(&mut acc).unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn parses_content_length_bodies_and_pipelining() {
        let mut acc = Vec::new();
        push(
            &mut acc,
            "POST /score HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /healthz HTTP/1.1\r\n\r\n",
        );
        let first = take_request(&mut acc).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"body");
        let second = take_request(&mut acc).unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(take_request(&mut acc).unwrap().is_none());
    }

    #[test]
    fn incomplete_requests_wait_for_more_bytes() {
        let mut acc = Vec::new();
        push(
            &mut acc,
            "POST /score HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal",
        );
        assert!(take_request(&mut acc).unwrap().is_none());
        push(&mut acc, "f-and-rest");
        // 3 + 10 > 10: the body completes at exactly 10 bytes.
        let req = take_request(&mut acc).unwrap().unwrap();
        assert_eq!(req.body, b"half-and-r");
        assert_eq!(acc, b"est");
    }

    #[test]
    fn oversized_and_malformed_requests_are_rejected() {
        let mut acc = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(take_request(&mut acc).is_err());

        let mut acc = Vec::new();
        push(&mut acc, "garbage\r\n\r\n");
        assert!(take_request(&mut acc).is_err());

        let mut acc = Vec::new();
        push(
            &mut acc,
            &format!(
                "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        );
        assert!(take_request(&mut acc).is_err());

        let mut acc = Vec::new();
        push(&mut acc, "GET / HTTP/2\r\n\r\n");
        assert!(take_request(&mut acc).is_err());
    }
}
