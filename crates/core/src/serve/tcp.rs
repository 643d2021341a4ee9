//! Newline-delimited-JSON request plane for the scoring server.
//!
//! One TCP connection carries many requests: each line is a JSON object
//! `{"password": "...", "id": 7, "deadline_ms": 250, "trace_id": 9}`
//! (`id`, `deadline_ms`, and `trace_id` optional) and each response is one
//! JSON line tagged with the request's `id` when it had one. Every line
//! goes through the admission step both planes share (`admit` in the
//! parent module): an explicit `deadline_ms` takes the high-priority lane,
//! and a client-supplied `trace_id` names the request's trace (echoed back
//! as `"trace_id"` on the response).
//!
//! What this plane owns is framing. Per connection the server runs a
//! reader thread and a writer thread joined by a bounded channel, so one
//! slow client can neither stall a scoring worker nor buffer responses
//! unboundedly: when the client stops draining its socket the channel
//! fills and further responses for that connection are dropped (counted as
//! `serve.dropped_responses`), never queued without limit. A malformed
//! line is answered immediately with an error and is never admitted; a
//! line longer than [`MAX_LINE_BYTES`] closes the connection.
//!
//! [`parse_request`] and [`render_response`] define the request object and
//! the response line for both planes: an HTTP `POST /score` body is a
//! request object, and its response body is the response line.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

use pagpass_telemetry::{parse_json, write_json_f64, write_json_str, JsonValue};

use crate::control::CancelToken;

use super::engine::{ScoreOutcome, ServeMetrics};
use super::{admit, OpenConn, Reply, Shared, READ_POLL};

/// Hard cap on one request line; beyond this the connection is closed.
pub(super) const MAX_LINE_BYTES: usize = 64 * 1024;

/// Responses buffered per connection before a slow client starts losing
/// them.
const RESPONSE_CHANNEL_DEPTH: usize = 1024;

/// Serves one accepted connection: a reader/writer thread pair spawned
/// into `scope`. The connection counts as open, and holds up the drain,
/// from here until its reader exits.
pub(super) fn spawn_connection<'scope>(
    scope: &'scope Scope<'scope, '_>,
    stream: TcpStream,
    shared: &'scope Shared<'scope>,
) {
    // Each response is one small write; under Nagle's algorithm it waits
    // for the client's delayed ACK whenever an earlier one is unacknowledged.
    // A socket that refuses the option is still served.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (resp_tx, resp_rx) = mpsc::sync_channel::<String>(RESPONSE_CHANNEL_DEPTH);
    let open = OpenConn::new(&shared.connections, &shared.metrics.connections);
    scope.spawn(move || writer_loop(write_half, resp_rx));
    scope.spawn(move || {
        reader_loop(stream, resp_tx, shared);
        drop(open);
    });
}

/// Drains rendered responses onto the socket until every sender (the
/// reader plus all in-flight responders) is gone. A write error stops
/// writing; senders then observe the closed channel and count drops.
fn writer_loop(mut stream: TcpStream, responses: Receiver<String>) {
    while let Ok(line) = responses.recv() {
        if stream.write_all(line.as_bytes()).is_err() {
            return;
        }
    }
}

/// Reads request lines until the client disconnects or the server drains.
/// Client disconnect cancels the connection token so queued requests are
/// shed instead of scored for nobody; server drain leaves the token alone
/// so admitted requests still complete and flush.
fn reader_loop(mut stream: TcpStream, resp_tx: SyncSender<String>, shared: &Shared<'_>) {
    let conn_cancel = CancelToken::new();
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if shared.cancel.is_cancelled() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                conn_cancel.cancel();
                return;
            }
            Ok(n) => {
                acc.extend_from_slice(&buf[..n]);
                while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = acc.drain(..=pos).collect();
                    handle_line(&line[..pos], &resp_tx, &conn_cancel, shared);
                }
                if acc.len() > MAX_LINE_BYTES {
                    shared.metrics.bad_requests.inc();
                    send_response(
                        &resp_tx,
                        &shared.metrics,
                        render_error("request line exceeds 64 KiB"),
                    );
                    conn_cancel.cancel();
                    return;
                }
            }
            // Interrupted: a signal (e.g. the SIGTERM that starts the
            // drain) landed on this thread mid-read; retry, don't drop
            // the connection.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                conn_cancel.cancel();
                return;
            }
        }
    }
}

/// Admits one request line; its answer, or the parse error, goes to the
/// connection's writer as one response line. Blank lines are skipped.
fn handle_line(
    raw: &[u8],
    resp_tx: &SyncSender<String>,
    conn_cancel: &CancelToken,
    shared: &Shared<'_>,
) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let responder = {
        let resp_tx = resp_tx.clone();
        let metrics = Arc::clone(&shared.metrics);
        let tracer = shared.tracer.clone();
        move |reply: Reply, outcome: ScoreOutcome| {
            reply.timed_write(&metrics, &tracer, || {
                send_response(&resp_tx, &metrics, reply.render(&outcome));
            });
        }
    };
    if let Err(why) = admit(shared, line, conn_cancel.clone(), responder) {
        send_response(resp_tx, &shared.metrics, render_error(&why));
    }
}

/// Extracts `(password, id, deadline, trace_id)` from one request object.
#[allow(clippy::type_complexity)]
pub(super) fn parse_request(
    line: &str,
) -> Result<(String, Option<u64>, Option<Duration>, Option<u64>), String> {
    let value = parse_json(line).map_err(|e| format!("bad request: {e}"))?;
    let JsonValue::Obj(_) = &value else {
        return Err("bad request: expected a JSON object".to_string());
    };
    let password = value
        .get("password")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "bad request: missing string field \"password\"".to_string())?
        .to_string();
    let id = value
        .get("id")
        .and_then(JsonValue::as_f64)
        .map(|v| v.max(0.0) as u64);
    let deadline = value
        .get("deadline_ms")
        .and_then(JsonValue::as_f64)
        .map(|ms| Duration::from_millis(ms.max(0.0) as u64));
    let trace_id = value
        .get("trace_id")
        .and_then(JsonValue::as_f64)
        .map(|v| v.max(0.0) as u64);
    Ok((password, id, deadline, trace_id))
}

/// Hands a rendered response line to the connection's writer, counting it
/// as dropped when the slow-client buffer is full or the writer is gone.
fn send_response(resp_tx: &SyncSender<String>, metrics: &ServeMetrics, line: String) {
    if resp_tx.try_send(line).is_err() {
        metrics.dropped_responses.inc();
    }
}

/// Renders one response line. Scores carry full precision (shortest
/// round-trip formatting), so a client parsing `ln_prob` back recovers the
/// bit-exact f64 the one-shot `strength --precise` command prints. A
/// client-supplied trace id is echoed as `"trace_id"`.
pub(super) fn render_response(
    id: Option<u64>,
    trace_id: Option<u64>,
    outcome: &ScoreOutcome,
) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(&id.to_string());
        out.push(',');
    }
    if let Some(trace_id) = trace_id {
        out.push_str("\"trace_id\":");
        out.push_str(&trace_id.to_string());
        out.push(',');
    }
    match outcome {
        ScoreOutcome::Score(lp) => {
            out.push_str("\"ok\":true,\"ln_prob\":");
            write_json_f64(&mut out, *lp);
        }
        ScoreOutcome::Unscorable(why) => {
            out.push_str("\"ok\":false,\"error\":");
            write_json_str(&mut out, why);
        }
        ScoreOutcome::Rejected {
            retry_after_ms,
            draining,
        } => {
            out.push_str("\"ok\":false,\"rejected\":true,\"draining\":");
            out.push_str(if *draining { "true" } else { "false" });
            out.push_str(",\"retry_after_ms\":");
            out.push_str(&retry_after_ms.to_string());
            out.push_str(",\"error\":");
            let why = if *draining {
                "server is draining; do not retry here"
            } else {
                "server at capacity; retry after the hinted delay"
            };
            write_json_str(&mut out, why);
        }
        ScoreOutcome::Shed(reason) => {
            out.push_str("\"ok\":false,\"shed\":true,\"error\":");
            let why = match reason {
                super::engine::ShedReason::DeadlineExpired => {
                    "deadline expired before a forward slot opened"
                }
                super::engine::ShedReason::Disconnected => "connection closed before scoring",
            };
            write_json_str(&mut out, why);
        }
        ScoreOutcome::Failed(why) => {
            out.push_str("\"ok\":false,\"failed\":true,\"error\":");
            write_json_str(&mut out, why);
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the answer to a request that was never admitted.
pub(super) fn render_error(why: &str) -> String {
    render_response(None, None, &ScoreOutcome::Unscorable(why.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_accepts_optional_fields_and_rejects_garbage() {
        let (pw, id, dl, tr) = parse_request(r#"{"password":"hunter2"}"#).unwrap();
        assert_eq!(pw, "hunter2");
        assert_eq!(id, None);
        assert_eq!(dl, None);
        assert_eq!(tr, None);
        let (pw, id, dl, tr) =
            parse_request(r#"{"password":"a b","id":7,"deadline_ms":250,"trace_id":99}"#).unwrap();
        assert_eq!(pw, "a b");
        assert_eq!(id, Some(7));
        assert_eq!(dl, Some(Duration::from_millis(250)));
        assert_eq!(tr, Some(99));
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"password":12}"#).is_err());
        assert!(parse_request(r#"{"id":7}"#).is_err());
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let ok = render_response(Some(3), None, &ScoreOutcome::Score(-12.5));
        assert_eq!(ok, "{\"id\":3,\"ok\":true,\"ln_prob\":-12.5}\n");
        let rejected = render_response(
            None,
            None,
            &ScoreOutcome::Rejected {
                retry_after_ms: 50,
                draining: false,
            },
        );
        assert!(rejected.starts_with("{\"ok\":false,\"rejected\":true,\"draining\":false"));
        assert!(rejected.contains("\"retry_after_ms\":50"));
        // Full-precision score survives a JSON round-trip bit-exactly.
        let lp = -123.456_789_012_345_67_f64;
        let line = render_response(None, None, &ScoreOutcome::Score(lp));
        let parsed = parse_json(line.trim()).unwrap();
        assert_eq!(parsed.get("ln_prob").and_then(JsonValue::as_f64), Some(lp));
    }

    #[test]
    fn client_trace_id_is_echoed_before_the_body() {
        let line = render_response(Some(1), Some(777), &ScoreOutcome::Score(-2.0));
        assert_eq!(
            line,
            "{\"id\":1,\"trace_id\":777,\"ok\":true,\"ln_prob\":-2}\n"
        );
        let parsed = parse_json(line.trim()).unwrap();
        assert_eq!(
            parsed.get("trace_id").and_then(JsonValue::as_f64),
            Some(777.0)
        );
    }
}
