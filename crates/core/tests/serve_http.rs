//! Integration tests for the HTTP observability plane: `GET /metrics`,
//! `/healthz`, `/statusz`, and `POST /score` bridged to the same engine as
//! the NDJSON protocol — bit-identical scores, one reconciliation
//! invariant, and a drain that monitors can observe.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use pagpass_nn::GptConfig;
use pagpass_telemetry::{parse_json, JsonValue, LogFormat, Telemetry};
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{
    run_with_listeners, CancelToken, InferenceSession, ModelKind, PasswordModel, ServeConfig,
    ServeReport,
};

fn tiny() -> PasswordModel {
    PasswordModel::new(
        ModelKind::PagPassGpt,
        GptConfig {
            vocab_size: VOCAB_SIZE,
            ctx_len: 32,
            dim: 16,
            n_layers: 1,
            n_heads: 2,
        },
        3,
    )
}

fn quiet_tel() -> Telemetry {
    Telemetry::to_writer(LogFormat::Json, Box::new(std::io::sink()))
}

/// One parsed HTTP response.
struct HttpResponse {
    status: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// Writes one request over `stream` and reads the framed response.
fn http_roundtrip(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> HttpResponse {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    if close {
        req.push_str("Connection: close\r\n");
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    reader
        .get_mut()
        .write_all(req.as_bytes())
        .expect("send request");
    read_response(reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> HttpResponse {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let len: usize = headers
        .get("content-length")
        .expect("Content-Length framing")
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("response body");
    HttpResponse {
        status,
        headers,
        body: String::from_utf8(body).expect("utf8 body"),
    }
}

/// Runs a server with both planes on ephemeral ports, drives it with
/// `client(ndjson_addr, http_addr)`, cancels, and returns the report.
fn with_http_server(
    cfg: ServeConfig,
    client: impl FnOnce(std::net::SocketAddr, std::net::SocketAddr, &CancelToken) + Send,
) -> ServeReport {
    let model = tiny();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind NDJSON listener");
    let http_listener = TcpListener::bind("127.0.0.1:0").expect("bind HTTP listener");
    let addr = listener.local_addr().expect("local addr");
    let http_addr = http_listener.local_addr().expect("http addr");
    let cancel = CancelToken::new();
    let tel = quiet_tel();
    thread::scope(|s| {
        let server = s.spawn(|| {
            run_with_listeners(
                &model,
                &listener,
                Some(&http_listener),
                &cfg,
                &cancel,
                &tel,
                None,
            )
            .expect("serve")
        });
        client(addr, http_addr, &cancel);
        cancel.cancel();
        server.join().expect("server thread")
    })
}

fn connect_http(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    BufReader::new(stream)
}

#[test]
fn http_plane_serves_all_endpoints_with_bit_identical_scores() {
    let model = tiny();
    let pw = "hello123";
    let mut solo = InferenceSession::new(&model);
    let want = solo.log_probability(pw).expect("scorable password");

    let report = with_http_server(ServeConfig::default(), |ndjson_addr, http_addr, _cancel| {
        // Score the same password over the NDJSON plane first.
        let mut nd = TcpStream::connect(ndjson_addr).expect("connect ndjson");
        nd.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        nd.write_all(format!("{{\"password\":\"{pw}\",\"id\":7}}\n").as_bytes())
            .expect("send ndjson request");
        let mut nd_reader = BufReader::new(nd);
        let mut nd_line = String::new();
        nd_reader.read_line(&mut nd_line).expect("ndjson response");

        // All HTTP requests ride one keep-alive connection.
        let mut http = connect_http(http_addr);

        let resp = http_roundtrip(
            &mut http,
            "POST",
            "/score",
            Some(&format!("{{\"password\":\"{pw}\",\"id\":7}}")),
            false,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.headers.get("content-type").map(String::as_str),
            Some("application/json")
        );
        // Bit-identical across planes: the HTTP body IS the NDJSON
        // response line, and both parse back to the solo score exactly.
        assert_eq!(resp.body, nd_line, "planes must agree byte-for-byte");
        let parsed = parse_json(resp.body.trim()).expect("score body is JSON");
        assert_eq!(
            parsed.get("ln_prob").and_then(JsonValue::as_f64),
            Some(want),
            "{}",
            resp.body
        );

        let resp = http_roundtrip(&mut http, "GET", "/healthz", None, false);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok\n");

        let resp = http_roundtrip(&mut http, "GET", "/statusz", None, false);
        assert_eq!(resp.status, 200);
        let status = parse_json(resp.body.trim()).expect("statusz is JSON");
        assert_eq!(
            status.get("queue_cap").and_then(JsonValue::as_f64),
            Some(ServeConfig::default().queue_cap as f64)
        );
        assert_eq!(
            status.get("admitted").and_then(JsonValue::as_f64),
            Some(2.0),
            "{}",
            resp.body
        );
        assert!(
            status.get("recent_spans").is_some(),
            "statusz exposes the span ring"
        );

        let resp = http_roundtrip(&mut http, "GET", "/metrics", None, false);
        assert_eq!(resp.status, 200);
        assert!(
            resp.headers
                .get("content-type")
                .is_some_and(|c| c.starts_with("text/plain")),
            "{:?}",
            resp.headers
        );
        // Both planes feed the same counters: one NDJSON score plus one
        // HTTP score, both completed by the time their responses landed.
        assert!(
            resp.body.contains("serve_admitted_total 2"),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains("serve_completed_total 2"),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains("# TYPE serve_latency_ms histogram"),
            "{}",
            resp.body
        );

        let resp = http_roundtrip(&mut http, "GET", "/nope", None, false);
        assert_eq!(resp.status, 404);
        let resp = http_roundtrip(&mut http, "DELETE", "/metrics", None, true);
        assert_eq!(resp.status, 405);
    });
    assert_eq!(report.admitted, 2);
    assert_eq!(report.completed, 2);
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.lost, 0);
}

#[test]
fn healthz_flips_to_draining_on_a_held_connection_before_the_plane_exits() {
    let report = with_http_server(ServeConfig::default(), |_ndjson_addr, http_addr, cancel| {
        let mut http = connect_http(http_addr);
        let resp = http_roundtrip(&mut http, "GET", "/healthz", None, false);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok\n");

        // Begin the drain, then poll again on the SAME keep-alive
        // connection: the plane answers 503 draining instead of
        // vanishing, because the HTTP stop token only fires after the
        // workers have drained every admitted request.
        cancel.cancel();
        let resp = http_roundtrip(&mut http, "GET", "/healthz", None, true);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, "draining\n");
    });
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.admitted, 0);
}

#[test]
fn http_score_rejections_map_to_status_codes() {
    // queue_cap 1 with zero sessions is not possible (sessions floor at
    // 1), so overload is exercised in CI via the load harness; here the
    // malformed-body path is checked instead.
    let report = with_http_server(
        ServeConfig::default(),
        |_ndjson_addr, http_addr, _cancel| {
            let mut http = connect_http(http_addr);
            let resp = http_roundtrip(&mut http, "POST", "/score", Some("not json"), false);
            assert_eq!(resp.status, 400);
            let parsed = parse_json(resp.body.trim()).expect("error body is JSON");
            assert!(
                parsed
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|m| m.contains("bad request")),
                "{}",
                resp.body
            );

            // A trace_id on the HTTP plane is echoed exactly as over NDJSON.
            let resp = http_roundtrip(
                &mut http,
                "POST",
                "/score",
                Some("{\"password\":\"hello123\",\"id\":1,\"trace_id\":42}"),
                true,
            );
            assert_eq!(resp.status, 200);
            let parsed = parse_json(resp.body.trim()).expect("score body is JSON");
            assert_eq!(
                parsed.get("trace_id").and_then(JsonValue::as_f64),
                Some(42.0),
                "{}",
                resp.body
            );
        },
    );
    assert_eq!(report.bad_requests, 1);
    assert_eq!(report.admitted, 1);
    assert!(report.reconciles(), "{report:?}");
}

#[test]
fn http_connection_gauge_counts_the_open_connections_after_churn() {
    const CHURNERS: usize = 8;
    const CYCLES: usize = 40;
    const HELD: usize = 3;
    // Each poll is one more open connection.
    let open_now = Some((HELD + 1) as f64);
    let mut gauge = None;
    let report = with_http_server(
        ServeConfig::default(),
        |_ndjson_addr, http_addr, _cancel| {
            // Connections opening and closing at once on many handler threads.
            thread::scope(|s| {
                for _ in 0..CHURNERS {
                    s.spawn(move || {
                        for _ in 0..CYCLES {
                            drop(TcpStream::connect(http_addr).expect("connect http"));
                        }
                    });
                }
            });
            let held: Vec<_> = (0..HELD).map(|_| connect_http(http_addr)).collect();
            // A handler sees its client's close a moment later, so poll until
            // the churn has settled. The assertion waits until the server has
            // drained: a panic here would leave it running.
            let deadline = Instant::now() + Duration::from_secs(20);
            while gauge != open_now && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(20));
                let mut poll = connect_http(http_addr);
                let resp = http_roundtrip(&mut poll, "GET", "/statusz", None, true);
                let status = parse_json(resp.body.trim()).expect("statusz is JSON");
                gauge = status.get("http_connections").and_then(JsonValue::as_f64);
            }
            drop(held);
        },
    );
    assert_eq!(gauge, open_now, "serve.http_connections after churn");
    assert!(report.reconciles(), "{report:?}");
}
