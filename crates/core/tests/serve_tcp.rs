//! End-to-end tests for `pagpass serve` over a loopback socket: the full
//! `TCP → admission queue → batching workers → writer` pipeline, including
//! the drain on cancellation and the post-drain reconciliation invariant.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

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

/// Cloneable in-memory sink capturing the server's JSONL output.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8 log")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs a server on an ephemeral port, drives it with `client`, cancels,
/// and returns the drained report.
fn with_server(cfg: ServeConfig, client: impl FnOnce(std::net::SocketAddr) + Send) -> ServeReport {
    let model = tiny();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let cancel = CancelToken::new();
    let tel = quiet_tel();
    thread::scope(|s| {
        let server = s.spawn(|| {
            run_with_listeners(&model, &listener, None, &cfg, &cancel, &tel, None).expect("serve")
        });
        client(addr);
        cancel.cancel();
        server.join().expect("server thread")
    })
}

/// Reads `n` response lines, keyed by their `id` field (`None` for
/// responses without one).
fn read_responses(reader: &mut impl BufRead, n: usize) -> HashMap<Option<u64>, JsonValue> {
    let mut got = HashMap::new();
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        let value = parse_json(line.trim()).expect("response is valid JSON");
        let id = value
            .get("id")
            .and_then(JsonValue::as_f64)
            .map(|v| v as u64);
        got.insert(id, value);
    }
    got
}

fn is_true(value: Option<&JsonValue>) -> bool {
    matches!(value, Some(JsonValue::Bool(true)))
}

#[test]
fn tcp_scores_are_bit_identical_to_solo_and_the_drain_reconciles() {
    let model = tiny();
    let pws = ["hello123", "Pass123$", "abc12345", "has space", "qwerty99"];
    let report = with_server(ServeConfig::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut batch = String::new();
        for (i, pw) in pws.iter().enumerate() {
            batch.push_str(&format!("{{\"password\":\"{pw}\",\"id\":{i}}}\n"));
        }
        stream.write_all(batch.as_bytes()).expect("send requests");
        let mut reader = BufReader::new(stream);
        let got = read_responses(&mut reader, pws.len());
        for (i, pw) in pws.iter().enumerate() {
            let response = &got[&Some(i as u64)];
            let mut solo = InferenceSession::new(&model);
            match solo.log_probability(pw) {
                Ok(want) => {
                    assert!(is_true(response.get("ok")), "{pw}: {response:?}");
                    // Full-precision transport: the served score parses
                    // back bit-identical to the solo score, not merely
                    // close to it.
                    assert_eq!(
                        response.get("ln_prob").and_then(JsonValue::as_f64),
                        Some(want),
                        "{pw}"
                    );
                }
                Err(e) => {
                    assert!(!is_true(response.get("ok")), "{pw}");
                    let msg = response
                        .get("error")
                        .and_then(JsonValue::as_str)
                        .expect("unscorable responses carry an error");
                    assert_eq!(msg, e.to_string(), "{pw}");
                }
            }
        }
    });
    assert_eq!(report.admitted, pws.len() as u64);
    assert_eq!(report.completed, pws.len() as u64);
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.lost, 0);
    assert_eq!(report.bad_requests, 0);
}

#[test]
fn malformed_lines_answer_errors_and_zero_deadlines_are_shed() {
    let report = with_server(ServeConfig::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(
                b"this is not json\n\
                  {\"password\":\"hello123\",\"id\":1,\"deadline_ms\":0}\n\
                  {\"password\":\"Pass123$\",\"id\":2}\n",
            )
            .expect("send requests");
        let mut reader = BufReader::new(stream);
        let got = read_responses(&mut reader, 3);
        // The garbage line is answered (without an id) but never admitted.
        let bad = &got[&None];
        assert!(!is_true(bad.get("ok")));
        assert!(bad
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|m| m.contains("bad request")));
        // An already-expired deadline is shed before scoring.
        let shed = &got[&Some(1)];
        assert!(is_true(shed.get("shed")), "{shed:?}");
        // The healthy request is unaffected.
        assert!(is_true(got[&Some(2)].get("ok")));
    });
    assert_eq!(report.bad_requests, 1);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.shed, 1);
    assert_eq!(report.completed, 1);
    assert!(report.reconciles(), "{report:?}");
}

#[test]
fn client_trace_id_is_echoed_and_stamped_on_every_exported_span() {
    let model = tiny();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let cancel = CancelToken::new();
    let buf = SharedBuf::default();
    let tel = Telemetry::to_writer(LogFormat::Json, Box::new(buf.clone()));
    let cfg = ServeConfig {
        trace_sample: 1, // export every request's span tree
        ..ServeConfig::default()
    };
    let trace_id = 777u64;
    let report = thread::scope(|s| {
        let server = s.spawn(|| {
            run_with_listeners(&model, &listener, None, &cfg, &cancel, &tel, None).expect("serve")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(
                format!("{{\"password\":\"hello123\",\"id\":1,\"trace_id\":{trace_id}}}\n")
                    .as_bytes(),
            )
            .expect("send request");
        let mut reader = BufReader::new(stream);
        let got = read_responses(&mut reader, 1);
        let response = &got[&Some(1)];
        assert!(is_true(response.get("ok")), "{response:?}");
        // The client-supplied trace id is echoed on the response line.
        assert_eq!(
            response.get("trace_id").and_then(JsonValue::as_f64),
            Some(trace_id as f64),
            "{response:?}"
        );
        cancel.cancel();
        server.join().expect("server thread")
    });
    assert!(report.reconciles(), "{report:?}");

    // Every exported span of the request's tree carries the same trace id,
    // children reference the root span, and the whole pipeline is covered.
    let log = buf.contents();
    let mut root = None;
    let mut children: Vec<(String, u64)> = Vec::new();
    for line in log.lines() {
        let rec = parse_json(line).expect("JSONL record");
        if rec.get("kind").and_then(JsonValue::as_str) != Some("span") {
            continue;
        }
        let fields = rec.get("fields").expect("span fields");
        if fields.get("trace_id").and_then(JsonValue::as_f64) != Some(trace_id as f64) {
            continue;
        }
        let name = rec.get("name").and_then(JsonValue::as_str).expect("name");
        let span_id = fields
            .get("span_id")
            .and_then(JsonValue::as_f64)
            .expect("span_id") as u64;
        let parent = fields
            .get("parent_span_id")
            .and_then(JsonValue::as_f64)
            .expect("parent_span_id") as u64;
        if name == "serve.request" {
            assert_eq!(parent, 0, "root span has no parent");
            root = Some(span_id);
        } else {
            children.push((name.to_string(), parent));
        }
    }
    let root = root.expect("exported trace has a serve.request root span");
    let names: Vec<&str> = children.iter().map(|(n, _)| n.as_str()).collect();
    for stage in [
        "serve.admission",
        "serve.queue_wait",
        "serve.batch_assembly",
        "serve.forward",
        "serve.response_write",
    ] {
        assert!(names.contains(&stage), "missing {stage} in {names:?}");
    }
    for (name, parent) in &children {
        assert_eq!(*parent, root, "{name} must parent on the root span");
    }
}

#[test]
fn requests_in_flight_at_shutdown_are_drained_not_dropped() {
    // Cancel immediately after writing: the reader may or may not admit
    // each request before it observes the cancellation, but whatever was
    // admitted must be answered and reconcile — nothing may be lost.
    let report = with_server(ServeConfig::default(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut batch = String::new();
        for i in 0..16 {
            batch.push_str(&format!(
                "{{\"password\":\"hello12{}\",\"id\":{i}}}\n",
                i % 10
            ));
        }
        stream.write_all(batch.as_bytes()).expect("send requests");
        // Give the reader a moment to admit, then return so the harness
        // cancels while responses may still be in flight.
        thread::sleep(Duration::from_millis(100));
    });
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.lost, 0);
    assert_eq!(report.admitted, 16, "all requests were admitted pre-drain");
    assert_eq!(report.failed, 0);
    // Every admitted request was answered: scored, or shed as
    // Disconnected once the client's socket closed. Neither path loses a
    // request silently.
    assert_eq!(report.completed + report.shed, 16);
}
