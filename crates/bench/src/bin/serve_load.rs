//! Closed-loop, fault-injected load test for `pagpass serve`.
//!
//! Boots an in-process server on an ephemeral loopback port and drives it
//! through a deterministic fault schedule in four sequential phases:
//!
//! 1. **Closed loop** — concurrent clients (one deliberately slow) each
//!    keep exactly one request in flight, while a `FaultPlan` injects
//!    scoring panics keyed on admission sequence numbers: two transient
//!    (panic once) and one poisoned (panics on every attempt). Every
//!    scored response is checked bit-identical against a solo
//!    `InferenceSession`.
//! 2. **Backpressure blast** — one client writes a large burst without
//!    reading, overrunning the admission queue; the server must answer
//!    reject-with-retry-after rather than queue unboundedly.
//! 3. **Deadline storm** — every request carries `deadline_ms: 0`, so all
//!    of them must be shed before scoring.
//! 4. **Mid-request disconnect** — a client sends requests and drops the
//!    connection without reading; the server sheds or drops responses but
//!    may not lose requests.
//!
//! After a drain the `ServeReport` must reconcile (`admitted == completed
//! + shed + failed`, `lost == 0`) — the binary asserts this and the
//! per-phase expectations, then measures the paired batched-vs-solo
//! scoring speedup that continuous batching buys and writes a gateable
//! report with a flat `speedups` object.
//!
//! Run with `-- --smoke` for the seconds-scale CI configuration.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use pagpass_bench::save_json;
use pagpass_nn::GptConfig;
use pagpass_telemetry::{parse_json, JsonValue, LogFormat, Telemetry};
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{
    run_with_listeners, CancelToken, FaultPlan, InferenceSession, ModelKind, PasswordModel,
    ServeConfig, ServeReport,
};

struct Setup {
    mode: &'static str,
    config: GptConfig,
    clients: usize,
    requests_per_client: usize,
    blast: usize,
    storm: usize,
    disconnect: usize,
    paired_batch: usize,
    paired_reps: usize,
}

fn setup(smoke: bool) -> Setup {
    if smoke {
        Setup {
            mode: "smoke",
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 16,
                n_layers: 1,
                n_heads: 2,
            },
            clients: 4,
            requests_per_client: 24,
            blast: 300,
            storm: 20,
            disconnect: 10,
            paired_batch: 16,
            paired_reps: 10,
        }
    } else {
        Setup {
            mode: "full",
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 48,
                n_layers: 2,
                n_heads: 4,
            },
            clients: 6,
            requests_per_client: 50,
            blast: 600,
            storm: 40,
            disconnect: 20,
            paired_batch: 32,
            paired_reps: 20,
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        queue_cap: 8,
        // One worker so the backpressure blast reliably outruns the drain.
        sessions: 1,
        ..ServeConfig::default()
    }
}

/// A deterministic, scorable password for client `c`'s `i`-th request.
fn password(c: usize, i: usize) -> String {
    format!("pw{c}n{i:03}")
}

#[derive(Default)]
struct ClientStats {
    scored: Vec<(String, f64)>,
    failed: usize,
    rejected: usize,
    shed: usize,
    other: usize,
}

fn is_true(v: Option<&JsonValue>) -> bool {
    matches!(v, Some(JsonValue::Bool(true)))
}

/// Classifies one response line. Scored responses are paired with their
/// password via the echoed `id` (`id = client * 1000 + i`), because
/// responses on a shared connection interleave: rejections come straight
/// back from the reader while admitted requests finish later.
fn classify(line: &str, stats: &mut ClientStats) {
    let v = parse_json(line.trim()).expect("response is valid JSON");
    if is_true(v.get("ok")) {
        let id = v
            .get("id")
            .and_then(JsonValue::as_f64)
            .map(|x| x as u64)
            .expect("scored responses echo the request id");
        let lp = v
            .get("ln_prob")
            .and_then(JsonValue::as_f64)
            .expect("ok responses carry ln_prob");
        let pw = password((id / 1000) as usize, (id % 1000) as usize);
        stats.scored.push((pw, lp));
    } else if is_true(v.get("failed")) {
        stats.failed += 1;
    } else if is_true(v.get("rejected")) {
        stats.rejected += 1;
    } else if is_true(v.get("shed")) {
        stats.shed += 1;
    } else {
        stats.other += 1;
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// One request in flight at a time; `slow` adds think time between
/// requests to spread waves out.
fn closed_loop_client(addr: SocketAddr, c: usize, requests: usize, slow: bool) -> ClientStats {
    let (mut stream, mut reader) = connect(addr);
    let mut stats = ClientStats::default();
    for i in 0..requests {
        let pw = password(c, i);
        let line = format!("{{\"password\":\"{pw}\",\"id\":{}}}\n", c * 1000 + i);
        stream.write_all(line.as_bytes()).expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        classify(&response, &mut stats);
        if slow {
            thread::sleep(Duration::from_millis(2));
        }
    }
    stats
}

/// Writes `n` requests in one burst without reading, then collects all `n`
/// responses. With the queue capped and a single worker, a burst this size
/// must overrun admission and draw explicit rejections.
fn blast_client(addr: SocketAddr, c: usize, n: usize) -> ClientStats {
    let (mut stream, mut reader) = connect(addr);
    let mut burst = String::new();
    for i in 0..n {
        let pw = password(c, i);
        burst.push_str(&format!(
            "{{\"password\":\"{pw}\",\"id\":{}}}\n",
            c * 1000 + i
        ));
    }
    stream.write_all(burst.as_bytes()).expect("send burst");
    let mut stats = ClientStats::default();
    for _ in 0..n {
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        classify(&response, &mut stats);
    }
    stats
}

/// Closed-loop requests that are already expired on arrival; every one
/// must be shed, never scored.
fn deadline_storm_client(addr: SocketAddr, c: usize, n: usize) -> ClientStats {
    let (mut stream, mut reader) = connect(addr);
    let mut stats = ClientStats::default();
    for i in 0..n {
        let pw = password(c, i);
        let line = format!(
            "{{\"password\":\"{pw}\",\"id\":{},\"deadline_ms\":0}}\n",
            c * 1000 + i
        );
        stream.write_all(line.as_bytes()).expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        classify(&response, &mut stats);
    }
    stats
}

/// Sends `n` requests and hangs up without reading a single response.
fn disconnect_client(addr: SocketAddr, c: usize, n: usize) {
    let (mut stream, _reader) = connect(addr);
    let mut burst = String::new();
    for i in 0..n {
        burst.push_str(&format!("{{\"password\":\"{}\"}}\n", password(c, i)));
    }
    stream.write_all(burst.as_bytes()).expect("send burst");
    // Drop both halves: the server observes EOF and must shed or drop
    // whatever it has not answered yet, losing nothing silently.
}

struct Paired {
    batch: usize,
    reps: usize,
    solo_ms: f64,
    batched_ms: f64,
    bit_identical: bool,
}

impl Paired {
    /// Solo over batched scoring time.
    fn speedup(&self) -> f64 {
        self.solo_ms / self.batched_ms.max(1e-9)
    }
}

/// Paired measurement of the win continuous batching buys: scoring the
/// same `batch` passwords one at a time on a reused session versus one
/// batched forward. Scores must agree bitwise; only the time may differ.
fn paired_scoring(model: &PasswordModel, batch: usize, reps: usize) -> Paired {
    let passwords: Vec<String> = (0..batch).map(|i| password(9, i)).collect();
    let mut solo_ms = 0.0;
    let mut batched_ms = 0.0;
    let mut bit_identical = true;
    for _ in 0..reps {
        let mut solo_session = InferenceSession::new(model);
        let start = Instant::now();
        let solo: Vec<f64> = passwords
            .iter()
            .map(|pw| solo_session.log_probability(pw).expect("scorable"))
            .collect();
        solo_ms += start.elapsed().as_secs_f64() * 1e3;

        let mut batch_session = InferenceSession::new(model);
        let start = Instant::now();
        let batched = batch_session.score_batch(&passwords);
        batched_ms += start.elapsed().as_secs_f64() * 1e3;

        for (a, b) in solo.iter().zip(&batched) {
            match b {
                Ok(b) if a == b => {}
                _ => bit_identical = false,
            }
        }
    }
    Paired {
        batch,
        reps,
        solo_ms,
        batched_ms,
        bit_identical,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = setup(smoke);
    let model = PasswordModel::new(ModelKind::PagPassGpt, s.config, 7);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let cancel = CancelToken::new();
    let tel = Telemetry::to_writer(LogFormat::Json, Box::new(std::io::sink()));
    let cfg = serve_config();
    // Deterministic schedule: seqs 5 and 17 panic once (the wave retries
    // and recovers), seq 11 panics on every attempt (poisoned — must fail
    // without touching its co-batched neighbours). All three fall inside
    // the closed-loop phase's admissions.
    let fault = FaultPlan::new()
        .panic_task_once(5)
        .panic_task_once(17)
        .panic_task_always(11);

    let (report, closed, blast, storm) = thread::scope(|scope| {
        let server = scope.spawn(|| {
            run_with_listeners(&model, &listener, None, &cfg, &cancel, &tel, Some(&fault))
                .expect("server run")
        });

        // Phase 1: concurrent closed-loop clients, client 0 slow.
        let clients: Vec<_> = (0..s.clients)
            .map(|c| {
                scope.spawn(move || closed_loop_client(addr, c, s.requests_per_client, c == 0))
            })
            .collect();
        let mut closed = ClientStats::default();
        for handle in clients {
            let got = handle.join().expect("client thread");
            closed.scored.extend(got.scored);
            closed.failed += got.failed;
            closed.rejected += got.rejected;
            closed.shed += got.shed;
            closed.other += got.other;
        }

        // Phase 2: backpressure blast.
        let blast = blast_client(addr, 90, s.blast);

        // Phase 3: deadline storm.
        let storm = deadline_storm_client(addr, 91, s.storm);

        // Phase 4: mid-request disconnect, then drain.
        disconnect_client(addr, 92, s.disconnect);
        thread::sleep(Duration::from_millis(150));
        cancel.cancel();
        let report = server.join().expect("server thread");
        (report, closed, blast, storm)
    });

    let scores_ok = verify_scores(&model, closed.scored.iter().chain(&blast.scored));
    let paired = paired_scoring(&model, s.paired_batch, s.paired_reps);
    let out = render(&s, &report, &closed, &blast, &storm, scores_ok, &paired);

    println!(
        "serve_load[{}]: admitted {} completed {} shed {} failed {} rejected {} \
         panics {} lost {} | p50 {:.2}ms p99 {:.2}ms | batched scoring {:.2}x",
        s.mode,
        report.admitted,
        report.completed,
        report.shed,
        report.failed,
        report.rejected,
        report.panics,
        report.lost,
        report.p50_latency_ms.unwrap_or(0.0),
        report.p99_latency_ms.unwrap_or(0.0),
        paired.speedup(),
    );
    save_json(&format!("serve-load-{}", s.mode), &out).expect("write bench result");

    // Acceptance checks — a violated robustness contract fails the run.
    assert!(report.reconciles(), "counters must reconcile: {report:?}");
    assert_eq!(report.lost, 0, "no admitted request may be lost silently");
    assert_eq!(
        closed.failed, 1,
        "exactly the poisoned request fails in the closed-loop phase"
    );
    assert!(
        report.panics >= 3,
        "all injected panics must be contained, got {}",
        report.panics
    );
    assert!(
        blast.rejected > 0,
        "the blast must draw explicit rejections, not unbounded queueing"
    );
    assert_eq!(
        storm.shed, s.storm,
        "every zero-deadline request must be shed before scoring"
    );
    assert!(scores_ok, "served scores must be bit-identical to solo");
    assert!(
        paired.bit_identical,
        "batched scores must match solo bitwise"
    );
}

/// Re-scores every served password on a fresh solo session and demands
/// bitwise equality — the server's batching must be invisible in the
/// output.
fn verify_scores<'a>(
    model: &PasswordModel,
    scored: impl Iterator<Item = &'a (String, f64)>,
) -> bool {
    let mut session = InferenceSession::new(model);
    let mut ok = true;
    for (pw, served) in scored {
        let solo = session.log_probability(pw).expect("scorable password");
        if solo != *served {
            eprintln!("[serve_load] MISMATCH {pw}: served {served} solo {solo}");
            ok = false;
        }
    }
    ok
}

#[allow(clippy::too_many_arguments)]
fn render(
    s: &Setup,
    report: &ServeReport,
    closed: &ClientStats,
    blast: &ClientStats,
    storm: &ClientStats,
    scores_ok: bool,
    paired: &Paired,
) -> JsonValue {
    let server = JsonValue::object([
        ("admitted", report.admitted.into()),
        ("completed", report.completed.into()),
        ("shed", report.shed.into()),
        ("failed", report.failed.into()),
        ("rejected", report.rejected.into()),
        ("panics", report.panics.into()),
        ("bad_requests", report.bad_requests.into()),
        ("dropped_responses", report.dropped_responses.into()),
        ("lost", report.lost.into()),
        ("reconciles", report.reconciles().into()),
        (
            "p50_latency_ms",
            report.p50_latency_ms.unwrap_or(0.0).into(),
        ),
        (
            "p99_latency_ms",
            report.p99_latency_ms.unwrap_or(0.0).into(),
        ),
    ]);
    let load = JsonValue::object([
        (
            "closed_loop_requests",
            (s.clients * s.requests_per_client).into(),
        ),
        ("scored", (closed.scored.len() + blast.scored.len()).into()),
        ("failed_seen", closed.failed.into()),
        ("rejected_seen", blast.rejected.into()),
        ("storm_shed", storm.shed.into()),
        ("scores_bit_identical_to_solo", scores_ok.into()),
    ]);
    JsonValue::object([
        ("bench", "serve_load".into()),
        ("mode", s.mode.into()),
        ("model_dim", s.config.dim.into()),
        ("model_layers", s.config.n_layers.into()),
        ("server", server),
        ("load", load),
        (
            "paired",
            JsonValue::object([
                ("batch", paired.batch.into()),
                ("reps", paired.reps.into()),
                ("solo_ms", paired.solo_ms.into()),
                ("batched_ms", paired.batched_ms.into()),
                ("bit_identical", paired.bit_identical.into()),
            ]),
        ),
        (
            "speedups",
            JsonValue::object([("serve_batched_scoring", paired.speedup().into())]),
        ),
    ])
}
