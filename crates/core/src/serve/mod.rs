//! `pagpass serve`: a fault-tolerant strength-scoring server.
//!
//! The server turns [`InferenceSession::score_batch`] into a long-running
//! service: concurrent clients send passwords and receive full-precision
//! log-probabilities, with concurrent requests continuously batched into
//! single forwards over a broadcast KV-cache.
//!
//! The pipeline is `planes → admit → admission queue → batching workers`:
//!
//! * `tcp` and `http` — the two request planes, each one listener with its
//!   own framing. `tcp` speaks newline-delimited JSON (per-connection
//!   reader/writer threads, slow-client response dropping); `http` is a
//!   zero-dependency HTTP/1.1 plane (`GET /metrics`, `/healthz`,
//!   `/statusz`; `POST /score`), enabled by passing a second listener to
//!   [`run_with_listeners`]. Both accept through one accept loop and hand
//!   every request object to one `admit`.
//! * `admit` (this module) — parse, pick the deadline and priority lane,
//!   sample the trace, build the request, record `serve.admission`, push;
//!   a full or closed queue is answered at once. A plane keeps only its
//!   framing: how a request object arrives and how its answer goes out.
//! * `queue` — the bounded two-priority admission queue. Full means
//!   reject-with-retry-after; the queue never grows past its cap, so load
//!   turns into explicit backpressure instead of latency.
//! * `engine` — batching workers with per-request deadlines, panic
//!   isolation via catch-unwind plus halving re-scores, an
//!   exactly-one-response guarantee, and a degraded mode that shrinks the
//!   batch ceiling under sustained deadline misses.
//!
//! Every admitted request carries a trace: admission, queue wait, batch
//! assembly, forward (or halving re-score), and response write each record
//! a child span under the request's `trace_id` into the telemetry span
//! ring; `trace_sample > 0` additionally exports every Nth request's full
//! span tree to the JSONL sink.
//!
//! Shutdown ([`CancelToken`] cancelled, typically by SIGINT/SIGTERM) is a
//! drain: the acceptor stops, readers stop admitting, workers score
//! everything already admitted, writers flush, and [`run_with_listeners`]
//! returns a [`ServeReport`] whose counters must reconcile —
//! `admitted == completed + shed + failed`.
//!
//! Scores are bit-identical to the one-shot `strength` command: the
//! batched decode path is row-independent and responses carry
//! shortest-round-trip f64 formatting, so `serve` and `strength --precise`
//! agree byte-for-byte on every password.
//!
//! [`InferenceSession::score_batch`]: crate::InferenceSession::score_batch

mod engine;
mod http;
mod queue;
mod tcp;

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pagpass_telemetry::{wall_clock_ms, Field, Gauge, Telemetry, TraceRecorder};

use crate::control::{CancelToken, Deadline, FaultPlan};
use crate::error::CoreError;
use crate::model::PasswordModel;

use engine::{DegradeState, ReqTrace, ScoreRequest, ServeMetrics};
use queue::{AdmissionQueue, Priority, PushError};

pub use engine::{ScoreOutcome, ShedReason};

/// Backoff hint attached to queue-full rejections.
const RETRY_AFTER_MS: u64 = 50;

/// How long `accept_until` (and the drain) sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// How long a plane's socket reads block before re-checking its stop token.
const READ_POLL: Duration = Duration::from_millis(50);

/// Tunables for one server run, one per `pagpass serve` flag; `Default`
/// matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hard ceiling on requests batched into one forward.
    pub max_batch: usize,
    /// Admission queue capacity; beyond it requests are rejected.
    pub queue_cap: usize,
    /// Scoring worker threads, each owning one inference session.
    pub sessions: usize,
    /// Singleton panic re-scores before a request is declared poisoned.
    pub retries: u32,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Export every Nth request's full span tree to the JSONL sink
    /// (0 = never; the in-memory span ring is always populated).
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 16,
            queue_cap: 256,
            sessions: 2,
            retries: 2,
            default_deadline: None,
            trace_sample: 0,
        }
    }
}

/// Final accounting for one server run, emitted as the `serve.summary`
/// event and returned to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Admitted requests answered with a score or a per-request error.
    pub completed: u64,
    /// Admitted requests dropped before scoring (deadline, disconnect).
    pub shed: u64,
    /// Admitted requests that panicked even alone, past all retries.
    pub failed: u64,
    /// Requests refused at admission (queue full or draining).
    pub rejected: u64,
    /// Malformed request lines (never admitted).
    pub bad_requests: u64,
    /// Scoring panics contained by the engine.
    pub panics: u64,
    /// Responses dropped for slow or vanished clients.
    pub dropped_responses: u64,
    /// Requests that hit the exactly-one-response backstop (always a bug).
    pub lost: u64,
    /// Median end-to-end latency of completed requests, if any completed.
    pub p50_latency_ms: Option<f64>,
    /// Tail end-to-end latency of completed requests, if any completed.
    pub p99_latency_ms: Option<f64>,
}

impl ServeReport {
    /// The no-silent-loss invariant: every admitted request was answered
    /// as completed, shed, or failed.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.admitted == self.completed + self.shed + self.failed
    }
}

/// Server state that the workers and every plane's connection handlers
/// borrow from the server scope.
struct Shared<'a> {
    cfg: &'a ServeConfig,
    /// The server's drain token: cancelled means the NDJSON acceptor and
    /// readers stop, `/healthz` reports draining, and once the queue closes
    /// admissions are refused.
    cancel: &'a CancelToken,
    tel: &'a Telemetry,
    queue: AdmissionQueue<ScoreRequest>,
    metrics: Arc<ServeMetrics>,
    degrade: DegradeState,
    tracer: TraceRecorder,
    /// Admission sequence number; fault plans and `trace_sample` key on it.
    seq: AtomicU64,
    /// Open NDJSON connections. The drain waits for zero: every reader has
    /// stopped admitting.
    connections: AtomicUsize,
    /// Open HTTP connections.
    http_connections: AtomicUsize,
    /// Fires only after the drain completes; closes the HTTP plane.
    http_stop: CancelToken,
}

impl<'a> Shared<'a> {
    fn new(cfg: &'a ServeConfig, cancel: &'a CancelToken, tel: &'a Telemetry) -> Shared<'a> {
        let metrics = ServeMetrics::new(tel);
        metrics.effective_max_batch.set(cfg.max_batch.max(1) as f64);
        Shared {
            cfg,
            cancel,
            tel,
            queue: AdmissionQueue::new(cfg.queue_cap),
            metrics,
            degrade: DegradeState::new(cfg),
            tracer: tel.trace_recorder(),
            seq: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            http_connections: AtomicUsize::new(0),
            http_stop: CancelToken::new(),
        }
    }
}

/// What a plane needs to answer one admitted request: the `id` its
/// response echoes and the trace its response write records under.
#[derive(Debug, Clone, Copy)]
struct Reply {
    id: Option<u64>,
    trace: ReqTrace,
}

impl Reply {
    /// The response to `outcome`: the NDJSON line, and the HTTP body. A
    /// client-supplied trace id is echoed back.
    fn render(&self, outcome: &ScoreOutcome) -> String {
        let echo = self.trace.client_supplied.then_some(self.trace.trace_id);
        tcp::render_response(self.id, echo, outcome)
    }

    /// Runs `write` as this request's `serve.response_write` stage: timed
    /// into its histogram and recorded as a child span of the request.
    fn timed_write<T>(
        &self,
        metrics: &ServeMetrics,
        tracer: &TraceRecorder,
        write: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let wall_ms = wall_clock_ms();
        let out = write();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        metrics.response_write.record(ms);
        self.trace
            .child_span(tracer, "serve.response_write", wall_ms, ms);
        out
    }
}

/// Admits one request object (`{"password", "id", "deadline_ms",
/// "trace_id"}`) from either plane: parses it, gives it a deadline (its
/// own, else the server default) and a lane (`High` for an explicit
/// `deadline_ms`), samples its trace, and pushes it. A full or closed
/// queue answers through `respond` at once, as a rejection.
///
/// `respond` receives the request's [`Reply`] and its one outcome, on
/// whichever thread answers it; `cancel` is the owning connection's token.
///
/// # Errors
///
/// Malformed text is counted as a bad request, never enters the queue, and
/// returns the message for the plane's error response.
fn admit(
    shared: &Shared<'_>,
    text: &str,
    cancel: CancelToken,
    respond: impl FnOnce(Reply, ScoreOutcome) + Send + 'static,
) -> Result<(), String> {
    let admit_started = Instant::now();
    let admit_wall_ms = wall_clock_ms();
    let (password, id, explicit_deadline, client_trace_id) = match tcp::parse_request(text) {
        Ok(parts) => parts,
        Err(why) => {
            shared.metrics.bad_requests.inc();
            return Err(why);
        }
    };
    let deadline = explicit_deadline
        .or(shared.cfg.default_deadline)
        .map(Deadline::after);
    let priority = if explicit_deadline.is_some() {
        Priority::High
    } else {
        Priority::Normal
    };
    // ORD: Relaxed — seq only needs uniqueness, not ordering; the
    // queue push that publishes the request is the synchronizing op.
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    let sampled = shared.cfg.trace_sample > 0 && seq.is_multiple_of(shared.cfg.trace_sample);
    let trace = ReqTrace::new(client_trace_id, sampled);
    let reply = Reply { id, trace };
    let request = ScoreRequest::new(
        seq,
        password,
        deadline,
        cancel,
        Arc::clone(&shared.metrics),
        shared.tracer.clone(),
        trace,
        move |outcome| respond(reply, outcome),
    );
    // Admission span: request object received → about to enqueue.
    let admit_ms = admit_started.elapsed().as_secs_f64() * 1e3;
    trace.child_span(&shared.tracer, "serve.admission", admit_wall_ms, admit_ms);
    let (mut request, draining) = match shared.queue.push(request, priority) {
        Ok(()) => {
            shared.metrics.admitted.inc();
            shared.metrics.queue_depth.set(shared.queue.len() as f64);
            return Ok(());
        }
        Err(PushError::Full(request)) => (request, false),
        Err(PushError::Closed(request)) => (request, true),
    };
    request.respond(ScoreOutcome::Rejected {
        retry_after_ms: RETRY_AFTER_MS,
        draining,
    });
    Ok(())
}

/// One open connection, counted in `connections` and mirrored to `gauge`
/// for as long as the guard lives.
struct OpenConn<'a> {
    connections: &'a AtomicUsize,
    gauge: &'a Gauge,
}

impl<'a> OpenConn<'a> {
    fn new(connections: &'a AtomicUsize, gauge: &'a Gauge) -> OpenConn<'a> {
        // ORD: AcqRel so the returned count pairs with the matching
        // decrement and the gauge never goes negative under churn.
        let n = connections.fetch_add(1, Ordering::AcqRel) + 1;
        gauge.set(n as f64);
        OpenConn { connections, gauge }
    }
}

impl Drop for OpenConn<'_> {
    fn drop(&mut self) {
        // ORD: AcqRel releases this connection's admissions before the
        // drain loop's Acquire read can observe zero and close the queue.
        let n = self.connections.fetch_sub(1, Ordering::AcqRel) - 1;
        self.gauge.set(n as f64);
    }
}

/// Accepts connections on the non-blocking `listener` until `stop` fires,
/// handing each to `serve`.
fn accept_until(listener: &TcpListener, stop: &CancelToken, mut serve: impl FnMut(TcpStream)) {
    while !stop.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => serve(stream),
            // Nothing pending, or a transient error (aborted handshake, fd
            // pressure): back off and keep serving existing connections.
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Runs the scoring server on an already-bound NDJSON listener until
/// `cancel` fires, then drains and returns the final accounting.
///
/// Listeners are switched to non-blocking and polled, so cancellation is
/// observed within tens of milliseconds without platform signal plumbing.
/// `fault` injects deterministic scoring panics (keyed on the admission
/// sequence number) for tests and load harnesses.
///
/// An optional second listener serves the HTTP plane: `GET /metrics`
/// (Prometheus text exposition), `GET /healthz` (drain/degraded aware),
/// `GET /statusz` (queue depths, batch ceiling, recent traces as JSON),
/// and `POST /score`, admitted exactly as an NDJSON line is — scores are
/// bit-identical and both planes share one reconciliation invariant.
///
/// The HTTP plane deliberately outlives the drain: when `cancel` fires it
/// keeps answering (with `/healthz` flipped to `503 draining`) until every
/// admitted request has been scored, so monitors observe the drain instead
/// of a vanished endpoint.
///
/// # Errors
///
/// Returns [`CoreError::Io`] if a listener cannot be configured.
pub fn run_with_listeners(
    model: &PasswordModel,
    listener: &TcpListener,
    http_listener: Option<&TcpListener>,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    tel: &Telemetry,
    fault: Option<&FaultPlan>,
) -> Result<ServeReport, CoreError> {
    listener.set_nonblocking(true)?;
    if let Some(hl) = http_listener {
        hl.set_nonblocking(true)?;
    }
    let shared = &Shared::new(cfg, cancel, tel);
    thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.sessions.max(1))
            .map(|_| s.spawn(|| engine::worker_loop(model, shared, fault)))
            .collect();
        if let Some(hl) = http_listener {
            s.spawn(move || {
                accept_until(hl, &shared.http_stop, |stream| {
                    s.spawn(move || http::handle_connection(stream, shared));
                });
            });
        }
        accept_until(listener, cancel, |stream| {
            tcp::spawn_connection(s, stream, shared);
        });
        // Drain: the acceptor has stopped; wait for every reader to stop
        // admitting, then close the queue so workers score what is left
        // and exit. Writers exit once the last responder drops.
        // ORD: Acquire pairs with the readers' AcqRel decrement so
        // zero here means every admission has been published.
        while shared.connections.load(Ordering::Acquire) != 0 {
            thread::sleep(ACCEPT_POLL);
        }
        if !shared.queue.is_empty() {
            tel.event(
                "progress",
                "serve.draining",
                &[("remaining", Field::U64(shared.queue.len() as u64))],
            );
        }
        shared.queue.close();
        // Join the workers explicitly: only once every admitted request
        // has been answered may the HTTP plane stop, so a monitor polling
        // /healthz observes the whole drain (503) before the endpoint
        // disappears.
        for w in workers {
            let _ = w.join();
        }
        shared.http_stop.cancel();
    });
    let report = build_report(&shared.metrics, tel);
    emit_summary(&report, tel);
    Ok(report)
}

fn build_report(metrics: &ServeMetrics, tel: &Telemetry) -> ServeReport {
    let mut snapshot = tel.snapshot();
    let latency = snapshot.histograms.remove("serve.latency.ms");
    let (p50, p99) = latency
        .map(|h| (h.quantile(0.50), h.quantile(0.99)))
        .unwrap_or((None, None));
    ServeReport {
        admitted: metrics.admitted.get(),
        completed: metrics.completed.get(),
        shed: metrics.shed.get(),
        failed: metrics.failed.get(),
        rejected: metrics.rejected.get(),
        bad_requests: metrics.bad_requests.get(),
        panics: metrics.panics.get(),
        dropped_responses: metrics.dropped_responses.get(),
        lost: metrics.lost.get(),
        p50_latency_ms: p50,
        p99_latency_ms: p99,
    }
}

fn emit_summary(report: &ServeReport, tel: &Telemetry) {
    tel.event(
        "summary",
        "serve.summary",
        &[
            ("kernel", Field::Str(pagpass_nn::kernel_mode().to_string())),
            ("admitted", Field::U64(report.admitted)),
            ("completed", Field::U64(report.completed)),
            ("shed", Field::U64(report.shed)),
            ("failed", Field::U64(report.failed)),
            ("rejected", Field::U64(report.rejected)),
            ("bad_requests", Field::U64(report.bad_requests)),
            ("panics", Field::U64(report.panics)),
            ("dropped_responses", Field::U64(report.dropped_responses)),
            ("lost", Field::U64(report.lost)),
            ("reconciles", Field::Bool(report.reconciles())),
            (
                "p50_latency_ms",
                Field::F64(report.p50_latency_ms.unwrap_or(0.0)),
            ),
            (
                "p99_latency_ms",
                Field::F64(report.p99_latency_ms.unwrap_or(0.0)),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagpass_telemetry::LogFormat;
    use queue::Pop;
    use std::sync::Mutex;

    /// Each refused request's answer, as its response line.
    type Answers = Arc<Mutex<Vec<String>>>;

    fn quiet_tel() -> Telemetry {
        Telemetry::to_writer(LogFormat::Json, Box::new(std::io::sink()))
    }

    fn admit_into(shared: &Shared<'_>, text: &str, answers: &Answers) -> Result<(), String> {
        let answers = Arc::clone(answers);
        admit(shared, text, CancelToken::new(), move |reply, outcome| {
            let line = reply.render(&outcome);
            crate::lock(&answers).push(line.trim_end().to_string());
        })
    }

    /// Pops and answers the next queued request, returning the password
    /// and deadline admission gave it.
    fn pop(shared: &Shared<'_>) -> (String, Option<Deadline>) {
        let Pop::Item(mut req) = shared.queue.try_pop() else {
            panic!("expected a queued request");
        };
        req.respond(ScoreOutcome::Score(-1.0));
        (req.password.clone(), req.deadline)
    }

    #[test]
    fn an_explicit_deadline_takes_the_high_lane() {
        let (cfg, cancel, tel) = (ServeConfig::default(), CancelToken::new(), quiet_tel());
        let (shared, answers) = (Shared::new(&cfg, &cancel, &tel), Answers::default());
        admit_into(&shared, r#"{"password":"early"}"#, &answers).unwrap();
        admit_into(
            &shared,
            r#"{"password":"late","deadline_ms":9000}"#,
            &answers,
        )
        .unwrap();
        let (password, deadline) = pop(&shared);
        assert_eq!(password, "late", "the deadline-bearing request pops first");
        assert!(deadline.is_some());
        assert_eq!(pop(&shared), ("early".to_string(), None));
        assert_eq!(shared.metrics.admitted.get(), 2);
    }

    #[test]
    fn a_request_without_deadline_ms_gets_the_default_deadline() {
        let budget = Duration::from_secs(3600);
        let cfg = ServeConfig {
            default_deadline: Some(budget),
            ..ServeConfig::default()
        };
        let (cancel, tel) = (CancelToken::new(), quiet_tel());
        let (shared, answers) = (Shared::new(&cfg, &cancel, &tel), Answers::default());
        let earliest = Deadline::after(budget);
        admit_into(&shared, r#"{"password":"defaulted"}"#, &answers).unwrap();
        let latest = Deadline::after(budget);
        admit_into(
            &shared,
            r#"{"password":"explicit","deadline_ms":5}"#,
            &answers,
        )
        .unwrap();
        // The default deadline does not promote a request to the high lane.
        assert_eq!(pop(&shared).0, "explicit");
        let (password, deadline) = pop(&shared);
        assert_eq!(password, "defaulted");
        assert!(deadline.is_some_and(|d| earliest <= d && d <= latest));
    }

    #[test]
    fn a_full_queue_asks_for_a_retry_and_a_closed_one_says_draining() {
        let cfg = ServeConfig {
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let (cancel, tel) = (CancelToken::new(), quiet_tel());
        let (shared, answers) = (Shared::new(&cfg, &cancel, &tel), Answers::default());
        admit_into(&shared, r#"{"password":"queued"}"#, &answers).unwrap();
        admit_into(&shared, r#"{"password":"full","id":1}"#, &answers).unwrap();
        shared.queue.close();
        admit_into(&shared, r#"{"password":"closed","id":2}"#, &answers).unwrap();
        assert_eq!(
            *crate::lock(&answers),
            [
                r#"{"id":1,"ok":false,"rejected":true,"draining":false,"retry_after_ms":50,"error":"server at capacity; retry after the hinted delay"}"#,
                r#"{"id":2,"ok":false,"rejected":true,"draining":true,"retry_after_ms":50,"error":"server is draining; do not retry here"}"#,
            ]
        );
        assert_eq!(shared.metrics.rejected.get(), 2);
        assert_eq!(shared.metrics.admitted.get(), 1);
        assert_eq!(pop(&shared).0, "queued");
    }

    #[test]
    fn malformed_text_is_a_bad_request_and_never_queued() {
        let (cfg, cancel, tel) = (ServeConfig::default(), CancelToken::new(), quiet_tel());
        let (shared, answers) = (Shared::new(&cfg, &cancel, &tel), Answers::default());
        let why = admit_into(&shared, "not json", &answers).unwrap_err();
        assert!(why.starts_with("bad request"), "{why}");
        assert_eq!(shared.metrics.bad_requests.get(), 1);
        assert_eq!(shared.metrics.admitted.get(), 0);
        assert!(shared.queue.is_empty() && crate::lock(&answers).is_empty());
    }
}
