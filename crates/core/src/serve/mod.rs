//! `pagpass serve`: a fault-tolerant strength-scoring server.
//!
//! The server turns [`InferenceSession::score_batch`] into a long-running
//! service: concurrent clients send passwords over newline-delimited JSON
//! and receive full-precision log-probabilities, with concurrent requests
//! continuously batched into single forwards over a broadcast KV-cache.
//!
//! The pipeline is `connections → admission queue → batching workers`:
//!
//! * `queue` — the bounded two-priority admission queue. Full means
//!   reject-with-retry-after at the protocol layer; the queue never grows
//!   past its cap, so load turns into explicit backpressure instead of
//!   latency.
//! * `engine` — batching workers with per-request deadlines, panic
//!   isolation via catch-unwind plus halving re-scores, an
//!   exactly-one-response guarantee, and a degraded mode that shrinks the
//!   batch ceiling under sustained deadline misses.
//! * `tcp` — the protocol layer: line framing, per-connection
//!   reader/writer threads, slow-client response dropping.
//! * `http` — an optional zero-dependency HTTP/1.1 observability plane
//!   (`GET /metrics`, `/healthz`, `/statusz`; `POST /score` bridging to
//!   the same queue and workers), enabled by passing a second listener to
//!   [`run_with_listeners`].
//!
//! Every admitted request carries a trace: admission, queue wait, batch
//! assembly, forward (or halving re-score), and response write each record
//! a child span under the request's `trace_id` into the telemetry span
//! ring; `trace_sample > 0` additionally exports every Nth request's full
//! span tree to the JSONL sink.
//!
//! Shutdown ([`CancelToken`] cancelled, typically by SIGINT/SIGTERM) is a
//! drain: the acceptor stops, readers stop admitting, workers score
//! everything already admitted, writers flush, and [`run_with_listener`]
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

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use pagpass_telemetry::{Field, Telemetry};

use crate::control::{CancelToken, FaultPlan};
use crate::error::CoreError;
use crate::model::PasswordModel;

use engine::{DegradeState, EngineConfig, ServeMetrics};
use queue::AdmissionQueue;
use tcp::{accept_loop, ConnShared};

pub use engine::{ScoreOutcome, ShedReason};

/// Tunables for one server run; `Default` matches the CLI defaults.
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
    /// Consecutive deadline-miss waves before the batch ceiling halves.
    pub degrade_after: u32,
    /// Consecutive clean waves before the ceiling doubles back.
    pub recover_after: u32,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Backoff hint attached to queue-full rejections.
    pub retry_after_ms: u64,
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
            degrade_after: 3,
            recover_after: 8,
            default_deadline: None,
            retry_after_ms: 50,
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

/// Runs the scoring server on an already-bound listener until `cancel`
/// fires, then drains and returns the final accounting.
///
/// The listener is switched to non-blocking and polled, so cancellation
/// is observed within tens of milliseconds without platform signal
/// plumbing. `fault` injects deterministic scoring panics (keyed on the
/// admission sequence number) for tests and load harnesses.
///
/// # Errors
///
/// Returns [`CoreError::Io`] if the listener cannot be configured.
pub fn run_with_listener(
    model: &PasswordModel,
    listener: &TcpListener,
    cfg: &ServeConfig,
    cancel: &CancelToken,
    tel: &Telemetry,
    fault: Option<&FaultPlan>,
) -> Result<ServeReport, CoreError> {
    run_with_listeners(model, listener, None, cfg, cancel, tel, fault)
}

/// Like [`run_with_listener`], with an optional second listener serving
/// the HTTP observability plane: `GET /metrics` (Prometheus text
/// exposition), `GET /healthz` (drain/degraded aware), `GET /statusz`
/// (queue depths, batch ceiling, recent traces as JSON), and
/// `POST /score` bridging to the same admission queue and workers as the
/// NDJSON protocol — scores are bit-identical and both planes share one
/// reconciliation invariant.
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
    let queue = AdmissionQueue::new(cfg.queue_cap);
    let metrics = ServeMetrics::new(tel);
    metrics.effective_max_batch.set(cfg.max_batch.max(1) as f64);
    let engine_cfg = EngineConfig {
        max_batch: cfg.max_batch,
        retries: cfg.retries,
        degrade_after: cfg.degrade_after,
        recover_after: cfg.recover_after,
    };
    let degrade = DegradeState::new(&engine_cfg);
    let seq = AtomicU64::new(0);
    let active_readers = AtomicUsize::new(0);
    let connections = AtomicUsize::new(0);
    let tracer = tel.trace_recorder();
    let http_stop = CancelToken::new();
    let shared = ConnShared {
        queue: &queue,
        metrics: &metrics,
        cfg,
        server_cancel: cancel,
        seq: &seq,
        active_readers: &active_readers,
        connections: &connections,
        tracer: &tracer,
    };
    let http_shared = http::HttpShared {
        queue: &queue,
        metrics: &metrics,
        cfg,
        server_cancel: cancel,
        stop: &http_stop,
        seq: &seq,
        degrade: &degrade,
        tel,
        tracer: &tracer,
    };
    thread::scope(|s| {
        let mut workers = Vec::with_capacity(cfg.sessions.max(1));
        for _ in 0..cfg.sessions.max(1) {
            workers.push(s.spawn(|| {
                engine::worker_loop(model, &queue, &engine_cfg, &degrade, &metrics, fault, tel);
            }));
        }
        if let Some(hl) = http_listener {
            let http_shared = &http_shared;
            s.spawn(move || http::http_loop(s, hl, http_shared));
        }
        accept_loop(s, listener, &shared);
        // Drain: the acceptor has stopped; wait for every reader to stop
        // admitting, then close the queue so workers score what is left
        // and exit. Writers exit once the last responder drops.
        // ORD: Acquire pairs with the readers' AcqRel decrement so
        // zero here means every admission has been published.
        while active_readers.load(Ordering::Acquire) != 0 {
            thread::sleep(tcp::ACCEPT_POLL);
        }
        if !queue.is_empty() {
            tel.event(
                "progress",
                "serve.draining",
                &[("remaining", Field::U64(queue.len() as u64))],
            );
        }
        queue.close();
        // Join the workers explicitly: only once every admitted request
        // has been answered may the HTTP plane stop, so a monitor polling
        // /healthz observes the whole drain (503) before the endpoint
        // disappears.
        for w in workers {
            let _ = w.join();
        }
        http_stop.cancel();
    });
    let report = build_report(&metrics, tel);
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
