//! Scoring engine: workers pull admitted requests off the queue, batch
//! them into single forwards, and answer each request exactly once.
//!
//! # Robustness contract
//!
//! * **Exactly-one-response**: every admitted [`ScoreRequest`] answers its
//!   client exactly once, enforced structurally — the responder is an
//!   `Option` consumed by [`ScoreRequest::respond`], and a `Drop` backstop
//!   answers (and counts `serve.lost`) if a code path ever leaks a request
//!   without responding. Post-drain, `admitted == completed + shed +
//!   failed` must reconcile; a non-zero `serve.lost` is always a bug.
//! * **Shedding**: requests whose deadline expired or whose connection
//!   died are answered [`ScoreOutcome::Shed`] *before* they occupy a
//!   forward slot, so a deadline storm degrades throughput instead of
//!   wasting it.
//! * **Panic isolation**: a panic while scoring a batch (a poisoned
//!   request, an injected fault) is caught per-wave; the wave is split in
//!   half and re-scored, isolating the poisoned request in O(log batch)
//!   re-executions. Only the singleton that still panics burns a retry;
//!   its neighbours are re-scored bit-identically (the decode path is
//!   row-independent, see [`InferenceSession::score_batch`]) and never
//!   lose their slot. The worker thread itself never dies.
//! * **Degraded mode**: sustained deadline misses halve the effective
//!   batch ceiling (smaller waves finish sooner); sustained clean waves
//!   double it back toward the configured maximum.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pagpass_telemetry::{
    next_span_id, next_trace_id, wall_clock_ms, Counter, Field, Gauge, Histogram, Telemetry,
    TraceCtx, TraceRecorder, DEPTH_BOUNDS, LATENCY_MS_BOUNDS,
};

use crate::control::{CancelToken, Deadline, FaultPlan};
use crate::inference::InferenceSession;
use crate::model::PasswordModel;
use crate::{lock, panic_message};

use super::queue::{AdmissionQueue, Pop};

/// How long a worker parks waiting for the first request of a wave before
/// re-checking queue state.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The terminal answer to one scoring request.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreOutcome {
    /// The password's log-probability under the model.
    Score(f64),
    /// The password cannot be scored (unencodable, oversized rule); the
    /// request itself was fine to admit.
    Unscorable(String),
    /// Refused at admission: the queue was full (`draining: false`, retry
    /// after the hinted delay) or the server is shutting down
    /// (`draining: true`, do not retry here).
    Rejected {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
        /// True when the refusal is a shutdown, not transient load.
        draining: bool,
    },
    /// Admitted but dropped before scoring to protect the batch.
    Shed(ShedReason),
    /// Scoring panicked even alone after all retries; the request is
    /// poisoned. Its co-batched neighbours were unaffected.
    Failed(String),
}

/// Why an admitted request was shed without being scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The request's deadline expired before a forward slot opened.
    DeadlineExpired,
    /// The client disconnected; nobody is listening for the answer.
    Disconnected,
}

/// Every serve-side counter, gauge, and histogram, registered once and
/// shared by handle. Counters are the source of truth for the post-drain
/// reconciliation check.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    pub admitted: Counter,
    pub completed: Counter,
    pub shed: Counter,
    pub failed: Counter,
    pub rejected: Counter,
    pub panics: Counter,
    pub bad_requests: Counter,
    pub dropped_responses: Counter,
    pub lost: Counter,
    pub http_requests: Counter,
    pub queue_depth: Gauge,
    pub effective_max_batch: Gauge,
    pub connections: Gauge,
    pub http_connections: Gauge,
    pub occupancy: Histogram,
    pub latency: Histogram,
    pub wave_ms: Histogram,
    pub queue_wait: Histogram,
    pub batch_assembly: Histogram,
    pub forward_ms: Histogram,
    pub rescore_ms: Histogram,
    pub response_write: Histogram,
}

impl ServeMetrics {
    pub(crate) fn new(tel: &Telemetry) -> Arc<ServeMetrics> {
        let reg = tel.registry();
        Arc::new(ServeMetrics {
            admitted: tel.counter("serve.admitted"),
            completed: tel.counter("serve.completed"),
            shed: tel.counter("serve.shed"),
            failed: tel.counter("serve.failed"),
            rejected: tel.counter("serve.rejected"),
            panics: tel.counter("serve.panics"),
            bad_requests: tel.counter("serve.bad_requests"),
            dropped_responses: tel.counter("serve.dropped_responses"),
            lost: tel.counter("serve.lost"),
            http_requests: tel.counter("serve.http_requests"),
            queue_depth: tel.gauge("serve.queue_depth"),
            effective_max_batch: tel.gauge("serve.effective_max_batch"),
            connections: tel.gauge("serve.connections"),
            http_connections: tel.gauge("serve.http_connections"),
            occupancy: reg.histogram("serve.batch.occupancy", DEPTH_BOUNDS),
            latency: reg.histogram("serve.latency.ms", LATENCY_MS_BOUNDS),
            wave_ms: reg.histogram("serve.wave.ms", LATENCY_MS_BOUNDS),
            queue_wait: reg.histogram("serve.queue_wait.ms", LATENCY_MS_BOUNDS),
            batch_assembly: reg.histogram("serve.batch_assembly.ms", LATENCY_MS_BOUNDS),
            forward_ms: reg.histogram("serve.forward.ms", LATENCY_MS_BOUNDS),
            rescore_ms: reg.histogram("serve.rescore.ms", LATENCY_MS_BOUNDS),
            response_write: reg.histogram("serve.response_write.ms", LATENCY_MS_BOUNDS),
        })
    }
}

/// One request's trace identity, fixed at admission and carried through
/// the pipeline. Every stage records its span as a child of `root_span`
/// under `trace_id`; the root span itself is recorded when the request
/// answers (see [`ScoreRequest::respond`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqTrace {
    /// The trace id shared by every span of this request.
    pub trace_id: u64,
    /// Pre-allocated id of the root (`serve.request`) span, so child
    /// spans can reference it before the root completes.
    pub root_span: u64,
    /// True when the client supplied the trace id (echo it back).
    pub client_supplied: bool,
    /// True when this request's full span tree exports to the JSONL sink
    /// (`--trace-sample`); the in-memory ring always gets the spans.
    pub sampled: bool,
}

impl ReqTrace {
    pub(crate) fn new(client_trace_id: Option<u64>, sampled: bool) -> ReqTrace {
        ReqTrace {
            trace_id: client_trace_id.unwrap_or_else(next_trace_id),
            root_span: next_span_id(),
            client_supplied: client_trace_id.is_some(),
            sampled,
        }
    }
}

/// One admitted scoring request travelling from the protocol layer through
/// the queue to a worker.
pub(crate) struct ScoreRequest {
    /// Server-wide admission sequence number; fault plans key on it.
    pub seq: u64,
    /// The password to score.
    pub password: String,
    /// Shed once expired (already clamped to the server default).
    pub deadline: Option<Deadline>,
    /// The owning connection's token; cancelled means nobody is listening.
    pub cancel: CancelToken,
    /// Panic-retry attempts burned so far (singleton re-scores only).
    pub attempts: u32,
    /// Admission instant, for end-to-end latency.
    pub enqueued_at: Instant,
    /// Admission wall clock, anchoring this request's spans in time.
    pub enqueued_wall_ms: u64,
    /// This request's trace identity.
    pub trace: ReqTrace,
    responder: Option<Box<dyn FnOnce(ScoreOutcome) + Send>>,
    metrics: Arc<ServeMetrics>,
    tracer: TraceRecorder,
}

impl std::fmt::Debug for ScoreRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreRequest")
            .field("seq", &self.seq)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

impl ScoreRequest {
    // An internal constructor with two call sites (the NDJSON and HTTP
    // planes); a builder would add ceremony without adding clarity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        seq: u64,
        password: String,
        deadline: Option<Deadline>,
        cancel: CancelToken,
        metrics: Arc<ServeMetrics>,
        tracer: TraceRecorder,
        trace: ReqTrace,
        responder: impl FnOnce(ScoreOutcome) + Send + 'static,
    ) -> ScoreRequest {
        ScoreRequest {
            seq,
            password,
            deadline,
            cancel,
            attempts: 0,
            enqueued_at: Instant::now(),
            enqueued_wall_ms: wall_clock_ms(),
            trace,
            responder: Some(Box::new(responder)),
            metrics,
            tracer,
        }
    }

    /// Records one completed pipeline stage as a child span of this
    /// request's root, exporting it to the JSONL sink when sampled.
    pub(crate) fn child_span(&self, name: &str, start_ms: u64, dur_ms: f64) {
        self.tracer.record(
            TraceCtx::child_of(self.trace.trace_id, self.trace.root_span),
            name,
            start_ms,
            dur_ms,
            self.trace.sampled,
        );
    }

    /// Records queue wait (admission → dequeue) as a span + histogram;
    /// called by the worker the moment it pops the request.
    pub(crate) fn note_dequeued(&self) {
        let waited_ms = self.enqueued_at.elapsed().as_secs_f64() * 1e3;
        self.metrics.queue_wait.record(waited_ms);
        self.child_span("serve.queue_wait", self.enqueued_wall_ms, waited_ms);
    }

    /// Answers the client and does the terminal metric bookkeeping. The
    /// second call on the same request is a silent no-op (the `Option`
    /// guarantees at-most-once); the `Drop` backstop guarantees
    /// at-least-once.
    pub(crate) fn respond(&mut self, outcome: ScoreOutcome) {
        let Some(responder) = self.responder.take() else {
            return;
        };
        match &outcome {
            ScoreOutcome::Score(_) | ScoreOutcome::Unscorable(_) => {
                self.metrics.completed.inc();
                let ms = self.enqueued_at.elapsed().as_secs_f64() * 1e3;
                self.metrics.latency.record(ms);
            }
            ScoreOutcome::Shed(_) => self.metrics.shed.inc(),
            ScoreOutcome::Failed(_) => self.metrics.failed.inc(),
            ScoreOutcome::Rejected { .. } => self.metrics.rejected.inc(),
        }
        responder(outcome);
        // The root span closes when the request answers; children recorded
        // later (response write happens inside the responder's channel
        // consumer) still reference it by the pre-allocated id.
        self.tracer.record_with_id(
            self.trace.root_span,
            TraceCtx::root(self.trace.trace_id),
            "serve.request",
            self.enqueued_wall_ms,
            self.enqueued_at.elapsed().as_secs_f64() * 1e3,
            self.trace.sampled,
        );
    }
}

impl Drop for ScoreRequest {
    /// Backstop for the exactly-one-response contract: a request dropped
    /// without an answer still answers its client (as a failure) and
    /// leaves a `serve.lost` trace. Reaching this path is a server bug;
    /// the counter makes it observable instead of a silent hang.
    fn drop(&mut self) {
        if self.responder.is_some() {
            self.metrics.lost.inc();
            self.respond(ScoreOutcome::Failed(
                "request dropped without a response (server bug)".to_string(),
            ));
        }
    }
}

/// Tunables for the batching workers.
#[derive(Debug, Clone)]
pub(crate) struct EngineConfig {
    /// Hard ceiling on requests per forward (degraded mode only shrinks).
    pub max_batch: usize,
    /// Singleton panic re-scores before a request is declared poisoned.
    pub retries: u32,
    /// Consecutive deadline-miss waves before the batch ceiling halves.
    pub degrade_after: u32,
    /// Consecutive clean waves before the ceiling doubles back.
    pub recover_after: u32,
}

/// The degraded-mode state machine, shared by every worker.
///
/// States are the powers of two in `[1, max_batch]`. Transitions:
/// `degrade_after` consecutive waves that shed at least one request for a
/// missed deadline halve the effective ceiling (emitting a
/// `serve.degraded` warning); `recover_after` consecutive clean waves
/// double it (emitting `serve.recovered`). Mixed traffic resets both
/// streaks, so oscillation needs sustained evidence in either direction.
#[derive(Debug)]
pub(crate) struct DegradeState {
    effective: AtomicUsize,
    max: usize,
    degrade_after: u32,
    recover_after: u32,
    streaks: Mutex<Streaks>,
}

#[derive(Debug, Default)]
struct Streaks {
    miss: u32,
    clean: u32,
}

impl DegradeState {
    pub(crate) fn new(cfg: &EngineConfig) -> DegradeState {
        DegradeState {
            effective: AtomicUsize::new(cfg.max_batch.max(1)),
            max: cfg.max_batch.max(1),
            degrade_after: cfg.degrade_after.max(1),
            recover_after: cfg.recover_after.max(1),
            streaks: Mutex::new(Streaks::default()),
        }
    }

    /// The current batch ceiling.
    pub(crate) fn effective_max(&self) -> usize {
        // ORD: the ceiling is a hint; workers reading a stale value for
        // one wave is harmless.
        self.effective.load(Ordering::Relaxed).max(1)
    }

    /// Records one wave's deadline outcome and applies any transition.
    pub(crate) fn record_wave(
        &self,
        missed_deadline: bool,
        metrics: &ServeMetrics,
        tel: &Telemetry,
    ) {
        let mut s = lock(&self.streaks);
        let next = if missed_deadline {
            s.clean = 0;
            s.miss += 1;
            if s.miss < self.degrade_after {
                None
            } else {
                s.miss = 0;
                let cur = self.effective_max();
                (cur > 1).then_some((cur / 2, "serve.degraded", "warn"))
            }
        } else {
            s.miss = 0;
            s.clean += 1;
            if s.clean < self.recover_after {
                None
            } else {
                s.clean = 0;
                let cur = self.effective_max();
                (cur < self.max).then_some(((cur * 2).min(self.max), "serve.recovered", "progress"))
            }
        };
        if let Some((ceiling, event, kind)) = next {
            // ORD: published under the streak lock, so transitions are
            // serialized; readers only need the eventual value.
            self.effective.store(ceiling, Ordering::Relaxed);
            metrics.effective_max_batch.set(ceiling as f64);
            tel.event(kind, event, &[("max_batch", Field::U64(ceiling as u64))]);
        }
    }
}

/// One worker: pulls waves off the queue until it closes and is drained,
/// scoring each wave in a single batched forward on its own session. The
/// worker is work-conserving: it blocks only for a wave's first request,
/// then takes what is already queued and scores at once.
///
/// This function never panics outward: scoring panics are contained by
/// [`score_wave`] and turned into per-request [`ScoreOutcome::Failed`]s.
pub(crate) fn worker_loop(
    model: &PasswordModel,
    queue: &AdmissionQueue<ScoreRequest>,
    cfg: &EngineConfig,
    degrade: &DegradeState,
    metrics: &ServeMetrics,
    fault: Option<&FaultPlan>,
    tel: &Telemetry,
) {
    let mut session = InferenceSession::with_telemetry(model, tel);
    loop {
        let first = match queue.pop_timeout(IDLE_POLL) {
            Pop::Item(r) => r,
            Pop::TimedOut => continue,
            Pop::Closed => return,
        };
        first.note_dequeued();
        // Batch assembly: first pop → sheds applied and the wave grouped.
        // The wave is the first request plus whatever is already queued, up
        // to the ceiling; nothing waits for it to fill. Under load requests
        // queue while the previous wave computes, so waves still fill.
        let assembly_started = Instant::now();
        let assembly_wall_ms = wall_clock_ms();
        let mut wave = vec![first];
        let ceiling = degrade.effective_max();
        while wave.len() < ceiling {
            let Pop::Item(r) = queue.try_pop() else {
                break;
            };
            r.note_dequeued();
            wave.push(r);
        }
        metrics.queue_depth.set(queue.len() as f64);

        // Shed before scoring: expired or abandoned requests must not
        // occupy a forward slot.
        let mut missed_deadline = false;
        let mut group = Vec::with_capacity(wave.len());
        for mut req in wave {
            if req.cancel.is_cancelled() {
                req.respond(ScoreOutcome::Shed(ShedReason::Disconnected));
            } else if req.deadline.is_some_and(|d| d.expired()) {
                missed_deadline = true;
                req.respond(ScoreOutcome::Shed(ShedReason::DeadlineExpired));
            } else {
                group.push(req);
            }
        }
        degrade.record_wave(missed_deadline, metrics, tel);
        if group.is_empty() {
            continue;
        }
        let assembly_ms = assembly_started.elapsed().as_secs_f64() * 1e3;
        metrics.batch_assembly.record(assembly_ms);
        for req in &group {
            req.child_span("serve.batch_assembly", assembly_wall_ms, assembly_ms);
        }
        metrics.occupancy.record(group.len() as f64);
        let wave_started = Instant::now();
        score_wave(&mut session, group, cfg, metrics, fault);
        metrics
            .wave_ms
            .record(wave_started.elapsed().as_secs_f64() * 1e3);
    }
}

/// Scores one wave, containing panics by halving: a panicking group is
/// split in two and each half re-scored, so a single poisoned request is
/// isolated in O(log batch) forwards while its neighbours are re-scored
/// bit-identically (row-independent decode). A singleton that panics
/// burns one of its `cfg.retries` attempts per re-score; exhausting them
/// answers [`ScoreOutcome::Failed`].
fn score_wave(
    session: &mut InferenceSession<'_>,
    group: Vec<ScoreRequest>,
    cfg: &EngineConfig,
    metrics: &ServeMetrics,
    fault: Option<&FaultPlan>,
) {
    // Later-scored halves are pushed first so response order within the
    // wave stays FIFO. Depth 0 is the original forward; anything deeper
    // is a halving re-score after a contained panic.
    let mut stack = vec![(group, 0u32)];
    while let Some((mut group, depth)) = stack.pop() {
        if group.is_empty() {
            continue;
        }
        let passwords: Vec<&str> = group.iter().map(|r| r.password.as_str()).collect();
        let forward_started = Instant::now();
        let forward_wall_ms = wall_clock_ms();
        let scores = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = fault {
                for req in &group {
                    if plan.take_task_panic(req.seq) {
                        panic!("{}", crate::control::INJECTED_PANIC);
                    }
                }
            }
            session.score_batch(&passwords)
        }));
        let forward_ms = forward_started.elapsed().as_secs_f64() * 1e3;
        let span_name = if depth == 0 {
            metrics.forward_ms.record(forward_ms);
            "serve.forward"
        } else {
            metrics.rescore_ms.record(forward_ms);
            "serve.rescore"
        };
        match scores {
            Ok(scores) => {
                for (mut req, score) in group.into_iter().zip(scores) {
                    req.child_span(span_name, forward_wall_ms, forward_ms);
                    match score {
                        Ok(lp) => req.respond(ScoreOutcome::Score(lp)),
                        Err(e) => req.respond(ScoreOutcome::Unscorable(e.to_string())),
                    }
                }
            }
            Err(payload) => {
                metrics.panics.inc();
                // The cache may hold a half-advanced decode; start clean.
                session.reset();
                if group.len() == 1 {
                    if let Some(mut req) = group.pop() {
                        req.attempts += 1;
                        if req.attempts > cfg.retries {
                            req.child_span(span_name, forward_wall_ms, forward_ms);
                            req.respond(ScoreOutcome::Failed(panic_message(payload.as_ref())));
                        } else {
                            stack.push((vec![req], depth + 1));
                        }
                    }
                } else {
                    let right = group.split_off(group.len() / 2);
                    stack.push((right, depth + 1));
                    stack.push((group, depth + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelKind, PasswordModel};
    use crate::serve::queue::Priority;
    use pagpass_nn::GptConfig;
    use pagpass_telemetry::LogFormat;
    use pagpass_tokenizer::VOCAB_SIZE;
    use std::thread;

    /// A fresh, silent telemetry instance per test: `Telemetry::disabled()`
    /// shares one global registry, and these tests assert exact counter
    /// values, so they must not share metrics across parallel tests.
    fn quiet_tel() -> Telemetry {
        Telemetry::to_writer(LogFormat::Json, Box::new(std::io::sink()))
    }

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

    fn cfg() -> EngineConfig {
        EngineConfig {
            max_batch: 8,
            retries: 2,
            degrade_after: 3,
            recover_after: 8,
        }
    }

    /// Runs `requests` through a single worker against `model`, returning
    /// `(seq, outcome)` pairs in response order.
    fn run_engine(
        model: &PasswordModel,
        cfg: &EngineConfig,
        fault: Option<&FaultPlan>,
        build: impl FnOnce(
            &Arc<ServeMetrics>,
            &Arc<Mutex<Vec<(u64, ScoreOutcome)>>>,
        ) -> Vec<(ScoreRequest, Priority)>,
    ) -> (Vec<(u64, ScoreOutcome)>, Arc<ServeMetrics>) {
        let tel = &quiet_tel();
        let metrics = ServeMetrics::new(tel);
        let outcomes: Arc<Mutex<Vec<(u64, ScoreOutcome)>>> = Arc::new(Mutex::new(Vec::new()));
        let queue = AdmissionQueue::new(64);
        for (req, pri) in build(&metrics, &outcomes) {
            metrics.admitted.inc();
            queue.push(req, pri).map_err(|_| "push").unwrap();
        }
        queue.close();
        let degrade = DegradeState::new(cfg);
        thread::scope(|s| {
            s.spawn(|| worker_loop(model, &queue, cfg, &degrade, &metrics, fault, tel));
        });
        let got = lock(&outcomes).clone();
        (got, metrics)
    }

    fn request_with(
        seq: u64,
        pw: &str,
        deadline: Option<Deadline>,
        cancel: CancelToken,
        metrics: &Arc<ServeMetrics>,
        outcomes: &Arc<Mutex<Vec<(u64, ScoreOutcome)>>>,
    ) -> ScoreRequest {
        let sink = Arc::clone(outcomes);
        ScoreRequest::new(
            seq,
            pw.to_string(),
            deadline,
            cancel,
            Arc::clone(metrics),
            quiet_tel().trace_recorder(),
            ReqTrace::new(None, false),
            move |outcome| lock(&sink).push((seq, outcome)),
        )
    }

    fn request(
        seq: u64,
        pw: &str,
        metrics: &Arc<ServeMetrics>,
        outcomes: &Arc<Mutex<Vec<(u64, ScoreOutcome)>>>,
    ) -> ScoreRequest {
        request_with(seq, pw, None, CancelToken::new(), metrics, outcomes)
    }

    #[test]
    fn scores_a_batch_and_reconciles_counters() {
        let model = tiny();
        let pws = ["hello123", "Pass123$", "abc12345"];
        let (got, metrics) = run_engine(&model, &cfg(), None, |m, o| {
            pws.iter()
                .enumerate()
                .map(|(i, pw)| (request(i as u64, pw, m, o), Priority::Normal))
                .collect()
        });
        assert_eq!(got.len(), 3);
        // Bit-identical to solo scoring.
        for (i, pw) in pws.iter().enumerate() {
            let mut solo = InferenceSession::new(&model);
            let want = solo.log_probability(pw).unwrap();
            match got.iter().find(|(seq, _)| *seq == i as u64) {
                Some((_, ScoreOutcome::Score(lp))) => assert_eq!(*lp, want, "{pw}"),
                other => panic!("expected score for {pw}, got {other:?}"),
            }
        }
        assert_eq!(metrics.admitted.get(), 3);
        assert_eq!(metrics.completed.get(), 3);
        assert_eq!(metrics.shed.get(), 0);
        assert_eq!(metrics.failed.get(), 0);
        assert_eq!(metrics.lost.get(), 0);
    }

    #[test]
    fn requests_queued_before_the_worker_starts_share_one_wave() {
        let model = tiny();
        let pws = ["hello123", "Pass123$", "abc12345", "qwerty99", "zxcvbn12"];
        let (got, metrics) = run_engine(&model, &cfg(), None, |m, o| {
            pws.iter()
                .enumerate()
                .map(|(i, pw)| (request(i as u64, pw, m, o), Priority::Normal))
                .collect()
        });
        assert_eq!(got.len(), pws.len());
        assert_eq!(metrics.completed.get(), pws.len() as u64);
        assert_eq!(metrics.occupancy.count(), 1, "one wave");
        assert_eq!(metrics.forward_ms.count(), 1, "one forward");
    }

    #[test]
    fn a_backlog_past_the_ceiling_splits_at_the_ceiling() {
        let model = tiny();
        let (got, metrics) = run_engine(&model, &cfg(), None, |m, o| {
            (0..12u64)
                .map(|i| (request(i, &format!("pw{i:03}x"), m, o), Priority::Normal))
                .collect()
        });
        assert_eq!(got.len(), 12);
        // max_batch 8: one wave of 8, then one of the remaining 4.
        assert_eq!(metrics.occupancy.count(), 2);
        assert_eq!(metrics.forward_ms.count(), 2);
        let first_wave: Vec<u64> = got[..8].iter().map(|(seq, _)| *seq).collect();
        assert_eq!(first_wave, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_request_cannot_poison_cobatched_neighbours() {
        let model = tiny();
        let pws = ["hello123", "Pass123$", "abc12345", "qwerty99"];
        let poisoned = 2u64;
        let plan = FaultPlan::new().panic_task_always(poisoned);
        let (got, metrics) = run_engine(&model, &cfg(), Some(&plan), |m, o| {
            pws.iter()
                .enumerate()
                .map(|(i, pw)| (request(i as u64, pw, m, o), Priority::Normal))
                .collect()
        });
        assert_eq!(got.len(), 4);
        for (i, pw) in pws.iter().enumerate() {
            let outcome = &got.iter().find(|(seq, _)| *seq == i as u64).unwrap().1;
            if i as u64 == poisoned {
                assert!(
                    matches!(outcome, ScoreOutcome::Failed(msg) if msg.contains("injected")),
                    "poisoned request must fail: {outcome:?}"
                );
            } else {
                // Neighbours re-scored after the split must be
                // byte-identical to a solo run — not approximately equal.
                let mut solo = InferenceSession::new(&model);
                let want = solo.log_probability(pw).unwrap();
                match outcome {
                    ScoreOutcome::Score(lp) => assert_eq!(*lp, want, "{pw}"),
                    other => panic!("neighbour {pw} must score, got {other:?}"),
                }
            }
        }
        assert!(metrics.panics.get() >= 1);
        assert_eq!(metrics.failed.get(), 1);
        assert_eq!(metrics.completed.get(), 3);
        assert_eq!(
            metrics.admitted.get(),
            metrics.completed.get() + metrics.shed.get() + metrics.failed.get()
        );
        assert_eq!(metrics.lost.get(), 0);
    }

    #[test]
    fn transient_panic_recovers_within_retry_budget() {
        let model = tiny();
        let plan = FaultPlan::new().panic_task_once(0);
        let (got, metrics) = run_engine(&model, &cfg(), Some(&plan), |m, o| {
            vec![(request(0, "hello123", m, o), Priority::Normal)]
        });
        let mut solo = InferenceSession::new(&model);
        let want = solo.log_probability("hello123").unwrap();
        assert_eq!(got, vec![(0, ScoreOutcome::Score(want))]);
        assert_eq!(metrics.panics.get(), 1);
        assert_eq!(metrics.failed.get(), 0);
    }

    #[test]
    fn expired_deadline_and_dead_connection_are_shed_not_scored() {
        let model = tiny();
        let dead = CancelToken::new();
        dead.cancel();
        let (got, metrics) = run_engine(&model, &cfg(), None, |m, o| {
            let expired = request_with(
                0,
                "hello123",
                Some(Deadline::after(Duration::ZERO)),
                CancelToken::new(),
                m,
                o,
            );
            let abandoned = request_with(1, "Pass123$", None, dead.clone(), m, o);
            vec![
                (expired, Priority::High),
                (abandoned, Priority::Normal),
                (request(2, "abc12345", m, o), Priority::Normal),
            ]
        });
        assert_eq!(got.len(), 3);
        let outcome = |seq| got.iter().find(|(s, _)| *s == seq).unwrap().1.clone();
        assert_eq!(outcome(0), ScoreOutcome::Shed(ShedReason::DeadlineExpired));
        assert_eq!(outcome(1), ScoreOutcome::Shed(ShedReason::Disconnected));
        assert!(matches!(outcome(2), ScoreOutcome::Score(_)));
        assert_eq!(metrics.shed.get(), 2);
        assert_eq!(metrics.completed.get(), 1);
        assert_eq!(
            metrics.admitted.get(),
            metrics.completed.get() + metrics.shed.get() + metrics.failed.get()
        );
    }

    #[test]
    fn dropped_request_answers_failed_and_counts_lost() {
        let tel = &quiet_tel();
        let metrics = ServeMetrics::new(tel);
        let outcomes: Arc<Mutex<Vec<(u64, ScoreOutcome)>>> = Arc::new(Mutex::new(Vec::new()));
        let req = request(9, "hello123", &metrics, &outcomes);
        drop(req);
        let got = lock(&outcomes).clone();
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0].1, ScoreOutcome::Failed(msg) if msg.contains("server bug")));
        assert_eq!(metrics.lost.get(), 1);
        assert_eq!(metrics.failed.get(), 1);
    }

    #[test]
    fn degrade_state_halves_on_miss_streaks_and_recovers() {
        let cfg = EngineConfig {
            max_batch: 8,
            retries: 0,
            degrade_after: 2,
            recover_after: 3,
        };
        let tel = &quiet_tel();
        let metrics = ServeMetrics::new(tel);
        let d = DegradeState::new(&cfg);
        assert_eq!(d.effective_max(), 8);
        d.record_wave(true, &metrics, tel);
        assert_eq!(d.effective_max(), 8, "one miss is not a streak");
        d.record_wave(true, &metrics, tel);
        assert_eq!(d.effective_max(), 4, "two misses halve");
        d.record_wave(true, &metrics, tel);
        d.record_wave(true, &metrics, tel);
        d.record_wave(true, &metrics, tel);
        d.record_wave(true, &metrics, tel);
        assert_eq!(d.effective_max(), 1, "floor is one");
        d.record_wave(true, &metrics, tel);
        d.record_wave(true, &metrics, tel);
        assert_eq!(d.effective_max(), 1, "stays at the floor");
        // A clean streak interrupted by a miss restarts from zero.
        d.record_wave(false, &metrics, tel);
        d.record_wave(false, &metrics, tel);
        d.record_wave(true, &metrics, tel);
        d.record_wave(false, &metrics, tel);
        d.record_wave(false, &metrics, tel);
        assert_eq!(d.effective_max(), 1, "interrupted streak does not recover");
        d.record_wave(false, &metrics, tel);
        assert_eq!(d.effective_max(), 2, "three clean waves double");
        for _ in 0..6 {
            d.record_wave(false, &metrics, tel);
        }
        assert_eq!(d.effective_max(), 8, "recovery is capped at max_batch");
    }
}
