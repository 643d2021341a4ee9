//! The supervised worker pool shared by every [`Scheduler`].
//!
//! Workers park on a condition variable when idle, every task executes
//! inside a panic boundary with bounded retries, cancellation and
//! deadlines drain cleanly with partial results, and an optional journal
//! makes interrupted runs resumable. The scheduler decides *what* runs
//! and *when* guesses emit; this module owns *how*: execution, fault
//! tolerance, budget accounting, journaling, and telemetry.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pagpass_nn::Rng;
use pagpass_patterns::Pattern;
use pagpass_telemetry::{Counter, Field, Gauge, Histogram, Telemetry, DEPTH_BOUNDS};

use crate::control::{CancelToken, Deadline, FaultPlan, INJECTED_PANIC};
use crate::dcgen::{DcGenConfig, DcGenOptions, DcGenReport, FailedTask};
use crate::inference::InferenceSession;
use crate::journal::{DcGenJournal, JournalTask};
use crate::sched::{Acquire, AcquireCtx, Scheduler, Task};
use crate::{lock, panic_message, CoreError, PasswordModel};

/// Shared state of the worker pool, guarded by one mutex. Workers park on
/// the companion condvar when the scheduler has nothing ready but
/// siblings are still executing (their commits may publish more work).
pub(crate) struct PoolState {
    /// The pending-work structure and all ordering/budget policy.
    pub scheduler: Box<dyn Scheduler>,
    /// Tasks currently executing; journals persist them alongside the
    /// scheduler's pending work so an interrupted task is simply re-run
    /// on resume.
    pub in_flight: Vec<Task>,
    /// Budget reserved by leaves/emissions that have started (never
    /// exceeds `total`); reservations roll back if the task panics.
    pub reserved: u64,
    /// Passwords actually appended or sunk (including a resumed base).
    pub emitted: u64,
    pub completed: u64,
    pub leaves: usize,
    pub expansions: usize,
    pub deleted: usize,
    pub patterns_used: usize,
    pub retries: u64,
    /// Within-leaf duplicate passwords observed so far.
    pub leaf_duplicates: u64,
    /// KV positions served from worker session caches so far.
    pub prefix_cache_hits: u64,
    pub failed: Vec<FailedTask>,
    pub passwords: Vec<String>,
    /// Log-probabilities of ordered emissions ([`Acquire::Emit`]), in
    /// emission order. Empty for schedulers that only sample leaves.
    pub emission_log_probs: Vec<f64>,
    pub stopping: bool,
    pub journal_errors: u64,
    pub sink_error: Option<std::io::Error>,
}

impl PoolState {
    /// State for a fresh run seeded with `scheduler`.
    pub(crate) fn fresh(
        scheduler: Box<dyn Scheduler>,
        patterns_used: usize,
        deleted: usize,
    ) -> PoolState {
        PoolState {
            scheduler,
            in_flight: Vec::new(),
            reserved: 0,
            emitted: 0,
            completed: 0,
            leaves: 0,
            expansions: 0,
            deleted,
            patterns_used,
            retries: 0,
            leaf_duplicates: 0,
            prefix_cache_hits: 0,
            failed: Vec::new(),
            passwords: Vec::new(),
            emission_log_probs: Vec::new(),
            stopping: false,
            journal_errors: 0,
            sink_error: None,
        }
    }

    /// State continuing from a journal snapshot.
    pub(crate) fn resumed(scheduler: Box<dyn Scheduler>, journal: &DcGenJournal) -> PoolState {
        PoolState {
            scheduler,
            in_flight: Vec::new(),
            reserved: journal.emitted,
            emitted: journal.emitted,
            completed: journal.completed,
            leaves: journal.leaves,
            expansions: journal.expansions,
            deleted: journal.deleted,
            patterns_used: journal.patterns_used,
            retries: journal.retries,
            leaf_duplicates: journal.leaf_duplicates,
            prefix_cache_hits: journal.prefix_cache_hits,
            failed: journal.failed.clone(),
            passwords: Vec::new(),
            emission_log_probs: Vec::new(),
            stopping: false,
            journal_errors: 0,
            sink_error: None,
        }
    }
}

/// Pre-created telemetry handles for the pool's hot path. Handles are
/// cheap `Arc`s over atomics; creating them once up front keeps the
/// registry's name map out of the per-task path entirely.
struct PoolMetrics {
    passwords: Counter,
    duplicates: Counter,
    tasks_completed: Counter,
    tasks_failed: Counter,
    retries: Counter,
    leaves: Counter,
    expansions: Counter,
    deleted: Counter,
    journal_writes: Counter,
    journal_errors: Counter,
    sched_emitted: Counter,
    sched_evictions: Counter,
    queue_depth: Gauge,
    workers_busy: Gauge,
    frontier_depth: Gauge,
    queue_depth_hist: Histogram,
    task_ms: Histogram,
    journal_ms: Histogram,
    gemm_calls: Counter,
    pool_threads: Gauge,
}

impl PoolMetrics {
    fn new(tel: &Telemetry) -> PoolMetrics {
        PoolMetrics {
            passwords: tel.counter("dcgen.passwords"),
            duplicates: tel.counter("dcgen.leaf_duplicates"),
            tasks_completed: tel.counter("dcgen.tasks_completed"),
            tasks_failed: tel.counter("dcgen.tasks_failed"),
            retries: tel.counter("dcgen.task_retries"),
            leaves: tel.counter("dcgen.leaf_tasks"),
            expansions: tel.counter("dcgen.expansions"),
            deleted: tel.counter("dcgen.deleted_tasks"),
            journal_writes: tel.counter("dcgen.journal_writes"),
            journal_errors: tel.counter("dcgen.journal_errors"),
            sched_emitted: tel.counter("sched.emitted"),
            sched_evictions: tel.counter("sched.evictions"),
            queue_depth: tel.gauge("dcgen.queue_depth"),
            workers_busy: tel.gauge("dcgen.workers_busy"),
            frontier_depth: tel.gauge("sched.frontier_depth"),
            queue_depth_hist: tel
                .registry()
                .histogram("dcgen.queue_depth.hist", DEPTH_BOUNDS),
            task_ms: tel.histogram_ms("dcgen.task.ms"),
            journal_ms: tel.histogram_ms("dcgen.journal.ms"),
            gemm_calls: tel.counter("nn.gemm_calls"),
            pool_threads: tel.gauge("nn.pool_threads"),
        }
    }

    /// Refreshes the pool-shape gauges from the shared state.
    fn observe_pool(&self, s: &PoolState) {
        self.queue_depth.set(s.scheduler.pending_len() as f64);
        self.frontier_depth.set(s.scheduler.pending_len() as f64);
        self.workers_busy.set(s.in_flight.len() as f64);
    }
}

/// Duplicates inside one leaf's batch (the only place repeats can occur).
fn count_batch_duplicates(pwds: &[String]) -> u64 {
    let mut seen: HashSet<&str> = HashSet::with_capacity(pwds.len());
    pwds.iter().filter(|p| !seen.insert(p.as_str())).count() as u64
}

/// What one task execution produced (computed outside the lock).
enum TaskOutput {
    Leaf(Vec<String>),
    /// The raw next-character distribution of an expansion; the
    /// scheduler turns it into pending work (quotas, log-probs, pruning)
    /// under the lock in [`Scheduler::commit_split`].
    Split {
        children: Vec<(char, f64)>,
    },
}

/// Derives a task's RNG seed from the run seed and the task id
/// (SplitMix64-style finalizer so nearby ids decorrelate).
fn task_seed(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Supervised worker pool: executes every task the scheduler hands out,
/// committing splits and emissions back into it, until the scheduler
/// reports done or a stop is requested.
pub(crate) fn run_pool(
    model: &PasswordModel,
    config: &DcGenConfig,
    state: PoolState,
    pattern_list: &[Pattern],
    opts: &DcGenOptions<'_>,
) -> Result<DcGenReport, CoreError> {
    let threshold = config.threshold as f64;
    let total = config.total;
    // DET: the deadline is wall-clock by design — it bounds real run
    // time, not generated work, and never influences emitted passwords.
    // `Deadline::after` reads the monotonic clock exactly once, here;
    // per-task polls compare against that fixed instant.
    let deadline_at = opts.deadline.map(Deadline::after);
    let tel: &Telemetry = match opts.telemetry {
        Some(tel) => tel,
        None => Telemetry::disabled(),
    };
    let metrics = PoolMetrics::new(tel);
    metrics
        .pool_threads
        .set(pagpass_nn::pool::global().threads() as f64);
    // The GEMM counter is process-global; record this run's delta so
    // the metric covers exactly this run.
    let gemm_at_start = pagpass_nn::gemm_calls();
    let run_timer = tel.timer("dcgen.run");
    tel.event(
        "progress",
        "dcgen.start",
        &[
            ("scheduler", Field::Str(state.scheduler.kind().to_string())),
            ("total", Field::U64(total)),
            ("threshold", Field::U64(config.threshold)),
            ("workers", Field::U64(config.workers.max(1) as u64)),
            ("queued", Field::U64(state.scheduler.pending_len() as u64)),
            ("resumed_emitted", Field::U64(state.emitted)),
        ],
    );
    let state = Mutex::new(state);
    let work_ready = Condvar::new();
    let workers = config.workers.max(1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let state = &state;
            let work_ready = &work_ready;
            let metrics = &metrics;
            scope.spawn(move || {
                // One KV-cached session per worker, threaded through
                // every split and leaf this worker executes. D&C-GEN's
                // FIFO order means consecutive tasks are usually
                // siblings; SOPG's best-first order jumps subtrees, and
                // the session's LCP seek recomputes only the divergent
                // suffix either way.
                let mut session = InferenceSession::with_telemetry(model, tel);
                loop {
                    // ---- acquire: ask the scheduler for work, emit or
                    // park as it directs.
                    let (task, leaf_n) = {
                        let mut s = lock(state);
                        loop {
                            if s.stopping {
                                return;
                            }
                            let cancelled = opts.cancel.is_some_and(CancelToken::is_cancelled)
                                // DET: deadline check only; see deadline_at.
                                || deadline_at.is_some_and(|d| d.expired());
                            if cancelled {
                                s.stopping = true;
                                work_ready.notify_all();
                                return;
                            }
                            let PoolState {
                                scheduler,
                                reserved,
                                in_flight,
                                ..
                            } = &mut *s;
                            let action = scheduler.acquire(AcquireCtx {
                                patterns: pattern_list,
                                threshold,
                                total,
                                reserved,
                                in_flight,
                            });
                            match action {
                                Acquire::Run { task, leaf_n } => {
                                    s.in_flight.push(task.clone());
                                    metrics.observe_pool(&s);
                                    metrics
                                        .queue_depth_hist
                                        .record(s.scheduler.pending_len() as f64);
                                    break (task, leaf_n);
                                }
                                Acquire::Emit {
                                    passwords,
                                    log_probs,
                                } => {
                                    let n = passwords.len() as u64;
                                    s.emitted += n;
                                    if let Some(sink) = opts.sink {
                                        if let Err(e) = sink.emit(&passwords) {
                                            s.emitted -= n;
                                            s.reserved -= n;
                                            s.sink_error = Some(e);
                                            s.stopping = true;
                                            work_ready.notify_all();
                                            return;
                                        }
                                    }
                                    metrics.passwords.add(n);
                                    metrics.sched_emitted.add(n);
                                    s.emission_log_probs.extend(log_probs);
                                    if opts.sink.is_none() {
                                        s.passwords.extend(passwords);
                                    }
                                    finish_task(config, &mut s, pattern_list, opts, metrics);
                                    metrics.observe_pool(&s);
                                }
                                Acquire::Park => {
                                    // Parked: a sibling's commit may
                                    // publish work, or a stop may arrive.
                                    // The timeout bounds how long a parked
                                    // worker can miss a deadline.
                                    s = work_ready
                                        .wait_timeout(s, Duration::from_millis(20))
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .0;
                                }
                                Acquire::Done => {
                                    s.stopping = true;
                                    work_ready.notify_all();
                                    return;
                                }
                            }
                        }
                    };

                    // ---- execute outside the lock, inside a panic boundary.
                    let pattern = &pattern_list[task.pattern_idx];
                    let reused_before = session.reused_tokens();
                    // DET: telemetry timing only; feeds a histogram, never
                    // the generation path.
                    let task_started = Instant::now();
                    let caught =
                        catch_unwind(AssertUnwindSafe(|| -> Result<TaskOutput, CoreError> {
                            if opts.fault.is_some_and(|f| f.take_task_panic(task.id)) {
                                panic!("{INJECTED_PANIC}");
                            }
                            if let Some(n) = leaf_n {
                                // Leaf: execute (Algorithm 1, lines 5 & 13).
                                let pwds = if n == 0 {
                                    Vec::new()
                                } else {
                                    let mut rng = Rng::seed_from(task_seed(config.seed, task.id));
                                    session.generate_leaf(
                                        pattern,
                                        &task.prefix,
                                        n,
                                        config.temperature,
                                        &mut rng,
                                    )?
                                };
                                Ok(TaskOutput::Leaf(pwds))
                            } else {
                                // Expansion: the model's next-character
                                // distribution (lines 15–20); the scheduler
                                // applies its own pruning/priority policy
                                // when the result commits.
                                let (ids, probs) =
                                    session.next_char_distribution(pattern, &task.prefix)?;
                                let vocab = model.tokenizer().vocab();
                                let mut children = Vec::new();
                                for (&id, &p) in ids.iter().zip(&probs) {
                                    let ch = match vocab.token_of(id) {
                                        Some(pagpass_tokenizer::Token::Char(c)) => c,
                                        _ => continue,
                                    };
                                    children.push((ch, p));
                                }
                                Ok(TaskOutput::Split { children })
                            }
                        }));
                    // A task failing with a CoreError (bad prefix, unknown
                    // character) takes the same retry/abandon path as a
                    // panic: supervision does not care how a task died.
                    let outcome: Result<TaskOutput, String> = match caught {
                        Ok(Ok(out)) => Ok(out),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(payload) => Err(panic_message(payload.as_ref())),
                    };
                    let task_reuse = session.reused_tokens() - reused_before;

                    metrics
                        .task_ms
                        .record(task_started.elapsed().as_secs_f64() * 1e3);
                    // Duplicate counting hashes the whole batch — do it
                    // before taking the lock.
                    let batch_dups = match &outcome {
                        Ok(TaskOutput::Leaf(pwds)) => count_batch_duplicates(pwds),
                        _ => 0,
                    };

                    // ---- commit under the lock.
                    let mut s = lock(state);
                    s.prefix_cache_hits += task_reuse;
                    if let Some(pos) = s.in_flight.iter().position(|t| t.id == task.id) {
                        s.in_flight.remove(pos);
                    }
                    match outcome {
                        Ok(TaskOutput::Leaf(pwds)) => {
                            s.leaves += 1;
                            s.emitted += pwds.len() as u64;
                            if let Some(sink) = opts.sink {
                                if let Err(e) = sink.emit(&pwds) {
                                    s.emitted -= pwds.len() as u64;
                                    s.reserved -= leaf_n.unwrap_or(0) as u64;
                                    s.sink_error = Some(e);
                                    s.stopping = true;
                                    work_ready.notify_all();
                                    return;
                                }
                            }
                            s.leaf_duplicates += batch_dups;
                            metrics.leaves.inc();
                            metrics.passwords.add(pwds.len() as u64);
                            metrics.sched_emitted.add(pwds.len() as u64);
                            metrics.duplicates.add(batch_dups);
                            if opts.sink.is_none() {
                                s.passwords.extend(pwds);
                            }
                            finish_task(config, &mut s, pattern_list, opts, metrics);
                        }
                        Ok(TaskOutput::Split { children }) => {
                            let deleted = s.scheduler.commit_split(&task, &children);
                            s.expansions += 1;
                            s.deleted += deleted;
                            metrics.expansions.inc();
                            metrics.deleted.add(deleted as u64);
                            finish_task(config, &mut s, pattern_list, opts, metrics);
                            work_ready.notify_all();
                        }
                        Err(message) => {
                            // Supervision: retry with the same id (same RNG
                            // stream), or abandon into `failed`.
                            if let Some(n) = leaf_n {
                                s.reserved -= n as u64;
                            }
                            if task.retries_left > 0 {
                                s.retries += 1;
                                metrics.retries.inc();
                                s.scheduler.requeue(Task {
                                    retries_left: task.retries_left - 1,
                                    ..task
                                });
                                work_ready.notify_all();
                            } else {
                                metrics.tasks_failed.inc();
                                s.failed.push(FailedTask {
                                    pattern: pattern.to_string(),
                                    prefix: task.prefix.clone(),
                                    quota: task.quota,
                                    error: message,
                                });
                            }
                        }
                    }
                    metrics.observe_pool(&s);
                }
            });
        }
    });

    let mut s = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let interrupted = s.scheduler.interrupted(s.reserved, total);
    if let Some(path) = opts.journal {
        write_journal(config, &mut s, pattern_list, path, opts.fault, &metrics);
    }
    metrics.observe_pool(&s);
    metrics.sched_evictions.add(s.scheduler.evictions());
    metrics
        .gemm_calls
        .add(pagpass_nn::gemm_calls().saturating_sub(gemm_at_start));
    drop(run_timer); // records dcgen.run.ms before the final event
    tel.event(
        "progress",
        "dcgen.done",
        &[
            ("emitted", Field::U64(s.emitted)),
            ("leaves", Field::U64(s.leaves as u64)),
            ("expansions", Field::U64(s.expansions as u64)),
            ("failed_tasks", Field::U64(s.failed.len() as u64)),
            ("prefix_cache_hits", Field::U64(s.prefix_cache_hits)),
            ("interrupted", Field::Bool(interrupted)),
        ],
    );
    if let Some(e) = s.sink_error {
        return Err(CoreError::Io(e));
    }
    Ok(DcGenReport {
        passwords: s.passwords,
        leaf_tasks: s.leaves,
        expansions: s.expansions,
        deleted_tasks: s.deleted,
        patterns_used: s.patterns_used,
        emitted: s.emitted,
        failed_tasks: s.failed,
        retries: s.retries,
        leaf_duplicates: s.leaf_duplicates,
        prefix_cache_hits: s.prefix_cache_hits,
        frontier_evictions: s.scheduler.evictions(),
        emission_log_probs: s.emission_log_probs,
        interrupted,
        journal_errors: s.journal_errors,
    })
}

/// Post-completion bookkeeping: success counter, periodic journal,
/// injected kill point. Ordered emissions count as completed work so the
/// journal cadence advances for frontier schedulers too.
fn finish_task(
    config: &DcGenConfig,
    s: &mut PoolState,
    pattern_list: &[Pattern],
    opts: &DcGenOptions<'_>,
    metrics: &PoolMetrics,
) {
    s.completed += 1;
    metrics.tasks_completed.inc();
    if let Some(path) = opts.journal {
        let every = config.journal_every;
        if every > 0 && s.completed.is_multiple_of(every) {
            write_journal(config, s, pattern_list, path, opts.fault, metrics);
        }
    }
    if opts.fault.is_some_and(|f| f.should_cancel(s.completed)) {
        s.stopping = true;
    }
}

/// Snapshots `s` to the journal file. Failures are counted, not fatal:
/// the journal improves crash recovery but must never take down a run
/// that is otherwise producing passwords.
fn write_journal(
    config: &DcGenConfig,
    s: &mut PoolState,
    pattern_list: &[Pattern],
    path: &Path,
    fault: Option<&FaultPlan>,
    metrics: &PoolMetrics,
) {
    let journal = DcGenJournal {
        total: config.total,
        threshold: config.threshold,
        temperature: config.temperature,
        seed: config.seed,
        workers: config.workers,
        max_task_retries: config.max_task_retries,
        journal_every: config.journal_every,
        scheduler: s.scheduler.kind(),
        sched_config_hash: config.sched_config_hash(),
        frontier_cap: config.frontier_cap,
        kernel: pagpass_nn::kernel_mode(),
        patterns: pattern_list.to_vec(),
        emitted: s.emitted,
        completed: s.completed,
        leaves: s.leaves,
        expansions: s.expansions,
        deleted: s.deleted,
        patterns_used: s.patterns_used,
        retries: s.retries,
        leaf_duplicates: s.leaf_duplicates,
        prefix_cache_hits: s.prefix_cache_hits,
        next_id: s.scheduler.next_id(),
        tasks: s
            .scheduler
            .pending_tasks()
            .into_iter()
            .chain(s.in_flight.iter().map(|t| JournalTask {
                id: t.id,
                pattern_idx: t.pattern_idx,
                prefix: t.prefix.clone(),
                quota: t.quota,
            }))
            .collect(),
        failed: s.failed.clone(),
    };
    let injected = fault.is_some_and(FaultPlan::take_write_failure);
    // DET: telemetry timing only; journal contents stay deterministic.
    let started = Instant::now();
    if injected || journal.save(path).is_err() {
        s.journal_errors += 1;
        metrics.journal_errors.inc();
    } else {
        metrics.journal_writes.inc();
    }
    metrics
        .journal_ms
        .record(started.elapsed().as_secs_f64() * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_seed_decorrelates_nearby_ids() {
        let a = task_seed(0, 1);
        let b = task_seed(0, 2);
        assert_ne!(a, b);
        assert_ne!(task_seed(1, 1), a, "run seed perturbs every stream");
    }

    #[test]
    fn batch_duplicate_counting() {
        let batch: Vec<String> = ["a", "b", "a", "a"].iter().map(|s| s.to_string()).collect();
        assert_eq!(count_batch_duplicates(&batch), 2);
        assert_eq!(count_batch_duplicates(&[]), 0);
    }
}
