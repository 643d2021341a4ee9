use std::path::Path;
use std::time::Duration;

use pagpass_patterns::{Pattern, PatternDistribution};
use pagpass_telemetry::Telemetry;

use crate::control::{CancelToken, FaultPlan};
use crate::journal::DcGenJournal;
use crate::sched::{self, pool::PoolState, SchedulerKind};
use crate::{CoreError, ModelKind, PasswordModel};

/// The most task workers a run may ask for, each one an OS thread. The
/// CLI refuses a larger `--workers`, and [`DcGenJournal::from_text`]
/// refuses a journal that declares more, because a resumed run spawns
/// exactly that many.
pub const MAX_WORKERS: usize = 256;

/// Configuration of a D&C-GEN run (paper Algorithm 1 plus the §III-C3
/// optimizations).
#[derive(Debug, Clone, PartialEq)]
pub struct DcGenConfig {
    /// Total guess budget `N`. The run emits **at most** this many
    /// passwords; leaf quotas that would overshoot through rounding are
    /// truncated against the global budget.
    pub total: u64,
    /// Division threshold `T`: a subtask with a quota at or below this is
    /// executed instead of split. The paper sets 4 000 for its GPU; pick
    /// the batch size your hardware generates efficiently.
    pub threshold: u64,
    /// Sampling temperature inside leaf tasks.
    pub temperature: f32,
    /// RNG seed. Each task derives its own stream from `(seed, task id)`,
    /// so single-worker runs are byte-reproducible — including across an
    /// interrupt/resume cycle.
    pub seed: u64,
    /// Ablation switch: allocate the budget uniformly across patterns
    /// instead of by their empirical probability.
    pub uniform_patterns: bool,
    /// Concurrent task workers (paper optimization 3), one OS thread each;
    /// the CLI and the journal loader refuse more than [`MAX_WORKERS`].
    /// With `1` the run is fully deterministic.
    pub workers: usize,
    /// How many times a panicking task is retried before it is abandoned
    /// and recorded in [`DcGenReport::failed_tasks`].
    pub max_task_retries: u32,
    /// Completed tasks between journal snapshots when a journal path is
    /// given ([`DcGenOptions::journal`]); `0` journals only at the end of
    /// the run.
    pub journal_every: u64,
    /// Which guess-ordering strategy drives the run. The default,
    /// [`SchedulerKind::Dcgen`], is the paper's algorithm; see
    /// [`SchedulerKind`] for the alternatives.
    pub scheduler: SchedulerKind,
    /// SOPG frontier cap: maximum pending nodes kept by the best-first
    /// scheduler before the least probable are evicted deterministically.
    /// `0` means unbounded. Ignored by the other schedulers.
    pub frontier_cap: u64,
}

impl DcGenConfig {
    /// A sensible CPU-scale default: `N` guesses with threshold 256,
    /// single-worker for determinism, two retries per faulty task, the
    /// paper's D&C-GEN scheduler.
    #[must_use]
    pub fn new(total: u64) -> DcGenConfig {
        DcGenConfig {
            total,
            threshold: 256,
            temperature: 1.0,
            seed: 0,
            uniform_patterns: false,
            workers: 1,
            max_task_retries: 2,
            journal_every: 64,
            scheduler: SchedulerKind::Dcgen,
            frontier_cap: 0,
        }
    }

    /// CRC32 of the scheduling-relevant configuration, journaled so a
    /// resumed run can show *what* it is resuming (scheduler identity is
    /// checked separately and hard-fails on mismatch).
    #[must_use]
    pub fn sched_config_hash(&self) -> u32 {
        let canon = format!(
            "{} total={} threshold={} temp={:08x} seed={} frontier_cap={}",
            self.scheduler,
            self.total,
            self.threshold,
            self.temperature.to_bits(),
            self.seed,
            self.frontier_cap,
        );
        pagpass_nn::crc32(canon.as_bytes())
    }
}

/// A task abandoned after exhausting its retry budget. The run continues
/// without it; its quota is the upper bound on the guesses lost.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTask {
    /// Pattern of the abandoned subtask (display form, e.g. `L6N2`).
    pub pattern: String,
    /// Password prefix the subtask was constrained to.
    pub prefix: String,
    /// Guess quota the subtask carried.
    pub quota: f64,
    /// Panic message of the final attempt.
    pub error: String,
}

/// Runtime options for a D&C-GEN run: everything that controls *how* the
/// run executes rather than *what* it computes.
#[derive(Default, Clone, Copy)]
pub struct DcGenOptions<'a> {
    /// Cooperative cancellation; workers drain at the next task boundary.
    pub cancel: Option<&'a CancelToken>,
    /// Wall-clock budget; the pool drains once it elapses.
    pub deadline: Option<Duration>,
    /// Sidecar journal path enabling [`DcGen::resume`] after interruption.
    pub journal: Option<&'a Path>,
    /// Deterministic fault injection (tests only).
    pub fault: Option<&'a FaultPlan>,
    /// Streaming output; when set, passwords go to the sink batch by batch
    /// and [`DcGenReport::passwords`] stays empty (bounded memory).
    pub sink: Option<&'a dyn PasswordSink>,
    /// Telemetry: metric registration plus structured events. `None` falls
    /// back to [`Telemetry::disabled`] — the run still counts into a silent
    /// registry, at the cost of a few relaxed atomics per task.
    pub telemetry: Option<&'a Telemetry>,
}

impl std::fmt::Debug for DcGenOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcGenOptions")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("journal", &self.journal)
            .field("fault", &self.fault)
            .field("sink", &self.sink.map(|_| "dyn PasswordSink"))
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Streaming receiver for generated passwords.
///
/// Implementations must be `Sync`: worker threads emit concurrently
/// (serialized by the pool's internal lock, so calls never overlap, but
/// they do come from different threads).
pub trait PasswordSink: Sync {
    /// Accepts one leaf's worth of passwords.
    ///
    /// # Errors
    ///
    /// An error stops the run; the final journal still reflects every
    /// batch that was accepted.
    fn emit(&self, batch: &[String]) -> std::io::Result<()>;
}

/// Outcome of a D&C-GEN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DcGenReport {
    /// Every generated password, leaf by leaf (or, for the SOPG
    /// scheduler, in exact descending-probability order). Empty when a
    /// [`PasswordSink`] streamed them out instead; on resume, contains
    /// only passwords generated *after* the journal snapshot.
    pub passwords: Vec<String>,
    /// Number of leaf tasks executed.
    pub leaf_tasks: usize,
    /// Number of task expansions (model-guided divisions).
    pub expansions: usize,
    /// Subtasks dropped because their quota rounded below one password
    /// (or, for SOPG, children pruned for zero probability).
    pub deleted_tasks: usize,
    /// Patterns that received budget.
    pub patterns_used: usize,
    /// Total passwords emitted, including any counted by a resumed
    /// journal. Never exceeds [`DcGenConfig::total`].
    pub emitted: u64,
    /// Tasks abandoned after exhausting their retry budget.
    pub failed_tasks: Vec<FailedTask>,
    /// Task executions that panicked and were retried.
    pub retries: u64,
    /// Duplicate passwords observed within leaves (including any counted
    /// by a resumed journal). Subtasks are disjoint, so repeats can *only*
    /// occur inside one leaf: `leaf_duplicates / emitted` is the run's
    /// exact observed repeat rate, even when passwords streamed to a sink.
    pub leaf_duplicates: u64,
    /// KV-cache positions served from a worker's inference session instead
    /// of recomputed (splits reusing a parent's prompt, leaves broadcasting
    /// a primed prompt across batch rows). Purely an efficiency statistic:
    /// reuse is bit-exact and never changes which passwords are emitted.
    pub prefix_cache_hits: u64,
    /// Frontier nodes evicted by the SOPG memory cap
    /// ([`DcGenConfig::frontier_cap`]); zero for the other schedulers.
    pub frontier_evictions: u64,
    /// Log-probabilities of ordered emissions, in emission order (SOPG
    /// only; empty for sampling schedulers). Non-increasing by
    /// construction — the property the scheduler-comparison report and
    /// property tests assert.
    pub emission_log_probs: Vec<f64>,
    /// Whether the run stopped early (cancellation or deadline) with tasks
    /// still pending. A journaled interrupted run can be continued with
    /// [`DcGen::resume`].
    pub interrupted: bool,
    /// Journal writes that failed; the run continues through these (the
    /// journal is an aid, not a dependency), but resume granularity
    /// degrades to the last successful snapshot.
    pub journal_errors: u64,
}

impl DcGenReport {
    fn empty() -> DcGenReport {
        DcGenReport {
            passwords: Vec::new(),
            leaf_tasks: 0,
            expansions: 0,
            deleted_tasks: 0,
            patterns_used: 0,
            emitted: 0,
            failed_tasks: Vec::new(),
            retries: 0,
            leaf_duplicates: 0,
            prefix_cache_hits: 0,
            frontier_evictions: 0,
            emission_log_probs: Vec::new(),
            interrupted: false,
            journal_errors: 0,
        }
    }
}

/// The D&C-GEN divide-and-conquer generator.
///
/// The guess budget is first divided across patterns by `Pr(P)` (capped at
/// each pattern's search space — optimization 2), then recursively across
/// next-character extensions using the model's conditional distribution,
/// until a subtask's quota is at most [`DcGenConfig::threshold`]. Leaves
/// sample their quota under the (pattern, prefix) constraint. Distinct
/// subtasks are disjoint by construction — they differ in pattern or in
/// prefix — so repeats can only arise *within* one leaf.
///
/// # Scheduling
///
/// The division policy above is one [`SchedulerKind`]; the same runner
/// also drives SOPG best-first ordered enumeration and a plain-sampling
/// baseline ([`DcGenConfig::scheduler`]). All schedulers share the worker
/// pool, fault tolerance, journaling, and telemetry below.
///
/// # Fault tolerance
///
/// Tasks run under a supervisor: workers park on a condition variable when
/// idle, every task executes inside a panic boundary, and a panicking task
/// is retried up to [`DcGenConfig::max_task_retries`] times before being
/// recorded in [`DcGenReport::failed_tasks`] — one bad subtask never kills
/// the run. Cooperative cancellation ([`CancelToken`]) and an optional
/// deadline drain the pool cleanly with partial results, and an optional
/// journal ([`DcGenOptions::journal`]) makes interrupted runs resumable via
/// [`DcGen::resume`].
///
/// # Examples
///
/// ```no_run
/// use pagpassgpt::{DcGen, DcGenConfig, ModelKind, PasswordModel};
/// use pagpass_patterns::PatternDistribution;
///
/// # fn demo(model: &PasswordModel, patterns: &PatternDistribution) {
/// let report = DcGen::new(model, DcGenConfig::new(10_000)).run(patterns).unwrap();
/// println!("{} passwords from {} leaves", report.passwords.len(), report.leaf_tasks);
/// # }
/// ```
#[derive(Debug)]
pub struct DcGen<'a> {
    model: &'a PasswordModel,
    config: DcGenConfig,
}

impl<'a> DcGen<'a> {
    /// Creates a generator borrowing a trained PagPassGPT model.
    #[must_use]
    pub fn new(model: &'a PasswordModel, config: DcGenConfig) -> DcGen<'a> {
        DcGen { model, config }
    }

    /// Runs Algorithm 1 against the pattern prior `patterns` (normally the
    /// training corpus's [`PatternDistribution`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WrongKind`] for PassGPT models — D&C-GEN relies
    /// on pattern-conditioned prefixes, which only PagPassGPT offers.
    pub fn run(&self, patterns: &PatternDistribution) -> Result<DcGenReport, CoreError> {
        self.run_with(patterns, &DcGenOptions::default())
    }

    /// [`run`](Self::run) with runtime options: cancellation, a deadline,
    /// journaling, fault injection, and streaming output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WrongKind`] for PassGPT models and
    /// [`CoreError::Io`] when a [`PasswordSink`] write fails (the final
    /// journal, if configured, is still written first so the run can be
    /// resumed).
    pub fn run_with(
        &self,
        patterns: &PatternDistribution,
        opts: &DcGenOptions<'_>,
    ) -> Result<DcGenReport, CoreError> {
        if self.model.kind() != ModelKind::PagPassGpt {
            return Err(CoreError::WrongKind {
                expected: "PagPassGPT",
            });
        }
        let ranked = patterns.ranked();
        let mass: f64 = if self.config.uniform_patterns {
            ranked.len() as f64
        } else {
            ranked.iter().map(|e| e.probability).sum()
        };
        if ranked.is_empty() || mass <= 0.0 || self.config.total == 0 {
            return Ok(DcGenReport::empty());
        }

        let pattern_list: Vec<Pattern> = ranked.iter().map(|e| e.pattern.clone()).collect();
        let priors: Vec<f64> = ranked
            .iter()
            .map(|e| {
                if self.config.uniform_patterns {
                    1.0
                } else {
                    e.probability
                }
            })
            .collect();
        let seeded = sched::seed(&self.config, &pattern_list, &priors, mass);
        let state = PoolState::fresh(seeded.scheduler, seeded.patterns_used, seeded.deleted);
        sched::pool::run_pool(self.model, &self.config, state, &pattern_list, opts)
    }

    /// Continues an interrupted run from its journal.
    ///
    /// The journal carries the original configuration (scheduler
    /// included), the pattern table, and every task not yet completed;
    /// generation picks up from there. Passwords counted by the journal
    /// are *not* regenerated — truncate a partially-written output file to
    /// [`DcGenJournal::emitted`] lines and append this run's output. With
    /// `workers == 1` the combined output is byte-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WrongKind`] for PassGPT models and
    /// [`CoreError::Io`] for sink failures, as [`run_with`](Self::run_with).
    pub fn resume(
        model: &'a PasswordModel,
        journal: &DcGenJournal,
        opts: &DcGenOptions<'_>,
    ) -> Result<DcGenReport, CoreError> {
        if model.kind() != ModelKind::PagPassGpt {
            return Err(CoreError::WrongKind {
                expected: "PagPassGPT",
            });
        }
        let config = DcGenConfig {
            total: journal.total,
            threshold: journal.threshold,
            temperature: journal.temperature,
            seed: journal.seed,
            uniform_patterns: false,
            workers: journal.workers,
            max_task_retries: journal.max_task_retries,
            journal_every: journal.journal_every,
            scheduler: journal.scheduler,
            frontier_cap: journal.frontier_cap,
        };
        let scheduler = sched::restore(&config, journal);
        let state = PoolState::resumed(scheduler, journal);
        sched::pool::run_pool(model, &config, state, &journal.patterns, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagpass_nn::GptConfig;
    use pagpass_tokenizer::VOCAB_SIZE;

    fn tiny_model(kind: ModelKind) -> PasswordModel {
        PasswordModel::new(
            kind,
            GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 16,
                n_layers: 1,
                n_heads: 2,
            },
            5,
        )
    }

    fn simple_patterns() -> PatternDistribution {
        PatternDistribution::from_passwords(["ab12", "cd34", "ef56", "xy9", "qqq1"].iter().copied())
    }

    #[test]
    fn rejects_passgpt_models() {
        let model = tiny_model(ModelKind::PassGpt);
        let err = DcGen::new(&model, DcGenConfig::new(100)).run(&simple_patterns());
        assert!(matches!(err, Err(CoreError::WrongKind { .. })));
    }

    #[test]
    fn small_budget_executes_leaves_directly() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let config = DcGenConfig {
            threshold: 1_000,
            ..DcGenConfig::new(100)
        };
        let report = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
        assert_eq!(report.expansions, 0, "all quotas are below the threshold");
        assert!(report.leaf_tasks > 0);
        assert!(!report.passwords.is_empty());
        // Budget conservation up to rounding: within 2x of N.
        let n = report.passwords.len() as u64;
        assert!((50..=200).contains(&n), "generated {n} for budget 100");
    }

    #[test]
    fn large_budget_forces_divisions() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let config = DcGenConfig {
            threshold: 50,
            ..DcGenConfig::new(2_000)
        };
        let report = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
        assert!(report.expansions > 0, "quotas above T must split");
    }

    #[test]
    fn all_outputs_conform_to_some_requested_pattern() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let patterns = simple_patterns();
        let config = DcGenConfig {
            threshold: 64,
            ..DcGenConfig::new(500)
        };
        let report = DcGen::new(&model, config).run(&patterns).unwrap();
        let known: Vec<Pattern> = patterns.ranked().into_iter().map(|e| e.pattern).collect();
        for pw in &report.passwords {
            let p = Pattern::of_password(pw).unwrap();
            assert!(known.contains(&p), "{pw} has unexpected pattern {p}");
        }
    }

    #[test]
    fn single_worker_is_deterministic() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let config = DcGenConfig {
            threshold: 64,
            seed: 9,
            ..DcGenConfig::new(300)
        };
        let a = DcGen::new(&model, config.clone())
            .run(&simple_patterns())
            .unwrap();
        let b = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
        assert_eq!(a.passwords, b.passwords);
    }

    #[test]
    fn multi_worker_run_completes_with_same_volume() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let single = DcGenConfig {
            threshold: 64,
            workers: 1,
            ..DcGenConfig::new(400)
        };
        let multi = DcGenConfig {
            threshold: 64,
            workers: 4,
            ..DcGenConfig::new(400)
        };
        let a = DcGen::new(&model, single).run(&simple_patterns()).unwrap();
        let b = DcGen::new(&model, multi).run(&simple_patterns()).unwrap();
        assert_eq!(
            a.leaf_tasks, b.leaf_tasks,
            "task tree is schedule-independent"
        );
        assert_eq!(a.passwords.len(), b.passwords.len());
    }

    #[test]
    fn search_space_cap_limits_small_patterns() {
        // Pattern N1 admits only 10 passwords; a huge budget must be capped.
        let model = tiny_model(ModelKind::PagPassGpt);
        let patterns = PatternDistribution::from_passwords(["7"].iter().copied());
        let config = DcGenConfig {
            threshold: 1_000_000,
            ..DcGenConfig::new(100_000)
        };
        let report = DcGen::new(&model, config).run(&patterns).unwrap();
        assert!(
            report.passwords.len() <= 10 * 2,
            "cap at search space, got {}",
            report.passwords.len()
        );
    }

    #[test]
    fn zero_budget_and_empty_priors_are_harmless() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let empty = PatternDistribution::new();
        let r1 = DcGen::new(&model, DcGenConfig::new(0))
            .run(&simple_patterns())
            .unwrap();
        let r2 = DcGen::new(&model, DcGenConfig::new(100))
            .run(&empty)
            .unwrap();
        assert!(r1.passwords.is_empty());
        assert!(r2.passwords.is_empty());
    }

    #[test]
    fn never_exceeds_global_budget() {
        // Leaf quotas round up (`.max(1.0)`), so without the reservation
        // cap many small leaves overshoot N. Exercise several shapes.
        let model = tiny_model(ModelKind::PagPassGpt);
        for (total, threshold) in [(10u64, 2u64), (37, 5), (100, 1), (250, 64)] {
            let config = DcGenConfig {
                threshold,
                ..DcGenConfig::new(total)
            };
            let report = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
            assert!(
                report.passwords.len() as u64 <= total,
                "generated {} for budget {total} (threshold {threshold})",
                report.passwords.len()
            );
            assert_eq!(report.emitted, report.passwords.len() as u64);
        }
    }

    #[test]
    fn emitted_matches_passwords_without_sink() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let config = DcGenConfig {
            threshold: 64,
            ..DcGenConfig::new(300)
        };
        let report = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
        assert_eq!(report.emitted, report.passwords.len() as u64);
        assert!(!report.interrupted);
        assert!(report.failed_tasks.is_empty());
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn sample_scheduler_emits_conforming_passwords_within_budget() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let patterns = simple_patterns();
        let config = DcGenConfig {
            threshold: 64,
            scheduler: SchedulerKind::Sample,
            ..DcGenConfig::new(300)
        };
        let report = DcGen::new(&model, config).run(&patterns).unwrap();
        assert_eq!(report.expansions, 0, "plain sampling never divides");
        assert!(report.passwords.len() as u64 <= 300);
        assert!(!report.passwords.is_empty());
        let known: Vec<Pattern> = patterns.ranked().into_iter().map(|e| e.pattern).collect();
        for pw in &report.passwords {
            let p = Pattern::of_password(pw).unwrap();
            assert!(known.contains(&p), "{pw} has unexpected pattern {p}");
        }
    }

    #[test]
    fn sample_scheduler_is_deterministic_single_worker() {
        let model = tiny_model(ModelKind::PagPassGpt);
        let config = DcGenConfig {
            threshold: 32,
            seed: 4,
            scheduler: SchedulerKind::Sample,
            ..DcGenConfig::new(200)
        };
        let a = DcGen::new(&model, config.clone())
            .run(&simple_patterns())
            .unwrap();
        let b = DcGen::new(&model, config).run(&simple_patterns()).unwrap();
        assert_eq!(a.passwords, b.passwords);
    }
}
